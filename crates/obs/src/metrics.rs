//! Typed metrics: `Counter`, `Gauge`, and fixed-bucket `Histogram`
//! handles backed by a [`Registry`], rendered in Prometheus exposition
//! format.
//!
//! Handles are cheap `Arc` clones detached from the registry lock:
//! `inc()`/`observe()` are a few atomic ops, never a mutex. The
//! registry lock is taken only at registration and render time.
//! Registration is idempotent by `(name, labels)` — asking for the
//! same instrument twice returns the same handle; asking for the same
//! name with a different *kind* (or different histogram buckets) is a
//! programmer error and panics.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default buckets for request/operation latencies: 500 µs .. 10 s.
pub const LATENCY_BUCKETS: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// Wider buckets for queue waits and other "could be minutes" delays:
/// 1 ms .. 10 min.
pub const WAIT_BUCKETS: &[f64] = &[0.001, 0.005, 0.025, 0.1, 0.5, 2.0, 10.0, 30.0, 120.0, 600.0];

type Labels = Vec<(String, String)>;

fn to_labels(pairs: &[(&str, &str)]) -> Labels {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Lock-free f64 accumulation over an `AtomicU64` bit pattern.
fn add_f64(cell: &AtomicU64, v: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + v).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

struct CounterCore {
    labels: Labels,
    value: AtomicU64,
}

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
}

impl Counter {
    /// Creates a counter not yet attached to any registry (attach with
    /// [`Registry::register_counter`]).
    pub fn detached() -> Counter {
        Counter::detached_with(&[])
    }

    /// [`Counter::detached`] with a label set, for a family whose
    /// children are created before any registry exists.
    pub fn detached_with(labels: &[(&str, &str)]) -> Counter {
        Counter {
            core: Arc::new(CounterCore {
                labels: to_labels(labels),
                value: AtomicU64::new(0),
            }),
        }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.core.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn value(&self) -> u64 {
        self.core.value.load(Ordering::Relaxed)
    }
}

struct GaugeCore {
    labels: Labels,
    value: AtomicU64,
}

/// A gauge holding one non-negative integer value.
#[derive(Clone)]
pub struct Gauge {
    core: Arc<GaugeCore>,
}

impl Gauge {
    /// Creates a gauge not yet attached to any registry.
    pub fn detached() -> Gauge {
        Gauge {
            core: Arc::new(GaugeCore {
                labels: Vec::new(),
                value: AtomicU64::new(0),
            }),
        }
    }

    pub fn set(&self, v: u64) {
        self.core.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.core.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: u64) {
        self.core.value.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn value(&self) -> u64 {
        self.core.value.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    labels: Labels,
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; rendered cumulatively.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// A fixed-bucket latency histogram (seconds).
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Creates a histogram not yet attached to any registry (attach
    /// with [`Registry::register_histogram`]).
    pub fn detached(bounds: &[f64]) -> Histogram {
        Histogram {
            core: Arc::new(HistogramCore {
                labels: Vec::new(),
                bounds: bounds.to_vec(),
                buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation (in seconds for latency histograms).
    pub fn observe(&self, v: f64) {
        if let Some(i) = self.core.bounds.iter().position(|b| v <= *b) {
            self.core.buckets[i].fetch_add(1, Ordering::Relaxed);
        }
        self.core.count.fetch_add(1, Ordering::Relaxed);
        add_f64(&self.core.sum_bits, v);
    }

    /// Records an elapsed [`Duration`].
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }
}

enum Instrument {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Histogram(Arc<HistogramCore>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }

    fn labels(&self) -> &Labels {
        match self {
            Instrument::Counter(c) => &c.labels,
            Instrument::Gauge(g) => &g.labels,
            Instrument::Histogram(h) => &h.labels,
        }
    }
}

struct Family {
    name: String,
    help: String,
    children: Vec<Instrument>,
}

/// A collection of metric families rendered together on `/metrics`.
///
/// Families render in registration order; every family gets exactly
/// one `# HELP` and one `# TYPE` line, and its samples are contiguous
/// — the exposition invariants [`validate_exposition`] checks.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self
            .families
            .lock()
            .unwrap()
            .iter()
            .map(|fam| fam.name.clone())
            .collect();
        f.debug_struct("Registry").field("families", &names).finish()
    }
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Create-or-get an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Create-or-get a counter with the given label set.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let labels = to_labels(labels);
        let mut families = self.families.lock().unwrap();
        let family = Self::family_mut(&mut families, name, help, "counter");
        for child in &family.children {
            if let Instrument::Counter(core) = child {
                if core.labels == labels {
                    return Counter { core: core.clone() };
                }
            }
        }
        let core = Arc::new(CounterCore {
            labels,
            value: AtomicU64::new(0),
        });
        family.children.push(Instrument::Counter(core.clone()));
        Counter { core }
    }

    /// Create-or-get an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Create-or-get a gauge with the given label set.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let labels = to_labels(labels);
        let mut families = self.families.lock().unwrap();
        let family = Self::family_mut(&mut families, name, help, "gauge");
        for child in &family.children {
            if let Instrument::Gauge(core) = child {
                if core.labels == labels {
                    return Gauge { core: core.clone() };
                }
            }
        }
        let core = Arc::new(GaugeCore {
            labels,
            value: AtomicU64::new(0),
        });
        family.children.push(Instrument::Gauge(core.clone()));
        Gauge { core }
    }

    /// Create-or-get an unlabeled histogram with the given bucket
    /// bounds.
    ///
    /// # Panics
    ///
    /// Panics if the family exists with different bounds or kind.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Create-or-get a labeled histogram.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        let labels = to_labels(labels);
        let mut families = self.families.lock().unwrap();
        let family = Self::family_mut(&mut families, name, help, "histogram");
        for child in &family.children {
            if let Instrument::Histogram(core) = child {
                if core.labels == labels {
                    assert_eq!(
                        core.bounds, bounds,
                        "histogram {name} re-registered with different buckets"
                    );
                    return Histogram { core: core.clone() };
                }
            }
        }
        if let Some(Instrument::Histogram(first)) = family.children.first() {
            assert_eq!(
                first.bounds, bounds,
                "histogram {name} children must share bucket bounds"
            );
        }
        let core = Arc::new(HistogramCore {
            labels,
            bounds: bounds.to_vec(),
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        });
        family.children.push(Instrument::Histogram(core.clone()));
        Histogram { core }
    }

    /// Attaches a pre-created detached counter under `name`.
    /// Idempotent for the same handle; panics on a conflicting one.
    pub fn register_counter(&self, name: &str, help: &str, counter: &Counter) {
        let mut families = self.families.lock().unwrap();
        let family = Self::family_mut(&mut families, name, help, "counter");
        Self::attach(family, name, Instrument::Counter(counter.core.clone()), |c| {
            matches!(c, Instrument::Counter(core) if Arc::ptr_eq(core, &counter.core))
        });
    }

    /// Attaches a pre-created detached gauge under `name`.
    pub fn register_gauge(&self, name: &str, help: &str, gauge: &Gauge) {
        let mut families = self.families.lock().unwrap();
        let family = Self::family_mut(&mut families, name, help, "gauge");
        Self::attach(family, name, Instrument::Gauge(gauge.core.clone()), |c| {
            matches!(c, Instrument::Gauge(core) if Arc::ptr_eq(core, &gauge.core))
        });
    }

    /// Attaches a pre-created detached histogram under `name`.
    pub fn register_histogram(&self, name: &str, help: &str, histogram: &Histogram) {
        let mut families = self.families.lock().unwrap();
        let family = Self::family_mut(&mut families, name, help, "histogram");
        Self::attach(
            family,
            name,
            Instrument::Histogram(histogram.core.clone()),
            |c| matches!(c, Instrument::Histogram(core) if Arc::ptr_eq(core, &histogram.core)),
        );
    }

    /// Drops the child of family `name` with exactly `labels`, for a
    /// series whose subject is gone (a pruned worker). Handles to it
    /// keep working; it just no longer renders.
    pub fn remove(&self, name: &str, labels: &[(&str, &str)]) {
        let labels = to_labels(labels);
        let mut families = self.families.lock().unwrap();
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            family.children.retain(|c| *c.labels() != labels);
        }
    }

    fn attach(
        family: &mut Family,
        name: &str,
        instrument: Instrument,
        is_same: impl Fn(&Instrument) -> bool,
    ) {
        if family.children.iter().any(is_same) {
            return; // same handle registered twice
        }
        assert!(
            !family
                .children
                .iter()
                .any(|c| c.labels() == instrument.labels()),
            "metric {name}: duplicate registration with identical labels"
        );
        family.children.push(instrument);
    }

    fn family_mut<'a>(
        families: &'a mut Vec<Family>,
        name: &str,
        help: &str,
        kind: &'static str,
    ) -> &'a mut Family {
        if let Some(i) = families.iter().position(|f| f.name == name) {
            let existing = families[i]
                .children
                .first()
                .map(|c| c.kind())
                .unwrap_or(kind);
            assert_eq!(
                existing, kind,
                "metric {name} registered as {existing}, requested as {kind}"
            );
            return &mut families[i];
        }
        families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            children: Vec::new(),
        });
        families.last_mut().unwrap()
    }

    /// Renders every family in Prometheus exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock().unwrap();
        for family in families.iter() {
            let kind = match family.children.first() {
                Some(c) => c.kind(),
                None => continue,
            };
            let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", family.name, kind);
            for child in &family.children {
                match child {
                    Instrument::Counter(c) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            label_block(&c.labels),
                            c.value.load(Ordering::Relaxed)
                        );
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            label_block(&g.labels),
                            g.value.load(Ordering::Relaxed)
                        );
                    }
                    Instrument::Histogram(h) => render_histogram(&mut out, &family.name, h),
                }
            }
        }
        out
    }
}

fn render_histogram(out: &mut String, name: &str, h: &HistogramCore) {
    let mut cumulative = 0u64;
    for (i, bound) in h.bounds.iter().enumerate() {
        cumulative += h.buckets[i].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            label_block_with(&h.labels, "le", &fmt_f64(*bound)),
        );
    }
    // `+Inf` equals `_count` by definition; using the count cell keeps
    // the two consistent even mid-observation.
    let count = h.count.load(Ordering::Relaxed);
    let _ = writeln!(
        out,
        "{name}_bucket{} {count}",
        label_block_with(&h.labels, "le", "+Inf"),
    );
    let sum = f64::from_bits(h.sum_bits.load(Ordering::Relaxed));
    let _ = writeln!(out, "{name}_sum{} {}", label_block(&h.labels), fmt_f64(sum));
    let _ = writeln!(out, "{name}_count{} {count}", label_block(&h.labels));
}

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn label_block(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn label_block_with(labels: &Labels, extra_key: &str, extra_value: &str) -> String {
    let mut body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    body.push(format!("{extra_key}=\"{extra_value}\""));
    format!("{{{}}}", body.join(","))
}

/// Checks `text` against the Prometheus exposition invariants this
/// workspace relies on: every sample's family has a `# TYPE` line
/// *before* its first sample, no family is declared twice, family
/// sample blocks are contiguous, label blocks are well-formed, and
/// every value parses as a number. Returns the family names in
/// declaration order.
pub fn validate_exposition(text: &str) -> Result<Vec<String>, String> {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut helped: HashSet<String> = HashSet::new();
    let mut sampled: HashSet<String> = HashSet::new();
    let mut closed: HashSet<String> = HashSet::new();
    let mut current: Option<String> = None;

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or_default();
            if name.is_empty() {
                return Err(format!("line {lineno}: HELP without a metric name"));
            }
            if !helped.insert(name.to_string()) {
                return Err(format!("line {lineno}: duplicate HELP for {name}"));
            }
            if sampled.contains(name) {
                return Err(format!("line {lineno}: HELP for {name} after its samples"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or_default().to_string();
            let kind = parts.next().unwrap_or_default();
            if name.is_empty() || kind.is_empty() {
                return Err(format!("line {lineno}: malformed TYPE line"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return Err(format!("line {lineno}: unknown metric type {kind}"));
            }
            if sampled.contains(&name) {
                return Err(format!("line {lineno}: TYPE for {name} after its samples"));
            }
            if types.insert(name.clone(), kind.to_string()).is_some() {
                return Err(format!("line {lineno}: duplicate family {name}"));
            }
            order.push(name);
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }

        // Sample line: `name value` or `name{labels} value`.
        let (name, rest) = match line.find(['{', ' ']) {
            Some(i) => line.split_at(i),
            None => return Err(format!("line {lineno}: sample without a value")),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("line {lineno}: invalid metric name {name:?}"));
        }
        let value_str = if let Some(labels) = rest.strip_prefix('{') {
            let close = find_label_close(labels)
                .ok_or_else(|| format!("line {lineno}: unterminated label block"))?;
            validate_labels(&labels[..close])
                .map_err(|e| format!("line {lineno}: bad labels: {e}"))?;
            labels[close + 1..].trim()
        } else {
            rest.trim()
        };
        let value = value_str.split_whitespace().next().unwrap_or_default();
        if !matches!(value, "+Inf" | "-Inf" | "NaN") && value.parse::<f64>().is_err() {
            return Err(format!("line {lineno}: unparseable value {value:?}"));
        }

        // Resolve the sample to its family: exact name first, then
        // histogram series suffixes.
        let family = if types.contains_key(name) {
            name.to_string()
        } else {
            let stripped = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix))
                .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"));
            match stripped {
                Some(base) => base.to_string(),
                None => return Err(format!("line {lineno}: sample {name} has no TYPE")),
            }
        };
        if current.as_deref() != Some(family.as_str()) {
            if closed.contains(&family) {
                return Err(format!(
                    "line {lineno}: family {family} samples are not contiguous"
                ));
            }
            if let Some(prev) = current.take() {
                closed.insert(prev);
            }
            current = Some(family.clone());
        }
        sampled.insert(family);
    }
    Ok(order)
}

/// Index of the `}` that closes the label block (quote-aware).
fn find_label_close(s: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            '}' if !in_quotes => return Some(i),
            _ => {}
        }
    }
    None
}

fn validate_labels(body: &str) -> Result<(), String> {
    if body.is_empty() {
        return Ok(());
    }
    // Split on commas outside quotes, then check each `key="value"`.
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_quotes {
        return Err("unterminated quote".to_string());
    }
    parts.push(&body[start..]);
    for part in parts {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("label {part:?} missing '='"))?;
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("invalid label name {key:?}"));
        }
        if !value.starts_with('"') || !value.ends_with('"') || value.len() < 2 {
            return Err(format!("label value {value:?} not quoted"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_render_with_help_and_type() {
        let registry = Registry::new();
        let c = registry.counter("requests_total", "Requests served.");
        c.add(3);
        let g = registry.gauge("queue_depth", "Jobs waiting.");
        g.set(7);
        let out = registry.render();
        assert!(out.contains("# HELP requests_total Requests served."));
        assert!(out.contains("# TYPE requests_total counter"));
        assert!(out.contains("requests_total 3"));
        assert!(out.contains("# TYPE queue_depth gauge"));
        assert!(out.contains("queue_depth 7"));
        validate_exposition(&out).unwrap();
    }

    #[test]
    fn handles_are_idempotent_by_name_and_labels() {
        let registry = Registry::new();
        let a = registry.counter_with("hits", "h", &[("route", "/x")]);
        let b = registry.counter_with("hits", "h", &[("route", "/x")]);
        let other = registry.counter_with("hits", "h", &[("route", "/y")]);
        a.inc();
        b.inc();
        other.add(5);
        assert_eq!(a.value(), 2, "same labels → same underlying cell");
        assert_eq!(other.value(), 5);
        let out = registry.render();
        assert!(out.contains("hits{route=\"/x\"} 2"));
        assert!(out.contains("hits{route=\"/y\"} 5"));
        assert_eq!(out.matches("# TYPE hits counter").count(), 1);
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("thing", "c");
        registry.gauge("thing", "g");
    }

    #[test]
    fn histogram_renders_cumulative_buckets_sum_and_count() {
        let registry = Registry::new();
        let h = registry.histogram("op_seconds", "Op latency.", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let out = registry.render();
        assert!(out.contains("# TYPE op_seconds histogram"));
        assert!(out.contains("op_seconds_bucket{le=\"0.1\"} 1"));
        assert!(out.contains("op_seconds_bucket{le=\"1\"} 2"));
        assert!(out.contains("op_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("op_seconds_count 3"));
        let sum_line = out
            .lines()
            .find(|l| l.starts_with("op_seconds_sum"))
            .unwrap();
        let sum: f64 = sum_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!((sum - 5.55).abs() < 1e-9, "{sum_line}");
        validate_exposition(&out).unwrap();
    }

    #[test]
    fn detached_instruments_register_later() {
        let h = Histogram::detached(&[0.5]);
        h.observe(0.1);
        let registry = Registry::new();
        registry.register_histogram("pre_seconds", "Pre-created.", &h);
        registry.register_histogram("pre_seconds", "Pre-created.", &h); // idempotent
        h.observe(0.2);
        let out = registry.render();
        assert!(out.contains("pre_seconds_count 2"), "{out}");
        validate_exposition(&out).unwrap();
    }

    #[test]
    fn removed_children_stop_rendering() {
        let registry = Registry::new();
        let gone = registry.gauge_with("age", "a", &[("worker", "w1")]);
        registry.gauge_with("age", "a", &[("worker", "w2")]).set(2);
        registry.remove("age", &[("worker", "w1")]);
        gone.set(9);
        let out = registry.render();
        assert!(!out.contains("w1"), "{out}");
        assert!(out.contains("age{worker=\"w2\"} 2"), "{out}");
        registry.remove("age", &[("worker", "w2")]);
        assert_eq!(
            registry.render(),
            "",
            "a family without children renders nothing"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = Registry::new();
        registry
            .counter_with("odd", "o", &[("k", "a\"b\\c\nd")])
            .inc();
        let out = registry.render();
        assert!(out.contains(r#"odd{k="a\"b\\c\nd"} 1"#), "{out}");
        validate_exposition(&out).unwrap();
    }

    #[test]
    fn validator_rejects_type_after_samples_and_duplicates() {
        assert!(validate_exposition("x 1\n# TYPE x counter\n").is_err());
        assert!(
            validate_exposition("# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n").is_err(),
            "duplicate family must be rejected"
        );
        assert!(validate_exposition("# TYPE x counter\nx notanumber\n").is_err());
        assert!(
            validate_exposition(
                "# TYPE a counter\n# TYPE b counter\na 1\nb 1\na 2\n"
            )
            .is_err(),
            "interleaved family samples must be rejected"
        );
        let families =
            validate_exposition("# TYPE a counter\na 1\n# TYPE b gauge\nb{x=\"y\"} 2\n").unwrap();
        assert_eq!(families, vec!["a", "b"]);
    }

    #[test]
    fn validator_accepts_histogram_series() {
        let text = "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3.5\nh_count 2\n";
        validate_exposition(text).unwrap();
        // But a bare histogram-suffixed sample with no family is rejected.
        assert!(validate_exposition("orphan_bucket{le=\"+Inf\"} 1\n").is_err());
    }
}
