//! Harness-side spans: one around each call into a layer, kept in
//! memory, written out as JSONL when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the crate name.
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op every span of one request shares.
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// Off for the ops that measure what recording costs.
    pub recording: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            recording: true,
        }
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.recording {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.duration();
        }
    }
    own
}

/// Per op, the summed duration of every span name.
pub fn totals_by_op(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
    let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for span in spans {
        *out.entry(span.op)
            .or_default()
            .entry(span.name)
            .or_insert(0.0) += span.duration();
    }
    out
}

/// Per op, the summed self time of every layer (`harness` excluded by
/// the caller if it wants attributed time only).
pub fn layer_self_by_op(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
    let own = self_times(spans);
    let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        *out.entry(span.op)
            .or_default()
            .entry(span.layer())
            .or_insert(0.0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,10] > deploy [1,5] > parse [2,4]; op > round [5,9].
        let spans = vec![
            span("harness.op", 0.0, 10.0, None),
            span("sandbox.deploy", 1.0, 5.0, Some(0)),
            span("pysrc.parse", 2.0, 4.0, Some(1)),
            span("sandbox.round1", 5.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![2.0, 2.0, 2.0, 4.0]);
        let layers = layer_self_by_op(&spans);
        assert_eq!(layers[&1]["sandbox"], 6.0);
        assert_eq!(layers[&1]["pysrc"], 2.0);
        assert_eq!(layers[&1]["harness"], 2.0);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn tracer_nests_and_tags_ops() {
        let mut t = Tracer::new();
        t.set_op(7);
        t.span("harness.op", |t| {
            t.span("pysrc.parse", |_| ());
            t.span("pyrt.prepare", |t| t.span("pyrt.compile", |_| ()));
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|s| s.op == 7 && s.end >= s.start));
        let totals = totals_by_op(s);
        assert_eq!(totals[&7]["pysrc.parse"], s[1].duration());
    }
}
