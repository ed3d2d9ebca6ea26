//! `trace` — Zipkin-style event timelines and failure visualization
//! (paper §IV-D: "The tool instruments selected RPC APIs in the target
//! software, and records their invocations ... visualized as events on
//! timelines").
//!
//! The `etcdsim` host records one [`Span`]-equivalent per API call; the
//! sandbox converts them into a [`Timeline`], and [`render_timeline`]
//! draws an ASCII chart (standing in for Zipkin's interactive plots).
//!
//! # Example
//!
//! ```
//! use trace::{Span, Timeline};
//!
//! let mut t = Timeline::new();
//! t.push(Span::new("client", "PUT /v2/keys/a", 0.00, 0.02).ok());
//! t.push(Span::new("client", "GET /v2/keys/a", 0.05, 0.01).err());
//! let art = trace::render_timeline(&t, 40);
//! assert!(art.contains("PUT /v2/keys/a"));
//! ```

#![forbid(unsafe_code)]

pub mod json;
pub mod store;

pub use store::TraceStore;

use std::fmt::Write as _;

/// One traced operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Service/component that performed the operation.
    pub service: String,
    /// Operation label (e.g. `"PUT /v2/keys/a"`).
    pub name: String,
    /// Start time (virtual seconds).
    pub start: f64,
    /// Duration (virtual seconds).
    pub duration: f64,
    /// Whether the operation failed.
    pub failed: bool,
}

impl Span {
    /// Creates a successful span.
    pub fn new(service: &str, name: &str, start: f64, duration: f64) -> Span {
        Span {
            service: service.to_string(),
            name: name.to_string(),
            start,
            duration,
            failed: false,
        }
    }

    /// Marks the span successful (builder-style).
    pub fn ok(mut self) -> Span {
        self.failed = false;
        self
    }

    /// Marks the span failed (builder-style).
    pub fn err(mut self) -> Span {
        self.failed = true;
        self
    }
}

/// An ordered collection of spans.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    spans: Vec<Span>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// Appends a span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// The spans in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// End time of the last-finishing span.
    pub fn end_time(&self) -> f64 {
        self.spans
            .iter()
            .map(|s| s.start + s.duration)
            .fold(0.0, f64::max)
    }

    /// Number of failed spans.
    pub fn failures(&self) -> usize {
        self.spans.iter().filter(|s| s.failed).count()
    }
}

impl FromIterator<Span> for Timeline {
    fn from_iter<I: IntoIterator<Item = Span>>(iter: I) -> Timeline {
        Timeline {
            spans: iter.into_iter().collect(),
        }
    }
}

impl Extend<Span> for Timeline {
    fn extend<I: IntoIterator<Item = Span>>(&mut self, iter: I) {
        self.spans.extend(iter);
    }
}

/// Renders the timeline as an ASCII chart, one row per span:
/// `###` bars positioned proportionally, `!!!` for failed spans.
pub fn render_timeline(timeline: &Timeline, width: usize) -> String {
    let mut out = String::new();
    let total = timeline.end_time().max(1e-9);
    let label_width = timeline
        .spans()
        .iter()
        .map(|s| s.service.len() + s.name.len() + 3)
        .max()
        .unwrap_or(8)
        .min(48);
    let _ = writeln!(
        out,
        "{:label_width$} |{}| t=0..{:.3}s",
        "span",
        "-".repeat(width),
        total
    );
    for span in timeline.spans() {
        let label = format!("{} {}", span.service, span.name);
        let label = if label.len() > label_width {
            // Truncate on a char boundary: labels carry user-supplied
            // campaign/operation names, which may be multibyte.
            let cut = label_width.saturating_sub(1);
            let boundary = (0..=cut).rev().find(|i| label.is_char_boundary(*i));
            format!("{}…", &label[..boundary.unwrap_or(0)])
        } else {
            label
        };
        let begin = ((span.start / total) * width as f64).floor() as usize;
        let mut bar_len = ((span.duration / total) * width as f64).ceil() as usize;
        bar_len = bar_len.clamp(1, width.saturating_sub(begin).max(1));
        let fill = if span.failed { "!" } else { "#" };
        let _ = writeln!(
            out,
            "{:label_width$} |{}{}{}|",
            label,
            " ".repeat(begin.min(width)),
            fill.repeat(bar_len),
            " ".repeat(width.saturating_sub(begin + bar_len)),
        );
    }
    let _ = writeln!(
        out,
        "{} spans, {} failed",
        timeline.len(),
        timeline.failures()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Timeline {
        let mut t = Timeline::new();
        t.push(Span::new("client", "PUT /v2/keys/a", 0.0, 0.5));
        t.push(Span::new("client", "GET /v2/keys/a", 0.6, 0.2));
        t.push(Span::new("client", "DELETE /v2/keys/a", 0.9, 0.1).err());
        t
    }

    #[test]
    fn timeline_accumulates_spans() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.failures(), 1);
        assert!((t.end_time() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_contains_labels_and_bars() {
        let art = render_timeline(&sample(), 40);
        assert!(art.contains("PUT /v2/keys/a"));
        assert!(art.contains('#'));
        assert!(art.contains('!'), "failed span rendered with !");
        assert!(art.contains("3 spans, 1 failed"));
    }

    #[test]
    fn render_handles_empty_timeline() {
        let art = render_timeline(&Timeline::new(), 20);
        assert!(art.contains("0 spans"));
    }

    #[test]
    fn bars_are_positioned_proportionally() {
        let mut t = Timeline::new();
        t.push(Span::new("a", "early", 0.0, 0.1));
        t.push(Span::new("a", "late", 0.9, 0.1));
        let art = render_timeline(&t, 40);
        let early_line = art.lines().nth(1).unwrap();
        let late_line = art.lines().nth(2).unwrap();
        assert!(early_line.find('#') < late_line.find('#'));
    }

    #[test]
    fn from_iterator_collects() {
        let t: Timeline = vec![Span::new("s", "x", 0.0, 1.0)].into_iter().collect();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_timeline_output_is_stable() {
        let art = render_timeline(&Timeline::new(), 20);
        let expected = format!("{:8} |{}| t=0..0.000s\n0 spans, 0 failed\n", "span", "-".repeat(20));
        assert_eq!(art, expected);
    }

    #[test]
    fn zero_duration_spans_render_one_cell_bars() {
        let mut t = Timeline::new();
        t.push(Span::new("a", "instant", 0.0, 0.0));
        t.push(Span::new("a", "anchor", 0.0, 1.0));
        let art = render_timeline(&t, 30);
        let instant_line = art.lines().nth(1).unwrap();
        assert_eq!(
            instant_line.matches('#').count(),
            1,
            "zero-duration span draws exactly one cell: {instant_line}"
        );
        // Every span row stays exactly as wide as the chart.
        let rows: Vec<&str> = art.lines().skip(1).take(t.len()).collect();
        for row in &rows {
            assert_eq!(row.len(), rows[0].len(), "{art}");
        }
    }

    #[test]
    fn spans_wider_than_the_chart_clamp_without_panicking() {
        let mut t = Timeline::new();
        // Three mutually overlapping spans, one starting near the end
        // of the chart with a duration that would run past it.
        t.push(Span::new("a", "whole", 0.0, 10.0));
        t.push(Span::new("b", "tail", 9.5, 10.0).err());
        t.push(Span::new("c", "mid", 2.0, 9.0));
        let art = render_timeline(&t, 8);
        let rows: Vec<&str> = art.lines().skip(1).take(3).collect();
        for row in &rows {
            assert_eq!(row.len(), rows[0].len(), "bars must clamp to the chart:\n{art}");
        }
        assert!(art.contains('!'), "failed overlap keeps its marker");
        // Stable output: rendering twice is byte-identical.
        assert_eq!(art, render_timeline(&t, 8));
    }

    #[test]
    fn zero_width_chart_does_not_panic() {
        let mut t = Timeline::new();
        t.push(Span::new("a", "x", 0.0, 1.0));
        let art = render_timeline(&t, 0);
        assert!(art.contains("1 spans"));
    }

    #[test]
    fn multibyte_labels_truncate_on_char_boundaries() {
        let mut t = Timeline::new();
        t.push(Span::new("sërvïcé", &"émploi-très-long-ünïcode-".repeat(4), 0.0, 1.0));
        t.push(Span::new("a", "b", 0.5, 0.5));
        let art = render_timeline(&t, 24); // must not panic mid-char
        assert!(art.contains('…'));
    }
}
