//! JSON rendering of a [`Timeline`] — the campaign API's trace endpoint
//! answers with it.

use crate::{Span, Timeline};
use jsonlite::Value;

fn span_to_value(span: &Span) -> Value {
    Value::obj(vec![
        ("service", Value::str(&span.service)),
        ("name", Value::str(&span.name)),
        ("start", Value::Float(span.start)),
        ("duration", Value::Float(span.duration)),
        ("failed", Value::Bool(span.failed)),
    ])
}

pub fn timeline_to_value(timeline: &Timeline) -> Value {
    Value::arr(timeline.spans().iter().map(span_to_value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_round_trip_through_json() {
        let mut t = Timeline::new();
        t.push(Span::new("worker-01", "execute #4", 0.25, 0.125).err());
        t.push(Span::new("engine", "prepare", 0.0, 0.5));
        assert_eq!(
            timeline_to_value(&t).compact(),
            concat!(
                r#"[{"service":"worker-01","name":"execute #4","start":0.25,"#,
                r#""duration":0.125,"failed":true},"#,
                r#"{"service":"engine","name":"prepare","start":0.0,"#,
                r#""duration":0.5,"failed":false}]"#,
            )
        );
    }
}
