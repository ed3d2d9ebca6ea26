//! JSON codecs for [`Span`]/[`Timeline`] — used by the campaign API's
//! trace endpoint and the cluster wire format.

use crate::{Span, Timeline};
use jsonlite::Value;

pub fn span_to_value(span: &Span) -> Value {
    Value::obj(vec![
        ("service", Value::str(&span.service)),
        ("name", Value::str(&span.name)),
        ("start", Value::Float(span.start)),
        ("duration", Value::Float(span.duration)),
        ("failed", Value::Bool(span.failed)),
    ])
}

pub fn span_from_value(v: &Value) -> Option<Span> {
    let mut span = Span::new(
        v.get("service")?.as_str()?,
        v.get("name")?.as_str()?,
        v.get("start")?.as_f64()?,
        v.get("duration")?.as_f64()?,
    );
    span.failed = v.get("failed").and_then(Value::as_bool).unwrap_or(false);
    Some(span)
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
        let text = timeline_to_value(&t).compact();
        let parsed = jsonlite::parse(&text).unwrap();
        let back: Option<Vec<Span>> = parsed
            .as_arr()
            .unwrap()
            .iter()
            .map(span_from_value)
            .collect();
        assert_eq!(back.unwrap(), t.spans());
    }

    #[test]
    fn missing_fields_decode_to_none() {
        let v = jsonlite::parse(r#"{"service":"s","name":"n"}"#).unwrap();
        assert!(span_from_value(&v).is_none());
    }
}
