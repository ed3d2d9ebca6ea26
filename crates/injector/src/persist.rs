//! Serialization of scan results.
//!
//! The campaign layer's cross-campaign cache persists scan results on
//! disk keyed by (source hash, fault-model hash), and the fleet ships
//! points to workers: both need [`InjectionPoint`]s to round-trip
//! through JSON **portably**. `NodeId`s are process-local (a global
//! counter), so a point written by one process cannot be resolved
//! against modules parsed by another. Statement *spans* are stable for
//! identical source text, though: the portable form stores the window's
//! statement spans next to the ids and re-binds them against freshly
//! parsed modules at load time ([`SpanIndex`]).

use crate::scanner::InjectionPoint;
use jsonlite::Value;
use pysrc::ast::{Module, NodeId};
use pysrc::error::{Pos, Span};
use pysrc::visit::walk_blocks;
use std::collections::HashMap;

fn span_to_value(span: &Span) -> Value {
    Value::Arr(vec![
        Value::Int(span.lo.line as i64),
        Value::Int(span.lo.col as i64),
        Value::Int(span.hi.line as i64),
        Value::Int(span.hi.col as i64),
    ])
}

fn as_u32(v: &Value) -> Option<u32> {
    v.as_u64().and_then(|n| u32::try_from(n).ok())
}

fn span_from_value(v: &Value) -> Result<Span, String> {
    match v.as_arr() {
        Some([a, b, c, d]) => match (as_u32(a), as_u32(b), as_u32(c), as_u32(d)) {
            (Some(a), Some(b), Some(c), Some(d)) => Ok(Span {
                lo: Pos::new(a, b),
                hi: Pos::new(c, d),
            }),
            _ => Err("span element out of range".to_string()),
        },
        _ => Err("expected a span of 4 numbers".to_string()),
    }
}

fn node_id(v: &Value) -> Result<NodeId, String> {
    as_u32(v)
        .map(NodeId)
        .ok_or_else(|| "node id out of range".to_string())
}

impl InjectionPoint {
    /// The point as a JSON value.
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("id", Value::UInt(self.id)),
            ("spec", Value::str(&self.spec_name)),
            ("module", Value::str(&self.module)),
            ("scope", Value::str(&self.scope)),
            ("span", span_to_value(&self.span)),
            ("start_stmt", Value::UInt(self.start_stmt_id.0 as u64)),
            ("window_len", self.window_len.into()),
            (
                "core_ids",
                Value::arr(self.core_ids.iter().map(|id| id.0 as u64)),
            ),
        ])
    }

    /// Reads a point back from a JSON value.
    ///
    /// # Errors
    ///
    /// Describes the malformed field.
    pub fn from_value(v: &Value) -> Result<InjectionPoint, String> {
        Ok(InjectionPoint {
            id: v.req_u64("id")?,
            spec_name: v.req_str("spec")?.into(),
            module: v.req_str("module")?.into(),
            scope: v.req_str("scope")?.into(),
            span: span_from_value(v.req("span")?).map_err(|e| format!("field 'span': {e}"))?,
            start_stmt_id: node_id(v.req("start_stmt")?)
                .map_err(|e| format!("field 'start_stmt': {e}"))?,
            window_len: v.req_u64("window_len")? as usize,
            core_ids: v.req_list("core_ids", node_id)?,
        })
    }
}

/// Statement spans ↔ node ids over one parse of a campaign's modules:
/// what turns a point into its portable form and back. Building it
/// walks every statement, so build it once per batch of points, not
/// once per point.
pub struct SpanIndex<'m> {
    by_span: HashMap<(&'m str, Span), NodeId>,
    by_id: HashMap<(&'m str, NodeId), Span>,
}

impl<'m> SpanIndex<'m> {
    /// Indexes every statement of `modules`.
    ///
    /// # Errors
    ///
    /// If a span is ambiguous (two statements at the same location).
    pub fn new(modules: &'m [Module]) -> Result<SpanIndex<'m>, String> {
        let mut by_span = HashMap::new();
        let mut by_id = HashMap::new();
        let mut ambiguous: Option<(&str, Span)> = None;
        for module in modules {
            let name = module.name.as_str();
            walk_blocks(module, &mut |block, _ctx| {
                for stmt in block {
                    if by_span.insert((name, stmt.span), stmt.id).is_some() {
                        ambiguous = Some((name, stmt.span));
                    }
                    by_id.insert((name, stmt.id), stmt.span);
                }
            });
        }
        match ambiguous {
            Some((module, span)) => Err(format!(
                "module {module} has two statements at span {span}; scan not portable"
            )),
            None => Ok(SpanIndex { by_span, by_id }),
        }
    }

    fn span_of(&self, module: &str, id: NodeId) -> Result<Value, String> {
        match self.by_id.get(&(module, id)) {
            Some(span) => Ok(span_to_value(span)),
            None => Err(format!("statement {id} not found in module {module}")),
        }
    }

    fn id_at(&self, module: &str, span: &Value) -> Result<NodeId, String> {
        let span = span_from_value(span)?;
        self.by_span
            .get(&(module, span))
            .copied()
            .ok_or_else(|| format!("no statement at span {span} in module {module}"))
    }

    /// One point in portable form: [`InjectionPoint::to_value`] plus the
    /// source spans of its window statements.
    ///
    /// # Errors
    ///
    /// If the point references a statement id that is not in the
    /// indexed modules.
    pub fn point_to_value(&self, p: &InjectionPoint) -> Result<Value, String> {
        let mut value = p.to_value();
        let Value::Obj(pairs) = &mut value else {
            unreachable!("to_value builds an object")
        };
        pairs.push((
            "start_span".to_string(),
            self.span_of(&p.module, p.start_stmt_id)?,
        ));
        let core_spans: Result<Vec<Value>, String> = p
            .core_ids
            .iter()
            .map(|id| self.span_of(&p.module, *id))
            .collect();
        pairs.push(("core_spans".to_string(), Value::Arr(core_spans?)));
        Ok(value)
    }

    /// Reads one portable point, re-binding its statement ids against
    /// the indexed modules (which must be parsed from the identical
    /// source — the cache key, or the shipped spec, guarantees that).
    ///
    /// # Errors
    ///
    /// If a recorded span no longer resolves (source text changed, or
    /// the value was not written by [`SpanIndex::point_to_value`]).
    pub fn point_from_value(&self, v: &Value) -> Result<InjectionPoint, String> {
        let mut point = InjectionPoint::from_value(v)?;
        point.start_stmt_id = self
            .id_at(&point.module, v.req("start_span")?)
            .map_err(|e| format!("field 'start_span': {e}"))?;
        point.core_ids = v.req_list("core_spans", |span| self.id_at(&point.module, span))?;
        Ok(point)
    }
}

/// Serializes a scan **portably**: each point carries the source spans
/// of its window statements so another process can re-bind it.
///
/// # Errors
///
/// If a point references a statement id that is not in `modules`, or a
/// span is ambiguous (two statements at the same location).
pub fn points_to_portable_value(
    points: &[InjectionPoint],
    modules: &[Module],
) -> Result<Value, String> {
    let index = SpanIndex::new(modules)?;
    let entries: Result<Vec<Value>, String> =
        points.iter().map(|p| index.point_to_value(p)).collect();
    Ok(Value::Arr(entries?))
}

/// Loads a portable scan, re-binding every point's statement ids
/// against `modules` (which must be parsed from the identical source —
/// the cache key guarantees that).
///
/// # Errors
///
/// If a recorded span no longer resolves (source text changed, or the
/// value was not written by [`points_to_portable_value`]).
pub fn points_from_portable_value(
    v: &Value,
    modules: &[Module],
) -> Result<Vec<InjectionPoint>, String> {
    let index = SpanIndex::new(modules)?;
    v.as_arr()
        .ok_or("expected an array of portable points")?
        .iter()
        .map(|entry| index.point_from_value(entry))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultdsl::parse_spec;
    use crate::scanner::Scanner;

    fn scan_points() -> Vec<InjectionPoint> {
        let spec = parse_spec(
            "change {\n    $CALL{name=log*}(...)\n} into {\n    pass\n}",
            "S",
        )
        .unwrap();
        let module = pysrc::parse_module(
            "log_init()\ndef f():\n    log_f()\nclass C:\n    def m(self):\n        log_m()\n",
            "m.py",
        )
        .unwrap();
        Scanner::new(vec![spec]).scan(&[module])
    }

    #[test]
    fn points_roundtrip_through_json() {
        let points = scan_points();
        assert!(!points.is_empty());
        for a in &points {
            let json = a.to_value().pretty();
            let b = InjectionPoint::from_value(&jsonlite::parse(&json).unwrap()).unwrap();
            assert_eq!(a.id, b.id);
            assert_eq!(a.spec_name, b.spec_name);
            assert_eq!(a.module, b.module);
            assert_eq!(a.scope, b.scope);
            assert_eq!(a.span, b.span);
            assert_eq!(a.start_stmt_id, b.start_stmt_id);
            assert_eq!(a.window_len, b.window_len);
            assert_eq!(a.core_ids, b.core_ids);
        }
    }

    #[test]
    fn portable_scan_rebinds_across_simulated_processes() {
        let src = "def f(c):\n    c.prepare()\n    delete_port(c)\n    c.done()\n";
        let spec_dsl = "change {\n    $CALL{name=delete_*}(...)\n} into {\n    pass\n}";
        let spec = parse_spec(spec_dsl, "DEL").unwrap();
        let module = pysrc::parse_module(src, "m.py").unwrap();
        let points = Scanner::new(vec![spec.clone()]).scan(std::slice::from_ref(&module));
        let portable = points_to_portable_value(&points, &[module]).unwrap();
        let json = portable.pretty();

        // "Another process": re-parse the same source — NodeIds differ
        // because the global counter has advanced.
        let module2 = pysrc::parse_module(src, "m.py").unwrap();
        let rebound = points_from_portable_value(
            &jsonlite::parse(&json).unwrap(),
            std::slice::from_ref(&module2),
        )
        .unwrap();
        assert_eq!(rebound.len(), points.len());
        assert_ne!(
            rebound[0].start_stmt_id, points[0].start_stmt_id,
            "re-parse must have different ids for the test to be meaningful"
        );
        // The re-bound point must actually work: mutate through it.
        let mutated = crate::Mutator::new(crate::MutationMode::Direct)
            .apply(&module2, &spec, &rebound[0])
            .expect("re-bound point drives the mutator");
        let text = pysrc::unparse::unparse_module(&mutated);
        assert!(!text.contains("delete_port"), "{text}");

        // A changed source refuses to re-bind instead of mis-binding.
        let changed = pysrc::parse_module(
            "def f(c):\n    c.prepare()\n\n    delete_port(c)\n    c.done()\n",
            "m.py",
        )
        .unwrap();
        assert!(
            points_from_portable_value(&jsonlite::parse(&json).unwrap(), &[changed]).is_err()
        );
    }
}
