//! Fault-model persistence (paper §IV-A: "The fault model is stored in
//! a JSON file, and users can save and import fault models of previous
//! fault injection campaigns").
//!
//! Serialization goes through the workspace's [`jsonlite`] layer (the
//! build environment has no serde); the JSON shape is the obvious
//! `{name, description, specs: [{name, description, dsl}]}`.

use crate::spec::{parse_spec, BugSpec, DslError};
use jsonlite::Value;

/// One named bug specification in DSL source form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecSource {
    /// Specification name (e.g. `"MFC"`).
    pub name: String,
    /// Human-readable description.
    pub description: String,
    /// The `change { ... } into { ... }` DSL text.
    pub dsl: String,
}

/// A fault model: a named set of bug specifications.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultModel {
    /// Model name.
    pub name: String,
    /// What this model emulates.
    pub description: String,
    /// The specifications.
    pub specs: Vec<SpecSource>,
}

impl SpecSource {
    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("name", Value::str(&self.name)),
            ("description", Value::str(&self.description)),
            ("dsl", Value::str(&self.dsl)),
        ])
    }

    fn from_value(v: &Value) -> Result<SpecSource, String> {
        Ok(SpecSource {
            name: v.req_str("name")?.into(),
            description: v.req_str("description")?.into(),
            dsl: v.req_str("dsl")?.into(),
        })
    }
}

impl FaultModel {
    /// The model as a JSON value.
    pub fn to_value(&self) -> Value {
        Value::obj(vec![
            ("name", Value::str(&self.name)),
            ("description", Value::str(&self.description)),
            (
                "specs",
                Value::arr(self.specs.iter().map(SpecSource::to_value)),
            ),
        ])
    }

    /// Serializes the model to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    /// Reads a model from a JSON value.
    ///
    /// # Errors
    ///
    /// Describes the malformed field.
    pub fn from_value(v: &Value) -> Result<FaultModel, String> {
        Ok(FaultModel {
            name: v.req_str("name")?.into(),
            description: v.req_str("description")?.into(),
            specs: v.req_list("specs", SpecSource::from_value)?,
        })
    }

    /// Parses a model from JSON.
    ///
    /// # Errors
    ///
    /// Returns the parse or shape error message.
    pub fn from_json(json: &str) -> Result<FaultModel, String> {
        FaultModel::from_value(&jsonlite::parse(json)?)
    }

    /// A stable 64-bit content hash of the model (canonical-JSON based;
    /// key for the cross-campaign scan cache).
    pub fn content_hash(&self) -> u64 {
        jsonlite::stable_hash64(jsonlite::canonicalize(&self.to_value()).compact().as_bytes())
    }

    /// Compiles every specification to its meta-model.
    ///
    /// # Errors
    ///
    /// The first [`DslError`] encountered, prefixed with the spec name.
    pub fn compile(&self) -> Result<Vec<BugSpec>, DslError> {
        self.specs
            .iter()
            .map(|s| {
                parse_spec(&s.dsl, &s.name).map_err(|e| DslError {
                    message: format!("{}: {}", s.name, e.message),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let model = crate::library::predefined_models();
        let json = model.to_json();
        let back = FaultModel::from_json(&json).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    fn bad_json_is_error() {
        assert!(FaultModel::from_json("{not json").is_err());
        assert!(FaultModel::from_json(r#"{"name": "x"}"#).is_err());
        assert!(FaultModel::from_json(r#"{"name": 3, "description": "", "specs": []}"#).is_err());
    }

    #[test]
    fn compile_reports_spec_name() {
        let model = FaultModel {
            name: "broken".into(),
            description: String::new(),
            specs: vec![SpecSource {
                name: "BAD".into(),
                description: String::new(),
                dsl: "change {\n    $NOPE\n} into {\n}".into(),
            }],
        };
        let err = model.compile().unwrap_err();
        assert!(err.message.contains("BAD"));
    }

    #[test]
    fn content_hash_tracks_content_not_identity() {
        let a = crate::library::campaign_a_model();
        let a2 = crate::library::campaign_a_model();
        assert_eq!(a.content_hash(), a2.content_hash());
        let b = crate::library::campaign_b_model();
        assert_ne!(a.content_hash(), b.content_hash());
        let roundtripped = FaultModel::from_json(&a.to_json()).unwrap();
        assert_eq!(a.content_hash(), roundtripped.content_hash());
    }
}
