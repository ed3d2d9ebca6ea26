//! The fault-model corpus: reusable `faultdsl` models shipped with the
//! scenario catalog, each annotated with the failure class it is
//! expected to dominate and the target tags it applies to.

use crate::catalog::CatalogTarget;
use faultdsl::{FaultModel, SpecSource};

/// A catalog fault model: the compiled-on-demand `faultdsl` model plus
/// the metadata the matrix generator filters and reports on.
#[derive(Clone, Debug)]
pub struct CorpusModel {
    /// The reusable fault model (name is the matrix cell key).
    pub model: FaultModel,
    /// The failure class this model is expected to dominate (one of
    /// the classifier labels, e.g. `timeout` or `inconsistent-read`).
    pub failure_class: String,
    /// Target tags this model applies to; `any` applies everywhere.
    pub applies_to: Vec<String>,
}

impl CorpusModel {
    /// True when the model applies to `target` (tag intersection, with
    /// `any` as the universal tag).
    pub fn applies_to_target(&self, target: &CatalogTarget) -> bool {
        self.applies_to
            .iter()
            .any(|tag| tag == "any" || target.has_tag(tag))
    }

    /// The corpus entry as a JSON value (the `/api/matrix` listing
    /// shape).
    pub fn to_value(&self) -> jsonlite::Value {
        use jsonlite::Value;
        Value::obj(vec![
            ("name", Value::str(&self.model.name)),
            ("description", Value::str(&self.model.description)),
            ("failure_class", Value::str(&self.failure_class)),
            ("applies_to", Value::arr(&self.applies_to)),
            ("specs", self.model.specs.len().into()),
        ])
    }
}

fn spec(name: &str, description: &str, dsl: &str) -> SpecSource {
    SpecSource {
        name: name.to_string(),
        description: description.to_string(),
        dsl: dsl.trim_start_matches('\n').to_string(),
    }
}

fn corpus_model(
    name: &str,
    description: &str,
    failure_class: &str,
    applies_to: &[&str],
    specs: Vec<SpecSource>,
) -> CorpusModel {
    CorpusModel {
        model: FaultModel {
            name: name.to_string(),
            description: description.to_string(),
            specs,
        },
        failure_class: failure_class.to_string(),
        applies_to: applies_to.iter().map(|t| (*t).to_string()).collect(),
    }
}

/// The shipped corpus. Six generic models (applicable to every
/// target) plus one tag-restricted model per failure surface, so the
/// matrix generator's applicability filter has real work to do.
pub fn default_corpus() -> Vec<CorpusModel> {
    vec![
        corpus_model(
            "exception-storm",
            "Raise an injected exception in place of a call statement \
             (error-handler coverage, paper §III Throw Exception)",
            "crash",
            &["any"],
            vec![spec(
                "STORM-RAISE",
                "Replace a statement-level call with an injected RuntimeError",
                r#"
change {
    $BLOCK{tag=b1; stmts=1,*}
    $CALL{name=*}(...)
} into {
    $BLOCK{tag=b1}
    raise RuntimeError('injected exception')
}"#,
            )],
        ),
        corpus_model(
            "resource-hog",
            "Spawn a stale CPU-hog thread after an assigned call via the \
             $HOG hook (paper §III high resource consumption)",
            "timeout",
            &["any"],
            vec![spec(
                "HOG-AFTER-CALL",
                "CPU hog left running after a call returns",
                r#"
change {
    $VAR#r = $CALL#c{name=*}(...)
} into {
    $VAR#r = $CALL#c(...)
    $HOG
}"#,
            )],
        ),
        corpus_model(
            "latency-injection",
            "Charge a large artificial delay before an assigned call via \
             $TIMEOUT (paper §III artificial time delay)",
            "timeout",
            &["any"],
            vec![spec(
                "DELAY-BEFORE-CALL",
                "30 virtual seconds of latency ahead of the call",
                r#"
change {
    $VAR#r = $CALL#c{name=*}(...)
} into {
    $TIMEOUT{secs=30}
    $VAR#r = $CALL#c(...)
}"#,
            )],
        ),
        corpus_model(
            "value-corruption",
            "Corrupt the value produced by a call with $CORRUPT, so wrong \
             data propagates instead of an error (paper §III wrong value)",
            "inconsistent-read",
            &["any"],
            vec![spec(
                "CORRUPT-RESULT",
                "Wrap an assigned call's result in profipy_rt.corrupt",
                r#"
change {
    $VAR#r = $CALL#c{name=*}(...)
} into {
    $VAR#r = $CORRUPT($CALL#c(...))
}"#,
            )],
        ),
        corpus_model(
            "off-by-one",
            "Shift a numeric initialization by one (G-SWFIT wrong value \
             assigned, boundary form)",
            "inconsistent-read",
            &["any"],
            vec![spec(
                "OFF-BY-ONE-INIT",
                "Numeric initialization incremented by one",
                r#"
change {
    $VAR#x = $NUM#n
} into {
    $VAR#x = $NUM#n + 1
}"#,
            )],
        ),
        corpus_model(
            "inverted-condition",
            "Negate an IF guard, taking the branch exactly when it should \
             be skipped (G-SWFIT wrong branch condition)",
            "crash",
            &["any"],
            vec![spec(
                "INVERT-GUARD",
                "IF condition wrapped in not",
                r#"
change {
    if $EXPR#c:
        $BLOCK{tag=body; stmts=1,*}
} into {
    if not $EXPR#c:
        $BLOCK{tag=body}
}"#,
            )],
        ),
        corpus_model(
            "stale-read-amplifier",
            "Skip the replication step after a committed write, leaving \
             followers permanently stale (replicated stores only)",
            "inconsistent-read",
            &["replicated"],
            vec![spec(
                "SKIP-REPLICATE",
                "Omit the self.replicate() fan-out call",
                r#"
change {
    $CALL{name=self.replicate}(...)
} into {
    pass
}"#,
            )],
        ),
        corpus_model(
            "redelivery-storm",
            "Drop the consumer's ack, stranding deliveries in-flight so \
             the drain loop never converges (queued brokers only)",
            "timeout",
            &["queued"],
            vec![spec(
                "DROP-ACK",
                "Omit the *.ack(...) call after processing",
                r#"
change {
    $CALL{name=*.ack}(...)
} into {
    pass
}"#,
            )],
        ),
        corpus_model(
            "retry-starvation",
            "Stall every upstream hop with a long delay so retries amplify \
             the latency past the request deadline (retrying graphs only)",
            "timeout",
            &["retrying"],
            vec![spec(
                "STALL-HANDLE",
                "45 virtual seconds ahead of each service.handle call",
                r#"
change {
    $VAR#r = $CALL#c{name=*.handle}(...)
} into {
    $TIMEOUT{secs=45}
    $VAR#r = $CALL#c(...)
}"#,
            )],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{default_catalog, noop_catalog};

    #[test]
    fn corpus_models_compile() {
        for entry in default_corpus() {
            let compiled = entry
                .model
                .compile()
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", entry.model.name));
            assert_eq!(compiled.len(), entry.model.specs.len());
        }
    }

    #[test]
    fn corpus_has_generic_and_restricted_models() {
        let corpus = default_corpus();
        assert!(corpus.len() >= 6, "corpus too small: {}", corpus.len());
        let generic = corpus
            .iter()
            .filter(|m| m.applies_to.iter().any(|t| t == "any"))
            .count();
        assert!(generic >= 6, "need >= 6 generic models, got {generic}");
        assert!(
            corpus.iter().any(|m| !m.applies_to.iter().any(|t| t == "any")),
            "need at least one tag-restricted model"
        );
    }

    #[test]
    fn applicability_filter_respects_tags() {
        let corpus = default_corpus();
        let catalog = default_catalog();
        let by_name = |name: &str| catalog.iter().find(|t| t.name == name).unwrap();
        let model = |name: &str| corpus.iter().find(|m| m.model.name == name).unwrap();

        assert!(model("stale-read-amplifier").applies_to_target(by_name("kvstore")));
        assert!(!model("stale-read-amplifier").applies_to_target(by_name("broker")));
        assert!(model("redelivery-storm").applies_to_target(by_name("broker")));
        assert!(!model("redelivery-storm").applies_to_target(by_name("microsvc")));
        assert!(model("retry-starvation").applies_to_target(by_name("microsvc")));
        // Generic models hit everything.
        for target in &catalog {
            assert!(model("exception-storm").applies_to_target(target));
        }
        // Every noop target has at least one restricted model aimed at it.
        for target in noop_catalog() {
            let restricted = corpus
                .iter()
                .filter(|m| !m.applies_to.iter().any(|t| t == "any"))
                .filter(|m| m.applies_to_target(&target))
                .count();
            assert!(restricted >= 1, "{} has no targeted model", target.name);
        }
    }

    #[test]
    fn corpus_names_are_unique(){
        let corpus = default_corpus();
        let mut names: Vec<String> = corpus.iter().map(|m| m.model.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), corpus.len());
    }
}
