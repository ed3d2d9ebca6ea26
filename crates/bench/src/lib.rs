//! Shared helpers for the benchmark harness (paper §V evaluation).
//!
//! The three programs under `benches/` reproduce the paper's tables;
//! every performance claim about the service itself is measured with
//! the `profibench` ledger instead.

#![forbid(unsafe_code)]

use faultdsl::{FaultModel, SpecSource};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls `routine` once to warm up, then times `runs` more calls and
/// prints the minimum and median wall time under `label` to stderr.
pub fn time<T>(label: &str, runs: usize, mut routine: impl FnMut() -> T) {
    black_box(routine());
    let mut samples: Vec<Duration> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(routine());
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let (min, median) = (samples[0], samples[samples.len() / 2]);
    eprintln!("bench {label:40} min {min:>12?}  median {median:>12?}");
}

/// Builds a ~120-pattern fault model for the §V-D large-project scan
/// (the paper uses "120 different DSL patterns" on OpenStack).
///
/// The model combines the predefined G-SWFIT-style specs with
/// name-specialized variants over the verb×noun API surface the
/// synthetic corpus generator emits.
pub fn large_pattern_model() -> FaultModel {
    let mut specs = faultdsl::predefined_models().specs;
    let verbs = ["create", "delete", "update", "attach", "detach", "sync"];
    let nouns = ["port", "server", "subnet", "snapshot", "flavor", "quota"];
    for verb in verbs {
        for noun in nouns {
            let name = format!("{verb}_{noun}");
            specs.push(SpecSource {
                name: format!("OMIT-{name}"),
                description: format!("omit calls to {name}"),
                dsl: format!(
                    "change {{\n    $CALL{{name=*{name}}}(...)\n}} into {{\n    pass\n}}"
                ),
            });
            specs.push(SpecSource {
                name: format!("EXC-{name}"),
                description: format!("raise at {name} call sites"),
                dsl: format!(
                    "change {{\n    $VAR#r = $CALL{{name=*.{verb}}}($VAR#i, $EXPR#s)\n}} into {{\n    raise RuntimeError('injected {noun} fault')\n}}"
                ),
            });
            specs.push(SpecSource {
                name: format!("HOG-{name}"),
                description: format!("hog after {name}"),
                dsl: format!(
                    "change {{\n    $VAR#r = $CALL#c{{name=*{name}}}(...)\n}} into {{\n    $VAR#r = $CALL#c(...)\n    $HOG\n}}"
                ),
            });
        }
    }
    FaultModel {
        name: "large-scan-model".into(),
        description: format!("{} patterns for the scan-scaling benchmark", specs.len()),
        specs,
    }
}

/// Counts lines of a corpus.
pub fn corpus_loc(corpus: &[(String, String)]) -> usize {
    corpus.iter().map(|(_, s)| s.lines().count()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_warms_up_then_runs_the_routine_n_times() {
        let mut calls = 0u32;
        time("smoke", 5, || calls += 1);
        assert_eq!(calls, 1 + 5);
    }

    #[test]
    fn large_model_has_about_120_patterns() {
        let model = large_pattern_model();
        assert!(
            (110..=135).contains(&model.specs.len()),
            "got {}",
            model.specs.len()
        );
        model.compile().expect("every generated pattern compiles");
    }
}
