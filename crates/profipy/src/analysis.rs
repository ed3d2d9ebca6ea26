//! Data analysis (paper §IV-C / §IV-D): failure-mode classification
//! and the campaign metrics.

use crate::result::ExperimentResult;
use pyrt::Severity;
use sandbox::RoundStatus;
use std::collections::BTreeMap;

/// A user-defined failure-mode rule: the experiment is assigned the
/// first class whose pattern list matches its failure text (paper:
/// "The user can specify patterns (e.g., using keywords and regex)").
#[derive(Clone, Debug)]
pub struct ClassRule {
    /// Failure-mode name.
    pub name: String,
    /// Substring/glob patterns; any match assigns the class.
    pub patterns: Vec<String>,
}

impl ClassRule {
    /// Creates a rule.
    pub fn new(name: &str, patterns: &[&str]) -> ClassRule {
        ClassRule {
            name: name.to_string(),
            patterns: patterns.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn matches(&self, text: &str) -> bool {
        self.patterns.iter().any(|p| {
            if p.contains('*') || p.contains('?') {
                // Glob over the whole text needs surrounding stars.
                faultdsl::glob_match(&format!("*{p}*"), text)
            } else {
                text.contains(p.as_str())
            }
        })
    }
}

/// The failure-mode classifier: built-in crash/timeout modes plus
/// user-defined classes.
#[derive(Clone, Debug, Default)]
pub struct FailureClassifier {
    rules: Vec<ClassRule>,
}

/// Classification result per experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureMode {
    /// No failure observed in round 1.
    NoFailure,
    /// Round 1 exceeded its budget (hang/stall).
    Timeout,
    /// Matched a user-defined class.
    Class(String),
    /// Uncaught exception with no matching user class.
    Crash {
        /// Exception class name.
        exc_class: String,
    },
}

impl FailureMode {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            FailureMode::NoFailure => "no-failure".to_string(),
            FailureMode::Timeout => "timeout".to_string(),
            FailureMode::Class(c) => c.clone(),
            FailureMode::Crash { exc_class } => format!("crash:{exc_class}"),
        }
    }
}

impl FailureClassifier {
    /// Creates a classifier with no user rules.
    pub fn new() -> FailureClassifier {
        FailureClassifier::default()
    }

    /// Adds a user-defined class (builder-style). Order matters:
    /// earlier rules win.
    pub fn rule(mut self, name: &str, patterns: &[&str]) -> FailureClassifier {
        self.rules.push(ClassRule::new(name, patterns));
        self
    }

    /// The classifier used for the §V case study.
    pub fn case_study() -> FailureClassifier {
        FailureClassifier::new()
            .rule(
                "reconnection-failure",
                &["address already in use", "etcd-restart"],
            )
            .rule(
                "member-bootstrapped",
                &["member has already been bootstrapped"],
            )
            .rule("unbound-local", &["UnboundLocalError"])
            .rule(
                "attribute-error-none",
                &["'NoneType' object has no attribute"],
            )
            .rule("key-not-found", &["EtcdKeyNotFound", "Key not found"])
            .rule("bad-request-400", &["400 Bad Request"])
            .rule("inconsistent-read", &["inconsistent value read"])
            .rule("connection-error", &["ConnectTimeoutError", "ConnectionRefusedError", "connection refused"])
    }

    /// Classifies one experiment by its round-1 behaviour.
    pub fn classify(&self, result: &ExperimentResult) -> FailureMode {
        if result.deploy_error.is_some() {
            return FailureMode::Class("deploy-failure".to_string());
        }
        match &result.round1.status {
            RoundStatus::Ok => FailureMode::NoFailure,
            RoundStatus::Timeout => FailureMode::Timeout,
            RoundStatus::NotRun => FailureMode::Class("not-run".to_string()),
            RoundStatus::Failed { exc_class, .. } => {
                let text = result.failure_text();
                for rule in &self.rules {
                    if rule.matches(&text) {
                        return FailureMode::Class(rule.name.clone());
                    }
                }
                FailureMode::Crash {
                    exc_class: exc_class.clone(),
                }
            }
        }
    }

    /// Failure-mode distribution over a result set (paper: "The tool
    /// reports the statistical distribution of failure modes").
    pub fn distribution(&self, results: &[ExperimentResult]) -> BTreeMap<String, usize> {
        let mut dist = BTreeMap::new();
        for r in results {
            *dist.entry(self.classify(r).label()).or_insert(0) += 1;
        }
        dist
    }
}

/// §IV-C service availability: fraction of experiments in which the
/// service was available again in round 2 (fault disabled).
pub fn service_availability(results: &[ExperimentResult]) -> f64 {
    if results.is_empty() {
        return 1.0;
    }
    let available = results.iter().filter(|r| !r.unavailable_round2()).count();
    available as f64 / results.len() as f64
}

/// Experiments whose round-1 failure persisted into round 2 — the
/// cases the paper flags for deeper analysis (resource leaks in error
/// paths).
pub fn persistent_failures(results: &[ExperimentResult]) -> usize {
    results
        .iter()
        .filter(|r| r.failed_round1() && r.unavailable_round2())
        .count()
}

/// §IV-D failure logging: among experiments with a round-1 failure,
/// the fraction that logged at least one error-level record.
pub fn failure_logging(results: &[ExperimentResult]) -> f64 {
    let failed: Vec<&ExperimentResult> =
        results.iter().filter(|r| r.failed_round1()).collect();
    if failed.is_empty() {
        return 1.0;
    }
    let logged = failed
        .iter()
        .filter(|r| r.logs.iter().any(|l| l.severity >= Severity::Error))
        .count();
    logged as f64 / failed.len() as f64
}

/// §IV-D failure propagation: among experiments with a round-1
/// failure, the fraction whose verdict logs (warning and above,
/// [`ExperimentResult::verdict_logs`]) span more than one component.
/// `component_of` maps a log component to its subsystem (paper: "The
/// user configures a list of sub-systems").
pub fn failure_propagation(
    results: &[ExperimentResult],
    component_of: impl Fn(&str) -> String,
) -> f64 {
    let failed: Vec<&ExperimentResult> =
        results.iter().filter(|r| r.failed_round1()).collect();
    if failed.is_empty() {
        return 0.0;
    }
    let propagated = failed
        .iter()
        .filter(|r| {
            let components: std::collections::BTreeSet<String> =
                r.verdict_logs().map(|l| component_of(&l.component)).collect();
            components.len() > 1
        })
        .count();
    propagated as f64 / failed.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sandbox::RoundOutcome;

    fn result(status1: RoundStatus, status2: RoundStatus) -> ExperimentResult {
        ExperimentResult {
            point_id: 0,
            spec_name: "S".into(),
            module: "etcd".into(),
            scope: "Client.set".into(),
            round1: RoundOutcome {
                status: status1,
                duration: 1.0,
            },
            round2: RoundOutcome {
                status: status2,
                duration: 1.0,
            },
            logs: Vec::new(),
            stdout: String::new(),
            stderr: String::new(),
            duration: 2.0,
            deploy_error: None,
            events: Vec::new(),
        }
    }

    fn failed(class: &str, msg: &str) -> RoundStatus {
        RoundStatus::Failed {
            exc_class: class.to_string(),
            message: msg.to_string(),
        }
    }

    #[test]
    fn classifier_matches_case_study_modes() {
        let c = FailureClassifier::case_study();
        let r = result(
            failed("OSError", "command 'etcd-restart' failed (1): bind: address already in use (port 2379 held by stale connection #1)"),
            RoundStatus::Ok,
        );
        assert_eq!(
            c.classify(&r),
            FailureMode::Class("reconnection-failure".into())
        );
        let r = result(
            failed("EtcdException", "Bad response: 500 ERROR 300 member has already been bootstrapped"),
            RoundStatus::Ok,
        );
        assert_eq!(
            c.classify(&r),
            FailureMode::Class("member-bootstrapped".into())
        );
        let r = result(
            failed(
                "UnboundLocalError",
                "local variable 'resp' referenced before assignment",
            ),
            RoundStatus::Ok,
        );
        assert_eq!(c.classify(&r), FailureMode::Class("unbound-local".into()));
        let r = result(
            failed(
                "AttributeError",
                "'NoneType' object has no attribute 'startswith'",
            ),
            RoundStatus::Ok,
        );
        assert_eq!(
            c.classify(&r),
            FailureMode::Class("attribute-error-none".into())
        );
    }

    #[test]
    fn timeout_and_no_failure() {
        let c = FailureClassifier::case_study();
        assert_eq!(
            c.classify(&result(RoundStatus::Timeout, RoundStatus::Ok)),
            FailureMode::Timeout
        );
        assert_eq!(
            c.classify(&result(RoundStatus::Ok, RoundStatus::Ok)),
            FailureMode::NoFailure
        );
    }

    #[test]
    fn first_matching_rule_wins() {
        // Both rules match the text; declaration order decides.
        let c = FailureClassifier::new()
            .rule("specific", &["timed out after"])
            .rule("generic", &["timed out"]);
        let r = result(failed("E", "request timed out after 5s"), RoundStatus::Ok);
        assert_eq!(c.classify(&r), FailureMode::Class("specific".into()));

        // Reversed declaration order flips the winner on the same text.
        let c = FailureClassifier::new()
            .rule("generic", &["timed out"])
            .rule("specific", &["timed out after"]);
        assert_eq!(c.classify(&r), FailureMode::Class("generic".into()));

        // Within one rule, any pattern in the list suffices.
        let c = FailureClassifier::new().rule("either", &["no-match-here", "timed out"]);
        assert_eq!(c.classify(&r), FailureMode::Class("either".into()));
    }

    #[test]
    fn glob_patterns_dispatch_to_glob_matching() {
        // A '*' or '?' switches the pattern from substring to glob
        // (wrapped in implicit stars, so it may match mid-text).
        let c = FailureClassifier::new().rule("bind-fail", &["bind: * in use"]);
        let r = result(
            failed("OSError", "etcd: bind: address already in use (port 2379)"),
            RoundStatus::Ok,
        );
        assert_eq!(c.classify(&r), FailureMode::Class("bind-fail".into()));
        // The same text does NOT contain the literal pattern, so as a
        // substring rule it would miss — proving glob dispatch ran.
        assert!(!r.failure_text().contains("bind: * in use"));

        // '?' matches exactly one character.
        let c = FailureClassifier::new().rule("http-5xx", &["HTTP 5?? error"]);
        let hit = result(failed("E", "server said HTTP 503 error"), RoundStatus::Ok);
        assert_eq!(c.classify(&hit), FailureMode::Class("http-5xx".into()));
        let miss = result(failed("E", "server said HTTP 50 error"), RoundStatus::Ok);
        assert_eq!(
            c.classify(&miss),
            FailureMode::Crash { exc_class: "E".into() }
        );

        // A plain pattern stays a substring match even when the text
        // holds glob-special characters.
        let c = FailureClassifier::new().rule("literal", &["[500]"]);
        let r = result(failed("E", "status [500] returned"), RoundStatus::Ok);
        assert_eq!(c.classify(&r), FailureMode::Class("literal".into()));
    }

    #[test]
    fn unclassified_failures_fall_back_in_order() {
        let c = FailureClassifier::new().rule("known", &["known text"]);
        // Deploy failures outrank everything, even with a match.
        let mut r = result(failed("E", "known text"), RoundStatus::Ok);
        r.deploy_error = Some("mutation failed".into());
        assert_eq!(c.classify(&r), FailureMode::Class("deploy-failure".into()));
        // NotRun rounds are their own class.
        assert_eq!(
            c.classify(&result(RoundStatus::NotRun, RoundStatus::NotRun)),
            FailureMode::Class("not-run".into())
        );
        // An exception matching no rule keeps its class name visible.
        let mode = c.classify(&result(failed("KeyError", "'missing'"), RoundStatus::Ok));
        assert_eq!(mode, FailureMode::Crash { exc_class: "KeyError".into() });
        assert_eq!(mode.label(), "crash:KeyError");
        // And an empty classifier still distinguishes the built-ins.
        let empty = FailureClassifier::new();
        assert_eq!(
            empty.classify(&result(RoundStatus::Timeout, RoundStatus::Ok)),
            FailureMode::Timeout
        );
        assert_eq!(
            empty.classify(&result(RoundStatus::Ok, RoundStatus::Ok)),
            FailureMode::NoFailure
        );
    }

    #[test]
    fn unmatched_exception_is_crash() {
        let c = FailureClassifier::new();
        let mode = c.classify(&result(failed("ZeroDivisionError", "division by zero"), RoundStatus::Ok));
        assert_eq!(mode, FailureMode::Crash { exc_class: "ZeroDivisionError".into() });
        assert_eq!(mode.label(), "crash:ZeroDivisionError");
    }

    #[test]
    fn availability_metric() {
        let results = vec![
            result(RoundStatus::Ok, RoundStatus::Ok),
            result(failed("E", "x"), RoundStatus::Ok),
            result(failed("E", "x"), failed("E", "x")),
            result(RoundStatus::Timeout, RoundStatus::Timeout),
        ];
        assert!((service_availability(&results) - 0.5).abs() < 1e-9);
        assert_eq!(persistent_failures(&results), 2);
    }

    #[test]
    fn logging_metric_counts_error_logs() {
        let mut with_log = result(failed("E", "x"), RoundStatus::Ok);
        with_log.logs.push(pyrt::LogRecord {
            time: 0.0,
            severity: Severity::Error,
            component: "etcd.client".into(),
            message: "boom".into(),
        });
        let without_log = result(failed("E", "x"), RoundStatus::Ok);
        let results = vec![with_log, without_log];
        assert!((failure_logging(&results) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn propagation_metric_spans_components() {
        let mut multi = result(failed("E", "x"), RoundStatus::Ok);
        for comp in ["etcd.client", "workload"] {
            multi.logs.push(pyrt::LogRecord {
                time: 0.0,
                severity: Severity::Error,
                component: comp.into(),
                message: "err".into(),
            });
        }
        let single = result(failed("E", "x"), RoundStatus::Ok);
        let results = vec![multi, single];
        let prop = failure_propagation(&results, |c| {
            c.split('.').next().unwrap_or(c).to_string()
        });
        assert!((prop - 0.5).abs() < 1e-9);
    }

    #[test]
    fn distribution_counts() {
        let c = FailureClassifier::case_study();
        let results = vec![
            result(RoundStatus::Ok, RoundStatus::Ok),
            result(RoundStatus::Timeout, RoundStatus::Ok),
            result(failed("UnboundLocalError", "local variable 'r'"), RoundStatus::Ok),
        ];
        let dist = c.distribution(&results);
        assert_eq!(dist["no-failure"], 1);
        assert_eq!(dist["timeout"], 1);
        assert_eq!(dist["unbound-local"], 1);
    }
}
