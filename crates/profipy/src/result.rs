//! Per-experiment results, and what a recorded one keeps.

use pyrt::{LogRecord, Severity};
use injector::InjectionPoint;
use sandbox::{RoundOutcome, RoundStatus};

/// The outcome of one fault-injection experiment (one mutated version,
//  one fresh container, two workload rounds).
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Injection-point id.
    pub point_id: u64,
    /// Bug specification that produced the mutant.
    pub spec_name: String,
    /// Module injected.
    pub module: String,
    /// Scope injected (`Class.method`).
    pub scope: String,
    /// Round 1 (fault enabled).
    pub round1: RoundOutcome,
    /// Round 2 (fault disabled, no restart).
    pub round2: RoundOutcome,
    /// Log records captured from the target + workload. A recorded
    /// result keeps those at [`VERDICT_SEVERITY`] and above.
    pub logs: Vec<LogRecord>,
    /// Captured stdout. Empty in a recorded result.
    pub stdout: String,
    /// Captured stderr (tracebacks).
    pub stderr: String,
    /// Total virtual duration of the experiment.
    pub duration: f64,
    /// Deploy-phase error, if the mutant could not even start.
    pub deploy_error: Option<String>,
    /// Traced host API invocations (paper §IV-D), convertible into a
    /// [`trace::Timeline`] via [`ExperimentResult::timeline`]. Empty in a
    /// recorded result.
    pub events: Vec<pyrt::host::TraceEvent>,
}

/// The lowest log severity a verdict reads (failure text, §IV-D
/// propagation), and so the lowest a recorded result keeps.
pub const VERDICT_SEVERITY: Severity = Severity::Warning;

impl ExperimentResult {
    /// The result of an experiment on `point` before (or instead of)
    /// running it: both rounds not run, nothing captured.
    pub fn not_run(point: &InjectionPoint, deploy_error: Option<String>) -> ExperimentResult {
        let not_run = RoundOutcome {
            status: RoundStatus::NotRun,
            duration: 0.0,
        };
        ExperimentResult {
            point_id: point.id,
            spec_name: point.spec_name.clone(),
            module: point.module.clone(),
            scope: point.scope.clone(),
            round1: not_run.clone(),
            round2: not_run,
            logs: Vec::new(),
            stdout: String::new(),
            stderr: String::new(),
            duration: 0.0,
            deploy_error,
            events: Vec::new(),
        }
    }

    /// The result as checkpoints and fleet uploads record it: stdout,
    /// host events and logs below [`VERDICT_SEVERITY`] go, and nothing
    /// a report reads changes.
    pub fn into_record(mut self) -> ExperimentResult {
        self.logs.retain(|log| log.severity >= VERDICT_SEVERITY);
        self.stdout = String::new();
        self.events = Vec::new();
        self
    }

    /// The log records a verdict reads.
    pub fn verdict_logs(&self) -> impl Iterator<Item = &LogRecord> {
        self.logs.iter().filter(|log| log.severity >= VERDICT_SEVERITY)
    }

    /// Did round 1 (fault enabled) expose a service failure?
    pub fn failed_round1(&self) -> bool {
        self.deploy_error.is_some() || !self.round1.status.is_ok()
    }

    /// The experiment's API-call timeline (paper §IV-D: "API calls are
    /// visualized as events on timelines").
    pub fn timeline(&self) -> trace::Timeline {
        self.events
            .iter()
            .map(|e| {
                let span = trace::Span::new("etcd-api", &e.name, e.time, e.duration.max(1e-4));
                if e.failed {
                    span.err()
                } else {
                    span.ok()
                }
            })
            .collect()
    }

    /// Was the service unavailable in round 2 (fault disabled)?
    /// This feeds the §IV-C service-availability metric.
    pub fn unavailable_round2(&self) -> bool {
        self.deploy_error.is_some() || !self.round2.status.is_ok()
    }

    /// All searchable failure text: exception classes/messages from
    /// both rounds, stderr, and the [verdict logs](Self::verdict_logs).
    pub fn failure_text(&self) -> String {
        let mut out = String::new();
        for outcome in [&self.round1, &self.round2] {
            if let sandbox::RoundStatus::Failed { exc_class, message } = &outcome.status {
                out.push_str(exc_class);
                out.push(' ');
                out.push_str(message);
                out.push('\n');
            }
            if matches!(outcome.status, sandbox::RoundStatus::Timeout) {
                out.push_str("TIMEOUT\n");
            }
        }
        if let Some(e) = &self.deploy_error {
            out.push_str(e);
            out.push('\n');
        }
        out.push_str(&self.stderr);
        for log in self.verdict_logs() {
            out.push_str(&log.render());
            out.push('\n');
        }
        out
    }
}
