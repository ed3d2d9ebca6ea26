//! JSON round-tripping for [`ExperimentResult`] — the payload of
//! checkpoint records. Full fidelity: rounds, logs, stdout/stderr, and
//! trace events all survive, so a resumed campaign reports exactly what
//! an uninterrupted one would.

use jsonlite::Value;
use profipy::ExperimentResult;
use pyrt::host::TraceEvent;
use pyrt::{LogRecord, Severity};
use sandbox::{RoundOutcome, RoundStatus};

fn status_to_value(status: &RoundStatus) -> Value {
    match status {
        RoundStatus::Ok => Value::str("ok"),
        RoundStatus::Timeout => Value::str("timeout"),
        RoundStatus::NotRun => Value::str("not-run"),
        RoundStatus::Failed { exc_class, message } => Value::obj(vec![
            ("exc", Value::str(exc_class)),
            ("msg", Value::str(message)),
        ]),
    }
}

fn status_from_value(v: &Value) -> Result<RoundStatus, String> {
    if let Some(tag) = v.as_str() {
        return match tag {
            "ok" => Ok(RoundStatus::Ok),
            "timeout" => Ok(RoundStatus::Timeout),
            "not-run" => Ok(RoundStatus::NotRun),
            other => Err(format!("unknown round status '{other}'")),
        };
    }
    Ok(RoundStatus::Failed {
        exc_class: v.req_str("exc")?.into(),
        message: v.req_str("msg")?.into(),
    })
}

fn round_to_value(round: &RoundOutcome) -> Value {
    Value::obj(vec![
        ("status", status_to_value(&round.status)),
        ("duration", Value::Float(round.duration)),
    ])
}

fn round_from_value(v: &Value) -> Result<RoundOutcome, String> {
    Ok(RoundOutcome {
        status: status_from_value(v.req("status")?)?,
        duration: v.req_f64("duration")?,
    })
}

fn severity_name(s: Severity) -> &'static str {
    match s {
        Severity::Debug => "debug",
        Severity::Info => "info",
        Severity::Warning => "warning",
        Severity::Error => "error",
        Severity::Critical => "critical",
    }
}

fn severity_from_name(name: &str) -> Result<Severity, String> {
    Ok(match name {
        "debug" => Severity::Debug,
        "info" => Severity::Info,
        "warning" => Severity::Warning,
        "error" => Severity::Error,
        "critical" => Severity::Critical,
        other => return Err(format!("unknown severity '{other}'")),
    })
}

fn log_to_value(log: &LogRecord) -> Value {
    Value::obj(vec![
        ("time", Value::Float(log.time)),
        ("severity", Value::str(severity_name(log.severity))),
        ("component", Value::str(&log.component)),
        ("message", Value::str(&log.message)),
    ])
}

fn log_from_value(v: &Value) -> Result<LogRecord, String> {
    Ok(LogRecord {
        time: v.req_f64("time")?,
        severity: severity_from_name(v.req_str("severity")?)?,
        component: v.req_str("component")?.into(),
        message: v.req_str("message")?.into(),
    })
}

fn event_to_value(event: &TraceEvent) -> Value {
    Value::obj(vec![
        ("time", Value::Float(event.time)),
        ("name", Value::str(&event.name)),
        ("failed", Value::Bool(event.failed)),
        ("duration", Value::Float(event.duration)),
    ])
}

fn event_from_value(v: &Value) -> Result<TraceEvent, String> {
    Ok(TraceEvent {
        time: v.req_f64("time")?,
        name: v.req_str("name")?.into(),
        failed: v.req_bool("failed")?,
        duration: v.req_f64("duration")?,
    })
}

/// The result as a JSON value.
pub fn result_to_value(r: &ExperimentResult) -> Value {
    Value::obj(vec![
        ("point_id", Value::UInt(r.point_id)),
        ("spec", Value::str(&r.spec_name)),
        ("module", Value::str(&r.module)),
        ("scope", Value::str(&r.scope)),
        ("round1", round_to_value(&r.round1)),
        ("round2", round_to_value(&r.round2)),
        ("logs", Value::arr(r.logs.iter().map(log_to_value))),
        ("stdout", Value::str(&r.stdout)),
        ("stderr", Value::str(&r.stderr)),
        ("duration", Value::Float(r.duration)),
        ("deploy_error", Value::or_null(r.deploy_error.as_ref())),
        ("events", Value::arr(r.events.iter().map(event_to_value))),
    ])
}

/// Reads a result back from a JSON value.
///
/// # Errors
///
/// Describes the malformed field.
pub fn result_from_value(v: &Value) -> Result<ExperimentResult, String> {
    Ok(ExperimentResult {
        point_id: v.req_u64("point_id")?,
        spec_name: v.req_str("spec")?.into(),
        module: v.req_str("module")?.into(),
        scope: v.req_str("scope")?.into(),
        round1: round_from_value(v.req("round1")?)?,
        round2: round_from_value(v.req("round2")?)?,
        logs: v.req_list("logs", log_from_value)?,
        stdout: v.req_str("stdout")?.into(),
        stderr: v.req_str("stderr")?.into(),
        duration: v.req_f64("duration")?,
        // Always written, `null` when the deploy succeeded.
        deploy_error: match v.req("deploy_error")? {
            Value::Null => None,
            _ => Some(v.req_str("deploy_error")?.into()),
        },
        events: v.req_list("events", event_from_value)?,
    })
}

/// Compares two results for **observable equality** — everything a
/// report or analysis reads. (ExperimentResult itself has no `PartialEq`
/// because of its float payloads; exact equality is the right notion
/// here since both sides come from the same deterministic simulator.)
pub fn results_equivalent(a: &ExperimentResult, b: &ExperimentResult) -> bool {
    a.point_id == b.point_id
        && a.spec_name == b.spec_name
        && a.module == b.module
        && a.scope == b.scope
        && a.round1.status == b.round1.status
        && a.round2.status == b.round2.status
        && a.round1.duration == b.round1.duration
        && a.round2.duration == b.round2.duration
        && a.stdout == b.stdout
        && a.stderr == b.stderr
        && a.duration == b.duration
        && a.deploy_error == b.deploy_error
        && a.logs.len() == b.logs.len()
        && a.logs
            .iter()
            .zip(&b.logs)
            .all(|(x, y)| x.render() == y.render())
        && a.events.len() == b.events.len()
        && a.events.iter().zip(&b.events).all(|(x, y)| {
            x.name == y.name && x.failed == y.failed && x.time == y.time
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> ExperimentResult {
        ExperimentResult {
            point_id: 17,
            spec_name: "MFC".into(),
            module: "etcd".into(),
            scope: "Client.set".into(),
            round1: RoundOutcome {
                status: RoundStatus::Failed {
                    exc_class: "EtcdException".into(),
                    message: "Bad response: 400 Bad Request".into(),
                },
                duration: 4.25,
            },
            round2: RoundOutcome {
                status: RoundStatus::Ok,
                duration: 3.5,
            },
            logs: vec![LogRecord {
                time: 1.5,
                severity: Severity::Error,
                component: "etcd".into(),
                message: "write failed\nwith newline".into(),
            }],
            stdout: "hello\n".into(),
            stderr: "Traceback: …\n".into(),
            duration: 7.75,
            deploy_error: None,
            events: vec![TraceEvent {
                time: 0.5,
                name: "set".into(),
                failed: true,
                duration: 0.25,
            }],
        }
    }

    #[test]
    fn result_roundtrips() {
        let r = sample_result();
        let json = result_to_value(&r).compact();
        let back = result_from_value(&jsonlite::parse(&json).unwrap()).unwrap();
        assert!(results_equivalent(&r, &back));
    }

    #[test]
    fn all_statuses_roundtrip() {
        for status in [
            RoundStatus::Ok,
            RoundStatus::Timeout,
            RoundStatus::NotRun,
            RoundStatus::Failed {
                exc_class: "E".into(),
                message: "m".into(),
            },
        ] {
            let v = status_to_value(&status);
            assert_eq!(status_from_value(&v).unwrap(), status);
        }
    }

    #[test]
    fn deploy_error_roundtrips() {
        let mut r = sample_result();
        r.deploy_error = Some("mutation failed".into());
        let back =
            result_from_value(&jsonlite::parse(&result_to_value(&r).compact()).unwrap()).unwrap();
        assert_eq!(back.deploy_error.as_deref(), Some("mutation failed"));
        assert!(results_equivalent(&r, &back));
    }

    #[test]
    fn equivalence_notices_differences() {
        let a = sample_result();
        let mut b = sample_result();
        b.round2.status = RoundStatus::Timeout;
        assert!(!results_equivalent(&a, &b));
        let mut c = sample_result();
        c.stdout.push('x');
        assert!(!results_equivalent(&a, &c));
    }
}
