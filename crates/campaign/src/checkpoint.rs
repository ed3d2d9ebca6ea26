//! Append-only experiment checkpoints.
//!
//! The runner records every completed [`ExperimentResult`] as one JSON
//! line, flushed immediately — if the process dies mid-campaign, the
//! next run reads the log back and executes only the missing
//! experiments. In memory and on disk the log holds each result's
//! record ([`ExperimentResult::into_record`]). A header line carries
//! the owning spec's content hash so a *changed* resubmission
//! (different seed, filter, model, …) invalidates the stale checkpoint
//! instead of silently mixing results.
//!
//! A torn final line (crash mid-write) is detected and dropped; every
//! complete record before it still counts.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::persist::{result_from_value, result_to_value};
use jsonlite::durable::Log;
use jsonlite::Value;
use profipy::ExperimentResult;
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// The checkpoint log of one campaign.
pub struct CheckpointLog {
    /// The file behind the log; `None` in memory.
    log: Option<Log>,
    spec_hash: u64,
    results: Vec<ExperimentResult>,
    /// The point ids of `results`.
    ids: HashSet<u64>,
    /// A failed append may have left the file without its header or
    /// with part of a line: the next append rewrites it first.
    damaged: bool,
}

fn header(spec_hash: u64) -> Value {
    Value::obj(vec![("spec_hash", Value::UInt(spec_hash))])
}

/// Reads the log at `path` into `results`: the header line must carry
/// `spec_hash`, every line after it must decode as a result. Returns
/// whether the header matched and whether the file needs its rewrite
/// (torn tail, or a header that is missing or someone else's).
fn load(
    path: &Path,
    spec_hash: u64,
    results: &mut Vec<ExperimentResult>,
) -> io::Result<(bool, bool)> {
    let mut header_ok = None;
    let torn = Log::load(path, |value| match header_ok {
        None => *header_ok.insert(value.req_u64("spec_hash") == Ok(spec_hash)),
        Some(_) => result_from_value(&value).map(|r| results.push(r)).is_ok(),
    })?;
    Ok((header_ok == Some(true), torn))
}

impl CheckpointLog {
    fn with(log: Option<Log>, spec_hash: u64, results: Vec<ExperimentResult>) -> CheckpointLog {
        CheckpointLog {
            log,
            spec_hash,
            ids: results.iter().map(|r| r.point_id).collect(),
            results,
            damaged: false,
        }
    }

    /// An ephemeral, in-memory log for `spec_hash`.
    pub fn in_memory(spec_hash: u64) -> CheckpointLog {
        CheckpointLog::with(None, spec_hash, Vec::new())
    }

    /// Reads the results recorded at `path` for `spec_hash` **without
    /// modifying the file** — for status polling. Returns empty on a
    /// missing file or hash mismatch, and what was read before a torn
    /// tail or a read error.
    pub fn peek(path: &Path, spec_hash: u64) -> Vec<ExperimentResult> {
        let mut results = Vec::new();
        // The error case keeps what `load` delivered before it.
        let _ = load(path, spec_hash, &mut results);
        results
    }

    /// Opens (or creates) the log at `path` for the campaign whose spec
    /// hashes to `spec_hash`. An existing log with a *different* spec
    /// hash is discarded — its results belong to a different campaign
    /// definition.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn open(path: &Path, spec_hash: u64) -> io::Result<CheckpointLog> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut results = Vec::new();
        let (header_ok, torn) = load(path, spec_hash, &mut results)?;
        let log = CheckpointLog::with(Some(Log::at(path)), spec_hash, results);
        if !header_ok || torn {
            // Fresh, invalidated, or torn log: rewrite the valid prefix
            // (empty on invalidation) so the file is clean again — a
            // crash during repair must not lose the durable prefix.
            log.rewrite(None)?;
        }
        Ok(log)
    }

    /// Replaces the file with the header and the held records, then
    /// `next`: clean again, whatever a crash or a failed append left.
    fn rewrite(&self, next: Option<&ExperimentResult>) -> io::Result<()> {
        let Some(log) = &self.log else { return Ok(()) };
        let records = self.results.iter().chain(next).map(result_to_value);
        log.rewrite(std::iter::once(header(self.spec_hash)).chain(records))
    }

    /// Results recorded so far (completion order).
    pub fn results(&self) -> &[ExperimentResult] {
        &self.results
    }

    /// Consumes the log, returning the recorded results.
    pub fn into_results(self) -> Vec<ExperimentResult> {
        self.results
    }

    /// Whether a result for `point_id` is recorded — the runner's skip
    /// test.
    pub fn contains(&self, point_id: u64) -> bool {
        self.ids.contains(&point_id)
    }

    /// Appends the record of one result and flushes it to disk before
    /// returning. A caller that owns its result pays for no copy of it.
    ///
    /// # Errors
    ///
    /// I/O errors; the log then holds nothing new, so a retry records
    /// the result once — after rewriting the file from what the log
    /// holds, as [`CheckpointLog::open`] repairs it.
    pub fn record_owned(&mut self, result: ExperimentResult) -> io::Result<()> {
        let record = result.into_record();
        if let Some(log) = &self.log {
            let written = if self.damaged {
                self.rewrite(Some(&record))
            } else {
                log.append(&result_to_value(&record))
            };
            self.damaged = written.is_err();
            written?;
        }
        self.ids.insert(record.point_id);
        self.results.push(record);
        Ok(())
    }

    /// [`CheckpointLog::record_owned`] for a caller that keeps its
    /// result.
    ///
    /// # Errors
    ///
    /// As `record_owned`.
    pub fn record(&mut self, result: &ExperimentResult) -> io::Result<()> {
        self.record_owned(result.clone())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use pyrt::{LogRecord, Severity};
    use sandbox::{RoundOutcome, RoundStatus};
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn result(point_id: u64) -> ExperimentResult {
        ExperimentResult {
            point_id,
            spec_name: "S".into(),
            module: "m".into(),
            scope: "f".into(),
            round1: RoundOutcome {
                status: RoundStatus::Ok,
                duration: 1.0,
            },
            round2: RoundOutcome {
                status: RoundStatus::Ok,
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

    /// The point ids a log holds, in completion order.
    fn ids(log: &CheckpointLog) -> Vec<u64> {
        log.results().iter().map(|r| r.point_id).collect()
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "campaign-ckpt-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn records_survive_reopen() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = CheckpointLog::open(&path, 42).unwrap();
            log.record(&result(1)).unwrap();
            log.record(&result(5)).unwrap();
        }
        {
            let mut log = CheckpointLog::open(&path, 42).unwrap();
            assert_eq!(ids(&log), [1u64, 5]);
            log.record(&result(9)).unwrap();
        }
        {
            let log = CheckpointLog::open(&path, 42).unwrap();
            assert_eq!(ids(&log), [1u64, 5, 9]);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn different_spec_hash_invalidates() {
        let path = temp_path("invalidate");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = CheckpointLog::open(&path, 1).unwrap();
            log.record(&result(1)).unwrap();
        }
        {
            let log = CheckpointLog::open(&path, 2).unwrap();
            assert!(log.results().is_empty(), "stale results discarded");
        }
        {
            // And the invalidation is durable: the old hash no longer
            // resurrects the old results either.
            let log = CheckpointLog::open(&path, 1).unwrap();
            assert!(log.results().is_empty());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = CheckpointLog::open(&path, 7).unwrap();
            log.record(&result(1)).unwrap();
            log.record(&result(2)).unwrap();
        }
        // Simulate a crash mid-write of record 3.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"point_id\": 3, \"spec\": \"trunc").unwrap();
        }
        {
            let mut log = CheckpointLog::open(&path, 7).unwrap();
            assert_eq!(ids(&log), [1u64, 2]);
            // And the log still accepts appends afterwards.
            log.record(&result(3)).unwrap();
        }
        {
            let log = CheckpointLog::open(&path, 7).unwrap();
            assert_eq!(ids(&log), [1u64, 2, 3]);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_failed_append_holds_nothing_and_its_retry_records_once() {
        let path = temp_path("failed-append");
        let aside = path.with_extension("aside");
        let _ = std::fs::remove_file(&path);
        let mut log = CheckpointLog::open(&path, 11).unwrap();
        // The path turns into a directory: the first append cannot open it.
        std::fs::rename(&path, &aside).unwrap();
        std::fs::create_dir(&path).unwrap();
        assert!(log.record(&result(1)).is_err());
        assert!(log.results().is_empty(), "a failed append holds nothing");
        std::fs::remove_dir(&path).unwrap();
        std::fs::rename(&aside, &path).unwrap();
        log.record(&result(1)).unwrap();
        assert_eq!(log.results().len(), 1, "the retry records it once");
        drop(log);
        assert_eq!(CheckpointLog::peek(&path, 11).len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_append_after_a_failed_one_repairs_the_file_first() {
        let path = temp_path("repair-after-failure");
        let _ = std::fs::remove_file(&path);
        let mut log = CheckpointLog::open(&path, 7).unwrap();
        // The file goes and a directory takes its path: the append fails.
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        assert!(log.record(&result(1)).is_err());
        std::fs::remove_dir(&path).unwrap();
        log.record(&result(1)).unwrap();
        log.record(&result(2)).unwrap();
        assert_eq!(ids(&log), [1, 2]);
        drop(log);
        let reopened = CheckpointLog::open(&path, 7).unwrap();
        assert_eq!(ids(&reopened), [1, 2], "the header was written back");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_log_holds_records_in_memory_and_on_disk() {
        let mut raw = result(2);
        raw.stdout = "out\n".into();
        raw.events.push(pyrt::host::TraceEvent {
            time: 0.5,
            name: "get".into(),
            failed: false,
            duration: 0.25,
        });
        for (severity, message) in [(Severity::Info, "hello"), (Severity::Warning, "slow")] {
            raw.logs.push(LogRecord {
                time: 1.0,
                severity,
                component: "m".into(),
                message: message.into(),
            });
        }
        let is_record = |r: &ExperimentResult| {
            r.stdout.is_empty()
                && r.events.is_empty()
                && r.logs.iter().map(|l| l.message.as_str()).eq(["slow"])
        };
        let path = temp_path("records");
        let _ = std::fs::remove_file(&path);
        let mut log = CheckpointLog::open(&path, 5).unwrap();
        log.record(&raw).unwrap();
        assert!(is_record(&log.results()[0]));
        assert!(is_record(&CheckpointLog::open(&path, 5).unwrap().results()[0]));
        let mut memory = CheckpointLog::in_memory(5);
        memory.record_owned(raw).unwrap();
        assert!(memory.into_results().iter().all(is_record));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_memory_log_works() {
        let mut log = CheckpointLog::in_memory(3);
        log.record(&result(4)).unwrap();
        assert_eq!(log.results().len(), 1);
        assert!(log.contains(4) && !log.contains(5));
    }
}
