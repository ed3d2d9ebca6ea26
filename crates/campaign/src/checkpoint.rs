//! Append-only experiment checkpoints.
//!
//! The runner records every completed [`ExperimentResult`] as one JSON
//! line, flushed immediately — if the process dies mid-campaign, the
//! next run reads the log back and executes only the missing
//! experiments. A header line carries the owning spec's content hash so
//! a *changed* resubmission (different seed, filter, model, …)
//! invalidates the stale checkpoint instead of silently mixing results.
//!
//! A torn final line (crash mid-write) is detected and dropped; every
//! complete record before it still counts.

use crate::persist::{result_from_value, result_to_value};
use jsonlite::durable::Log;
use jsonlite::Value;
use profipy::ExperimentResult;
use std::collections::BTreeSet;
use std::io;
use std::path::Path;

/// The checkpoint log of one campaign.
pub struct CheckpointLog {
    /// The file behind the log; `None` in memory.
    log: Option<Log>,
    spec_hash: u64,
    results: Vec<ExperimentResult>,
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
    /// An ephemeral, in-memory log for `spec_hash`.
    pub fn in_memory(spec_hash: u64) -> CheckpointLog {
        CheckpointLog::in_memory_with(spec_hash, Vec::new())
    }

    /// An in-memory log pre-seeded with earlier results (how an
    /// in-memory engine carries checkpoints across `drive` calls).
    pub fn in_memory_with(spec_hash: u64, results: Vec<ExperimentResult>) -> CheckpointLog {
        CheckpointLog {
            log: None,
            spec_hash,
            results,
        }
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
        let mut log = Log::at(path);
        if !header_ok || torn {
            // Fresh, invalidated, or torn log: rewrite the valid prefix
            // (empty on invalidation) so the file is clean again — a
            // crash during repair must not lose the durable prefix.
            log.rewrite(
                std::iter::once(header(spec_hash)).chain(results.iter().map(result_to_value)),
            )?;
        }
        Ok(CheckpointLog {
            log: Some(log),
            spec_hash,
            results,
        })
    }

    /// The spec hash this log belongs to.
    pub fn spec_hash(&self) -> u64 {
        self.spec_hash
    }

    /// Results recorded so far (completion order).
    pub fn results(&self) -> &[ExperimentResult] {
        &self.results
    }

    /// Consumes the log, returning the recorded results.
    pub fn into_results(self) -> Vec<ExperimentResult> {
        self.results
    }

    /// Point ids already executed — the runner's skip set.
    pub fn completed_ids(&self) -> BTreeSet<u64> {
        self.results.iter().map(|r| r.point_id).collect()
    }

    /// Appends one result and flushes it to disk before returning. The
    /// log keeps the value it is handed: a caller that owns its result
    /// pays for no copy of it.
    ///
    /// # Errors
    ///
    /// I/O errors (the in-memory copy is updated regardless, keeping
    /// the running campaign coherent).
    pub fn record_owned(&mut self, result: ExperimentResult) -> io::Result<()> {
        let appended = match &mut self.log {
            Some(log) => log.append(&result_to_value(&result)),
            None => Ok(()),
        };
        self.results.push(result);
        appended
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

    /// The log's path, if persistent.
    pub fn path(&self) -> Option<&Path> {
        self.log.as_ref().map(Log::path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            assert_eq!(log.completed_ids(), [1u64, 5].into_iter().collect());
            log.record(&result(9)).unwrap();
        }
        {
            let log = CheckpointLog::open(&path, 42).unwrap();
            assert_eq!(log.completed_ids(), [1u64, 5, 9].into_iter().collect());
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
            assert_eq!(log.completed_ids(), [1u64, 2].into_iter().collect());
            // And the log still accepts appends afterwards.
            log.record(&result(3)).unwrap();
        }
        {
            let log = CheckpointLog::open(&path, 7).unwrap();
            assert_eq!(log.completed_ids(), [1u64, 2, 3].into_iter().collect());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_memory_log_works() {
        let mut log = CheckpointLog::in_memory(3);
        log.record(&result(4)).unwrap();
        assert_eq!(log.results().len(), 1);
        assert_eq!(log.spec_hash(), 3);
        assert!(log.path().is_none());
    }
}
