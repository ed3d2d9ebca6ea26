//! The durable lease log (`fleet-leases.jsonl`): a torn-tail-tolerant
//! write-ahead log of lease state, the third leg of the repo's
//! append-only-log discipline (after campaign checkpoints and the
//! worker registry).
//!
//! Every lease transition appends one JSON line:
//!
//! ```text
//! {"ev":"epoch","n":2}                                 coordinator (re)start
//! {"ev":"grant","worker":"worker-000001",
//!  "jobs":[["job-000001",3],["job-000001",4]]}         lease granted (replaces)
//! {"ev":"extend","worker":"worker-000001"}             heartbeat extension
//! {"ev":"supersede","worker":"worker-000001"}          re-lease dropped the old one
//! {"ev":"expire","worker":"worker-000001"}             lease expired, jobs requeued
//! {"ev":"result","campaign":"job-000001","point":3}    job resulted, off every lease
//! {"ev":"snapshot","epoch":2,"leases":[...]}           compaction snapshot
//! ```
//!
//! A restarted (or warm-standby) coordinator replays the log into a
//! [`WalState`] — the set of leases that were in flight when the
//! previous coordinator died — and re-arms them instead of silently
//! orphaning the work (see `Coordinator::recover`). Like the checkpoint
//! log, a torn tail from a crash mid-append is detected and dropped;
//! every complete event before it still counts. The log compacts to a
//! single snapshot line on open and every `SNAPSHOT_EVERY` events, so
//! heartbeat-extension noise cannot grow it without bound.
//!
//! Deadlines are deliberately **not** persisted: wall-clock instants do
//! not survive a process (let alone a host) change. Replayed leases get
//! one fresh TTL from the moment of recovery — live workers that fail
//! over get a grace window to upload their in-flight batches, and a
//! dead worker's lease expires exactly once, requeueing exactly its
//! unresulted jobs.

use jsonlite::durable::Log;
use jsonlite::Value;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Events between compaction snapshots before the log is rewritten.
const SNAPSHOT_EVERY: usize = 512;

/// The lease state a log replays to: the coordinator epoch and the
/// jobs each worker held when the log was last written.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalState {
    /// Monotonic coordinator epoch: bumped on every (re)start or
    /// takeover, stamped on every lease, echoed by result uploads —
    /// the guard that lets a new primary tell late uploads from the
    /// old epoch apart from its own.
    pub epoch: u64,
    /// Worker id → the `(campaign, point)` jobs its live lease holds.
    pub leases: BTreeMap<String, Vec<(String, u64)>>,
}

impl WalState {
    /// Whether any lease currently holds `(campaign, point)`.
    fn holds(&self, campaign: &str, point: u64) -> bool {
        self.leases
            .values()
            .any(|jobs| jobs.iter().any(|(c, p)| c == campaign && *p == point))
    }

    /// Takes `(campaign, point)` off every lease; a lease left empty is
    /// gone.
    fn retire(&mut self, campaign: &str, point: u64) {
        for jobs in self.leases.values_mut() {
            jobs.retain(|(c, p)| !(c == campaign && *p == point));
        }
        self.leases.retain(|_, jobs| !jobs.is_empty());
    }

    /// Applies one parsed event, all of it or none of it.
    ///
    /// # Errors
    ///
    /// A malformed or unknown event — the load treats that line as the
    /// torn tail.
    fn apply(&mut self, v: &Value) -> Result<(), String> {
        match v.req_str("ev")? {
            "epoch" => self.epoch = v.req_u64("n")?,
            "grant" => {
                let jobs = v.req_list("jobs", job_from_value)?;
                self.leases.insert(v.req_str("worker")?.to_string(), jobs);
            }
            "extend" => {
                v.req_str("worker")?;
            }
            "expire" | "supersede" => {
                self.leases.remove(v.req_str("worker")?);
            }
            "result" => self.retire(v.req_str("campaign")?, v.req_u64("point")?),
            "snapshot" => {
                let leases = v.req_list("leases", |entry| {
                    let jobs = entry.req_list("jobs", job_from_value)?;
                    Ok((entry.req_str("worker")?.to_string(), jobs))
                })?;
                self.epoch = v.req_u64("epoch")?;
                self.leases = leases.into_iter().collect();
            }
            other => return Err(format!("unknown event '{other}'")),
        }
        Ok(())
    }
}

fn job_from_value(pair: &Value) -> Result<(String, u64), String> {
    match pair.as_arr() {
        Some([Value::Str(campaign), point]) => point.as_u64().map(|p| (campaign.clone(), p)),
        _ => None,
    }
    .ok_or_else(|| "expected [campaign, point] pairs".to_string())
}

fn jobs_to_value(jobs: &[(String, u64)]) -> Value {
    Value::arr(
        jobs.iter()
            .map(|(c, p)| Value::Arr(vec![Value::str(c), Value::UInt(*p)])),
    )
}

/// The write-ahead lease log. In-memory when opened without a path
/// (coordinators without a data dir still keep the mirror, so epoch
/// semantics work uniformly).
pub struct LeaseLog {
    /// The file behind the mirror; `None` in memory.
    log: Option<Log>,
    state: WalState,
    events_since_snapshot: usize,
}

impl LeaseLog {
    /// An ephemeral, in-memory log.
    pub fn in_memory() -> LeaseLog {
        LeaseLog {
            log: None,
            state: WalState::default(),
            events_since_snapshot: 0,
        }
    }

    /// Opens (or creates) the log at `path`, replaying it into the
    /// recovered [`WalState`]. Any torn tail or trailing garbage —
    /// crash mid-append — is dropped at the first unparseable line, and
    /// the log is compacted to a clean snapshot of the replayed state.
    ///
    /// # Errors
    ///
    /// I/O errors (a *corrupt* log never errors: the valid prefix
    /// wins).
    pub fn open(path: &Path) -> io::Result<LeaseLog> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut state = WalState::default();
        if Log::load(path, |event| state.apply(&event).is_ok()).is_err() {
            // A file that cannot be read — a line that is not UTF-8
            // with more lines after it — replays to the empty state, as
            // it always has (`walog_props.rs` pins it).
            state = WalState::default();
        }
        let mut log = LeaseLog {
            log: Some(Log::at(path)),
            state,
            events_since_snapshot: 0,
        };
        // Compact on open: repairs any torn tail and drops the event
        // history the snapshot already summarizes.
        log.compact()?;
        Ok(log)
    }

    /// The current mirror state (equals the recovered state right after
    /// [`LeaseLog::open`], before any new events are recorded).
    pub fn state(&self) -> &WalState {
        &self.state
    }

    /// Records an epoch bump (coordinator start or standby takeover).
    ///
    /// # Errors
    ///
    /// I/O errors appending.
    pub fn record_epoch(&mut self, n: u64) -> io::Result<()> {
        self.state.epoch = n;
        self.append("epoch", vec![("n", Value::UInt(n))])
    }

    /// Records a lease grant: `worker` now holds exactly `jobs` (a
    /// grant replaces any previous lease — supersession is recorded
    /// separately before it). Empty grants are not worth a line.
    ///
    /// # Errors
    ///
    /// I/O errors appending.
    pub fn record_grant(&mut self, worker: &str, jobs: &[(String, u64)]) -> io::Result<()> {
        if jobs.is_empty() {
            return Ok(());
        }
        self.state.leases.insert(worker.to_string(), jobs.to_vec());
        let grant = vec![
            ("worker", Value::str(worker)),
            ("jobs", jobs_to_value(jobs)),
        ];
        self.append("grant", grant)
    }

    /// Records a heartbeat lease extension. A no-op unless the worker
    /// holds a non-empty lease — idle polling must not grow the log.
    ///
    /// # Errors
    ///
    /// I/O errors appending.
    pub fn record_extend(&mut self, worker: &str) -> io::Result<()> {
        if !self.state.leases.contains_key(worker) {
            return Ok(());
        }
        self.append("extend", vec![("worker", Value::str(worker))])
    }

    /// Records a lease expiry (jobs requeued). No-op without a lease.
    ///
    /// # Errors
    ///
    /// I/O errors appending.
    pub fn record_expire(&mut self, worker: &str) -> io::Result<()> {
        self.record_removal("expire", worker)
    }

    /// Records a lease supersession (a re-lease dropped the old one).
    /// No-op without a lease.
    ///
    /// # Errors
    ///
    /// I/O errors appending.
    pub fn record_supersede(&mut self, worker: &str) -> io::Result<()> {
        self.record_removal("supersede", worker)
    }

    fn record_removal(&mut self, ev: &str, worker: &str) -> io::Result<()> {
        if self.state.leases.remove(worker).is_none() {
            return Ok(());
        }
        self.append(ev, vec![("worker", Value::str(worker))])
    }

    /// Records a result: the job leaves every lease. A no-op if no
    /// lease holds it (duplicate or single-shot upload).
    ///
    /// # Errors
    ///
    /// I/O errors appending.
    pub fn record_result(&mut self, campaign: &str, point: u64) -> io::Result<()> {
        if !self.state.holds(campaign, point) {
            return Ok(());
        }
        self.state.retire(campaign, point);
        let job = vec![
            ("campaign", Value::str(campaign)),
            ("point", Value::UInt(point)),
        ];
        self.append("result", job)
    }

    /// Appends the event `{"ev": ev, ..fields}`.
    fn append(&mut self, ev: &str, mut fields: Vec<(&str, Value)>) -> io::Result<()> {
        if self.events_since_snapshot >= SNAPSHOT_EVERY {
            return self.compact();
        }
        let Some(log) = &self.log else {
            return Ok(()); // in-memory: the mirror is the log
        };
        fields.insert(0, ("ev", Value::str(ev)));
        log.append(&Value::obj(fields))?;
        self.events_since_snapshot += 1;
        Ok(())
    }

    /// Rewrites the log as a single snapshot of the mirror state — a
    /// crash during compaction must not lose the durable state.
    fn compact(&mut self) -> io::Result<()> {
        let Some(log) = &self.log else {
            return Ok(());
        };
        let leases = self.state.leases.iter().map(|(worker, jobs)| {
            Value::obj(vec![
                ("worker", Value::str(worker)),
                ("jobs", jobs_to_value(jobs)),
            ])
        });
        log.rewrite([Value::obj(vec![
            ("ev", Value::str("snapshot")),
            ("epoch", Value::UInt(self.state.epoch)),
            ("leases", Value::arr(leases)),
        ])])?;
        self.events_since_snapshot = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "fleet-walog-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn grants_and_results_replay() {
        let path = temp_path("replay");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = LeaseLog::open(&path).unwrap();
            log.record_epoch(1).unwrap();
            log.record_grant("worker-000001", &[("job-000001".into(), 3), ("job-000001".into(), 4)])
                .unwrap();
            log.record_grant("worker-000002", &[("job-000001".into(), 5)])
                .unwrap();
            log.record_result("job-000001", 4).unwrap();
            log.record_expire("worker-000002").unwrap();
        }
        let log = LeaseLog::open(&path).unwrap();
        assert_eq!(log.state().epoch, 1);
        assert_eq!(
            log.state().leases,
            [("worker-000001".to_string(), vec![("job-000001".to_string(), 3)])]
                .into_iter()
                .collect()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_and_garbage_are_dropped_and_repaired() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = LeaseLog::open(&path).unwrap();
            log.record_epoch(1).unwrap();
            log.record_grant("worker-000001", &[("job-000001".into(), 7)])
                .unwrap();
        }
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"ev\":\"grant\",\"worker\":\"worker-0").unwrap();
        }
        let log = LeaseLog::open(&path).unwrap();
        assert_eq!(log.state().epoch, 1);
        assert_eq!(log.state().leases.len(), 1);
        // The open compacted the file: one clean snapshot line.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.starts_with("{\"ev\":\"snapshot\""), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn idle_noise_is_not_logged() {
        let path = temp_path("idle");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = LeaseLog::open(&path).unwrap();
            log.record_epoch(1).unwrap();
            // No lease: extends, expiries, supersessions, empty grants
            // and unknown results must not grow the log.
            log.record_extend("worker-000009").unwrap();
            log.record_expire("worker-000009").unwrap();
            log.record_supersede("worker-000009").unwrap();
            log.record_grant("worker-000009", &[]).unwrap();
            log.record_result("job-000001", 1).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        // snapshot (from open) + epoch only.
        assert_eq!(text.lines().count(), 2, "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_keeps_state_and_bounds_the_file() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        {
            let mut log = LeaseLog::open(&path).unwrap();
            log.record_epoch(3).unwrap();
            for i in 0..(SNAPSHOT_EVERY * 2) {
                let worker = format!("worker-{:06}", (i % 4) + 1);
                log.record_grant(&worker, &[("job-000001".to_string(), i as u64)])
                    .unwrap();
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().count() <= SNAPSHOT_EVERY + 1,
            "log compacted: {} lines",
            text.lines().count()
        );
        let log = LeaseLog::open(&path).unwrap();
        assert_eq!(log.state().epoch, 3);
        assert_eq!(log.state().leases.len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn in_memory_log_keeps_the_mirror() {
        let mut log = LeaseLog::in_memory();
        log.record_epoch(1).unwrap();
        log.record_grant("w", &[("job-000001".into(), 1)]).unwrap();
        assert_eq!(log.state().epoch, 1);
        assert!(log.state().leases.contains_key("w"));
        log.record_result("job-000001", 1).unwrap();
        assert!(log.state().leases.is_empty());
    }
}
