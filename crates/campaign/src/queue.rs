//! The persistent campaign job queue.
//!
//! Submitted [`CampaignSpec`]s are written to disk (one JSON file per
//! job) before they run, so a crashed or restarted service picks up
//! exactly where it left off: jobs found in the `Running` state at open
//! time are demoted back to `Queued` (their checkpoints make the rerun
//! incremental).
//!
//! Scheduling order implements **per-user fairness with priorities**:
//! the user who least recently received a slot goes first (round-robin
//! across users), and within a user higher `priority` wins, then FIFO
//! submission order. The paper pitches ProFIPy as a multi-user service
//! (§IV); fairness keeps one user's thousand-experiment campaign from
//! starving everyone else.

use crate::spec::CampaignSpec;
use jsonlite::Value;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

/// Lifecycle of a queued campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a slot.
    Queued,
    /// Currently being executed.
    Running,
    /// All experiments finished.
    Completed,
    /// Setup or execution failed fatally.
    Failed,
    /// Cancelled by the user.
    Cancelled,
}

impl JobState {
    /// Every state, in [`JobState::index`] order.
    pub const ALL: [JobState; 5] = [
        JobState::Queued,
        JobState::Running,
        JobState::Completed,
        JobState::Failed,
        JobState::Cancelled,
    ];

    /// Position in [`JobState::ALL`] (the per-state counter slot).
    fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name (persisted format, API responses).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// `Completed`, `Failed` and `Cancelled`: no transition leaves them.
    pub fn is_final(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    fn from_str(s: &str) -> Result<JobState, String> {
        Ok(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "completed" => JobState::Completed,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            other => return Err(format!("unknown job state '{other}'")),
        })
    }
}

/// A queued or running job.
#[derive(Clone, Debug)]
pub struct QueuedJob {
    /// Queue-assigned id (`job-000001`, …).
    pub id: String,
    /// The campaign to run.
    pub spec: CampaignSpec,
    /// Current state.
    pub state: JobState,
    /// Submission sequence number (FIFO tiebreak).
    pub seq: u64,
    /// Fatal error, if `state == Failed`.
    pub error: Option<String>,
    /// [`CampaignSpec::content_hash`] of `spec`, computed once when the
    /// job enters the queue (submit or reopen) — the spec never changes
    /// afterwards, and the hash is a full canonical encode. Not
    /// persisted.
    pub spec_hash: u64,
}

/// A queued job's position within its user's backlog: priority desc,
/// submission order asc; the id rides along so a peek needs no lookup.
type BacklogKey = (Reverse<u8>, u64, String);

impl QueuedJob {
    fn backlog_key(&self) -> BacklogKey {
        (Reverse(self.spec.priority), self.seq, self.id.clone())
    }

    /// The job's id and what the queue keeps of it once it is final.
    fn finish(self) -> (String, FinishedJob) {
        let done = FinishedJob {
            state: self.state,
            error: self.error,
            spec_hash: self.spec_hash,
        };
        (self.id, done)
    }

    fn to_value(&self) -> Value {
        Value::obj(vec![
            ("id", Value::str(&self.id)),
            ("seq", Value::UInt(self.seq)),
            ("state", Value::str(self.state.as_str())),
            ("error", Value::or_null(self.error.as_ref())),
            ("spec", self.spec.to_value()),
        ])
    }

    fn from_value(v: &Value) -> Result<QueuedJob, String> {
        let spec = CampaignSpec::from_value(v.req("spec")?)?;
        Ok(QueuedJob {
            spec_hash: spec.content_hash(),
            id: v.req_str("id")?.into(),
            seq: v.req_u64("seq")?,
            state: JobState::from_str(v.req_str("state")?)?,
            // Always written, `null` unless the job failed.
            error: match v.req("error")? {
                Value::Null => None,
                _ => Some(v.req_str("error")?.into()),
            },
            spec,
        })
    }
}

/// What the queue keeps of a job in a final state: not its spec (the job
/// file has it), nor user and name (the engine's status board has them).
#[derive(Clone, Debug)]
pub struct FinishedJob {
    /// `Completed`, `Failed` or `Cancelled`.
    pub state: JobState,
    /// Fatal error, if `state == Failed`.
    pub error: Option<String>,
    /// The spec's [`CampaignSpec::content_hash`]: the job's checkpoint
    /// is read back under it.
    pub spec_hash: u64,
}

/// The queue. Persistent when opened on a directory, ephemeral when
/// created in memory (tests, one-shot runs).
///
/// A job that reaches a final state leaves `jobs` for `finished`, where
/// it stays forever as a [`FinishedJob`]. Nothing on the scheduling
/// path may scan either map: `queued` indexes the jobs waiting for a
/// slot and `counts` tallies every state, both maintained by the one
/// place a state changes ([`JobQueue::set_state`]).
pub struct JobQueue {
    dir: Option<PathBuf>,
    /// Queued and running jobs.
    jobs: BTreeMap<String, QueuedJob>,
    finished: BTreeMap<String, FinishedJob>,
    /// user → that user's queued jobs, best first. Users with nothing
    /// queued have no entry.
    queued: BTreeMap<String, BTreeSet<BacklogKey>>,
    /// Jobs per state, indexed by `JobState::index`.
    counts: [usize; JobState::ALL.len()],
    next_seq: u64,
    /// user → queue tick at which the user last received a slot.
    last_slot: BTreeMap<String, u64>,
    tick: u64,
}

impl JobQueue {
    /// An ephemeral, in-memory queue.
    pub fn in_memory() -> JobQueue {
        JobQueue {
            dir: None,
            jobs: BTreeMap::new(),
            finished: BTreeMap::new(),
            queued: BTreeMap::new(),
            counts: [0; JobState::ALL.len()],
            next_seq: 1,
            last_slot: BTreeMap::new(),
            tick: 1,
        }
    }

    /// Opens (or creates) a persistent queue in `dir`. Jobs found
    /// `Running` are demoted to `Queued` — they were in flight when the
    /// previous process died.
    ///
    /// # Errors
    ///
    /// I/O errors; corrupt job files are reported, not silently
    /// dropped.
    pub fn open(dir: &Path) -> io::Result<JobQueue> {
        JobQueue::open_with(dir, |_| {})
    }

    /// [`JobQueue::open`], showing `each` every job as loaded (a running
    /// one already demoted). For a finished job this is the only time
    /// its spec is in memory.
    ///
    /// # Errors
    ///
    /// As [`JobQueue::open`].
    pub fn open_with(dir: &Path, mut each: impl FnMut(&QueuedJob)) -> io::Result<JobQueue> {
        std::fs::create_dir_all(dir)?;
        let mut queue = JobQueue {
            dir: Some(dir.to_path_buf()),
            ..JobQueue::in_memory()
        };
        let mut recovered = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let is_job = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("job-") && n.ends_with(".json"));
            if !is_job {
                continue;
            }
            let text = std::fs::read_to_string(&path)?;
            let mut job = jsonlite::parse(&text)
                .and_then(|v| QueuedJob::from_value(&v))
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt job file {}: {e}", path.display()),
                    )
                })?;
            if job.state == JobState::Running {
                job.state = JobState::Queued;
                recovered.push(job.id.clone());
            }
            queue.next_seq = queue.next_seq.max(job.seq + 1);
            each(&job);
            queue.insert(job);
        }
        for id in recovered {
            queue.persist(&id)?;
        }
        Ok(queue)
    }

    /// Adds a job to the per-state tally and to `finished` (spec dropped)
    /// if final, else to `jobs` and (if queued) the scheduling index.
    fn insert(&mut self, job: QueuedJob) {
        self.counts[job.state.index()] += 1;
        if job.state.is_final() {
            let (id, done) = job.finish();
            self.finished.insert(id, done);
            return;
        }
        if job.state == JobState::Queued {
            index(&mut self.queued, &job);
        }
        self.jobs.insert(job.id.clone(), job);
    }

    /// Submits a campaign; returns the assigned job id.
    ///
    /// # Errors
    ///
    /// I/O errors writing the job file.
    pub fn submit(&mut self, spec: CampaignSpec) -> io::Result<String> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = format!("job-{seq:06}");
        self.insert(QueuedJob {
            id: id.clone(),
            spec_hash: spec.content_hash(),
            spec,
            state: JobState::Queued,
            seq,
            error: None,
        });
        self.persist(&id)?;
        Ok(id)
    }

    /// Picks the next job to run (fairness order), marks it `Running`,
    /// and returns its id. `None` when nothing is queued.
    ///
    /// # Errors
    ///
    /// I/O errors persisting the state change.
    pub fn take_next(&mut self) -> io::Result<Option<String>> {
        let Some(id) = self.peek_next() else {
            return Ok(None);
        };
        let user = self.jobs[&id].spec.user.clone();
        self.last_slot.insert(user, self.tick);
        self.tick += 1;
        self.set_state(&id, JobState::Running, None)?;
        Ok(Some(id))
    }

    /// The id `take_next` would return, without side effects.
    pub fn peek_next(&self) -> Option<String> {
        next_in_order(&self.queued, &self.last_slot).map(|(_, key)| key.2.clone())
    }

    /// Marks a running job finished.
    ///
    /// # Errors
    ///
    /// I/O errors persisting the state change.
    pub fn complete(&mut self, id: &str) -> io::Result<()> {
        self.set_state(id, JobState::Completed, None)
    }

    /// Puts a running job back in the queue (budget exhausted before it
    /// finished; its checkpoint keeps the completed experiments).
    ///
    /// # Errors
    ///
    /// I/O errors persisting the state change.
    pub fn requeue(&mut self, id: &str) -> io::Result<()> {
        self.set_state(id, JobState::Queued, None)
    }

    /// Marks a job failed with a reason.
    ///
    /// # Errors
    ///
    /// I/O errors persisting the state change.
    pub fn fail(&mut self, id: &str, error: &str) -> io::Result<()> {
        self.set_state(id, JobState::Failed, Some(error.to_string()))
    }

    /// Cancels a queued job (running/finished jobs are left alone).
    ///
    /// # Errors
    ///
    /// I/O errors persisting the state change.
    pub fn cancel(&mut self, id: &str) -> io::Result<bool> {
        match self.jobs.get(id) {
            Some(job) if job.state == JobState::Queued => {
                self.set_state(id, JobState::Cancelled, None)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// The one place a job changes state: keeps the scheduling index
    /// and the per-state tally in step with `jobs`, then persists; a job
    /// entering a final state is persisted with its spec one last time
    /// and moves to `finished` without it. A job already final refuses
    /// with `InvalidInput` and is left as it is.
    fn set_state(
        &mut self,
        id: &str,
        state: JobState,
        error: Option<String>,
    ) -> io::Result<()> {
        if let Some(done) = self.finished.get(id) {
            let (from, to) = (done.state.as_str(), state.as_str());
            let message = format!("job {id} is {from}, a final state: it cannot become {to}");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
        }
        let Some(job) = self.jobs.get_mut(id) else {
            return Ok(());
        };
        if job.state != state {
            if job.state == JobState::Queued {
                unindex(&mut self.queued, &job.spec.user, &job.backlog_key());
            }
            if state == JobState::Queued {
                index(&mut self.queued, job);
            }
            self.counts[job.state.index()] -= 1;
            self.counts[state.index()] += 1;
            job.state = state;
        }
        job.error = error;
        let persisted = self.persist(id);
        if state.is_final() {
            let (id, done) = self.jobs.remove(id).expect("looked up above").finish();
            self.finished.insert(id, done);
        }
        persisted
    }

    /// A queued or running job; a finished one is [`JobQueue::finished`].
    pub fn get(&self, id: &str) -> Option<&QueuedJob> {
        self.jobs.get(id)
    }

    /// What is left of a job in a final state.
    pub fn finished(&self, id: &str) -> Option<&FinishedJob> {
        self.finished.get(id)
    }

    /// The spec hash of a job, live or finished.
    pub fn spec_hash(&self, id: &str) -> Option<u64> {
        let live = self.jobs.get(id).map(|job| job.spec_hash);
        live.or_else(|| Some(self.finished.get(id)?.spec_hash))
    }

    /// How many jobs are in `state` right now.
    pub fn count(&self, state: JobState) -> usize {
        self.counts[state.index()]
    }

    /// Ids of all currently queued jobs, in fairness order.
    pub fn queued_ids(&self) -> Vec<String> {
        // Simulate repeated take_next without mutating real state.
        let mut order = Vec::new();
        let mut queued = self.queued.clone();
        let mut last_slot = self.last_slot.clone();
        let mut tick = self.tick;
        while let Some((user, key)) = next_in_order(&queued, &last_slot) {
            let (user, key) = (user.clone(), key.clone());
            unindex(&mut queued, &user, &key);
            last_slot.insert(user, tick);
            tick += 1;
            order.push(key.2);
        }
        order
    }

    fn persist(&self, id: &str) -> io::Result<()> {
        let (Some(dir), Some(job)) = (&self.dir, self.jobs.get(id)) else {
            return Ok(());
        };
        // A crash mid-write may leave `{id}.json.tmp` behind; `open`
        // only reads `job-*.json`.
        jsonlite::durable::replace(
            &dir.join(format!("{id}.json")),
            job.to_value().pretty().as_bytes(),
        )
    }
}

/// Enters a job into a queued-jobs index.
fn index(queued: &mut BTreeMap<String, BTreeSet<BacklogKey>>, job: &QueuedJob) {
    queued
        .entry(job.spec.user.clone())
        .or_default()
        .insert(job.backlog_key());
}

/// Drops one entry from a queued-jobs index, and the user's backlog with
/// it once empty.
fn unindex(queued: &mut BTreeMap<String, BTreeSet<BacklogKey>>, user: &str, key: &BacklogKey) {
    if let Some(backlog) = queued.get_mut(user) {
        backlog.remove(key);
        if backlog.is_empty() {
            queued.remove(user);
        }
    }
}

/// The fairness rule over a queued-jobs index: the least-recently-served
/// user goes first (never served = 0), ties by user name for
/// determinism; within the user: priority desc, seq asc (the backlog
/// set's own order).
fn next_in_order<'a>(
    queued: &'a BTreeMap<String, BTreeSet<BacklogKey>>,
    last_slot: &BTreeMap<String, u64>,
) -> Option<(&'a String, &'a BacklogKey)> {
    let (user, backlog) = queued
        .iter()
        .min_by_key(|(user, _)| (last_slot.get(*user).copied().unwrap_or(0), *user))?;
    Some((user, backlog.first()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(user: &str, name: &str, priority: u8) -> CampaignSpec {
        let mut s = CampaignSpec::new(
            user,
            name,
            "noop",
            vec![("m".into(), "pass\n".into())],
            "def run(round):\n    pass\n".into(),
            faultdsl::campaign_a_model(),
        );
        s.priority = priority;
        s
    }

    #[test]
    fn fifo_within_one_user() {
        let mut q = JobQueue::in_memory();
        let a = q.submit(spec("alice", "one", 0)).unwrap();
        let b = q.submit(spec("alice", "two", 0)).unwrap();
        assert_eq!(q.take_next().unwrap(), Some(a));
        assert_eq!(q.take_next().unwrap(), Some(b));
        assert_eq!(q.take_next().unwrap(), None);
    }

    #[test]
    fn priority_beats_fifo_within_user() {
        let mut q = JobQueue::in_memory();
        let _low = q.submit(spec("alice", "low", 0)).unwrap();
        let high = q.submit(spec("alice", "high", 9)).unwrap();
        assert_eq!(q.take_next().unwrap(), Some(high));
    }

    #[test]
    fn users_round_robin() {
        let mut q = JobQueue::in_memory();
        let a1 = q.submit(spec("alice", "a1", 0)).unwrap();
        let a2 = q.submit(spec("alice", "a2", 0)).unwrap();
        let b1 = q.submit(spec("bob", "b1", 0)).unwrap();
        // Alice served first (alphabetical among never-served), then
        // bob (still never-served), then alice again.
        assert_eq!(q.take_next().unwrap(), Some(a1));
        assert_eq!(q.take_next().unwrap(), Some(b1));
        assert_eq!(q.take_next().unwrap(), Some(a2));
    }

    #[test]
    fn heavy_user_cannot_starve_others() {
        let mut q = JobQueue::in_memory();
        for i in 0..10 {
            q.submit(spec("alice", &format!("a{i}"), 0)).unwrap();
        }
        q.take_next().unwrap(); // alice gets one slot…
        let b = q.submit(spec("bob", "b", 0)).unwrap();
        // …then bob's fresh submission goes before alice's backlog.
        assert_eq!(q.take_next().unwrap(), Some(b));
    }

    #[test]
    fn queued_ids_previews_fairness_order() {
        let mut q = JobQueue::in_memory();
        let a1 = q.submit(spec("alice", "a1", 0)).unwrap();
        let a2 = q.submit(spec("alice", "a2", 5)).unwrap();
        let b1 = q.submit(spec("bob", "b1", 0)).unwrap();
        // Priority reorders alice's jobs; users alternate.
        assert_eq!(q.queued_ids(), vec![a2.clone(), b1, a1]);
        // Preview must not consume.
        assert_eq!(q.take_next().unwrap(), Some(a2));
    }

    #[test]
    fn persistence_survives_reopen_and_demotes_running() {
        let dir = std::env::temp_dir().join(format!(
            "campaign-queue-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (a, b);
        {
            let mut q = JobQueue::open(&dir).unwrap();
            a = q.submit(spec("alice", "one", 0)).unwrap();
            b = q.submit(spec("bob", "two", 0)).unwrap();
            assert_eq!(q.take_next().unwrap(), Some(a.clone()));
            // Process "crashes" here with job `a` running.
        }
        {
            let q = JobQueue::open(&dir).unwrap();
            assert_eq!(q.get(&a).unwrap().state, JobState::Queued, "demoted");
            assert_eq!(q.get(&b).unwrap().state, JobState::Queued);
            assert_eq!(q.get(&a).unwrap().spec.user, "alice");
            assert_eq!(q.jobs.values().count(), 2);
        }
        {
            let mut q = JobQueue::open(&dir).unwrap();
            // Sequence numbers continue, no id collisions.
            let c = q.submit(spec("carol", "three", 0)).unwrap();
            assert_ne!(c, a);
            assert_ne!(c, b);
            q.complete(&a).unwrap();
            q.fail(&b, "boom").unwrap();
        }
        {
            let mut names = Vec::new();
            let q = JobQueue::open_with(&dir, |job| names.push(job.spec.name.clone())).unwrap();
            names.sort();
            assert_eq!(names, ["one", "three", "two"], "every spec was shown once");
            assert!(q.get(&a).is_none() && q.get(&b).is_none(), "finished: spec dropped");
            assert_eq!(q.finished(&a).unwrap().state, JobState::Completed);
            assert_eq!(q.finished(&b).unwrap().state, JobState::Failed);
            assert_eq!(q.finished(&b).unwrap().error.as_deref(), Some("boom"));
            assert_eq!(q.spec_hash(&a), Some(spec("alice", "one", 0).content_hash()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_final_state_is_final() {
        let dir = std::env::temp_dir().join(format!(
            "campaign-queue-final-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut q = JobQueue::open(&dir).unwrap();
        let done = q.submit(spec("alice", "done", 0)).unwrap();
        let failed = q.submit(spec("alice", "failed", 0)).unwrap();
        let cancelled = q.submit(spec("alice", "cancelled", 0)).unwrap();
        q.take_next().unwrap();
        q.take_next().unwrap();
        q.complete(&done).unwrap();
        q.fail(&failed, "boom").unwrap();
        assert!(q.cancel(&cancelled).unwrap());
        let files = |ids: &[&String]| -> Vec<String> {
            ids.iter()
                .map(|id| std::fs::read_to_string(dir.join(format!("{id}.json"))).unwrap())
                .collect()
        };
        let before = files(&[&done, &failed, &cancelled]);
        for id in [&done, &failed, &cancelled] {
            let state = q.finished(id).unwrap().state;
            for result in [q.complete(id), q.fail(id, "again"), q.requeue(id)] {
                assert_eq!(result.unwrap_err().kind(), io::ErrorKind::InvalidInput, "{id}");
            }
            assert!(!q.cancel(id).unwrap());
            assert_eq!(q.finished(id).unwrap().state, state, "{id} unchanged");
        }
        assert_eq!(q.finished(&failed).unwrap().error.as_deref(), Some("boom"));
        assert_eq!(files(&[&done, &failed, &cancelled]), before, "and not rewritten");
        assert_eq!(
            [JobState::Completed, JobState::Failed, JobState::Cancelled].map(|s| q.count(s)),
            [1, 1, 1]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The scheduling rule as the queue implemented it before it kept
    /// an index: a linear scan of every job. `peek_next` is the head of
    /// this order.
    fn reference_order(q: &JobQueue) -> Vec<String> {
        let mut order = Vec::new();
        let mut last_slot = q.last_slot.clone();
        let mut tick = q.tick;
        let mut remaining: Vec<&QueuedJob> =
            q.jobs.values().filter(|j| j.state == JobState::Queued).collect();
        while !remaining.is_empty() {
            let (idx, _) = remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, j)| {
                    (
                        last_slot.get(&j.spec.user).copied().unwrap_or(0),
                        j.spec.user.clone(),
                        std::cmp::Reverse(j.spec.priority),
                        j.seq,
                    )
                })
                .expect("nonempty");
            let job = remaining.swap_remove(idx);
            last_slot.insert(job.spec.user.clone(), tick);
            tick += 1;
            order.push(job.id.clone());
        }
        order
    }

    fn nth_in_state(q: &JobQueue, state: JobState, pick: usize) -> Option<String> {
        let ids: Vec<&String> = q
            .jobs
            .values()
            .filter(|j| j.state == state)
            .map(|j| &j.id)
            .collect();
        (!ids.is_empty()).then(|| ids[pick % ids.len()].clone())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn index_and_tally_match_a_linear_scan(
            ops in proptest::collection::vec((0u8..11, 0usize..3, 0u8..3, 0usize..64), 1..48)
        ) {
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "campaign-queue-oracle-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut q = JobQueue::open(&dir).unwrap();
            // Every job's state, tracked by the test alone.
            let mut model: BTreeMap<String, JobState> = BTreeMap::new();
            for (op, user, priority, pick) in ops {
                match op {
                    0..=2 => {
                        let user = ["alice", "bob", "carol"][user];
                        let id = q.submit(spec(user, "c", priority)).unwrap();
                        model.insert(id, JobState::Queued);
                    }
                    3 | 4 => {
                        let expected = reference_order(&q).into_iter().next();
                        proptest::prop_assert_eq!(q.take_next().unwrap(), expected.clone());
                        if let Some(id) = expected {
                            model.insert(id, JobState::Running);
                        }
                    }
                    5..=7 => {
                        if let Some(id) = nth_in_state(&q, JobState::Running, pick) {
                            let state = match op {
                                5 => q.requeue(&id).map(|_| JobState::Queued),
                                6 => q.complete(&id).map(|_| JobState::Completed),
                                _ => q.fail(&id, "boom").map(|_| JobState::Failed),
                            };
                            model.insert(id, state.unwrap());
                        }
                    }
                    8 => {
                        // Any job: only a queued one may actually cancel.
                        let ids: Vec<&String> = model.keys().collect();
                        if !ids.is_empty() {
                            let id = ids[pick % ids.len()].clone();
                            let was_queued = model[&id] == JobState::Queued;
                            proptest::prop_assert_eq!(q.cancel(&id).unwrap(), was_queued);
                            if was_queued {
                                model.insert(id, JobState::Cancelled);
                            }
                        }
                    }
                    9 => {
                        // A finished job refuses every transition.
                        let done: Vec<&String> =
                            model.iter().filter(|(_, s)| s.is_final()).map(|(id, _)| id).collect();
                        if !done.is_empty() {
                            let id = done[pick % done.len()];
                            proptest::prop_assert!(q.complete(id).is_err());
                            proptest::prop_assert!(q.fail(id, "again").is_err());
                            proptest::prop_assert!(q.requeue(id).is_err());
                        }
                    }
                    _ => {
                        // The process dies and restarts: index and tally
                        // are rebuilt from the files, running jobs demoted.
                        q = JobQueue::open(&dir).unwrap();
                        for state in model.values_mut() {
                            if *state == JobState::Running {
                                *state = JobState::Queued;
                            }
                        }
                    }
                }
                let order = reference_order(&q);
                proptest::prop_assert_eq!(q.peek_next(), order.first().cloned());
                proptest::prop_assert_eq!(q.queued_ids(), order);
                for state in JobState::ALL {
                    proptest::prop_assert_eq!(
                        q.count(state),
                        model.values().filter(|s| **s == state).count()
                    );
                }
                // A live job keeps its spec; a finished one only its
                // record.
                for (id, state) in &model {
                    let live = q.get(id).map(|j| j.state);
                    let finished = q.finished(id).map(|f| f.state);
                    proptest::prop_assert_eq!(live.or(finished), Some(*state));
                    proptest::prop_assert_eq!(live.is_some(), !state.is_final());
                    proptest::prop_assert_eq!(finished.is_some(), state.is_final());
                }
                proptest::prop_assert_eq!(q.jobs.values().count() + q.finished.len(), model.len());
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn cancel_only_affects_queued() {
        let mut q = JobQueue::in_memory();
        let a = q.submit(spec("alice", "one", 0)).unwrap();
        let b = q.submit(spec("alice", "two", 0)).unwrap();
        assert_eq!(q.take_next().unwrap(), Some(a.clone()));
        assert!(!q.cancel(&a).unwrap(), "running job not cancellable");
        assert!(q.cancel(&b).unwrap());
        assert_eq!(q.finished(&b).unwrap().state, JobState::Cancelled);
        assert_eq!(q.take_next().unwrap(), None);
    }
}
