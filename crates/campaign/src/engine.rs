//! The campaign orchestration engine: submit → queue → schedule →
//! checkpoint → report, with crash recovery and cross-campaign reuse.
//!
//! ```text
//!  submit(spec) ─▶ JobQueue (persistent, fair)            poll(id)
//!                      │ drive()                             ▲
//!                      ▼                                     │
//!               prepare: MutantCache (parse/scan/mutants)    │
//!                      │                                     │
//!                      ▼                               StatusBoard
//!               scheduler::interleave ─▶ ParallelExecutor    ▲
//!                      │         (one pool, all campaigns)   │
//!                      ▼                                     │
//!               CheckpointLog (per campaign, incremental) ───┘
//! ```
//!
//! The engine keeps finished jobs forever, so nothing a drive slice or
//! a status request does may cost more as that history grows: the queue
//! indexes its waiting jobs, completions are handed on as events
//! ([`CampaignEngine::take_completed`]), and every transition publishes
//! the job's [`JobStatus`] to the [`StatusBoard`], which answers `poll`
//! and `report` with one map lookup — also for readers that hold no
//! engine at all. What a finished job keeps *resident* is its status,
//! with the report of a completed one, and the queue's
//! [`crate::queue::FinishedJob`] record: its spec and raw results stay
//! only with unfinished jobs, and the cross-campaign cache is bounded
//! ([`crate::cache`]).
//!
//! `drive` is re-entrant and budget-limited: killing the process (or
//! exhausting the experiment budget) mid-campaign loses nothing — the
//! next `drive` on a reopened engine resumes from the checkpoints and
//! produces the identical result set.
//!
//! A campaign is **prepared once per job**, not once per drive slice:
//! what a spec determines (workflow, plan, cache key) is built the
//! first time the job is taken and stays with it until it completes,
//! fails or is cancelled. A later slice only takes the checkpoint and
//! lists what is still pending, so nothing a slice does beyond that
//! may grow with the size of the campaign.

use crate::cache::{CacheMetrics, CacheStats, MutantCache};
use crate::checkpoint::CheckpointLog;
use crate::queue::{JobQueue, JobState};
use crate::scheduler::{self, RunTelemetry, ScheduledCampaign};
use crate::spec::CampaignSpec;
use injector::InjectionPoint;
use profipy::analysis::FailureClassifier;
use profipy::report::CampaignReport;
use profipy::workflow::HostFactory;
use profipy::{ExperimentResult, InjectionPlan, Workflow};
use pysrc::Module;
use sandbox::{ParallelExecutor, SourceFile};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::TraceStore;

/// The engine's latency histograms. Instruments are created detached
/// (an engine works without any registry) and attached to a server's
/// [`obs::Registry`] via [`EngineMetrics::register_into`] — typically
/// by `SharedService::new`.
pub struct EngineMetrics {
    /// Queue wait: submit/requeue → taken by `drive`/`checkout_next`.
    pub queue_wait_seconds: obs::Histogram,
    /// Mutant-cache prepare wall time (parse, scan, plan, render).
    pub prepare_seconds: obs::Histogram,
    /// Per-experiment execution wall time.
    pub experiment_seconds: obs::Histogram,
    /// The cross-campaign cache's instruments (shared with the cache).
    pub cache: CacheMetrics,
    /// Raw results an in-memory engine holds for unfinished jobs
    /// between their slices.
    pub results_resident: obs::Gauge,
}

impl EngineMetrics {
    fn new(cache: CacheMetrics) -> EngineMetrics {
        EngineMetrics {
            queue_wait_seconds: obs::Histogram::detached(obs::WAIT_BUCKETS),
            prepare_seconds: obs::Histogram::detached(obs::LATENCY_BUCKETS),
            experiment_seconds: obs::Histogram::detached(obs::LATENCY_BUCKETS),
            cache,
            results_resident: obs::Gauge::detached(),
        }
    }

    /// Registers the engine's histograms into `registry`.
    pub fn register_into(&self, registry: &obs::Registry) {
        registry.register_histogram(
            "campaign_queue_wait_seconds",
            "Time campaigns waited in the job queue before being taken, in seconds.",
            &self.queue_wait_seconds,
        );
        registry.register_histogram(
            "campaign_prepare_seconds",
            "Mutant-cache campaign preparation time (parse/scan/plan/render), in seconds.",
            &self.prepare_seconds,
        );
        registry.register_histogram(
            "campaign_experiment_seconds",
            "Per-experiment execution time, in seconds.",
            &self.experiment_seconds,
        );
        registry.register_counter(
            "campaign_cache_write_failures_total",
            "Disk-tier cache writes that failed (cache stays correct; the write is retried on the next scan).",
            &self.cache.write_failures,
        );
        registry.register_counter(
            "campaign_cache_evictions_total",
            "Cache entries (one per revision and model) dropped, least recently used first, to stay under the byte budget.",
            &self.cache.evictions,
        );
        registry.register_gauge(
            "campaign_cache_resident_bytes",
            "Estimated weight of the cross-campaign cache's memory tier, in bytes.",
            &self.cache.resident_bytes,
        );
        registry.register_gauge(
            "campaign_cache_entries",
            "Keys in the cross-campaign cache's memory tier.",
            &self.cache.entries,
        );
        registry.register_gauge(
            "campaign_results_resident",
            "Raw experiment results held between slices for unfinished in-memory jobs.",
            &self.results_resident,
        );
    }
}

/// Engine-level errors.
#[derive(Debug)]
pub struct EngineError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine error: {}", self.message)
    }
}

impl std::error::Error for EngineError {}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> EngineError {
        EngineError {
            message: format!("I/O: {e}"),
        }
    }
}

/// Named host environments — specs reference hosts by name since
/// factories are code, not data.
#[derive(Default)]
pub struct HostRegistry {
    factories: BTreeMap<String, HostFactory>,
}

impl HostRegistry {
    /// An empty registry.
    pub fn new() -> HostRegistry {
        HostRegistry::default()
    }

    /// Registers a host environment under a name (builder-style).
    pub fn with(mut self, name: &str, factory: HostFactory) -> HostRegistry {
        self.factories.insert(name.to_string(), factory);
        self
    }

    /// Looks a host up.
    pub fn get(&self, name: &str) -> Option<HostFactory> {
        self.factories.get(name).cloned()
    }

    /// A registry containing only the no-op host (`"noop"`).
    pub fn with_noop() -> HostRegistry {
        HostRegistry::new().with(
            "noop",
            Arc::new(|_| std::rc::Rc::new(pyrt::NoopHost::new()) as std::rc::Rc<dyn pyrt::HostApi>),
        )
    }
}

/// What `poll` reports about a job.
#[derive(Clone, Debug)]
pub struct JobStatus {
    /// Job id.
    pub id: String,
    /// Queue state.
    pub state: JobState,
    /// Submitting user.
    pub user: String,
    /// Campaign name.
    pub name: String,
    /// Experiments recorded in the checkpoint, as of the job's last
    /// transition (taken, requeued, completed, checked in).
    pub completed_experiments: usize,
    /// Planned experiment count, once known (set after the first
    /// `drive` touches the job).
    pub total_experiments: Option<usize>,
    /// Fatal error, if the job failed.
    pub error: Option<String>,
    /// The report, once the job has completed: the one copy the
    /// process keeps (sessions hold the same `Arc`).
    pub report: Option<Arc<CampaignReport>>,
}

/// Every job's latest [`JobStatus`], published by the engine at each
/// transition it makes (submit, take, fail, requeue, complete, cancel,
/// checkin) and readable without it: an HTTP status or report request
/// takes this lock for one map lookup, never the service mutex a drive
/// slice holds while experiments run.
///
/// A job's report is published in the same locked write as its
/// `Completed` state, so a reader that sees `completed` here always
/// finds the report.
#[derive(Default)]
pub struct StatusBoard {
    jobs: Mutex<HashMap<String, JobStatus>>,
}

impl StatusBoard {
    /// The status of a job, or `None` for an unknown id.
    pub fn get(&self, id: &str) -> Option<JobStatus> {
        self.lock().get(id).cloned()
    }

    /// A completed job's report, or `None` for any other id.
    pub fn report(&self, id: &str) -> Option<Arc<CampaignReport>> {
        self.lock().get(id)?.report.clone()
    }

    /// Poison-recovering: every write below is a plain field store, so
    /// a panicking writer cannot leave an entry half-made.
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, JobStatus>> {
        self.jobs.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn insert(&self, status: JobStatus) {
        self.lock().insert(status.id.clone(), status);
    }

    fn update(&self, id: &str, change: impl FnOnce(&mut JobStatus)) {
        if let Some(status) = self.lock().get_mut(id) {
            change(status);
        }
    }
}

/// A campaign checked out of the queue for external (distributed)
/// execution: everything a coordinator needs to farm the pending
/// experiments out to remote workers and to record their results.
///
/// Produced by [`CampaignEngine::checkout_next`]; must be returned via
/// [`CampaignEngine::checkin`] (completing or requeueing the job) —
/// dropping it instead leaves the job `Running` until the engine is
/// reopened, exactly like a crash would.
pub struct CheckedOutCampaign {
    /// The queue job id.
    pub id: String,
    /// The campaign definition.
    pub spec: CampaignSpec,
    /// Planned experiment count (checkpointed results included).
    pub total: usize,
    /// The parsed fault-free target modules — required to serialize
    /// injection points portably for the wire.
    pub modules: Arc<Vec<Module>>,
    /// Experiments still to run: `(point, rendered container sources)`.
    pub pending: Vec<(InjectionPoint, Arc<Vec<SourceFile>>)>,
    /// The campaign's checkpoint log; the caller records every remote
    /// result here (durably, completion order).
    pub checkpoint: CheckpointLog,
}

/// What a job's spec determines, built by the first slice that takes
/// the job and kept for its later ones.
struct PreparedJob {
    workflow: Arc<Workflow>,
    /// The planned experiments, coverage pruning applied.
    plan: InjectionPlan,
    /// The spec's mutant-cache key.
    key: u64,
}

/// What one `drive` call did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DriveSummary {
    /// Campaigns touched this drive.
    pub campaigns: usize,
    /// Experiments executed this drive.
    pub experiments: usize,
    /// Campaigns that reached completion this drive.
    pub completed: usize,
}

/// Engine construction options.
#[derive(Default)]
pub struct EngineConfig {
    /// Persistence root (`None` = fully in-memory engine).
    pub data_dir: Option<PathBuf>,
    /// The worker pool configuration.
    pub executor: ParallelExecutor,
}

/// The orchestration engine.
pub struct CampaignEngine {
    queue: JobQueue,
    cache: MutantCache,
    registry: HostRegistry,
    executor: ParallelExecutor,
    checkpoint_dir: Option<PathBuf>,
    /// In-memory checkpoint store (`data_dir == None`): unfinished
    /// job id → results so far. A taken job's vector moves into its
    /// [`CheckpointLog`] and back, so it is never copied; a job that
    /// completes, fails or is cancelled leaves no entry.
    mem_logs: BTreeMap<String, Vec<ExperimentResult>>,
    /// Published job statuses — also the engine's own record of each
    /// job's planned and completed experiment counts, and its one store
    /// of reports.
    status: Arc<StatusBoard>,
    /// Jobs completed since the last [`CampaignEngine::take_completed`].
    completions: Vec<String>,
    /// Taken-but-unfinished jobs' prepared state, by job id. An entry
    /// lives from the job's first slice to its completion, failure or
    /// cancellation; a reopened engine starts without any and prepares
    /// a resumed job once more.
    prepared: HashMap<String, PreparedJob>,
    classifier: FailureClassifier,
    metrics: EngineMetrics,
    /// Span sink for fleet-wide tracing (attached by the service
    /// layer; a bare engine runs untraced).
    trace: Option<Arc<TraceStore>>,
    /// Queue-wait start marks: job id → submit/requeue instant.
    /// In-memory only — waits across a process restart are not
    /// observable, and the histogram is per-process anyway.
    waiting_since: BTreeMap<String, Instant>,
}

impl CampaignEngine {
    /// Creates an engine. With a `data_dir`, the queue, checkpoints,
    /// and scan cache all persist under it (`queue/`, `checkpoints/`,
    /// `cache/`); reopening the same directory resumes all state.
    ///
    /// # Errors
    ///
    /// I/O errors opening the persistent state.
    pub fn new(config: EngineConfig, registry: HostRegistry) -> Result<CampaignEngine, EngineError> {
        let status = Arc::new(StatusBoard::default());
        let classifier = FailureClassifier::case_study();
        let mut completions = Vec::new();
        let (queue, cache, checkpoint_dir) = match &config.data_dir {
            Some(dir) => {
                // Jobs recovered from a data dir: publish each one's
                // status while its spec is loaded (its checkpoint is
                // read once, here, for the count and a completed job's
                // report) and queue the completed ones for delivery.
                let checkpoints = dir.join("checkpoints");
                let queue = JobQueue::open_with(&dir.join("queue"), |job| {
                    let path = checkpoints.join(format!("{}.jsonl", job.id));
                    let mut results = CheckpointLog::peek(&path, job.spec_hash);
                    let done = results.len();
                    let completed = job.state == JobState::Completed;
                    status.insert(JobStatus {
                        id: job.id.clone(),
                        state: job.state,
                        user: job.spec.user.clone(),
                        name: job.spec.name.clone(),
                        completed_experiments: done,
                        // A completed job recorded its whole plan; any
                        // other job's plan is known once a drive
                        // prepares it again.
                        total_experiments: completed.then_some(done),
                        error: job.error.clone(),
                        report: completed.then(|| {
                            Self::build_report(&job.spec.name, done, &mut results, &classifier)
                        }),
                    });
                    if completed {
                        completions.push(job.id.clone());
                    }
                })?;
                (queue, MutantCache::open(&dir.join("cache"))?, Some(checkpoints))
            }
            None => (JobQueue::in_memory(), MutantCache::in_memory(), None),
        };
        let metrics = EngineMetrics::new(cache.metrics().clone());
        Ok(CampaignEngine {
            queue,
            cache,
            registry,
            executor: config.executor,
            checkpoint_dir,
            mem_logs: BTreeMap::new(),
            status,
            completions,
            prepared: HashMap::new(),
            classifier,
            metrics,
            trace: None,
            waiting_since: BTreeMap::new(),
        })
    }

    /// The engine's latency histograms (register them into an
    /// [`obs::Registry`] to expose them on `/metrics`).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Attaches a span store; from here on `prepare` and experiment
    /// execution record spans keyed by job id.
    pub fn set_trace_store(&mut self, store: Arc<TraceStore>) {
        self.trace = Some(store);
    }

    /// Convenience: persistent engine rooted at `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors opening the persistent state.
    pub fn open(dir: &Path, registry: HostRegistry) -> Result<CampaignEngine, EngineError> {
        CampaignEngine::new(
            EngineConfig {
                data_dir: Some(dir.to_path_buf()),
                executor: ParallelExecutor::default(),
            },
            registry,
        )
    }

    /// Submits a campaign. The spec is validated shallowly (known
    /// host) and persisted; heavy validation happens at run time.
    ///
    /// # Errors
    ///
    /// Unknown host or queue I/O failure.
    pub fn submit(&mut self, spec: CampaignSpec) -> Result<String, EngineError> {
        if self.registry.get(&spec.host).is_none() {
            return Err(EngineError {
                message: format!("unknown host environment '{}'", spec.host),
            });
        }
        let (user, name) = (spec.user.clone(), spec.name.clone());
        let id = self.queue.submit(spec)?;
        self.waiting_since.insert(id.clone(), Instant::now());
        self.status.insert(JobStatus {
            id: id.clone(),
            state: JobState::Queued,
            user,
            name,
            completed_experiments: 0,
            total_experiments: None,
            error: None,
            report: None,
        });
        Ok(id)
    }

    /// Bookkeeping for a job just taken off the queue: observes the
    /// queue-wait histogram and publishes `Running`.
    fn note_taken(&mut self, id: &str) {
        if let Some(since) = self.waiting_since.remove(id) {
            self.metrics.queue_wait_seconds.observe_duration(since.elapsed());
        }
        self.publish(id, JobState::Running, None);
    }

    /// Publishes the state (and error) the queue just gave `id`.
    fn publish(&self, id: &str, state: JobState, error: Option<&str>) {
        self.status.update(id, |status| {
            status.state = state;
            status.error = error.map(str::to_string);
        });
    }

    /// Marks a taken job failed and publishes why.
    fn fail(&mut self, id: &str, error: &str) -> Result<(), EngineError> {
        self.prepared.remove(id);
        self.take_mem_log(id);
        self.queue.fail(id, error)?;
        self.publish(id, JobState::Failed, Some(error));
        Ok(())
    }

    /// The status of a job, or `None` for an unknown id.
    pub fn poll(&self, id: &str) -> Option<JobStatus> {
        self.status.get(id)
    }

    /// The board `poll` reads — share it with whoever must answer
    /// status requests without waiting for the engine.
    pub fn status_board(&self) -> Arc<StatusBoard> {
        self.status.clone()
    }

    /// Cancels a queued job.
    ///
    /// # Errors
    ///
    /// Queue I/O failure.
    pub fn cancel(&mut self, id: &str) -> Result<bool, EngineError> {
        let cancelled = self.queue.cancel(id)?;
        if cancelled {
            // Cancellable means queued — which a job is between slices.
            self.prepared.remove(id);
            self.take_mem_log(id);
            self.waiting_since.remove(id);
            self.publish(id, JobState::Cancelled, None);
        }
        Ok(cancelled)
    }

    /// Cache counters (scan/parse/mutant hits and misses).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.count(JobState::Queued)
    }

    /// Job counts per lifecycle state that has any (monitoring
    /// surface), from the queue's running tally.
    pub fn job_state_counts(&self) -> BTreeMap<&'static str, usize> {
        JobState::ALL
            .into_iter()
            .map(|state| (state.as_str(), self.queue.count(state)))
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// The campaigns completed since the last call — by `drive`,
    /// `checkin`, or (once) found completed when the engine opened its
    /// data dir — as `(owning user, report)`, oldest job first. The
    /// report is the board's own `Arc`, not a copy.
    pub fn take_completed(&mut self) -> Vec<(String, Arc<CampaignReport>)> {
        let mut ids = std::mem::take(&mut self.completions);
        ids.sort();
        ids.iter()
            .filter_map(|id| {
                let status = self.status.get(id)?;
                Some((status.user, status.report?))
            })
            .collect()
    }

    /// The completed campaign's report (an engine opened on a data dir
    /// rebuilt those of the jobs it found completed there).
    pub fn report(&self, id: &str) -> Option<Arc<CampaignReport>> {
        self.status.report(id)
    }

    /// Runs queued campaigns. `budget` caps the number of experiments
    /// executed this call (`None` = run everything): the lever for
    /// incremental pumping and for the kill-and-resume tests. Campaigns
    /// left unfinished by the budget return to the queue.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O failures; per-campaign setup failures mark only
    /// that job failed.
    pub fn drive(&mut self, budget: Option<usize>) -> Result<DriveSummary, EngineError> {
        let mut summary = DriveSummary::default();
        let mut prepared: Vec<ScheduledCampaign> = Vec::new();
        let mut prepared_ids: Vec<String> = Vec::new();
        let mut totals: Vec<usize> = Vec::new();
        let mut pending_total = 0usize;
        // Take campaigns until the queue is drained — or, under a
        // budget, until we already hold enough pending experiments to
        // fill it (preparing more would be wasted work this drive).
        while budget.is_none_or(|b| pending_total < b) {
            let Some(id) = self.queue.take_next()? else {
                break;
            };
            self.note_taken(&id);
            match self.prepare(&id) {
                Ok((campaign, total)) => {
                    pending_total += campaign.pending.len();
                    prepared.push(campaign);
                    prepared_ids.push(id);
                    totals.push(total);
                }
                Err(e) => self.fail(&id, &e.message)?,
            }
        }
        summary.campaigns = prepared.len();
        let jobs = scheduler::interleave(&mut prepared, budget);
        let telemetry = RunTelemetry {
            experiment_seconds: &self.metrics.experiment_seconds,
            trace: self.trace.as_deref().map(|store| (store, &prepared_ids[..])),
        };
        let run_outcome =
            scheduler::run_interleaved(&self.executor, jobs, &mut prepared, Some(&telemetry));
        if let Ok(executed) = &run_outcome {
            summary.experiments = *executed;
        }
        // Bookkeeping runs even if recording failed mid-drive: every
        // taken job must leave the Running state, or it is stranded
        // until the engine is reopened.
        for ((id, total), campaign) in prepared_ids.iter().zip(totals).zip(prepared) {
            if self.settle(id, total, campaign.checkpoint, run_outcome.is_ok())? {
                summary.completed += 1;
            }
        }
        run_outcome?;
        Ok(summary)
    }

    /// Checks the next queued campaign out of the queue for **external
    /// execution** — the distributed-fleet analogue of `drive`. The
    /// campaign is prepared exactly like a local drive would (cache
    /// reuse, coverage pruning, mutation failures recorded into the
    /// checkpoint), but instead of running the pending experiments this
    /// hands them — points plus rendered container sources — to the
    /// caller. The job stays `Running` until [`CampaignEngine::checkin`]
    /// returns it.
    ///
    /// A campaign whose preparation fails is marked failed and the next
    /// queued one is tried; `None` means the queue is drained.
    ///
    /// # Errors
    ///
    /// Queue/checkpoint I/O failures.
    pub fn checkout_next(&mut self) -> Result<Option<CheckedOutCampaign>, EngineError> {
        loop {
            let Some(id) = self.queue.take_next()? else {
                return Ok(None);
            };
            self.note_taken(&id);
            match self.prepare(&id) {
                Ok((campaign, total)) => {
                    let spec = self.queue.get(&id).expect("taken job exists").spec.clone();
                    return Ok(Some(CheckedOutCampaign {
                        id,
                        spec,
                        total,
                        modules: Arc::new(campaign.workflow.modules().to_vec()),
                        pending: campaign.pending,
                        checkpoint: campaign.checkpoint,
                    }));
                }
                Err(e) => self.fail(&id, &e.message)?,
            }
        }
    }

    /// Returns a checked-out campaign. Every result the caller recorded
    /// into the campaign's checkpoint is durable at this point; if all
    /// planned experiments are in, the job completes and its report is
    /// built through the **same code path as `drive`** (the distributed
    /// report is byte-identical to a single-node run by construction).
    /// Otherwise the job goes back to the queue and a later checkout
    /// resumes from the checkpoint.
    ///
    /// Returns whether the campaign completed.
    ///
    /// # Errors
    ///
    /// Queue I/O failures.
    pub fn checkin(&mut self, campaign: CheckedOutCampaign) -> Result<bool, EngineError> {
        self.settle(&campaign.id, campaign.total, campaign.checkpoint, true)
    }

    /// Takes a taken job's checkpoint back. With every planned
    /// experiment recorded (and `recorded_ok`) the job completes: the
    /// report is built, a completion event queued. Otherwise — budget
    /// exhausted mid-campaign, or recording failed — the job returns to
    /// the queue and the checkpoint keeps what was durably recorded.
    /// Either way the new state and count — and the report — are
    /// published in one write. Returns whether the campaign completed.
    fn settle(
        &mut self,
        id: &str,
        total: usize,
        checkpoint: CheckpointLog,
        recorded_ok: bool,
    ) -> Result<bool, EngineError> {
        let mut results = checkpoint.into_results();
        let done = results.len();
        let completed = done >= total && recorded_ok;
        let mut report = None;
        if completed {
            let name = &self.queue.get(id).expect("taken job exists").spec.name;
            report = Some(Self::build_report(name, total, &mut results, &self.classifier));
            self.queue.complete(id)?;
            self.completions.push(id.to_string());
            self.prepared.remove(id);
        } else {
            self.queue.requeue(id)?;
            self.waiting_since.insert(id.to_string(), Instant::now());
            if self.checkpoint_dir.is_none() {
                // Carry in-memory checkpoints across drives and
                // checkouts. Only here: a completed job's report is
                // what remains of it.
                self.metrics.results_resident.add(done as u64);
                self.mem_logs.insert(id.to_string(), results);
            }
        }
        self.status.update(id, |status| {
            status.state = if completed {
                JobState::Completed
            } else {
                JobState::Queued
            };
            status.error = None;
            status.completed_experiments = done;
            status.report = report;
        });
        Ok(completed)
    }

    /// Builds what a taken job needs to be scheduled this slice: the
    /// job's prepared state (built now if this is its first slice), its
    /// checkpoint, and the experiments still pending with their
    /// rendered mutants.
    ///
    /// Returns the campaign and its planned experiment count.
    fn prepare(&mut self, id: &str) -> Result<(ScheduledCampaign, usize), EngineError> {
        let prepare_started = Instant::now();
        if let Some(store) = &self.trace {
            store.begin(id);
        }
        if !self.prepared.contains_key(id) {
            let job = self.prepare_job(id)?;
            self.prepared.insert(id.to_string(), job);
        }

        // Checkpoint: resume point for this exact spec.
        let mut checkpoint = self.take_checkpoint(id)?;
        let done = checkpoint.completed_ids();

        // Render (or reuse) the mutants for the pending experiments.
        let job = &self.prepared[id];
        let mut pending: Vec<(InjectionPoint, Arc<Vec<SourceFile>>)> = Vec::new();
        for point in &job.plan.entries {
            if done.contains(&point.id) {
                continue;
            }
            let sources = match self.cache.mutant(job.key, point.id) {
                Some(sources) => sources,
                None => match job.workflow.mutant_sources(point) {
                    Ok(rendered) => {
                        let rendered = Arc::new(rendered);
                        self.cache.store_mutant(job.key, point.id, rendered.clone());
                        rendered
                    }
                    Err(e) => {
                        // Unmutatable point: record the deploy failure
                        // directly (no container needed) and move on.
                        checkpoint.record_owned(Self::mutation_failure(point, &e.message))?;
                        continue;
                    }
                },
            };
            pending.push((point.clone(), sources));
        }
        let prepare_elapsed = prepare_started.elapsed();
        self.metrics
            .prepare_seconds
            .observe_duration(prepare_elapsed);
        if let Some(store) = &self.trace {
            store.record_phase(
                id,
                "engine",
                "prepare",
                prepare_started,
                prepare_elapsed,
                false,
            );
        }
        let total = job.plan.len();
        let recorded = checkpoint.results().len();
        self.status.update(id, |status| {
            status.total_experiments = Some(total);
            status.completed_experiments = recorded;
        });
        Ok((
            ScheduledCampaign {
                workflow: job.workflow.clone(),
                pending,
                checkpoint,
            },
            total,
        ))
    }

    /// Derives a job's prepared state from its spec, reusing the
    /// cross-campaign cache for parses, the prepared program, the scan
    /// and coverage. Runs once per job for as long as the engine lives.
    fn prepare_job(&mut self, id: &str) -> Result<PreparedJob, EngineError> {
        let spec = &self.queue.get(id).expect("taken job exists").spec;
        let host = self.registry.get(&spec.host).ok_or_else(|| EngineError {
            message: format!("unknown host environment '{}'", spec.host),
        })?;
        let key = spec.cache_key();

        // Parse (or reuse) the target modules.
        let cached_modules = self.cache.modules(key);
        let parsed_here = cached_modules.is_none();
        let mut workflow = match cached_modules {
            Some(modules) => spec
                .build_workflow_with_modules(modules.as_ref().clone(), host, self.executor.clone()),
            None => spec.build_workflow(host, self.executor.clone()),
        }
        .map_err(|e| EngineError { message: e.message })?;
        if parsed_here {
            self.cache
                .store_modules(key, Arc::new(workflow.modules().to_vec()));
        }

        // Reuse (or memoize) the prepared interpreter program, so the
        // unchanged workload and fault-free modules are name-resolved
        // exactly once across campaigns sharing this cache key — on a
        // hit the workflow's own (lazy) prepare step never runs.
        let adopted = match self.cache.prepared_program(key) {
            Some(prepared) => workflow.set_prepared_program(&prepared),
            None => false,
        };
        if !adopted {
            // Miss — or a misaligned cached artifact (should not happen
            // for a content-keyed cache, but never leave it poisoned):
            // store the freshly resolved program.
            self.cache
                .store_prepared_program(key, Arc::new(workflow.prepared_program().clone()));
        }
        let workflow = workflow;

        // Scan (or reuse the scan).
        let points: Arc<Vec<InjectionPoint>> = match self.cache.points(key, workflow.modules()) {
            Some(points) => points,
            None => {
                let scanned = Arc::new(workflow.scan());
                self.cache
                    .store_points(key, scanned.clone(), workflow.modules());
                scanned
            }
        };

        // Plan, with optional coverage pruning. Coverage is cached
        // under its own key: unlike the scan, the fault-free run also
        // depends on host, seed, setup, and round budgets.
        let mut plan = InjectionPlan::build(&points, &spec.filter.to_filter(), spec.seed);
        if spec.prune_by_coverage {
            let coverage_key = spec.coverage_key();
            let covered = match self.cache.covered(coverage_key) {
                Some(covered) => covered,
                None => {
                    let run = workflow
                        .coverage_run(&points)
                        .map_err(|e| EngineError { message: e.message })?;
                    let covered = Arc::new(run);
                    self.cache.store_covered(coverage_key, covered.clone());
                    covered
                }
            };
            plan = plan.prune_by_coverage(&covered);
        }
        Ok(PreparedJob {
            workflow: Arc::new(workflow),
            plan,
            key,
        })
    }

    /// An appendable checkpoint for a campaign about to run.
    fn take_checkpoint(&mut self, id: &str) -> Result<CheckpointLog, EngineError> {
        let hash = self.queue.get(id).expect("taken job exists").spec_hash;
        match &self.checkpoint_dir {
            Some(dir) => Ok(CheckpointLog::open(
                &dir.join(format!("{id}.jsonl")),
                hash,
            )?),
            None => Ok(CheckpointLog::in_memory_with(hash, self.take_mem_log(id))),
        }
    }

    /// Removes and returns what `mem_logs` holds for `id`.
    fn take_mem_log(&mut self, id: &str) -> Vec<ExperimentResult> {
        let results = self.mem_logs.remove(id).unwrap_or_default();
        self.metrics.results_resident.sub(results.len() as u64);
        results
    }

    /// A copy of a campaign's recorded results (empty for an unknown
    /// id, and for an in-memory job while it is taken — its results are
    /// then with its checkpoint — or once it is finished).
    fn peek_results(&self, id: &str) -> Vec<ExperimentResult> {
        match (&self.checkpoint_dir, self.queue.spec_hash(id)) {
            (Some(dir), Some(hash)) => CheckpointLog::peek(&dir.join(format!("{id}.jsonl")), hash),
            _ => self.mem_logs.get(id).cloned().unwrap_or_default(),
        }
    }

    fn mutation_failure(point: &InjectionPoint, message: &str) -> ExperimentResult {
        use sandbox::{RoundOutcome, RoundStatus};
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
            deploy_error: Some(message.to_string()),
            events: Vec::new(),
        }
    }

    fn build_report(
        name: &str,
        planned: usize,
        results: &mut [ExperimentResult],
        classifier: &FailureClassifier,
    ) -> Arc<CampaignReport> {
        // Checkpoints are completion-ordered; reports are presented in
        // plan order. Sorting in place (stable) spares a copy of the
        // results; a completed campaign's log is never appended to
        // again, so its order no longer matters.
        results.sort_by_key(|r| r.point_id);
        Arc::new(CampaignReport::from_results(name, planned, None, results, classifier))
    }

    /// The results recorded so far for a job (plan order), e.g. for a
    /// partial-progress view. A persistent engine reads them from the
    /// job's checkpoint file, whatever the job's state. An in-memory
    /// engine holds raw results only for an unfinished job between its
    /// slices: for a finished job it answers nothing — the report is
    /// what remains.
    pub fn results(&self, id: &str) -> Vec<ExperimentResult> {
        let mut results = self.peek_results(id);
        results.sort_by_key(|r| r.point_id);
        results
    }
}

#[cfg(test)]
impl CampaignEngine {
    /// Jobs whose prepared state is resident.
    fn resident_jobs(&self) -> usize {
        self.prepared.len()
    }

    /// Jobs whose raw results are resident, and how many results the
    /// gauge says that is.
    fn resident_logs(&self) -> (usize, u64) {
        let held: usize = self.mem_logs.values().map(Vec::len).sum();
        assert_eq!(self.metrics.results_resident.value(), held as u64);
        (self.mem_logs.len(), held as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report_to_value;
    use crate::service::CampaignService;

    fn registry() -> HostRegistry {
        HostRegistry::with_noop().with("etcd", profipy::case_study::etcd_host_factory())
    }

    /// Campaign A over the python-etcd client, sampled to 9 experiments.
    fn spec(name: &str) -> CampaignSpec {
        let mut spec = CampaignSpec::new(
            "alice",
            name,
            "etcd",
            vec![
                ("etcd".into(), targets::CLIENT_SOURCE.into()),
                ("workload".into(), targets::WORKLOAD_BASIC.into()),
            ],
            targets::WORKLOAD_BASIC.into(),
            faultdsl::campaign_a_model(),
        );
        spec.setup = vec![vec!["etcd-start".into()]];
        spec.seed = 7;
        spec.filter.modules.push("etcd".into());
        spec.filter.sample = 9;
        spec
    }

    fn in_memory() -> CampaignService {
        CampaignService::new(EngineConfig::default(), registry()).unwrap()
    }

    fn persistent(dir: &Path) -> CampaignService {
        let config = EngineConfig {
            data_dir: Some(dir.to_path_buf()),
            ..EngineConfig::default()
        };
        CampaignService::new(config, registry()).unwrap()
    }

    /// Drives `id` to completion in slices of `budget`; returns the
    /// report's wire bytes and how many slices it took.
    fn run_sliced(
        service: &mut CampaignService,
        id: &str,
        budget: Option<usize>,
    ) -> (String, usize) {
        for slices in 1.. {
            assert!(slices <= 64, "campaign does not converge");
            if service.drive(budget).expect("drive").completed > 0 {
                let report = service.engine().report(id).expect("completed job has a report");
                assert_only_status_and_report(service, id);
                return (report_to_value(&report).pretty(), slices);
            }
        }
        unreachable!()
    }

    /// Jobs that still hold their spec (the queue indexes only those).
    fn live_jobs(queue: &JobQueue) -> usize {
        queue.count(JobState::Queued) + queue.count(JobState::Running)
    }

    /// What a finished job leaves: its status, which holds a completed
    /// job's report — the same allocation its owner's session holds —
    /// and a queue record without the spec.
    fn assert_only_status_and_report(service: &mut CampaignService, id: &str) {
        let status = service.poll(id).expect("known job");
        let queue = &service.engine().queue;
        assert!(queue.get(id).is_none(), "{id} keeps its spec");
        assert_eq!(queue.finished(id).map(|f| f.state), Some(status.state));
        let shared = status.report.as_ref().is_some_and(|board| {
            let session = service.sessions.reports(&status.user);
            session.iter().filter(|r| Arc::ptr_eq(r, board)).count() == 1
        });
        assert_eq!(shared, status.state == JobState::Completed, "{id}");
    }

    /// Parse, scan and prepared-program lookups made so far. A workflow
    /// — and with it the one `FaultModel::compile` a job needs — is
    /// built right after the parse lookup and nowhere else.
    fn lookups(engine: &CampaignEngine) -> [u64; 3] {
        let s = engine.cache_stats();
        [
            s.parse_hits + s.parse_misses,
            s.scan_hits + s.scan_misses,
            s.prepare_hits + s.prepare_misses,
        ]
    }

    #[test]
    fn a_job_is_prepared_once_however_it_is_sliced_and_reports_the_same_bytes() {
        let mut service = in_memory();
        let id = service.submit(spec("whole")).unwrap();
        let (reference, slices) = run_sliced(&mut service, &id, None);
        assert_eq!(slices, 1);
        let engine = service.engine();
        assert_eq!(lookups(engine), [1, 1, 1]);
        assert_eq!(engine.resident_logs(), (0, 0), "the report is what remains");
        assert!(engine.results(&id).is_empty());

        for budget in [1, 3, 8] {
            let mut service = in_memory();
            let id = service.submit(spec("whole")).unwrap();
            assert_eq!(service.drive(Some(budget)).unwrap().experiments, budget);
            assert_eq!(
                service.engine().resident_logs(),
                (1, budget as u64),
                "a requeued job carries its results to its next slice"
            );
            let (report, slices) = run_sliced(&mut service, &id, Some(budget));
            let slices = slices + 1;
            assert_eq!(slices, 9usize.div_ceil(budget), "budget {budget}");
            assert_eq!(report, reference, "budget {budget}");
            let engine = service.engine();
            assert_eq!(
                lookups(engine),
                [1, 1, 1],
                "budget {budget}: prepared once"
            );
            assert_eq!(
                engine.resident_jobs(),
                0,
                "completion drops the prepared state"
            );
            assert_eq!(engine.resident_logs(), (0, 0), "and the raw results");
            assert_eq!(live_jobs(&engine.queue), 0, "and every spec");
        }

        // Killed after two slices and resumed by a second engine on the
        // same data dir: each engine prepares the job once.
        let dir = std::env::temp_dir().join(format!("campaign-engine-once-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let id = {
            let mut service = persistent(&dir);
            let id = service.submit(spec("whole")).unwrap();
            for _ in 0..2 {
                assert_eq!(service.drive(Some(2)).unwrap().experiments, 2);
            }
            assert_eq!(lookups(service.engine()), [1, 1, 1]);
            assert_eq!(service.engine().resident_jobs(), 1, "kept between slices");
            id
        };
        let mut service = persistent(&dir);
        assert_eq!(service.engine().resident_jobs(), 0);
        let (report, slices) = run_sliced(&mut service, &id, Some(2));
        assert_eq!(slices, 3, "five experiments left, two a slice");
        assert_eq!(report, reference, "killed and resumed");
        assert_eq!(lookups(service.engine()), [1, 1, 1]);

        // Closed and reopened: the finished job answers with the same
        // bytes, rebuilt from its job file and checkpoint.
        let answers = |service: &mut CampaignService| {
            let engine = service.engine();
            let status = crate::status_to_value(&engine.poll(&id).unwrap()).pretty();
            let report = report_to_value(&engine.report(&id).unwrap()).pretty();
            let results: Vec<String> = engine
                .results(&id)
                .iter()
                .map(|r| crate::result_to_value(r).compact())
                .collect();
            (status, report, results)
        };
        let before = answers(&mut service);
        assert_eq!(before.2.len(), 9);
        drop(service);
        let mut service = persistent(&dir);
        assert_eq!(answers(&mut service), before, "reopened");
        assert_eq!(service.drive(None).unwrap(), DriveSummary::default());
        assert_only_status_and_report(&mut service, &id);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_and_cancelled_jobs_leave_nothing_resident() {
        let mut service = in_memory();

        // Fails while being prepared: the target does not parse.
        let mut broken = spec("broken");
        broken.sources[0].1 = "def f(:\n".into();
        let failed = service.submit(broken).unwrap();
        service.drive(None).unwrap();
        let engine = service.engine();
        assert_eq!(engine.poll(&failed).unwrap().state, JobState::Failed);
        assert_eq!(engine.resident_jobs(), 0);
        assert_eq!(engine.resident_logs(), (0, 0));
        assert_only_status_and_report(&mut service, &failed);

        // Cancelled between two slices.
        let id = service.submit(spec("cancelled")).unwrap();
        assert_eq!(service.drive(Some(2)).unwrap().experiments, 2);
        let engine = service.engine();
        assert_eq!(engine.poll(&id).unwrap().state, JobState::Queued);
        assert_eq!(engine.resident_jobs(), 1);
        assert_eq!(engine.resident_logs(), (1, 2));
        assert!(engine.cancel(&id).unwrap());
        assert_eq!(engine.resident_jobs(), 0);
        assert_eq!(engine.resident_logs(), (0, 0), "partial results go with the job");
        assert_only_status_and_report(&mut service, &id);

        // Fails on a later slice: its prepared state and its partial
        // results go with it.
        let id = service.submit(spec("failed-late")).unwrap();
        service.drive(Some(1)).unwrap();
        let engine = service.engine();
        assert_eq!(engine.resident_jobs(), 1);
        assert_eq!(engine.resident_logs(), (1, 1));
        engine.queue.take_next().unwrap();
        engine.fail(&id, "injected").unwrap();
        assert_eq!(engine.poll(&id).unwrap().state, JobState::Failed);
        assert_eq!(engine.resident_jobs(), 0);
        assert_eq!(engine.resident_logs(), (0, 0));
        assert!(engine.fail(&id, "again").is_err(), "a final state is final");
        assert_only_status_and_report(&mut service, &id);

        // Beside them, one that completes: every job is final now, and
        // the queue holds no spec.
        let id = service.submit(spec("completed")).unwrap();
        run_sliced(&mut service, &id, None);
        assert_eq!(live_jobs(&service.engine().queue), 0);
        assert_eq!(service.engine().queue.count(JobState::Failed), 2);
        assert_eq!(service.sessions.reports("alice").len(), 1);
    }

    /// `spec(name)` on a revision of the client no other spec shares.
    fn revision(name: &str, n: usize) -> CampaignSpec {
        let mut spec = spec(name);
        spec.sources[0].1.push_str(&format!("\n# revision {n}\n"));
        spec
    }

    /// An in-memory service whose engine's cache holds `budget` bytes.
    fn with_cache_budget(budget: usize) -> CampaignService {
        let mut service = in_memory();
        service.engine().cache = MutantCache::new(None, budget);
        service
    }

    #[test]
    fn an_evicted_revision_is_rebuilt_when_it_returns_and_reports_the_same_bytes() {
        // Room for one key of nine mutants (≈ 350 KB by weight), not
        // for two.
        let mut service = with_cache_budget(512 << 10);
        let id = service.submit(revision("first", 0)).unwrap();
        let (reference, _) = run_sliced(&mut service, &id, None);
        let id = service.submit(revision("later", 1)).unwrap();
        run_sliced(&mut service, &id, None);
        let engine = service.engine();
        assert_eq!(engine.cache.metrics().evictions.value(), 1, "pushed the first out");
        let before = engine.cache_stats();

        let id = service.submit(revision("first", 0)).unwrap();
        let (report, _) = run_sliced(&mut service, &id, None);
        assert_eq!(report, reference);
        let after = service.engine().cache_stats();
        assert_eq!(after.parse_misses, before.parse_misses + 1, "parsed again");
        assert_eq!(after.scan_misses, before.scan_misses + 1, "scanned again");
        assert_eq!(after.mutant_misses, before.mutant_misses + 9, "rendered again");
        assert_eq!(after.mutant_hits, before.mutant_hits);

        // While it is resident it is a cache like before.
        let id = service.submit(revision("first", 0)).unwrap();
        let (report, _) = run_sliced(&mut service, &id, None);
        assert_eq!(report, reference);
        let warm = service.engine().cache_stats();
        assert_eq!(warm.parse_misses, after.parse_misses);
        assert_eq!(warm.mutant_hits, after.mutant_hits + 9);
    }

    #[test]
    fn a_job_whose_key_is_evicted_between_its_slices_reports_the_same_bytes() {
        let mut whole = in_memory();
        let id = whole.submit(revision("sliced", 0)).unwrap();
        let (reference, _) = run_sliced(&mut whole, &id, None);

        // A budget no entry fits: every store evicts every other key,
        // so the two jobs, one experiment a slice in turn, push each
        // other out between any two of their slices.
        let mut service = with_cache_budget(1);
        let id = service.submit(revision("sliced", 0)).unwrap();
        let mut other = revision("other", 1);
        other.user = "bob".into();
        let other = service.submit(other).unwrap();
        while service.poll(&id).unwrap().state != JobState::Completed
            || service.poll(&other).unwrap().state != JobState::Completed
        {
            assert_eq!(service.drive(Some(1)).unwrap().experiments, 1);
        }
        assert_only_status_and_report(&mut service, &id);
        assert_only_status_and_report(&mut service, &other);
        let engine = service.engine();
        let report = engine.report(&id).expect("completed job has a report");
        assert_eq!(report_to_value(&report).pretty(), reference);
        assert!(engine.cache.metrics().evictions.value() >= 16);
        let stats = engine.cache_stats();
        assert!(
            stats.mutant_misses > 18,
            "pending mutants were rendered again after an eviction: {stats:?}"
        );
        assert_eq!(lookups(engine), [2, 2, 2], "each job still prepared once");
        assert_eq!(engine.resident_logs(), (0, 0));
    }
}
