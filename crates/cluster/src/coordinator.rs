//! The fleet coordinator: time-bounded leases over the campaign queue.
//!
//! ```text
//!  JobQueue ──checkout_next──▶ ActiveCampaign (pending experiments)
//!                                   │ lease(worker, n)
//!                                   ▼
//!                              in-flight (worker, deadline)
//!                      ┌────────────┼──────────────┐
//!             heartbeat│     results│         miss │ (tick past deadline)
//!        deadline +=ttl│   checkpoint.record       │ requeued exactly once
//!                      └────────────┼──────────────┘
//!                                   ▼  all planned results recorded
//!                          CampaignService::checkin ──▶ report
//! ```
//!
//! Invariants the tests pin:
//!
//! * an expired lease requeues each of its unresulted jobs **exactly
//!   once** (the lease is removed as it expires, so a later tick cannot
//!   requeue again);
//! * result upload is **idempotent** — the first write wins, duplicates
//!   are counted and dropped, so a slow worker racing its own expired
//!   lease can never double-record an experiment;
//! * completion goes through [`campaign::CampaignEngine::checkin`], the
//!   same report-building path a single-node drive uses, which is what
//!   makes the distributed report byte-identical to the local one.
//!
//! All time-dependent operations take an explicit `now` in their `_at`
//! variants; the public wrappers use `Instant::now()`. Tests drive the
//! `_at` forms with synthetic instants — no sleeps, no flakes.

use crate::walog::LeaseLog;
use crate::wire::WireSpan;
use campaign::{CampaignSpec, CheckedOutCampaign, EngineError, SharedService};
use injector::InjectionPoint;
use jsonlite::durable::Log;
use jsonlite::Value;
use obs::Level;
use profipy::ExperimentResult;
use pysrc::Module;
use sandbox::SourceFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use trace::TraceStore;

/// Coordinator options.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// How long a lease stays valid without a heartbeat; a worker that
    /// misses it gets its leased jobs requeued.
    pub lease_ttl: Duration,
    /// Heartbeat cadence advertised to workers (keep well under
    /// `lease_ttl`).
    pub heartbeat_interval: Duration,
    /// Most jobs handed out per lease request.
    pub lease_batch_max: usize,
    /// Cadence of the server's lease-expiry sweep.
    pub tick_interval: Duration,
    /// How long a registered worker may stay silent before it is
    /// pruned from the registry (and its per-worker gauge labels stop
    /// being emitted). Keep well above `lease_ttl`.
    pub worker_retention: Duration,
    /// Where the worker registry log (`fleet-workers.jsonl`) and the
    /// lease WAL (`fleet-leases.jsonl`) live (`None` = in-memory only).
    /// Registrations and leases recorded here survive a coordinator
    /// restart: a worker keeps its id across coordinator redeploys, and
    /// in-flight leases are re-armed instead of orphaned.
    pub data_dir: Option<PathBuf>,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            lease_ttl: Duration::from_secs(10),
            heartbeat_interval: Duration::from_secs(2),
            lease_batch_max: 16,
            tick_interval: Duration::from_millis(250),
            worker_retention: Duration::from_secs(600),
            data_dir: None,
        }
    }
}

/// Coordinator-level errors, mapped to HTTP statuses by the server.
#[derive(Debug)]
pub enum FleetError {
    /// The worker id is not registered (HTTP 404).
    UnknownWorker(String),
    /// The campaign engine failed (HTTP 500).
    Engine(EngineError),
    /// Checkpoint/registry I/O failed (HTTP 500).
    Io(io::Error),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownWorker(id) => write!(f, "unknown worker '{id}'"),
            FleetError::Engine(e) => write!(f, "{e}"),
            FleetError::Io(e) => write!(f, "I/O: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// One experiment handed to a worker.
pub struct LeasedJob {
    /// Owning campaign (queue job id).
    pub campaign: String,
    /// The injection point to exercise.
    pub point: InjectionPoint,
    /// Pre-rendered container sources.
    pub sources: Arc<Vec<SourceFile>>,
    /// The campaign's fault-free modules — needed to serialize the
    /// point portably for the wire.
    pub modules: Arc<Vec<Module>>,
}

/// What one lease request granted.
pub struct LeaseGrant {
    /// The experiments, oldest campaign first.
    pub jobs: Vec<LeasedJob>,
    /// Specs of campaigns the worker did not previously know.
    pub new_campaigns: Vec<(String, CampaignSpec)>,
    /// Trace id stamped on this lease; the worker echoes it back with
    /// its result upload, and lease spans carry it so the fleet-wide
    /// timeline correlates coordinator and worker phases.
    pub trace_id: String,
    /// The coordinator epoch the lease was granted under. Workers echo
    /// it with their result uploads, so a standby that took over can
    /// tell (and count) late uploads from the previous epoch — which it
    /// absorbs idempotently, never rejects.
    pub epoch: u64,
}

/// What [`Coordinator::recover`] re-armed from the lease WAL.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Leases reconstructed (one per worker that held jobs).
    pub leases: usize,
    /// Jobs moved back in flight under their original workers.
    pub jobs: usize,
}

/// What one result upload did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResultsSummary {
    /// Results recorded for the first time.
    pub accepted: u64,
    /// Results already recorded (first write won) or for campaigns
    /// already completed.
    pub duplicates: u64,
    /// Campaigns this upload completed.
    pub completed: Vec<String>,
}

/// Worker id → the `(campaign, point)` jobs its replayed lease held
/// (the shape `walog::WalState` recovers).
type ReplayedLeases = BTreeMap<String, Vec<(String, u64)>>;

struct WorkerInfo {
    parallelism: usize,
    /// Last contact (register/lease/heartbeat/results) — `None` for a
    /// worker restored from the registry log that has not phoned in
    /// since the coordinator (re)started.
    last_contact: Option<Instant>,
}

struct InFlight {
    worker: String,
    point: InjectionPoint,
    sources: Arc<Vec<SourceFile>>,
}

struct ActiveCampaign {
    checkout: CheckedOutCampaign,
    pending: VecDeque<(InjectionPoint, Arc<Vec<SourceFile>>)>,
    in_flight: BTreeMap<u64, InFlight>,
    requeues: BTreeMap<u64, u64>,
    /// Point ids recorded in the checkpoint — kept incrementally so the
    /// per-result idempotence check is a set probe, not a rebuild of
    /// the full completed set under the fleet lock.
    done: BTreeSet<u64>,
}

struct Lease {
    jobs: Vec<(String, u64)>,
    deadline: Instant,
}

#[derive(Default)]
struct Counters {
    leases_granted: u64,
    leases_expired: u64,
    jobs_leased: u64,
    jobs_requeued: u64,
    results_accepted: u64,
    results_duplicate: u64,
    results_old_epoch: u64,
    campaigns_completed: u64,
    leases_recovered: u64,
    jobs_recovered: u64,
    workers_pruned: u64,
}

struct FleetState {
    workers: BTreeMap<String, WorkerInfo>,
    next_worker_seq: u64,
    active: BTreeMap<String, ActiveCampaign>,
    leases: BTreeMap<String, Lease>,
    counters: Counters,
    /// The durable lease WAL: every grant/extend/expire/supersede/
    /// result appends here under the fleet lock, so the on-disk state
    /// never races the in-memory one.
    wal: LeaseLog,
}

/// The coordinator. Thread-safe behind its own mutex; lock order is
/// always fleet state **then** the shared service (the `/metrics`
/// handler drops the service lock before reading fleet gauges, so the
/// orders never cross).
pub struct Coordinator {
    service: SharedService,
    config: FleetConfig,
    state: Mutex<FleetState>,
    /// The worker registry log (`fleet-workers.jsonl`), behind its own
    /// lock: registrations and tombstones are appended outside the
    /// fleet lock.
    registry: Option<Mutex<Log>>,
    /// This coordinator's monotonic epoch: the WAL's recorded epoch
    /// plus one, so every restart or standby takeover is a new epoch.
    epoch: u64,
    /// Leases replayed from the WAL, waiting for [`Coordinator::recover`]
    /// to re-arm them (taken exactly once).
    recovered: Mutex<Option<ReplayedLeases>>,
    /// When this coordinator instance booted — the liveness baseline
    /// for workers restored from the registry that never phoned in.
    boot: Instant,
    /// Set during shutdown: leases stop checking campaigns out, so a
    /// request racing the drain cannot strand a job in `Running`.
    draining: std::sync::atomic::AtomicBool,
    /// `fleet_lease_seconds` — lease handling time, queue checkout
    /// included.
    lease_seconds: obs::Histogram,
    /// `fleet_checkin_seconds` — result-upload handling time,
    /// checkpoint writes and campaign completion included.
    checkin_seconds: obs::Histogram,
    /// `fleet_recovery_seconds` — time [`Coordinator::recover`] spent
    /// re-arming WAL leases (campaign re-checkout included).
    recovery_seconds: obs::Histogram,
    /// `fleet_takeovers_total` — recoveries that found in-flight leases
    /// to re-arm (standby takeovers and crash restarts alike).
    takeovers: obs::Counter,
    /// The service's per-campaign trace store: lease/requeue/upload
    /// spans land here next to the engine's prepare spans.
    trace: Arc<TraceStore>,
}

/// A registry line that (re)registers a worker.
fn registration(id: &str, parallelism: usize) -> Value {
    Value::obj(vec![
        ("id", Value::str(id)),
        ("parallelism", parallelism.into()),
    ])
}

/// A registry line that prunes a worker.
fn tombstone(id: &str) -> Value {
    Value::obj(vec![("id", Value::str(id)), ("pruned", Value::Bool(true))])
}

/// Replays the registry log at `path` into `workers` and the highest
/// worker sequence number it names, then compacts it if it holds more
/// than the live set: the file is rewritten as exactly the live workers
/// (dead ones pruned, duplicates folded, any torn tail gone) plus, when
/// the newest id was pruned, one watermark tombstone carrying the id
/// sequence, so a later reload can never reissue a pruned worker's id.
fn load_registry(
    path: &Path,
    workers: &mut BTreeMap<String, WorkerInfo>,
    next_worker_seq: &mut u64,
) -> io::Result<Log> {
    let mut lines = 0usize;
    let loaded = Log::load(path, |v| {
        let Ok(id) = v.req_str("id") else {
            return false;
        };
        // A tombstone prunes the worker; a plain entry (re)registers it.
        if matches!(v.get("pruned"), Some(Value::Bool(true))) {
            workers.remove(id);
        } else if let Ok(parallelism) = v.req_u64("parallelism") {
            let info = WorkerInfo {
                parallelism: parallelism as usize,
                last_contact: None,
            };
            workers.insert(id.to_string(), info);
        } else {
            return false;
        }
        let seq = id
            .strip_prefix("worker-")
            .and_then(|s| s.parse::<u64>().ok());
        *next_worker_seq = (*next_worker_seq).max(seq.unwrap_or(0));
        lines += 1;
        true
    });
    let mut log = Log::at(path);
    match loaded {
        Ok(torn) => {
            if torn || lines != workers.len() {
                let live = workers
                    .iter()
                    .map(|(id, info)| registration(id, info.parallelism));
                // A live newest worker carries the sequence itself, and
                // a tombstone in its name would prune it on the next
                // load.
                let newest = format!("worker-{:06}", *next_worker_seq);
                let watermark = (!workers.contains_key(&newest)).then(|| tombstone(&newest));
                log.rewrite(live.chain(watermark))?;
            }
        }
        // An unreadable registry starts the fleet empty: workers that
        // are still alive re-register on their first 404.
        Err(e) => {
            obs::log!(Level::Error, "registry_unreadable", "err" => format!("{e}").as_str());
            workers.clear();
            *next_worker_seq = 0;
        }
    }
    Ok(log)
}

impl Coordinator {
    /// Creates a coordinator over a shared service, reloading the
    /// worker registry and the lease WAL from `config.data_dir` if set.
    /// The WAL's epoch is bumped (this instance is a new epoch); leases
    /// it recorded are held back until [`Coordinator::recover`] re-arms
    /// them.
    ///
    /// # Errors
    ///
    /// I/O errors reading or creating the registry log or lease WAL.
    pub fn new(service: SharedService, config: FleetConfig) -> io::Result<Coordinator> {
        let mut workers = BTreeMap::new();
        let mut next_worker_seq = 0u64;
        let registry = match &config.data_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join("fleet-workers.jsonl");
                Some(Mutex::new(load_registry(
                    &path,
                    &mut workers,
                    &mut next_worker_seq,
                )?))
            }
            None => None,
        };
        // The lease WAL: replay what the previous epoch left in flight,
        // then claim the next epoch.
        let mut wal = match &config.data_dir {
            Some(dir) => LeaseLog::open(&dir.join("fleet-leases.jsonl"))?,
            None => LeaseLog::in_memory(),
        };
        let epoch = wal.state().epoch + 1;
        let recovered = if wal.state().leases.is_empty() {
            None
        } else {
            Some(wal.state().leases.clone())
        };
        wal.record_epoch(epoch)?;
        let metrics = service.metrics_registry();
        let lease_seconds = metrics.histogram(
            "fleet_lease_seconds",
            "Coordinator lease handling time in seconds (queue checkout included).",
            obs::LATENCY_BUCKETS,
        );
        let checkin_seconds = metrics.histogram(
            "fleet_checkin_seconds",
            "Result-upload handling time in seconds (checkpoint writes included).",
            obs::LATENCY_BUCKETS,
        );
        let recovery_seconds = metrics.histogram(
            "fleet_recovery_seconds",
            "Time spent re-arming WAL leases after a restart or takeover, in seconds.",
            obs::LATENCY_BUCKETS,
        );
        let takeovers = metrics.counter(
            "fleet_takeovers_total",
            "Coordinator recoveries (restart or standby takeover) that re-armed in-flight leases.",
        );
        let trace = service.trace_store();
        Ok(Coordinator {
            service,
            config,
            state: Mutex::new(FleetState {
                workers,
                next_worker_seq,
                active: BTreeMap::new(),
                leases: BTreeMap::new(),
                counters: Counters::default(),
                wal,
            }),
            registry,
            epoch,
            recovered: Mutex::new(recovered),
            boot: Instant::now(),
            draining: std::sync::atomic::AtomicBool::new(false),
            lease_seconds,
            checkin_seconds,
            recovery_seconds,
            takeovers,
            trace,
        })
    }

    /// This coordinator's epoch: the previous instance's epoch plus
    /// one, stamped on every lease it grants.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The configuration (the server advertises the timing knobs to
    /// registering workers).
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    fn lock(&self) -> MutexGuard<'_, FleetState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Appends one line to the registry log, if there is one.
    fn append_to_registry(&self, line: &Value) -> io::Result<()> {
        match &self.registry {
            Some(log) => log.lock().unwrap_or_else(|p| p.into_inner()).append(line),
            None => Ok(()),
        }
    }

    /// Registers a worker; returns its assigned id. Durable when the
    /// coordinator has a data dir: the id survives a coordinator
    /// restart.
    ///
    /// # Errors
    ///
    /// Registry-log I/O failures.
    pub fn register(&self, parallelism: usize) -> io::Result<String> {
        let mut state = self.lock();
        state.next_worker_seq += 1;
        let id = format!("worker-{:06}", state.next_worker_seq);
        state.workers.insert(
            id.clone(),
            WorkerInfo {
                parallelism: parallelism.max(1),
                last_contact: Some(Instant::now()),
            },
        );
        drop(state);
        self.append_to_registry(&registration(&id, parallelism.max(1)))?;
        Ok(id)
    }

    /// Extends a worker's lease (if any) and refreshes its liveness.
    /// Returns whether a lease was extended.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownWorker`] for an unregistered id.
    pub fn heartbeat(&self, worker: &str) -> Result<bool, FleetError> {
        self.heartbeat_at(worker, Instant::now())
    }

    /// [`Coordinator::heartbeat`] at an explicit instant.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownWorker`] for an unregistered id.
    pub fn heartbeat_at(&self, worker: &str, now: Instant) -> Result<bool, FleetError> {
        let mut state = self.lock();
        let info = state
            .workers
            .get_mut(worker)
            .ok_or_else(|| FleetError::UnknownWorker(worker.to_string()))?;
        info.last_contact = Some(now);
        let state = &mut *state;
        match state.leases.get_mut(worker) {
            Some(lease) => {
                lease.deadline = now + self.config.lease_ttl;
                state.wal.record_extend(worker).map_err(FleetError::Io)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Grants up to `max_jobs` experiments to a worker, checking more
    /// campaigns out of the queue as needed, and (re)starts the
    /// worker's lease clock. `known` is the set of campaign ids the
    /// worker already holds specs for — only unknown specs are
    /// returned.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownWorker`] for an unregistered id; engine
    /// failures checking campaigns out.
    pub fn lease(
        &self,
        worker: &str,
        max_jobs: usize,
        known: &BTreeSet<String>,
    ) -> Result<LeaseGrant, FleetError> {
        self.lease_at(worker, max_jobs, known, Instant::now())
    }

    /// [`Coordinator::lease`] at an explicit instant.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownWorker`] for an unregistered id; engine
    /// failures checking campaigns out.
    pub fn lease_at(
        &self,
        worker: &str,
        max_jobs: usize,
        known: &BTreeSet<String>,
        now: Instant,
    ) -> Result<LeaseGrant, FleetError> {
        // Wall-clock (not the caller's synthetic `now`): the histogram
        // measures real handling latency even under `_at` tests.
        let wall = Instant::now();
        {
            let mut state = self.lock();
            let info = state
                .workers
                .get_mut(worker)
                .ok_or_else(|| FleetError::UnknownWorker(worker.to_string()))?;
            info.last_contact = Some(now);
            // A new lease supersedes the worker's previous one: our
            // (sequential pull-loop) workers only re-lease after their
            // last batch is fully uploaded, so any job still listed was
            // *dropped* — upload retries exhausted, or the job skipped
            // because the campaign could not be rebuilt locally.
            // Requeue those now; waiting for expiry would never fire,
            // since the live worker's contacts keep extending the
            // deadline.
            if let Some(prev) = state.leases.remove(worker) {
                let requeued = Self::requeue_lease_jobs(&mut state, &prev, worker);
                state
                    .wal
                    .record_supersede(worker)
                    .map_err(FleetError::Io)?;
                drop(state);
                self.note_requeue(worker, "lease_superseded", &requeued);
            }
        }
        let want = max_jobs.clamp(1, self.config.lease_batch_max);
        let mut jobs: Vec<LeasedJob> = Vec::new();
        let fill = loop {
            // Fill from campaigns already checked out, oldest job id
            // first (BTreeMap order — queue ids are sequential). Jobs
            // are popped off `pending` here and only become in-flight
            // when the lease is finalized below.
            {
                let mut state = self.lock();
                for (id, c) in state.active.iter_mut() {
                    while jobs.len() < want {
                        let Some((point, sources)) = c.pending.pop_front() else {
                            break;
                        };
                        jobs.push(LeasedJob {
                            campaign: id.clone(),
                            point,
                            sources,
                            modules: c.checkout.modules.clone(),
                        });
                    }
                    if jobs.len() >= want {
                        break;
                    }
                }
            }
            if jobs.len() >= want {
                break Ok(());
            }
            // Not enough pending work: check the next queued campaign
            // out of the engine (fairness order) — unless a shutdown
            // drain is in progress, in which case new checkouts would
            // be stranded.
            if self.draining.load(std::sync::atomic::Ordering::SeqCst) {
                break Ok(());
            }
            match self.activate_next_campaign() {
                Ok(true) => {}
                Ok(false) => break Ok(()), // queue drained
                Err(e) => break Err(e),
            }
        };
        let mut state = self.lock();
        if let Err(e) = fill {
            // Return the gathered-but-never-leased jobs to their pools
            // so an engine failure cannot strand them.
            for job in jobs {
                if let Some(c) = state.active.get_mut(&job.campaign) {
                    c.pending.push_front((job.point, job.sources));
                }
            }
            return Err(e);
        }
        // Finalize: mark the jobs in-flight and record the lease (the
        // worker's clock restarts on any grant, including an empty one
        // — the contact proves it is alive).
        let st = &mut *state;
        for job in &jobs {
            if let Some(c) = st.active.get_mut(&job.campaign) {
                c.in_flight.insert(
                    job.point.id,
                    InFlight {
                        worker: worker.to_string(),
                        point: job.point.clone(),
                        sources: job.sources.clone(),
                    },
                );
            }
        }
        let deadline = now + self.config.lease_ttl;
        let lease = st.leases.entry(worker.to_string()).or_insert(Lease {
            jobs: Vec::new(),
            deadline,
        });
        lease.deadline = deadline;
        for job in &jobs {
            lease.jobs.push((job.campaign.clone(), job.point.id));
        }
        let granted = lease.jobs.clone();
        st.wal
            .record_grant(worker, &granted)
            .map_err(FleetError::Io)?;
        st.counters.leases_granted += 1;
        st.counters.jobs_leased += jobs.len() as u64;
        let trace_id = format!("t-{:06}", st.counters.leases_granted);
        // Ship specs the worker lacks.
        let mut new_campaigns: Vec<(String, CampaignSpec)> = Vec::new();
        for job in &jobs {
            if known.contains(&job.campaign)
                || new_campaigns.iter().any(|(id, _)| id == &job.campaign)
            {
                continue;
            }
            let spec = st.active[&job.campaign].checkout.spec.clone();
            new_campaigns.push((job.campaign.clone(), spec));
        }
        drop(state);
        // One lease span per campaign that got jobs (empty leases are
        // routine polling, not timeline events).
        let mut per_campaign: BTreeMap<&str, usize> = BTreeMap::new();
        for job in &jobs {
            *per_campaign.entry(job.campaign.as_str()).or_insert(0) += 1;
        }
        let elapsed = wall.elapsed();
        for (campaign, n) in &per_campaign {
            self.trace.record_phase(
                campaign,
                "coordinator",
                &format!("lease {trace_id} → {worker} ({n} jobs)"),
                wall,
                elapsed,
                false,
            );
        }
        self.lease_seconds.observe_duration(elapsed);
        Ok(LeaseGrant {
            jobs,
            new_campaigns,
            trace_id,
            epoch: self.epoch,
        })
    }

    /// Checks the next queued campaign out of the engine and activates
    /// it for distribution. Campaigns with nothing left to distribute
    /// (empty plan, or every point pre-recorded) are checked straight
    /// back in and skipped. Returns `false` when the queue is drained.
    /// Preparation can be expensive (parse, scan, mutant rendering), so
    /// it runs WITHOUT the fleet lock: heartbeats, uploads, and expiry
    /// ticks proceed meanwhile.
    ///
    /// # Errors
    ///
    /// Engine failures checking campaigns out or in.
    fn activate_next_campaign(&self) -> Result<bool, FleetError> {
        loop {
            let checked = {
                let mut service = self.service.lock();
                match service.checkout_next() {
                    Ok(Some(checkout)) if checkout.pending.is_empty() => {
                        service.checkin(checkout).map_err(FleetError::Engine)?;
                        continue;
                    }
                    Ok(other) => other,
                    Err(e) => return Err(FleetError::Engine(e)),
                }
            };
            let Some(mut checkout) = checked else {
                return Ok(false); // queue drained
            };
            let id = checkout.id.clone();
            let pending: VecDeque<_> =
                std::mem::take(&mut checkout.pending).into_iter().collect();
            let done = checkout.checkpoint.completed_ids();
            self.lock().active.insert(
                id,
                ActiveCampaign {
                    checkout,
                    pending,
                    in_flight: BTreeMap::new(),
                    requeues: BTreeMap::new(),
                    done,
                },
            );
            return Ok(true);
        }
    }

    /// Re-arms the leases the previous coordinator epoch left in the
    /// WAL: the named campaigns are checked back out of the queue, each
    /// replayed job moves in flight under its original worker (absent
    /// workers are re-registered from the replicated registry state),
    /// and every re-armed lease gets one fresh TTL from `now`. A worker
    /// that survived the takeover uploads within that window and its
    /// results are absorbed; a dead worker's lease expires exactly
    /// once, requeueing exactly its unresulted jobs.
    ///
    /// Takes the replayed state exactly once — later calls are no-ops.
    /// Call **before** serving requests, so no lease can race the
    /// re-arm.
    ///
    /// # Errors
    ///
    /// Engine failures re-checking campaigns out; WAL I/O.
    pub fn recover(&self) -> Result<RecoverySummary, FleetError> {
        self.recover_at(Instant::now())
    }

    /// [`Coordinator::recover`] at an explicit instant.
    ///
    /// # Errors
    ///
    /// Engine failures re-checking campaigns out; WAL I/O.
    pub fn recover_at(&self, now: Instant) -> Result<RecoverySummary, FleetError> {
        let wall = Instant::now();
        let Some(replayed) = self.recovered.lock().unwrap_or_else(|p| p.into_inner()).take()
        else {
            return Ok(RecoverySummary::default());
        };
        let wanted: BTreeSet<String> = replayed
            .values()
            .flat_map(|jobs| jobs.iter().map(|(c, _)| c.clone()))
            .collect();
        // Check campaigns out until every wanted one is active or the
        // queue is drained (a wanted campaign may already be complete —
        // its replayed jobs are then dropped as done below).
        loop {
            let active: BTreeSet<String> = self.lock().active.keys().cloned().collect();
            if wanted.is_subset(&active) || !self.activate_next_campaign()? {
                break;
            }
        }
        let mut summary = RecoverySummary::default();
        let mut state = self.lock();
        let st = &mut *state;
        for (worker, jobs) in replayed {
            // The worker registry is replicated alongside the WAL, so
            // the holder is normally known; re-create it defensively if
            // the logs diverged (it must exist for expiry accounting).
            st.workers.entry(worker.clone()).or_insert(WorkerInfo {
                parallelism: 1,
                last_contact: None,
            });
            let mut kept: Vec<(String, u64)> = Vec::new();
            for (campaign_id, point_id) in jobs {
                let Some(c) = st.active.get_mut(&campaign_id) else {
                    continue; // campaign already completed
                };
                if c.done.contains(&point_id) {
                    continue; // resulted before the crash
                }
                let Some(pos) = c.pending.iter().position(|(p, _)| p.id == point_id) else {
                    continue; // not in the replan (spec changed) or already in flight
                };
                let (point, sources) = c.pending.remove(pos).expect("position found above");
                c.in_flight.insert(
                    point_id,
                    InFlight {
                        worker: worker.clone(),
                        point,
                        sources,
                    },
                );
                kept.push((campaign_id, point_id));
            }
            if kept.is_empty() {
                st.wal.record_expire(&worker).map_err(FleetError::Io)?;
                continue;
            }
            summary.leases += 1;
            summary.jobs += kept.len();
            st.wal.record_grant(&worker, &kept).map_err(FleetError::Io)?;
            st.leases.insert(
                worker,
                Lease {
                    jobs: kept,
                    deadline: now + self.config.lease_ttl,
                },
            );
        }
        st.counters.leases_recovered += summary.leases as u64;
        st.counters.jobs_recovered += summary.jobs as u64;
        drop(state);
        if summary.leases > 0 {
            self.takeovers.inc();
        }
        self.recovery_seconds.observe_duration(wall.elapsed());
        obs::log!(
            Level::Info,
            "fleet_recovered",
            "epoch" => self.epoch,
            "leases" => summary.leases as u64,
            "jobs" => summary.jobs as u64,
        );
        Ok(summary)
    }

    /// Requeues a lease's still-unresulted jobs (shared by expiry and
    /// lease supersession). Jobs whose in-flight entry no longer names
    /// `worker` — resulted, or requeued and re-leased elsewhere — are
    /// left alone. Returns how many jobs went back per campaign, so
    /// callers can log and trace the event with its cause attached.
    fn requeue_lease_jobs(
        state: &mut FleetState,
        lease: &Lease,
        worker: &str,
    ) -> BTreeMap<String, usize> {
        let mut requeued: BTreeMap<String, usize> = BTreeMap::new();
        for (campaign_id, point_id) in &lease.jobs {
            let Some(c) = state.active.get_mut(campaign_id) else {
                continue; // campaign completed meanwhile
            };
            let owned = c
                .in_flight
                .get(point_id)
                .is_some_and(|f| f.worker == worker);
            if !owned {
                continue;
            }
            let flight = c.in_flight.remove(point_id).expect("checked above");
            c.pending.push_back((flight.point, flight.sources));
            *c.requeues.entry(*point_id).or_insert(0) += 1;
            state.counters.jobs_requeued += 1;
            *requeued.entry(campaign_id.clone()).or_insert(0) += 1;
        }
        requeued
    }

    /// Logs and traces one requeue event (lease expiry or supersession).
    fn note_requeue(&self, worker: &str, cause: &str, requeued: &BTreeMap<String, usize>) {
        for (campaign, n) in requeued {
            obs::log!(
                Level::Warn,
                cause,
                "worker" => worker,
                "campaign" => campaign.as_str(),
                "requeued" => *n as u64,
            );
            self.trace.record_phase(
                campaign,
                "coordinator",
                &format!("{cause} {worker} ({n} jobs)"),
                Instant::now(),
                Duration::ZERO,
                true,
            );
        }
    }

    /// Records uploaded results. Idempotent: a point already in the
    /// campaign's checkpoint (or a campaign already completed) counts
    /// as a duplicate and is dropped — the **first write wins**,
    /// deterministically, so a worker racing its own expired lease
    /// cannot double-record. Campaigns whose last result lands here are
    /// completed through the engine's single-node code path.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownWorker`] for an unregistered id; checkpoint
    /// I/O or engine failures.
    pub fn report_results(
        &self,
        worker: &str,
        results: Vec<(String, ExperimentResult)>,
    ) -> Result<ResultsSummary, FleetError> {
        self.report_results_at(worker, results, Instant::now())
    }

    /// [`Coordinator::report_results`] at an explicit instant.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownWorker`] for an unregistered id; checkpoint
    /// I/O or engine failures.
    pub fn report_results_at(
        &self,
        worker: &str,
        results: Vec<(String, ExperimentResult)>,
        now: Instant,
    ) -> Result<ResultsSummary, FleetError> {
        self.report_results_stamped_at(worker, None, results, now)
    }

    /// [`Coordinator::report_results_at`] with the lease epoch the
    /// worker echoed (when it sent one). Uploads stamped with an older
    /// epoch — a batch leased by the coordinator this one replaced —
    /// are **absorbed**, never rejected: idempotence already makes the
    /// outcome correct, the stamp just lets the takeover be observed
    /// (`fleet_results_old_epoch_total`).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownWorker`] for an unregistered id; checkpoint
    /// I/O or engine failures.
    pub fn report_results_stamped_at(
        &self,
        worker: &str,
        epoch: Option<u64>,
        results: Vec<(String, ExperimentResult)>,
        now: Instant,
    ) -> Result<ResultsSummary, FleetError> {
        let wall = Instant::now();
        let mut state = self.lock();
        let info = state
            .workers
            .get_mut(worker)
            .ok_or_else(|| FleetError::UnknownWorker(worker.to_string()))?;
        info.last_contact = Some(now);
        if let Some(e) = epoch {
            if e < self.epoch {
                state.counters.results_old_epoch += results.len() as u64;
                obs::log!(
                    Level::Info,
                    "results_old_epoch",
                    "worker" => worker,
                    "upload_epoch" => e,
                    "epoch" => self.epoch,
                    "results" => results.len() as u64,
                );
            }
        }
        let mut summary = ResultsSummary::default();
        let mut touched: BTreeSet<String> = BTreeSet::new();
        let mut retired: Vec<(String, u64)> = Vec::new();
        let mut uploaded: BTreeMap<String, usize> = BTreeMap::new();
        for (campaign_id, result) in results {
            *uploaded.entry(campaign_id.clone()).or_insert(0) += 1;
            let Some(c) = state.active.get_mut(&campaign_id) else {
                // Campaign finished (or was never distributed): a late
                // duplicate from a slow worker.
                summary.duplicates += 1;
                continue;
            };
            let point_id = result.point_id;
            if c.done.contains(&point_id) {
                summary.duplicates += 1;
            } else {
                c.checkout
                    .checkpoint
                    .record_owned(result)
                    .map_err(FleetError::Io)?;
                c.done.insert(point_id);
                summary.accepted += 1;
            }
            // Retire the job wherever it currently lives: in flight
            // (normal case) or back in pending (its original lease
            // expired but the slow upload still arrived first).
            c.in_flight.remove(&point_id);
            c.pending.retain(|(p, _)| p.id != point_id);
            retired.push((campaign_id.clone(), point_id));
            touched.insert(campaign_id);
        }
        // Drop retired jobs from every lease so a later expiry cannot
        // requeue work that is already recorded — and mirror that into
        // the WAL, so a takeover never re-arms a recorded job.
        {
            let st = &mut *state;
            for lease in st.leases.values_mut() {
                lease.jobs.retain(|entry| !retired.contains(entry));
            }
            for (campaign_id, point_id) in &retired {
                st.wal
                    .record_result(campaign_id, *point_id)
                    .map_err(FleetError::Io)?;
            }
        }
        // Complete campaigns whose plan is now fully recorded.
        for id in touched {
            let done = {
                let c = &state.active[&id];
                c.done.len() >= c.checkout.total
            };
            if !done {
                continue;
            }
            let c = state.active.remove(&id).expect("touched campaign is active");
            let completed = self
                .service
                .lock()
                .checkin(c.checkout)
                .map_err(FleetError::Engine)?;
            if completed {
                state.counters.campaigns_completed += 1;
                obs::log!(
                    Level::Info,
                    "campaign_completed",
                    "campaign" => id.as_str(),
                    "worker" => worker,
                );
                self.trace.record_phase(
                    &id,
                    "coordinator",
                    "complete",
                    wall,
                    wall.elapsed(),
                    false,
                );
                summary.completed.push(id);
            }
        }
        state.counters.results_accepted += summary.accepted;
        state.counters.results_duplicate += summary.duplicates;
        drop(state);
        let elapsed = wall.elapsed();
        for (campaign, n) in &uploaded {
            self.trace.record_phase(
                campaign,
                "coordinator",
                &format!("upload ← {worker} ({n} results)"),
                wall,
                elapsed,
                false,
            );
        }
        self.checkin_seconds.observe_duration(elapsed);
        Ok(summary)
    }

    /// Expires leases past their deadline, requeueing each unresulted
    /// job **exactly once** (the lease is removed as it expires, so the
    /// next tick cannot requeue the same jobs again). Returns the
    /// number of jobs requeued.
    pub fn tick(&self) -> usize {
        self.tick_at(Instant::now())
    }

    /// [`Coordinator::tick`] at an explicit instant.
    pub fn tick_at(&self, now: Instant) -> usize {
        let mut state = self.lock();
        let expired: Vec<String> = state
            .leases
            .iter()
            .filter(|(_, lease)| lease.deadline < now)
            .map(|(worker, _)| worker.clone())
            .collect();
        let mut requeued = 0usize;
        let mut noted: Vec<(String, BTreeMap<String, usize>)> = Vec::new();
        for worker in expired {
            let lease = state.leases.remove(&worker).expect("expired lease exists");
            state.counters.leases_expired += 1;
            // Best-effort: the in-memory requeue is the truth, a WAL
            // append failure must not abort the sweep.
            if let Err(e) = state.wal.record_expire(&worker) {
                obs::log!(Level::Error, "wal_append_failed", "err" => format!("{e}").as_str());
            }
            let per_campaign = Self::requeue_lease_jobs(&mut state, &lease, &worker);
            requeued += per_campaign.values().sum::<usize>();
            noted.push((worker, per_campaign));
        }
        // Prune workers silent past the retention window (and without a
        // live lease — expiry above handles those first). Removing the
        // registry entry stops its per-worker gauge labels from being
        // emitted forever.
        let stale: Vec<String> = state
            .workers
            .iter()
            .filter(|(id, info)| {
                !state.leases.contains_key(*id)
                    && now.saturating_duration_since(info.last_contact.unwrap_or(self.boot))
                        > self.config.worker_retention
            })
            .map(|(id, _)| id.clone())
            .collect();
        for id in &stale {
            state.workers.remove(id);
            state.counters.workers_pruned += 1;
        }
        drop(state);
        for id in &stale {
            obs::log!(Level::Warn, "worker_pruned", "worker" => id.as_str());
            // Tombstone the registry so a restart does not resurrect
            // the pruned worker. Best-effort, outside the fleet lock.
            if let Err(e) = self.append_to_registry(&tombstone(id)) {
                obs::log!(Level::Error, "registry_append_failed", "err" => format!("{e}").as_str());
            }
        }
        for (worker, per_campaign) in noted {
            self.note_requeue(&worker, "lease_expired", &per_campaign);
        }
        requeued
    }

    /// Returns every checked-out campaign to the engine (completing the
    /// finished ones, requeueing the rest) and drops all leases. Called
    /// on graceful shutdown so no job is stranded `Running`.
    ///
    /// # Errors
    ///
    /// Engine failures returning campaigns.
    pub fn drain(&self) -> Result<(), FleetError> {
        self.draining.store(true, std::sync::atomic::Ordering::SeqCst);
        let mut state = self.lock();
        let ids: Vec<String> = state.active.keys().cloned().collect();
        let leases = state.leases.len();
        obs::log!(
            Level::Info,
            "coordinator_drain",
            "campaigns" => ids.len() as u64,
            "leases" => leases as u64,
        );
        for id in ids {
            let c = state.active.remove(&id).expect("listed id is active");
            self.service
                .lock()
                .checkin(c.checkout)
                .map_err(FleetError::Engine)?;
        }
        // Graceful shutdown leaves a clean WAL: nothing to re-arm.
        let holders: Vec<String> = state.leases.keys().cloned().collect();
        for worker in holders {
            if let Err(e) = state.wal.record_expire(&worker) {
                obs::log!(Level::Error, "wal_append_failed", "err" => format!("{e}").as_str());
            }
        }
        state.leases.clear();
        Ok(())
    }

    /// Per-point requeue counters of an active campaign (test/metrics
    /// surface; empty once the campaign completed).
    pub fn requeue_counts(&self, campaign: &str) -> BTreeMap<u64, u64> {
        self.lock()
            .active
            .get(campaign)
            .map(|c| c.requeues.clone())
            .unwrap_or_default()
    }

    /// Total jobs requeued by lease expiry so far.
    pub fn jobs_requeued_total(&self) -> u64 {
        self.lock().counters.jobs_requeued
    }

    /// Appends the fleet gauges (`fleet_*`) to a metrics collection.
    pub fn append_metrics(&self, out: &mut Vec<(String, u64)>) {
        self.append_metrics_at(out, Instant::now());
    }

    /// [`Coordinator::append_metrics`] at an explicit instant.
    pub fn append_metrics_at(&self, out: &mut Vec<(String, u64)>, now: Instant) {
        let state = self.lock();
        let live = state
            .workers
            .values()
            .filter(|w| {
                w.last_contact
                    .is_some_and(|t| now.saturating_duration_since(t) <= self.config.lease_ttl)
            })
            .count();
        let pending: usize = state.active.values().map(|c| c.pending.len()).sum();
        let in_flight: usize = state.active.values().map(|c| c.in_flight.len()).sum();
        let c = &state.counters;
        out.push(("fleet_workers_registered".into(), state.workers.len() as u64));
        out.push(("fleet_workers_live".into(), live as u64));
        out.push(("fleet_campaigns_active".into(), state.active.len() as u64));
        out.push(("fleet_jobs_pending".into(), pending as u64));
        out.push(("fleet_jobs_leased".into(), in_flight as u64));
        out.push(("fleet_leases_granted_total".into(), c.leases_granted));
        out.push(("fleet_leases_expired_total".into(), c.leases_expired));
        out.push(("fleet_jobs_leased_total".into(), c.jobs_leased));
        out.push(("fleet_jobs_requeued_total".into(), c.jobs_requeued));
        out.push(("fleet_results_accepted_total".into(), c.results_accepted));
        out.push(("fleet_results_duplicate_total".into(), c.results_duplicate));
        out.push(("fleet_results_old_epoch_total".into(), c.results_old_epoch));
        out.push(("fleet_campaigns_completed_total".into(), c.campaigns_completed));
        out.push(("fleet_epoch".into(), self.epoch));
        out.push(("fleet_leases_recovered_total".into(), c.leases_recovered));
        out.push(("fleet_jobs_recovered_total".into(), c.jobs_recovered));
        out.push(("fleet_workers_pruned_total".into(), c.workers_pruned));
        for (id, info) in &state.workers {
            if let Some(t) = info.last_contact {
                out.push((
                    format!("fleet_worker_heartbeat_age_ms{{worker=\"{id}\"}}"),
                    now.saturating_duration_since(t).as_millis() as u64,
                ));
            }
            out.push((
                format!("fleet_worker_parallelism{{worker=\"{id}\"}}"),
                info.parallelism as u64,
            ));
        }
    }

    /// Merges worker-shipped phase spans into the campaign timelines.
    ///
    /// Each span self-anchors: its `age` says how long before the
    /// upload send it started, so its coordinator-clock start is the
    /// campaign's current trace offset minus that age (clamped at the
    /// campaign epoch — no cross-host clock agreement needed). Spans
    /// for unknown campaigns are dropped: telemetry must never grow
    /// state for ids the queue never issued.
    pub fn record_wire_spans(&self, worker: &str, spans: &[WireSpan]) {
        for span in spans {
            let Some(offset) = self.trace.offset(&span.campaign) else {
                continue;
            };
            self.trace.record(
                &span.campaign,
                trace::Span {
                    service: worker.to_string(),
                    name: span.name.clone(),
                    start: (offset - span.age.max(0.0)).max(0.0),
                    duration: span.duration.max(0.0),
                    failed: span.failed,
                },
            );
        }
    }
}
