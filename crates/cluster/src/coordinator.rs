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
//! Lease time comes from one clock, fixed when the coordinator is
//! built: [`Coordinator::new`] reads `Instant::now`, and
//! [`Coordinator::with_clock`] reads a closure the test advances — no
//! sleeps, no flakes. Latency histograms and trace spans time real wall
//! time either way.

#![deny(clippy::unwrap_used, clippy::expect_used)]

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
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use trace::TraceStore;

/// Coordinator options. The heartbeat cadence and the expiry sweep
/// are derived from `lease_ttl`.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// How long a lease stays valid without a heartbeat; a worker that
    /// misses it gets its leased jobs requeued.
    pub lease_ttl: Duration,
    /// Most jobs handed out per lease request.
    pub lease_batch_max: usize,
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
            lease_batch_max: 16,
            data_dir: None,
        }
    }
}

impl FleetConfig {
    /// The heartbeat cadence advertised to workers: a quarter of the
    /// lease TTL, at least 10 ms.
    pub fn heartbeat_interval(&self) -> Duration {
        (self.lease_ttl / 4).max(Duration::from_millis(10))
    }

    /// The cadence of the server's lease-expiry sweep: a fortieth of
    /// the lease TTL (250 ms at the default 10 s), at least 1 ms.
    pub fn tick_interval(&self) -> Duration {
        (self.lease_ttl / 40).max(Duration::from_millis(1))
    }
}

/// How long a registered worker holding no lease may stay silent before
/// it is pruned from the registry (and its per-worker gauge labels stop
/// being emitted).
const WORKER_RETENTION: Duration = Duration::from_secs(600);

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
    /// Its labelled series, made by the first [`Coordinator::publish`]
    /// that sees it.
    gauges: Option<WorkerGauges>,
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

/// A worker's labelled gauges; `heartbeat_age` appears at its first
/// contact since the coordinator started.
struct WorkerGauges {
    parallelism: obs::Gauge,
    heartbeat_age: Option<obs::Gauge>,
}

const WORKER_PARALLELISM: &str = "profipy_fleet_worker_parallelism";
const WORKER_HEARTBEAT_AGE: &str = "profipy_fleet_worker_heartbeat_age_ms";

/// The coordinator's instruments, registered into the service's
/// registry by [`Coordinator::new`]. Each counter is bumped where its
/// event happens; the gauges are point-in-time readings that
/// [`Coordinator::publish`] sets under the fleet lock.
struct FleetMetrics {
    registry: Arc<obs::Registry>,
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
    leases_granted: obs::Counter,
    leases_expired: obs::Counter,
    jobs_leased_total: obs::Counter,
    jobs_requeued: obs::Counter,
    results_accepted: obs::Counter,
    results_duplicate: obs::Counter,
    results_old_epoch: obs::Counter,
    campaigns_completed: obs::Counter,
    leases_recovered: obs::Counter,
    jobs_recovered: obs::Counter,
    workers_pruned: obs::Counter,
    workers_registered: obs::Gauge,
    workers_live: obs::Gauge,
    campaigns_active: obs::Gauge,
    jobs_pending: obs::Gauge,
    jobs_leased: obs::Gauge,
    epoch: obs::Gauge,
}

impl FleetMetrics {
    fn new(registry: Arc<obs::Registry>) -> FleetMetrics {
        let histogram =
            |name: &str, help: &str| registry.histogram(name, help, obs::LATENCY_BUCKETS);
        let counter =
            |name: &str, help: &str| registry.counter(&format!("profipy_fleet_{name}_total"), help);
        let gauge = |name: &str, help: &str| registry.gauge(&format!("profipy_fleet_{name}"), help);
        FleetMetrics {
            lease_seconds: histogram(
                "fleet_lease_seconds",
                "Coordinator lease handling time in seconds (queue checkout included).",
            ),
            checkin_seconds: histogram(
                "fleet_checkin_seconds",
                "Result-upload handling time in seconds (checkpoint writes included).",
            ),
            recovery_seconds: histogram(
                "fleet_recovery_seconds",
                "Time spent re-arming WAL leases after a restart or takeover, in seconds.",
            ),
            takeovers: registry.counter(
                "fleet_takeovers_total",
                "Coordinator recoveries (restart or standby takeover) that re-armed in-flight leases.",
            ),
            leases_granted: counter("leases_granted", "Leases granted, empty ones included."),
            leases_expired: counter("leases_expired", "Leases that missed their deadline."),
            jobs_leased_total: counter("jobs_leased", "Experiments handed out in leases."),
            jobs_requeued: counter("jobs_requeued", "Leased experiments requeued."),
            results_accepted: counter("results_accepted", "Uploaded results recorded."),
            results_duplicate: counter("results_duplicate", "Uploaded results already recorded."),
            results_old_epoch: counter("results_old_epoch", "Uploads from an earlier epoch."),
            campaigns_completed: counter("campaigns_completed", "Campaigns an upload completed."),
            leases_recovered: counter("leases_recovered", "Leases re-armed from the lease WAL."),
            jobs_recovered: counter("jobs_recovered", "Jobs re-armed from the lease WAL."),
            workers_pruned: counter("workers_pruned", "Workers silent past retention."),
            workers_registered: gauge("workers_registered", "Workers in the registry."),
            workers_live: gauge("workers_live", "Workers heard from within one lease TTL."),
            campaigns_active: gauge("campaigns_active", "Campaigns checked out for distribution."),
            jobs_pending: gauge("jobs_pending", "Jobs waiting for a lease."),
            jobs_leased: gauge("jobs_leased", "Experiments in flight on a worker."),
            epoch: gauge("epoch", "This coordinator's epoch."),
            registry,
        }
    }
}

struct FleetState {
    workers: BTreeMap<String, WorkerInfo>,
    next_worker_seq: u64,
    active: BTreeMap<String, ActiveCampaign>,
    leases: BTreeMap<String, Lease>,
    /// The durable lease WAL: every grant/extend/expire/supersede/
    /// result appends here under the fleet lock, so the on-disk state
    /// never races the in-memory one.
    wal: LeaseLog,
    /// Leases replayed from the WAL, waiting for [`Coordinator::recover`]
    /// to re-arm them (taken exactly once).
    recovered: Option<ReplayedLeases>,
    /// Set during shutdown: leases stop checking campaigns out, so a
    /// request racing the drain cannot strand a job in `Running`.
    draining: bool,
}

/// The coordinator. Thread-safe behind its own mutex; lock order is
/// always fleet state **then** the shared service. The `/metrics`
/// handler takes neither: the fleet's series are registry instruments
/// set under the fleet lock.
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
    /// The lease clock: worker contacts, lease deadlines, expiry,
    /// pruning and the heartbeat-age gauges read it.
    clock: Box<dyn Fn() -> Instant + Send + Sync>,
    /// When this coordinator instance booted — the liveness baseline
    /// for workers restored from the registry that never phoned in.
    boot: Instant,
    metrics: FleetMetrics,
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
                gauges: None,
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

/// Records a contact from `worker` at `now`.
fn touch(state: &mut FleetState, worker: &str, now: Instant) -> Result<(), FleetError> {
    let info = state
        .workers
        .get_mut(worker)
        .ok_or_else(|| FleetError::UnknownWorker(worker.to_string()))?;
    info.last_contact = Some(now);
    Ok(())
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
        Coordinator::with_clock(service, config, Instant::now)
    }

    /// [`Coordinator::new`] with lease time read from `clock` instead of
    /// `Instant::now` — how a test steps deadlines, expiry and pruning
    /// without sleeping.
    ///
    /// # Errors
    ///
    /// I/O errors reading or creating the registry log or lease WAL.
    pub fn with_clock(
        service: SharedService,
        config: FleetConfig,
        clock: impl Fn() -> Instant + Send + Sync + 'static,
    ) -> io::Result<Coordinator> {
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
        let leases = &wal.state().leases;
        let recovered = (!leases.is_empty()).then(|| leases.clone());
        wal.record_epoch(epoch)?;
        let metrics = FleetMetrics::new(service.metrics_registry());
        let trace = service.trace_store();
        let boot = clock();
        let coordinator = Coordinator {
            service,
            config,
            state: Mutex::new(FleetState {
                workers,
                next_worker_seq,
                active: BTreeMap::new(),
                leases: BTreeMap::new(),
                wal,
                recovered,
                draining: false,
            }),
            registry,
            epoch,
            clock: Box::new(clock),
            boot,
            metrics,
            trace,
        };
        coordinator.publish(&mut coordinator.lock(), boot);
        Ok(coordinator)
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

    /// The lease clock's current reading.
    fn now(&self) -> Instant {
        (self.clock)()
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
        let now = self.now();
        state.next_worker_seq += 1;
        let id = format!("worker-{:06}", state.next_worker_seq);
        state.workers.insert(
            id.clone(),
            WorkerInfo {
                parallelism: parallelism.max(1),
                last_contact: Some(now),
                gauges: None,
            },
        );
        self.publish(&mut state, now);
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
        let mut state = self.lock();
        let now = self.now();
        touch(&mut state, worker, now)?;
        self.publish(&mut state, now);
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
    /// Each job goes in flight under the lease in the critical section
    /// that pops it, so an upload or a drain that runs while this lease
    /// waits on a campaign checkout sees it; the grant is what the
    /// lease still holds once the fill ends.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownWorker`] for an unregistered id; engine
    /// failures checking campaigns out (the jobs popped before the
    /// failure stay under the lease, so the worker's next lease or the
    /// expiry requeues them).
    pub fn lease(
        &self,
        worker: &str,
        max_jobs: usize,
        known: &BTreeSet<String>,
    ) -> Result<LeaseGrant, FleetError> {
        // Wall-clock (not the lease clock): the histogram measures real
        // handling latency.
        let wall = Instant::now();
        let want = max_jobs.clamp(1, self.config.lease_batch_max);
        let mut state = self.lock();
        let now = self.now();
        touch(&mut state, worker, now)?;
        // A new lease supersedes the worker's previous one: our
        // (sequential pull-loop) workers only re-lease after their last
        // batch is fully uploaded, so any job still listed was
        // *dropped* — upload retries exhausted, or the job skipped
        // because the campaign could not be rebuilt locally. Requeue
        // those now; waiting for expiry would never fire, since the
        // live worker's contacts keep extending the deadline.
        let superseded = match state.leases.remove(worker) {
            Some(prev) => {
                let requeued = self.requeue_lease_jobs(&mut state, &prev, worker);
                state
                    .wal
                    .record_supersede(worker)
                    .map_err(FleetError::Io)?;
                requeued
            }
            None => BTreeMap::new(),
        };
        let deadline = now + self.config.lease_ttl;
        let mut jobs: Vec<LeasedJob> = Vec::new();
        let mut new_campaigns: Vec<(String, CampaignSpec)> = Vec::new();
        let fill = loop {
            // A drain took every campaign and lease: check nothing out.
            if state.draining {
                break Ok(());
            }
            // Fill from campaigns already checked out, oldest job id
            // first (BTreeMap order — queue ids are sequential).
            let st = &mut *state;
            let lease = st.leases.entry(worker.to_string()).or_insert(Lease {
                jobs: Vec::new(),
                deadline,
            });
            for (id, c) in st.active.iter_mut() {
                while jobs.len() < want {
                    let Some((point, sources)) = c.pending.pop_front() else {
                        break;
                    };
                    let flight = InFlight {
                        worker: worker.to_string(),
                        point: point.clone(),
                        sources: sources.clone(),
                    };
                    c.in_flight.insert(point.id, flight);
                    lease.jobs.push((id.clone(), point.id));
                    // Ship specs the worker lacks.
                    if !known.contains(id) && !new_campaigns.iter().any(|(n, _)| n == id) {
                        new_campaigns.push((id.clone(), c.checkout.spec.clone()));
                    }
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
            if jobs.len() >= want {
                break Ok(());
            }
            // Not enough pending work: check the next queued campaign
            // out of the engine (fairness order), without the fleet
            // lock.
            self.publish(&mut state, now);
            drop(state);
            let activated = self.activate_next_campaign();
            state = self.lock();
            match activated {
                Ok(true) => {}
                Ok(false) => break Ok(()), // queue drained
                Err(e) => break Err(e),
            }
        };
        // Finalize: restart the worker's clock on any grant, including
        // an empty one (the contact proves it is alive), and grant what
        // the lease still holds — an upload may have retired jobs, or
        // an expiry requeued them, while the lock was released.
        let st = &mut *state;
        let held = match st.leases.get_mut(worker) {
            Some(lease) if !st.draining => {
                lease.deadline = deadline;
                st.wal
                    .record_grant(worker, &lease.jobs)
                    .map_err(FleetError::Io)?;
                lease.jobs.clone()
            }
            _ => Vec::new(),
        };
        jobs.retain(|job| {
            held.iter()
                .any(|(c, p)| *c == job.campaign && *p == job.point.id)
        });
        new_campaigns.retain(|(id, _)| jobs.iter().any(|job| job.campaign == *id));
        let granted = fill.map(|()| {
            self.metrics.leases_granted.inc();
            self.metrics.jobs_leased_total.add(jobs.len() as u64);
            format!("t-{:06}", self.metrics.leases_granted.value())
        });
        self.publish(&mut state, now);
        drop(state);
        self.note_requeue(worker, "lease_superseded", &superseded);
        let trace_id = granted?;
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
        self.metrics.lease_seconds.observe_duration(elapsed);
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
    /// back in and skipped, and so is every campaign once a drain has
    /// begun. Returns `false` when the queue is drained (or draining).
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
                let mut guard = self.service.lock();
                let service = &mut *guard;
                // Checking out prepares the campaign, its fault-free
                // coverage run included: user code, run on a stack of
                // the interpreter's size rather than on the caller's
                // (a lease handler's `httpd` worker thread).
                let checkout = std::thread::scope(|s| {
                    std::thread::Builder::new()
                        .name("fleet-checkout".into())
                        .stack_size(pyrt::interp::STACK_BYTES)
                        .spawn_scoped(s, || service.checkout_next())
                        .map(|t| t.join())
                        .map_err(FleetError::Io)
                })?;
                match checkout.unwrap_or_else(|panic| std::panic::resume_unwind(panic)) {
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
            // Workers are sent text: the mutants' overrides stay in the
            // engine's cache.
            let pending: VecDeque<_> = std::mem::take(&mut checkout.pending)
                .into_iter()
                .map(|(point, mutant)| (point, mutant.sources))
                .collect();
            let done = checkout.checkpoint.completed_ids();
            let mut state = self.lock();
            // A drain that began during the checkout has already
            // returned every active campaign: return this one too.
            if state.draining {
                self.service
                    .lock()
                    .checkin(checkout)
                    .map_err(FleetError::Engine)?;
                return Ok(false);
            }
            state.active.insert(
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
    /// and every re-armed lease gets one fresh TTL from now. A worker
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
        let wall = Instant::now();
        let Some(replayed) = self.lock().recovered.take() else {
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
        let now = self.now();
        let st = &mut *state;
        for (worker, jobs) in replayed {
            // The worker registry is replicated alongside the WAL, so
            // the holder is normally known; re-create it defensively if
            // the logs diverged (it must exist for expiry accounting).
            st.workers.entry(worker.clone()).or_insert(WorkerInfo {
                parallelism: 1,
                last_contact: None,
                gauges: None,
            });
            let mut kept: Vec<(String, u64)> = Vec::new();
            for (campaign_id, point_id) in jobs {
                let Some(c) = st.active.get_mut(&campaign_id) else {
                    continue; // campaign already completed
                };
                if c.done.contains(&point_id) {
                    continue; // resulted before the crash
                }
                let pos = c.pending.iter().position(|(p, _)| p.id == point_id);
                let Some((point, sources)) = pos.and_then(|pos| c.pending.remove(pos)) else {
                    continue; // not in the replan (spec changed) or already in flight
                };
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
        self.metrics.leases_recovered.add(summary.leases as u64);
        self.metrics.jobs_recovered.add(summary.jobs as u64);
        self.publish(&mut state, now);
        drop(state);
        if summary.leases > 0 {
            self.metrics.takeovers.inc();
        }
        self.metrics
            .recovery_seconds
            .observe_duration(wall.elapsed());
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
        &self,
        state: &mut FleetState,
        lease: &Lease,
        worker: &str,
    ) -> BTreeMap<String, usize> {
        let mut requeued: BTreeMap<String, usize> = BTreeMap::new();
        for (campaign_id, point_id) in &lease.jobs {
            let Some(c) = state.active.get_mut(campaign_id) else {
                continue; // campaign completed meanwhile
            };
            let Entry::Occupied(flight) = c.in_flight.entry(*point_id) else {
                continue;
            };
            if flight.get().worker != worker {
                continue;
            }
            let flight = flight.remove();
            c.pending.push_back((flight.point, flight.sources));
            *c.requeues.entry(*point_id).or_insert(0) += 1;
            self.metrics.jobs_requeued.inc();
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
        self.report_results_stamped(worker, None, results)
    }

    /// [`Coordinator::report_results`] with the lease epoch the worker
    /// echoed (when it sent one). Uploads stamped with an older epoch —
    /// a batch leased by the coordinator this one replaced — are
    /// **absorbed**, never rejected: idempotence already makes the
    /// outcome correct, the stamp just lets the takeover be observed
    /// (`fleet_results_old_epoch_total`).
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownWorker`] for an unregistered id; checkpoint
    /// I/O or engine failures.
    pub fn report_results_stamped(
        &self,
        worker: &str,
        epoch: Option<u64>,
        results: Vec<(String, ExperimentResult)>,
    ) -> Result<ResultsSummary, FleetError> {
        let wall = Instant::now();
        let mut state = self.lock();
        let now = self.now();
        touch(&mut state, worker, now)?;
        if let Some(e) = epoch {
            if e < self.epoch {
                self.metrics.results_old_epoch.add(results.len() as u64);
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
            let Entry::Occupied(c) = state.active.entry(id) else {
                continue;
            };
            if c.get().done.len() < c.get().checkout.total {
                continue;
            }
            let (id, c) = c.remove_entry();
            let completed = self
                .service
                .lock()
                .checkin(c.checkout)
                .map_err(FleetError::Engine)?;
            if completed {
                self.metrics.campaigns_completed.inc();
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
        self.metrics.results_accepted.add(summary.accepted);
        self.metrics.results_duplicate.add(summary.duplicates);
        self.publish(&mut state, now);
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
        self.metrics.checkin_seconds.observe_duration(elapsed);
        Ok(summary)
    }

    /// Expires leases past their deadline, requeueing each unresulted
    /// job **exactly once** (the lease is removed as it expires, so the
    /// next tick cannot requeue the same jobs again), and prunes workers
    /// silent past the retention window. Returns the number of jobs
    /// requeued.
    pub fn tick(&self) -> usize {
        let mut state = self.lock();
        let now = self.now();
        let (expired, live): (BTreeMap<_, _>, BTreeMap<_, _>) = std::mem::take(&mut state.leases)
            .into_iter()
            .partition(|(_, lease)| lease.deadline < now);
        state.leases = live;
        let mut requeued = 0usize;
        let mut noted: Vec<(String, BTreeMap<String, usize>)> = Vec::new();
        for (worker, lease) in expired {
            self.metrics.leases_expired.inc();
            // Best-effort: the in-memory requeue is the truth, a WAL
            // append failure must not abort the sweep.
            if let Err(e) = state.wal.record_expire(&worker) {
                obs::log!(Level::Error, "wal_append_failed", "err" => format!("{e}").as_str());
            }
            let per_campaign = self.requeue_lease_jobs(&mut state, &lease, &worker);
            requeued += per_campaign.values().sum::<usize>();
            noted.push((worker, per_campaign));
        }
        // Prune workers silent past the retention window (and without a
        // live lease — expiry above handles those first). Their labelled
        // series go with them, so they are not rendered forever.
        let stale: Vec<String> = state
            .workers
            .iter()
            .filter(|(id, info)| {
                !state.leases.contains_key(*id)
                    && now.saturating_duration_since(info.last_contact.unwrap_or(self.boot))
                        > WORKER_RETENTION
            })
            .map(|(id, _)| id.clone())
            .collect();
        for id in &stale {
            state.workers.remove(id);
            let labels = [("worker", id.as_str())];
            self.metrics.registry.remove(WORKER_PARALLELISM, &labels);
            self.metrics.registry.remove(WORKER_HEARTBEAT_AGE, &labels);
            self.metrics.workers_pruned.inc();
        }
        self.publish(&mut state, now);
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
    /// on graceful shutdown so no job is stranded `Running`. A campaign
    /// the engine refuses does not stop the others from going back, nor
    /// the WAL from being left clean.
    ///
    /// # Errors
    ///
    /// The first engine failure returning a campaign.
    pub fn drain(&self) -> Result<(), FleetError> {
        let mut state = self.lock();
        state.draining = true;
        obs::log!(
            Level::Info,
            "coordinator_drain",
            "campaigns" => state.active.len() as u64,
            "leases" => state.leases.len() as u64,
        );
        let mut first_error = None;
        for c in std::mem::take(&mut state.active).into_values() {
            if let Err(e) = self.service.lock().checkin(c.checkout) {
                first_error.get_or_insert(FleetError::Engine(e));
            }
        }
        // Graceful shutdown leaves a clean WAL: nothing to re-arm.
        for worker in std::mem::take(&mut state.leases).into_keys() {
            if let Err(e) = state.wal.record_expire(&worker) {
                obs::log!(Level::Error, "wal_append_failed", "err" => format!("{e}").as_str());
            }
        }
        let now = self.now();
        self.publish(&mut state, now);
        first_error.map_or(Ok(()), Err)
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
        self.metrics.jobs_requeued.value()
    }

    /// Sets the fleet's point-in-time gauges from `state` as of `now`.
    /// Every method that changes the fleet calls it under the fleet
    /// lock, and so does the [`Coordinator::tick`] sweep, so a scrape
    /// reads them without that lock: heartbeat age and liveness are as
    /// of the last contact or sweep.
    fn publish(&self, state: &mut FleetState, now: Instant) {
        let m = &self.metrics;
        let ttl = self.config.lease_ttl;
        let since = |t: Instant| now.saturating_duration_since(t);
        let live = state
            .workers
            .values()
            .filter(|w| w.last_contact.is_some_and(|t| since(t) <= ttl));
        m.workers_live.set(live.count() as u64);
        m.workers_registered.set(state.workers.len() as u64);
        m.campaigns_active.set(state.active.len() as u64);
        let active = state.active.values();
        m.jobs_pending
            .set(active.clone().map(|c| c.pending.len() as u64).sum());
        m.jobs_leased
            .set(active.map(|c| c.in_flight.len() as u64).sum());
        m.epoch.set(self.epoch);
        for (id, info) in &mut state.workers {
            let labels = [("worker", id.as_str())];
            let gauges = info.gauges.get_or_insert_with(|| WorkerGauges {
                parallelism: m.registry.gauge_with(
                    WORKER_PARALLELISM,
                    "Execution slots a worker registered with.",
                    &labels,
                ),
                heartbeat_age: None,
            });
            gauges.parallelism.set(info.parallelism as u64);
            if let Some(t) = info.last_contact {
                let age = gauges.heartbeat_age.get_or_insert_with(|| {
                    m.registry.gauge_with(
                        WORKER_HEARTBEAT_AGE,
                        "Milliseconds since a worker's last contact, as of the last update.",
                        &labels,
                    )
                });
                age.set(since(t).as_millis() as u64);
            }
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
