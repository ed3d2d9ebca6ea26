//! The worker agent: pulls leases from a coordinator, executes the
//! experiments in the local sandbox, and streams results back.
//!
//! ```text
//!  register ─▶ loop: lease ─▶ build/reuse Workflow per campaign
//!     │                 │        (parse once, prepared-program reuse)
//!     │                 ▼
//!     │          ParallelExecutor::run (N experiments at once)
//!     │                 │
//!     │                 ▼
//!     │          upload results (retry + backoff; coordinator dedups,
//!     │          so retries are safe even after a mid-flight error)
//!     └─ heartbeat thread keeps the lease alive while batches run
//! ```
//!
//! **Failover**: the agent takes an *ordered list* of coordinators (the
//! primary first, then warm standbys). Connection loss never exits the
//! loop — the agent rotates through the list with jittered exponential
//! backoff (`fleet_worker_reconnects_total`), keeps its worker id (the
//! registry is replicated, so a promoted standby already knows it), and
//! re-registers only when the answering coordinator returns 404.
//! In-flight batch results upload to whichever coordinator answers;
//! idempotent recording keeps the report byte-identical regardless of
//! which epoch granted the lease.
//!
//! Determinism: an experiment's outcome depends only on the campaign
//! spec, the injection point, and the rendered sources — all shipped on
//! the wire — plus the spec-seeded per-experiment RNG, so a result
//! computed here is byte-identical to one computed by the coordinator's
//! own pool.

use crate::wire;
use campaign::{CampaignSpec, HostRegistry};
use httpd::ClientPool;
use injector::persist::SpanIndex;
use jsonlite::Value;
use obs::Level;
use profipy::workflow::Workflow;
use profipy::ExperimentResult;
use sandbox::{ParallelExecutor, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker agent options.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Ordered coordinator addresses (`host:port`): the primary first,
    /// then any warm standbys. The agent registers with the first that
    /// answers and rotates through the list on connection loss.
    pub coordinators: Vec<String>,
    /// Experiments executed concurrently.
    pub parallelism: usize,
    /// Jobs requested per lease (0 = `2 × parallelism`).
    pub max_batch: usize,
    /// Initial idle backoff when a lease comes back empty; doubles up
    /// to [`WorkerConfig::idle_backoff_max`].
    pub idle_backoff: Duration,
    /// Idle backoff ceiling.
    pub idle_backoff_max: Duration,
    /// Upload attempts per result batch before the batch is abandoned
    /// to lease expiry.
    pub upload_retries: u32,
    /// Initial backoff after a lost connection (jittered, doubles up to
    /// [`WorkerConfig::reconnect_backoff_max`]).
    pub reconnect_backoff: Duration,
    /// Reconnect backoff ceiling.
    pub reconnect_backoff_max: Duration,
}

impl WorkerConfig {
    /// Defaults for a single coordinator at `addr`.
    pub fn new(coordinator: impl Into<String>) -> WorkerConfig {
        WorkerConfig {
            coordinators: vec![coordinator.into()],
            parallelism: 2,
            max_batch: 0,
            idle_backoff: Duration::from_millis(25),
            idle_backoff_max: Duration::from_millis(500),
            upload_retries: 5,
            reconnect_backoff: Duration::from_millis(50),
            reconnect_backoff_max: Duration::from_secs(2),
        }
    }

    /// Appends a standby coordinator to the failover list.
    #[must_use]
    pub fn with_standby(mut self, addr: impl Into<String>) -> WorkerConfig {
        self.coordinators.push(addr.into());
        self
    }

    fn batch(&self) -> usize {
        if self.max_batch == 0 {
            (self.parallelism * 2).max(1)
        } else {
            self.max_batch
        }
    }
}

/// What an agent did over its lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Experiments executed.
    pub executed: u64,
    /// Leases pulled (empty ones included).
    pub leases: u64,
    /// Leases that came back without jobs.
    pub empty_leases: u64,
    /// Result batches uploaded successfully.
    pub uploads: u64,
    /// Upload attempts that failed and were retried.
    pub upload_retries: u64,
    /// Result batches abandoned after exhausting every upload retry
    /// (the jobs return to the pool via lease expiry/supersession).
    pub upload_failures: u64,
    /// Jobs skipped because their campaign could not be rebuilt
    /// locally (unknown host, rebind failure); lease expiry returns
    /// them to the pool for another worker.
    pub skipped: u64,
    /// Coordinator reconnects: failovers to another coordinator plus
    /// re-registrations after a 404.
    pub reconnects: u64,
}

/// The coordinator the agent currently talks to. Shared between the
/// lease loop and the heartbeat thread, so a failover redirects both.
struct Session {
    addr: String,
    id: String,
}

/// A running agent; stop it to get the stats back.
pub struct WorkerHandle {
    id: String,
    stop: Arc<AtomicBool>,
    main: Option<JoinHandle<WorkerStats>>,
    heartbeat: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// The coordinator-assigned worker id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Signals the agent to stop after its current batch and joins it.
    pub fn stop(mut self) -> WorkerStats {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(heartbeat) = self.heartbeat.take() {
            let _ = heartbeat.join();
        }
        match self.main.take() {
            Some(main) => main.join().unwrap_or_default(),
            None => WorkerStats::default(),
        }
    }
}

/// The agent entry point.
pub struct WorkerAgent;

impl WorkerAgent {
    /// Registers with the first answering coordinator and starts the
    /// lease/execute loop plus a heartbeat thread. The host `registry`
    /// must resolve every host name the distributed specs reference
    /// (mirror the coordinator's).
    ///
    /// # Errors
    ///
    /// Registration failures — only after every coordinator in the list
    /// refused or stayed unreachable across several backed-off passes.
    pub fn start(config: WorkerConfig, registry: HostRegistry) -> io::Result<WorkerHandle> {
        let pool = Arc::new(ClientPool::new());
        let mut rng = seed_rng(&config.coordinators.join(","));
        let mut last_error = io::Error::new(io::ErrorKind::AddrNotAvailable, "no coordinators");
        let mut registered = None;
        'passes: for round in 0..3u32 {
            for addr in &config.coordinators {
                match register_at(&pool, addr, config.parallelism) {
                    Ok(ok) => {
                        registered = Some((addr.clone(), ok));
                        break 'passes;
                    }
                    Err(e) => {
                        obs::log!(
                            Level::Warn,
                            "worker_register_failed",
                            "coordinator" => addr.as_str(),
                            "round" => u64::from(round) + 1,
                            "error" => format!("{e}").as_str(),
                        );
                        last_error = e;
                    }
                }
            }
            let delay = config
                .reconnect_backoff
                .saturating_mul(1 << round.min(8))
                .min(config.reconnect_backoff_max);
            std::thread::sleep(jittered(&mut rng, delay));
        }
        let Some((addr, (id, heartbeat_every))) = registered else {
            return Err(last_error);
        };
        let session = Arc::new(Mutex::new(Session {
            addr,
            id: id.clone(),
        }));
        let stop = Arc::new(AtomicBool::new(false));

        let hb_pool = pool.clone();
        let hb_stop = stop.clone();
        let hb_session = session.clone();
        let heartbeat = std::thread::Builder::new()
            .name(format!("{id}-heartbeat"))
            .spawn(move || {
                while !hb_stop.load(Ordering::SeqCst) {
                    // Sleep in small slices so stop() is prompt.
                    let mut slept = Duration::ZERO;
                    while slept < heartbeat_every && !hb_stop.load(Ordering::SeqCst) {
                        let slice = Duration::from_millis(20).min(heartbeat_every - slept);
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                    if hb_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // Best-effort, aimed at wherever the lease loop is
                    // currently connected: a missed beat only risks an
                    // early lease expiry, which the dedup makes
                    // harmless.
                    let (addr, worker) = {
                        let s = hb_session.lock().unwrap_or_else(|p| p.into_inner());
                        (s.addr.clone(), s.id.clone())
                    };
                    let _ = hb_pool.post_json(
                        &addr,
                        &format!("/api/workers/{worker}/heartbeat"),
                        "{}",
                    );
                }
            })
            .expect("spawn heartbeat thread");

        let main_stop = stop.clone();
        let main = std::thread::Builder::new()
            .name(id.clone())
            .spawn(move || run_loop(&config, &registry, &pool, &session, &main_stop))
            .expect("spawn worker thread");

        Ok(WorkerHandle {
            id,
            stop,
            main: Some(main),
            heartbeat: Some(heartbeat),
        })
    }
}

/// One registration attempt. Returns the assigned id and the advertised
/// heartbeat cadence.
fn register_at(
    pool: &ClientPool,
    addr: &str,
    parallelism: usize,
) -> io::Result<(String, Duration)> {
    let register = pool.post_json(
        addr,
        "/api/workers/register",
        &Value::obj(vec![(
            "parallelism",
            Value::UInt(parallelism.max(1) as u64),
        )])
        .compact(),
    )?;
    if register.status != 201 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("registration refused: {} {}", register.status, register.text()),
        ));
    }
    let reply = jsonlite::parse(&register.text())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let id = reply
        .get("id")
        .and_then(Value::as_str)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "registration without id"))?
        .to_string();
    let heartbeat_every = Duration::from_millis(
        reply
            .get("heartbeat_ms")
            .and_then(Value::as_u64)
            .unwrap_or(2000)
            .max(10),
    );
    Ok((id, heartbeat_every))
}

/// The agent's failover machinery: the coordinator ring, the shared
/// session, and the jittered reconnect backoff. Every transition is
/// counted (`fleet_worker_reconnects_total`) and logged — an agent
/// never gives up on a connection error silently.
struct Failover<'a> {
    pool: &'a ClientPool,
    config: &'a WorkerConfig,
    session: &'a Arc<Mutex<Session>>,
    reconnects: obs::Counter,
    delay: Duration,
    rng: u64,
}

impl Failover<'_> {
    fn current(&self) -> (String, String) {
        let s = self.session.lock().unwrap_or_else(|p| p.into_inner());
        (s.addr.clone(), s.id.clone())
    }

    /// A successful exchange: the connection is healthy again.
    fn reset(&mut self) {
        self.delay = self.config.reconnect_backoff;
    }

    /// Connection lost: advance to the next coordinator in the ring
    /// (a single-entry ring retries the same one) after a jittered,
    /// stop-aware backoff.
    fn rotate(&mut self, stats: &mut WorkerStats, stop: &AtomicBool, error: &str) {
        let (from, worker) = self.current();
        let ring = &self.config.coordinators;
        let at = ring.iter().position(|a| *a == from).unwrap_or(0);
        let to = ring[(at + 1) % ring.len()].clone();
        let backoff = jittered(&mut self.rng, self.delay);
        stats.reconnects += 1;
        self.reconnects.inc();
        obs::log!(
            Level::Warn,
            "worker_reconnect",
            "worker" => worker.as_str(),
            "from" => from.as_str(),
            "to" => to.as_str(),
            "backoff_ms" => backoff.as_millis() as u64,
            "error" => error,
        );
        self.session.lock().unwrap_or_else(|p| p.into_inner()).addr = to;
        self.delay = (self.delay * 2).min(self.config.reconnect_backoff_max);
        sleep_stoppable(backoff, stop);
    }

    /// The current coordinator answered 404 — it does not know our id
    /// (diverged registry). Re-register there; on success the session
    /// carries the new id. Returns whether re-registration succeeded.
    fn reregister(&mut self, stats: &mut WorkerStats) -> bool {
        let (addr, old) = self.current();
        match register_at(self.pool, &addr, self.config.parallelism) {
            Ok((id, _)) => {
                stats.reconnects += 1;
                self.reconnects.inc();
                obs::log!(
                    Level::Warn,
                    "worker_reregistered",
                    "coordinator" => addr.as_str(),
                    "old_id" => old.as_str(),
                    "new_id" => id.as_str(),
                );
                self.session.lock().unwrap_or_else(|p| p.into_inner()).id = id;
                true
            }
            Err(e) => {
                obs::log!(
                    Level::Warn,
                    "worker_register_failed",
                    "coordinator" => addr.as_str(),
                    "error" => format!("{e}").as_str(),
                );
                false
            }
        }
    }
}

/// One executable unit: a job joined with its campaign's workflow.
struct ReadyJob {
    campaign: String,
    workflow: Arc<Workflow>,
    point: injector::InjectionPoint,
    sources: Vec<SourceFile>,
}

/// A phase span recorded locally, awaiting shipment with the next
/// result upload (the upload's own span rides the one after it).
struct PendingSpan {
    campaign: String,
    name: String,
    start: Instant,
    duration: f64,
    failed: bool,
}

fn run_loop(
    config: &WorkerConfig,
    registry: &HostRegistry,
    pool: &ClientPool,
    session: &Arc<Mutex<Session>>,
    stop: &AtomicBool,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    // Campaign id → locally rebuilt workflow (parsed + prepared once,
    // shared by every experiment of the campaign on this worker).
    let mut workflows: BTreeMap<String, Arc<Workflow>> = BTreeMap::new();
    let executor = ParallelExecutor::new(config.parallelism.max(1) + 1);
    let mut backoff = config.idle_backoff;
    let upload_failures = obs::global().counter(
        "fleet_upload_failures_total",
        "Result batches abandoned after exhausting every upload retry.",
    );
    let mut fo = Failover {
        pool,
        config,
        session,
        reconnects: obs::global().counter(
            "fleet_worker_reconnects_total",
            "Worker coordinator reconnects (failovers and re-registrations).",
        ),
        delay: config.reconnect_backoff,
        rng: seed_rng(&session.lock().unwrap_or_else(|p| p.into_inner()).id),
    };
    // Phase spans not yet shipped: rebind/execute spans of the current
    // batch, plus the previous batch's upload span.
    let mut pending_spans: Vec<PendingSpan> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let known: BTreeSet<String> = workflows.keys().cloned().collect();
        let request = Value::obj(vec![
            ("max_jobs", Value::UInt(config.batch() as u64)),
            ("known", Value::arr(&known)),
        ])
        .compact();
        let (addr, id) = fo.current();
        let lease = match pool.post_json(&addr, &format!("/api/workers/{id}/lease"), &request) {
            Ok(resp) if resp.status == 200 => match jsonlite::parse(&resp.text())
                .and_then(|v| wire::lease_from_value(&v))
            {
                Ok(lease) => {
                    fo.reset();
                    lease
                }
                Err(e) => {
                    obs::log!(
                        Level::Warn,
                        "lease_decode_failed",
                        "worker" => id.as_str(),
                        "error" => e.as_str(),
                    );
                    idle(&mut backoff, config, stop);
                    continue;
                }
            },
            // This coordinator does not know us — a takeover whose
            // registry replica missed our registration. Re-register
            // (keeping the session) or move on down the ring.
            Ok(resp) if resp.status == 404 => {
                if !fo.reregister(&mut stats) {
                    fo.rotate(&mut stats, stop, "re-registration refused");
                }
                continue;
            }
            // Coordinator answering but refusing (500, overload):
            // back off and retry — leases we held expire server-side
            // on their own.
            Ok(_) => {
                idle(&mut backoff, config, stop);
                continue;
            }
            // Connection lost: fail over to the next coordinator.
            Err(e) => {
                fo.rotate(&mut stats, stop, &format!("{e}"));
                continue;
            }
        };
        stats.leases += 1;
        // Adopt newly shipped campaign specs.
        for (campaign_id, spec) in lease.new_campaigns {
            if let Some(workflow) = build_workflow(&spec, registry, &executor) {
                workflows.insert(campaign_id, Arc::new(workflow));
            }
        }
        // Join jobs with their workflows and rebind the portable points,
        // through one span index per campaign in the lease.
        let rebind_started = Instant::now();
        let mut indices: BTreeMap<&str, Result<SpanIndex<'_>, String>> = BTreeMap::new();
        let mut ready: Vec<ReadyJob> = Vec::new();
        for job in lease.jobs {
            let Some((campaign, workflow)) = workflows.get_key_value(&job.campaign) else {
                stats.skipped += 1;
                obs::log!(
                    Level::Warn,
                    "job_skipped",
                    "worker" => id.as_str(),
                    "campaign" => job.campaign.as_str(),
                    "reason" => "campaign not rebuilt locally",
                );
                continue;
            };
            let rebound = indices
                .entry(campaign.as_str())
                .or_insert_with(|| SpanIndex::new(workflow.modules()))
                .as_ref()
                .map_err(String::clone)
                .and_then(|index| index.point_from_value(&job.point));
            match rebound {
                Ok(point) => ready.push(ReadyJob {
                    campaign: job.campaign,
                    workflow: workflow.clone(),
                    point,
                    sources: job.sources,
                }),
                Err(e) => {
                    stats.skipped += 1;
                    obs::log!(
                        Level::Warn,
                        "job_skipped",
                        "worker" => id.as_str(),
                        "campaign" => job.campaign.as_str(),
                        "reason" => e.as_str(),
                    );
                }
            }
        }
        if ready.is_empty() {
            stats.empty_leases += 1;
            idle(&mut backoff, config, stop);
            continue;
        }
        backoff = config.idle_backoff;
        let rebind_elapsed = rebind_started.elapsed().as_secs_f64();
        for (campaign, n) in count_per_campaign(ready.iter().map(|j| j.campaign.as_str())) {
            pending_spans.push(PendingSpan {
                campaign,
                name: format!("rebind ({n} jobs)"),
                start: rebind_started,
                duration: rebind_elapsed,
                failed: false,
            });
        }
        // Execute the batch in the local sandbox, `parallelism` at a
        // time.
        let outcomes: Vec<(String, ExperimentResult, Instant, f64)> =
            executor.run(ready.len(), |i| {
                let job = &ready[i];
                let started = Instant::now();
                let result = job
                    .workflow
                    .run_experiment_with_sources(&job.point, &job.sources);
                let duration = started.elapsed().as_secs_f64();
                (job.campaign.clone(), result, started, duration)
            });
        let mut results: Vec<(String, ExperimentResult)> = Vec::with_capacity(outcomes.len());
        for (campaign, result, started, duration) in outcomes {
            pending_spans.push(PendingSpan {
                campaign: campaign.clone(),
                name: format!("execute #{}", result.point_id),
                start: started,
                duration,
                failed: result.failed_round1(),
            });
            results.push((campaign, result));
        }
        stats.executed += results.len() as u64;
        // Stream the batch back with retry/backoff. Retrying a
        // possibly-delivered upload is safe: the coordinator records
        // results idempotently (first write wins). The pending spans
        // ride along, each anchored by its age relative to this send.
        let send = Instant::now();
        let spans: Vec<wire::WireSpan> = pending_spans
            .iter()
            .map(|s| wire::WireSpan {
                campaign: s.campaign.clone(),
                name: s.name.clone(),
                age: send
                    .checked_duration_since(s.start)
                    .unwrap_or_default()
                    .as_secs_f64(),
                duration: s.duration,
                failed: s.failed,
            })
            .collect();
        let mut body = wire::results_to_value(&results);
        if let Value::Obj(fields) = &mut body {
            fields.push(("trace".to_string(), Value::str(&lease.trace_id)));
            fields.push(("epoch".to_string(), Value::UInt(lease.epoch)));
            fields.push(("spans".to_string(), wire::spans_to_value(&spans)));
        }
        match upload_with_retry(
            &mut fo,
            &body.compact(),
            config.upload_retries,
            &mut stats,
            &upload_failures,
            stop,
        ) {
            Ok(reply) => {
                // Shipped spans now live coordinator-side; the upload
                // itself becomes a span on the next flush.
                pending_spans.clear();
                let upload_elapsed = send.elapsed().as_secs_f64();
                for (campaign, n) in
                    count_per_campaign(results.iter().map(|(c, _)| c.as_str()))
                {
                    pending_spans.push(PendingSpan {
                        campaign,
                        name: format!("upload ({n} results)"),
                        start: send,
                        duration: upload_elapsed,
                        failed: false,
                    });
                }
                // Free workflows of campaigns that just completed.
                if let Some(done) = reply.get("completed").and_then(Value::as_arr) {
                    for id in done.iter().filter_map(Value::as_str) {
                        workflows.remove(id);
                    }
                }
            }
            Err(_) => {
                // Abandon the batch: lease expiry (or the supersession
                // on our next lease) requeues the jobs and another
                // worker re-executes them. The spans die with the
                // batch — their results never landed.
                pending_spans.clear();
            }
        }
    }
    stats
}

/// Distinct campaigns with their batch-member counts, in first-seen
/// order.
fn count_per_campaign<'a>(ids: impl Iterator<Item = &'a str>) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for id in ids {
        match counts.iter_mut().find(|(c, _)| c == id) {
            Some((_, n)) => *n += 1,
            None => counts.push((id.to_string(), 1)),
        }
    }
    counts
}

/// Uploads one result batch, `retries + 1` attempts in total. Each
/// attempt goes to the failover session's *current* coordinator: a
/// transport error rotates the ring (so an in-flight batch lands on
/// whichever coordinator answers), a 404 re-registers there first.
/// Success returns the coordinator's parsed reply. Exhaustion is
/// **surfaced**, not swallowed: the final error lands in the event log,
/// `stats.upload_failures`, and the process-wide
/// `fleet_upload_failures_total` counter before it is returned.
fn upload_with_retry(
    fo: &mut Failover<'_>,
    body: &str,
    retries: u32,
    stats: &mut WorkerStats,
    failures: &obs::Counter,
    stop: &AtomicBool,
) -> Result<Value, String> {
    let mut delay = Duration::from_millis(10);
    let mut last_error = String::new();
    for attempt in 0..=retries {
        let (addr, worker) = fo.current();
        let rotated = match fo
            .pool
            .post_json(&addr, &format!("/api/workers/{worker}/results"), body)
        {
            Ok(resp) if resp.status == 200 => {
                stats.uploads += 1;
                fo.reset();
                return Ok(jsonlite::parse(&resp.text()).unwrap_or(Value::Null));
            }
            Ok(resp) if resp.status == 404 => {
                last_error = format!("HTTP 404: {}", resp.text());
                if !fo.reregister(stats) {
                    fo.rotate(stats, stop, "re-registration refused");
                }
                true // the failover machinery already backed off
            }
            Ok(resp) => {
                last_error = format!("HTTP {}: {}", resp.status, resp.text());
                false
            }
            Err(e) => {
                last_error = format!("transport: {e}");
                fo.rotate(stats, stop, &last_error);
                true
            }
        };
        if attempt == retries {
            break;
        }
        stats.upload_retries += 1;
        obs::log!(
            Level::Warn,
            "upload_retry",
            "worker" => worker.as_str(),
            "attempt" => u64::from(attempt) + 1,
            "error" => last_error.as_str(),
        );
        if !rotated {
            sleep_stoppable(delay, stop);
            delay = (delay * 2).min(Duration::from_millis(500));
        }
    }
    stats.upload_failures += 1;
    failures.inc();
    let (_, worker) = fo.current();
    obs::log!(
        Level::Error,
        "upload_retries_exhausted",
        "worker" => worker.as_str(),
        "attempts" => u64::from(retries) + 1,
        "error" => last_error.as_str(),
    );
    Err(last_error)
}

fn build_workflow(
    spec: &CampaignSpec,
    registry: &HostRegistry,
    executor: &ParallelExecutor,
) -> Option<Workflow> {
    let host = registry.get(&spec.host)?;
    spec.build_workflow(host, executor.clone()).ok()
}

/// Bounded exponential idle wait, stop-aware.
fn idle(backoff: &mut Duration, config: &WorkerConfig, stop: &AtomicBool) {
    sleep_stoppable(*backoff, stop);
    *backoff = (*backoff * 2).min(config.idle_backoff_max);
}

/// Sleeps `total` in small slices, returning early on stop.
fn sleep_stoppable(total: Duration, stop: &AtomicBool) {
    let mut slept = Duration::ZERO;
    while slept < total && !stop.load(Ordering::SeqCst) {
        let slice = Duration::from_millis(10).min(total - slept);
        std::thread::sleep(slice);
        slept += slice;
    }
}

/// Seeds the jitter RNG from the process-global `RandomState` (no
/// external randomness dependency) plus a caller-supplied tag, so
/// workers sharing a host fan their retries out instead of thundering
/// together.
fn seed_rng(tag: &str) -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    let mut hasher = RandomState::new().build_hasher();
    hasher.write(tag.as_bytes());
    hasher.finish() | 1 // xorshift must not start at 0
}

/// Uniform-ish jitter in `[delay/2, delay]` via xorshift64*.
fn jittered(rng: &mut u64, delay: Duration) -> Duration {
    *rng ^= *rng >> 12;
    *rng ^= *rng << 25;
    *rng ^= *rng >> 27;
    let r = rng.wrapping_mul(0x2545_F491_4F6C_DD1D);
    let half = delay.as_millis().max(1) as u64 / 2;
    Duration::from_millis(half.max(1) + r % half.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpd::{Request, Response, Router, Server, ServerConfig};

    #[test]
    fn upload_retry_exhaustion_is_surfaced_not_swallowed() {
        // A coordinator that always refuses uploads.
        let router = Router::new().route(
            "POST",
            "/api/workers/:id/results",
            |_req: &Request| Response::json(503, "{\"error\":\"overloaded\"}".to_string()),
        );
        let server = Server::bind("127.0.0.1:0", router, ServerConfig::default()).unwrap();
        let addr = server.addr().to_string();
        let pool = ClientPool::new();
        let config = WorkerConfig::new(addr.clone());
        let session = Arc::new(Mutex::new(Session {
            addr,
            id: "w-test".to_string(),
        }));
        let mut stats = WorkerStats::default();
        let failures = obs::global().counter(
            "fleet_upload_failures_total",
            "Result batches abandoned after exhausting every upload retry.",
        );
        let mut fo = Failover {
            pool: &pool,
            config: &config,
            session: &session,
            reconnects: obs::global().counter(
                "fleet_worker_reconnects_total",
                "Worker coordinator reconnects (failovers and re-registrations).",
            ),
            delay: config.reconnect_backoff,
            rng: seed_rng("w-test"),
        };
        let before = failures.value();
        let stop = AtomicBool::new(false);
        let err = upload_with_retry(
            &mut fo,
            "{\"results\": []}",
            2,
            &mut stats,
            &failures,
            &stop,
        )
        .unwrap_err();
        // The final error is returned, not discarded…
        assert!(err.contains("503"), "{err}");
        // …each non-final failure counted as a retry…
        assert_eq!(stats.upload_retries, 2);
        // …and the exhaustion surfaced in stats and the counter.
        assert_eq!(stats.upload_failures, 1);
        assert_eq!(stats.uploads, 0);
        assert_eq!(failures.value(), before + 1);
        server.shutdown();
    }

    #[test]
    fn transport_loss_rotates_the_coordinator_ring_and_counts() {
        // Two coordinators: the first address is unreachable (bound
        // then dropped), the second answers.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let router = Router::new().route(
            "POST",
            "/api/workers/:id/results",
            |_req: &Request| Response::json(200, "{\"completed\": []}".to_string()),
        );
        let server = Server::bind("127.0.0.1:0", router, ServerConfig::default()).unwrap();
        let live = server.addr().to_string();
        let pool = ClientPool::new();
        let config = WorkerConfig {
            reconnect_backoff: Duration::from_millis(5),
            ..WorkerConfig::new(dead.clone()).with_standby(live.clone())
        };
        let session = Arc::new(Mutex::new(Session {
            addr: dead,
            id: "w-rotate".to_string(),
        }));
        let mut stats = WorkerStats::default();
        let failures = obs::global().counter(
            "fleet_upload_failures_total",
            "Result batches abandoned after exhausting every upload retry.",
        );
        let reconnects = obs::global().counter(
            "fleet_worker_reconnects_total",
            "Worker coordinator reconnects (failovers and re-registrations).",
        );
        let before = reconnects.value();
        let mut fo = Failover {
            pool: &pool,
            config: &config,
            session: &session,
            reconnects,
            delay: config.reconnect_backoff,
            rng: seed_rng("w-rotate"),
        };
        let stop = AtomicBool::new(false);
        let reply = upload_with_retry(
            &mut fo,
            "{\"results\": []}",
            3,
            &mut stats,
            &failures,
            &stop,
        )
        .unwrap();
        // The batch landed on the standby after rotating off the dead
        // primary — counted, logged, never silently dropped.
        assert!(reply.get("completed").is_some());
        assert_eq!(stats.uploads, 1);
        assert!(stats.reconnects >= 1, "{stats:?}");
        assert!(fo.reconnects.value() > before);
        assert_eq!(
            session.lock().unwrap().addr,
            live,
            "session follows the ring"
        );
        server.shutdown();
    }
}
