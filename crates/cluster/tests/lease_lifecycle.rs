//! The lease lifecycle, pinned deterministically: the coordinator reads
//! lease time from a clock the test steps (`Coordinator::with_clock`) —
//! no sleeps, no timing flakes.
//!
//! * expiry requeues a silent worker's jobs exactly once;
//! * duplicate result uploads are idempotent (first write wins), even
//!   across an expiry/re-lease race, and an upload whose checkpoint
//!   append failed is recorded once when the worker retries it;
//! * a heartbeat extends the lease;
//! * worker registration survives a coordinator restart via the
//!   registry log;
//! * a campaign that completes while a lease waits on the next
//!   campaign's checkout costs that lease only the jobs it lost, and a
//!   drain in that wait gets back the campaign the lease checks out.

use campaign::{
    report_to_value, CampaignService, CampaignSpec, EngineConfig, HostRegistry, JobState,
    SharedService,
};
use cluster::{Coordinator, FleetConfig, FleetError, LeasedJob};
use profipy::ExperimentResult;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{stepped, Clock};

const TARGET: &str = "def transfer(amount):
    checked = validate(amount)
    log_event()
    return checked

def validate(amount):
    if amount > 0:
        return amount
    return 0
";

const WORKLOAD: &str = "import target

def run(round):
    total = 0
    for i in range(3):
        total = total + target.transfer(i)
    return total
";

fn spec_for(user: &str, name: &str) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        user,
        name,
        "noop",
        vec![("target".into(), TARGET.into())],
        WORKLOAD.into(),
        faultdsl::predefined_models(),
    );
    spec.seed = 47;
    spec
}

fn service() -> CampaignService {
    CampaignService::new(EngineConfig::default(), HostRegistry::with_noop()).unwrap()
}

fn fleet_config(ttl_ms: u64) -> FleetConfig {
    FleetConfig {
        lease_ttl: Duration::from_millis(ttl_ms),
        lease_batch_max: 64,
        ..FleetConfig::default()
    }
}

/// Executes a leased job locally, exactly as a worker agent would.
fn execute(job: &LeasedJob, spec: &CampaignSpec) -> ExperimentResult {
    let host = HostRegistry::with_noop().get(&spec.host).unwrap();
    let workflow = spec.build_workflow(host, Default::default()).unwrap();
    workflow.run_experiment_with_sources(&job.point, &job.sources)
}

#[test]
fn expiry_requeues_exactly_once() {
    let shared = SharedService::new(service());
    let (coordinator, clock) = stepped(&shared, fleet_config(500));
    let id = shared.lock().submit(spec_for("alice", "expiry")).unwrap();
    let w1 = coordinator.register(1).unwrap();
    let t0 = clock.now();
    let grant = coordinator
        .lease(&w1, 64, &BTreeSet::new())
        .unwrap();
    let leased = grant.jobs.len();
    assert!(leased > 0, "campaign has experiments to lease");
    assert_eq!(grant.new_campaigns.len(), 1, "spec shipped on first lease");

    // Before the deadline nothing expires.
    clock.set(t0 + Duration::from_millis(400));
    assert_eq!(coordinator.tick(), 0);
    // Past it, every leased job is requeued…
    clock.set(t0 + Duration::from_millis(600));
    assert_eq!(
        coordinator.tick(),
        leased,
        "all leased jobs requeued on expiry"
    );
    // …exactly once: the lease is gone, further ticks find nothing.
    clock.set(t0 + Duration::from_millis(700));
    assert_eq!(coordinator.tick(), 0);
    clock.set(t0 + Duration::from_secs(60));
    assert_eq!(coordinator.tick(), 0);
    assert_eq!(coordinator.jobs_requeued_total(), leased as u64);
    let requeues = coordinator.requeue_counts(&id);
    assert_eq!(requeues.len(), leased);
    assert!(requeues.values().all(|&n| n == 1), "{requeues:?}");

    // A second worker picks the same jobs up again.
    let w2 = coordinator.register(1).unwrap();
    clock.set(t0 + Duration::from_secs(61));
    let again = coordinator
        .lease(&w2, 64, &BTreeSet::new())
        .unwrap();
    assert_eq!(again.jobs.len(), leased, "requeued jobs re-leased intact");
    let mut first: Vec<u64> = grant.jobs.iter().map(|j| j.point.id).collect();
    let mut second: Vec<u64> = again.jobs.iter().map(|j| j.point.id).collect();
    first.sort_unstable();
    second.sort_unstable();
    assert_eq!(first, second, "same experiments, not copies");
}

#[test]
fn heartbeat_extends_the_lease() {
    let shared = SharedService::new(service());
    let (coordinator, clock) = stepped(&shared, fleet_config(500));
    shared.lock().submit(spec_for("bob", "heartbeat")).unwrap();
    let w = coordinator.register(1).unwrap();
    let t0 = clock.now();
    let grant = coordinator.lease(&w, 64, &BTreeSet::new()).unwrap();
    assert!(!grant.jobs.is_empty());

    // Heartbeat at t0+400 pushes the deadline to t0+900.
    clock.set(t0 + Duration::from_millis(400));
    assert!(coordinator
        .heartbeat(&w)
        .unwrap());
    clock.set(t0 + Duration::from_millis(700));
    assert_eq!(
        coordinator.tick(),
        0,
        "lease extended past the original deadline"
    );
    // Silence afterwards: the extended deadline expires.
    clock.set(t0 + Duration::from_millis(1000));
    assert_eq!(
        coordinator.tick(),
        grant.jobs.len()
    );
    // A heartbeat with no lease reports not-extended; an unknown worker
    // is an error.
    clock.set(t0 + Duration::from_millis(1100));
    assert!(!coordinator
        .heartbeat(&w)
        .unwrap());
    assert!(matches!(
        coordinator.heartbeat("worker-999999"),
        Err(FleetError::UnknownWorker(_))
    ));
}

#[test]
fn duplicate_results_are_idempotent_and_first_write_wins() {
    let shared = SharedService::new(service());
    let (coordinator, clock) = stepped(&shared, fleet_config(500));
    let spec = spec_for("carol", "dup");
    let id = shared.lock().submit(spec.clone()).unwrap();

    // Single-node reference report for the byte-identity check at the
    // end.
    let reference = {
        let mut reference_service = service();
        let ref_id = reference_service.submit(spec.clone()).unwrap();
        reference_service.drive(None).unwrap();
        let report = reference_service.engine().report(&ref_id).unwrap();
        report_to_value(&report).pretty()
    };

    let w1 = coordinator.register(1).unwrap();
    let w2 = coordinator.register(1).unwrap();
    let t0 = clock.now();
    let grant = coordinator.lease(&w1, 64, &BTreeSet::new()).unwrap();
    let results: Vec<(String, ExperimentResult)> = grant
        .jobs
        .iter()
        .map(|job| (job.campaign.clone(), execute(job, &spec)))
        .collect();
    let total = results.len();
    assert!(total >= 2, "need at least two experiments for this test");

    // First upload of the first result: accepted.
    clock.set(t0 + Duration::from_millis(50));
    let first = coordinator
        .report_results(&w1, results[..1].to_vec())
        .unwrap();
    assert_eq!((first.accepted, first.duplicates), (1, 0));
    // The identical upload again: pure duplicate, first write wins.
    clock.set(t0 + Duration::from_millis(60));
    let dup = coordinator
        .report_results(&w1, results[..1].to_vec())
        .unwrap();
    assert_eq!((dup.accepted, dup.duplicates), (0, 1));

    // w1 goes silent; its remaining jobs expire and are re-leased to
    // w2 (the results upload does NOT extend the lease deadline).
    clock.set(t0 + Duration::from_millis(600));
    assert_eq!(
        coordinator.tick(),
        total - 1
    );
    clock.set(t0 + Duration::from_millis(700));
    let again = coordinator
        .lease(&w2, 64, &BTreeSet::new())
        .unwrap();
    assert_eq!(again.jobs.len(), total - 1);

    // The slow w1 upload still lands first: accepted (first write wins
    // the race against the re-execution).
    clock.set(t0 + Duration::from_millis(800));
    let late = coordinator
        .report_results(&w1, results[1..].to_vec())
        .unwrap();
    assert_eq!(late.accepted as usize, total - 1);
    assert_eq!(late.completed, vec![id.clone()], "campaign completed");

    // w2 finishes its (now redundant) batch: every result a duplicate.
    let redundant: Vec<(String, ExperimentResult)> = again
        .jobs
        .iter()
        .map(|job| (job.campaign.clone(), execute(job, &spec)))
        .collect();
    clock.set(t0 + Duration::from_millis(900));
    let dup2 = coordinator
        .report_results(&w2, redundant)
        .unwrap();
    assert_eq!(dup2.accepted, 0);
    assert_eq!(dup2.duplicates as usize, total - 1);

    // Despite the expiry, the re-lease, and every duplicate, the final
    // report is byte-identical to the single-node run.
    let report = shared.lock().engine().report(&id).unwrap();
    assert_eq!(report_to_value(&report).pretty(), reference);
}

#[test]
fn an_upload_whose_checkpoint_append_failed_is_recorded_once_on_retry() {
    let dir = std::env::temp_dir().join(format!(
        "cluster-failed-append-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let persistent = CampaignService::new(
        EngineConfig {
            data_dir: Some(dir.clone()),
            ..EngineConfig::default()
        },
        HostRegistry::with_noop(),
    )
    .unwrap();
    let shared = SharedService::new(persistent);
    let (coordinator, _clock) = stepped(&shared, fleet_config(500));
    let spec = spec_for("erin", "append");
    let id = shared.lock().submit(spec.clone()).unwrap();
    let reference = {
        let mut reference_service = service();
        let ref_id = reference_service.submit(spec.clone()).unwrap();
        reference_service.drive(None).unwrap();
        report_to_value(&reference_service.engine().report(&ref_id).unwrap()).pretty()
    };

    let worker = coordinator.register(1).unwrap();
    let grant = coordinator.lease(&worker, 64, &BTreeSet::new()).unwrap();
    let results: Vec<(String, ExperimentResult)> = grant
        .jobs
        .iter()
        .map(|job| (job.campaign.clone(), execute(job, &spec)))
        .collect();

    // The checkpoint the lease checked out becomes a directory: the
    // upload's first append fails, and the worker will retry.
    let checkpoint = dir.join("checkpoints").join(format!("{id}.jsonl"));
    let aside = dir.join("checkpoint.aside");
    std::fs::rename(&checkpoint, &aside).unwrap();
    std::fs::create_dir(&checkpoint).unwrap();
    assert!(matches!(
        coordinator.report_results(&worker, results.clone()),
        Err(FleetError::Io(_))
    ));
    std::fs::remove_dir(&checkpoint).unwrap();
    std::fs::rename(&aside, &checkpoint).unwrap();

    let retry = coordinator.report_results(&worker, results.clone()).unwrap();
    assert_eq!((retry.accepted as usize, retry.duplicates), (results.len(), 0));
    assert_eq!(retry.completed, vec![id.clone()], "campaign completed");
    let report = shared.lock().engine().report(&id).unwrap();
    assert_eq!(
        report_to_value(&report).pretty(),
        reference,
        "each result counted once"
    );
    drop(coordinator);
    drop(shared);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registration_survives_coordinator_restart() {
    let dir = std::env::temp_dir().join(format!(
        "cluster-registry-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = FleetConfig {
        data_dir: Some(dir.clone()),
        ..fleet_config(500)
    };
    let (w1, w2);
    {
        let shared = SharedService::new(service());
        let coordinator = Coordinator::new(shared.clone(), config.clone()).unwrap();
        w1 = coordinator.register(2).unwrap();
        w2 = coordinator.register(4).unwrap();
        assert_ne!(w1, w2);
        // Coordinator "crashes" here.
    }
    {
        let shared = SharedService::new(service());
        let coordinator = Coordinator::new(shared.clone(), config.clone()).unwrap();
        shared.lock().submit(spec_for("dave", "restart")).unwrap();
        // The pre-restart worker ids still lease without re-registering.
        let grant = coordinator
            .lease(&w1, 4, &BTreeSet::new())
            .unwrap();
        assert!(!grant.jobs.is_empty(), "restored worker leases fine");
        assert!(coordinator.heartbeat(&w2).is_ok());
        // New registrations continue the id sequence, no collisions.
        let w3 = coordinator.register(1).unwrap();
        assert_ne!(w3, w1);
        assert_ne!(w3, w2);
        // An id never registered is still refused.
        assert!(matches!(
            coordinator.lease("worker-424242", 1, &BTreeSet::new()),
            Err(FleetError::UnknownWorker(_))
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_registration_costs_only_itself() {
    let dir = std::env::temp_dir().join(format!(
        "cluster-registry-torn-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = FleetConfig {
        data_dir: Some(dir.clone()),
        ..fleet_config(500)
    };
    let open = || Coordinator::new(SharedService::new(service()), config.clone()).unwrap();
    let (w1, w2) = {
        let coordinator = open();
        (
            coordinator.register(2).unwrap(),
            coordinator.register(4).unwrap(),
        )
    };
    // The coordinator dies half way through appending a third worker.
    let path = dir.join("fleet-workers.jsonl");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(b"{\"id\":\"worker-0000");
    std::fs::write(&path, bytes).unwrap();
    // The restart drops the torn line and repairs the file, so the next
    // registration starts on a line of its own...
    let w3 = open().register(1).unwrap();
    // ...and is still there, with the two before it, after another restart.
    let coordinator = open();
    for worker in [&w1, &w2, &w3] {
        assert!(coordinator.heartbeat(worker).is_ok(), "{worker} lost");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn new_lease_supersedes_a_live_workers_dropped_jobs() {
    // A worker that stays alive (heartbeating, re-leasing) but never
    // uploads its batch — upload retries exhausted, or jobs skipped
    // because the campaign would not build locally — must not wedge
    // the campaign: expiry never fires for a live worker, so the next
    // lease request requeues the dropped jobs itself.
    let shared = SharedService::new(service());
    let (coordinator, clock) = stepped(&shared, fleet_config(500));
    let spec = spec_for("erin", "supersede");
    let id = shared.lock().submit(spec.clone()).unwrap();
    let w = coordinator.register(1).unwrap();
    let t0 = clock.now();
    let first = coordinator.lease(&w, 64, &BTreeSet::new()).unwrap();
    let total = first.jobs.len();
    assert!(total >= 2);

    // The worker stays in contact (heartbeats extend the lease), so a
    // tick never expires it…
    clock.set(t0 + Duration::from_millis(400));
    coordinator
        .heartbeat(&w)
        .unwrap();
    clock.set(t0 + Duration::from_millis(700));
    assert_eq!(coordinator.tick(), 0);

    // …but its next lease request supersedes the dropped batch: the
    // jobs are requeued and handed straight back.
    let known: BTreeSet<String> = [id.clone()].into_iter().collect();
    clock.set(t0 + Duration::from_millis(800));
    let second = coordinator
        .lease(&w, 64, &known)
        .unwrap();
    assert_eq!(second.jobs.len(), total, "dropped jobs re-granted");
    assert!(second.new_campaigns.is_empty(), "spec already known");
    assert_eq!(coordinator.jobs_requeued_total(), total as u64);

    // This time the batch is executed and uploaded; completion and the
    // report work exactly as if nothing had been dropped.
    let results: Vec<(String, ExperimentResult)> = second
        .jobs
        .iter()
        .map(|job| (job.campaign.clone(), execute(job, &spec)))
        .collect();
    clock.set(t0 + Duration::from_millis(900));
    let summary = coordinator
        .report_results(&w, results)
        .unwrap();
    assert_eq!(summary.accepted as usize, total);
    assert_eq!(summary.completed, vec![id.clone()]);
    assert!(shared.lock().engine().report(&id).is_some());
    // No further requeues: the superseding lease was resolved cleanly.
    assert_eq!(coordinator.jobs_requeued_total(), total as u64);
}

/// A coordinator on a stepped clock that also counts the coordinator's
/// readings: every operation reads the clock once it holds the fleet
/// lock, so a count that moved says the operation got that far.
fn counted(shared: &SharedService) -> (Coordinator, Clock, Arc<AtomicUsize>) {
    let clock = Clock::new();
    let reads = Arc::new(AtomicUsize::new(0));
    let coordinator = {
        let (clock, reads) = (clock.clone(), reads.clone());
        Coordinator::with_clock(shared.clone(), fleet_config(500), move || {
            reads.fetch_add(1, Ordering::SeqCst);
            clock.now()
        })
        .unwrap()
    };
    (coordinator, clock, reads)
}

/// Spins until `reads` moves past `before`.
fn await_read(reads: &AtomicUsize, before: usize) {
    while reads.load(Ordering::SeqCst) == before {
        std::thread::yield_now();
    }
}

/// The value of an unlabelled fleet series on `/metrics`.
fn series(shared: &SharedService, name: &str) -> u64 {
    let metrics = shared.metrics_registry().render();
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from:\n{metrics}"))
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn a_campaign_completed_while_a_lease_fills_costs_the_lease_only_its_jobs() {
    // A lease pops a campaign's requeued jobs, then releases the fleet
    // lock to check the next campaign out. Meanwhile the worker whose
    // lease expired uploads those jobs' results late: the campaign
    // completes and leaves the fleet. The lease must neither panic nor
    // grant the completed campaign's jobs.
    let shared = SharedService::new(service());
    let (coordinator, clock, reads) = counted(&shared);
    let spec = spec_for("frank", "race");
    let first = shared.lock().submit(spec.clone()).unwrap();
    let w1 = coordinator.register(1).unwrap();
    let w2 = coordinator.register(1).unwrap();
    let t0 = clock.now();
    let grant = coordinator.lease(&w1, 64, &BTreeSet::new()).unwrap();
    let results: Vec<(String, ExperimentResult)> = grant
        .jobs
        .iter()
        .map(|job| (job.campaign.clone(), execute(job, &spec)))
        .collect();
    let leased = results.len();
    clock.set(t0 + Duration::from_millis(600));
    assert_eq!(coordinator.tick(), leased, "w1's lease expired");
    let second = shared.lock().submit(spec_for("frank", "next")).unwrap();

    // Holding the service lock parks w2's lease in the checkout of
    // `second`, after it popped every requeued job of `first`.
    let held = shared.lock();
    std::thread::scope(|s| {
        let coordinator = &coordinator;
        let lease = s.spawn(|| coordinator.lease(&w2, 64, &BTreeSet::new()));
        // The lease publishes its jobs in flight before it lets go of
        // the fleet lock to check `second` out.
        while series(&shared, "profipy_fleet_jobs_leased") < leased as u64 {
            std::thread::yield_now();
        }
        // w1's late upload holds the fleet lock from its clock reading
        // until it has checked `first` in, so once it has read the
        // clock, `first` leaves the fleet before the lease gets the
        // lock back.
        let before = reads.load(Ordering::SeqCst);
        let upload = s.spawn(move || coordinator.report_results(&w1, results));
        await_read(&reads, before);
        drop(held);
        let summary = upload.join().unwrap().unwrap();
        assert_eq!(summary.completed, vec![first.clone()]);
        let grant = lease.join().unwrap().unwrap();
        assert!(!grant.jobs.is_empty(), "`second` was checked out and leased");
        assert!(
            grant.jobs.iter().all(|job| job.campaign == second),
            "a completed campaign's jobs were granted"
        );
        let specs: Vec<&str> = grant.new_campaigns.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(specs, vec![second.as_str()]);
    });
}

#[test]
fn a_drain_during_a_lease_checkout_returns_the_campaign_it_checked_out() {
    // A lease that finds no pending work releases the fleet lock to
    // check the next campaign out; a shutdown drain runs meanwhile. The
    // campaign the lease then checks out must go straight back to the
    // queue, not sit in a drained fleet as `Running`.
    let shared = SharedService::new(service());
    let (coordinator, _clock, reads) = counted(&shared);
    let id = shared.lock().submit(spec_for("grace", "drain")).unwrap();
    let w = coordinator.register(1).unwrap();

    // Holding the service lock parks the lease in the checkout.
    let held = shared.lock();
    std::thread::scope(|s| {
        let coordinator = &coordinator;
        let before = reads.load(Ordering::SeqCst);
        let lease = s.spawn(|| coordinator.lease(&w, 64, &BTreeSet::new()));
        // The lease reads the clock under the fleet lock; the drain
        // below gets that lock only once the lease has let go of it to
        // check the campaign out.
        await_read(&reads, before);
        coordinator.drain().unwrap();
        drop(held);
        let grant = lease.join().unwrap().unwrap();
        assert!(grant.jobs.is_empty(), "a drained fleet granted jobs");
    });
    let status = shared.lock().engine().status_board().get(&id).unwrap();
    assert_eq!(status.state, JobState::Queued);
}
