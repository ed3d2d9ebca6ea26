//! The lease lifecycle, pinned deterministically: every time-dependent
//! coordinator operation is driven through its `_at(now)` form with
//! synthetic instants — no sleeps, no timing flakes.
//!
//! * expiry requeues a silent worker's jobs exactly once;
//! * duplicate result uploads are idempotent (first write wins), even
//!   across an expiry/re-lease race;
//! * a heartbeat extends the lease;
//! * worker registration survives a coordinator restart via the
//!   registry log.

use campaign::{
    report_to_value, CampaignService, CampaignSpec, EngineConfig, HostRegistry, SharedService,
};
use cluster::{Coordinator, FleetConfig, FleetError, LeasedJob};
use profipy::ExperimentResult;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

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
    let coordinator = Coordinator::new(shared.clone(), fleet_config(500)).unwrap();
    let id = shared.lock().submit(spec_for("alice", "expiry")).unwrap();
    let w1 = coordinator.register(1).unwrap();
    let t0 = Instant::now();
    let grant = coordinator
        .lease_at(&w1, 64, &BTreeSet::new(), t0)
        .unwrap();
    let leased = grant.jobs.len();
    assert!(leased > 0, "campaign has experiments to lease");
    assert_eq!(grant.new_campaigns.len(), 1, "spec shipped on first lease");

    // Before the deadline nothing expires.
    assert_eq!(coordinator.tick_at(t0 + Duration::from_millis(400)), 0);
    // Past it, every leased job is requeued…
    assert_eq!(
        coordinator.tick_at(t0 + Duration::from_millis(600)),
        leased,
        "all leased jobs requeued on expiry"
    );
    // …exactly once: the lease is gone, further ticks find nothing.
    assert_eq!(coordinator.tick_at(t0 + Duration::from_millis(700)), 0);
    assert_eq!(coordinator.tick_at(t0 + Duration::from_secs(60)), 0);
    assert_eq!(coordinator.jobs_requeued_total(), leased as u64);
    let requeues = coordinator.requeue_counts(&id);
    assert_eq!(requeues.len(), leased);
    assert!(requeues.values().all(|&n| n == 1), "{requeues:?}");

    // A second worker picks the same jobs up again.
    let w2 = coordinator.register(1).unwrap();
    let again = coordinator
        .lease_at(&w2, 64, &BTreeSet::new(), t0 + Duration::from_secs(61))
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
    let coordinator = Coordinator::new(shared.clone(), fleet_config(500)).unwrap();
    shared.lock().submit(spec_for("bob", "heartbeat")).unwrap();
    let w = coordinator.register(1).unwrap();
    let t0 = Instant::now();
    let grant = coordinator.lease_at(&w, 64, &BTreeSet::new(), t0).unwrap();
    assert!(!grant.jobs.is_empty());

    // Heartbeat at t0+400 pushes the deadline to t0+900.
    assert!(coordinator
        .heartbeat_at(&w, t0 + Duration::from_millis(400))
        .unwrap());
    assert_eq!(
        coordinator.tick_at(t0 + Duration::from_millis(700)),
        0,
        "lease extended past the original deadline"
    );
    // Silence afterwards: the extended deadline expires.
    assert_eq!(
        coordinator.tick_at(t0 + Duration::from_millis(1000)),
        grant.jobs.len()
    );
    // A heartbeat with no lease reports not-extended; an unknown worker
    // is an error.
    assert!(!coordinator
        .heartbeat_at(&w, t0 + Duration::from_millis(1100))
        .unwrap());
    assert!(matches!(
        coordinator.heartbeat_at("worker-999999", t0),
        Err(FleetError::UnknownWorker(_))
    ));
}

#[test]
fn duplicate_results_are_idempotent_and_first_write_wins() {
    let shared = SharedService::new(service());
    let coordinator = Coordinator::new(shared.clone(), fleet_config(500)).unwrap();
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
    let t0 = Instant::now();
    let grant = coordinator.lease_at(&w1, 64, &BTreeSet::new(), t0).unwrap();
    let results: Vec<(String, ExperimentResult)> = grant
        .jobs
        .iter()
        .map(|job| (job.campaign.clone(), execute(job, &spec)))
        .collect();
    let total = results.len();
    assert!(total >= 2, "need at least two experiments for this test");

    // First upload of the first result: accepted.
    let first = coordinator
        .report_results_at(&w1, results[..1].to_vec(), t0 + Duration::from_millis(50))
        .unwrap();
    assert_eq!((first.accepted, first.duplicates), (1, 0));
    // The identical upload again: pure duplicate, first write wins.
    let dup = coordinator
        .report_results_at(&w1, results[..1].to_vec(), t0 + Duration::from_millis(60))
        .unwrap();
    assert_eq!((dup.accepted, dup.duplicates), (0, 1));

    // w1 goes silent; its remaining jobs expire and are re-leased to
    // w2 (the results upload does NOT extend the lease deadline).
    assert_eq!(
        coordinator.tick_at(t0 + Duration::from_millis(600)),
        total - 1
    );
    let again = coordinator
        .lease_at(&w2, 64, &BTreeSet::new(), t0 + Duration::from_millis(700))
        .unwrap();
    assert_eq!(again.jobs.len(), total - 1);

    // The slow w1 upload still lands first: accepted (first write wins
    // the race against the re-execution).
    let late = coordinator
        .report_results_at(&w1, results[1..].to_vec(), t0 + Duration::from_millis(800))
        .unwrap();
    assert_eq!(late.accepted as usize, total - 1);
    assert_eq!(late.completed, vec![id.clone()], "campaign completed");

    // w2 finishes its (now redundant) batch: every result a duplicate.
    let redundant: Vec<(String, ExperimentResult)> = again
        .jobs
        .iter()
        .map(|job| (job.campaign.clone(), execute(job, &spec)))
        .collect();
    let dup2 = coordinator
        .report_results_at(&w2, redundant, t0 + Duration::from_millis(900))
        .unwrap();
    assert_eq!(dup2.accepted, 0);
    assert_eq!(dup2.duplicates as usize, total - 1);

    // Despite the expiry, the re-lease, and every duplicate, the final
    // report is byte-identical to the single-node run.
    let report = shared.lock().engine().report(&id).unwrap();
    assert_eq!(report_to_value(&report).pretty(), reference);
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
            .lease_at(&w1, 4, &BTreeSet::new(), Instant::now())
            .unwrap();
        assert!(!grant.jobs.is_empty(), "restored worker leases fine");
        assert!(coordinator.heartbeat(&w2).is_ok());
        // New registrations continue the id sequence, no collisions.
        let w3 = coordinator.register(1).unwrap();
        assert_ne!(w3, w1);
        assert_ne!(w3, w2);
        // An id never registered is still refused.
        assert!(matches!(
            coordinator.lease_at("worker-424242", 1, &BTreeSet::new(), Instant::now()),
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
    let coordinator = Coordinator::new(shared.clone(), fleet_config(500)).unwrap();
    let spec = spec_for("erin", "supersede");
    let id = shared.lock().submit(spec.clone()).unwrap();
    let w = coordinator.register(1).unwrap();
    let t0 = Instant::now();
    let first = coordinator.lease_at(&w, 64, &BTreeSet::new(), t0).unwrap();
    let total = first.jobs.len();
    assert!(total >= 2);

    // The worker stays in contact (heartbeats extend the lease), so a
    // tick never expires it…
    coordinator
        .heartbeat_at(&w, t0 + Duration::from_millis(400))
        .unwrap();
    assert_eq!(coordinator.tick_at(t0 + Duration::from_millis(700)), 0);

    // …but its next lease request supersedes the dropped batch: the
    // jobs are requeued and handed straight back.
    let known: BTreeSet<String> = [id.clone()].into_iter().collect();
    let second = coordinator
        .lease_at(&w, 64, &known, t0 + Duration::from_millis(800))
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
    let summary = coordinator
        .report_results_at(&w, results, t0 + Duration::from_millis(900))
        .unwrap();
    assert_eq!(summary.accepted as usize, total);
    assert_eq!(summary.completed, vec![id.clone()]);
    assert!(shared.lock().engine().report(&id).is_some());
    // No further requeues: the superseding lease was resolved cleanly.
    assert_eq!(coordinator.jobs_requeued_total(), total as u64);
}
