//! A coordinator's shutdown drain that cannot return a campaign to the
//! engine says so at error level instead of dropping the error, and
//! still returns the other campaigns and leaves a clean lease WAL. A
//! test binary of its own: it points the process-wide event log at a
//! file.

use campaign::{ApiConfig, CampaignService, CampaignSpec, EngineConfig, HostRegistry, JobState};
use cluster::{FleetConfig, FleetServer, LeaseLog};
use std::collections::BTreeSet;

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

#[test]
fn a_drain_that_cannot_return_a_campaign_is_logged_not_dropped() {
    let dir = std::env::temp_dir().join(format!("cluster-drain-failure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log = dir.with_extension("log");
    let engine = EngineConfig {
        data_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };
    let mut service = CampaignService::new(engine, HostRegistry::with_noop()).unwrap();
    let spec = |name: &str| {
        CampaignSpec::new(
            "erin",
            name,
            "noop",
            vec![("target".into(), TARGET.into())],
            WORKLOAD.into(),
            faultdsl::predefined_models(),
        )
    };
    let id = service.submit(spec("drain")).unwrap();
    let other = service.submit(spec("drain-too")).unwrap();
    let fleet_config = FleetConfig {
        data_dir: Some(dir.clone()),
        ..FleetConfig::default()
    };
    let fleet =
        FleetServer::serve("127.0.0.1:0", service, ApiConfig::default(), fleet_config).unwrap();
    // A lease checks both campaigns out of the engine. Returning the
    // first at shutdown rewrites its job file, where a directory now
    // stands.
    let coordinator = fleet.coordinator();
    let worker = coordinator.register(1).unwrap();
    let grant = coordinator.lease(&worker, 64, &BTreeSet::new()).unwrap();
    for campaign in [&id, &other] {
        assert!(grant.jobs.iter().any(|job| job.campaign == *campaign));
    }
    let job_file = dir.join("queue").join(format!("{id}.json"));
    std::fs::remove_file(&job_file).unwrap();
    std::fs::create_dir_all(job_file.join("occupied")).unwrap();

    obs::log::set_file(&log).unwrap();
    let mut service = fleet.shutdown();
    obs::log::set_stderr();
    let lines = std::fs::read_to_string(&log).unwrap();
    let failure = lines
        .lines()
        .find(|line| line.contains("\"event\":\"fleet_drain_failed\""))
        .unwrap_or_else(|| panic!("no drain failure logged:\n{lines}"));
    assert!(failure.contains("\"level\":\"error\""), "{failure}");
    assert!(failure.contains("\"error\":\""), "{failure}");
    // The failure stopped neither the other campaign's return nor the
    // WAL's cleanup: a restart has no lease to re-arm.
    let status = service.engine().status_board().get(&other).unwrap();
    assert_eq!(status.state, JobState::Queued);
    let wal = LeaseLog::open(&dir.join("fleet-leases.jsonl")).unwrap();
    assert!(wal.state().leases.is_empty(), "{:?}", wal.state().leases);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&log);
}
