//! A coordinator's shutdown drain that cannot return a campaign to the
//! engine says so at error level instead of dropping the error. A test
//! binary of its own: it points the process-wide event log at a file.

use campaign::{ApiConfig, CampaignService, CampaignSpec, EngineConfig, HostRegistry};
use cluster::{FleetConfig, FleetServer};
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
    let spec = CampaignSpec::new(
        "erin",
        "drain",
        "noop",
        vec![("target".into(), TARGET.into())],
        WORKLOAD.into(),
        faultdsl::predefined_models(),
    );
    let id = service.submit(spec).unwrap();
    let fleet_config = FleetConfig {
        lease_ttl: Duration::from_secs(60),
        ..FleetConfig::default()
    };
    let fleet =
        FleetServer::serve("127.0.0.1:0", service, ApiConfig::default(), fleet_config).unwrap();
    // A lease checks the campaign out of the engine; returning it at
    // shutdown rewrites its job file, in a directory that is gone.
    let coordinator = fleet.coordinator();
    let worker = coordinator.register(1).unwrap();
    let grant = coordinator
        .lease_at(&worker, 4, &BTreeSet::new(), Instant::now())
        .unwrap();
    assert!(!grant.jobs.is_empty() && grant.jobs.iter().all(|job| job.campaign == id));
    std::fs::remove_dir_all(dir.join("queue")).unwrap();

    obs::log::set_file(&log).unwrap();
    fleet.shutdown();
    obs::log::set_stderr();
    let lines = std::fs::read_to_string(&log).unwrap();
    let failure = lines
        .lines()
        .find(|line| line.contains("\"event\":\"fleet_drain_failed\""))
        .unwrap_or_else(|| panic!("no drain failure logged:\n{lines}"));
    assert!(failure.contains("\"level\":\"error\""), "{failure}");
    assert!(failure.contains("\"error\":\""), "{failure}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&log);
}
