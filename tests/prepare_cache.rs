//! "Were these deploys cold?" answered exactly, from `/metrics` alone.
//!
//! The prepare cache's counters are the process's, so
//! `http_service.rs`, whose tests share one, can only bound them from
//! below. This binary is one test and one server: a never-seen campaign
//! seeds and hits once per experiment and parses nothing, the same
//! campaign again only hits.

use campaign::{ApiConfig, ApiServer, CampaignService, CampaignSpec, EngineConfig, HostRegistry};
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
    return target.transfer(round)
";

/// Submits the campaign, waits for its report, returns its experiment
/// count.
fn run_campaign(client: &mut httpd::Client, user: &str) -> u64 {
    let spec = CampaignSpec::new(
        user,
        "campaign",
        "noop",
        vec![("target".into(), TARGET.into())],
        WORKLOAD.into(),
        faultdsl::predefined_models(),
    );
    let resp = client.post_json("/api/campaigns", &spec.to_json()).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = jsonlite::parse(&resp.text())
        .unwrap()
        .req_str("id")
        .unwrap()
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    while client
        .get(&format!("/api/campaigns/{id}/report"))
        .unwrap()
        .status
        != 200
    {
        assert!(Instant::now() < deadline, "campaign never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let status = client.get(&format!("/api/campaigns/{id}")).unwrap().text();
    jsonlite::parse(&status)
        .unwrap()
        .req_u64("total_experiments")
        .unwrap()
}

/// `[seeded, hits, misses]` as `/metrics` shows them.
fn counters(client: &mut httpd::Client) -> [u64; 3] {
    let metrics = client.get("/metrics").unwrap().text();
    obs::validate_exposition(&metrics).expect("a valid exposition");
    ["seeded", "hits", "misses"].map(|which| {
        let name = format!("sandbox_prepare_cache_{which}_total");
        assert!(
            metrics.contains(&format!("# TYPE {name} counter")),
            "{metrics}"
        );
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(name.as_str())?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no sample of {name}\n{metrics}"))
            .parse()
            .expect("counter value")
    })
}

#[test]
fn a_new_campaign_seeds_and_hits_and_the_same_again_only_hits() {
    let service = CampaignService::new(EngineConfig::default(), HostRegistry::with_noop()).unwrap();
    let api = ApiServer::serve("127.0.0.1:0", service, ApiConfig::default()).unwrap();
    let mut client = httpd::Client::new(api.addr().to_string());
    assert_eq!(counters(&mut client), [0, 0, 0]);

    // Every window of this target lies under a `def`: each mutant is
    // prepared as an override when it is rendered, entered when it
    // runs, and found by its deploy.
    let experiments = run_campaign(&mut client, "first");
    assert!(experiments > 0);
    assert_eq!(counters(&mut client), [experiments, experiments, 0]);

    // The same sources and model from another user: the rendered
    // mutants are reused, so nothing is rendered, nothing seeded, and
    // every deploy finds what the first campaign's left.
    assert_eq!(run_campaign(&mut client, "second"), experiments);
    assert_eq!(counters(&mut client), [experiments, 2 * experiments, 0]);
    api.shutdown();
}
