//! "Did these deploys parse anything?" answered exactly, from
//! `/metrics` alone.
//!
//! `sandbox`'s process-wide prepare cache serves only text that came
//! from elsewhere (a fleet lease, a library caller, a window under no
//! `def`); a campaign the service renders itself carries each mutant's
//! override from render to deploy, and its coverage run attaches the
//! modules it instruments. This binary is one test and one server: a
//! never-seen campaign moves neither of the cache's counters, and
//! neither does the same campaign again.

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

/// `[hits, misses]` as `/metrics` shows them.
fn counters(client: &mut httpd::Client) -> [u64; 2] {
    let metrics = client.get("/metrics").unwrap().text();
    obs::validate_exposition(&metrics).expect("a valid exposition");
    ["hits", "misses"].map(|which| {
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
fn a_new_campaign_parses_nothing_and_neither_does_the_same_again() {
    let service = CampaignService::new(EngineConfig::default(), HostRegistry::with_noop()).unwrap();
    let api = ApiServer::serve("127.0.0.1:0", service, ApiConfig::default()).unwrap();
    let mut client = httpd::Client::new(api.addr().to_string());
    assert_eq!(counters(&mut client), [0, 0]);

    // Every window of this target lies under a `def`: each mutant is
    // prepared as an override when it is rendered and attached to the
    // image it runs in, so no deploy looks its text up.
    let experiments = run_campaign(&mut client, "first");
    assert!(experiments > 0);
    assert_eq!(counters(&mut client), [0, 0]);

    // The same sources and model from another user: the mutant cache
    // hands back each mutant with its override, so nothing is rendered
    // and still nothing is looked up.
    assert_eq!(run_campaign(&mut client, "second"), experiments);
    assert_eq!(counters(&mut client), [0, 0]);
    api.shutdown();
}
