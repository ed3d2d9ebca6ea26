//! A workload that recurses to the interpreter's depth limit, each
//! frame evaluating an expression nested as deep as the parser admits,
//! submitted with coverage pruning to a fleet coordinator with one
//! worker. The coordinator checks the campaign out — its fault-free
//! coverage run included — while it answers that worker's lease
//! request. The run must end the campaign `failed` with `RuntimeError:
//! maximum recursion depth exceeded`, and the coordinator must keep
//! answering, instead of overflowing a request thread's stack.
//!
//! A test binary of its own: a thread that overflows its stack aborts
//! the whole process, so a regression takes down only this file.

use campaign::{ApiConfig, CampaignService, CampaignSpec, EngineConfig, HostRegistry};
use cluster::{FleetConfig, FleetServer, WorkerAgent, WorkerConfig};
use std::time::{Duration, Instant};

const TARGET: &str = "def transfer(amount):
    checked = validate(amount)
    return checked

def validate(amount):
    if amount > 0:
        return amount
    return 0
";

/// `f` returns `-(-(…f(n + 1)…))` from inside `try`/`finally`, with as
/// many negations as the parser admits.
fn deep_workload() -> String {
    let workload = |levels: usize| {
        format!(
            "def f(n):\n    try:\n        return {}f(n + 1){}\n    finally:\n        pass\n\n\
             def run(round):\n    f(0)\n",
            "-(".repeat(levels),
            ")".repeat(levels),
        )
    };
    let levels = (1..=pysrc::parser::MAX_NESTING)
        .rev()
        .find(|&n| pysrc::parse_module(&workload(n), "workload.py").is_ok())
        .expect("some nesting parses");
    assert!(levels > 50, "the parser admits {levels} levels");
    workload(levels)
}

#[test]
fn deepest_recursion_in_a_coverage_run_fails_the_campaign_not_the_coordinator() {
    let service = CampaignService::new(EngineConfig::default(), HostRegistry::with_noop()).unwrap();
    let fleet = FleetServer::serve(
        "127.0.0.1:0",
        service,
        ApiConfig::default(),
        FleetConfig::default(),
    )
    .unwrap();
    let addr = fleet.addr().to_string();
    let mut client = httpd::Client::new(&addr);

    let mut spec = CampaignSpec::new(
        "deep",
        "pruned",
        "noop",
        vec![("target".into(), TARGET.into())],
        deep_workload(),
        faultdsl::predefined_models(),
    );
    spec.filter.sample = 2;
    spec.prune_by_coverage = true;
    let resp = client
        .post_json("/api/campaigns", &spec.to_json())
        .expect("submit");
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = jsonlite::parse(&resp.text())
        .unwrap()
        .req_str("id")
        .unwrap()
        .to_string();

    let worker = WorkerAgent::start(
        WorkerConfig {
            parallelism: 1,
            ..WorkerConfig::new(addr.clone())
        },
        HostRegistry::with_noop(),
    )
    .unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        let status = client.get(&format!("/api/campaigns/{id}")).expect("poll");
        assert_eq!(status.status, 200);
        let v = jsonlite::parse(&status.text()).unwrap();
        if matches!(v.req_str("state").unwrap(), "completed" | "failed") {
            break v;
        }
        assert!(Instant::now() < deadline, "poll timed out");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(status.req_str("state").unwrap(), "failed", "{status:?}");
    let error = status.req_str("error").unwrap();
    assert!(
        error.contains("maximum recursion depth exceeded"),
        "{error}"
    );
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);

    worker.stop();
    fleet.shutdown();
}
