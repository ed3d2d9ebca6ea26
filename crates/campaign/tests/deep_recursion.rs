//! A workload that recurses to the interpreter's depth limit, each
//! frame evaluating an expression nested as deep as the parser admits,
//! submitted to a running server whose executor has one worker — so
//! the coverage run and the experiments run on the service's own
//! threads rather than on executor workers. Each must end in
//! `RuntimeError: maximum recursion depth exceeded`, not in a stack
//! overflow that aborts the server.
//!
//! A test binary of its own: a thread that overflows its stack aborts
//! the whole process, so a regression takes down only this file.

use campaign::{ApiConfig, ApiServer, CampaignService, CampaignSpec, EngineConfig, HostRegistry};
use sandbox::ParallelExecutor;
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

fn spec(name: &str, prune_by_coverage: bool) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        "deep",
        name,
        "noop",
        vec![("target".into(), TARGET.into())],
        deep_workload(),
        faultdsl::predefined_models(),
    );
    spec.filter.sample = 2;
    spec.prune_by_coverage = prune_by_coverage;
    spec
}

/// Submits `spec` and polls it to a final state, returning the status.
fn run_to_end(client: &mut httpd::Client, spec: &CampaignSpec) -> jsonlite::Value {
    let resp = client
        .post_json("/api/campaigns", &spec.to_json())
        .expect("submit");
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = jsonlite::parse(&resp.text())
        .unwrap()
        .req_str("id")
        .unwrap()
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client.get(&format!("/api/campaigns/{id}")).expect("poll");
        assert_eq!(status.status, 200);
        let v = jsonlite::parse(&status.text()).unwrap();
        if matches!(v.req_str("state").unwrap(), "completed" | "failed") {
            return v;
        }
        assert!(Instant::now() < deadline, "poll timed out");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn deepest_recursion_ends_in_runtime_error_on_a_one_worker_server() {
    let engine = EngineConfig {
        executor: ParallelExecutor::new(2),
        ..EngineConfig::default()
    };
    assert_eq!(engine.executor.effective_workers(usize::MAX), 1);
    let service = CampaignService::new(engine, HostRegistry::with_noop()).unwrap();
    let api = ApiServer::serve("127.0.0.1:0", service, ApiConfig::default()).unwrap();
    let mut client = httpd::Client::new(api.addr().to_string());

    // The coverage run fails the campaign with the interpreter's error.
    let pruned = run_to_end(&mut client, &spec("pruned", true));
    assert_eq!(pruned.req_str("state").unwrap(), "failed", "{pruned:?}");
    let error = pruned.req_str("error").unwrap();
    assert!(
        error.contains("maximum recursion depth exceeded"),
        "{error}"
    );

    // Without pruning each experiment records it as the workload's
    // failure, and the campaign completes.
    let unpruned = run_to_end(&mut client, &spec("unpruned", false));
    assert_eq!(
        unpruned.req_str("state").unwrap(),
        "completed",
        "{unpruned:?}"
    );

    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    api.shutdown();
}
