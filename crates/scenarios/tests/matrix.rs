//! The scenario-matrix acceptance test (the PR's hard invariant): a
//! matrix of ≥ 3 targets × ≥ 6 fault models completes deterministically
//! — every cell's report byte-identical between the in-process
//! single-node service and a 2-worker fleet — and the aggregated
//! failure-class distribution renders as a valid `/metrics` exposition
//! (`campaign_failure_class_total{target,model,class}`) covering every
//! observed class.

use campaign::{ApiConfig, ApiServer, CampaignService, EngineConfig, HostRegistry, SharedService};
use cluster::{FleetConfig, FleetServer, WorkerAgent, WorkerConfig};
use scenarios::{default_corpus, noop_catalog, Matrix};
use std::collections::BTreeSet;
use std::time::Duration;

fn service() -> CampaignService {
    CampaignService::new(EngineConfig::default(), HostRegistry::with_noop()).unwrap()
}

fn matrix() -> Matrix {
    let mut matrix = Matrix::new(noop_catalog(), default_corpus());
    // Cap each cell so the full cross-product stays test-sized; the
    // cap is part of the spec, so both runs sample identically.
    matrix.sample_per_cell = 3;
    matrix
}

#[test]
fn matrix_is_byte_identical_between_single_node_and_fleet_and_exports_metrics() {
    let matrix = matrix();
    let cells = matrix.cells();
    let targets: BTreeSet<&str> = cells.iter().map(|c| c.target.as_str()).collect();
    assert!(targets.len() >= 3, "need >= 3 targets, got {targets:?}");
    for target in &targets {
        let models = cells.iter().filter(|c| &c.target.as_str() == target).count();
        assert!(models >= 6, "target {target} runs {models} models, need >= 6");
    }

    // Reference: the whole matrix through the in-process service.
    let local = matrix.run_local(&mut service()).expect("local matrix run");
    assert_eq!(local.cells.len(), cells.len());

    // The same matrix through a coordinator with two worker agents.
    let fleet = FleetServer::serve(
        "127.0.0.1:0",
        service(),
        ApiConfig::default(),
        FleetConfig {
            lease_ttl: Duration::from_secs(5),
            ..FleetConfig::default()
        },
    )
    .unwrap();
    let addr = fleet.addr().to_string();
    let agent = |parallelism| {
        WorkerAgent::start(
            WorkerConfig {
                parallelism,
                ..WorkerConfig::new(addr.clone())
            },
            HostRegistry::with_noop(),
        )
        .unwrap()
    };
    let w1 = agent(2);
    let w2 = agent(2);
    let distributed = matrix
        .run_http(&addr, Duration::from_secs(300))
        .expect("fleet matrix run");
    let (s1, s2) = (w1.stop(), w2.stop());
    assert!(
        s1.executed + s2.executed > 0,
        "agents executed the matrix: {s1:?} {s2:?}"
    );
    fleet.shutdown();

    // THE invariant: every cell byte-identical across execution paths.
    assert_eq!(local.cells.len(), distributed.cells.len());
    for (a, b) in local.cells.iter().zip(&distributed.cells) {
        assert_eq!((&a.target, &a.model), (&b.target, &b.model), "cell order");
        assert_eq!(
            a.report_json, b.report_json,
            "cell {}/{} diverged between single-node and fleet",
            a.target, a.model
        );
    }

    // The matrix observed real failures across multiple classes.
    assert!(
        local.cells.iter().any(|c| c.failures > 0),
        "no cell failed — the corpus is not injecting\n{}",
        local.render_text()
    );
    let classes: BTreeSet<String> = local
        .cells
        .iter()
        .flat_map(|c| c.classes.keys().cloned())
        .collect();
    assert!(
        classes.len() >= 3,
        "expected a diverse class distribution, got {classes:?}"
    );

    // Export through a live API server's registry and scrape /metrics:
    // valid exposition, every observed (target, model, class) sampled.
    let shared = SharedService::new(service());
    let registry = shared.metrics_registry();
    let api = ApiServer::serve_with(
        "127.0.0.1:0",
        shared,
        ApiConfig::default(),
        scenarios::api::mount,
    )
    .unwrap();
    local.export_metrics(&registry);
    let mut client = httpd::Client::new(api.addr().to_string());
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    obs::validate_exposition(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    for ((target, model, class), n) in local.class_totals() {
        let sample = format!(
            "campaign_failure_class_total{{target=\"{target}\",model=\"{model}\",class=\"{class}\"}} {n}"
        );
        assert!(text.contains(&sample), "missing sample {sample}\n{text}");
    }
    api.shutdown();
}

#[test]
fn api_matrix_lists_the_catalog() {
    let api = ApiServer::serve_with(
        "127.0.0.1:0",
        SharedService::new(service()),
        ApiConfig::default(),
        scenarios::api::mount,
    )
    .unwrap();
    let mut client = httpd::Client::new(api.addr().to_string());
    let resp = client.get("/api/matrix").unwrap();
    assert_eq!(resp.status, 200);
    let v = jsonlite::parse(&resp.text()).unwrap();
    assert!(v.req("targets").unwrap().as_arr().unwrap().len() >= 4);
    assert!(v.req("models").unwrap().as_arr().unwrap().len() >= 6);
    assert!(!v.req("cells").unwrap().as_arr().unwrap().is_empty());
    // The campaign surface still works next to the mounted route.
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    api.shutdown();
}
