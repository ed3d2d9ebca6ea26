//! Observability acceptance: a two-worker distributed campaign must
//! produce (a) a report byte-identical to the in-process run, (b) one
//! valid Prometheus exposition carrying at least one latency-histogram
//! family per layer (httpd, campaign engine, fleet), and (c) a merged
//! trace timeline containing spans from **both** workers next to the
//! coordinator's and engine's own phases.
//!
//! The workers here speak the wire protocol by hand (register → lease →
//! rebind → execute → upload-with-spans) instead of using
//! `WorkerAgent`, so the test controls exactly which worker executes
//! which jobs — both provably participate.

use campaign::{
    report_to_value, ApiConfig, ApiServer, CampaignService, CampaignSpec, EngineConfig,
    FilterSpec, HostRegistry,
};
use cluster::{wire, FleetConfig, FleetServer};
use jsonlite::Value;
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

fn spec_for(user: &str, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        user,
        &format!("{user}-campaign"),
        "noop",
        vec![("target".into(), TARGET.into())],
        WORKLOAD.into(),
        faultdsl::predefined_models(),
    );
    spec.seed = seed;
    spec
}

fn service() -> CampaignService {
    CampaignService::new(EngineConfig::default(), HostRegistry::with_noop()).unwrap()
}

/// One hand-rolled fleet worker: registers over HTTP and pulls/executes
/// leases on demand, shipping phase spans with every upload.
struct ManualWorker {
    id: String,
    client: httpd::Client,
    workflows: std::collections::BTreeMap<String, std::sync::Arc<profipy::workflow::Workflow>>,
    executor: sandbox::ParallelExecutor,
}

impl ManualWorker {
    fn register(addr: &str) -> ManualWorker {
        let mut client = httpd::Client::new(addr).timeout(Duration::from_secs(30));
        let resp = client
            .post_json("/api/workers/register", "{\"parallelism\": 2}")
            .unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
        let id = jsonlite::parse(&resp.text())
            .unwrap()
            .req("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        ManualWorker {
            id,
            client,
            workflows: Default::default(),
            executor: sandbox::ParallelExecutor::new(2),
        }
    }

    /// Lease up to `max_jobs`, execute them, upload results + spans.
    /// Returns `(jobs_executed, campaigns_completed)`.
    fn work_once(&mut self, max_jobs: usize) -> (usize, Vec<String>) {
        let known: Vec<Value> = self.workflows.keys().map(Value::str).collect();
        let request = Value::obj(vec![
            ("max_jobs", Value::UInt(max_jobs as u64)),
            ("known", Value::Arr(known)),
        ])
        .compact();
        let resp = self
            .client
            .post_json(&format!("/api/workers/{}/lease", self.id), &request)
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let lease = wire::lease_from_value(&jsonlite::parse(&resp.text()).unwrap()).unwrap();
        assert!(!lease.trace_id.is_empty(), "lease must carry a trace id");
        let registry = HostRegistry::with_noop();
        for (campaign_id, spec) in lease.new_campaigns {
            let host = registry.get(&spec.host).unwrap();
            let workflow = spec.build_workflow(host, self.executor.clone()).unwrap();
            self.workflows
                .insert(campaign_id, std::sync::Arc::new(workflow));
        }
        if lease.jobs.is_empty() {
            return (0, Vec::new());
        }
        let mut results = Vec::new();
        let mut spans = Vec::new();
        for job in lease.jobs {
            let workflow = self.workflows.get(&job.campaign).expect("spec shipped");
            let point = wire::rebind_point(&job.point, workflow.modules()).unwrap();
            let started = Instant::now();
            let result = workflow.run_experiment_with_sources(&point, &job.sources);
            spans.push(wire::WireSpan {
                campaign: job.campaign.clone(),
                name: format!("execute #{}", result.point_id),
                age: started.elapsed().as_secs_f64(),
                duration: started.elapsed().as_secs_f64(),
                failed: result.failed_round1(),
            });
            results.push((job.campaign, result));
        }
        let executed = results.len();
        let mut body = wire::results_to_value(&results);
        if let Value::Obj(fields) = &mut body {
            fields.push(("trace".to_string(), Value::str(&lease.trace_id)));
            fields.push(("spans".to_string(), wire::spans_to_value(&spans)));
        }
        let resp = self
            .client
            .post_json(
                &format!("/api/workers/{}/results", self.id),
                &body.compact(),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let reply = jsonlite::parse(&resp.text()).unwrap();
        let completed = reply
            .get("completed")
            .and_then(Value::as_arr)
            .map(|ids| {
                ids.iter()
                    .filter_map(Value::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        (executed, completed)
    }
}

#[test]
fn two_worker_fleet_campaign_reports_metrics_and_a_merged_trace() {
    let fleet = FleetServer::serve(
        "127.0.0.1:0",
        service(),
        ApiConfig::default(),
        FleetConfig::default(),
    )
    .unwrap();
    let addr = fleet.addr().to_string();
    let mut client = httpd::Client::new(&addr).timeout(Duration::from_secs(30));

    // /healthz reports the fleet role (and the usual liveness fields).
    let health = jsonlite::parse(&client.get("/healthz").unwrap().text()).unwrap();
    assert_eq!(health.req("role").unwrap().as_str(), Some("fleet"));
    assert_eq!(health.req("status").unwrap().as_str(), Some("ok"));

    // Submit one campaign; no local drive thread runs in fleet mode.
    let resp = client
        .post_json("/api/campaigns", &spec_for("fleetobs", 23).to_json())
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = jsonlite::parse(&resp.text())
        .unwrap()
        .req("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    // Two manual workers alternate small leases until the campaign
    // completes — each must execute at least one experiment.
    let mut w1 = ManualWorker::register(&addr);
    let mut w2 = ManualWorker::register(&addr);
    let (mut done1, mut done2) = (0usize, 0usize);
    let mut completed = false;
    let deadline = Instant::now() + Duration::from_secs(120);
    while !completed {
        assert!(Instant::now() < deadline, "campaign never completed");
        let (n1, c1) = w1.work_once(1);
        done1 += n1;
        let (n2, c2) = w2.work_once(1);
        done2 += n2;
        completed = c1.contains(&id) || c2.contains(&id);
        if n1 == 0 && n2 == 0 && !completed {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    assert!(done1 > 0, "worker 1 executed nothing");
    assert!(done2 > 0, "worker 2 executed nothing");

    // (a) The distributed report is byte-identical to the in-process
    // run of the same spec — telemetry changed nothing.
    let report = client.get(&format!("/api/campaigns/{id}/report")).unwrap();
    assert_eq!(report.status, 200);
    let mut reference = service();
    let ref_id = reference.submit(spec_for("fleetobs", 23)).unwrap();
    reference.drive(None).unwrap();
    let expected = report_to_value(&reference.engine().report(&ref_id).unwrap()).pretty();
    assert_eq!(report.text(), expected, "distributed report diverged");

    // (b) One valid exposition with a histogram family per layer.
    let metrics = client.get("/metrics").unwrap().text();
    let families = obs::validate_exposition(&metrics)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n---\n{metrics}"));
    for family in [
        "httpd_request_seconds",     // HTTP layer
        "campaign_prepare_seconds",  // engine layer
        "fleet_lease_seconds",       // fleet layer
        "fleet_checkin_seconds",
    ] {
        assert!(
            families.iter().any(|f| f == family),
            "family {family} missing from /metrics: {families:?}"
        );
        for suffix in ["_bucket", "_sum", "_count"] {
            assert!(
                metrics.contains(&format!("{family}{suffix}")),
                "{family}{suffix} missing"
            );
        }
        // Observations actually happened on this path.
        assert!(
            !metrics.contains(&format!("{family}_count 0\n")),
            "{family} was never observed"
        );
    }

    // (c) The merged trace carries spans from both workers, the
    // engine's prepare, and the coordinator's lease/upload phases.
    let trace_resp = client.get(&format!("/api/campaigns/{id}/trace")).unwrap();
    assert_eq!(trace_resp.status, 200, "{}", trace_resp.text());
    let trace_doc = jsonlite::parse(&trace_resp.text()).unwrap();
    assert_eq!(trace_doc.req("campaign").unwrap().as_str(), Some(id.as_str()));
    let spans = trace_doc.req("spans").unwrap().as_arr().unwrap().to_vec();
    assert!(!spans.is_empty(), "no spans recorded");
    let services: std::collections::BTreeSet<String> = spans
        .iter()
        .filter_map(|s| s.get("service").and_then(Value::as_str))
        .map(str::to_string)
        .collect();
    assert!(services.contains(w1.id.as_str()), "{services:?}");
    assert!(services.contains(w2.id.as_str()), "{services:?}");
    assert!(services.contains("engine"), "{services:?}");
    assert!(services.contains("coordinator"), "{services:?}");
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Value::as_str))
        .collect();
    assert!(names.iter().any(|n| n.contains("prepare")), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("execute #")), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("lease ")), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("upload ")), "{names:?}");
    // The ASCII rendering is present and mentions every service.
    let render = trace_doc.req("render").unwrap().as_str().unwrap();
    for service in &services {
        assert!(render.contains(service.as_str()), "{render}");
    }
    // A trace for an unknown campaign is a 404, not an empty timeline.
    assert_eq!(client.get("/api/campaigns/nope/trace").unwrap().status, 404);

    fleet.shutdown();
}

#[test]
fn local_campaign_records_engine_trace_spans() {
    let api = ApiServer::serve("127.0.0.1:0", service(), ApiConfig::default()).unwrap();
    let addr = api.addr().to_string();
    let mut client = httpd::Client::new(&addr);
    let resp = client
        .post_json("/api/campaigns", &spec_for("localtrace", 9).to_json())
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = jsonlite::parse(&resp.text())
        .unwrap()
        .req("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client.get(&format!("/api/campaigns/{id}")).unwrap();
        let v = jsonlite::parse(&status.text()).unwrap();
        if v.req("state").unwrap().as_str().unwrap() == "completed" {
            break;
        }
        assert!(Instant::now() < deadline, "campaign never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let trace_doc =
        jsonlite::parse(&client.get(&format!("/api/campaigns/{id}/trace")).unwrap().text())
            .unwrap();
    let spans = trace_doc.req("spans").unwrap().as_arr().unwrap().to_vec();
    assert!(
        spans
            .iter()
            .all(|s| s.get("service").and_then(Value::as_str) == Some("engine")),
        "local mode records engine spans only"
    );
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Value::as_str))
        .collect();
    assert!(names.contains(&"prepare"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("execute #")), "{names:?}");
    assert!(
        trace_doc.req("span_count").unwrap().as_u64().unwrap() as usize == spans.len(),
        "span_count disagrees with the spans array"
    );
    api.shutdown();
}

/// The value of one sample line (`series` is the name plus labels).
fn sample(metrics: &str, series: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no sample of {series}\n{metrics}"))
        .parse()
        .expect("counter value")
}

#[test]
fn interpreter_steps_and_trampoline_entries_move_with_a_campaign() {
    // §V-B on python-etcd: its client wraps requests in `try`, which the
    // bytecode tier runs through the tree walk (an `ExecStmt` entry).
    let c = profipy::case_study::campaign_b();
    let config = &c.workflow.config;
    let mut spec = CampaignSpec::new(
        "steps",
        &c.name,
        "etcd",
        c.workflow.sources().to_vec(),
        targets::WORKLOAD_BASIC.to_string(),
        c.workflow.model.clone(),
    );
    spec.setup = config.setup.clone();
    spec.seed = config.seed;
    spec.mode = config.mode;
    spec.round_timeout = config.round_timeout;
    spec.fuel_per_round = config.fuel_per_round;
    spec.filter = FilterSpec::from_filter(&c.filter);
    spec.prune_by_coverage = c.prune_by_coverage;
    let registry =
        HostRegistry::with_noop().with("etcd", profipy::case_study::etcd_host_factory());
    let service = CampaignService::new(EngineConfig::default(), registry).unwrap();
    let api = ApiServer::serve("127.0.0.1:0", service, ApiConfig::default()).unwrap();
    let mut client = httpd::Client::new(api.addr().to_string());

    const SERIES: [&str; 3] = [
        "pyrt_steps_total",
        "pyrt_trampoline_entries_total{kind=\"stmt\"}",
        "pyrt_trampoline_entries_total{kind=\"expr\"}",
    ];
    let before = client.get("/metrics").unwrap().text();
    let families = obs::validate_exposition(&before)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n---\n{before}"));
    for family in ["pyrt_steps_total", "pyrt_trampoline_entries_total"] {
        assert!(families.iter().any(|f| f == family), "{family} missing: {families:?}");
    }
    let counts_before = SERIES.map(|series| sample(&before, series));

    let resp = client.post_json("/api/campaigns", &spec.to_json()).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = jsonlite::parse(&resp.text())
        .unwrap()
        .req("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(300);
    while client.get(&format!("/api/campaigns/{id}/report")).unwrap().status != 200 {
        assert!(Instant::now() < deadline, "campaign never completed");
        std::thread::sleep(Duration::from_millis(20));
    }

    let after = client.get("/metrics").unwrap().text();
    obs::validate_exposition(&after)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n---\n{after}"));
    let counts_after = SERIES.map(|series| sample(&after, series));
    // Counts are process-wide, so other tests can only add to them.
    assert!(counts_after[0] > counts_before[0], "steps stood still: {after}");
    assert!(
        counts_after[1] > counts_before[1],
        "no `try` statement entered the tree walk: {after}"
    );
    assert!(counts_after[2] >= counts_before[2], "a counter fell: {after}");
    api.shutdown();
}
