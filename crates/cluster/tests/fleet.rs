//! The cluster acceptance test (the PR's hard invariant): a campaign
//! distributed over 3 workers — one killed mid-lease — completes with a
//! report **byte-identical** to the same campaign run single-node, and
//! the killed worker's jobs are each executed exactly once more
//! (requeue counter checked). Runs in CI as the cluster smoke step.

use campaign::{
    report_to_value, ApiConfig, CampaignService, CampaignSpec, EngineConfig, HostRegistry,
};
use cluster::{FleetConfig, FleetServer, WorkerAgent, WorkerConfig};
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

fn spec_for(user: &str, name: &str, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        user,
        name,
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

/// The reference bytes: the same spec run through the in-process
/// single-node service.
fn single_node_report(spec: CampaignSpec) -> String {
    let mut service = service();
    let id = service.submit(spec).unwrap();
    service.drive(None).unwrap();
    let report = service.engine().report(&id).expect("campaign completed");
    report_to_value(&report).pretty()
}

fn gauge(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("gauge {name} missing from:\n{metrics}"))
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn distributed_campaign_with_killed_worker_is_byte_identical_to_single_node() {
    let spec = spec_for("fleet-user", "distributed", 1234);
    let reference = single_node_report(spec.clone());

    // Short lease so the killed worker's jobs requeue quickly; the
    // real agents heartbeat faster than that.
    let fleet_config = FleetConfig {
        lease_ttl: Duration::from_millis(600),
        lease_batch_max: 16,
        ..FleetConfig::default()
    };
    let fleet = FleetServer::serve(
        "127.0.0.1:0",
        service(),
        ApiConfig::default(),
        fleet_config,
    )
    .unwrap();
    let addr = fleet.addr().to_string();

    // Submit the campaign over the wire.
    let mut client = httpd::Client::new(&addr);
    let resp = client
        .post_json("/api/campaigns", &spec.to_json())
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = jsonlite::parse(&resp.text())
        .unwrap()
        .req("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    // Worker 3 — the victim — speaks the wire protocol directly:
    // register, lease a batch, then go silent mid-lease (killed).
    let killed_batch = {
        let resp = client
            .post_json("/api/workers/register", "{\"parallelism\": 2}")
            .unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
        let worker_id = jsonlite::parse(&resp.text())
            .unwrap()
            .req("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let resp = client
            .post_json(
                &format!("/api/workers/{worker_id}/lease"),
                "{\"max_jobs\": 4, \"known\": []}",
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let lease = jsonlite::parse(&resp.text()).unwrap();
        let jobs = lease.req("jobs").unwrap().as_arr().unwrap().len();
        assert!(jobs > 0, "victim leased jobs before dying");
        // The spec came along for the ride.
        assert_eq!(lease.req("campaigns").unwrap().as_arr().unwrap().len(), 1);
        jobs as u64
        // …and the victim never heartbeats, executes, or uploads again.
    };

    // Workers 1 and 2: real agents that do the actual work.
    let registry = || HostRegistry::with_noop();
    let agent_config = |parallelism| WorkerConfig {
        parallelism,
        ..WorkerConfig::new(addr.clone())
    };
    let w1 = WorkerAgent::start(agent_config(2), registry()).unwrap();
    let w2 = WorkerAgent::start(agent_config(1), registry()).unwrap();

    // Poll the ordinary status endpoint until the campaign completes.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client.get(&format!("/api/campaigns/{id}")).unwrap();
        assert_eq!(status.status, 200);
        let v = jsonlite::parse(&status.text()).unwrap();
        match v.req("state").unwrap().as_str().unwrap() {
            "completed" => break,
            "failed" => panic!("campaign failed: {}", status.text()),
            state => assert!(
                Instant::now() < deadline,
                "campaign stuck in state {state}"
            ),
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // THE invariant: the distributed report — with a worker killed
    // mid-lease — is byte-identical to the single-node run.
    let report = client
        .get(&format!("/api/campaigns/{id}/report"))
        .unwrap();
    assert_eq!(report.status, 200);
    assert_eq!(
        report.text(),
        reference,
        "distributed report diverged from the single-node run"
    );

    // The killed worker's jobs were requeued exactly once each and
    // nothing was double-recorded.
    let metrics = client.get("/metrics").unwrap().text();
    assert_eq!(
        gauge(&metrics, "profipy_fleet_jobs_requeued_total"),
        killed_batch,
        "each killed job requeued exactly once\n{metrics}"
    );
    assert_eq!(
        gauge(&metrics, "profipy_fleet_results_duplicate_total"),
        0,
        "no experiment was recorded twice\n{metrics}"
    );
    assert_eq!(gauge(&metrics, "profipy_fleet_workers_registered"), 3);
    assert_eq!(gauge(&metrics, "profipy_fleet_leases_expired_total"), 1);
    assert_eq!(gauge(&metrics, "profipy_fleet_campaigns_completed_total"), 1);
    // Fleet mode runs no local drive: the drive thread does not exist.
    assert_eq!(gauge(&metrics, "profipy_drive_calls_total"), 0);

    let s1 = w1.stop();
    let s2 = w2.stop();
    assert!(
        s1.executed + s2.executed > 0,
        "agents executed the campaign: {s1:?} {s2:?}"
    );

    // Graceful shutdown hands the service back with the report
    // delivered into the session.
    let service = fleet.shutdown();
    assert_eq!(
        service.sessions.report_names("fleet-user"),
        vec!["distributed".to_string()]
    );
}

#[test]
fn two_agents_split_many_campaigns() {
    // The scale-out sanity check: several campaigns from different
    // users distributed across two agents, every report byte-identical
    // to its single-node twin.
    let users = ["ana", "ben", "cho"];
    let references: Vec<String> = users
        .iter()
        .map(|u| single_node_report(spec_for(u, &format!("{u}-fleet"), 7)))
        .collect();

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
    let mut client = httpd::Client::new(&addr);
    let ids: Vec<String> = users
        .iter()
        .map(|u| {
            let resp = client
                .post_json(
                    "/api/campaigns",
                    &spec_for(u, &format!("{u}-fleet"), 7).to_json(),
                )
                .unwrap();
            assert_eq!(resp.status, 201);
            jsonlite::parse(&resp.text())
                .unwrap()
                .req("id")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();

    let w1 = WorkerAgent::start(WorkerConfig::new(addr.clone()), HostRegistry::with_noop())
        .unwrap();
    let w2 = WorkerAgent::start(WorkerConfig::new(addr.clone()), HostRegistry::with_noop())
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    for id in &ids {
        loop {
            let status = client.get(&format!("/api/campaigns/{id}")).unwrap();
            let v = jsonlite::parse(&status.text()).unwrap();
            match v.req("state").unwrap().as_str().unwrap() {
                "completed" => break,
                "failed" => panic!("campaign {id} failed: {}", status.text()),
                _ => assert!(Instant::now() < deadline, "campaign {id} stuck"),
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    for (id, reference) in ids.iter().zip(&references) {
        let report = client.get(&format!("/api/campaigns/{id}/report")).unwrap();
        assert_eq!(report.status, 200);
        assert_eq!(&report.text(), reference, "report {id} diverged");
    }
    let (s1, s2) = (w1.stop(), w2.stop());
    assert!(s1.executed > 0, "both agents worked: {s1:?}");
    assert!(s2.executed > 0, "both agents worked: {s2:?}");
    fleet.shutdown();
}

#[test]
fn unregistered_worker_gets_404_and_connection_stays_reusable() {
    let fleet = FleetServer::serve(
        "127.0.0.1:0",
        service(),
        ApiConfig::default(),
        FleetConfig::default(),
    )
    .unwrap();
    let addr = fleet.addr().to_string();
    let mut client = httpd::Client::new(&addr);

    // Lease, heartbeat, and results from a never-registered id: 404,
    // keep-alive (no Connection: close).
    let resp = client
        .post_json("/api/workers/worker-424242/lease", "{\"max_jobs\": 1}")
        .unwrap();
    assert_eq!(resp.status, 404, "{}", resp.text());
    assert_eq!(resp.header("connection"), None);
    let resp = client
        .post_json("/api/workers/worker-424242/heartbeat", "{}")
        .unwrap();
    assert_eq!(resp.status, 404);
    let resp = client
        .post_json("/api/workers/worker-424242/results", "{\"results\": []}")
        .unwrap();
    assert_eq!(resp.status, 404);
    // Malformed JSON on a fleet route: 400, still keep-alive.
    let resp = client
        .post_json("/api/workers/register", "{oops")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(resp.header("connection"), None);

    // The same client connection keeps working — those were responses,
    // not teardowns — and the fleet gauges are live.
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    let metrics = client.get("/metrics").unwrap().text();
    for gauge_name in [
        "profipy_fleet_workers_registered 0",
        "profipy_fleet_workers_live 0",
        "profipy_fleet_jobs_leased 0",
        "profipy_fleet_jobs_requeued_total 0",
    ] {
        assert!(metrics.contains(gauge_name), "{gauge_name}\n{metrics}");
    }
    // A registration shows up in the gauges, with a heartbeat-age
    // sample for the worker.
    let resp = client
        .post_json("/api/workers/register", "{\"parallelism\": 3}")
        .unwrap();
    assert_eq!(resp.status, 201);
    let metrics = client.get("/metrics").unwrap().text();
    assert!(metrics.contains("profipy_fleet_workers_registered 1"), "{metrics}");
    assert!(metrics.contains("profipy_fleet_workers_live 1"), "{metrics}");
    assert!(
        metrics.contains("fleet_worker_heartbeat_age_ms{worker=\"worker-000001\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("fleet_worker_parallelism{worker=\"worker-000001\"} 3"),
        "{metrics}"
    );
    // Every fleet series is there under its name, typed before its
    // first sample: seventeen fleet-wide and two per worker.
    obs::validate_exposition(&metrics).unwrap_or_else(|e| panic!("{e}\n{metrics}"));
    let fleet_wide = [
        "workers_registered",
        "workers_live",
        "campaigns_active",
        "jobs_pending",
        "jobs_leased",
        "leases_granted_total",
        "leases_expired_total",
        "jobs_leased_total",
        "jobs_requeued_total",
        "results_accepted_total",
        "results_duplicate_total",
        "results_old_epoch_total",
        "campaigns_completed_total",
        "epoch",
        "leases_recovered_total",
        "jobs_recovered_total",
        "workers_pruned_total",
    ];
    let per_worker = ["worker_heartbeat_age_ms", "worker_parallelism"];
    for name in fleet_wide.iter().chain(&per_worker) {
        let name = format!("profipy_fleet_{name}");
        let typed = metrics.find(&format!("# TYPE {name} "));
        let sampled = [' ', '{']
            .iter()
            .find_map(|c| metrics.find(&format!("\n{name}{c}")));
        assert!(
            matches!((typed, sampled), (Some(t), Some(s)) if t < s),
            "{name} must be typed before its first sample\n{metrics}"
        );
    }
    assert!(metrics.contains("profipy_fleet_epoch 1"), "{metrics}");
    fleet.shutdown();
}

#[test]
fn fleet_report_matches_wire_format_of_api_module() {
    // The /api/campaigns/:id/report payload in fleet mode goes through
    // report_to_value, same as single-node mode — guard the codec
    // linkage (a fleet-only serialization fork would silently break
    // the byte-identity contract).
    let spec = spec_for("codec", "codec-check", 9);
    let reference = single_node_report(spec.clone());
    let parsed = jsonlite::parse(&reference).unwrap();
    assert!(parsed.req("executed").unwrap().as_u64().unwrap() > 0);
    assert_eq!(
        parsed.req("name").unwrap().as_str(),
        Some("codec-check"),
        "report codec shape"
    );
    // And the reference itself is stable across runs (determinism of
    // the single-node path, the baseline the fleet is compared to).
    assert_eq!(reference, single_node_report(spec));
}

#[test]
fn agent_survives_idle_fleet_and_stops_cleanly() {
    // An agent on an empty queue must idle at its backoff ceiling (not
    // spin), then stop promptly and report zero executions.
    let fleet = FleetServer::serve(
        "127.0.0.1:0",
        service(),
        ApiConfig::default(),
        FleetConfig::default(),
    )
    .unwrap();
    let addr = fleet.addr().to_string();
    let agent = WorkerAgent::start(WorkerConfig::new(addr), HostRegistry::with_noop()).unwrap();
    assert!(agent.id().starts_with("worker-"));
    std::thread::sleep(Duration::from_millis(300));
    let t0 = Instant::now();
    let stats = agent.stop();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stop() joined promptly"
    );
    assert_eq!(stats.executed, 0);
    assert!(stats.leases > 0, "agent was polling: {stats:?}");
    assert_eq!(stats.leases, stats.empty_leases, "{stats:?}");
    fleet.shutdown();
}
