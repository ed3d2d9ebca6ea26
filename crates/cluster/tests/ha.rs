//! The HA acceptance tests (the PR's hard invariant): a campaign
//! distributed over several workers survives the **coordinator** being
//! killed mid-lease — the warm standby takes over within one lease
//! period, late uploads stamped with the dead epoch are absorbed
//! idempotently, the orphaned batch (and only it) is requeued, and the
//! final report is **byte-identical** to the single-node run. Runs in
//! CI as the ha-smoke step.
//!
//! The restart-recovery and pruning tests drive the same machinery
//! deterministically, on a lease clock they step — no sleeps.

use campaign::{
    report_to_value, ApiConfig, CampaignService, CampaignSpec, EngineConfig, HostRegistry,
    SharedService,
};
use cluster::{
    wire, Coordinator, FleetConfig, FleetError, FleetServer, StandbyConfig, StandbyServer,
    WorkerAgent, WorkerConfig,
};
use jsonlite::Value;
use profipy::ExperimentResult;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

mod common;
use common::stepped;

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cluster-ha-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn disk_service(dir: &std::path::Path) -> CampaignService {
    let config = EngineConfig {
        data_dir: Some(dir.to_path_buf()),
        executor: Default::default(),
    };
    CampaignService::new(config, HostRegistry::with_noop()).unwrap()
}

/// The reference bytes: the same spec run through the in-process
/// single-node service.
fn single_node_report(spec: CampaignSpec) -> String {
    let mut service =
        CampaignService::new(EngineConfig::default(), HostRegistry::with_noop()).unwrap();
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

fn parse_id(body: &str) -> String {
    jsonlite::parse(body)
        .unwrap()
        .req("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

#[test]
fn standby_takes_over_mid_lease_and_the_report_is_byte_identical() {
    let spec = spec_for("ha-user", "ha-failover", 1234);
    let reference = single_node_report(spec.clone());

    let primary_dir = temp_dir("primary");
    let standby_dir = temp_dir("standby");
    let lease_ttl = Duration::from_secs(4);
    let fleet_config = FleetConfig {
        lease_ttl,
        lease_batch_max: 64,
        data_dir: Some(primary_dir.clone()),
    };
    let primary = FleetServer::serve(
        "127.0.0.1:0",
        disk_service(&primary_dir),
        ApiConfig::default(),
        fleet_config.clone(),
    )
    .unwrap();
    let primary_addr = primary.addr().to_string();
    let mut client = httpd::Client::new(&primary_addr);

    // A fresh primary is epoch 1.
    let status = client.get("/api/fleet/status").unwrap();
    assert_eq!(status.status, 200, "{}", status.text());
    let status = jsonlite::parse(&status.text()).unwrap();
    assert_eq!(status.req("role").unwrap().as_str(), Some("primary"));
    assert_eq!(status.req("epoch").unwrap().as_u64(), Some(1));

    // Submit the campaign over the wire.
    let resp = client.post_json("/api/campaigns", &spec.to_json()).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = parse_id(&resp.text());

    // The victim: leases a batch, then goes silent forever. Its jobs
    // are the orphaned batch the takeover must requeue exactly once.
    let resp = client
        .post_json("/api/workers/register", "{\"parallelism\": 2}")
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let victim_id = parse_id(&resp.text());
    let resp = client
        .post_json(
            &format!("/api/workers/{victim_id}/lease"),
            "{\"max_jobs\": 4, \"known\": []}",
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let victim_n = jsonlite::parse(&resp.text())
        .unwrap()
        .req("jobs")
        .unwrap()
        .as_arr()
        .unwrap()
        .len() as u64;
    assert!(victim_n > 0, "victim leased jobs before dying");

    // The late uploader: leases every remaining job under epoch 1, but
    // will only upload *after* the takeover — stamped with the dead
    // epoch.
    let resp = client
        .post_json("/api/workers/register", "{\"parallelism\": 4}")
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let uploader_id = parse_id(&resp.text());
    let resp = client
        .post_json(
            &format!("/api/workers/{uploader_id}/lease"),
            "{\"max_jobs\": 64, \"known\": []}",
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let uploader_lease = wire::lease_from_value(&jsonlite::parse(&resp.text()).unwrap()).unwrap();
    assert_eq!(uploader_lease.epoch, 1, "leased under the first epoch");
    let uploader_n = uploader_lease.jobs.len() as u64;
    assert!(uploader_n > 0, "uploader leased the rest of the campaign");
    let (wire_cid, wire_spec) = uploader_lease
        .new_campaigns
        .into_iter()
        .next()
        .expect("spec shipped with the lease");
    assert_eq!(wire_cid, id);

    // Every job is now leased, so the live agents idle until the
    // takeover requeues the victim's batch — which makes the kill
    // moment deterministic: no upload can race it.
    let agent_config = || {
        WorkerConfig {
            parallelism: 2,
            ..WorkerConfig::new(primary_addr.clone())
        }
    };
    let standby = StandbyServer::start(
        {
            let mut cfg = StandbyConfig::new(primary_addr.clone(), standby_dir.clone());
            cfg.probe_interval = Duration::from_millis(150);
            cfg.probe_misses = 2;
            cfg.fleet = FleetConfig {
                data_dir: None, // the standby substitutes its replica dir
                ..fleet_config.clone()
            };
            cfg
        },
        HostRegistry::with_noop(),
    )
    .unwrap();
    let standby_addr = standby.addr().to_string();
    let w1 = WorkerAgent::start(
        agent_config().with_standby(standby_addr.clone()),
        HostRegistry::with_noop(),
    )
    .unwrap();
    let w2 = WorkerAgent::start(
        agent_config().with_standby(standby_addr.clone()),
        HostRegistry::with_noop(),
    )
    .unwrap();

    // Let the standby replicate the leased state (two full cycles past
    // the last mutation), keep the victim's lease fresh, then kill the
    // primary — no drain, exactly as a crash would.
    let synced_at = standby.sync_cycles();
    let deadline = Instant::now() + Duration::from_secs(30);
    while standby.sync_cycles() < synced_at + 2 {
        assert!(Instant::now() < deadline, "standby never synced");
        std::thread::sleep(Duration::from_millis(20));
    }
    let resp = client
        .post_json(&format!("/api/workers/{victim_id}/heartbeat"), "{}")
        .unwrap();
    assert_eq!(resp.status, 200);
    let killed_at = Instant::now();
    primary.kill();

    // Takeover within one lease period.
    assert!(
        standby.wait_promoted(lease_ttl),
        "standby did not promote within a lease period"
    );
    let takeover = killed_at.elapsed();
    assert!(
        takeover < lease_ttl,
        "takeover took {takeover:?}, lease period is {lease_ttl:?}"
    );

    // Execute the uploader's batch exactly as a worker would: rebuild
    // the workflow from the wire spec, rebind the portable points.
    let host = HostRegistry::with_noop().get(&wire_spec.host).unwrap();
    let workflow = wire_spec.build_workflow(host, Default::default()).unwrap();
    let results: Vec<(String, ExperimentResult)> = uploader_lease
        .jobs
        .iter()
        .map(|job| {
            let point = wire::rebind_point(&job.point, workflow.modules()).unwrap();
            (
                job.campaign.clone(),
                workflow.run_experiment_with_sources(&point, &job.sources),
            )
        })
        .collect();

    // The promoted standby serves as primary, epoch 2.
    let mut client = httpd::Client::new(&standby_addr);
    let status = client.get("/api/fleet/status").unwrap();
    assert_eq!(status.status, 200, "{}", status.text());
    let status = jsonlite::parse(&status.text()).unwrap();
    assert_eq!(status.req("role").unwrap().as_str(), Some("primary"));
    assert_eq!(status.req("epoch").unwrap().as_u64(), Some(2));

    // The late upload, stamped with the dead epoch: absorbed, not
    // rejected — every result accepted, none duplicated.
    let body = Value::obj(vec![
        (
            "results",
            wire::results_to_value(&results).req("results").unwrap().clone(),
        ),
        ("epoch", Value::UInt(1)),
    ])
    .compact();
    let resp = client
        .post_json(&format!("/api/workers/{uploader_id}/results"), &body)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let summary = jsonlite::parse(&resp.text()).unwrap();
    assert_eq!(summary.req("accepted").unwrap().as_u64(), Some(uploader_n));
    assert_eq!(summary.req("duplicates").unwrap().as_u64(), Some(0));

    // The victim's re-armed lease expires on the standby; the agents —
    // failed over by now — execute the requeued batch to completion.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client.get(&format!("/api/campaigns/{id}")).unwrap();
        assert_eq!(status.status, 200);
        let v = jsonlite::parse(&status.text()).unwrap();
        match v.req("state").unwrap().as_str().unwrap() {
            "completed" => break,
            "failed" => panic!("campaign failed: {}", status.text()),
            state => assert!(Instant::now() < deadline, "campaign stuck in state {state}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // THE invariant: the report survives the coordinator's death
    // byte-for-byte.
    let report = client.get(&format!("/api/campaigns/{id}/report")).unwrap();
    assert_eq!(report.status, 200);
    assert_eq!(
        report.text(),
        reference,
        "post-takeover report diverged from the single-node run"
    );

    // Requeues are exactly the orphaned batch; the dead-epoch upload
    // was absorbed without a single duplicate.
    let metrics = client.get("/metrics").unwrap().text();
    assert_eq!(gauge(&metrics, "profipy_fleet_epoch"), 2);
    assert_eq!(
        gauge(&metrics, "profipy_fleet_jobs_requeued_total"),
        victim_n,
        "each orphaned job requeued exactly once\n{metrics}"
    );
    assert_eq!(gauge(&metrics, "profipy_fleet_results_duplicate_total"), 0);
    assert_eq!(
        gauge(&metrics, "profipy_fleet_results_old_epoch_total"),
        uploader_n
    );
    assert_eq!(gauge(&metrics, "profipy_fleet_leases_recovered_total"), 2);
    assert_eq!(
        gauge(&metrics, "profipy_fleet_jobs_recovered_total"),
        victim_n + uploader_n
    );
    // The registry was replicated: the standby knows all four workers.
    assert_eq!(gauge(&metrics, "profipy_fleet_workers_registered"), 4);
    assert_eq!(gauge(&metrics, "fleet_takeovers_total"), 1);

    // The agents crossed the failover: they rotated coordinators and
    // executed exactly the orphaned batch.
    let (s1, s2) = (w1.stop(), w2.stop());
    assert_eq!(
        s1.executed + s2.executed,
        victim_n,
        "agents executed exactly the requeued jobs: {s1:?} {s2:?}"
    );
    assert!(
        s1.reconnects + s2.reconnects > 0,
        "agents failed over to the standby: {s1:?} {s2:?}"
    );

    // Graceful shutdown of the promoted standby hands the service back
    // with the report delivered into the session.
    let service = standby.shutdown().expect("standby was promoted");
    assert_eq!(
        service.sessions.report_names("ha-user"),
        vec!["ha-failover".to_string()]
    );
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&standby_dir);
}

/// Executes a leased job locally, exactly as a worker agent would.
fn execute(job: &cluster::LeasedJob, spec: &CampaignSpec) -> ExperimentResult {
    let host = HostRegistry::with_noop().get(&spec.host).unwrap();
    let workflow = spec.build_workflow(host, Default::default()).unwrap();
    workflow.run_experiment_with_sources(&job.point, &job.sources)
}

#[test]
fn restart_recovery_requeues_exactly_the_unresulted_jobs() {
    // The same crash-recovery path the standby takes, driven with
    // synthetic clocks: a coordinator dies mid-lease with part of the
    // batch resulted; its successor replays the WAL, grants the lease
    // one fresh TTL, then requeues exactly the unresulted jobs.
    let dir = temp_dir("restart");
    let spec = spec_for("crash-user", "crash-recovery", 77);
    let reference = single_node_report(spec.clone());
    let config = FleetConfig {
        lease_ttl: Duration::from_millis(500),
        lease_batch_max: 64,
        data_dir: Some(dir.clone()),
    };

    let (worker, id, leased, done_results): (String, String, Vec<u64>, usize);
    {
        let shared = SharedService::new(disk_service(&dir));
        let coordinator = Coordinator::new(shared.clone(), config.clone()).unwrap();
        assert_eq!(coordinator.epoch(), 1);
        id = shared.lock().submit(spec.clone()).unwrap();
        worker = coordinator.register(2).unwrap();
        let grant = coordinator
            .lease(&worker, 64, &BTreeSet::new())
            .unwrap();
        assert!(grant.jobs.len() >= 3, "campaign large enough to matter");
        assert_eq!(grant.epoch, 1);
        leased = grant.jobs.iter().map(|j| j.point.id).collect();
        // Two jobs complete and upload; the rest are in flight when the
        // coordinator "crashes" (dropped without drain).
        let results: Vec<(String, ExperimentResult)> = grant.jobs[..2]
            .iter()
            .map(|job| (job.campaign.clone(), execute(job, &spec)))
            .collect();
        done_results = results.len();
        let summary = coordinator
            .report_results(&worker, results)
            .unwrap();
        assert_eq!(summary.accepted as usize, done_results);
    }

    // The successor: next epoch, WAL replayed, lease re-armed with one
    // fresh TTL from the instant of recovery.
    let shared = SharedService::new(disk_service(&dir));
    let (coordinator, clock) = stepped(&shared, config);
    assert_eq!(coordinator.epoch(), 2);
    let t1 = clock.now();
    let summary = coordinator.recover().unwrap();
    assert_eq!(summary.leases, 1);
    assert_eq!(summary.jobs, leased.len() - done_results);

    // Within the grace TTL nothing expires; past it, exactly the
    // unresulted jobs requeue — once.
    clock.set(t1 + Duration::from_millis(400));
    assert_eq!(coordinator.tick(), 0);
    clock.set(t1 + Duration::from_millis(600));
    assert_eq!(
        coordinator.tick(),
        leased.len() - done_results
    );
    clock.set(t1 + Duration::from_millis(700));
    assert_eq!(coordinator.tick(), 0);

    // The worker id survived (registry log); a re-lease hands back
    // exactly the unresulted set.
    let grant = coordinator
        .lease(&worker, 64, &[id.clone()].into_iter().collect())
        .unwrap();
    assert_eq!(grant.epoch, 2);
    let mut regranted: Vec<u64> = grant.jobs.iter().map(|j| j.point.id).collect();
    regranted.sort_unstable();
    let mut expected: Vec<u64> = leased[done_results..].to_vec();
    expected.sort_unstable();
    assert_eq!(regranted, expected, "exactly the unresulted jobs");

    // A late duplicate of the old epoch's upload: absorbed, counted,
    // not double-recorded.
    let results: Vec<(String, ExperimentResult)> = grant.jobs[..1]
        .iter()
        .map(|job| (job.campaign.clone(), execute(job, &spec)))
        .collect();
    let dup = results.clone();
    clock.set(t1 + Duration::from_millis(800));
    let summary = coordinator
        .report_results_stamped(&worker, Some(1), results)
        .unwrap();
    assert_eq!(summary.accepted, 1);
    clock.set(t1 + Duration::from_millis(900));
    let summary = coordinator
        .report_results_stamped(&worker, Some(1), dup)
        .unwrap();
    assert_eq!(summary.accepted, 0);
    assert_eq!(summary.duplicates, 1);
    assert_eq!(coordinator.tick(), 0);
    let metrics = shared.metrics_registry().render();
    assert_eq!(gauge(&metrics, "profipy_fleet_results_old_epoch_total"), 2);
    assert_eq!(gauge(&metrics, "profipy_fleet_epoch"), 2);
    assert_eq!(
        gauge(&metrics, "profipy_fleet_jobs_recovered_total"),
        (leased.len() - done_results) as u64
    );

    // Finish the campaign; the report is byte-identical to the
    // single-node run despite the crash, recovery, and duplicates.
    let rest: Vec<(String, ExperimentResult)> = grant.jobs[1..]
        .iter()
        .map(|job| (job.campaign.clone(), execute(job, &spec)))
        .collect();
    clock.set(t1 + Duration::from_secs(1));
    let summary = coordinator
        .report_results(&worker, rest)
        .unwrap();
    assert_eq!(summary.completed, vec![id.clone()]);
    let report = shared.lock().engine().report(&id).unwrap();
    assert_eq!(report_to_value(&report).pretty(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_workers_are_pruned_from_registry_and_gauges() {
    // A worker that stops contacting the fleet past the retention
    // window — holding no lease — is dropped from the registry and its
    // per-worker gauge labels disappear; a restart does not resurrect
    // it, and its id is never reissued.
    let dir = temp_dir("prune");
    let config = FleetConfig {
        lease_ttl: Duration::from_millis(500),
        data_dir: Some(dir.clone()),
        ..FleetConfig::default()
    };
    // The coordinator's fixed retention window.
    let retention = Duration::from_secs(600);
    let shared = SharedService::new(disk_service(&dir));
    let (coordinator, clock) = stepped(&shared, config.clone());
    let keeper = coordinator.register(1).unwrap();
    let ghost = coordinator.register(3).unwrap();
    let t0 = clock.now();
    coordinator.heartbeat(&keeper).unwrap();
    coordinator.heartbeat(&ghost).unwrap();

    // Inside the retention window both workers are tracked.
    let ghost_label = format!("worker=\"{ghost}\"");
    clock.set(t0 + retention - Duration::from_secs(1));
    coordinator.tick();
    let metrics = shared.metrics_registry().render();
    assert!(metrics.contains(&ghost_label), "{metrics}");
    assert!(coordinator.heartbeat(&keeper).is_ok());

    // Past it, the silent worker is pruned; the live one stays.
    clock.set(t0 + retention + Duration::from_secs(1));
    coordinator.tick();
    let metrics = shared.metrics_registry().render();
    assert_eq!(gauge(&metrics, "profipy_fleet_workers_registered"), 1);
    assert_eq!(gauge(&metrics, "profipy_fleet_workers_pruned_total"), 1);
    assert!(
        !metrics.contains(&ghost_label),
        "pruned worker's gauge labels dropped: {metrics}"
    );
    assert!(matches!(
        coordinator.heartbeat(&ghost),
        Err(FleetError::UnknownWorker(_))
    ));

    // The prune is durable: a restarted coordinator loads only the
    // live worker, and new registrations never reuse the pruned id.
    drop(coordinator);
    let coordinator = Coordinator::new(SharedService::new(disk_service(&dir)), config).unwrap();
    assert!(coordinator.heartbeat(&keeper).is_ok());
    assert!(matches!(
        coordinator.heartbeat(&ghost),
        Err(FleetError::UnknownWorker(_))
    ));
    let fresh = coordinator.register(1).unwrap();
    assert_ne!(fresh, keeper);
    assert_ne!(fresh, ghost);
    let _ = std::fs::remove_dir_all(&dir);
}
