//! Cluster-mode walkthrough: boots a fleet coordinator (no local
//! execution), joins two in-process worker agents, submits a campaign
//! over HTTP, and shows the lease/heartbeat/result machinery doing its
//! job — finishing with the report and the fleet gauges.
//!
//! ```text
//! cargo run --release --example fleet            # scripted demo, then exits
//! cargo run --release --example fleet -- --stay  # keep the coordinator up
//! ```

use campaign::{ApiConfig, CampaignService, CampaignSpec, EngineConfig, HostRegistry};
use cluster::{FleetConfig, FleetServer, WorkerAgent, WorkerConfig};
use profipy::case_study::etcd_host_factory;
use std::time::{Duration, Instant};

fn registry() -> HostRegistry {
    HostRegistry::with_noop().with("etcd", etcd_host_factory())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stay = args.iter().any(|a| a == "--stay");
    let addr = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:0".into());

    let service = CampaignService::new(EngineConfig::default(), registry()).expect("service");
    let fleet = FleetServer::serve(
        &addr,
        service,
        ApiConfig::default(),
        FleetConfig {
            lease_ttl: Duration::from_secs(2),
            ..FleetConfig::default()
        },
    )
    .expect("bind");
    let bound = fleet.addr().to_string();
    let base = format!("http://{bound}");
    println!("fleet coordinator on {base} (no local execution)\n");

    println!("# 1. join two workers (each would normally be its own machine:");
    println!("#    profipy-cli worker --coordinator {bound})");
    let w1 = WorkerAgent::start(
        WorkerConfig {
            parallelism: 2,
            ..WorkerConfig::new(bound.clone())
        },
        registry(),
    )
    .expect("worker 1");
    let w2 = WorkerAgent::start(WorkerConfig::new(bound.clone()), registry()).expect("worker 2");
    println!("joined: {} and {}\n", w1.id(), w2.id());

    let mut client = httpd::Client::new(bound.clone());

    let mut spec = CampaignSpec::new(
        "alice",
        "etcd-fleet-demo",
        "etcd",
        vec![
            ("etcd".into(), targets::CLIENT_SOURCE.into()),
            ("workload".into(), targets::WORKLOAD_BASIC.into()),
        ],
        targets::WORKLOAD_BASIC.into(),
        faultdsl::campaign_a_model(),
    );
    spec.setup = vec![vec!["etcd-start".into()]];
    spec.filter.modules.push("etcd".into());
    spec.filter.sample = 8;

    println!("# 2. submit a campaign; the coordinator leases its experiments out");
    println!("curl -X POST {base}/api/campaigns -d @spec.json");
    let resp = client
        .post_json("/api/campaigns", &spec.to_json())
        .expect("submit");
    let id = jsonlite::parse(&resp.text())
        .unwrap()
        .req("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    println!("→ {} {id}\n", resp.status);

    println!("# 3. poll status while the workers execute");
    println!("curl {base}/api/campaigns/{id}");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client
            .get(&format!("/api/campaigns/{id}"))
            .expect("status");
        let v = jsonlite::parse(&status.text()).unwrap();
        let state = v.req("state").unwrap().as_str().unwrap().to_string();
        if state == "completed" {
            println!("→ completed\n");
            break;
        }
        assert!(Instant::now() < deadline, "campaign stuck in {state}");
        std::thread::sleep(Duration::from_millis(50));
    }

    println!("# 4. fetch the report (byte-identical to a single-node run)");
    println!("curl {base}/api/campaigns/{id}/report");
    let report = client
        .get(&format!("/api/campaigns/{id}/report"))
        .expect("report");
    println!("{}\n", report.text());

    println!("# 5. the fleet gauges");
    println!("curl {base}/metrics | grep fleet_");
    let metrics = client.get("/metrics").expect("metrics").text();
    for line in metrics.lines().filter(|l| l.contains("fleet_")) {
        println!("{line}");
    }

    let (s1, s2) = (w1.stop(), w2.stop());
    println!(
        "\nworkers executed {} + {} experiments over {} + {} leases",
        s1.executed, s2.executed, s1.leases, s2.leases
    );
    if stay {
        println!("\ncoordinator still serving on {base} — Ctrl-C to stop");
        std::mem::forget(fleet);
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    fleet.shutdown();
}
