//! The campaign orchestration engine end-to-end: submit campaigns from
//! several users into a persistent queue, drive them interleaved with
//! checkpointing, and read the reports back through the session store.
//!
//! ```text
//! cargo run --release --example orchestration                 # in-memory demo
//! cargo run --release --example orchestration -- DIR          # persistent, run all
//! cargo run --release --example orchestration -- DIR BUDGET   # run at most BUDGET
//! ```
//!
//! With a directory, killing the process at any point and re-running
//! resumes from the checkpoints — experiments never run twice.

use campaign::{CampaignEngine, CampaignSpec, CampaignService, EngineConfig, HostRegistry};
use profipy::case_study::etcd_host_factory;

fn etcd_spec(user: &str, name: &str, seed: u64, sample: usize) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        user,
        name,
        "etcd",
        vec![
            ("etcd".into(), targets::CLIENT_SOURCE.into()),
            ("workload".into(), targets::WORKLOAD_BASIC.into()),
        ],
        targets::WORKLOAD_BASIC.into(),
        faultdsl::campaign_a_model(),
    );
    spec.setup = vec![vec!["etcd-start".into()]];
    spec.seed = seed;
    spec.filter.modules.push("etcd".into());
    spec.filter.sample = sample;
    spec
}

fn registry() -> HostRegistry {
    HostRegistry::with_noop().with("etcd", etcd_host_factory())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let data_dir = args.first().map(std::path::PathBuf::from);
    let budget: Option<usize> = args.get(1).map(|b| b.parse().expect("BUDGET must be a number"));

    match data_dir {
        // Persistent mode: submit-once, then drive (possibly budgeted);
        // re-running resumes.
        Some(dir) => {
            let mut engine = CampaignEngine::new(
                EngineConfig {
                    data_dir: Some(dir),
                    executor: Default::default(),
                },
                registry(),
            )
            .expect("engine opens");
            if engine.poll("job-000001").is_none() {
                let id = engine.submit(etcd_spec("alice", "resumable", 7, 8)).unwrap();
                println!("submitted {id}");
            }
            let summary = engine.drive(budget).expect("drive");
            println!(
                "drive: {} campaigns, {} experiments, {} completed",
                summary.campaigns, summary.experiments, summary.completed
            );
            let status = engine.poll("job-000001").expect("job exists");
            println!(
                "job-000001: {:?} {}/{} experiments",
                status.state,
                status.completed_experiments,
                status
                    .total_experiments
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "?".into())
            );
            if let Some(report) = engine.report("job-000001") {
                println!("\n{}", report.render_text());
            }
            let stats = engine.cache_stats();
            println!(
                "cache: {} scan hits / {} misses",
                stats.scan_hits, stats.scan_misses
            );
        }
        // In-memory demo: three users, interleaved, reports delivered
        // into their sessions.
        None => {
            let mut service = CampaignService::new(EngineConfig::default(), registry())
                .expect("service");
            for (user, seed, sample) in
                [("alice", 1, 5), ("bob", 2, 4), ("carol", 3, 3)]
            {
                let id = service
                    .submit(etcd_spec(user, "demo", seed, sample))
                    .unwrap();
                println!("{user} submitted {id}");
            }
            let summary = service.drive(None).expect("drive");
            println!(
                "\ndrive: {} campaigns, {} experiments, {} completed\n",
                summary.campaigns, summary.experiments, summary.completed
            );
            for user in ["alice", "bob", "carol"] {
                let report = service.sessions.report(user, "demo").expect("delivered");
                println!(
                    "{user:6} demo: {} executed, {} failures, availability {:.0}%",
                    report.executed,
                    report.failures,
                    report.availability * 100.0
                );
            }
            let stats = service.engine().cache_stats();
            println!(
                "\ncache: {} scan hits / {} misses (three campaigns, one target, one scan)",
                stats.scan_hits, stats.scan_misses
            );
        }
    }
}
