//! `profipy-cli` — command-line front end for the ProFIPy service,
//! operating on the built-in §V case-study target (the python-etcd-like
//! client + workload).
//!
//! ```text
//! profipy-cli models                       list predefined fault models
//! profipy-cli export <model>               print a fault model as JSON
//! profipy-cli scan <model>                 scan the case-study target
//! profipy-cli scan-dsl <file.dsl>          scan with a custom bug spec
//! profipy-cli campaign <A|B|C> [--no-prune] run a §V campaign, print report
//! profipy-cli viz <A|B|C> <point-id>       run one experiment, render timeline
//! profipy-cli matrix [--catalog GLOBS] [--models GLOBS] [--fleet ADDR]
//!                   [--sample N] [--seed N]
//!                                          run the scenario-catalog campaign
//!                                          matrix (target × fault model) and
//!                                          print the failure-class grid
//! profipy-cli serve [ADDR] [--data-dir D] [--workers N] [--max-conns N]
//!                   [--fleet] [--standby-of ADDR] [--lease-ms N] [--log-file F]
//!                                          boot the as-a-Service REST API
//!                                          (--fleet: lease to remote workers;
//!                                          --standby-of: warm standby of a
//!                                          primary coordinator)
//! profipy-cli worker --coordinator ADDR[,STANDBY...] [--parallelism N]
//!                   [--log-file F]          join a coordinator's worker fleet
//! ```
//!
//! Structured JSONL event logging: `--log-file` (or `PROFIPY_LOG=stderr`
//! / `PROFIPY_LOG=<path>`) enables it; `PROFIPY_LOG_LEVEL` picks the
//! threshold (debug|info|warn|error|off).

use campaign::{ApiConfig, ApiServer, CampaignService, EngineConfig, HostRegistry, SharedService};
use cluster::{FleetConfig, FleetServer, StandbyConfig, StandbyServer, WorkerAgent, WorkerConfig};
use profipy::case_study::{
    campaign_a, campaign_b, campaign_c, case_study_workflow, etcd_host_factory, Campaign,
};
use profipy::report::CampaignReport;
use std::process::ExitCode;

fn models() -> Vec<faultdsl::FaultModel> {
    vec![
        faultdsl::predefined_models(),
        faultdsl::campaign_a_model(),
        faultdsl::campaign_b_model(),
        faultdsl::campaign_c_model(),
    ]
}

fn find_model(name: &str) -> Option<faultdsl::FaultModel> {
    models().into_iter().find(|m| m.name == name)
}

fn campaign_by_letter(letter: &str) -> Option<Campaign> {
    match letter.to_ascii_uppercase().as_str() {
        "A" => Some(campaign_a()),
        "B" => Some(campaign_b()),
        "C" => Some(campaign_c()),
        _ => None,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: profipy-cli <command>\n\
         \n\
         commands:\n\
         models                        list predefined fault models\n\
         export <model-name>           print a fault model as JSON\n\
         scan <model-name>             scan the case-study target, list points\n\
         scan-dsl <file.dsl>           scan with a custom `change{{}}into{{}}` spec\n\
         campaign <A|B|C> [--no-prune] run a paper §V campaign\n\
         viz <A|B|C> <point-id>        run one experiment, render its timeline\n\
         matrix [--catalog GLOBS]      run the scenario-catalog matrix: every\n\
               [--models GLOBS]        catalog target × every applicable fault\n\
               [--fleet ADDR]          model as one campaign per cell, printed\n\
               [--sample N] [--seed N] as a failure-class grid (GLOBS filter by\n\
                                       name, comma-separated; --fleet submits\n\
                                       through a running coordinator instead of\n\
                                       executing in-process; --sample caps\n\
                                       experiments per cell, default 4)\n\
         serve [ADDR] [--data-dir D]   boot the REST API (default 127.0.0.1:8080;\n\
               [--workers N]           with --data-dir the queue/checkpoints/cache\n\
               [--max-conns N]         persist and survive restarts; --workers sizes\n\
               [--fleet]               the handler pool, --max-conns caps open\n\
               [--standby-of ADDR]     keep-alive connections; --fleet leases\n\
               [--lease-ms N]          experiments to remote workers instead of\n\
               [--log-file F]          executing locally, --standby-of replicates\n\
                                       a primary coordinator into --data-dir and\n\
                                       takes over when it dies, --lease-ms sets\n\
                                       the heartbeat-bounded lease TTL, --log-file\n\
                                       appends JSONL events to F)\n\
         worker --coordinator ADDRS    join a coordinator's fleet: pull leases,\n\
               [--parallelism N]       execute experiments locally, stream the\n\
               [--log-file F]          results back; ADDRS = primary[,standby...]\n\
         \n\
         PROFIPY_LOG=stderr|<path> and PROFIPY_LOG_LEVEL=debug|info|warn|error|off\n\
         configure the structured event log for every command"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    obs::log::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("models") => {
            for m in models() {
                println!("{:32} {:2} specs  {}", m.name, m.specs.len(), m.description.lines().next().unwrap_or(""));
            }
            ExitCode::SUCCESS
        }
        Some("export") => {
            let Some(name) = args.get(1) else { return usage() };
            match find_model(name) {
                Some(m) => {
                    println!("{}", m.to_json());
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("unknown model '{name}' (try `profipy-cli models`)");
                    ExitCode::FAILURE
                }
            }
        }
        Some("scan") => {
            let Some(name) = args.get(1) else { return usage() };
            let Some(model) = find_model(name) else {
                eprintln!("unknown model '{name}'");
                return ExitCode::FAILURE;
            };
            scan_with(model)
        }
        Some("scan-dsl") => {
            let Some(path) = args.get(1) else { return usage() };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let model = faultdsl::FaultModel {
                name: format!("custom:{path}"),
                description: "user-provided specification".into(),
                specs: vec![faultdsl::SpecSource {
                    name: "CUSTOM".into(),
                    description: String::new(),
                    dsl: text,
                }],
            };
            scan_with(model)
        }
        Some("campaign") => {
            let Some(letter) = args.get(1) else { return usage() };
            let Some(campaign) = campaign_by_letter(letter) else {
                eprintln!("unknown campaign '{letter}' (A, B or C)");
                return ExitCode::FAILURE;
            };
            let prune = campaign.prune_by_coverage && !args.iter().any(|a| a == "--no-prune");
            match campaign.workflow.run_campaign(&campaign.filter, prune) {
                Ok(outcome) => {
                    let report =
                        CampaignReport::from_outcome(&campaign.name, &outcome, &campaign.classifier);
                    println!("{}", report.render_text());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("viz") => {
            let (Some(letter), Some(id)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let Some(campaign) = campaign_by_letter(letter) else {
                eprintln!("unknown campaign '{letter}'");
                return ExitCode::FAILURE;
            };
            let Ok(id) = id.parse::<u64>() else {
                eprintln!("point id must be a number");
                return ExitCode::FAILURE;
            };
            let points = campaign.workflow.scan();
            let Some(point) = points.iter().find(|p| p.id == id) else {
                eprintln!("no injection point #{id} (scan found {})", points.len());
                return ExitCode::FAILURE;
            };
            let result = campaign.workflow.run_experiment(point);
            println!(
                "experiment #{id} ({} @ {}): round1={:?} round2={:?}\n",
                result.spec_name, result.scope, result.round1.status, result.round2.status
            );
            println!("{}", trace::render_timeline(&result.timeline(), 72));
            ExitCode::SUCCESS
        }
        Some("matrix") => matrix(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("worker") => worker(&args[1..]),
        _ => usage(),
    }
}

/// Routes the structured event log to a file (`--log-file PATH`).
/// Returns the exit code on failure, `None` on success.
fn log_to_file(path: Option<&String>) -> Option<ExitCode> {
    let Some(path) = path else {
        eprintln!("--log-file needs a path");
        return Some(ExitCode::from(2));
    };
    if let Err(e) = obs::log::set_file(path) {
        eprintln!("cannot open log file {path}: {e}");
        return Some(ExitCode::FAILURE);
    }
    None
}

/// Runs the scenario-catalog campaign matrix: every catalog target ×
/// every applicable fault model, one campaign per cell, in-process or
/// through a running coordinator (`--fleet ADDR`).
fn matrix(args: &[String]) -> ExitCode {
    let mut catalog_globs: Vec<String> = Vec::new();
    let mut model_globs: Vec<String> = Vec::new();
    let mut fleet_addr: Option<String> = None;
    let mut sample: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut rest = args.iter();
    let globs = |value: Option<&String>| -> Vec<String> {
        value
            .map(|v| v.split(',').filter(|g| !g.is_empty()).map(str::to_string).collect())
            .unwrap_or_default()
    };
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--catalog" => catalog_globs = globs(rest.next()),
            "--models" => model_globs = globs(rest.next()),
            "--fleet" => match rest.next() {
                Some(addr) => {
                    fleet_addr = Some(
                        addr.strip_prefix("http://")
                            .unwrap_or(addr)
                            .trim_end_matches('/')
                            .to_string(),
                    );
                }
                None => {
                    eprintln!("--fleet needs a coordinator address");
                    return ExitCode::from(2);
                }
            },
            "--sample" => match rest.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => sample = Some(n),
                _ => {
                    eprintln!("--sample needs a positive number");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match rest.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => seed = Some(n),
                _ => {
                    eprintln!("--seed needs a number");
                    return ExitCode::from(2);
                }
            },
            "--log-file" => {
                if let Some(code) = log_to_file(rest.next()) {
                    return code;
                }
            }
            flag => {
                eprintln!("unknown flag '{flag}'");
                return ExitCode::from(2);
            }
        }
    }
    let mut targets = scenarios::default_catalog();
    if !catalog_globs.is_empty() {
        targets = scenarios::filter_by_globs(targets, &catalog_globs);
    }
    let mut models = scenarios::default_corpus();
    if !model_globs.is_empty() {
        models.retain(|m| {
            model_globs
                .iter()
                .any(|g| faultdsl::glob_match(g, &m.model.name))
        });
    }
    if targets.is_empty() || models.is_empty() {
        eprintln!(
            "nothing to run: {} target(s), {} model(s) after filtering \
             (try `profipy-cli matrix` with no filters)",
            targets.len(),
            models.len()
        );
        return ExitCode::FAILURE;
    }
    let mut matrix = scenarios::Matrix::new(targets, models);
    if let Some(n) = sample {
        matrix.sample_per_cell = n as usize;
    }
    if let Some(n) = seed {
        matrix.seed = n;
    }
    let cells = matrix.cells();
    println!(
        "matrix: {} cell(s) ({} target(s) × {} model(s), applicability-filtered)",
        cells.len(),
        matrix.targets.len(),
        matrix.models.len()
    );
    let report = if let Some(addr) = fleet_addr {
        println!("submitting through coordinator http://{addr} ...");
        matrix.run_http(&addr, std::time::Duration::from_secs(600))
    } else {
        let registry = HostRegistry::with_noop().with("etcd", etcd_host_factory());
        match CampaignService::new(EngineConfig::default(), registry) {
            Ok(mut service) => matrix.run_local(&mut service),
            Err(e) => Err(format!("cannot open engine: {e}")),
        }
    };
    match report {
        Ok(report) => {
            println!("{}", report.render_text());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Joins a coordinator's fleet and works until killed.
fn worker(args: &[String]) -> ExitCode {
    let mut coordinators: Vec<String> = Vec::new();
    let mut parallelism = 2usize;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--coordinator" => match rest.next() {
                Some(addrs) => {
                    // Accept both `host:port` and `http://host:port`;
                    // a comma-separated list names the primary first,
                    // then warm standbys to fail over to.
                    coordinators.extend(addrs.split(',').filter(|a| !a.is_empty()).map(|addr| {
                        addr.strip_prefix("http://")
                            .unwrap_or(addr)
                            .trim_end_matches('/')
                            .to_string()
                    }));
                }
                None => {
                    eprintln!("--coordinator needs an address");
                    return ExitCode::from(2);
                }
            },
            "--parallelism" => match rest.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => parallelism = n,
                _ => {
                    eprintln!("--parallelism needs a positive number");
                    return ExitCode::from(2);
                }
            },
            "--log-file" => {
                if let Some(code) = log_to_file(rest.next()) {
                    return code;
                }
            }
            flag => {
                eprintln!("unknown flag '{flag}'");
                return ExitCode::from(2);
            }
        }
    }
    if coordinators.is_empty() {
        eprintln!("worker needs --coordinator ADDR[,STANDBY_ADDR...]");
        return ExitCode::from(2);
    }
    let coordinator = coordinators.join(",");
    let registry = HostRegistry::with_noop().with("etcd", etcd_host_factory());
    let config = WorkerConfig {
        coordinators,
        parallelism,
    };
    let agent = match WorkerAgent::start(config, registry) {
        Ok(agent) => agent,
        Err(e) => {
            eprintln!("cannot join fleet at {coordinator}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "worker {} serving coordinator {coordinator} ({parallelism} experiments at a time) — \
         Ctrl-C to stop",
        agent.id()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Boots the as-a-Service surface: the case-study `etcd` host plus the
/// `noop` host, served over HTTP until the process is killed.
fn serve(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:8080".to_string();
    let mut data_dir = None;
    let mut api_config = ApiConfig::default();
    let mut fleet = false;
    let mut standby_of: Option<String> = None;
    let mut fleet_config = FleetConfig::default();
    let mut rest = args.iter();
    // Parses the `usize` value of `--flag N`.
    let numeric = |flag: &str, value: Option<&String>| -> Result<usize, ExitCode> {
        match value.map(|v| v.parse::<usize>()) {
            Some(Ok(n)) if n > 0 => Ok(n),
            _ => {
                eprintln!("{flag} needs a positive number");
                Err(ExitCode::from(2))
            }
        }
    };
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--data-dir" => match rest.next() {
                Some(dir) => data_dir = Some(std::path::PathBuf::from(dir)),
                None => {
                    eprintln!("--data-dir needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--workers" => match numeric("--workers", rest.next()) {
                Ok(n) => api_config.http.workers = n,
                Err(code) => return code,
            },
            "--max-conns" => match numeric("--max-conns", rest.next()) {
                Ok(n) => api_config.http.max_connections = n,
                Err(code) => return code,
            },
            "--fleet" => fleet = true,
            "--standby-of" => match rest.next() {
                Some(primary) => {
                    fleet = true;
                    standby_of = Some(
                        primary
                            .strip_prefix("http://")
                            .unwrap_or(primary)
                            .trim_end_matches('/')
                            .to_string(),
                    );
                }
                None => {
                    eprintln!("--standby-of needs the primary's address");
                    return ExitCode::from(2);
                }
            },
            "--log-file" => {
                if let Some(code) = log_to_file(rest.next()) {
                    return code;
                }
            }
            "--lease-ms" => match numeric("--lease-ms", rest.next()) {
                Ok(n) => fleet_config.lease_ttl = std::time::Duration::from_millis(n as u64),
                Err(code) => return code,
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag '{flag}'");
                return ExitCode::from(2);
            }
            positional => addr = positional.to_string(),
        }
    }
    let registry = HostRegistry::with_noop().with("etcd", etcd_host_factory());
    // Warm standby: replicate the primary's logs into the (required)
    // data dir, take over on missed probes. No engine exists until the
    // promotion — the replica is the engine's future persistence root.
    if let Some(primary) = standby_of {
        let Some(dir) = data_dir else {
            eprintln!("--standby-of needs --data-dir (the replica directory)");
            return ExitCode::from(2);
        };
        let mut standby_config = StandbyConfig::new(primary.clone(), dir);
        standby_config.addr = addr;
        standby_config.api = api_config;
        standby_config.fleet = fleet_config;
        let standby = match StandbyServer::start(standby_config, registry) {
            Ok(standby) => standby,
            Err(e) => {
                eprintln!("cannot start standby: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "warm standby of http://{primary} — replicating, takes over on http://{} within one \
             lease period of a primary crash — Ctrl-C to stop",
            standby.addr(),
        );
        std::mem::forget(standby); // replicate/serve until the process dies
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    // The fleet worker registry shares the engine's persistence root.
    let data_dir_for_fleet = data_dir.clone();
    let config = EngineConfig {
        data_dir,
        executor: Default::default(),
    };
    let service = match CampaignService::new(config, registry) {
        Ok(service) => service,
        Err(e) => {
            eprintln!("cannot open engine: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workers = api_config.http.workers;
    let max_conns = api_config.http.max_connections;
    let bound = if fleet {
        fleet_config.data_dir = data_dir_for_fleet;
        match FleetServer::serve(&addr, service, api_config, fleet_config.clone()) {
            Ok(server) => {
                let bound = server.addr();
                std::mem::forget(server); // serve until the process dies
                bound
            }
            Err(e) => {
                eprintln!("cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        // The single-node server additionally mounts the scenario
        // catalog (`GET /api/matrix`) next to the campaign surface.
        let shared = SharedService::new(service);
        match ApiServer::serve_with(&addr, shared, api_config, scenarios::api::mount) {
            Ok(api) => {
                let bound = api.addr();
                std::mem::forget(api);
                bound
            }
            Err(e) => {
                eprintln!("cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!("profipy as-a-service listening on http://{bound}");
    println!("  POST /api/campaigns              submit a CampaignSpec (JSON)");
    println!("  GET  /api/campaigns/:id          job status");
    println!("  GET  /api/campaigns/:id/report   completed campaign report");
    println!("  POST /api/models                 save a fault model into a session");
    println!("  GET  /api/sessions/:user/reports report history");
    println!("  GET  /api/campaigns/:id/trace    merged execution timeline");
    println!("  GET  /metrics                    Prometheus exposition (latency histograms)");
    println!("  GET  /healthz                    liveness (role/uptime/version JSON)");
    if !fleet {
        println!("  GET  /api/matrix                 scenario catalog: targets × fault models");
    }
    if fleet {
        println!("  POST /api/workers/register       join the worker fleet");
        println!("  POST /api/workers/:id/lease      pull a batch of experiments");
        println!("  POST /api/workers/:id/heartbeat  keep the lease alive");
        println!("  POST /api/workers/:id/results    upload executed results");
        println!(
            "fleet mode: no local execution; leases expire after {}ms without a heartbeat \
             (workers beat every {}ms)",
            fleet_config.lease_ttl.as_millis(),
            fleet_config.heartbeat_interval().as_millis()
        );
        println!("join with: profipy-cli worker --coordinator {bound}");
    }
    println!(
        "limits: {max_conns} keep-alive connections over {workers} handler workers"
    );
    println!("hosts: etcd (case study), noop — Ctrl-C to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn scan_with(model: faultdsl::FaultModel) -> ExitCode {
    let workflow = case_study_workflow(model, 0);
    let points = workflow.scan();
    println!("{} injection point(s):", points.len());
    for p in &points {
        println!(
            "  [{:>3}] {:24} {}::{} at {}",
            p.id, p.spec_name, p.module, p.scope, p.span
        );
    }
    ExitCode::SUCCESS
}
