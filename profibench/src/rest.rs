//! The closed-loop REST client and the servers it drives: one thread,
//! one keep-alive connection, the next request only after the last
//! response.

use crate::workloads::{registry, EXECUTOR_CORES};
use campaign::{ApiConfig, ApiServer, CampaignService, CampaignSpec, EngineConfig};
use cluster::{FleetConfig, FleetServer, WorkerAgent, WorkerConfig, WorkerHandle, WorkerStats};
use httpd::Client;
use sandbox::ParallelExecutor;
use std::time::{Duration, Instant};

/// Experiments the fleet worker runs at once.
pub const WORKER_PARALLELISM: usize = 1;
/// Pause after a status response that was not final. `Matrix::run_http`
/// sleeps 20 ms, which would quantise every latency measured here.
const POLL_PAUSE: Duration = Duration::from_millis(1);
/// An op that takes longer than this counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(60);

/// A fresh in-memory service with everything at its default except
/// the pinned executor width.
pub fn service() -> CampaignService {
    CampaignService::new(
        EngineConfig {
            data_dir: None,
            executor: ParallelExecutor::new(EXECUTOR_CORES),
        },
        registry(),
    )
    .expect("an in-memory engine opens no files")
}

/// What `profipy-cli serve` gives a user.
pub fn boot_single() -> ApiServer {
    ApiServer::serve("127.0.0.1:0", service(), ApiConfig::default()).expect("bind loopback")
}

/// `serve --fleet` plus one worker.
pub struct Fleet {
    pub server: FleetServer,
    worker: WorkerHandle,
}

impl Fleet {
    pub fn boot() -> Fleet {
        let server = FleetServer::serve(
            "127.0.0.1:0",
            service(),
            ApiConfig::default(),
            FleetConfig::default(),
        )
        .expect("bind loopback");
        let worker = WorkerAgent::start(
            WorkerConfig {
                parallelism: WORKER_PARALLELISM,
                ..WorkerConfig::new(server.addr().to_string())
            },
            registry(),
        )
        .expect("worker registers with a running coordinator");
        Fleet { server, worker }
    }

    pub fn shutdown(self) -> (CampaignService, WorkerStats) {
        let stats = self.worker.stop();
        (self.server.shutdown(), stats)
    }
}

/// One op as the client saw it.
#[derive(Default)]
pub struct OpOutcome {
    /// The op's number; picks its specs and its reference reports.
    pub n: u64,
    /// The campaign ids the server assigned, in submit order.
    pub ids: Vec<String>,
    /// First submit sent → last report body received, seconds.
    pub latency: f64,
    pub submit_rtts: Vec<f64>,
    pub status_rtts: Vec<f64>,
    pub report_rtts: Vec<f64>,
    /// Σ `executed` over the fetched reports.
    pub experiments: u64,
    /// `stable_hash64` of each fetched report body, in submit order.
    pub digests: Vec<u64>,
    /// Why the op failed, if it did.
    pub failure: Option<String>,
}

impl OpOutcome {
    pub fn requests(&self) -> usize {
        self.submit_rtts.len() + self.status_rtts.len() + self.report_rtts.len()
    }
}

/// Submits every spec, polls each campaign to completion, fetches
/// every report.
pub fn run_op(client: &mut Client, bodies: &[String]) -> OpOutcome {
    let mut out = OpOutcome::default();
    let started = Instant::now();
    if let Err(why) = drive_op(client, bodies, started, &mut out) {
        out.failure = Some(why);
    }
    out.latency = started.elapsed().as_secs_f64();
    out
}

fn drive_op(
    client: &mut Client,
    bodies: &[String],
    started: Instant,
    out: &mut OpOutcome,
) -> Result<(), String> {
    for body in bodies {
        let sent = Instant::now();
        let resp = client
            .post_json("/api/campaigns", body)
            .map_err(|e| format!("submit: {e}"))?;
        out.submit_rtts.push(sent.elapsed().as_secs_f64());
        if resp.status != 201 {
            return Err(format!("submit: HTTP {} {}", resp.status, resp.text()));
        }
        let id = jsonlite::parse(&resp.text())?
            .req("id")?
            .as_str()
            .ok_or("campaign id must be a string")?
            .to_string();
        out.ids.push(id);
    }
    let ids = out.ids.clone();
    for id in &ids {
        let path = format!("/api/campaigns/{id}");
        loop {
            let sent = Instant::now();
            let resp = client.get(&path).map_err(|e| format!("status {id}: {e}"))?;
            out.status_rtts.push(sent.elapsed().as_secs_f64());
            if resp.status != 200 {
                return Err(format!("status {id}: HTTP {}", resp.status));
            }
            let body = jsonlite::parse(&resp.text())?;
            match body.req("state")?.as_str().unwrap_or("") {
                "completed" => break,
                "failed" => return Err(format!("job {id} failed: {}", resp.text())),
                _ if started.elapsed() > OP_TIMEOUT => return Err(format!("job {id} timed out")),
                _ => std::thread::sleep(POLL_PAUSE),
            }
        }
    }
    for id in &ids {
        let sent = Instant::now();
        let resp = client
            .get(&format!("/api/campaigns/{id}/report"))
            .map_err(|e| format!("report {id}: {e}"))?;
        out.report_rtts.push(sent.elapsed().as_secs_f64());
        if resp.status != 200 {
            return Err(format!("report {id}: HTTP {}", resp.status));
        }
        out.digests.push(jsonlite::stable_hash64(&resp.body));
        out.experiments += jsonlite::parse(&resp.text())?
            .req("executed")?
            .as_u64()
            .ok_or("'executed' must be a u64")?;
    }
    Ok(())
}

pub fn bodies(specs: &[CampaignSpec]) -> Vec<String> {
    specs.iter().map(CampaignSpec::to_json).collect()
}

/// Round-trip times of `n` requests for `path` against an idle server.
pub fn idle_rtts(client: &mut Client, path: &str, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let sent = Instant::now();
            let resp = client.get(path).map_err(|e| format!("{path}: {e}"))?;
            if resp.status != 200 {
                return Err(format!("{path}: HTTP {}", resp.status));
            }
            Ok(sent.elapsed().as_secs_f64())
        })
        .collect()
}
