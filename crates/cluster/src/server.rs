//! The coordinator's HTTP surface: the full campaign REST API plus the
//! fleet routes, served by one `httpd` server over one shared
//! [`CampaignService`].
//!
//! | Method | Path                          | Purpose                                  |
//! |--------|-------------------------------|------------------------------------------|
//! | POST   | `/api/workers/register`       | join the fleet (`{"parallelism": N}`)    |
//! | POST   | `/api/workers/:id/lease`      | pull a batch of experiments + specs      |
//! | POST   | `/api/workers/:id/heartbeat`  | keep the lease alive                     |
//! | POST   | `/api/workers/:id/results`    | upload executed results (idempotent)     |
//! | GET    | `/api/fleet/status`           | role + epoch (the standby's health probe)|
//! | GET    | `/api/fleet/manifest`         | replicable files with sizes and hashes   |
//! | GET    | `/api/fleet/file?name=&offset=`| raw file bytes from an offset (tailing) |
//!
//! The local drive thread is **disabled** in fleet mode: campaigns
//! queue until workers lease them, and a background tick thread sweeps
//! expired leases back into the pending pool.
//!
//! On boot the coordinator **recovers before it serves**: leases the
//! previous epoch left in the WAL are re-armed while the listener's
//! kernel backlog holds early connections, so no request can observe
//! (or race) a half-recovered fleet.

use crate::coordinator::{Coordinator, FleetConfig, FleetError};
use crate::wire;
use campaign::api::{error_response, json_body};
use campaign::{ApiConfig, ApiServer, CampaignService, EngineError, SharedService};
use httpd::{Request, Response, Router};
use jsonlite::Value;
use std::collections::BTreeSet;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The running fleet coordinator: HTTP server + lease-expiry tick
/// thread over one shared [`CampaignService`].
pub struct FleetServer {
    api: Option<ApiServer>,
    coordinator: Option<Arc<Coordinator>>,
    tick_stop: Arc<AtomicBool>,
    tick: Option<JoinHandle<()>>,
}

impl FleetServer {
    /// Boots the coordinator on `addr` (port 0 for an ephemeral port).
    /// `api_config.local_drive` is forced off — in fleet mode the
    /// workers execute, the coordinator only leases and records.
    ///
    /// # Errors
    ///
    /// Socket bind or registry I/O failures.
    pub fn serve(
        addr: &str,
        service: CampaignService,
        api_config: ApiConfig,
        fleet_config: FleetConfig,
    ) -> Result<FleetServer, EngineError> {
        let listener = TcpListener::bind(addr)?;
        FleetServer::serve_listener(listener, service, api_config, fleet_config)
    }

    /// [`FleetServer::serve`] on an already-bound listener — how a
    /// promoted standby starts serving the address it bound at boot.
    /// WAL recovery runs **before** the HTTP server starts: connections
    /// queued in the kernel backlog are answered only once every
    /// replayed lease is re-armed.
    ///
    /// # Errors
    ///
    /// Registry/WAL I/O or recovery failures.
    pub fn serve_listener(
        listener: TcpListener,
        service: CampaignService,
        mut api_config: ApiConfig,
        fleet_config: FleetConfig,
    ) -> Result<FleetServer, EngineError> {
        api_config.local_drive = false;
        let shared = SharedService::new(service);
        shared.set_role("fleet");
        let coordinator = Arc::new(
            Coordinator::new(shared.clone(), fleet_config.clone()).map_err(|e| EngineError {
                message: format!("fleet registry: {e}"),
            })?,
        );
        coordinator.recover().map_err(|e| EngineError {
            message: format!("fleet recovery: {e}"),
        })?;
        let data_dir = fleet_config.data_dir.clone();
        let mount_coord = coordinator.clone();
        let api = ApiServer::serve_with_listener(listener, shared, api_config, move |router, shared| {
            mount_fleet_routes(router, mount_coord, shared.clone(), data_dir)
        })?;
        let tick_stop = Arc::new(AtomicBool::new(false));
        let tick_coord = coordinator.clone();
        let stop_flag = tick_stop.clone();
        let interval = fleet_config.tick_interval();
        let tick = std::thread::Builder::new()
            .name("fleet-tick".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::SeqCst) {
                    tick_coord.tick();
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn fleet tick thread");
        Ok(FleetServer {
            api: Some(api),
            coordinator: Some(coordinator),
            tick_stop,
            tick: Some(tick),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.api.as_ref().expect("server running").addr()
    }

    /// The coordinator (lease/requeue introspection for tests and
    /// embedders).
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        self.coordinator.as_ref().expect("server running")
    }

    /// Graceful stop: join the tick thread, return every checked-out
    /// campaign to the queue (completing finished ones), drain HTTP,
    /// and hand the service back.
    pub fn shutdown(mut self) -> CampaignService {
        self.stop_tick();
        if let Some(coordinator) = self.coordinator.take() {
            if let Err(e) = coordinator.drain() {
                // Campaigns it could not return may stay `Running` on
                // disk until the next start recovers them.
                obs::log!(
                    obs::Level::Error,
                    "fleet_drain_failed",
                    "error" => format!("{e}"),
                );
            }
            // The remaining strong references live in the router's
            // handlers; ApiServer::shutdown joins the server, dropping
            // them (and with them the coordinator's SharedService).
            drop(coordinator);
        }
        self.api.take().expect("server running").shutdown()
    }

    /// Simulated crash (tests): stop serving **without** draining — the
    /// queue keeps its `Running` jobs, the WAL keeps its live leases,
    /// the registry keeps its workers. Exactly the disk state a killed
    /// process leaves behind for a standby to recover from.
    pub fn kill(mut self) {
        self.stop_tick();
        // No drain: dropping the coordinator leaves leases and checked-
        // out campaigns exactly as they were.
        self.coordinator.take();
        drop(self.api.take().expect("server running").shutdown());
    }

    /// Stops and joins the lease-expiry tick thread.
    fn stop_tick(&mut self) {
        self.tick_stop.store(true, Ordering::SeqCst);
        if let Some(tick) = self.tick.take() {
            obs::log::join_logged(tick, "fleet_tick_thread_panicked");
        }
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.tick_stop.store(true, Ordering::SeqCst);
    }
}

fn mount_fleet_routes(
    router: Router,
    coordinator: Arc<Coordinator>,
    shared: SharedService,
    data_dir: Option<PathBuf>,
) -> Router {
    let register = {
        let coordinator = coordinator.clone();
        let shared = shared.clone();
        move |req: &Request| {
            shared.count_request();
            register_worker(&coordinator, req)
        }
    };
    let status = {
        let coordinator = coordinator.clone();
        let shared = shared.clone();
        move |req: &Request| {
            shared.count_request();
            let _ = req;
            fleet_status(&coordinator)
        }
    };
    let manifest = {
        let dir = data_dir.clone();
        let coordinator = coordinator.clone();
        let shared = shared.clone();
        move |req: &Request| {
            shared.count_request();
            let _ = req;
            fleet_manifest(&coordinator, dir.as_deref())
        }
    };
    let file = {
        let dir = data_dir;
        let shared = shared.clone();
        move |req: &Request| {
            shared.count_request();
            fleet_file(dir.as_deref(), req)
        }
    };
    let lease = {
        let coordinator = coordinator.clone();
        let shared = shared.clone();
        move |req: &Request| {
            shared.count_request();
            lease_jobs(&coordinator, req)
        }
    };
    let heartbeat = {
        let coordinator = coordinator.clone();
        let shared = shared.clone();
        move |req: &Request| {
            shared.count_request();
            heartbeat_worker(&coordinator, req)
        }
    };
    let results = {
        move |req: &Request| {
            shared.count_request();
            upload_results(&coordinator, req)
        }
    };
    router
        .route("POST", "/api/workers/register", register)
        .route("POST", "/api/workers/:id/lease", lease)
        .route("POST", "/api/workers/:id/heartbeat", heartbeat)
        .route("POST", "/api/workers/:id/results", results)
        .route("GET", "/api/fleet/status", status)
        .route("GET", "/api/fleet/manifest", manifest)
        .route("GET", "/api/fleet/file", file)
}

// ---------- handlers ----------

fn register_worker(coordinator: &Coordinator, req: &Request) -> Response {
    let body = match json_body(req) {
        Ok(v) => v,
        Err(resp) => return *resp,
    };
    let parallelism = body
        .get("parallelism")
        .and_then(Value::as_u64)
        .unwrap_or(1)
        .max(1) as usize;
    match coordinator.register(parallelism) {
        Ok(id) => {
            let config = coordinator.config();
            Response::json(
                201,
                Value::obj(vec![
                    ("id", Value::str(&id)),
                    (
                        "lease_ttl_ms",
                        Value::UInt(config.lease_ttl.as_millis() as u64),
                    ),
                    (
                        "heartbeat_ms",
                        Value::UInt(config.heartbeat_interval().as_millis() as u64),
                    ),
                    ("lease_batch_max", config.lease_batch_max.into()),
                ])
                .pretty(),
            )
        }
        Err(e) => error_response(500, &format!("worker registry: {e}")),
    }
}

fn lease_jobs(coordinator: &Coordinator, req: &Request) -> Response {
    let worker = req.param("id").unwrap_or_default().to_string();
    let body = match json_body(req) {
        Ok(v) => v,
        Err(resp) => return *resp,
    };
    let max_jobs = body.get("max_jobs").and_then(Value::as_u64).unwrap_or(1) as usize;
    let known: BTreeSet<String> = body
        .get("known")
        .and_then(Value::as_arr)
        .map(|ids| {
            ids.iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    match coordinator.lease(&worker, max_jobs, &known) {
        Ok(grant) => match wire::lease_grant_to_value(&grant) {
            Ok(value) => Response::json(200, value.pretty()),
            Err(e) => error_response(500, &format!("lease serialization: {e}")),
        },
        Err(e) => fleet_error_response(&e),
    }
}

fn heartbeat_worker(coordinator: &Coordinator, req: &Request) -> Response {
    let worker = req.param("id").unwrap_or_default().to_string();
    match coordinator.heartbeat(&worker) {
        Ok(extended) => Response::json(
            200,
            Value::obj(vec![("lease_extended", Value::Bool(extended))]).pretty(),
        ),
        Err(e) => fleet_error_response(&e),
    }
}

fn upload_results(coordinator: &Coordinator, req: &Request) -> Response {
    let worker = req.param("id").unwrap_or_default().to_string();
    let body = match json_body(req) {
        Ok(v) => v,
        Err(resp) => return *resp,
    };
    let results = match wire::results_from_value(&body) {
        Ok(results) => results,
        Err(e) => return error_response(422, &format!("invalid results: {e}")),
    };
    // Worker phase spans ride the upload; merge them into the campaign
    // timelines before recording the results (telemetry-tolerant: a
    // missing or malformed spans array never fails the upload).
    if let Some(spans) = body.opt("spans") {
        let spans = wire::spans_from_value(spans);
        if !spans.is_empty() {
            coordinator.record_wire_spans(&worker, &spans);
        }
    }
    // The epoch the worker's lease was granted under (absent from
    // pre-epoch workers). Old-epoch uploads are absorbed, not rejected.
    let epoch = body.opt("epoch").and_then(Value::as_u64);
    match coordinator.report_results_stamped(&worker, epoch, results) {
        Ok(summary) => Response::json(
            200,
            Value::obj(vec![
                ("accepted", Value::UInt(summary.accepted)),
                ("duplicates", Value::UInt(summary.duplicates)),
                ("completed", Value::arr(&summary.completed)),
            ])
            .pretty(),
        ),
        Err(e) => fleet_error_response(&e),
    }
}

fn fleet_status(coordinator: &Coordinator) -> Response {
    Response::json(
        200,
        Value::obj(vec![
            ("role", Value::str("primary")),
            ("epoch", Value::UInt(coordinator.epoch())),
            (
                "lease_ttl_ms",
                Value::UInt(coordinator.config().lease_ttl.as_millis() as u64),
            ),
        ])
        .pretty(),
    )
}

/// The files a standby replicates, with sizes and content hashes so it
/// can tail appends cheaply and detect rewrites (compaction). `cache/`
/// is deliberately absent: mutant preparation is deterministic, a
/// promoted standby just re-prepares.
fn fleet_manifest(coordinator: &Coordinator, dir: Option<&Path>) -> Response {
    let mut files = Vec::new();
    if let Some(dir) = dir {
        let mut push = |name: String, path: &Path| {
            if let Ok(bytes) = std::fs::read(path) {
                files.push(Value::obj(vec![
                    ("name", Value::str(&name)),
                    ("size", Value::UInt(bytes.len() as u64)),
                    ("hash", Value::UInt(jsonlite::stable_hash64(&bytes))),
                ]));
            }
        };
        for log in ["fleet-workers.jsonl", "fleet-leases.jsonl"] {
            push(log.to_string(), &dir.join(log));
        }
        for sub in ["queue", "checkpoints"] {
            let Ok(entries) = std::fs::read_dir(dir.join(sub)) else {
                continue;
            };
            let mut names: Vec<String> = entries
                .filter_map(|e| e.ok()?.file_name().into_string().ok())
                .filter(|n| replicable_name(n))
                .collect();
            names.sort();
            for name in names {
                push(format!("{sub}/{name}"), &dir.join(sub).join(&name));
            }
        }
    }
    Response::json(
        200,
        Value::obj(vec![
            ("epoch", Value::UInt(coordinator.epoch())),
            ("files", Value::Arr(files)),
        ])
        .pretty(),
    )
}

fn fleet_file(dir: Option<&Path>, req: &Request) -> Response {
    let Some(dir) = dir else {
        return error_response(404, "coordinator has no data dir");
    };
    let mut name = None;
    let mut offset = 0u64;
    for pair in req.query.split('&') {
        match pair.split_once('=') {
            Some(("name", v)) => name = Some(v.to_string()),
            Some(("offset", v)) => offset = v.parse().unwrap_or(0),
            _ => {}
        }
    }
    let Some(name) = name else {
        return error_response(422, "missing 'name' query parameter");
    };
    if !replicable_path(&name) {
        return error_response(404, "file is not replicable");
    }
    let Ok(bytes) = std::fs::read(dir.join(&name)) else {
        return error_response(404, "no such file");
    };
    let tail = bytes.get(offset.min(bytes.len() as u64) as usize..).unwrap_or(&[]);
    Response::new(200)
        .header("Content-Type", "application/octet-stream")
        .with_body(tail.to_vec())
}

/// Whether `name` is a replicable relative path: one of the two fleet
/// logs, or a single well-formed filename under `queue/` or
/// `checkpoints/`. Everything else — absolute paths, `..`, nested
/// directories, odd characters — is rejected, so the file route can
/// never read outside the data dir.
fn replicable_path(name: &str) -> bool {
    if name == "fleet-workers.jsonl" || name == "fleet-leases.jsonl" {
        return true;
    }
    match name.split_once('/') {
        Some(("queue" | "checkpoints", file)) => replicable_name(file),
        _ => false,
    }
}

fn replicable_name(file: &str) -> bool {
    !file.is_empty()
        && !file.contains("..")
        && file
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

// ---------- helpers ----------

fn fleet_error_response(e: &FleetError) -> Response {
    match e {
        FleetError::UnknownWorker(_) => error_response(404, &e.to_string()),
        FleetError::Engine(_) | FleetError::Io(_) => error_response(500, &e.to_string()),
    }
}
