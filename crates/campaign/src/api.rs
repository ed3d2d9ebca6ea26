//! The REST surface over [`CampaignService`] — the paper's
//! "fault injection as-a-service" made reachable over the network.
//!
//! | Method | Path                         | Purpose                           |
//! |--------|------------------------------|-----------------------------------|
//! | POST   | `/api/campaigns`             | submit a [`CampaignSpec`] (JSON)  |
//! | GET    | `/api/campaigns/:id`         | job status                        |
//! | GET    | `/api/campaigns/:id/report`  | completed campaign report (JSON)  |
//! | POST   | `/api/models`                | save a fault model into a session |
//! | GET    | `/api/sessions/:user/reports`| a user's report history           |
//! | GET    | `/api/campaigns/:id/trace`   | merged execution timeline (JSON)  |
//! | GET    | `/metrics`                   | Prometheus exposition             |
//! | GET    | `/healthz`                   | liveness probe (JSON)             |
//!
//! Handlers never run campaigns: submissions land in the engine's
//! persistent queue, and a background **drive thread** pumps
//! [`CampaignService::drive`] in small budget slices behind the shared
//! mutex. `GET /api/campaigns/:id` never takes that mutex: it reads the
//! engine's [`StatusBoard`], so a status request is answered in
//! microseconds however long the running experiment takes. Neither does
//! `GET /api/campaigns/:id/report`: a completed job's report is on the
//! board, published in the same write as the `completed` state, so a
//! client that reads that state can fetch it. Nor does `GET /metrics`:
//! every series is an instrument in the service's [`obs::Registry`],
//! updated where its value changes, so a scrape is one render.

use crate::engine::{EngineError, JobStatus, StatusBoard};
use crate::service::CampaignService;
use crate::spec::CampaignSpec;
use httpd::{Request, Response, Router, Server, ServerConfig};
use jsonlite::Value;
use profipy::report::CampaignReport;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trace::TraceStore;

/// Nesting-depth cap applied to untrusted request bodies.
const REQUEST_JSON_DEPTH: usize = 64;

/// Safety-net park bound for an idle drive thread: with an empty queue
/// the loop waits on the wake condvar instead of spinning, and this
/// bounds how long a (hypothetical) missed wakeup could stall newly
/// queued work. Submissions notify the condvar, so the normal idle
/// cost is zero drive calls, not one per park.
const DRIVE_IDLE_PARK: Duration = Duration::from_secs(5);

/// Experiments per drive slice: small keeps poll latency low, large
/// amortizes scheduling overhead.
const DRIVE_BATCH: usize = 8;

/// API server options.
#[derive(Clone, Debug)]
pub struct ApiConfig {
    /// The HTTP layer (worker pool, queue depth, body cap).
    pub http: ServerConfig,
    /// Whether to run the background drive thread that executes queued
    /// campaigns in-process. Fleet coordinators disable it: their
    /// campaigns are executed by remote workers, not the local pool.
    pub local_drive: bool,
}

impl Default for ApiConfig {
    fn default() -> ApiConfig {
        ApiConfig {
            http: ServerConfig::default(),
            local_drive: true,
        }
    }
}

struct ApiState {
    service: Mutex<CampaignService>,
    /// The engine's published job statuses and reports — what status
    /// and report requests read instead of locking `service`.
    status: Arc<StatusBoard>,
    /// `profipy_http_requests_total`: requests the API handlers served.
    api_requests: obs::Counter,
    drive_errors: Mutex<Option<String>>,
    /// `profipy_drive_calls_total`: drive slices executed so far —
    /// observable proof that an idle server is *not* burning a core
    /// behind the service mutex.
    drive_calls: obs::Counter,
    /// Wake sequence for the drive thread: bumped (and notified) on
    /// every submission so an idle, parked drive loop reacts
    /// immediately instead of polling.
    wake_seq: Mutex<u64>,
    wake: Condvar,
    /// Every series `/metrics` renders, in Prometheus exposition format.
    /// Every layer — httpd, the engine, the fleet coordinator —
    /// registers into this one registry.
    registry: Arc<obs::Registry>,
    /// Per-campaign execution timelines (spans from the engine and,
    /// under a fleet coordinator, from remote workers).
    trace: Arc<TraceStore>,
    /// Service boot time — `uptime_seconds` on `/healthz`.
    started: Instant,
    /// Deployment role reported by `/healthz`: `"local"` unless an
    /// extension (the fleet coordinator, the worker agent) claims
    /// another one.
    role: OnceLock<String>,
}

impl ApiState {
    /// Locks the service, recovering from a poisoned lock (a panicking
    /// handler must not take the whole service down).
    fn service(&self) -> MutexGuard<'_, CampaignService> {
        self.service
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn notify_drive(&self) {
        let mut seq = self.wake_seq.lock().unwrap_or_else(|p| p.into_inner());
        *seq = seq.wrapping_add(1);
        self.wake.notify_all();
    }
}

/// A cloneable handle to the service shared by the API handlers — the
/// extension point for mounting additional surfaces (the cluster
/// crate's fleet routes) onto the same server and state.
#[derive(Clone)]
pub struct SharedService {
    state: Arc<ApiState>,
}

impl SharedService {
    /// Wraps a service for sharing. [`ApiServer::serve`] does this
    /// internally; build one yourself to drive the service from both an
    /// extension (e.g. a fleet coordinator) and the API server, or to
    /// test extensions without HTTP.
    pub fn new(mut service: CampaignService) -> SharedService {
        let registry = Arc::new(obs::Registry::new());
        let trace = Arc::new(TraceStore::new());
        service.engine().metrics().register_into(&registry);
        sandbox::prepare_cache_metrics().register_into(&registry);
        sandbox::heap_metrics().register_into(&registry);
        service.engine().set_trace_store(trace.clone());
        let status = service.engine().status_board();
        let api_requests = registry.counter(
            "profipy_http_requests_total",
            "Requests served by the API handlers, fleet routes included.",
        );
        let drive_calls = registry.counter(
            "profipy_drive_calls_total",
            "Drive slices the background drive thread has run.",
        );
        SharedService {
            state: Arc::new(ApiState {
                service: Mutex::new(service),
                status,
                api_requests,
                drive_errors: Mutex::new(None),
                drive_calls,
                wake_seq: Mutex::new(0),
                wake: Condvar::new(),
                registry,
                trace,
                started: Instant::now(),
                role: OnceLock::new(),
            }),
        }
    }

    /// Locks the shared service (poison-recovering).
    pub fn lock(&self) -> MutexGuard<'_, CampaignService> {
        self.state.service()
    }

    /// Wakes the background drive thread. Call after submitting work
    /// through [`SharedService::lock`] directly (the HTTP submission
    /// handler already does).
    pub fn notify_drive(&self) {
        self.state.notify_drive();
    }

    /// Counts a request against the API's `http_requests_total` counter
    /// — for externally mounted routes.
    pub fn count_request(&self) {
        self.state.api_requests.inc();
    }

    /// The metrics registry `/metrics` renders. Extensions (the fleet
    /// surface) register their instruments here; the HTTP layer records
    /// request latencies into it too.
    pub fn metrics_registry(&self) -> Arc<obs::Registry> {
        self.state.registry.clone()
    }

    /// The per-campaign trace store behind
    /// `GET /api/campaigns/:id/trace`. The engine records its
    /// prepare/execute spans here; fleet coordinators merge in spans
    /// shipped back by remote workers.
    pub fn trace_store(&self) -> Arc<TraceStore> {
        self.state.trace.clone()
    }

    /// Claims the deployment role reported by `/healthz` (first caller
    /// wins; the default is `"local"`).
    pub fn set_role(&self, role: &str) {
        // Benign when already claimed: first caller wins by design.
        let _ = self.state.role.set(role.to_string());
    }
}

/// The running as-a-Service stack: HTTP server + drive thread over one
/// shared [`CampaignService`].
pub struct ApiServer {
    server: Option<Server>,
    state: Arc<ApiState>,
    stop: Arc<AtomicBool>,
    drive: Option<JoinHandle<()>>,
}

impl ApiServer {
    /// Boots the service on `addr` (port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn serve(
        addr: &str,
        service: CampaignService,
        config: ApiConfig,
    ) -> Result<ApiServer, EngineError> {
        ApiServer::serve_with(addr, SharedService::new(service), config, |router, _| router)
    }

    /// Boots the service over an externally created [`SharedService`],
    /// letting `mount` add routes to the router before it binds (this
    /// is how the cluster crate mounts the fleet surface onto the same
    /// server). For [`ApiServer::shutdown`] to hand the service back,
    /// every other `SharedService` clone must be dropped first.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn serve_with(
        addr: &str,
        shared: SharedService,
        config: ApiConfig,
        mount: impl FnOnce(Router, &SharedService) -> Router,
    ) -> Result<ApiServer, EngineError> {
        let listener = std::net::TcpListener::bind(addr)?;
        ApiServer::serve_with_listener(listener, shared, config, mount)
    }

    /// [`ApiServer::serve_with`] over an already-bound listener — how a
    /// warm standby serves the address it bound at boot only once it
    /// promotes itself.
    ///
    /// # Errors
    ///
    /// Listener address lookup failures.
    pub fn serve_with_listener(
        listener: std::net::TcpListener,
        shared: SharedService,
        config: ApiConfig,
        mount: impl FnOnce(Router, &SharedService) -> Router,
    ) -> Result<ApiServer, EngineError> {
        let state = shared.state.clone();
        let router = mount(build_router(state.clone()), &shared);
        drop(shared);
        let mut http = config.http.clone();
        // Unless the caller supplied its own registry, record HTTP
        // request/queue-wait histograms into the service registry so
        // they surface on this server's own `/metrics`.
        if http.metrics.is_none() {
            http.metrics = Some(state.registry.clone());
        }
        let server = Server::from_listener(listener, router, http)?;
        state.registry.register_gauge(
            "profipy_http_open_connections",
            "Connections the HTTP server holds open, idle keep-alive clients included.",
            &server.connections_open_gauge(),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let drive = if config.local_drive {
            let drive_state = state.clone();
            let drive_stop = stop.clone();
            Some(
                std::thread::Builder::new()
                    .name("campaign-drive".into())
                    .stack_size(pyrt::interp::STACK_BYTES)
                    .spawn(move || drive_loop(&drive_state, &drive_stop))
                    .expect("spawn drive thread"),
            )
        } else {
            None
        };
        Ok(ApiServer {
            server: Some(server),
            state,
            stop,
            drive,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }

    /// Requests served by the API handlers so far.
    pub fn requests_served(&self) -> u64 {
        self.state.api_requests.value()
    }

    /// Drive slices executed by the background thread so far. An idle
    /// server performs no drive work: the loop parks on a condvar until
    /// a submission wakes it (plus a coarse safety-net timeout).
    pub fn drive_calls(&self) -> u64 {
        self.state.drive_calls.value()
    }

    /// Graceful stop: drain in-flight HTTP requests, then let the
    /// drive thread finish its current slice and join it. Queued work
    /// survives in the engine (and on disk for persistent engines).
    pub fn shutdown(mut self) -> CampaignService {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.stop.store(true, Ordering::SeqCst);
        self.state.notify_drive(); // unpark an idle drive thread
        if let Some(drive) = self.drive.take() {
            // A panicked drive loop means campaigns silently stopped
            // progressing.
            obs::log::join_logged(drive, "drive_thread_panicked");
        }
        // The Arc is ours alone now: handlers are drained and the
        // drive thread is joined.
        match Arc::try_unwrap(self.state) {
            Ok(state) => state
                .service
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
            Err(_) => unreachable!("all state holders joined before unwrap"),
        }
    }
}

fn drive_loop(state: &ApiState, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        // Snapshot the wake sequence *before* driving: a submission
        // that lands mid-drive bumps it, so the park below falls
        // through instead of sleeping on work that already arrived.
        let seq_before = *state.wake_seq.lock().unwrap_or_else(|p| p.into_inner());
        let worked = {
            let mut service = state.service();
            match service.drive(Some(DRIVE_BATCH)) {
                Ok(summary) => summary.experiments > 0 || summary.campaigns > 0,
                Err(e) => {
                    *state
                        .drive_errors
                        .lock()
                        .unwrap_or_else(|p| p.into_inner()) = Some(e.message);
                    false
                }
            }
        };
        state.drive_calls.inc();
        if !worked {
            // Idle (or wedged): park until a submission (or shutdown)
            // notifies the condvar — an idle server performs no drive
            // work at all between submissions, instead of pumping the
            // service mutex in a tight loop.
            let guard = state.wake_seq.lock().unwrap_or_else(|p| p.into_inner());
            // Benign: a timeout here is the idle heartbeat, not an
            // error — the loop re-checks `stop` and the queue either way.
            let _ = state.wake.wait_timeout_while(guard, DRIVE_IDLE_PARK, |seq| {
                *seq == seq_before && !stop.load(Ordering::SeqCst)
            });
        }
    }
}

fn build_router(state: Arc<ApiState>) -> Router {
    Router::new()
        .route("POST", "/api/campaigns", counted(&state, submit_campaign))
        .route("GET", "/api/campaigns/:id", counted(&state, job_status))
        .route(
            "GET",
            "/api/campaigns/:id/report",
            counted(&state, job_report),
        )
        .route("POST", "/api/models", counted(&state, upload_model))
        .route(
            "GET",
            "/api/sessions/:user/reports",
            counted(&state, session_reports),
        )
        .route(
            "GET",
            "/api/campaigns/:id/trace",
            counted(&state, job_trace),
        )
        .route("GET", "/metrics", counted(&state, metrics))
        .route("GET", "/healthz", counted(&state, healthz))
}

fn counted(
    state: &Arc<ApiState>,
    handler: fn(&ApiState, &Request) -> Response,
) -> impl Fn(&Request) -> Response + Send + Sync + 'static {
    let state = state.clone();
    move |req| {
        state.api_requests.inc();
        handler(&state, req)
    }
}

// ---------- handlers ----------

fn submit_campaign(state: &ApiState, req: &Request) -> Response {
    let body = match json_body(req) {
        Ok(v) => v,
        Err(resp) => return *resp,
    };
    let spec = match CampaignSpec::from_value(&body) {
        Ok(spec) => spec,
        Err(e) => return error_response(422, &format!("invalid campaign spec: {e}")),
    };
    let outcome = state.service().submit(spec);
    match outcome {
        Ok(id) => {
            // Wake the (possibly idle-parked) drive thread.
            state.notify_drive();
            Response::json(
                201,
                Value::obj(vec![
                    ("id", Value::str(&id)),
                    ("status_url", Value::str(format!("/api/campaigns/{id}"))),
                ])
                .pretty(),
            )
        }
        Err(e) => error_response(422, &e.message),
    }
}

fn job_status(state: &ApiState, req: &Request) -> Response {
    let id = req.param("id").unwrap_or_default();
    match state.status.get(id) {
        Some(status) => Response::json(200, status_to_value(&status).pretty()),
        None => error_response(404, &format!("unknown job '{id}'")),
    }
}

fn job_report(state: &ApiState, req: &Request) -> Response {
    let id = req.param("id").unwrap_or_default();
    match state.status.get(id) {
        Some(JobStatus {
            report: Some(report),
            ..
        }) => Response::json(200, report_to_value(&report).pretty()),
        // Known job, not finished: tell the client to keep polling.
        Some(status) => Response::json(
            409,
            Value::obj(vec![
                ("error", Value::str("campaign not completed")),
                ("state", Value::str(status.state.as_str())),
            ])
            .pretty(),
        ),
        None => error_response(404, &format!("unknown job '{id}'")),
    }
}

fn upload_model(state: &ApiState, req: &Request) -> Response {
    let body = match json_body(req) {
        Ok(v) => v,
        Err(resp) => return *resp,
    };
    let (user, name) = match (body.req_str("user"), body.req_str("name")) {
        (Ok(u), Ok(n)) => (u.to_string(), n.to_string()),
        (Err(e), _) | (_, Err(e)) => return error_response(422, &e),
    };
    // Either a full fault-model document or bare DSL source.
    let model = if let Some(model_value) = body.get("model") {
        match faultdsl::FaultModel::from_value(model_value) {
            Ok(m) => m,
            Err(e) => return error_response(422, &format!("invalid fault model: {e}")),
        }
    } else if let Some(dsl) = body.get("dsl").and_then(Value::as_str) {
        faultdsl::FaultModel {
            name: name.clone(),
            description: "uploaded via POST /api/models".into(),
            specs: vec![faultdsl::SpecSource {
                name: name.to_ascii_uppercase(),
                description: String::new(),
                dsl: dsl.to_string(),
            }],
        }
    } else {
        return error_response(422, "body must carry 'model' (JSON) or 'dsl' (source text)");
    };
    // Validate before saving: a model that does not compile is useless.
    if let Err(e) = model.compile() {
        return error_response(422, &format!("fault model does not compile: {e}"));
    }
    let specs = model.specs.len();
    state.service().sessions.session(&user).save_model(&name, &model);
    Response::json(
        201,
        Value::obj(vec![
            ("user", Value::str(&user)),
            ("name", Value::str(&name)),
            ("specs", Value::UInt(specs as u64)),
        ])
        .pretty(),
    )
}

fn session_reports(state: &ApiState, req: &Request) -> Response {
    let user = req.param("user").unwrap_or_default();
    // Copy the history out and unlock before encoding it.
    let reports = state
        .service()
        .sessions
        .get_session(user)
        .map(|session| session.reports().to_vec());
    match reports {
        Some(reports) => Response::json(
            200,
            Value::obj(vec![
                ("user", Value::str(user)),
                ("reports", Value::arr(reports.iter().map(|r| report_to_value(r)))),
            ])
            .pretty(),
        ),
        None => error_response(404, &format!("unknown user '{user}'")),
    }
}

fn job_trace(state: &ApiState, req: &Request) -> Response {
    let id = req.param("id").unwrap_or_default();
    if state.status.get(id).is_none() {
        return error_response(404, &format!("unknown job '{id}'"));
    }
    // A known job with no recorded spans yet renders as an empty
    // timeline rather than a 404: the job exists, tracing just has
    // nothing for it (yet).
    let timeline = state.trace.timeline(id).unwrap_or_default();
    let dropped = state.trace.dropped(id);
    Response::json(
        200,
        Value::obj(vec![
            ("campaign", Value::str(id)),
            ("span_count", Value::UInt(timeline.spans().len() as u64)),
            ("dropped", Value::UInt(dropped)),
            ("spans", trace::json::timeline_to_value(&timeline)),
            ("render", Value::str(trace::render_timeline(&timeline, 72))),
        ])
        .pretty(),
    )
}

/// Every series is a registry instrument kept current where its value
/// changes: a scrape takes no lock but the registry's own.
fn metrics(state: &ApiState, _req: &Request) -> Response {
    Response::text(200, state.registry.render())
}

fn healthz(state: &ApiState, _req: &Request) -> Response {
    let error = state
        .drive_errors
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    let body = Value::obj(vec![
        (
            "status",
            Value::str(if error.is_some() { "error" } else { "ok" }),
        ),
        (
            "role",
            Value::str(state.role.get().map_or("local", String::as_str)),
        ),
        (
            "uptime_seconds",
            Value::UInt(state.started.elapsed().as_secs()),
        ),
        ("version", Value::str(env!("CARGO_PKG_VERSION"))),
        ("error", Value::or_null(error.as_ref())),
    ])
    .pretty();
    Response::json(if error.is_some() { 500 } else { 200 }, body)
}

// ---------- helpers & codecs ----------

/// Parses an untrusted request body as depth-limited JSON; the error
/// side is the ready-to-send 400. Shared by every surface mounted on
/// this server (the fleet routes included) so body hardening can never
/// drift between them.
pub fn json_body(req: &Request) -> Result<Value, Box<Response>> {
    let text = req
        .body_text()
        .map_err(|_| Box::new(error_response(400, "body must be UTF-8 JSON")))?;
    jsonlite::parse_with_depth_limit(text, REQUEST_JSON_DEPTH)
        .map_err(|e| Box::new(error_response(400, &format!("malformed JSON: {e}"))))
}

/// The API's uniform JSON error payload.
pub fn error_response(status: u16, message: &str) -> Response {
    Response::json(
        status,
        Value::obj(vec![("error", Value::str(message))]).pretty(),
    )
}

/// A [`JobStatus`] as a JSON value (the `GET /api/campaigns/:id`
/// payload).
pub fn status_to_value(status: &JobStatus) -> Value {
    Value::obj(vec![
        ("id", Value::str(&status.id)),
        ("state", Value::str(status.state.as_str())),
        ("user", Value::str(&status.user)),
        ("name", Value::str(&status.name)),
        ("completed_experiments", status.completed_experiments.into()),
        (
            "total_experiments",
            Value::or_null(status.total_experiments),
        ),
        ("error", Value::or_null(status.error.as_ref())),
    ])
}

/// A [`CampaignReport`] as a JSON value — the canonical wire form of
/// `GET /api/campaigns/:id/report`, and the serialization the
/// byte-identity acceptance test compares against.
pub fn report_to_value(report: &CampaignReport) -> Value {
    Value::obj(vec![
        ("name", Value::str(&report.name)),
        ("planned_points", Value::UInt(report.planned_points as u64)),
        ("covered_points", Value::or_null(report.covered_points)),
        ("executed", Value::UInt(report.executed as u64)),
        ("failures", Value::UInt(report.failures as u64)),
        ("availability", Value::Float(report.availability)),
        ("persistent", Value::UInt(report.persistent as u64)),
        ("logging", Value::Float(report.logging)),
        ("propagation", Value::Float(report.propagation)),
        (
            "total_virtual_secs",
            Value::Float(report.total_virtual_secs),
        ),
        (
            "mode_distribution",
            Value::Obj(
                report
                    .mode_distribution
                    .iter()
                    .map(|(mode, n)| (mode.clone(), Value::UInt(*n as u64)))
                    .collect(),
            ),
        ),
        (
            "per_spec",
            Value::Obj(
                report
                    .per_spec
                    .iter()
                    .map(|(spec, (executed, failed))| {
                        (spec.clone(), Value::arr([*executed, *failed]))
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, HostRegistry};
    use profipy::analysis::FailureClassifier;

    fn service() -> CampaignService {
        CampaignService::new(EngineConfig::default(), HostRegistry::with_noop()).unwrap()
    }

    fn noop_spec(user: &str, name: &str) -> CampaignSpec {
        CampaignSpec::new(
            user,
            name,
            "noop",
            vec![(
                "target".into(),
                "def f():\n    x = 1\n    log_event()\n    return x\n".into(),
            )],
            "import target\ndef run(round):\n    target.f()\n".into(),
            faultdsl::predefined_models(),
        )
    }

    #[test]
    fn report_value_is_deterministic_and_complete() {
        let report = CampaignReport::from_results(
            "api-test",
            7,
            Some(4),
            &[],
            &FailureClassifier::case_study(),
        );
        let v = report_to_value(&report);
        assert_eq!(v.req("name").unwrap().as_str(), Some("api-test"));
        assert_eq!(v.req("planned_points").unwrap().as_u64(), Some(7));
        assert_eq!(v.req("covered_points").unwrap().as_u64(), Some(4));
        // Serialization is stable: the byte-identity contract.
        assert_eq!(v.pretty(), report_to_value(&report).pretty());
    }

    #[test]
    fn drive_thread_completes_submissions_end_to_end() {
        let api = ApiServer::serve("127.0.0.1:0", service(), ApiConfig::default()).unwrap();
        let addr = api.addr().to_string();
        let mut client = httpd::Client::new(&addr);
        let resp = client
            .post_json("/api/campaigns", &noop_spec("alice", "smoke").to_json())
            .unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
        let id = jsonlite::parse(&resp.text())
            .unwrap()
            .req("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let status = client.get(&format!("/api/campaigns/{id}")).unwrap();
            assert_eq!(status.status, 200);
            let state = jsonlite::parse(&status.text())
                .unwrap()
                .req("state")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            if state == "completed" {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "campaign stuck in state {state}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let report = client.get(&format!("/api/campaigns/{id}/report")).unwrap();
        assert_eq!(report.status, 200);
        let report = jsonlite::parse(&report.text()).unwrap();
        assert!(report.req("executed").unwrap().as_u64().unwrap() > 0);
        // The report was also delivered into the session history.
        let sessions = client.get("/api/sessions/alice/reports").unwrap();
        assert_eq!(sessions.status, 200);
        let v = jsonlite::parse(&sessions.text()).unwrap();
        assert_eq!(v.req("reports").unwrap().as_arr().unwrap().len(), 1);
        // Metrics expose the counters.
        let metrics = client.get("/metrics").unwrap().text();
        assert!(metrics.contains("profipy_jobs_completed 1"), "{metrics}");
        assert!(metrics.contains("profipy_cache_prepare_misses"), "{metrics}");
        api.shutdown();
    }

    #[test]
    fn idle_server_performs_no_drive_work_between_submissions() {
        let api = ApiServer::serve("127.0.0.1:0", service(), ApiConfig::default()).unwrap();
        let addr = api.addr().to_string();
        // Let the drive thread run its boot slice (empty queue) and
        // park.
        std::thread::sleep(Duration::from_millis(250));
        let settled = api.drive_calls();
        assert!(settled >= 1, "boot slice ran");
        // Idle: no submissions, so the parked loop must not pump the
        // service mutex — the drive counter stays frozen.
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(
            api.drive_calls(),
            settled,
            "idle server performed drive work"
        );
        // A submission wakes it immediately and the campaign completes.
        let mut client = httpd::Client::new(&addr);
        let resp = client
            .post_json("/api/campaigns", &noop_spec("ida", "wake").to_json())
            .unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
        let id = jsonlite::parse(&resp.text())
            .unwrap()
            .req("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            let status = client.get(&format!("/api/campaigns/{id}")).unwrap();
            let state = jsonlite::parse(&status.text())
                .unwrap()
                .req("state")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            if state == "completed" {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "woken campaign stuck in {state}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(api.drive_calls() > settled, "drive thread woke on submit");
        // The counter is also visible on /metrics.
        let metrics = client.get("/metrics").unwrap().text();
        assert!(metrics.contains("profipy_drive_calls_total"), "{metrics}");
        api.shutdown();
    }

    #[test]
    fn api_rejects_bad_input() {
        let api = ApiServer::serve("127.0.0.1:0", service(), ApiConfig::default()).unwrap();
        let addr = api.addr().to_string();
        let mut client = httpd::Client::new(&addr);
        // Malformed JSON.
        assert_eq!(
            client.post_json("/api/campaigns", "{oops").unwrap().status,
            400
        );
        // Valid JSON, wrong shape.
        assert_eq!(
            client.post_json("/api/campaigns", "{}").unwrap().status,
            422
        );
        // Unknown host environment.
        let mut spec = noop_spec("bob", "bad-host");
        spec.host = "mainframe".into();
        assert_eq!(
            client
                .post_json("/api/campaigns", &spec.to_json())
                .unwrap()
                .status,
            422
        );
        // Unknown job / user.
        assert_eq!(client.get("/api/campaigns/job-999").unwrap().status, 404);
        assert_eq!(
            client.get("/api/campaigns/job-999/report").unwrap().status,
            404
        );
        assert_eq!(client.get("/api/sessions/ghost/reports").unwrap().status, 404);
        // A depth bomb in the body is rejected, not recursed into.
        let bomb = format!("{}1{}", "[".repeat(5000), "]".repeat(5000));
        assert_eq!(client.post_json("/api/campaigns", &bomb).unwrap().status, 400);
        // Model upload: DSL that does not compile is refused…
        let resp = client
            .post_json(
                "/api/models",
                &Value::obj(vec![
                    ("user", Value::str("carol")),
                    ("name", Value::str("broken")),
                    ("dsl", Value::str("change { } into {")),
                ])
                .compact(),
            )
            .unwrap();
        assert_eq!(resp.status, 422, "{}", resp.text());
        // …while a valid one lands in the session.
        let resp = client
            .post_json(
                "/api/models",
                &Value::obj(vec![
                    ("user", Value::str("carol")),
                    ("name", Value::str("mfc")),
                    (
                        "model",
                        faultdsl::predefined_models().to_value(),
                    ),
                ])
                .compact(),
            )
            .unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
        let service = api.shutdown();
        assert_eq!(
            service
                .sessions
                .get_session("carol")
                .unwrap()
                .model_names(),
            vec!["mfc".to_string()]
        );
        assert!(service.sessions.get_session("carol").unwrap().load_model("mfc").is_ok());
    }

    #[test]
    fn error_paths_have_exact_codes_and_leave_the_connection_usable() {
        // A tight body cap so an oversized upload is cheap to produce.
        let config = ApiConfig {
            http: httpd::ServerConfig {
                max_body_bytes: 1024,
                ..httpd::ServerConfig::default()
            },
            local_drive: true,
        };
        let api = ApiServer::serve("127.0.0.1:0", service(), config).unwrap();
        let addr = api.addr().to_string();
        let mut client = httpd::Client::new(&addr).timeout(Duration::from_secs(10));

        // Open the keep-alive connection.
        assert_eq!(client.get("/healthz").unwrap().status, 200);

        // Oversized declared body → 413 at the HTTP layer, before the
        // body is read, and the connection is closed (the unread body
        // would desync keep-alive). The raw socket shows the exact
        // wire behaviour.
        {
            use std::io::{Read, Write};
            let mut raw = std::net::TcpStream::connect(&addr).unwrap();
            raw.write_all(b"POST /api/campaigns HTTP/1.1\r\nContent-Length: 4096\r\n\r\n")
                .unwrap();
            let mut reply = String::new();
            raw.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 413 "), "{reply}");
        }

        // Unknown job id → 404, connection kept alive (no close header).
        let resp = client.get("/api/campaigns/no-such-job").unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.header("connection"), None);
        let resp = client.get("/api/campaigns/no-such-job/report").unwrap();
        assert_eq!(resp.status, 404);

        // Model upload whose body is raw DSL text, not JSON → 400
        // (malformed JSON), still keep-alive.
        let resp = client
            .request(
                "POST",
                "/api/models",
                Some("text/plain"),
                b"change { call(x) } into { none }",
            )
            .unwrap();
        assert_eq!(resp.status, 400, "{}", resp.text());
        assert_eq!(resp.header("connection"), None);

        // JSON-wrapped DSL that fails to parse → 422.
        let resp = client
            .post_json(
                "/api/models",
                &Value::obj(vec![
                    ("user", Value::str("dana")),
                    ("name", Value::str("bad")),
                    ("dsl", Value::str("change { unterminated")),
                ])
                .compact(),
            )
            .unwrap();
        assert_eq!(resp.status, 422, "{}", resp.text());

        // After every error above the same client keeps working — the
        // errors were responses, not connection teardowns (and the one
        // that *was* a teardown used its own socket).
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        let metrics = client.get("/metrics").unwrap().text();
        assert!(metrics.contains("profipy_http_open_connections"), "{metrics}");
        api.shutdown();
    }

    #[test]
    fn healthz_and_405() {
        let api = ApiServer::serve("127.0.0.1:0", service(), ApiConfig::default()).unwrap();
        let addr = api.addr().to_string();
        let mut client = httpd::Client::new(&addr);
        let resp = client.get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
        let health = jsonlite::parse(&resp.text()).unwrap();
        assert_eq!(health.req("status").unwrap().as_str(), Some("ok"));
        assert_eq!(health.req("role").unwrap().as_str(), Some("local"));
        assert_eq!(
            health.req("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(health.req("uptime_seconds").unwrap().as_u64().is_some());
        assert!(matches!(health.req("error").unwrap(), Value::Null));
        assert_eq!(
            client
                .request("DELETE", "/api/campaigns", None, &[])
                .unwrap()
                .status,
            405
        );
        api.shutdown();
    }
}
