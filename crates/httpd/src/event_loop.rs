//! The readiness loop: one thread owns every connection; a bounded
//! worker pool runs handlers.
//!
//! ```text
//!             ┌───────────────── event-loop thread ─────────────────┐
//!   accept ──▶│ one cycle over all connections:                     │
//!             │   drain worker completions → accept → read/parse/   │
//!             │   dispatch → write → deadlines → block in poll(2)   │
//!             └──── try_send ──▶ bounded job queue ──▶ worker pool ─┘
//!                    (full → 503)        │ router.dispatch (catch_unwind)
//!                                        ▼
//!                       completion channel + wake byte back to the loop
//! ```
//!
//! Between cycles the loop **blocks** in [`crate::poll::wait`] on the
//! listener, every connection that is reading or writing, and the wake
//! channel workers (and `Server::shutdown`) write to; the timeout is
//! the nearest request/write deadline, or none. An idle server makes
//! no system call at all, and a wake-up costs one. The wait is
//! level-triggered and only its return matters: each cycle still
//! attempts nonblocking I/O on every registered connection
//! (`WouldBlock` = not ready), so a spurious wake-up is harmless and
//! per-cycle work stays O(connections).
//!
//! The payoff: an idle keep-alive connection costs one buffer, not one
//! thread — thousands of pollers can sit open against a handful of
//! workers. The worker pool bounds only *handler execution*, and its
//! queue bounds dispatch: a complete request that finds the queue full
//! is answered 503 immediately (explicit backpressure, never an
//! unbounded buffer, never a hang).

use crate::conn::{Conn, ConnState, Flush};
use crate::http::{ParseStatus, Request, Response};
use crate::poll::{self, PollFd, Waker};
use crate::router::Router;
use crate::server::ServerConfig;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Counters and flags shared between the loop and the [`crate::Server`]
/// handle.
pub(crate) struct Shared {
    /// Graceful-stop flag: stop accepting, drain, exit.
    pub stop: Arc<AtomicBool>,
    /// Requests dispatched to handlers.
    pub requests: Arc<AtomicU64>,
    /// Connections/requests answered 503 for saturation.
    pub rejected: Arc<AtomicU64>,
    /// Currently open connections (live gauge).
    pub open: Arc<AtomicU64>,
    /// Ends the loop's wait: workers after a completion, the server
    /// handle after setting `stop`.
    pub waker: Waker,
}

/// How long the loop leaves the listener out of its wait after `accept`
/// failed for a reason other than "nothing pending" (descriptor
/// exhaustion, typically): the pending connection keeps the listener
/// readable, and waiting on it would return at once, forever.
const ACCEPT_RETRY: Duration = Duration::from_millis(50);

/// A complete request handed to the worker pool.
struct Job {
    conn: usize,
    request: Request,
    wants_close: bool,
    /// When the job entered the queue — the queue-wait histogram's
    /// start mark.
    enqueued: Instant,
}

/// Per-worker-thread metric handles. The per-route histogram cache
/// keeps the hot path at one `HashMap` lookup; the registry is only
/// consulted the first time a thread sees a route.
struct WorkerTelemetry {
    registry: Arc<obs::Registry>,
    queue_wait: obs::Histogram,
    routes: std::collections::HashMap<String, obs::Histogram>,
}

const REQUEST_SECONDS_HELP: &str = "HTTP request service time by route, in seconds.";

impl WorkerTelemetry {
    fn new(registry: Arc<obs::Registry>) -> WorkerTelemetry {
        let queue_wait = registry.histogram(
            "httpd_queue_wait_seconds",
            "Time requests spent queued for a worker, in seconds.",
            obs::WAIT_BUCKETS,
        );
        WorkerTelemetry {
            registry,
            queue_wait,
            routes: std::collections::HashMap::new(),
        }
    }

    fn route_histogram(&mut self, route: &str) -> &obs::Histogram {
        let WorkerTelemetry {
            registry, routes, ..
        } = self;
        routes.entry(route.to_string()).or_insert_with(|| {
            registry.histogram_with(
                "httpd_request_seconds",
                REQUEST_SECONDS_HELP,
                obs::LATENCY_BUCKETS,
                &[("route", route)],
            )
        })
    }
}

/// A worker's verdict. `response: None` means the handler panicked —
/// the connection is dropped without a response (one panic costs one
/// connection, never a pool slot).
struct Done {
    conn: usize,
    response: Option<Response>,
    wants_close: bool,
}

/// What the loop's waits look like from outside: how long it sat
/// blocked, and what ended each wait.
struct LoopTelemetry {
    wait_seconds: obs::Histogram,
    woke_io: obs::Counter,
    woke_completion: obs::Counter,
    woke_timeout: obs::Counter,
}

impl LoopTelemetry {
    fn new(registry: &obs::Registry) -> LoopTelemetry {
        let woke = |cause: &str| {
            registry.counter_with(
                "httpd_loop_wakeups_total",
                "Event-loop waits ended, by cause: socket readiness, a worker completion (or shutdown) wake, or the nearest deadline.",
                &[("cause", cause)],
            )
        };
        LoopTelemetry {
            wait_seconds: registry.histogram(
                "httpd_loop_wait_seconds",
                "Time the event loop spent blocked waiting for readiness, in seconds.",
                obs::WAIT_BUCKETS,
            ),
            woke_io: woke("io"),
            woke_completion: woke("completion"),
            woke_timeout: woke("timeout"),
        }
    }
}

/// Index-stable connection storage; slots are reused via a free list.
struct Slab {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    len: usize,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    fn insert(&mut self, conn: Conn) -> usize {
        self.len += 1;
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(conn);
                i
            }
            None => {
                self.slots.push(Some(conn));
                self.slots.len() - 1
            }
        }
    }

    fn remove(&mut self, i: usize) {
        if self.slots[i].take().is_some() {
            self.free.push(i);
            self.len -= 1;
        }
    }
}

/// Runs the server: spawns the worker pool, owns every connection, and
/// returns only after a graceful drain (stop flag set, all in-flight
/// requests answered, workers joined).
pub(crate) fn run(
    listener: TcpListener,
    router: Arc<Router>,
    config: ServerConfig,
    shared: Shared,
    wake_rx: UnixStream,
) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let workers_n = config.workers.max(1);
    let (job_tx, job_rx) = std::sync::mpsc::sync_channel::<Job>(config.queue_depth);
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (done_tx, done_rx) = std::sync::mpsc::channel::<Done>();
    let workers: Vec<_> = (0..workers_n)
        .map(|i| {
            let job_rx = job_rx.clone();
            let done_tx = done_tx.clone();
            let router = router.clone();
            let waker = shared.waker.clone();
            let telemetry = config.metrics.clone().map(WorkerTelemetry::new);
            std::thread::Builder::new()
                .name(format!("httpd-worker-{i}"))
                .spawn(move || worker_loop(&job_rx, &done_tx, &waker, &router, telemetry))
                .expect("spawn worker")
        })
        .collect();
    drop(done_tx);

    let telemetry = config.metrics.as_deref().map(LoopTelemetry::new);
    let mut conns = Slab::new();
    let mut wait_set: Vec<PollFd> = Vec::new();
    loop {
        // Read after the wait below drained the wake end: whoever set
        // the flag or sent a completion did so before waking.
        let stopping = shared.stop.load(Ordering::SeqCst);
        let now = Instant::now();

        // 1. Worker completions → queue responses (flushed below, same
        //    cycle, so the fast path pays no extra loop iteration).
        while let Ok(done) = done_rx.try_recv() {
            deliver_completion(&mut conns, &shared, done, stopping);
        }

        // 2. Accept — capped by max_connections, halted once stopping.
        let mut accept_failed = false;
        if !stopping {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if conns.len >= config.max_connections {
                            shared.rejected.fetch_add(1, Ordering::Relaxed);
                            reject_saturated(stream);
                            continue;
                        }
                        if let Ok(conn) = Conn::new(stream) {
                            conns.insert(conn);
                            shared.open.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(e) if crate::http::is_timeout(&e) => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        accept_failed = true;
                        break;
                    }
                }
            }
        }

        // 3. Per-connection I/O.
        for i in 0..conns.slots.len() {
            let Some(conn) = conns.slots[i].as_mut() else {
                continue;
            };
            let gone = match conn.state {
                ConnState::Reading => {
                    step_reading(conn, i, &config, &shared, &job_tx, stopping, now)
                }
                ConnState::Dispatched => false, // the worker owns this one
                ConnState::Writing { .. } => {
                    step_writing(conn, i, &config, &shared, &job_tx, stopping, now)
                }
            };
            if gone {
                conns.remove(i);
                shared.open.fetch_sub(1, Ordering::Relaxed);
            }
        }

        if stopping && conns.len == 0 {
            break;
        }

        // 4. Block until a socket, a worker or a deadline can move
        //    something. The wake end comes first in the set; a
        //    dispatched connection is the worker's and is left out.
        wait_set.clear();
        wait_set.push(PollFd::new(wake_rx.as_raw_fd(), poll::READABLE));
        let mut timeout = None;
        if accept_failed {
            timeout = Some(ACCEPT_RETRY);
        } else if !stopping {
            wait_set.push(PollFd::new(listener.as_raw_fd(), poll::READABLE));
        }
        for conn in conns.slots.iter().flatten() {
            match conn.state {
                ConnState::Reading => wait_set.push(PollFd::new(conn.raw_fd(), poll::READABLE)),
                ConnState::Writing { .. } => {
                    wait_set.push(PollFd::new(conn.raw_fd(), poll::WRITABLE));
                }
                ConnState::Dispatched => {}
            }
            if let Some(t0) = conn.started_at {
                let left = (t0 + config.request_timeout).saturating_duration_since(now);
                timeout = Some(timeout.map_or(left, |t: Duration| t.min(left)));
            }
        }
        let blocked = Instant::now();
        let outcome = poll::wait(&mut wait_set, timeout);
        if let Some(t) = &telemetry {
            t.wait_seconds.observe_duration(blocked.elapsed());
            match outcome {
                Ok(0) => t.woke_timeout.inc(),
                Ok(_) if wait_set[0].fired() => t.woke_completion.inc(),
                Ok(_) => t.woke_io.inc(),
                Err(_) => {}
            }
        }
        match outcome {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // A wait that cannot be made must not become a hot loop:
            // fall back to trying every socket a thousand times a second.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
        if wait_set[0].fired() {
            let mut wakes = [0u8; 64];
            while matches!((&wake_rx).read(&mut wakes), Ok(n) if n > 0) {}
        }
    }

    // Drain complete: no connection holds an outstanding job, so the
    // queue is empty — dropping the sender lets every worker exit.
    drop(job_tx);
    for worker in workers {
        let _ = worker.join();
    }
}

/// Advances a `Reading` connection: pull ready bytes, enforce the
/// slowloris deadline, parse, dispatch. Returns `true` when the
/// connection should be removed.
fn step_reading(
    conn: &mut Conn,
    id: usize,
    config: &ServerConfig,
    shared: &Shared,
    job_tx: &SyncSender<Job>,
    stopping: bool,
    now: Instant,
) -> bool {
    let fill = conn.fill();
    if fill.err {
        return true;
    }
    if fill.bytes > 0 {
        conn.note_request_started(now);
        if advance_parse(conn, id, config, shared, job_tx) {
            return true;
        }
    }
    // EOF only matters if no complete request came out of the final
    // bytes (a half-closing client still gets its response written).
    if fill.eof && conn.state == ConnState::Reading {
        if conn.has_buffered_bytes() {
            // The peer quit mid-request; tell it (best-effort) why.
            conn.queue_response(
                &Response::text(400, "bad request: truncated request\n"),
                true,
            );
            let _ = conn.flush();
        }
        return true;
    }
    if conn.state == ConnState::Reading {
        // Idle keep-alive connections end at shutdown; started requests
        // keep their full timeout budget.
        match conn.started_at {
            None => {
                if stopping {
                    return true;
                }
            }
            Some(t0) => {
                if now.duration_since(t0) > config.request_timeout {
                    conn.queue_response(&Response::text(408, "request timed out\n"), true);
                }
            }
        }
    }
    false
}

/// Flushes a `Writing` connection; on completion either closes or
/// returns to `Reading` (immediately parsing any pipelined bytes).
/// Returns `true` when the connection should be removed.
fn step_writing(
    conn: &mut Conn,
    id: usize,
    config: &ServerConfig,
    shared: &Shared,
    job_tx: &SyncSender<Job>,
    stopping: bool,
    now: Instant,
) -> bool {
    match conn.flush() {
        Flush::Pending => {
            // A peer that stops reading must not pin this slot (or
            // wedge the shutdown drain) forever: the response gets the
            // same wall-clock budget the request had.
            matches!(conn.started_at, Some(t0) if now.duration_since(t0) > config.request_timeout)
        }
        Flush::Error => true,
        Flush::Done => {
            let ConnState::Writing { close } = conn.state else {
                unreachable!("step_writing only runs in Writing state");
            };
            if close {
                return true;
            }
            conn.state = ConnState::Reading;
            conn.started_at = None;
            if conn.has_buffered_bytes() {
                // Pipelined follow-up already buffered.
                conn.note_request_started(now);
                if advance_parse(conn, id, config, shared, job_tx) {
                    return true;
                }
            } else if stopping {
                return true;
            }
            false
        }
    }
}

/// Parses at most one request out of the buffer and acts on the
/// verdict. Returns `true` when the connection should be removed.
fn advance_parse(
    conn: &mut Conn,
    id: usize,
    config: &ServerConfig,
    shared: &Shared,
    job_tx: &SyncSender<Job>,
) -> bool {
    match conn.try_extract(config.max_body_bytes) {
        ParseStatus::Incomplete => false,
        ParseStatus::Complete { request, .. } => {
            let wants_close = request.wants_close();
            match job_tx.try_send(Job {
                conn: id,
                request,
                wants_close,
                enqueued: Instant::now(),
            }) {
                Ok(()) => {
                    shared.requests.fetch_add(1, Ordering::Relaxed);
                    conn.state = ConnState::Dispatched;
                    conn.started_at = None;
                    false
                }
                Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                    // Every worker busy and the queue full: explicit
                    // backpressure, same wire response as accept-time
                    // saturation.
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    conn.queue_response(&saturated_response(), true);
                    false
                }
            }
        }
        ParseStatus::Malformed(reason) => {
            conn.queue_response(&Response::text(400, format!("bad request: {reason}\n")), true);
            false
        }
        ParseStatus::BodyTooLarge => {
            conn.queue_response(&Response::text(413, "request body too large\n"), true);
            false
        }
    }
}

/// Routes a worker's completed response back onto its connection.
fn deliver_completion(conns: &mut Slab, shared: &Shared, done: Done, stopping: bool) {
    let Some(conn) = conns.slots.get_mut(done.conn).and_then(Option::as_mut) else {
        // Dispatched connections are never removed before their
        // completion arrives, so this is unreachable in practice;
        // tolerate it rather than poison the loop.
        return;
    };
    match done.response {
        Some(response) => {
            // Close when either side wants it — including a shutdown
            // that began while the handler ran.
            let close = done.wants_close || stopping || shared.stop.load(Ordering::SeqCst);
            conn.queue_response(&response, close);
        }
        None => {
            eprintln!("httpd: handler panicked; connection dropped");
            conns.remove(done.conn);
            shared.open.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

fn worker_loop(
    job_rx: &Mutex<Receiver<Job>>,
    done_tx: &Sender<Done>,
    waker: &Waker,
    router: &Router,
    mut telemetry: Option<WorkerTelemetry>,
) {
    loop {
        // Hold the lock only for the dequeue, not while handling.
        let job = match job_rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(mut job) = job else {
            return; // sender dropped and queue drained
        };
        if let Some(t) = telemetry.as_ref() {
            t.queue_wait.observe_duration(job.enqueued.elapsed());
        }
        // A panicking handler must cost one connection, not a worker:
        // the pool would otherwise shrink panic by panic until the
        // server stops serving.
        let service_start = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            router.dispatch_with_route(&mut job.request)
        }))
        .ok();
        let response = match outcome {
            Some((response, route)) => {
                if let Some(t) = telemetry.as_mut() {
                    t.route_histogram(route.unwrap_or("(unmatched)"))
                        .observe_duration(service_start.elapsed());
                }
                Some(response)
            }
            None => None, // handler panicked mid-dispatch; no route to charge
        };
        let done = Done {
            conn: job.conn,
            response,
            wants_close: job.wants_close,
        };
        if done_tx.send(done).is_err() {
            return;
        }
        waker.wake();
    }
}

/// The saturation response: identical bytes whether the server refuses
/// at accept time (connection cap) or at dispatch time (worker-queue
/// cap).
fn saturated_response() -> Response {
    Response::text(503, "server saturated, retry later\n").header("Retry-After", "1")
}

/// Answers 503 on a just-accepted stream and closes. Best-effort and
/// nonblocking: the payload is far below a fresh socket's send buffer,
/// so the write cannot stall the loop.
fn reject_saturated(stream: TcpStream) {
    let mut stream = stream;
    let _ = stream.set_nonblocking(true);
    let _ = saturated_response().write_to(&mut stream, true);
}
