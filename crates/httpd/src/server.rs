//! The server handle over the event-loop front end.
//!
//! ```text
//!   event-loop thread ──▶ owns accept + every connection's buffers
//!        │  complete requests ──try_send──▶ bounded queue ──▶ workers
//!        │  (full → 503)                      (handlers only)
//!        ▼
//!   shutdown(): stop flag; the loop stops accepting, closes idle
//!   keep-alive connections, finishes in-flight requests, joins the
//!   worker pool, exits.
//! ```
//!
//! Concurrency has two independent knobs now: `max_connections` bounds
//! how many clients may sit on open keep-alive sockets (each costs a
//! buffer), while `workers` bounds how many handlers execute at once
//! (each costs a thread). An idle poller no longer pins a worker, so
//! thousands of keep-alive clients can share a handful of workers.
//!
//! Backpressure is explicit at both edges: a connection beyond
//! `max_connections` and a request that finds every worker busy with
//! the queue full are both answered `503 Service Unavailable`
//! immediately — the server never buffers unboundedly and never hangs
//! a client waiting for a slot.

use crate::event_loop::{self, Shared};
use crate::http;
use crate::poll::{self, Waker};
use crate::router::Router;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server construction options.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Handler threads: how many requests *execute* concurrently.
    pub workers: usize,
    /// Parsed requests that may wait for a worker; the saturation
    /// threshold for 503 responses.
    pub queue_depth: usize,
    /// Open connections the event loop will hold at once (idle
    /// keep-alive clients included); beyond it, accepts answer 503.
    pub max_connections: usize,
    /// Per-request body cap.
    ///
    /// Worst-case request-buffer memory is `max_connections ×
    /// (max_body_bytes + MAX_HEAD_BYTES)`: every connection may be
    /// mid-upload simultaneously (the threaded predecessor bounded
    /// concurrent uploads by `workers + queue_depth` instead). Facing
    /// untrusted clients, size the two knobs together — e.g. the
    /// defaults allow 1024 × 8 MiB ≈ 8 GiB and suit trusted LANs, not
    /// the open internet.
    pub max_body_bytes: usize,
    /// Wall-clock budget for reading one request (slowloris guard).
    pub request_timeout: Duration,
    /// Optional metrics registry: when set, workers record
    /// `httpd_request_seconds{route=…}` and `httpd_queue_wait_seconds`
    /// histograms into it.
    pub metrics: Option<Arc<obs::Registry>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 16,
            queue_depth: 32,
            max_connections: 1024,
            max_body_bytes: http::DEFAULT_MAX_BODY_BYTES,
            request_timeout: Duration::from_secs(30),
            metrics: None,
        }
    }
}

/// A running server. Dropping without [`Server::shutdown`] signals the
/// event loop to drain on its own time without waiting for it; call
/// `shutdown` for a joined graceful stop.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Ends the event loop's wait so it sees `stop` at once.
    waker: Waker,
    event_loop: Option<JoinHandle<()>>,
    requests: Arc<AtomicU64>,
    rejected: Arc<AtomicU64>,
    open: obs::Gauge,
}

impl Server {
    /// Binds (use port 0 for an ephemeral port) and starts serving
    /// `router` in the background.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, router: Router, config: ServerConfig) -> io::Result<Server> {
        Server::from_listener(TcpListener::bind(addr)?, router, config)
    }

    /// Starts serving `router` on an already-bound listener. Lets a
    /// warm standby bind (and let clients queue in the kernel backlog)
    /// long before it decides to serve.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` and wake-channel creation failures.
    pub fn from_listener(
        listener: TcpListener,
        router: Router,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let rejected = Arc::new(AtomicU64::new(0));
        let open = obs::Gauge::detached();
        let (waker, wake_rx) = poll::wake_channel()?;
        let shared = Shared {
            stop: stop.clone(),
            requests: requests.clone(),
            rejected: rejected.clone(),
            open: open.clone(),
            waker: waker.clone(),
        };
        let router = Arc::new(router);
        let event_loop = std::thread::Builder::new()
            .name("httpd-eventloop".into())
            .spawn(move || event_loop::run(listener, router, config, shared, wake_rx))
            .expect("spawn event loop");
        Ok(Server {
            addr,
            stop,
            waker,
            event_loop: Some(event_loop),
            requests,
            rejected,
            open,
        })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests dispatched to handlers so far.
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Connections/requests rejected with 503 so far.
    pub fn connections_rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Connections currently open (idle keep-alive clients included).
    pub fn connections_open(&self) -> u64 {
        self.open.value()
    }

    /// Live handle to the open-connections gauge, for registering into
    /// a metrics registry that outlives this borrow.
    pub fn connections_open_gauge(&self) -> obs::Gauge {
        self.open.clone()
    }

    /// Graceful shutdown: stop accepting, close idle keep-alive
    /// connections, finish in-flight requests, join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
    }
}

// Drop is intentionally not joined (a leaked server must not hang the
// process): it signals the event loop, which drains and winds down the
// pool on its own.
impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}
