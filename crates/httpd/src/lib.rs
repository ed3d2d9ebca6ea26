//! `httpd` — a dependency-free HTTP/1.1 layer for the as-a-Service
//! surface (paper §IV: users reach ProFIPy through a web front-end).
//!
//! The build environment is offline, so instead of hyper/axum this
//! small crate implements the slice of HTTP the service needs, on
//! `std` alone:
//!
//! * [`http`] — request/response types, strict HTTP/1.1 parsing with
//!   `Content-Length` bodies, bounded head/body sizes. One grammar,
//!   one entry point: the pure incremental parser [`http::try_parse`].
//! * [`router`] — a path/method router with `:param` captures.
//! * [`server`] — an event-loop server: one readiness thread owns
//!   every connection as a cheap state machine (nonblocking sockets,
//!   one blocking `poll(2)` wait per cycle — declared directly against
//!   the libc `std` already links, so Unix only) and hands complete
//!   requests to a bounded worker pool. Idle keep-alive clients cost a
//!   buffer, not a thread, so connections scale past the pool;
//!   backpressure (**503** once saturated, never an unbounded queue),
//!   slowloris deadlines, and graceful drain are preserved from the
//!   threaded predecessor.
//! * [`client`] — a minimal blocking client (persistent keep-alive
//!   connection) used by the CLI, benches, and integration tests.
//! * [`pool`] — a per-host keep-alive connection pool over the client
//!   internals (max-idle + TTL eviction, stale replacement), for
//!   multi-threaded callers like the fleet worker agent.
//!
//! ```no_run
//! use httpd::{Response, Router, Server, ServerConfig};
//!
//! let router = Router::new()
//!     .route("GET", "/hello/:name", |req| {
//!         Response::text(200, format!("hello {}", req.param("name").unwrap()))
//!     });
//! let server = Server::bind("127.0.0.1:0", router, ServerConfig::default()).unwrap();
//! let addr = server.addr();
//! // ... serve traffic ...
//! server.shutdown();
//! # let _ = addr;
//! ```

#![deny(unsafe_code)]

pub mod client;
mod conn;
mod event_loop;
pub mod http;
mod poll;
pub mod pool;
pub mod router;
pub mod server;

pub use client::{Client, ClientResponse};
pub use http::{Request, Response};
pub use pool::{ClientPool, PoolConfig};
pub use router::Router;
pub use server::{Server, ServerConfig};
