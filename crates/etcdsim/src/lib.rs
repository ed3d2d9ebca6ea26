//! `etcdsim` — a simulated etcd key-value store and its host
//! environment, standing in for the real etcd server of the paper's
//! §V case study (python-etcd 0.4.5 + etcd).
//!
//! The simulation reproduces the *server-side states* behind the three
//! §V-A failure modes:
//!
//! * **Reconnection failure** — the host network models TCP port
//!   binding with TIME_WAIT-style leakage: a connection that is never
//!   released (e.g. because a `Missing Function Call` fault removed the
//!   client's `delete_connection`) keeps the port occupied, so a
//!   restarted server cannot bind and the service stays down even after
//!   the fault is disabled.
//! * **"member has already been bootstrapped"** — the cluster membership
//!   state machine rejects a second bootstrap without an intervening
//!   member removal, wedging the server.
//! * **Client crash** — ordinary HTTP/transport errors surface as
//!   Python exceptions in the interpreted client.
//!
//! It also models the §V-B server-side input validation (HTTP 400 for
//! non-ASCII keys, 404/`errorCode 100` for missing keys) and the §V-C
//! race window: while a CPU hog is active, reads may return stale
//! values, reproducing the paper's "inconsistent values read from the
//! etcd datastore".
//!
//! # Example
//!
//! ```
//! use etcdsim::EtcdHost;
//! use pyrt::HostApi;
//!
//! let host = EtcdHost::new(42);
//! host.start_server();
//! let (resp, _) = host.http_request(
//!     0.0, "PUT", "http://127.0.0.1:2379/v2/keys/greeting", "value=hello", 1.0);
//! assert_eq!(resp.unwrap().status, 201);
//! let (resp, _) = host.http_request(
//!     0.0, "GET", "http://127.0.0.1:2379/v2/keys/greeting", "", 1.0);
//! let body = resp.unwrap().body;
//! assert!(body.contains("VALUE hello"));
//! ```

#![forbid(unsafe_code)]

pub mod errors;
pub mod host;
pub mod network;
pub mod node;
pub mod store;

pub use errors::EtcdError;
pub use host::{ApiEvent, EtcdHost};
pub use network::{Network, PortState};
pub use node::{EtcdNode, NodeState};
pub use store::{EtcdStore, Node};
