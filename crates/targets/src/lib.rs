//! `targets` — the software-under-injection corpus for the case study
//! (paper §V) and the synthetic corpus generator for the §V-D scaling
//! benchmarks.
//!
//! * [`python_etcd`] — a python-etcd-0.4.5-like client library written
//!   in the mini-Python subset. Its structure mirrors the real
//!   library's failure-relevant anatomy: key normalization via
//!   `key.startswith('/')` (no None check → the §V-B
//!   `AttributeError`), a health-gated request path with a latent
//!   read-before-assign bug (the §V-C `UnboundLocalError`),
//!   best-effort connection teardown (the §V-A port-leak reconnection
//!   failure), and cluster membership management (the §V-A
//!   "member has already been bootstrapped" failure).
//! * [`workloads`] — the workload derived from python-etcd's
//!   integration tests: "deploys the etcd server, and ... uploads and
//!   queries several key-value pairs of a different kind (e.g., with
//!   directories, sub-keys, TTL, etc.)" (§V).
//! * [`synth`] — deterministic generator of large mini-Python corpora
//!   standing in for the OpenStack scan target of §V-D (400 kLoC).

#![forbid(unsafe_code)]

pub mod python_etcd;
pub mod synth;
pub mod workloads;

pub use python_etcd::{CLIENT_SOURCE, COVERED_SCOPES};
pub use synth::{generate_corpus, generate_module};
pub use workloads::{WORKLOAD_BASIC, WORKLOAD_QUICKSTART};
