//! Scenario catalog: the repo as a self-contained fault-injection
//! benchmark suite.
//!
//! Three layers (ROADMAP "scenario diversity"):
//!
//! 1. **Target library** ([`catalog`]) — simulated
//!    software-under-injection written in the mini-Python subset, each
//!    a distinct failure surface with a deterministic workload: a
//!    replicated kv-store ([`kvstore`], stale reads / divergence), an
//!    at-least-once message broker ([`broker`], redelivery storms /
//!    poison messages), a retrying microservice call graph
//!    ([`microsvc`], timeout amplification / retry budgets), plus the
//!    paper's python-etcd case study from `crates/targets`.
//! 2. **Fault-model corpus** ([`corpus`]) — reusable `faultdsl` models
//!    (exception storms, `$HOG` resource hogs, `$TIMEOUT` latency,
//!    `$CORRUPT` wrong values, off-by-one, inverted conditions, and
//!    tag-restricted surface-specific models), each annotated with its
//!    expected failure class and applicable-target tags.
//! 3. **Matrix generator + runner** ([`matrix`]) — the applicability-
//!    filtered (target × model) cross-product, each cell an ordinary
//!    campaign through `CampaignService` (in-process) or a
//!    coordinator's REST API (single-node or fleet), aggregated into a
//!    [`MatrixReport`] and exported as
//!    `campaign_failure_class_total{target,model,class}` counters.
//!
//! Every cell's report is byte-identical between single-node and
//! fleet execution — the same invariant the cluster crate holds for
//! individual campaigns, extended to the whole matrix.

#![forbid(unsafe_code)]

pub mod api;
pub mod broker;
pub mod catalog;
pub mod corpus;
pub mod kvstore;
pub mod matrix;
pub mod microsvc;

pub use catalog::{default_catalog, filter_by_globs, noop_catalog, CatalogTarget};
pub use corpus::{default_corpus, CorpusModel};
pub use matrix::{CellReport, Matrix, MatrixCell, MatrixReport};
