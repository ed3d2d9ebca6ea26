//! `obs` — the telemetry spine of the ProFIPy reproduction.
//!
//! Two std-only subsystems:
//!
//! * [`metrics`] — typed [`Counter`] / [`Gauge`] / [`Histogram`] handles
//!   registered in a [`Registry`] and rendered in Prometheus exposition
//!   format (`# HELP`/`# TYPE`, `_bucket`/`_sum`/`_count` series,
//!   label escaping). Registries are instantiable so every server gets
//!   an isolated one; [`global()`] serves processes without a server
//!   (e.g. the worker agent).
//! * [`log`](mod@log) — a leveled, structured JSONL event log behind the
//!   [`log!`] macro, writing to stderr or a file
//!   (`PROFIPY_LOG`/`PROFIPY_LOG_LEVEL`, or `--log-file`).
//!
//! The paper's premise (§IV-D) is that a fault-injection *service*
//! must let operators see where campaign wall-time went; this crate
//! provides the primitives every layer (httpd, campaign engine,
//! cluster) instruments itself with.

#![forbid(unsafe_code)]

pub mod log;
pub mod metrics;

pub use log::Level;
pub use metrics::{
    validate_exposition, Counter, Gauge, Histogram, Registry, LATENCY_BUCKETS, WAIT_BUCKETS,
};

use std::sync::OnceLock;

/// The process-global registry, for instruments that live outside any
/// particular server (e.g. the worker agent's upload-failure counter).
/// Servers hold their own [`Registry`] so tests booting many servers
/// in one process stay isolated.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
