//! `sandbox` — the container-based experimental environment of ProFIPy
//! (paper §IV-B).
//!
//! The paper runs each experiment in a fresh Docker container; this
//! crate simulates that environment:
//!
//! * [`image::ContainerImage`] — the built image: target sources,
//!   workload, setup commands (the "Dockerfile directives"), resource
//!   requirements, and per-round budgets.
//! * [`container::Container`] — one deployed instance: its own
//!   interpreter ([`pyrt::Vm`]), host ([`pyrt::HostApi`]), and fault
//!   trigger. Tearing the container down reclaims every leaked
//!   resource (stale ports, hog threads), exactly like the paper's
//!   container deallocation.
//! * Two-round execution: round 1 with the fault trigger enabled,
//!   round 2 with it disabled, **without restarting the target**
//!   (§IV-B) — the basis for the service-availability metric.
//! * [`executor::ParallelExecutor`] — up to N−1 parallel experiments on
//!   an N-core host, with memory/IO back-off thresholds (§IV-B, ref.\[52\]).

#![forbid(unsafe_code)]

pub mod container;
pub mod executor;
pub mod image;

pub use container::{
    heap_metrics, prepare_cache_metrics, Container, ContainerOutput, DeployError, HeapMetrics,
    PrepareCacheMetrics, RoundOutcome, RoundStatus,
};
pub use executor::ParallelExecutor;
pub use image::{ContainerImage, SourceFile};
