//! Umbrella crate for the ProFIPy reproduction: hosts the workspace-level
//! integration tests (`tests/`) and runnable examples (`examples/`).
//! The public API lives in the [`profipy`] crate; the multi-user
//! orchestration layer (persistent queue, checkpoints, cross-campaign
//! cache) lives in the [`campaign`] crate.

#![forbid(unsafe_code)]

pub use campaign;
pub use profipy;
