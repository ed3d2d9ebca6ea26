//! `cluster` — the distributed worker fleet: lease-based cluster
//! execution for campaigns.
//!
//! The paper (§IV) pitches ProFIPy as fault injection **as-a-service**
//! with container-isolated, scalable experiment execution. The
//! single-process service (crates `campaign` + `httpd`) caps campaign
//! throughput at one machine's executor pool; this crate scales the
//! *execution* horizontally while keeping planning, checkpointing, and
//! reporting centralized:
//!
//! * [`coordinator::Coordinator`] — wraps the persistent `JobQueue`
//!   with **time-bounded leases**: workers pull batches of experiments
//!   (injection point + portable mutant sources), heartbeat to keep
//!   their lease alive, and upload results idempotently (first write
//!   wins). A worker that goes silent gets its leased jobs requeued
//!   exactly once per expiry, so a killed worker costs one re-execution
//!   of its in-flight batch — never a lost or doubled experiment.
//! * [`server::FleetServer`] — mounts the fleet REST surface
//!   (`POST /api/workers/register|:id/lease|:id/heartbeat|:id/results`)
//!   onto the full campaign API, one `httpd` server for clients and
//!   workers alike, plus a background lease-expiry sweep.
//! * [`worker::WorkerAgent`] — the pull-based worker: registers,
//!   leases, executes in the local sandbox via the prepared-program
//!   path, and streams results back with retry/backoff over a
//!   keep-alive [`httpd::ClientPool`].
//!
//! **Crash tolerance** (the HA layer, pinned by `tests/ha.rs`):
//!
//! * [`walog::LeaseLog`] — a torn-tail-tolerant `fleet-leases.jsonl`
//!   WAL recording every lease grant/extend/expire/result, with
//!   periodic compaction snapshots, so a restarted or standby
//!   coordinator reconstructs in-flight leases instead of orphaning
//!   them. Every restart bumps a monotonic **epoch** stamped on leases
//!   and echoed by uploads — late uploads from a dead epoch are
//!   absorbed idempotently, and counted.
//! * [`standby::StandbyServer`] — the warm standby: tails the primary's
//!   logs over HTTP, detects primary death via missed probes, and
//!   promotes itself on the listener it bound at boot, within one lease
//!   period.
//! * Worker-side failover — [`worker::WorkerAgent`] takes an ordered
//!   coordinator list and rotates through it with jittered backoff on
//!   connection loss; it never exits silently.
//!
//! **The determinism invariant** (pinned by `tests/fleet.rs` and
//! `tests/ha.rs`): a campaign distributed over any number of workers —
//! including workers killed mid-lease, and including a *coordinator*
//! killed mid-lease and replaced by its standby — produces a report
//! **byte-identical** to the same campaign run single-node, because
//! results are deterministic functions of (spec, point, sources, seed)
//! and completion funnels through the engine's single-node `checkin`
//! path.

#![forbid(unsafe_code)]

pub mod coordinator;
pub mod server;
pub mod standby;
pub mod walog;
pub mod wire;
pub mod worker;

pub use coordinator::{
    Coordinator, FleetConfig, FleetError, LeaseGrant, LeasedJob, RecoverySummary, ResultsSummary,
};
pub use server::FleetServer;
pub use standby::{StandbyConfig, StandbyServer};
pub use walog::{LeaseLog, WalState};
pub use worker::{WorkerAgent, WorkerConfig, WorkerHandle, WorkerStats};
