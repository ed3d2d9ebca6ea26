//! `campaign` — the campaign orchestration engine, layered between the
//! service façade and the per-campaign `Workflow`.
//!
//! The paper (DSN 2020) pitches ProFIPy as fault injection
//! **as-a-service**: users submit campaigns, the tool schedules
//! containers, and saved artifacts are reused across campaigns (§IV).
//! This crate supplies the service-grade machinery the single-shot
//! `Workflow::run_campaign` lacks:
//!
//! * [`queue::JobQueue`] — a **persistent job queue**: serialized
//!   [`spec::CampaignSpec`]s with priorities and per-user fairness;
//!   survives crashes, demotes in-flight jobs back to queued.
//! * [`checkpoint::CheckpointLog`] — **resumable checkpoints**: every
//!   completed experiment is appended durably, so an interrupted
//!   campaign resumes from the last experiment instead of restarting.
//! * [`cache::MutantCache`] — a **cross-campaign cache** keyed by
//!   (source hash, fault-model hash): parsed modules, scan results
//!   (memory + disk), coverage sets, and rendered mutants; a repeat
//!   campaign on an unchanged target performs zero re-scans.
//! * [`scheduler`] — interleaves the pending experiments of *all*
//!   queued campaigns into one job stream feeding
//!   `sandbox::ParallelExecutor::run_stream`, keeping every worker busy
//!   across campaign boundaries.
//! * [`engine::CampaignEngine`] — submit / poll / drive / resume over
//!   the above; [`service::CampaignService`] adds the per-user session
//!   surface (saved models, report history).
//! * [`api`] — the REST surface over the service (`POST
//!   /api/campaigns`, status/report/model/metrics endpoints), served
//!   by the std-only `httpd` crate with a background drive thread.
//!
//! # Quickstart
//!
//! ```
//! use campaign::{CampaignEngine, CampaignSpec, EngineConfig, HostRegistry};
//!
//! let registry = HostRegistry::with_noop();
//! let mut engine = CampaignEngine::new(EngineConfig::default(), registry).unwrap();
//! let spec = CampaignSpec::new(
//!     "alice",
//!     "smoke",
//!     "noop",
//!     vec![(
//!         "target".into(),
//!         "def f():\n    x = 1\n    log_event()\n    return x\n".into(),
//!     )],
//!     "import target\ndef run(round):\n    target.f()\n".into(),
//!     faultdsl::predefined_models(),
//! );
//! let id = engine.submit(spec).unwrap();
//! engine.drive(None).unwrap();
//! let report = engine.report(&id).unwrap();
//! assert!(report.executed > 0);
//! ```

#![forbid(unsafe_code)]

pub mod api;
pub mod cache;
pub mod checkpoint;
pub mod engine;
pub mod persist;
pub mod queue;
pub mod scheduler;
pub mod service;
pub mod spec;

pub use api::{report_to_value, status_to_value, ApiConfig, ApiServer, SharedService};
pub use cache::{CacheStats, MutantCache};
pub use checkpoint::CheckpointLog;
pub use engine::{
    CampaignEngine, CheckedOutCampaign, DriveSummary, EngineConfig, EngineError, EngineMetrics,
    HostRegistry, JobStatus, StatusBoard,
};
pub use persist::{result_from_value, result_to_value, results_equivalent};
pub use queue::{FinishedJob, JobQueue, JobState, QueuedJob};
pub use service::CampaignService;
pub use spec::{text_pairs_from_value, CampaignSpec, FilterSpec};
