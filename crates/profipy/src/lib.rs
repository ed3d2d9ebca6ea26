//! `profipy` — the ProFIPy fault-injection service (paper DSN 2020).
//!
//! This is the crate downstream users interact with. It wires the
//! substrates together into the paper's workflow (Fig. 2):
//!
//! ```text
//!        SCAN                EXECUTION              DATA ANALYSIS
//!  DSL → compiler →  mutated versions in fresh   →  failure modes,
//!  scanner → plan →  containers, 2 rounds each      availability,
//!  (coverage prune)  (fault on / fault off)         logging, propagation
//! ```
//!
//! * [`workflow::Workflow`] — one configured fault-injection campaign:
//!   target sources + workload + fault model + host factory.
//! * [`plan::InjectionPlan`] — selected injection points (filtering by
//!   module/scope/spec, seeded random sampling, coverage pruning).
//! * [`analysis`] — failure-mode classification and the §IV-C/§IV-D
//!   metrics (service availability, failure logging, failure
//!   propagation).
//! * [`report::CampaignReport`] — aggregated campaign results with a
//!   text renderer.
//! * [`service::ProfipyService`] — the software-as-a-service façade:
//!   named sessions, saved fault models (JSON), campaign runs.
//! * [`case_study`] — the paper's §V python-etcd campaigns, preconfigured.
//!
//! # Quickstart
//!
//! ```
//! use profipy::case_study;
//!
//! // Scan the python-etcd-like target with the campaign A fault model.
//! let campaign = case_study::campaign_a();
//! let points = campaign.workflow.scan();
//! assert!(!points.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod case_study;
pub mod plan;
pub mod report;
pub mod result;
pub mod service;
pub mod workflow;

pub use plan::{InjectionPlan, PlanFilter};
pub use report::CampaignReport;
pub use result::ExperimentResult;
pub use workflow::{HostFactory, Mutant, Workflow, WorkflowConfig};
