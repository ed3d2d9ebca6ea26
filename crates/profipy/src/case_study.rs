//! The paper's §V case study, preconfigured: python-etcd 0.4.5-like
//! client + etcd simulation + the three Table I campaigns.
//!
//! All three campaigns share the same target (the `etcd` client module
//! and the integration-test workload — both registered as injectable
//! sources) and differ in fault model + plan filter, exactly as the
//! paper's faultloads differ per campaign:
//!
//! * **A** (§V-A): faults at `urllib`/`os` call sites inside the client
//!   — exceptions, None responses, omitted calls, missing parameters.
//!   Coverage-pruned, as in the paper (26 points, 13 covered, 12
//!   failures).
//! * **B** (§V-B): wrong inputs at python-etcd API call sites in the
//!   workload — corrupted strings, None values, negative integers
//!   (66 points, all covered, 29 failures).
//! * **C** (§V-C): CPU hogs inside the client methods the workload
//!   exercises (37 points, all covered, 14 failures).

use crate::analysis::FailureClassifier;
use crate::plan::PlanFilter;
use crate::workflow::{HostFactory, Workflow, WorkflowConfig};
use etcdsim::EtcdHost;
use faultdsl::FaultModel;
use std::rc::Rc;
use std::sync::Arc;

/// A campaign bundle: workflow + plan filter + classifier.
pub struct Campaign {
    /// Human-readable name (paper section).
    pub name: String,
    /// The configured workflow.
    pub workflow: Workflow,
    /// Plan filter (§IV-A component selection).
    pub filter: PlanFilter,
    /// Failure classifier.
    pub classifier: FailureClassifier,
    /// Whether the campaign prunes by coverage before executing
    /// (paper §IV-D, used in §V-A).
    pub prune_by_coverage: bool,
}

/// Host factory for the etcd simulation: a fresh simulated container
/// host per experiment.
pub fn etcd_host_factory() -> HostFactory {
    Arc::new(|seed| Rc::new(EtcdHost::new(seed)) as Rc<dyn pyrt::HostApi>)
}

/// Builds a case-study workflow with the given fault model and seed.
pub fn case_study_workflow(model: FaultModel, seed: u64) -> Workflow {
    let config = WorkflowConfig {
        seed,
        setup: vec![vec!["etcd-start".to_string()]],
        ..WorkflowConfig::default()
    };
    Workflow::new(
        vec![
            ("etcd".to_string(), targets::CLIENT_SOURCE.to_string()),
            (
                "workload".to_string(),
                targets::WORKLOAD_BASIC.to_string(),
            ),
        ],
        targets::WORKLOAD_BASIC.to_string(),
        model,
        etcd_host_factory(),
        config,
    )
    .expect("case-study sources and models are well-formed")
}

fn build(name: &str, model: FaultModel, filter: PlanFilter, prune: bool, seed: u64) -> Campaign {
    Campaign {
        name: name.to_string(),
        workflow: case_study_workflow(model, seed),
        filter,
        classifier: FailureClassifier::case_study(),
        prune_by_coverage: prune,
    }
}

/// §V-A: errors from external APIs (urllib, os) — with coverage
/// pruning, as in the paper.
pub fn campaign_a() -> Campaign {
    build(
        "campaign-A-external-apis",
        faultdsl::campaign_a_model(),
        PlanFilter::all().module("etcd"),
        true,
        1,
    )
}

/// §V-B: wrong inputs to the python-etcd API at the workload's call
/// sites.
pub fn campaign_b() -> Campaign {
    build(
        "campaign-B-wrong-inputs",
        faultdsl::campaign_b_model(),
        PlanFilter::all().module("workload"),
        false,
        2,
    )
}

/// §V-C: resource-management bugs — CPU hogs inside the methods of
/// python-etcd exercised by the workload.
pub fn campaign_c() -> Campaign {
    let mut filter = PlanFilter::all().module("etcd");
    for scope in targets::COVERED_SCOPES {
        filter = filter.scope(scope);
    }
    build(
        "campaign-C-resource-hogs",
        faultdsl::campaign_c_model(),
        filter,
        false,
        3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_scan_nonzero_points() {
        for c in [campaign_a(), campaign_b(), campaign_c()] {
            let points = c.workflow.scan();
            let plan = c.workflow.plan(&points, &c.filter);
            assert!(!plan.is_empty(), "{} planned no experiments", c.name);
        }
    }

    #[test]
    fn rendered_mutants_are_the_applied_and_unparsed_ones_in_both_modes() {
        use injector::{MutationMode, Mutator};
        for mode in [MutationMode::Direct, MutationMode::Triggered] {
            for mut c in [campaign_a(), campaign_b(), campaign_c()] {
                c.workflow.config.mode = mode;
                let wf = &c.workflow;
                let points = wf.scan();
                assert!(!points.is_empty());
                for point in &points {
                    let spec = wf
                        .specs()
                        .iter()
                        .find(|s| s.name == point.spec_name)
                        .unwrap();
                    let rendered = wf.mutant_sources(point).expect("renders");
                    assert_eq!(rendered.len(), wf.modules().len());
                    for ((module, (_, original)), source) in
                        wf.modules().iter().zip(wf.sources()).zip(&rendered)
                    {
                        assert_eq!(source.import_name, module.name);
                        if module.name == point.module {
                            let applied = Mutator::new(mode).apply(module, spec, point).unwrap();
                            assert_eq!(
                                source.text,
                                pysrc::unparse::unparse_module(&applied),
                                "{} point {} ({mode:?})",
                                c.name,
                                point.id
                            );
                        } else {
                            assert_eq!(&source.text, original);
                        }
                    }
                }
            }
        }
    }
}
