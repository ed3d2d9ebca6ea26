//! The traced run's in-process replay: the work `CampaignEngine::prepare`
//! and `Workflow::run_experiment_with_sources` do for one campaign,
//! redone from the harness through each crate's public functions with
//! a span around every call.
//!
//! Nothing inside the program may change in the PR that defines the
//! benchmark, so this is the only place the layers can be told apart.
//! It cannot drift unnoticed: every replayed report is compared with
//! the reference bytes, and [`Replay::check`] compares each replicated
//! step with the `Workflow` method it stands in for.

use crate::tracer::Tracer;
use crate::workloads::{registry, EXECUTOR_CORES};
use campaign::{
    report_to_value, results_equivalent, CampaignSpec, CheckpointLog, HostRegistry, JobQueue,
};
use injector::{InjectionPoint, Mutator};
use profipy::analysis::FailureClassifier;
use profipy::workflow::{PreparedProgram, WorkflowConfig};
use profipy::{CampaignReport, ExperimentResult, InjectionPlan, Workflow};
use pyrt::PreparedModule;
use pysrc::Module;
use sandbox::{Container, ContainerImage, ParallelExecutor, RoundStatus, SourceFile};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Campaign keys kept before the replay's artifact store is emptied —
/// `fresh_revision` adds three per op and never reads one back.
const STORE_CAP: usize = 64;

/// What the engine's `MutantCache` would hold for one cache key.
#[derive(Default)]
struct Artifacts {
    modules: Option<Arc<Vec<Module>>>,
    program: Option<PreparedProgram>,
    points: Option<Arc<Vec<InjectionPoint>>>,
    covered: HashMap<u64, Arc<BTreeSet<u64>>>,
    mutants: HashMap<u64, Arc<Vec<SourceFile>>>,
}

pub struct Replay {
    registry: HostRegistry,
    classifier: FailureClassifier,
    store: HashMap<u64, Artifacts>,
    /// The engine keeps every campaign it ever ran in its job queue;
    /// so does the replay, or its ops would not slow down with history
    /// the way the service's do.
    queue: JobQueue,
    /// Wall seconds and fuel of every round the replay saw time out.
    pub fuel_timeouts: Vec<(f64, u64)>,
}

/// One replayed campaign.
pub struct Replayed {
    /// The report in the wire encoding (built outside the op's spans).
    pub report: String,
    pub results: Vec<ExperimentResult>,
    /// Seconds `report_to_value(..).pretty()` took.
    pub report_encode_s: f64,
}

impl Replay {
    pub fn new() -> Replay {
        Replay {
            registry: registry(),
            classifier: FailureClassifier::case_study(),
            store: HashMap::new(),
            queue: JobQueue::in_memory(),
            fuel_timeouts: Vec::new(),
        }
    }

    /// Replays one op the way `submit` × n + `drive(None)` runs it:
    /// every campaign queued first, then each taken, prepared, run and
    /// completed.
    pub fn op(
        &mut self,
        t: &mut Tracer,
        specs: &[CampaignSpec],
        check: bool,
    ) -> Result<Vec<Replayed>, String> {
        let queue_err = |e: std::io::Error| format!("in-memory queue: {e}");
        for spec in specs {
            t.span("campaign.queue", |_| self.queue.submit(spec.clone()))
                .map_err(queue_err)?;
        }
        let mut out = Vec::with_capacity(specs.len());
        while let Some(id) = t
            .span("campaign.queue", |_| self.queue.take_next())
            .map_err(queue_err)?
        {
            let spec = t.span("campaign.queue", |_| {
                self.queue.get(&id).expect("taken job exists").spec.clone()
            });
            out.push(self.campaign(t, &spec, check)?);
            t.span("campaign.queue", |_| self.queue.complete(&id))
                .map_err(queue_err)?;
        }
        Ok(out)
    }

    fn workflow_config(spec: &CampaignSpec) -> WorkflowConfig {
        WorkflowConfig {
            seed: spec.seed,
            mode: spec.mode,
            round_timeout: spec.round_timeout,
            fuel_per_round: spec.fuel_per_round,
            setup: spec.setup.clone(),
            executor: ParallelExecutor::new(EXECUTOR_CORES),
        }
    }

    /// Replays one campaign: the engine's prepare step (each artifact
    /// built on a miss, reused on a hit), every pending experiment, and
    /// the report. With `check`, every replicated step is also run
    /// through the `Workflow` method it mirrors and compared.
    fn campaign(
        &mut self,
        t: &mut Tracer,
        spec: &CampaignSpec,
        check: bool,
    ) -> Result<Replayed, String> {
        let host = self
            .registry
            .get(&spec.host)
            .ok_or_else(|| format!("unknown host '{}'", spec.host))?;
        if self.store.len() >= STORE_CAP {
            self.store.clear();
        }
        let key = t.span("campaign.cache_key", |_| spec.cache_key());
        let art = self.store.entry(key).or_default();

        // Parse, or reuse, the target modules.
        let modules: Vec<Module> = match &art.modules {
            Some(modules) => t.span("campaign.cache_clone", |_| modules.as_ref().clone()),
            None => spec
                .sources
                .iter()
                .map(|(name, text)| {
                    t.span("pysrc.parse", |_| pysrc::parse_module(text, name))
                        .map_err(|e| format!("{name}: {e}"))
                })
                .collect::<Result<_, String>>()?,
        };
        let mut workflow = t
            .span("profipy.workflow", |_| {
                Workflow::from_modules(
                    spec.sources.clone(),
                    modules,
                    spec.workload.clone(),
                    spec.model.clone(),
                    host.clone(),
                    Self::workflow_config(spec),
                )
            })
            .map_err(|e| e.message)?;
        art.modules = Some(t.span("campaign.cache_clone", |_| {
            Arc::new(workflow.modules().to_vec())
        }));

        // Name-resolve, or reuse, the fault-free program.
        if art.program.is_none() {
            let prepared: Vec<Arc<PreparedModule>> = workflow
                .modules()
                .iter()
                .zip(&spec.sources)
                .map(|(module, (_, text))| {
                    t.span("pyrt.prepare", |_| {
                        pyrt::prepare::prepare_hashed(Arc::new(module.clone()), text)
                    })
                })
                .collect();
            let workload = t
                .span("pysrc.parse", |_| {
                    pysrc::parse_module(&spec.workload, "workload")
                })
                .ok()
                .map(|m| {
                    t.span("pyrt.prepare", |_| {
                        pyrt::prepare::prepare_hashed(Arc::new(m), &spec.workload)
                    })
                });
            art.program = Some(PreparedProgram {
                modules: prepared,
                workload,
            });
        }
        let program = art.program.clone().expect("stored just above");
        if !workflow.set_prepared_program(&program) {
            return Err("replayed prepared program does not line up".to_string());
        }

        let points = match &art.points {
            Some(points) => points.clone(),
            None => {
                let scanned = Arc::new(t.span("injector.scan", |_| workflow.scan()));
                art.points = Some(scanned.clone());
                scanned
            }
        };
        let mut plan = t.span("profipy.plan", |_| {
            InjectionPlan::build(&points, &spec.filter.to_filter(), spec.seed)
        });
        if spec.prune_by_coverage {
            let coverage_key = spec.coverage_key();
            let covered = match art.covered.get(&coverage_key) {
                Some(covered) => covered.clone(),
                None => {
                    let covered =
                        Arc::new(coverage_run(t, spec, &workflow, &program, &points, &host)?);
                    if check {
                        let theirs = workflow.coverage_run(&points).map_err(|e| e.message)?;
                        if theirs != *covered {
                            return Err("replayed coverage run drifted".to_string());
                        }
                    }
                    art.covered.insert(coverage_key, covered.clone());
                    covered
                }
            };
            plan = plan.prune_by_coverage(&covered);
        }

        // The resume point: an in-memory engine starts every campaign
        // on an empty log keyed by the spec's content hash.
        let mut checkpoint = t.span("campaign.checkpoint", |_| {
            CheckpointLog::in_memory(spec.content_hash())
        });

        // Render, or reuse, each mutant, then run it.
        for point in &plan.entries {
            let sources = match art.mutants.get(&point.id) {
                Some(sources) => sources.clone(),
                None => {
                    let rendered = Arc::new(mutant_sources(t, spec, &workflow, point)?);
                    if check {
                        let theirs = workflow.mutant_sources(point).map_err(|e| e.message)?;
                        if theirs != *rendered {
                            return Err(format!("replayed mutant {} drifted", point.id));
                        }
                    }
                    art.mutants.insert(point.id, rendered.clone());
                    rendered
                }
            };
            let result = experiment(
                t,
                spec,
                &program,
                point,
                &sources,
                &host,
                &mut self.fuel_timeouts,
            );
            if check {
                let theirs = workflow.run_experiment_with_sources(point, &sources);
                if !results_equivalent(&result, &theirs) {
                    return Err(format!("replayed experiment {} drifted", point.id));
                }
            }
            t.span("campaign.checkpoint", |_| checkpoint.record(&result))
                .map_err(|e| format!("in-memory checkpoint: {e}"))?;
        }
        // The engine keeps a copy of the results to carry the
        // checkpoint across drives, and builds the report from another.
        let mut results = t.span("campaign.checkpoint", |_| {
            let results = checkpoint.into_results();
            std::hint::black_box(results.clone());
            results
        });
        let report = t.span("profipy.report_build", |_| {
            results.sort_by_key(|r| r.point_id);
            CampaignReport::from_results(
                &spec.name,
                results.len(),
                None,
                &results,
                &self.classifier,
            )
        });
        let started = Instant::now();
        let report = report_to_value(&report).pretty();
        Ok(Replayed {
            report,
            results,
            report_encode_s: started.elapsed().as_secs_f64(),
        })
    }
}

/// `Workflow::coverage_run`, step by step.
fn coverage_run(
    t: &mut Tracer,
    spec: &CampaignSpec,
    workflow: &Workflow,
    program: &PreparedProgram,
    points: &[InjectionPoint],
    host: &profipy::HostFactory,
) -> Result<BTreeSet<u64>, String> {
    t.span("profipy.coverage_run", |t| {
        let mutator = Mutator::new(spec.mode);
        let mut image = ContainerImage::new("coverage")
            .workload(&spec.workload)
            .round_timeout(spec.round_timeout)
            .fuel(spec.fuel_per_round);
        image.setup = spec.setup.clone();
        for module in workflow.modules() {
            let instrumented = t.span("injector.instrument_coverage", |_| {
                mutator.instrument_coverage(module, points)
            });
            image.sources.push(SourceFile {
                import_name: module.name.clone(),
                text: t.span("pysrc.unparse", |_| {
                    pysrc::unparse::unparse_module(&instrumented)
                }),
            });
        }
        if !image.sources.iter().any(|s| s.import_name == "workload") {
            image.prepared.extend(program.workload.clone());
        }
        let host = host(spec.seed);
        let mut container = t
            .span("sandbox.deploy", |_| {
                Container::deploy(&image, host, spec.seed)
            })
            .map_err(|e| format!("coverage run deploy failed: {e}"))?;
        let outcome = t.span("sandbox.round1", |_| container.run_round(1, false));
        if !outcome.status.is_ok() {
            return Err(format!(
                "fault-free coverage run failed: {:?}",
                outcome.status
            ));
        }
        let covered = t.span("sandbox.collect", |_| container.coverage());
        t.span("sandbox.teardown", |_| container.teardown());
        Ok(covered)
    })
}

/// `Workflow::mutant_sources`, step by step.
fn mutant_sources(
    t: &mut Tracer,
    spec: &CampaignSpec,
    workflow: &Workflow,
    point: &InjectionPoint,
) -> Result<Vec<SourceFile>, String> {
    t.span("profipy.mutant_sources", |t| {
        let bug = workflow
            .specs()
            .iter()
            .find(|s| s.name == point.spec_name)
            .ok_or_else(|| format!("unknown spec {}", point.spec_name))?;
        let mutator = Mutator::new(spec.mode);
        workflow
            .modules()
            .iter()
            .zip(&spec.sources)
            .map(|(module, (_, original))| {
                let text = if module.name == point.module {
                    let mutated = t
                        .span("injector.mutate", |_| mutator.apply(module, bug, point))
                        .map_err(|e| e.to_string())?;
                    t.span("pysrc.unparse", |_| {
                        pysrc::unparse::unparse_module(&mutated)
                    })
                } else {
                    original.clone()
                };
                Ok(SourceFile {
                    import_name: module.name.clone(),
                    text,
                })
            })
            .collect()
    })
}

/// The prepared modules `Workflow` attaches to an experiment image:
/// every module the mutant left untouched, plus the workload.
pub fn prepared_for(
    spec: &CampaignSpec,
    program: &PreparedProgram,
    sources: &[SourceFile],
) -> Vec<Arc<PreparedModule>> {
    let mut out: Vec<Arc<PreparedModule>> = sources
        .iter()
        .filter(|src| {
            spec.sources
                .iter()
                .any(|(n, text)| n == &src.import_name && text == &src.text)
        })
        .filter_map(|src| {
            program
                .modules
                .iter()
                .find(|p| p.module.name == src.import_name)
                .cloned()
        })
        .collect();
    if !sources.iter().any(|s| s.import_name == "workload") {
        out.extend(program.workload.clone());
    }
    out
}

/// `Workflow::run_experiment_with_sources`, step by step.
fn experiment(
    t: &mut Tracer,
    spec: &CampaignSpec,
    program: &PreparedProgram,
    point: &InjectionPoint,
    sources: &[SourceFile],
    host: &profipy::HostFactory,
    fuel_timeouts: &mut Vec<(f64, u64)>,
) -> ExperimentResult {
    t.span("profipy.experiment", |t| {
        let seed = spec
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(point.id);
        let not_run = sandbox::RoundOutcome {
            status: RoundStatus::NotRun,
            duration: 0.0,
        };
        let mut result = ExperimentResult {
            point_id: point.id,
            spec_name: point.spec_name.clone(),
            module: point.module.clone(),
            scope: point.scope.clone(),
            round1: not_run.clone(),
            round2: not_run,
            logs: Vec::new(),
            stdout: String::new(),
            stderr: String::new(),
            duration: 0.0,
            deploy_error: None,
            events: Vec::new(),
        };
        let mut image = ContainerImage::new(format!("exp-{}", point.id))
            .workload(&spec.workload)
            .round_timeout(spec.round_timeout)
            .fuel(spec.fuel_per_round);
        image.setup = spec.setup.clone();
        image.sources = sources.to_vec();
        image.prepared = prepared_for(spec, program, sources);
        let host = host(seed);
        let mut container =
            match t.span("sandbox.deploy", |_| Container::deploy(&image, host, seed)) {
                Ok(c) => c,
                Err(e) => {
                    result.deploy_error = Some(e.to_string());
                    return result;
                }
            };
        let mut round = |t: &mut Tracer, name, n, fault| {
            let started = Instant::now();
            let outcome = t.span(name, |_| container.run_round(n, fault));
            // A timeout short of the virtual deadline is the fuel
            // running out.
            if outcome.status == RoundStatus::Timeout && outcome.duration < spec.round_timeout {
                fuel_timeouts.push((started.elapsed().as_secs_f64(), spec.fuel_per_round));
            }
            outcome
        };
        result.round1 = round(t, "sandbox.round1", 1, true);
        result.round2 = round(t, "sandbox.round2", 2, false);
        t.span("sandbox.collect", |_| {
            result.logs = container.logs();
            result.stdout = container.stdout();
            result.stderr = container.stderr();
            result.duration = container.now();
            result.events = container.trace_events();
        });
        t.span("sandbox.teardown", |_| container.teardown());
        result
    })
}
