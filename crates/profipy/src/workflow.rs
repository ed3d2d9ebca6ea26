//! The ProFIPy workflow (paper Fig. 2): Scan → Execution → Data
//! Analysis.

use crate::plan::{InjectionPlan, PlanFilter};
use crate::result::ExperimentResult;
use faultdsl::{BugSpec, FaultModel};
use injector::{InjectionPoint, ModuleText, MutationMode, Mutator, Scanner};
use pyrt::{HostApi, PreparedModule};
use pysrc::Module;
use sandbox::{Container, ContainerImage, ParallelExecutor, RoundOutcome, RoundStatus};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

/// Creates one fresh simulated host per experiment (the per-container
/// environment). Receives a per-experiment seed.
pub type HostFactory = Arc<dyn Fn(u64) -> Rc<dyn HostApi> + Send + Sync>;

/// Campaign-wide configuration.
#[derive(Clone)]
pub struct WorkflowConfig {
    /// Base RNG seed (experiments derive per-experiment seeds).
    pub seed: u64,
    /// Mutation mode (EDFI-style triggered by default).
    pub mode: MutationMode,
    /// Virtual-time budget per workload round.
    pub round_timeout: f64,
    /// Interpreter step budget per round.
    pub fuel_per_round: u64,
    /// Setup commands run at deploy (e.g. `etcd-start`).
    pub setup: Vec<Vec<String>>,
    /// Parallel executor model.
    pub executor: ParallelExecutor,
}

impl Default for WorkflowConfig {
    fn default() -> Self {
        WorkflowConfig {
            seed: 0,
            mode: MutationMode::Triggered,
            round_timeout: 120.0,
            fuel_per_round: 8_000_000,
            setup: Vec::new(),
            executor: ParallelExecutor::default(),
        }
    }
}

/// A configured fault-injection campaign.
pub struct Workflow {
    /// Target sources: `(import name, source text)`.
    sources: Vec<(String, String)>,
    /// Parsed target modules (same order as `sources`).
    modules: Vec<Module>,
    /// The workload module text.
    workload: String,
    /// Compiled bug specifications.
    specs: Vec<BugSpec>,
    /// The fault model they came from.
    pub model: FaultModel,
    /// Host factory.
    host_factory: HostFactory,
    /// Configuration.
    pub config: WorkflowConfig,
    /// The prepared program, built lazily on first use (so a campaign
    /// that adopts a cached program via [`Workflow::set_prepared_program`]
    /// never pays the resolution cost at all) and at most once per
    /// campaign otherwise.
    prepared: std::sync::OnceLock<PreparedProgram>,
    /// Each fault-free module's text by top-level statement (same
    /// order as `modules`), rendered when the first mutant is: all a
    /// mutant's text differs in is the statement its window lies in.
    module_texts: std::sync::OnceLock<Vec<ModuleText>>,
    /// Per module (same order as `modules`), its fault-free prepared
    /// module with the `import profipy_rt` its mutants bring in front:
    /// what those mutants are overrides of. Built with the first.
    import_bases: Vec<std::sync::OnceLock<Arc<PreparedModule>>>,
    /// The mutants rendered here and not yet run, by point id, each
    /// prepared as its base plus the one `def` it changed and stamped
    /// with the hash of the text rendered with it. Running a point
    /// takes its entry out; what is never run goes with the workflow.
    overrides: std::sync::Mutex<std::collections::HashMap<u64, Arc<PreparedModule>>>,
}

/// The prepared-program artifact of one campaign: every fault-free
/// module (and the workload) parsed and name-resolved exactly once.
/// `Send + Sync`, so the campaign engine memoizes it across campaigns
/// under the spec's `(source hash, model hash)` cache key.
#[derive(Clone, Debug)]
pub struct PreparedProgram {
    /// Prepared fault-free target modules, in workflow source order.
    pub modules: Vec<Arc<PreparedModule>>,
    /// Prepared workload module, if the workload parses.
    pub workload: Option<Arc<PreparedModule>>,
}

/// Error building a workflow.
#[derive(Clone, Debug)]
pub struct WorkflowError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "workflow error: {}", self.message)
    }
}

impl std::error::Error for WorkflowError {}

impl Workflow {
    /// Builds a workflow: parses the target sources and compiles the
    /// fault model.
    ///
    /// # Errors
    ///
    /// [`WorkflowError`] for unparsable sources or DSL errors.
    pub fn new(
        sources: Vec<(String, String)>,
        workload: String,
        model: FaultModel,
        host_factory: HostFactory,
        config: WorkflowConfig,
    ) -> Result<Workflow, WorkflowError> {
        let mut modules = Vec::with_capacity(sources.len());
        for (name, text) in &sources {
            let module = pysrc::parse_module(text, name).map_err(|e| WorkflowError {
                message: format!("target source {name}: {e}"),
            })?;
            modules.push(module);
        }
        let specs = model.compile().map_err(|e| WorkflowError {
            message: e.message,
        })?;
        Ok(Workflow {
            import_bases: modules.iter().map(|_| Default::default()).collect(),
            sources,
            modules,
            workload,
            specs,
            model,
            host_factory,
            config,
            prepared: std::sync::OnceLock::new(),
            module_texts: std::sync::OnceLock::new(),
            overrides: Default::default(),
        })
    }

    /// Builds a workflow from **already-parsed** modules, skipping the
    /// parse step — the cross-campaign cache hands back parsed modules
    /// so repeated campaigns on an unchanged target pay neither parse
    /// nor scan.
    ///
    /// `modules` must correspond to `sources` (same order, same names);
    /// the sources are still kept for fault-free module text.
    ///
    /// # Errors
    ///
    /// [`WorkflowError`] for DSL compile errors or a source/module
    /// mismatch.
    pub fn from_modules(
        sources: Vec<(String, String)>,
        modules: Vec<Module>,
        workload: String,
        model: FaultModel,
        host_factory: HostFactory,
        config: WorkflowConfig,
    ) -> Result<Workflow, WorkflowError> {
        if sources.len() != modules.len()
            || sources
                .iter()
                .zip(&modules)
                .any(|((name, _), module)| name != &module.name)
        {
            return Err(WorkflowError {
                message: "from_modules: sources and modules do not line up".to_string(),
            });
        }
        let specs = model.compile().map_err(|e| WorkflowError {
            message: e.message,
        })?;
        Ok(Workflow {
            import_bases: modules.iter().map(|_| Default::default()).collect(),
            sources,
            modules,
            workload,
            specs,
            model,
            host_factory,
            config,
            prepared: std::sync::OnceLock::new(),
            module_texts: std::sync::OnceLock::new(),
            overrides: Default::default(),
        })
    }

    /// **Prepare step**, lazy and at most once per campaign:
    /// parse-independent name resolution and slot allocation for every
    /// fault-free module plus the workload, shared by all experiments.
    /// A cached program adopted via [`Workflow::set_prepared_program`]
    /// preempts this entirely.
    pub fn prepared_program(&self) -> &PreparedProgram {
        self.prepared.get_or_init(|| PreparedProgram {
            modules: self
                .modules
                .iter()
                .map(|m| {
                    // Stamp with the source text's hash so the sandbox
                    // can verify the artifact matches the file it is
                    // substituted for. Both constructors guarantee the
                    // module list lines up with `sources` 1:1.
                    let (_, text) = self
                        .sources
                        .iter()
                        .find(|(n, _)| n == &m.name)
                        .expect("constructors align modules with sources");
                    pyrt::prepare::prepare_hashed(Arc::new(m.clone()), text)
                })
                .collect(),
            workload: pysrc::parse_module(&self.workload, "workload")
                .ok()
                .map(|m| pyrt::prepare::prepare_hashed(Arc::new(m), &self.workload)),
        })
    }

    /// Adopts a cached prepared program (validated against the module
    /// list; a mismatched artifact is ignored). Returns whether the
    /// cached program was adopted. Must be called before the first
    /// experiment runs to have any effect.
    pub fn set_prepared_program(&mut self, program: &PreparedProgram) -> bool {
        let aligned = program.modules.len() == self.modules.len()
            && program
                .modules
                .iter()
                .zip(&self.modules)
                .all(|(p, m)| p.module.name == m.name);
        if !aligned {
            return false;
        }
        self.prepared = std::sync::OnceLock::from(program.clone());
        true
    }

    /// Prepared modules to attach to an experiment image: every
    /// fault-free module plus the workload. The sandbox substitutes an
    /// artifact only for a source whose text hashes to the artifact's
    /// stamp, so the one for the module this experiment mutated is
    /// simply not used — no text is compared here.
    fn attached_prepared(&self) -> Vec<Arc<PreparedModule>> {
        let program = self.prepared_program();
        program
            .modules
            .iter()
            .chain(&program.workload)
            .cloned()
            .collect()
    }

    /// The parsed target modules.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// The target sources: `(import name, source text)`.
    pub fn sources(&self) -> &[(String, String)] {
        &self.sources
    }

    /// The compiled specs.
    pub fn specs(&self) -> &[BugSpec] {
        &self.specs
    }

    /// **Scan phase** (§IV-A): finds every injection point.
    pub fn scan(&self) -> Vec<InjectionPoint> {
        Scanner::new(self.specs.clone()).scan(&self.modules)
    }

    /// Builds a plan from scanned points.
    pub fn plan(&self, points: &[InjectionPoint], filter: &PlanFilter) -> InjectionPlan {
        InjectionPlan::build(points, filter, self.config.seed)
    }

    /// **Coverage pre-run** (§IV-D): executes the workload once against
    /// the fault-free target instrumented with coverage probes, and
    /// returns the set of covered point ids.
    ///
    /// # Errors
    ///
    /// [`WorkflowError`] if the fault-free run cannot even be deployed —
    /// that indicates a broken campaign configuration, not an injected
    /// failure.
    pub fn coverage_run(&self, points: &[InjectionPoint]) -> Result<BTreeSet<u64>, WorkflowError> {
        let mutator = Mutator::new(self.config.mode);
        let mut image = ContainerImage::new("coverage")
            .workload(&self.workload)
            .round_timeout(self.config.round_timeout)
            .fuel(self.config.fuel_per_round);
        image.setup = self.config.setup.clone();
        for module in &self.modules {
            let instrumented = mutator.instrument_coverage(module, points);
            image.sources.push(sandbox::SourceFile {
                import_name: module.name.clone(),
                text: pysrc::unparse::unparse_module(&instrumented),
            });
        }
        // Instrumented sources differ from the originals, but the
        // workload is still the campaign's shared prepared module —
        // unless the workload itself is a target source (then its
        // instrumented text must execute, probes and all).
        if !image.sources.iter().any(|s| s.import_name == "workload") {
            if let Some(pm) = &self.prepared_program().workload {
                image.prepared.push(pm.clone());
            }
        }
        let host = (self.host_factory)(self.config.seed);
        let mut container = Container::deploy(&image, host, self.config.seed).map_err(|e| {
            WorkflowError {
                message: format!("coverage run deploy failed: {e}"),
            }
        })?;
        let outcome = container.run_round(1, false);
        if !outcome.status.is_ok() {
            return Err(WorkflowError {
                message: format!(
                    "fault-free coverage run failed: {:?} (stderr: {})",
                    outcome.status,
                    container.stderr()
                ),
            });
        }
        let covered = container.coverage();
        container.teardown();
        Ok(covered)
    }

    /// **Execution phase** (§IV-B): runs one experiment per plan entry,
    /// in parallel containers (at most N−1).
    pub fn execute(&self, plan: &InjectionPlan) -> Vec<ExperimentResult> {
        let entries = &plan.entries;
        self.config
            .executor
            .run(entries.len(), |i| self.run_experiment(&entries[i]))
    }

    /// **Mutation step** of one experiment: the complete per-container
    /// source set (the mutated module plus fault-free originals). This
    /// is pure with respect to the point, so the cross-campaign cache
    /// memoizes it — a resumed or repeated campaign skips re-mutation.
    ///
    /// # Errors
    ///
    /// [`WorkflowError`] for an unknown spec or a mutation failure.
    pub fn mutant_sources(
        &self,
        point: &InjectionPoint,
    ) -> Result<Vec<sandbox::SourceFile>, WorkflowError> {
        let spec = self
            .specs
            .iter()
            .find(|s| s.name == point.spec_name)
            .ok_or_else(|| WorkflowError {
                message: format!("unknown spec {}", point.spec_name),
            })?;
        let mutator = Mutator::new(self.config.mode);
        let texts = self
            .module_texts
            .get_or_init(|| self.modules.iter().map(ModuleText::of).collect());
        let mut out = Vec::with_capacity(self.modules.len());
        for (at, (module, fault_free)) in self.modules.iter().zip(texts).enumerate() {
            let text = if module.name == point.module {
                let rendered = mutator
                    .render(module, fault_free, spec, point)
                    .map_err(|e| WorkflowError {
                        message: e.to_string(),
                    })?;
                if let Some(pm) = rendered
                    .def
                    .and_then(|def| self.override_of(at, &def, &rendered.text))
                {
                    self.overrides
                        .lock()
                        .expect("overrides lock")
                        .insert(point.id, pm);
                }
                rendered.text
            } else {
                self.sources
                    .iter()
                    .find(|(n, _)| n == &module.name)
                    .map(|(_, t)| t.clone())
                    .unwrap_or_default()
            };
            out.push(sandbox::SourceFile {
                import_name: module.name.clone(),
                text,
            });
        }
        Ok(out)
    }

    /// Module `at`'s mutant `text` prepared as an override: `def`, which
    /// the splice that rendered `text` cut from it, parsed on its own —
    /// exactly the tree, on ids of its own, that parsing `text` builds
    /// for those lines — over the fault-free prepared module, or over
    /// that with `def.lead` in front. `None` (the deploy then parses
    /// `text`, as it does text from anywhere else) if the `def` does not
    /// parse: neither does the mutant, and the deploy is to say so.
    fn override_of(
        &self,
        at: usize,
        def: &injector::ChangedDef,
        text: &str,
    ) -> Option<Arc<PreparedModule>> {
        let name = &self.modules[at].name;
        let only_stmt = |src: &str| {
            let mut body = pysrc::parse_module(src, name).ok()?.body;
            (body.len() == 1).then(|| body.remove(0))
        };
        let fault_free = &self.prepared_program().modules[at];
        let base = match &def.lead {
            None => fault_free,
            Some(lead) => self.import_bases[at].get_or_init(|| {
                let lead = only_stmt(lead).expect("the mutator's import line is a statement");
                pyrt::prepare::with_leading_stmt(fault_free, lead)
            }),
        };
        pyrt::prepare::override_def(
            base,
            def.id,
            &only_stmt(&def.text)?,
            pyrt::prepare::source_hash64(text),
        )
    }

    /// Runs a single experiment: mutate → deploy → round 1 (fault on) →
    /// round 2 (fault off) → teardown.
    pub fn run_experiment(&self, point: &InjectionPoint) -> ExperimentResult {
        match self.mutant_sources(point) {
            Ok(sources) => self.run_experiment_with_sources(point, &sources),
            Err(e) => {
                let mut result = Self::empty_result(point);
                result.deploy_error = Some(e.message);
                result
            }
        }
    }

    /// **Execution step** of one experiment on pre-rendered container
    /// sources (from [`Workflow::mutant_sources`] or the mutant cache):
    /// deploy → round 1 (fault on) → round 2 (fault off) → teardown.
    pub fn run_experiment_with_sources(
        &self,
        point: &InjectionPoint,
        sources: &[sandbox::SourceFile],
    ) -> ExperimentResult {
        let seed = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(point.id);
        let mut result = Self::empty_result(point);
        let mut image = ContainerImage::new(format!("exp-{}", point.id))
            .workload(&self.workload)
            .round_timeout(self.config.round_timeout)
            .fuel(self.config.fuel_per_round);
        image.setup = self.config.setup.clone();
        image.sources = sources.to_vec();
        image.prepared = self.attached_prepared();
        // A mutant rendered by this workflow was prepared then; entered
        // now, not then, because a campaign renders more mutants before
        // it runs the first than the cache holds. The deploy looks the
        // text it is given up by hash, so other text than was rendered
        // with the override does not find it.
        let rendered_here = self
            .overrides
            .lock()
            .expect("overrides lock")
            .remove(&point.id);
        if let Some(pm) = rendered_here {
            sandbox::seed_prepare_cache(pm);
        }
        let host = (self.host_factory)(seed);
        let mut container = match Container::deploy(&image, host, seed) {
            Ok(c) => c,
            Err(e) => {
                result.deploy_error = Some(e.to_string());
                return result;
            }
        };
        result.round1 = container.run_round(1, true);
        result.round2 = container.run_round(2, false);
        let output = container.finish();
        result.logs = output.logs;
        result.stdout = output.stdout;
        result.stderr = output.stderr;
        result.duration = output.duration;
        result.events = output.events;
        result
    }

    fn empty_result(point: &InjectionPoint) -> ExperimentResult {
        let not_run = RoundOutcome {
            status: RoundStatus::NotRun,
            duration: 0.0,
        };
        ExperimentResult {
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
        }
    }

    /// Convenience: scan → (optional coverage pruning) → execute.
    ///
    /// # Errors
    ///
    /// Propagates coverage-run configuration failures.
    pub fn run_campaign(
        &self,
        filter: &PlanFilter,
        prune_by_coverage: bool,
    ) -> Result<CampaignOutcome, WorkflowError> {
        let points = self.scan();
        let plan = self.plan(&points, filter);
        let (covered, plan_run) = if prune_by_coverage {
            let covered = self.coverage_run(&points)?;
            let pruned = plan.prune_by_coverage(&covered);
            (Some(covered), pruned)
        } else {
            (None, plan.clone())
        };
        let results = self.execute(&plan_run);
        Ok(CampaignOutcome {
            points,
            plan,
            covered,
            results,
        })
    }
}

/// Everything produced by a full campaign run.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// All scanned points (before filtering).
    pub points: Vec<InjectionPoint>,
    /// The filtered plan (before coverage pruning).
    pub plan: InjectionPlan,
    /// Covered point ids, if a coverage pre-run was performed.
    pub covered: Option<BTreeSet<u64>>,
    /// One result per executed experiment.
    pub results: Vec<ExperimentResult>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    fn tiny_workflow() -> Workflow {
        tiny_workflow_with(WorkflowConfig::default())
    }

    fn tiny_workflow_with(config: WorkflowConfig) -> Workflow {
        let model = FaultModel {
            name: "tiny".into(),
            description: String::new(),
            specs: vec![faultdsl::SpecSource {
                name: "OMIT".into(),
                description: String::new(),
                dsl: "change {\n    $CALL{name=ping*}(...)\n} into {\n    pass\n}".into(),
            }],
        };
        Workflow::new(
            vec![(
                "lib".into(),
                "def a():\n    ping_a()\ndef b():\n    ping_b()\ndef c():\n    ping_c()\n"
                    .into(),
            )],
            "import lib\ndef run(round):\n    pass\n".into(),
            model,
            Arc::new(|_| Rc::new(pyrt::NoopHost::new()) as Rc<dyn pyrt::HostApi>),
            config,
        )
        .expect("valid workflow")
    }

    #[test]
    fn mutant_sources_compose_into_run_experiment() {
        // Direct mode replaces the call outright, which is easy to
        // assert on (triggered mode keeps the original in the `else`).
        let wf = tiny_workflow_with(WorkflowConfig {
            mode: MutationMode::Direct,
            ..WorkflowConfig::default()
        });
        let points = wf.scan();
        assert_eq!(points.len(), 3);
        let sources = wf.mutant_sources(&points[0]).expect("mutates");
        assert_eq!(sources.len(), 1);
        assert!(!sources[0].text.contains("ping_a"), "{}", sources[0].text);
        assert!(sources[0].text.contains("ping_b"), "other points untouched");
        // The composed path and the one-shot path agree.
        let via_sources = wf.run_experiment_with_sources(&points[0], &sources);
        let one_shot = wf.run_experiment(&points[0]);
        assert_eq!(via_sources.round1.status, one_shot.round1.status);
        assert_eq!(via_sources.duration, one_shot.duration);
    }

    #[test]
    fn a_rendered_mutant_never_run_goes_with_its_workflow() {
        // A coordinator renders every mutant and runs none. Each
        // override shares the AST of the module it overrides — here the
        // one with the mutants' import in front — so that AST's owners
        // count the overrides alive.
        let wf = tiny_workflow();
        let points = wf.scan();
        let sources = wf.mutant_sources(&points[0]).expect("mutates");
        let with_import = wf.import_bases[0].get().expect("built with the first");
        let ast = with_import.module.clone();
        let owners = Arc::strong_count(&ast);
        for point in &points[1..] {
            wf.mutant_sources(point).expect("mutates");
        }
        assert_eq!(Arc::strong_count(&ast), owners + 2, "one override a point");
        // Running a point takes its override out of the workflow (and
        // into the sandbox's cache, which this test does not own).
        wf.run_experiment_with_sources(&points[0], &sources);
        assert_eq!(wf.overrides.lock().unwrap().len(), 2);
        let weak = Arc::downgrade(&wf.overrides.lock().unwrap()[&points[1].id]);
        drop(wf);
        assert!(
            weak.upgrade().is_none(),
            "nothing else held the unrun override"
        );
    }

    #[test]
    fn from_modules_skips_parse_but_matches_workflow_new() {
        let wf = tiny_workflow();
        let rebuilt = Workflow::from_modules(
            wf.sources().to_vec(),
            wf.modules().to_vec(),
            "import lib\ndef run(round):\n    pass\n".into(),
            wf.model.clone(),
            Arc::new(|_| Rc::new(pyrt::NoopHost::new()) as Rc<dyn pyrt::HostApi>),
            WorkflowConfig::default(),
        )
        .expect("rebuilds");
        let a = wf.scan();
        let b = rebuilt.scan();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.id == y.id && x.scope == y.scope));
        // Mismatched module list is rejected.
        assert!(Workflow::from_modules(
            vec![("other".into(), String::new())],
            wf.modules().to_vec(),
            String::new(),
            wf.model.clone(),
            Arc::new(|_| Rc::new(pyrt::NoopHost::new()) as Rc<dyn pyrt::HostApi>),
            WorkflowConfig::default(),
        )
        .is_err());
    }
}
