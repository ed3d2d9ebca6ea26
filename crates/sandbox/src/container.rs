//! One deployed container: interpreter + host + trigger + lifecycle.

use crate::image::ContainerImage;
use pyrt::interp::call_value;
use pyrt::prepare::{prepare_hashed, source_hash64, PreparedModule};
use pyrt::{HostApi, PyExc, Value, Vm};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::{Arc, Mutex, OnceLock};

/// Process-wide prepared-module cache keyed by `(import name, source
/// hash)`. Mutated sources recur across a campaign's deploys (coverage
/// pre-run, retries, repeated campaign runs, fleet round-robin), and a
/// cache hit skips parse + name resolution — and keeps the scopes'
/// cached bytecode, so the compile tier is paid once per distinct
/// source text, not once per deploy.
///
/// A source finds a prepared module at deploy in one of two ways:
/// *attached* to the image ([`ContainerImage::prepared`] — the
/// fault-free modules, a rendered mutant's override, a coverage run's
/// instrumented modules; never enters this cache), or *parsed* by a
/// deploy that missed (entered here under the hash of the text it
/// parsed). So this cache serves only text that came from elsewhere: a
/// fleet lease, a library caller, a window under no `def`. Either way,
/// a deploy registers a module only for a text that hashes to its key.
type PrepareCache = Mutex<HashMap<(String, u64), Arc<PreparedModule>>>;

fn prepare_cache() -> &'static PrepareCache {
    static CACHE: OnceLock<PrepareCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Cache bound; campaigns produce one distinct mutant per experiment,
/// so this holds several campaigns' worth. Full → cleared (simple and
/// sound: entries rebuild on demand).
const PREPARE_CACHE_CAP: usize = 512;

/// Hit and miss counts of the process-wide prepare cache: whether the
/// deploys of text from elsewhere were cold (each source parsed,
/// name-resolved and, on first call, compiled) or warm.
pub struct PrepareCacheMetrics {
    /// Sources served from the cache.
    pub hits: obs::Counter,
    /// Sources parsed and prepared (also those that failed to parse).
    pub misses: obs::Counter,
}

impl PrepareCacheMetrics {
    /// Registers the counters into `registry`. The cache is the
    /// process's, so every registry of the process shows the same
    /// counts.
    pub fn register_into(&self, registry: &obs::Registry) {
        registry.register_counter(
            "sandbox_prepare_cache_hits_total",
            "Container sources served from the process-wide prepared-module cache.",
            &self.hits,
        );
        registry.register_counter(
            "sandbox_prepare_cache_misses_total",
            "Container sources parsed and prepared because the process-wide cache did not hold them.",
            &self.misses,
        );
    }
}

/// The process-wide prepare cache's counters.
pub fn prepare_cache_metrics() -> &'static PrepareCacheMetrics {
    static METRICS: OnceLock<PrepareCacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PrepareCacheMetrics {
        hits: obs::Counter::detached(),
        misses: obs::Counter::detached(),
    })
}

/// Process-wide totals of what the containers' interpreters did by the
/// time they were torn down: objects allocated per slab kind, how often
/// a short string found its handle in the per-VM intern table, steps
/// settled, and entries from bytecode into the tree walk. The per-VM
/// counts are plain `Cell`s on the interpreter's hot path; they are
/// folded in here once per container.
pub struct HeapMetrics {
    /// Objects allocated per slab kind, parallel to
    /// [`pyrt::value::SLAB_KINDS`].
    pub objects: Vec<obs::Counter>,
    /// Short strings served from a VM's intern table.
    pub intern_hits: obs::Counter,
    /// Short strings new to a VM's intern table.
    pub intern_misses: obs::Counter,
    /// Interpreter steps settled.
    pub steps: obs::Counter,
    /// Trampoline entries per kind, parallel to
    /// [`pyrt::vm::TRAMPOLINE_KINDS`].
    pub trampolines: Vec<obs::Counter>,
}

impl HeapMetrics {
    /// Registers the counters into `registry` (process-wide counts, so
    /// every registry of the process shows the same ones).
    pub fn register_into(&self, registry: &obs::Registry) {
        for counter in &self.objects {
            registry.register_counter(
                "pyrt_heap_objects_total",
                "Interpreter heap objects allocated by torn-down containers, per slab kind.",
                counter,
            );
        }
        registry.register_counter(
            "pyrt_intern_hits_total",
            "Short strings that found their handle in a container VM's intern table.",
            &self.intern_hits,
        );
        registry.register_counter(
            "pyrt_intern_misses_total",
            "Short strings that were new to a container VM's intern table.",
            &self.intern_misses,
        );
        registry.register_counter(
            "pyrt_steps_total",
            "Interpreter steps settled by torn-down containers.",
            &self.steps,
        );
        for counter in &self.trampolines {
            registry.register_counter(
                "pyrt_trampoline_entries_total",
                "Bytecode entries into the tree walk (ExecStmt, EvalExpr) by torn-down containers, per kind.",
                counter,
            );
        }
    }

    fn fold(&self, heap: &pyrt::value::HeapStats, exec: &pyrt::vm::ExecStats) {
        for (counter, n) in self.objects.iter().zip(heap.objects) {
            counter.add(n);
        }
        self.intern_hits.add(heap.intern_hits);
        self.intern_misses.add(heap.intern_misses);
        self.steps.add(exec.steps);
        for (counter, n) in self.trampolines.iter().zip(exec.trampolines) {
            counter.add(n);
        }
    }
}

/// The process-wide interpreter-heap counters.
pub fn heap_metrics() -> &'static HeapMetrics {
    static METRICS: OnceLock<HeapMetrics> = OnceLock::new();
    METRICS.get_or_init(|| HeapMetrics {
        objects: pyrt::value::SLAB_KINDS
            .iter()
            .map(|kind| obs::Counter::detached_with(&[("kind", kind)]))
            .collect(),
        intern_hits: obs::Counter::detached(),
        intern_misses: obs::Counter::detached(),
        steps: obs::Counter::detached(),
        trampolines: pyrt::vm::TRAMPOLINE_KINDS
            .iter()
            .map(|kind| obs::Counter::detached_with(&[("kind", kind)]))
            .collect(),
    })
}

/// Parses and prepares a source through the process-wide cache; `hash`
/// is the text's [`source_hash64`], computed once per deploy.
fn prepare_source_cached(
    name: &str,
    text: &str,
    hash: u64,
) -> Result<Arc<PreparedModule>, pysrc::ParseError> {
    let key = (name.to_string(), hash);
    if let Some(pm) = prepare_cache().lock().expect("prepare cache lock").get(&key) {
        prepare_cache_metrics().hits.inc();
        return Ok(pm.clone());
    }
    prepare_cache_metrics().misses.inc();
    let module = pysrc::parse_module(text, name)?;
    let pm = prepare_hashed(Arc::new(module), text);
    let mut cache = prepare_cache().lock().expect("prepare cache lock");
    if cache.len() >= PREPARE_CACHE_CAP {
        cache.clear();
    }
    cache.insert(key, pm.clone());
    Ok(pm)
}

/// Deploy-time failure (unparsable source, failed setup command).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeployError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deploy error: {}", self.message)
    }
}

impl std::error::Error for DeployError {}

/// How one workload round ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoundStatus {
    /// Workload completed without an exception.
    Ok,
    /// The workload/client raised an uncaught exception.
    Failed {
        /// Exception class (e.g. `"EtcdException"`).
        exc_class: String,
        /// Exception message.
        message: String,
    },
    /// The round exceeded its virtual deadline or step budget
    /// (the paper's *timeout* failure mode, including hangs).
    Timeout,
    /// The round was not executed (client process already dead).
    NotRun,
}

impl RoundStatus {
    /// Did the service behave correctly this round?
    pub fn is_ok(&self) -> bool {
        matches!(self, RoundStatus::Ok)
    }
}

/// Result of one workload round.
#[derive(Clone, Debug)]
pub struct RoundOutcome {
    /// Status.
    pub status: RoundStatus,
    /// Virtual seconds the round took.
    pub duration: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ContainerState {
    Deployed,
    ClientDead,
    TornDown,
}

/// One deployed experiment container (paper §IV-B: "for each fault to
/// be injected, ProFIPy deploys a new container").
pub struct Container {
    vm: Vm,
    state: ContainerState,
    workload_imported: bool,
    round_timeout: f64,
    fuel_per_round: u64,
}

impl Container {
    /// Deploys an image onto a host: parses and registers all sources,
    /// runs the setup commands.
    ///
    /// # Errors
    ///
    /// [`DeployError`] if a source does not parse or a setup command
    /// exits non-zero.
    pub fn deploy(
        image: &ContainerImage,
        host: Rc<dyn HostApi>,
        seed: u64,
    ) -> Result<Container, DeployError> {
        let vm = Vm::with_host(host.clone(), seed);
        // A prepared artifact substitutes for a source file only when
        // its stamped source hash matches the shipped text — an
        // unstamped or stale artifact (e.g. attached for a module that
        // was mutated) falls back to parsing, never silently executing
        // the wrong AST. Each text is hashed once; the attached
        // artifacts and the process-wide cache are both matched on
        // `(name, hash)`.
        let register = |name: &str, text: &str| -> Result<(), pysrc::ParseError> {
            let hash = source_hash64(text);
            // Prepared fast path: the unchanged modules of a campaign
            // (everything but the mutant) skip parse + name resolution.
            let attached = image
                .prepared
                .iter()
                .find(|p| p.source_hash == Some(hash) && p.module.name == name);
            let pm = match attached {
                Some(pm) => pm.clone(),
                None => prepare_source_cached(name, text, hash)?,
            };
            vm.register_prepared_source(name, pm);
            Ok(())
        };
        for src in &image.sources {
            register(&src.import_name, &src.text).map_err(|e| DeployError {
                message: format!("source {}: {e}", src.import_name),
            })?;
        }
        // A target source named `workload` (e.g. when faults are
        // injected into the workload's API call sites, §V-B) takes
        // precedence over the image-level workload text.
        if !image.sources.iter().any(|s| s.import_name == "workload") {
            register("workload", &image.workload).map_err(|e| DeployError {
                message: format!("workload: {e}"),
            })?;
        }
        for cmd in &image.setup {
            let (code, out) = host.execute(cmd);
            if code != 0 {
                return Err(DeployError {
                    message: format!("setup `{}` failed ({code}): {out}", cmd.join(" ")),
                });
            }
        }
        Ok(Container {
            vm,
            state: ContainerState::Deployed,
            workload_imported: false,
            round_timeout: image.round_timeout,
            fuel_per_round: image.fuel_per_round,
        })
    }

    /// Runs one workload round with the fault trigger set as given.
    /// The target is **not** restarted between rounds (§IV-B); the
    /// first round also executes the workload module's top level
    /// (client initialization).
    pub fn run_round(&mut self, round: i64, fault_enabled: bool) -> RoundOutcome {
        if self.state != ContainerState::Deployed {
            return RoundOutcome {
                status: RoundStatus::NotRun,
                duration: 0.0,
            };
        }
        self.vm.trigger.set(fault_enabled);
        self.vm.refill_fuel(self.fuel_per_round);
        let start = self.vm.now();
        self.vm.set_deadline(Some(start + self.round_timeout));
        let result = self.execute_round(round);
        let duration = self.vm.now() - start;
        self.vm.set_deadline(None);
        let status = match result {
            Ok(()) => RoundStatus::Ok,
            Err(e) if e.class_name == "ProfipyFuelExhausted" => RoundStatus::Timeout,
            Err(e) => {
                let e = e.into_data();
                RoundStatus::Failed {
                    exc_class: e.class_name,
                    message: e.message,
                }
            }
        };
        RoundOutcome { status, duration }
    }

    fn execute_round(&mut self, round: i64) -> Result<(), PyExc> {
        // Import (first round: executes client initialization). If the
        // top level crashes, the client process is dead: later rounds
        // are NotRun (paper §V-A: "the system was not available after
        // disabling the fault").
        let ns = match self.vm.import_module("workload") {
            Ok(ns) => {
                self.workload_imported = true;
                ns
            }
            Err(e) => {
                self.state = ContainerState::ClientDead;
                return Err(e);
            }
        };
        let run = self.vm.heap.module(ns).get("run").ok_or_else(|| {
            PyExc::new("AttributeError", "workload module must define run(round)")
        })?;
        call_value(&mut self.vm, run, vec![Value::Int(round)], Vec::new()).map(|_| ())
    }

    /// Coverage ids observed so far (`profipy_rt.cov` probes).
    pub fn coverage(&self) -> BTreeSet<u64> {
        self.vm.coverage()
    }

    /// Captured log records.
    pub fn logs(&self) -> Vec<pyrt::LogRecord> {
        self.vm.logs()
    }

    /// Captured stdout.
    pub fn stdout(&self) -> String {
        self.vm.stdout()
    }

    /// Captured stderr (tracebacks).
    pub fn stderr(&self) -> String {
        self.vm.stderr()
    }

    /// Current virtual time inside the container.
    pub fn now(&self) -> f64 {
        self.vm.now()
    }

    /// Traced host API invocations (paper §IV-D visualization).
    pub fn trace_events(&self) -> Vec<pyrt::host::TraceEvent> {
        self.vm.host.trace_events()
    }

    /// Tears the container down, reclaiming leaked resources (stale
    /// hogs, held ports via the host's cleanup command) — §IV-B: "the
    /// tool can also clean-up any resource leaked or corrupted because
    /// of the injected fault".
    pub fn teardown(mut self) {
        self.release();
    }

    /// Ends the experiment: moves logs, stdout and stderr *out of* the
    /// container, reads the final virtual time and the host's traced
    /// invocations (built from the host's record either way, so there
    /// is nothing to move), then tears it down. The `&self` accessors
    /// copy; this is for the caller that is done with the container.
    pub fn finish(mut self) -> ContainerOutput {
        let output = ContainerOutput {
            duration: self.vm.now(),
            logs: self.vm.take_logs(),
            stdout: self.vm.take_stdout(),
            stderr: self.vm.take_stderr(),
            events: self.vm.host.trace_events(),
        };
        self.release();
        output
    }

    fn release(&mut self) {
        self.vm.clear_hogs();
        let _ = self.vm.host.execute(&["etcd-cleanup".to_string()]);
        self.state = ContainerState::TornDown;
        heap_metrics().fold(&self.vm.heap.stats(), &self.vm.exec_stats());
    }
}

/// What a finished container hands to the workflow
/// ([`Container::finish`]).
#[derive(Clone, Debug)]
pub struct ContainerOutput {
    /// Virtual time at the end of the experiment.
    pub duration: f64,
    /// Captured log records.
    pub logs: Vec<pyrt::LogRecord>,
    /// Captured stdout.
    pub stdout: String,
    /// Captured stderr (tracebacks).
    pub stderr: String,
    /// Traced host API invocations.
    pub events: Vec<pyrt::host::TraceEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ContainerImage;
    use pyrt::NoopHost;

    fn noop() -> Rc<dyn HostApi> {
        Rc::new(NoopHost::new())
    }

    #[test]
    fn deploy_and_run_two_rounds() {
        let image = ContainerImage::new("t")
            .source("lib", "def ping():\n    return 'pong'\n")
            .workload("import lib\ndef run(round):\n    assert lib.ping() == 'pong'\n");
        let mut c = Container::deploy(&image, noop(), 0).unwrap();
        assert!(c.run_round(1, true).status.is_ok());
        assert!(c.run_round(2, false).status.is_ok());
        c.teardown();
    }

    #[test]
    fn trigger_gates_fault() {
        let image = ContainerImage::new("t").workload(concat!(
            "import profipy_rt\n",
            "def run(round):\n",
            "    if profipy_rt.trigger():\n",
            "        raise RuntimeError('injected')\n",
        ));
        let mut c = Container::deploy(&image, noop(), 0).unwrap();
        let r1 = c.run_round(1, true);
        assert!(matches!(
            r1.status,
            RoundStatus::Failed { ref exc_class, .. } if exc_class == "RuntimeError"
        ));
        // Round 2 with the fault disabled succeeds: error state did not
        // persist.
        assert!(c.run_round(2, false).status.is_ok());
    }

    #[test]
    fn timeout_is_reported() {
        let image = ContainerImage::new("t")
            .workload("def run(round):\n    while True:\n        pass\n")
            .fuel(50_000);
        let mut c = Container::deploy(&image, noop(), 0).unwrap();
        assert_eq!(c.run_round(1, true).status, RoundStatus::Timeout);
    }

    #[test]
    fn client_death_at_init_marks_later_rounds_not_run() {
        let image = ContainerImage::new("t").workload(concat!(
            "import profipy_rt\n",
            "if profipy_rt.trigger():\n",
            "    raise RuntimeError('dead at init')\n",
            "def run(round):\n",
            "    pass\n",
        ));
        let mut c = Container::deploy(&image, noop(), 0).unwrap();
        assert!(matches!(c.run_round(1, true).status, RoundStatus::Failed { .. }));
        assert_eq!(c.run_round(2, false).status, RoundStatus::NotRun);
    }

    #[test]
    fn bad_source_fails_deploy() {
        let image = ContainerImage::new("t").source("lib", "def broken(:\n");
        assert!(Container::deploy(&image, noop(), 0).is_err());
    }

    #[test]
    fn prepared_fast_path_used_only_for_matching_source_text() {
        use std::sync::Arc;
        let original = "def ping():\n    return 'pong'\n";
        let mutated = "def ping():\n    return 'MUTATED'\n";
        let workload = "import lib\ndef run(round):\n    print(lib.ping())\n";
        let prepared = pyrt::prepare::prepare_hashed(
            Arc::new(pysrc::parse_module(original, "lib").unwrap()),
            original,
        );

        // Matching text: the prepared artifact is used (same behavior).
        let mut image = ContainerImage::new("t").source("lib", original).workload(workload);
        image.prepared.push(prepared.clone());
        let mut c = Container::deploy(&image, noop(), 0).unwrap();
        assert!(c.run_round(1, false).status.is_ok());
        assert_eq!(c.stdout(), "pong\n");

        // Mutated text with a stale artifact attached: the shipped
        // source must win — the stale AST is never substituted.
        let mut image = ContainerImage::new("t").source("lib", mutated).workload(workload);
        image.prepared.push(prepared);
        let mut c = Container::deploy(&image, noop(), 0).unwrap();
        assert!(c.run_round(1, false).status.is_ok());
        assert_eq!(c.stdout(), "MUTATED\n", "stale prepared artifact must not shadow the mutant");
    }

    #[test]
    fn state_persists_between_rounds() {
        let image = ContainerImage::new("t").workload(concat!(
            "counter = {'n': 0}\n",
            "def run(round):\n",
            "    counter['n'] = counter['n'] + 1\n",
            "    assert counter['n'] == round\n",
        ));
        let mut c = Container::deploy(&image, noop(), 0).unwrap();
        assert!(c.run_round(1, true).status.is_ok());
        assert!(c.run_round(2, false).status.is_ok());
    }

    #[test]
    fn virtual_time_advances_across_rounds() {
        let image = ContainerImage::new("t").workload(
            "import time\ndef run(round):\n    time.sleep(3)\n",
        );
        let mut c = Container::deploy(&image, noop(), 0).unwrap();
        let r1 = c.run_round(1, true);
        assert!(r1.duration >= 3.0);
        let t_after_r1 = c.now();
        c.run_round(2, false);
        assert!(c.now() >= t_after_r1 + 3.0);
    }
}
