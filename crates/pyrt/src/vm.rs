//! The virtual machine: owns the clock, fuel, trigger, host interface,
//! captured output, logs, coverage, and the module registry.

use crate::builtins;
use crate::clock::{Fuel, VirtualClock};
use crate::exc::{Flow, PyExc, BUILTIN_EXCEPTIONS};
use crate::host::{HostApi, NoopHost};
use crate::interp::Frame;
use crate::modules;
use crate::prepare::{self, FuncProto, PreparedModule};
use crate::value::{ClassObj, Heap, KwName, Scope, ScopeRef, Value};
use pysrc::ast::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

/// Severity of a log record emitted by the interpreted program through
/// the simulated `logging` module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// `logging.debug`
    Debug,
    /// `logging.info`
    Info,
    /// `logging.warning`
    Warning,
    /// `logging.error`
    Error,
    /// `logging.critical`
    Critical,
}

impl Severity {
    /// Upper-case rendering as it appears in log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "DEBUG",
            Severity::Info => "INFO",
            Severity::Warning => "WARNING",
            Severity::Error => "ERROR",
            Severity::Critical => "CRITICAL",
        }
    }
}

/// One log line captured from the interpreted program.
#[derive(Clone, Debug)]
pub struct LogRecord {
    /// Virtual timestamp.
    pub time: f64,
    /// Severity.
    pub severity: Severity,
    /// Component (module) that emitted the record.
    pub component: String,
    /// Message text.
    pub message: String,
}

impl LogRecord {
    /// Renders as a classic log line.
    pub fn render(&self) -> String {
        format!(
            "{:.6} {} [{}] {}",
            self.time,
            self.severity.as_str(),
            self.component,
            self.message
        )
    }
}

/// Result of running a module or calling an entry point.
#[derive(Clone, Debug)]
pub enum VmOutcome {
    /// Completed without an uncaught exception.
    Completed,
    /// An uncaught exception terminated execution.
    Uncaught(PyExc),
}

/// How many interpreter steps may accumulate before the batched tick
/// accounting is settled. Within a batch, `Vm::tick` is one `Cell`
/// increment and compare; the clock/fuel/deadline bookkeeping happens
/// once per batch. The batch is sized so **fuel** exhaustion trips on
/// exactly the same step as per-step accounting (integer math), and
/// the **deadline** check lands within one step of it at exact
/// floating-point boundaries (the clock itself accumulates bit-for-bit
/// like per-step advances; only the trip-step *prediction* divides).
const TICK_BATCH: u64 = 64;

/// Bound on each captured stream, stdout and stderr, and on the bytes
/// of the log messages. The write that reaches it keeps what fits and
/// is followed by `TRUNCATED` (a `LOG_TRUNCATED` record for the
/// log); every later write copies nothing. A host charges the events
/// it records against the same bound.
pub const CAPTURE_CAP: usize = 1 << 20;

/// The line that ends a stream cut at [`CAPTURE_CAP`].
const TRUNCATED: &str = "\n[output truncated at 1 MiB]\n";

/// The message of the record that ends a log cut at [`CAPTURE_CAP`].
const LOG_TRUNCATED: &str = "[log truncated at 1 MiB]";

/// The length of the longest prefix of `text`, at most `room` bytes,
/// that ends on a char boundary.
fn fitting(text: &str, mut room: usize) -> usize {
    while !text.is_char_boundary(room) {
        room -= 1;
    }
    room
}

/// Appends `text` to a captured stream, up to [`CAPTURE_CAP`].
fn capture(stream: &RefCell<String>, text: &str) {
    let mut stream = stream.borrow_mut();
    if stream.len() + text.len() <= CAPTURE_CAP {
        stream.push_str(text);
    } else if stream.len() <= CAPTURE_CAP {
        // Cut at a char boundary; the marker takes the stream past the
        // cap, which is how a later write knows it is closed.
        let room = fitting(text, CAPTURE_CAP - stream.len());
        stream.push_str(&text[..room]);
        stream.push_str(TRUNCATED);
    }
}

/// Bound on each recycled-vector pool: twice the recursion limit covers
/// a positional and a builder vector per frame in flight.
const ARG_POOL_CAP: usize = 128;

/// Returns an argument vector to its pool. Vectors that never allocated
/// are dropped (the common empty-kwargs case costs one compare), and a
/// pool holds no more than the call depth can have in flight.
fn recycle<T>(pool: &RefCell<Vec<Vec<T>>>, mut v: Vec<T>) {
    if v.capacity() == 0 {
        return;
    }
    let mut pool = pool.borrow_mut();
    if pool.len() < ARG_POOL_CAP {
        v.clear();
        pool.push(v);
    }
}

/// Which execution engine runs scope bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Flat-IR bytecode dispatch loop (the default; see
    /// [`crate::bcvm`]).
    Bytecode,
    /// Recursive tree walk — retained as the differential-testing
    /// oracle.
    TreeWalk,
}

/// Process-wide engine default override: 0 = unset (consult
/// `PROFIPY_ENGINE`, then fall back to bytecode), 1 = bytecode,
/// 2 = tree walk. Set through [`set_default_engine`]; individual VMs
/// can still be switched per-instance with [`Vm::set_engine`].
static DEFAULT_ENGINE: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Sets the process-wide default engine for subsequently created VMs.
/// Intended for bench/CLI processes; tests comparing engines should use
/// [`Vm::set_engine`] (per-instance) instead, since test binaries run
/// multi-threaded.
pub fn set_default_engine(engine: Engine) {
    let v = match engine {
        Engine::Bytecode => 1,
        Engine::TreeWalk => 2,
    };
    DEFAULT_ENGINE.store(v, std::sync::atomic::Ordering::Relaxed);
}

fn default_engine() -> Engine {
    match DEFAULT_ENGINE.load(std::sync::atomic::Ordering::Relaxed) {
        1 => return Engine::Bytecode,
        2 => return Engine::TreeWalk,
        _ => {}
    }
    static FROM_ENV: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
    *FROM_ENV.get_or_init(|| match std::env::var("PROFIPY_ENGINE").as_deref() {
        Ok("treewalk") | Ok("tree-walk") | Ok("oracle") => Engine::TreeWalk,
        _ => Engine::Bytecode,
    })
}

/// The kinds of bytecode entry into the tree walk, in
/// [`ExecStats::trampolines`] order: [`crate::ir::Op::ExecStmt`] and
/// [`crate::ir::Op::EvalExpr`].
pub const TRAMPOLINE_KINDS: [&str; 2] = ["stmt", "expr"];

/// What a VM's interpreter has done so far, read off a [`Vm`] when its
/// container is torn down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Interpreter steps settled: clock advanced, fuel consumed.
    pub steps: u64,
    /// Bytecode entries into the tree walk, parallel to
    /// [`TRAMPOLINE_KINDS`].
    pub trampolines: [u64; TRAMPOLINE_KINDS.len()],
}

/// The interpreter state shared across modules of one target program.
pub struct Vm {
    /// The per-VM object heap (typed slabs + short-string interner).
    /// Everything the interpreted program allocates lives here and is
    /// reclaimed in one arena drop with the VM.
    pub heap: Heap,
    /// Virtual clock.
    pub clock: VirtualClock,
    /// Step budget / hog accounting.
    pub fuel: Fuel,
    /// Virtual deadline (absolute clock value); exceeding it raises the
    /// timeout pseudo-exception. Set it through [`Vm::set_deadline`] so
    /// the batched tick accounting is resized.
    pub deadline: Cell<Option<f64>>,
    /// Steps taken since the last batch settlement.
    pending_ticks: Cell<u64>,
    /// Batch size: `tick` settles when `pending_ticks` reaches this.
    /// Never larger than the step at which fuel or deadline would trip.
    tick_limit: Cell<u64>,
    /// Steps settled so far (counted per settlement, not per tick).
    steps_settled: Cell<u64>,
    /// Trampoline entries so far, parallel to [`TRAMPOLINE_KINDS`].
    pub(crate) trampolines: [Cell<u64>; TRAMPOLINE_KINDS.len()],
    /// The EDFI-style fault trigger shared with the sandbox.
    pub trigger: Rc<Cell<bool>>,
    /// Host services (network, filesystem, env).
    pub host: Rc<dyn HostApi>,
    /// Seeded RNG driving `$CORRUPT`, `random`, and race outcomes.
    pub rng: RefCell<StdRng>,
    stdout: RefCell<String>,
    stderr: RefCell<String>,
    logs: RefCell<Vec<LogRecord>>,
    /// Message bytes logged since the log was last taken; past
    /// [`CAPTURE_CAP`] the log is closed.
    log_bytes: Cell<usize>,
    coverage: RefCell<BTreeSet<u64>>,
    /// Builtin namespace.
    pub(crate) builtins: ScopeRef,
    /// Builtin + user exception classes by name (heap class ids).
    pub(crate) exc_classes: RefCell<HashMap<String, u32>>,
    /// Instantiated native/user module namespaces by import name (heap
    /// module ids).
    pub(crate) modules: RefCell<HashMap<String, u32>>,
    /// Prepared user modules available for `import` (shared across
    /// experiments via `Arc`).
    user_prepared: RefCell<HashMap<String, Arc<PreparedModule>>>,
    /// Prepared scope prototypes keyed by defining node id.
    protos: RefCell<HashMap<u32, Arc<FuncProto>>>,
    /// Component attribution for log records.
    pub(crate) current_component: RefCell<String>,
    /// Exception currently being handled (for bare `raise`).
    pub(crate) handling: RefCell<Vec<PyExc>>,
    /// Python call depth (recursion guard).
    pub(crate) depth: Cell<u32>,
    /// Modules currently being imported (cycle detection).
    importing: RefCell<Vec<String>>,
    /// Recycled bytecode value stacks, so nested calls don't allocate.
    pub(crate) bc_stacks: RefCell<Vec<Vec<Value>>>,
    /// Recycled frame slot vectors (bounded by the recursion limit).
    pub(crate) slot_pool: RefCell<Vec<Vec<Option<Value>>>>,
    /// Recycled positional-argument vectors: every call path takes its
    /// vector here and whoever consumes the arguments hands it back.
    arg_pool: RefCell<Vec<Vec<Value>>>,
    /// Recycled keyword-argument vectors (same discipline).
    kw_pool: RefCell<Vec<Vec<(KwName, Value)>>>,
    /// The bytecode tier's open argument builders (`CallBegin` …
    /// `CallEnd`), one stack for all frames: builders nest like the
    /// calls they belong to, and a frame that unwinds truncates back to
    /// its entry height.
    pub(crate) calls: Vec<crate::bcvm::CallBuilder>,
    /// Execution engine for scope bodies.
    engine: Cell<Engine>,
}

impl Default for Vm {
    fn default() -> Self {
        Vm::new()
    }
}

impl Vm {
    /// Creates a VM with a [`NoopHost`], unlimited fuel and seed 0.
    pub fn new() -> Vm {
        Vm::with_host(Rc::new(NoopHost::new()), 0)
    }

    /// Creates a VM with the given host and RNG seed.
    pub fn with_host(host: Rc<dyn HostApi>, seed: u64) -> Vm {
        let vm = Vm {
            heap: Heap::new(),
            clock: VirtualClock::new(),
            fuel: Fuel::default(),
            deadline: Cell::new(None),
            pending_ticks: Cell::new(0),
            tick_limit: Cell::new(1),
            steps_settled: Cell::new(0),
            trampolines: Default::default(),
            trigger: Rc::new(Cell::new(false)),
            host,
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
            stdout: RefCell::new(String::new()),
            stderr: RefCell::new(String::new()),
            logs: RefCell::new(Vec::new()),
            log_bytes: Cell::new(0),
            coverage: RefCell::new(BTreeSet::new()),
            builtins: Scope::new_ref(),
            exc_classes: RefCell::new(HashMap::new()),
            modules: RefCell::new(HashMap::new()),
            user_prepared: RefCell::new(HashMap::new()),
            protos: RefCell::new(HashMap::new()),
            current_component: RefCell::new("<main>".to_string()),
            handling: RefCell::new(Vec::new()),
            depth: Cell::new(0),
            importing: RefCell::new(Vec::new()),
            bc_stacks: RefCell::new(Vec::new()),
            slot_pool: RefCell::new(Vec::new()),
            arg_pool: RefCell::new(Vec::new()),
            kw_pool: RefCell::new(Vec::new()),
            calls: Vec::new(),
            engine: Cell::new(default_engine()),
        };
        vm.install_exception_classes();
        builtins::install(&vm);
        vm
    }

    /// The execution engine this VM runs scope bodies with.
    pub fn engine(&self) -> Engine {
        self.engine.get()
    }

    /// Switches this VM's execution engine (e.g. to the tree-walk
    /// oracle for differential testing).
    pub fn set_engine(&self, engine: Engine) {
        self.engine.set(engine);
    }

    fn install_exception_classes(&self) {
        let mut classes = self.exc_classes.borrow_mut();
        for (name, base) in BUILTIN_EXCEPTIONS {
            let base_class = base.map(|b| *classes.get(b).expect("bases precede subclasses"));
            let class = self.heap.new_class(ClassObj {
                name: name.to_string(),
                base: base_class,
                attrs: RefCell::new(Vec::new()),
                is_exception: true,
            });
            classes.insert(name.to_string(), class);
            self.builtins.borrow_mut().set(name, Value::Class(class));
        }
    }

    /// Registers an additional exception class (used by native modules
    /// such as the simulated urllib, and by `class E(Exception)`).
    pub fn register_exception_class(&self, class: u32) {
        let name = self.heap.class(class).name.clone();
        self.exc_classes.borrow_mut().insert(name, class);
    }

    /// Looks up an exception class by name (heap class id).
    pub fn exception_class(&self, name: &str) -> Option<u32> {
        self.exc_classes.borrow().get(name).copied()
    }

    /// Registers a prepared module so the target can `import` it — the
    /// sandbox registers the unchanged workload and fault-free target
    /// modules, shared across every experiment of a campaign.
    pub fn register_prepared_source(&self, import_name: &str, prepared: Arc<PreparedModule>) {
        self.install_prepared(&prepared);
        self.user_prepared
            .borrow_mut()
            .insert(import_name.to_string(), prepared);
    }

    /// Installs a prepared module's scope prototypes into the registry.
    pub fn install_prepared(&self, prepared: &PreparedModule) {
        let mut protos = self.protos.borrow_mut();
        for (id, proto) in &prepared.protos {
            protos.insert(*id, proto.clone());
        }
    }

    /// The prepared prototype of a defining node (`def`, `lambda` or
    /// `class`): both engines find a scope here, never anywhere else.
    ///
    /// # Errors
    ///
    /// The internal error when no prepared module installed one.
    pub(crate) fn proto(&self, id: NodeId) -> Result<Arc<FuncProto>, PyExc> {
        let proto = self.protos.borrow().get(&id.0).cloned();
        proto.ok_or_else(|| PyExc::not_prepared(&format!("<scope {}>", id.0)))
    }

    /// Imports a module by name: native modules first, then registered
    /// prepared user modules (executed once and cached).
    ///
    /// # Errors
    ///
    /// Raises `ImportError` for unknown modules and propagates any
    /// exception raised while executing a user module's top level.
    pub fn import_module(&mut self, name: &str) -> Result<u32, PyExc> {
        if let Some(&m) = self.modules.borrow().get(name) {
            return Ok(m);
        }
        if let Some(native) = modules::instantiate_native(self, name) {
            self.modules.borrow_mut().insert(name.to_string(), native);
            return Ok(native);
        }
        let prepared = self.user_prepared.borrow().get(name).cloned();
        if let Some(pm) = prepared {
            if self.importing.borrow().iter().any(|n| n == name) {
                return Err(PyExc::new(
                    "ImportError",
                    format!("circular import of '{name}'"),
                ));
            }
            self.importing.borrow_mut().push(name.to_string());
            let result = self.execute_module_namespace(name, &pm.module, &pm.module_proto);
            self.importing.borrow_mut().pop();
            let namespace = result?;
            self.modules
                .borrow_mut()
                .insert(name.to_string(), namespace);
            return Ok(namespace);
        }
        Err(PyExc::new(
            "ImportError",
            format!("No module named '{name}'"),
        ))
    }

    fn execute_module_namespace(
        &mut self,
        name: &str,
        source: &pysrc::Module,
        proto: &Arc<FuncProto>,
    ) -> Result<u32, PyExc> {
        let globals = Scope::new_ref();
        let prev = std::mem::replace(&mut *self.current_component.borrow_mut(), name.to_string());
        let result = {
            let mut frame = Frame::prepared_module(globals.clone(), proto);
            crate::interp::exec_entry(self, &mut frame, &source.body)
        };
        *self.current_component.borrow_mut() = prev;
        match result {
            Ok(Flow::Return(_)) | Ok(Flow::Break) | Ok(Flow::Continue) | Ok(Flow::Normal) => {}
            Err(e) => return Err(e),
        }
        let module = self.heap.new_module(name);
        for &(n, v) in &globals.borrow().bindings_syms() {
            self.heap.module(module).set_sym(n, v);
        }
        Ok(module)
    }

    /// Runs a module as the `__main__` program, preparing it first
    /// (name resolution + slot allocation, one AST walk).
    ///
    /// # Errors
    ///
    /// Returns the uncaught [`PyExc`], with the traceback rendered to
    /// the captured stderr (like CPython printing a traceback).
    pub fn run_module(&mut self, module: &pysrc::Module) -> Result<(), PyExc> {
        let (module_proto, protos) = prepare::prepare_ast(module);
        self.protos.borrow_mut().extend(protos);
        self.run_module_body(module, &module_proto)
    }

    /// Runs an already-prepared module as the `__main__` program,
    /// skipping the prepare pass entirely.
    ///
    /// # Errors
    ///
    /// Returns the uncaught [`PyExc`] (see [`Vm::run_module`]).
    pub fn run_prepared(&mut self, prepared: &PreparedModule) -> Result<(), PyExc> {
        self.install_prepared(prepared);
        self.run_module_body(&prepared.module, &prepared.module_proto)
    }

    fn run_module_body(
        &mut self,
        module: &pysrc::Module,
        proto: &Arc<FuncProto>,
    ) -> Result<(), PyExc> {
        let globals = Scope::new_ref();
        let prev = std::mem::replace(
            &mut *self.current_component.borrow_mut(),
            module.name.clone(),
        );
        let result = {
            let mut frame = Frame::prepared_module(globals, proto);
            crate::interp::exec_entry(self, &mut frame, &module.body)
        };
        *self.current_component.borrow_mut() = prev;
        // Settle so direct `clock.now()` readers see the full run cost.
        self.settle_observed();
        match result {
            Ok(_) => Ok(()),
            Err(e) => {
                let traceback = format!(
                    "Traceback (most recent call last):\n{}{}\n",
                    e.traceback
                        .iter()
                        .rev()
                        .map(|f| format!("  File \"<target>\", in {f}\n"))
                        .collect::<String>(),
                    e.one_line()
                );
                capture(&self.stderr, &traceback);
                Err(e)
            }
        }
    }

    /// An empty positional-argument vector, recycled when one is free.
    pub(crate) fn take_args(&self) -> Vec<Value> {
        self.arg_pool.borrow_mut().pop().unwrap_or_default()
    }

    /// Hands a positional-argument vector back.
    pub(crate) fn recycle_args(&self, args: Vec<Value>) {
        recycle(&self.arg_pool, args);
    }

    /// An empty keyword-argument vector, recycled when one is free.
    pub(crate) fn take_kwargs(&self) -> Vec<(KwName, Value)> {
        self.kw_pool.borrow_mut().pop().unwrap_or_default()
    }

    /// Hands a keyword-argument vector back.
    pub(crate) fn recycle_kwargs(&self, kwargs: Vec<(KwName, Value)>) {
        recycle(&self.kw_pool, kwargs);
    }

    /// Captured standard output.
    pub fn stdout(&self) -> String {
        self.stdout.borrow().clone()
    }

    /// Captured standard error.
    pub fn stderr(&self) -> String {
        self.stderr.borrow().clone()
    }

    /// Moves the captured stdout out (the VM is about to be dropped).
    pub fn take_stdout(&self) -> String {
        self.stdout.take()
    }

    /// Moves the captured stderr out.
    pub fn take_stderr(&self) -> String {
        self.stderr.take()
    }

    /// Moves the captured log records out.
    pub fn take_logs(&self) -> Vec<LogRecord> {
        self.log_bytes.set(0);
        self.logs.take()
    }

    /// Appends to captured stdout, up to [`CAPTURE_CAP`].
    pub fn write_stdout(&self, text: &str) {
        capture(&self.stdout, text);
    }

    /// Captured log records.
    pub fn logs(&self) -> Vec<LogRecord> {
        self.logs.borrow().clone()
    }

    /// Emits a log record attributed to the current component, its
    /// message charged against the 1 MiB capture cap: the record that
    /// reaches it keeps what fits and is followed by one marker record,
    /// and later records are dropped until the log is taken.
    pub fn log(&self, severity: Severity, message: impl Into<String>) {
        let logged = self.log_bytes.get();
        if logged > CAPTURE_CAP {
            return;
        }
        let mut message = message.into();
        self.log_bytes.set(logged + message.len());
        let cut = logged + message.len() > CAPTURE_CAP;
        if cut {
            message.truncate(fitting(&message, CAPTURE_CAP - logged));
        }
        let record = |severity, message| LogRecord {
            time: self.now(),
            severity,
            component: self.current_component.borrow().clone(),
            message,
        };
        let mut logs = self.logs.borrow_mut();
        logs.push(record(severity, message));
        if cut {
            logs.push(record(Severity::Warning, LOG_TRUNCATED.to_string()));
        }
    }

    /// Marks a fault-injection point as covered (coverage
    /// instrumentation, paper §IV-D).
    pub fn mark_covered(&self, point_id: u64) {
        self.coverage.borrow_mut().insert(point_id);
    }

    /// The set of covered injection-point ids.
    pub fn coverage(&self) -> BTreeSet<u64> {
        self.coverage.borrow().clone()
    }

    /// Consumes one step of fuel, advancing the virtual clock.
    ///
    /// Accounting is batched: most calls only bump a pending-step
    /// counter; every `TICK_BATCH` steps (or sooner, when fuel or the
    /// deadline is about to trip) the batch is settled in one go. Fuel
    /// exhaustion raises on exactly the same step it would under
    /// per-step accounting; deadline detection within one step of it
    /// (see `TICK_BATCH`).
    ///
    /// # Errors
    ///
    /// Raises the timeout pseudo-exception when the budget is exhausted
    /// or the virtual deadline has passed.
    #[inline]
    pub fn tick(&self) -> Result<(), PyExc> {
        let pending = self.pending_ticks.get() + 1;
        self.pending_ticks.set(pending);
        if pending < self.tick_limit.get() {
            return Ok(());
        }
        self.settle_ticks()
    }

    /// Takes `n` interpreter steps, bit-identical to `n` sequential
    /// [`Vm::tick`] calls: settlement happens at exactly the same
    /// accumulated step counts, so fuel exhaustion and deadline trips
    /// surface on the same step with the same clock reading.
    ///
    /// # Errors
    ///
    /// Raises the timeout pseudo-exception exactly as [`Vm::tick`].
    #[inline]
    pub(crate) fn tick_n(&self, n: u32) -> Result<(), PyExc> {
        let pending = self.pending_ticks.get() + n as u64;
        if pending < self.tick_limit.get() {
            self.pending_ticks.set(pending);
            return Ok(());
        }
        self.tick_n_slow(n)
    }

    fn tick_n_slow(&self, mut n: u32) -> Result<(), PyExc> {
        while n > 0 {
            // Invariant between settlements: pending < limit, so the
            // room to the next settlement is at least one step (and at
            // most TICK_BATCH, so the u32 cast is lossless).
            let room = (self.tick_limit.get() - self.pending_ticks.get()) as u32;
            if n < room {
                self.pending_ticks
                    .set(self.pending_ticks.get() + n as u64);
                return Ok(());
            }
            self.pending_ticks.set(self.tick_limit.get());
            self.settle_ticks()?;
            n -= room;
        }
        Ok(())
    }

    /// Settles the accumulated steps: advances the clock, consumes
    /// fuel, checks the deadline, and sizes the next batch.
    fn settle_ticks(&self) -> Result<(), PyExc> {
        let n = self.pending_ticks.replace(0);
        if n > 0 {
            self.steps_settled.set(self.steps_settled.get() + n);
            self.clock.advance_steps(n, self.fuel.step_cost_secs());
            if !self.fuel.consume(n) {
                self.tick_limit.set(1);
                return Err(PyExc::timeout());
            }
            if let Some(deadline) = self.deadline.get() {
                if self.clock.now() > deadline {
                    self.tick_limit.set(1);
                    return Err(PyExc::new(
                        "ProfipyFuelExhausted",
                        "virtual deadline exceeded",
                    ));
                }
            }
        }
        self.resize_tick_batch();
        Ok(())
    }

    /// Settles pending steps for an *observation* (clock read, budget
    /// change). Accounting is applied, but an exhaustion discovered
    /// here is left for the next [`Vm::tick`] to raise — which is the
    /// step where it would have surfaced under per-step accounting
    /// anyway (observations never raised).
    fn settle_observed(&self) {
        let n = self.pending_ticks.replace(0);
        if n > 0 {
            self.steps_settled.set(self.steps_settled.get() + n);
            self.clock.advance_steps(n, self.fuel.step_cost_secs());
            // Cannot exhaust: `tick` settles (and raises) at the batch
            // limit, which never exceeds the exhausting step, so the
            // pending count here is always below it.
            let _ = self.fuel.consume(n);
        }
        self.resize_tick_batch();
    }

    /// Recomputes the batch size from remaining fuel and deadline
    /// slack, so the next settlement lands on the first step that can
    /// trip (exactly, for fuel; within one step at floating-point
    /// boundaries, for the deadline — the settle re-checks against the
    /// actual accumulated clock either way).
    fn resize_tick_batch(&self) {
        let mut limit = TICK_BATCH.min(self.fuel.steps_until_exhaustion());
        if let Some(deadline) = self.deadline.get() {
            let slack = deadline - self.clock.now();
            let per_step = self.fuel.step_cost_secs();
            let steps = if slack <= 0.0 {
                1
            } else {
                ((slack / per_step).floor() as u64).saturating_add(1)
            };
            limit = limit.min(steps);
        }
        self.tick_limit.set(limit.max(1));
    }

    /// Steps settled and trampoline entries so far (plain reads of
    /// per-VM counters).
    pub fn exec_stats(&self) -> ExecStats {
        ExecStats {
            steps: self.steps_settled.get(),
            trampolines: self.trampolines.each_ref().map(Cell::get),
        }
    }

    /// Current virtual time, with pending tick accounting settled —
    /// use this (not `clock.now()`) wherever time is observed.
    pub fn now(&self) -> f64 {
        self.settle_observed();
        self.clock.now()
    }

    /// Advances the virtual clock (e.g. `time.sleep`, simulated I/O
    /// latency), keeping the batched accounting consistent.
    pub fn advance_clock(&self, secs: f64) {
        self.settle_observed();
        self.clock.advance(secs);
        self.resize_tick_batch();
    }

    /// Sets (or clears) the virtual deadline.
    pub fn set_deadline(&self, deadline: Option<f64>) {
        self.settle_observed();
        self.deadline.set(deadline);
        self.resize_tick_batch();
    }

    /// Refills the step budget (round start).
    pub fn refill_fuel(&self, steps: u64) {
        self.settle_observed();
        self.fuel.refill(steps);
        self.resize_tick_batch();
    }

    /// Registers a CPU hog ($HOG fault), which changes the per-step
    /// cost — pending steps are settled at the old cost first.
    pub fn add_hog(&self) {
        self.settle_observed();
        self.fuel.add_hog();
        self.resize_tick_batch();
    }

    /// Clears hogs (container teardown).
    pub fn clear_hogs(&self) {
        self.settle_observed();
        self.fuel.clear_hogs();
        self.resize_tick_batch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_simple_module() {
        let m = pysrc::parse_module("x = 1 + 2\nprint(x)\n", "m.py").unwrap();
        let mut vm = Vm::new();
        vm.run_module(&m).unwrap();
        assert_eq!(vm.stdout(), "3\n");
    }

    #[test]
    fn uncaught_exception_prints_traceback() {
        let m = pysrc::parse_module("raise ValueError('boom')\n", "m.py").unwrap();
        let mut vm = Vm::new();
        let err = vm.run_module(&m).unwrap_err();
        assert_eq!(err.class_name, "ValueError");
        assert!(vm.stderr().contains("ValueError: boom"));
    }

    #[test]
    fn fuel_exhaustion_is_timeout() {
        let m = pysrc::parse_module("while True:\n    pass\n", "m.py").unwrap();
        let mut vm = Vm::new();
        vm.fuel.refill(10_000);
        let err = vm.run_module(&m).unwrap_err();
        assert_eq!(err.class_name, "ProfipyFuelExhausted");
    }

    #[test]
    fn deadline_trips_under_batched_ticks() {
        let m = pysrc::parse_module("while True:\n    pass\n", "m.py").unwrap();
        let mut vm = Vm::new();
        vm.set_deadline(Some(0.01));
        let err = vm.run_module(&m).unwrap_err();
        assert_eq!(err.class_name, "ProfipyFuelExhausted");
        assert_eq!(err.message, "virtual deadline exceeded");
        assert!(vm.clock.now() > 0.01);
    }

    #[test]
    fn observed_time_settles_pending_steps() {
        // A mid-batch `time.time()` must account every step taken so
        // far — the lazy counter may never make time stand still.
        let m = pysrc::parse_module(
            "import time\na = 1\nb = 2\nc = a + b\nprint(time.time() > 0.0)\n",
            "m.py",
        )
        .unwrap();
        let mut vm = Vm::new();
        vm.run_module(&m).unwrap();
        assert_eq!(vm.stdout(), "True\n");
        // After the run, direct clock reads see the settled total.
        assert!(vm.clock.now() > 0.0);
    }

    #[test]
    fn import_error_for_unknown_module() {
        let m = pysrc::parse_module("import nosuchmodule\n", "m.py").unwrap();
        let mut vm = Vm::new();
        let err = vm.run_module(&m).unwrap_err();
        assert_eq!(err.class_name, "ImportError");
    }

    #[test]
    fn user_module_import_executes_once() {
        let lib = pysrc::parse_module("counter = 41\ndef inc():\n    return counter + 1\n", "lib.py")
            .unwrap();
        let main =
            pysrc::parse_module("import mylib\nprint(mylib.inc())\n", "main.py").unwrap();
        let mut vm = Vm::new();
        vm.register_prepared_source("mylib", prepare::prepare(Arc::new(lib)));
        vm.run_module(&main).unwrap();
        assert_eq!(vm.stdout(), "42\n");
    }
}
