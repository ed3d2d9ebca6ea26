//! `pyrt` — a deterministic interpreter for the mini-Python subset
//! parsed by [`pysrc`]: a bytecode VM ([`compile`] + [`bcvm`], the
//! default engine) with a tree-walking oracle ([`interp`]) that is
//! bit-for-bit interchangeable with it (select per VM with
//! [`Vm::set_engine`] or process-wide with `PROFIPY_ENGINE`).
//!
//! Everything either engine runs was prepared: [`prepare`] resolves
//! every name, attribute and scope of a module once, [`Vm::run_module`]
//! and [`Vm::register_prepared_source`] take only prepared modules (the
//! former prepares its argument), and both engines read what that pass
//! recorded. A node it did not resolve raises `RuntimeError` — there is
//! no second, string-driven resolution.
//!
//! This crate stands in for the CPython runtime in the original ProFIPy
//! paper. It reproduces the language semantics the paper's case study
//! depends on:
//!
//! * Python exception semantics: `AttributeError` on `None.attr`,
//!   `UnboundLocalError` for read-before-assign locals, `KeyError`,
//!   `TypeError`, user-defined exception classes with single
//!   inheritance, and `try/except/else/finally`.
//! * A **virtual clock** ([`clock::VirtualClock`]): every interpreter
//!   step advances simulated time; `time.sleep` jumps it. CPU hogs
//!   (registered via the `profipy_rt.hog()` native, injected by the
//!   `$HOG` DSL directive) multiply the per-step cost, starving the
//!   program the way stale busy threads starve CPython.
//! * A **fuel limit** so runaway mutants terminate deterministically —
//!   the sandbox maps fuel exhaustion / missed virtual deadlines to the
//!   paper's *timeout* failure mode.
//! * A **fault trigger** shared cell (paper §IV-B): mutated code guards
//!   faulty branches with `profipy_rt.trigger()`, which the sandbox
//!   flips between the two workload rounds without restarting the
//!   program.
//! * A pluggable [`host::HostApi`] through which the simulated `urllib`
//!   and `os` modules reach the outside world (the `etcdsim` crate
//!   implements it for the case study).
//!
//! # Example
//!
//! ```
//! use pyrt::vm::Vm;
//!
//! let module = pysrc::parse_module("x = 2 + 3\nprint(x)\n", "m.py").unwrap();
//! let mut vm = Vm::new();
//! vm.run_module(&module).unwrap();
//! assert_eq!(vm.stdout(), "5\n");
//! ```

pub mod bcvm;
pub mod builtins;
pub mod clock;
pub mod compile;
pub mod exc;
pub mod host;
pub mod intern;
pub mod interp;
pub mod ir;
pub mod methods;
pub mod modules;
pub mod prepare;
pub mod value;
pub mod vm;

pub use exc::PyExc;
pub use host::{HostApi, HttpResponse, NoopHost};
pub use intern::{intern, Symbol};
pub use prepare::{FuncProto, PreparedModule};
pub use value::Value;
pub use vm::{set_default_engine, Engine, LogRecord, Severity, Vm, VmOutcome};
