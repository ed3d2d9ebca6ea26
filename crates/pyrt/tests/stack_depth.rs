//! The worst case on an interpreter thread's stack: `MAX_DEPTH` Python
//! frames, each returning an expression nested as deep as the parser
//! admits, with the `return` inside a `try` (a statement the bytecode
//! tier hands to the tree walk) and without. On a thread of
//! [`pyrt::interp::STACK_BYTES`], the stack every thread that runs
//! user code is spawned with, each run must end in `RuntimeError:
//! maximum recursion depth exceeded` under both engines.
//!
//! A test binary of its own: a thread that overflows its stack aborts
//! the whole process, so a regression takes down only this file.

use pyrt::vm::{Engine, Vm};
use pysrc::parser::MAX_NESTING;

/// `f` returns `-…-f(n + 1)` with `levels` negations, from inside
/// `try`/`finally` when `in_try`.
fn recursion(in_try: bool, levels: usize) -> String {
    let expr = format!("{}f(n + 1)", "-".repeat(levels));
    let body = if in_try {
        format!("    try:\n        return {expr}\n    finally:\n        pass\n")
    } else {
        format!("    return {expr}\n")
    };
    format!("def f(n):\n{body}\nf(0)\n")
}

/// [`recursion`] with as many negations as the parser admits.
fn deepest_recursion(in_try: bool) -> pysrc::Module {
    (1..=MAX_NESTING)
        .rev()
        .find_map(|n| pysrc::parse_module(&recursion(in_try, n), "deep.py").ok())
        .expect("some nesting parses")
}

/// Runs `module` under `engine` on a thread of the interpreter's stack
/// size and returns the error it ends in.
fn run_on_interpreter_stack(module: pysrc::Module, engine: Engine) -> pyrt::PyExc {
    std::thread::Builder::new()
        .stack_size(pyrt::interp::STACK_BYTES)
        .spawn(move || {
            let mut vm = Vm::new();
            vm.set_engine(engine);
            vm.fuel.refill(1_000_000);
            vm.run_module(&module)
                .expect_err("recursion without a base case")
        })
        .unwrap()
        .join()
        .unwrap()
}

fn assert_depth_limit_is_reached(in_try: bool) {
    for engine in [Engine::TreeWalk, Engine::Bytecode] {
        let exc = run_on_interpreter_stack(deepest_recursion(in_try), engine);
        assert_eq!(
            (exc.class_name.as_str(), exc.message.as_str()),
            ("RuntimeError", "maximum recursion depth exceeded"),
            "{engine:?}"
        );
    }
}

#[test]
fn deepest_returns_at_the_depth_limit_end_in_runtime_error() {
    assert_depth_limit_is_reached(false);
}

#[test]
fn deepest_returns_inside_try_at_the_depth_limit_end_in_runtime_error() {
    assert_depth_limit_is_reached(true);
}
