//! The deepest source the parser admits (`pysrc::parser::MAX_NESTING`)
//! passes through everything that walks its tree on a 2 MB thread, the
//! stack the HTTP workers and the campaign drive thread have: prepare,
//! compile, a bytecode run, and unparse back to text that parses to the
//! same text again.

use pyrt::vm::{Engine, Vm};
use pysrc::parser::MAX_NESTING;
use std::sync::Arc;

/// `x = ` and `n` openers around `1`, each closed again.
fn wrapped(open: &str, close: &str, n: usize) -> String {
    format!("x = {}1{}\nprint(x)\n", open.repeat(n), close.repeat(n))
}

/// Parses, prepares, compiles, runs and unparses `source` on a 2 MB
/// thread; returns what the run printed.
fn through_every_pass(source: String) -> String {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let module = pysrc::parse_module(&source, "deep.py").expect("parses");
            let text = pysrc::unparse::unparse_module(&module);
            let again = pysrc::parse_module(&text, "deep.py").expect("unparsed text parses");
            assert_eq!(pysrc::unparse::unparse_module(&again), text);
            let prepared = pyrt::prepare::prepare(Arc::new(module));
            pyrt::compile::compile(&prepared.module_proto, &prepared.module.body);
            let mut vm = Vm::new();
            vm.set_engine(Engine::Bytecode);
            vm.fuel.refill(100_000);
            vm.run_prepared(&prepared).expect("runs");
            vm.stdout()
        })
        .unwrap()
        .join()
        .unwrap()
}

#[test]
fn limit_deep_lists_pass_every_pass_on_a_2mb_stack() {
    // The statement's expression is the first level.
    let levels = MAX_NESTING - 1;
    let printed = through_every_pass(wrapped("[", "]", levels));
    assert_eq!(
        printed,
        format!("{}1{}\n", "[".repeat(levels), "]".repeat(levels))
    );
}

#[test]
fn limit_deep_unary_chains_pass_every_pass_on_a_2mb_stack() {
    let levels = MAX_NESTING - 1;
    assert_eq!(through_every_pass(wrapped("-", "", levels)), "-1\n");
    assert_eq!(through_every_pass(wrapped("not ", "", levels)), "False\n");
}
