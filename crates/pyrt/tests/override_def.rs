//! A prepared module with one `def` overridden
//! ([`pyrt::prepare::override_def`]) runs exactly as the module parsed
//! whole from the text it stands for.
//!
//! Every program here is a base text and one replacement `def`; the
//! reference is the base with that `def`'s lines swapped in, parsed and
//! prepared as any module is. Each runs under both engines, and all
//! four runs must agree on output, error, the bits of the virtual clock
//! and the fuel left.

use pyrt::prepare::{override_def, prepare_hashed, source_hash64, with_leading_stmt};
use pyrt::vm::{Engine, Vm};
use pyrt::PreparedModule;
use pysrc::ast::{NodeId, Stmt, StmtKind};
use std::sync::Arc;

fn prepared(src: &str) -> Arc<PreparedModule> {
    prepare_hashed(
        Arc::new(pysrc::parse_module(src, "m").expect("source parses")),
        src,
    )
}

fn only_stmt(src: &str) -> Stmt {
    let mut body = pysrc::parse_module(src, "m")
        .expect("statement parses")
        .body;
    assert_eq!(body.len(), 1, "{src}");
    body.remove(0)
}

/// The id of the first `def name` in the module, outermost first.
fn def_id(module: &pysrc::Module, name: &str) -> NodeId {
    let mut found = None;
    pysrc::visit::walk_blocks(module, &mut |block, _| {
        found = found.or(block.iter().find_map(|s| match &s.kind {
            StmtKind::FuncDef { name: n, .. } if n == name => Some(s.id),
            _ => None,
        }));
    });
    found.unwrap_or_else(|| panic!("no def {name}"))
}

type Outcome = (Option<(String, String)>, String, u64, u64);

fn outcome(pm: &PreparedModule, engine: Engine) -> Outcome {
    let mut vm = Vm::new();
    vm.set_engine(engine);
    vm.fuel.refill(100_000);
    let error = vm.run_prepared(pm).err().map(|e| {
        let e = e.into_data();
        (e.class_name, e.message)
    });
    (error, vm.stdout(), vm.now().to_bits(), vm.fuel.remaining())
}

/// Runs `base` with its `def name` overridden by `def` (text at indent
/// level 0), and `whole` — the text that stands for — parsed; asserts
/// all four runs equal and returns their stdout.
fn overridden(base: &str, name: &str, def: &str, whole: &str) -> String {
    let base = prepared(base);
    let id = def_id(&base.module, name);
    let pm = override_def(&base, id, &only_stmt(def), source_hash64(whole)).expect("overrides");
    assert_eq!(pm.source_hash, Some(source_hash64(whole)));
    let reference = prepared(whole);
    let expected = outcome(&reference, Engine::TreeWalk);
    for engine in [Engine::Bytecode, Engine::TreeWalk] {
        assert_eq!(
            outcome(&reference, engine),
            expected,
            "{engine:?}, parsed:\n{whole}"
        );
        assert_eq!(
            outcome(&pm, engine),
            expected,
            "{engine:?}, overridden:\n{whole}"
        );
        // The base is still itself.
        assert_eq!(
            outcome(&base, engine),
            outcome(&base, Engine::TreeWalk),
            "{engine:?}, base"
        );
    }
    assert_eq!(expected.0, None, "{whole}");
    expected.1
}

#[test]
fn a_method() {
    let base = concat!(
        "class Counter:\n",
        "    def __init__(self, n):\n",
        "        self.n = n\n",
        "    def bump(self, by):\n",
        "        self.n = self.n + by\n",
        "        return self.n\n",
        "c = Counter(1)\n",
        "print(c.bump(2), c.bump(3))\n",
    );
    let def = "def bump(self, by):\n    self.n = self.n - by\n    return self.n\n";
    let whole = base.replace("self.n + by", "self.n - by");
    assert_eq!(overridden(base, "bump", def, &whole), "-1 -4\n");
}

#[test]
fn a_top_level_def() {
    // Module-level code is compiled once and shared: the `def` it
    // executes has to find the replacement through the VM's registry.
    let base = "def f(x):\n    return x + 1\nprint(f(1))\ng = f\nprint(g(2))\n";
    let def = "def f(x):\n    y = x * 10\n    return y\n";
    let whole = "def f(x):\n    y = x * 10\n    return y\nprint(f(1))\ng = f\nprint(g(2))\n";
    assert_eq!(overridden(base, "f", def, whole), "10\n20\n");
}

#[test]
fn a_def_under_a_module_level_if() {
    let base = concat!(
        "flag = True\n",
        "if flag:\n",
        "    def f(x):\n",
        "        return 'then ' + str(x)\n",
        "else:\n",
        "    def f(x):\n",
        "        return 'else ' + str(x)\n",
        "print(f(1))\n",
    );
    let def = "def f(x):\n    if x:\n        return 'mutated ' + str(x)\n    return 'zero'\n";
    let whole = concat!(
        "flag = True\n",
        "if flag:\n",
        "    def f(x):\n",
        "        if x:\n",
        "            return 'mutated ' + str(x)\n",
        "        return 'zero'\n",
        "else:\n",
        "    def f(x):\n",
        "        return 'else ' + str(x)\n",
        "print(f(1))\n",
    );
    assert_eq!(overridden(base, "f", def, whole), "mutated 1\n");
}

#[test]
fn a_nested_def_closing_over_a_local_and_a_lambda() {
    let base = concat!(
        "def outer(n):\n",
        "    k = n * 2\n",
        "    def inner(x):\n",
        "        return x + k\n",
        "    twice = lambda f, x: f(f(x))\n",
        "    return twice(inner, 1)\n",
        "print(outer(3))\n",
    );
    let def = concat!(
        "def outer(n):\n",
        "    k = n * 2\n",
        "    def inner(x):\n",
        "        return x * k\n",
        "    twice = lambda f, x: f(f(x)) + k\n",
        "    return twice(inner, 1)\n",
    );
    let whole = format!("{def}print(outer(3))\n");
    assert_eq!(overridden(base, "outer", def, &whole), "42\n");
}

#[test]
fn a_global_declaration() {
    let base = concat!(
        "total = 0\n",
        "def add(n):\n",
        "    global total\n",
        "    total = total + n\n",
        "add(2)\n",
        "add(3)\n",
        "print(total)\n",
    );
    let def = "def add(n):\n    global total, calls\n    calls = n\n    total = total + n * n\n";
    let whole = base.replace(
        "    global total\n    total = total + n\n",
        "    global total, calls\n    calls = n\n    total = total + n * n\n",
    ) + "print(calls)\n";
    let base = format!("{base}print(calls)\n");
    // The base never binds `calls`: it fails where the mutant does not.
    let pm = prepared(&base);
    assert!(outcome(&pm, Engine::Bytecode).0.is_some());
    assert_eq!(overridden(&base, "add", def, &whole), "13\n3\n");
}

#[test]
fn default_arguments_are_the_headers_evaluated_where_the_def_stands() {
    // The base's AST executes the `def` statement: defaults come from
    // its header, evaluated once, in the enclosing scope.
    let base = concat!(
        "def fresh(tag):\n",
        "    print('default for', tag)\n",
        "    return [tag]\n",
        "class Box:\n",
        "    size = 3\n",
        "    def grow(self, by=size, into=fresh('grow')):\n",
        "        into.append(by)\n",
        "        return into\n",
        "b = Box()\n",
        "print(b.grow(), b.grow(1))\n",
    );
    let def = concat!(
        "def grow(self, by=size, into=fresh('grow')):\n",
        "    into.append(by * 2)\n",
        "    return into\n",
    );
    let whole = base.replace("into.append(by)", "into.append(by * 2)");
    assert_eq!(
        overridden(base, "grow", def, &whole),
        "default for grow\n['grow', 6, 2] ['grow', 6, 2]\n"
    );
}

#[test]
fn recursion_and_a_sibling_method_reach_the_override() {
    let base = concat!(
        "class Tree:\n",
        "    def __init__(self, kids):\n",
        "        self.kids = kids\n",
        "    def weight(self):\n",
        "        return 1\n",
        "    def total(self):\n",
        "        n = self.weight()\n",
        "        for k in self.kids:\n",
        "            n = n + k.total()\n",
        "        return n\n",
        "def fact(n):\n",
        "    if n <= 1:\n",
        "        return 1\n",
        "    return n * fact(n - 1)\n",
        "t = Tree([Tree([]), Tree([Tree([])])])\n",
        "print(t.total(), fact(5))\n",
    );
    // The sibling: `total`, untouched, calls the overridden `weight`.
    let def = "def weight(self):\n    return 10 + len(self.kids)\n";
    let whole = base.replace(
        "        return 1\n    def total",
        "        return 10 + len(self.kids)\n    def total",
    );
    assert_eq!(overridden(base, "weight", def, &whole), "43 120\n");
    // The recursion: the overridden `fact` calls itself by its global name.
    let def = "def fact(n):\n    if n <= 1:\n        return 2\n    return n + fact(n - 1)\n";
    let whole = base.replace(
        "        return 1\n    return n * fact(n - 1)\n",
        "        return 2\n    return n + fact(n - 1)\n",
    );
    assert_eq!(overridden(base, "fact", def, &whole), "4 16\n");
}

#[test]
fn two_overrides_of_one_base_share_every_other_scopes_code() {
    let src = concat!(
        "class K:\n",
        "    def a(self):\n",
        "        return 1\n",
        "    def b(self):\n",
        "        return 2\n",
        "    def c(self):\n",
        "        return self.a() + self.b()\n",
        "print(K().c())\n",
    );
    let base = prepared(src);
    let (a, b, c) = (
        def_id(&base.module, "a"),
        def_id(&base.module, "b"),
        def_id(&base.module, "c"),
    );
    let one = override_def(&base, a, &only_stmt("def a(self):\n    return 10\n"), 1).unwrap();
    let two = override_def(&base, b, &only_stmt("def b(self):\n    return 20\n"), 2).unwrap();
    for engine in [Engine::Bytecode, Engine::TreeWalk] {
        assert_eq!(outcome(&one, engine).1, "12\n");
        assert_eq!(outcome(&two, engine).1, "21\n");
        assert_eq!(outcome(&base, engine).1, "3\n");
    }
    // One AST, one module-level prototype, and for every scope neither
    // touched the very prototype the base has — whose lazily compiled
    // code is therefore compiled once, whichever VM ran it first.
    assert!(Arc::ptr_eq(&one.module, &base.module) && Arc::ptr_eq(&two.module, &base.module));
    assert!(Arc::ptr_eq(&one.module_proto, &base.module_proto));
    assert!(Arc::ptr_eq(&two.module_proto, &base.module_proto));
    assert!(Arc::ptr_eq(&one.protos[&c.0], &two.protos[&c.0]));
    assert!(Arc::ptr_eq(&one.protos[&b.0], &base.protos[&b.0]));
    assert!(Arc::ptr_eq(&two.protos[&a.0], &base.protos[&a.0]));
    assert!(!Arc::ptr_eq(&one.protos[&a.0], &base.protos[&a.0]));
    let (vm1, vm2) = (Vm::new(), Vm::new());
    vm1.install_prepared(&one);
    vm2.install_prepared(&two);
    assert!(Arc::ptr_eq(
        &pyrt::compile::func_code_arc(&vm1, &one.protos[&c.0]),
        &pyrt::compile::func_code_arc(&vm2, &two.protos[&c.0]),
    ));
}

#[test]
fn a_leading_import_runs_first_and_ticks_like_the_parsed_text() {
    let base = concat!(
        "print('top level')\n",
        "def f(x):\n",
        "    return x + 1\n",
        "print(f(1))\n",
    );
    let def = concat!(
        "def f(x):\n",
        "    if profipy_rt.trigger():\n",
        "        return 'fault'\n",
        "    else:\n",
        "        return x + 1\n",
    );
    let whole = concat!(
        "import profipy_rt\n",
        "print('top level')\n",
        "def f(x):\n",
        "    if profipy_rt.trigger():\n",
        "        return 'fault'\n",
        "    else:\n",
        "        return x + 1\n",
        "print(f(1))\n",
    );
    let fault_free = prepared(base);
    let with_import = with_leading_stmt(&fault_free, only_stmt("import profipy_rt\n"));
    assert_eq!(with_import.source_hash, None, "it stands for no text");
    assert_eq!(
        with_import.module.body.len(),
        fault_free.module.body.len() + 1
    );
    let id = def_id(&fault_free.module, "f");
    let pm = override_def(&with_import, id, &only_stmt(def), source_hash64(whole)).unwrap();
    let reference = prepared(whole);
    for trigger in [false, true] {
        let run = |pm: &PreparedModule, engine: Engine| {
            let mut vm = Vm::new();
            vm.set_engine(engine);
            vm.trigger.set(trigger);
            vm.fuel.refill(100_000);
            vm.run_prepared(pm).expect("runs");
            (vm.stdout(), vm.now().to_bits(), vm.fuel.remaining())
        };
        let expected = run(&reference, Engine::TreeWalk);
        assert_eq!(
            expected.0,
            if trigger {
                "top level\nfault\n"
            } else {
                "top level\n2\n"
            }
        );
        for engine in [Engine::Bytecode, Engine::TreeWalk] {
            assert_eq!(run(&reference, engine), expected, "{engine:?} parsed");
            assert_eq!(run(&pm, engine), expected, "{engine:?} overridden");
        }
    }
    // Without the import in front the override's body cannot run.
    let bare = override_def(&fault_free, id, &only_stmt(def), 0).unwrap();
    assert_eq!(
        outcome(&bare, Engine::Bytecode).0.map(|e| e.0),
        Some("NameError".to_string())
    );
}

#[test]
fn only_a_def_of_that_name_under_that_id_is_overridden() {
    let base = prepared("def f():\n    return 1\nx = f()\n");
    let f = def_id(&base.module, "f");
    let def = only_stmt("def f():\n    return 2\n");
    assert!(override_def(&base, f, &def, 0).is_some());
    assert!(override_def(&base, f, &only_stmt("x = 1\n"), 0).is_none());
    assert!(override_def(&base, f, &only_stmt("def g():\n    return 2\n"), 0).is_none());
    assert!(override_def(&base, NodeId(u32::MAX), &def, 0).is_none());
}
