//! Semantics regression suite for the slot-resolved interpreter.
//!
//! Every test here pins a scoping behavior the pre-refactor
//! (string-scanning) interpreter exhibited, so the prepare/resolve fast
//! path can never silently diverge: closures, `global` declarations,
//! shadowing, `del`, class-attribute resolution, dict insertion order,
//! and the `UnboundLocalError` semantics the paper's §V-C failure mode
//! depends on.

use pyrt::vm::Vm;
use std::sync::Arc;

fn run(src: &str) -> String {
    let m = pysrc::parse_module(src, "test.py").expect("source parses");
    let mut vm = Vm::new();
    vm.run_module(&m).expect("runs without exception");
    vm.stdout()
}

fn run_err(src: &str) -> (String, String) {
    let m = pysrc::parse_module(src, "test.py").expect("source parses");
    let mut vm = Vm::new();
    let e = vm.run_module(&m).expect_err("raises").into_data();
    (e.class_name, e.message)
}

// ---------- closures ----------

#[test]
fn closure_reads_enclosing_local() {
    assert_eq!(
        run(concat!(
            "def outer():\n",
            "    x = 10\n",
            "    def inner():\n",
            "        return x + 1\n",
            "    return inner()\n",
            "print(outer())\n",
        )),
        "11\n"
    );
}

#[test]
fn closure_sees_enclosing_mutation_by_reference() {
    // The captured scope is shared, not snapshotted: a later assignment
    // in the enclosing function is visible through the closure.
    assert_eq!(
        run(concat!(
            "def outer():\n",
            "    x = 1\n",
            "    def inner():\n",
            "        return x\n",
            "    x = 2\n",
            "    return inner()\n",
            "print(outer())\n",
        )),
        "2\n"
    );
}

#[test]
fn closure_over_loop_variable_is_late_bound() {
    assert_eq!(
        run(concat!(
            "def make():\n",
            "    fns = []\n",
            "    for i in range(3):\n",
            "        fns.append(lambda: i)\n",
            "    return fns\n",
            "print([f() for f in make()])\n",
        )),
        "[2, 2, 2]\n"
    );
}

#[test]
fn nested_closures_capture_innermost_first() {
    assert_eq!(
        run(concat!(
            "def a():\n",
            "    v = 'a'\n",
            "    def b():\n",
            "        v = 'b'\n",
            "        def c():\n",
            "            return v\n",
            "        return c()\n",
            "    return b()\n",
            "print(a())\n",
        )),
        "b\n"
    );
}

#[test]
fn lambda_default_evaluated_at_definition_time() {
    assert_eq!(
        run(concat!(
            "x = 1\n",
            "f = lambda y=x: y\n",
            "x = 2\n",
            "print(f())\n",
        )),
        "1\n"
    );
}

// ---------- global declarations ----------

#[test]
fn global_write_reaches_module_scope() {
    assert_eq!(
        run(concat!(
            "count = 0\n",
            "def bump():\n",
            "    global count\n",
            "    count = count + 1\n",
            "bump()\n",
            "bump()\n",
            "print(count)\n",
        )),
        "2\n"
    );
}

#[test]
fn assignment_without_global_shadows_module_name() {
    assert_eq!(
        run(concat!(
            "x = 'module'\n",
            "def f():\n",
            "    x = 'local'\n",
            "    return x\n",
            "print(f(), x)\n",
        )),
        "local module\n"
    );
}

#[test]
fn global_decl_in_one_function_does_not_leak_to_another() {
    assert_eq!(
        run(concat!(
            "x = 'module'\n",
            "def writer():\n",
            "    global x\n",
            "    x = 'written'\n",
            "def shadower():\n",
            "    x = 'shadow'\n",
            "    return x\n",
            "writer()\n",
            "print(shadower(), x)\n",
        )),
        "shadow written\n"
    );
}

#[test]
fn global_declared_parameter_binds_invisibly() {
    // Degenerate corner (CPython rejects it at compile time): a
    // parameter that is also declared `global`. The pre-refactor
    // interpreter bound the argument into the locals scope but reads
    // resolved to the module global — and crucially the other
    // parameters stayed intact. Pinned against slot misbinding.
    assert_eq!(
        run(concat!(
            "b = 'module-b'\n",
            "def f(a, b):\n",
            "    global b\n",
            "    return (a, b)\n",
            "print(f(1, 2))\n",
        )),
        "(1, 'module-b')\n"
    );
}

// ---------- UnboundLocalError (paper §V-C) ----------

#[test]
fn read_before_assign_is_unbound_local() {
    let (class, msg) = run_err(concat!(
        "def f():\n",
        "    y = x\n",
        "    x = 1\n",
        "f()\n",
    ));
    assert_eq!(class, "UnboundLocalError");
    assert!(msg.contains("local variable 'x' referenced before assignment"));
}

#[test]
fn conditional_assignment_still_makes_name_local() {
    // Assignment anywhere in the body makes the name local everywhere
    // in the body, even if the assigning branch never runs.
    let (class, _) = run_err(concat!(
        "x = 'module'\n",
        "def f(flag):\n",
        "    if flag:\n",
        "        x = 'local'\n",
        "    return x\n",
        "f(False)\n",
    ));
    assert_eq!(class, "UnboundLocalError");
}

// ---------- shadowing ----------

#[test]
fn parameter_shadows_global_and_builtin() {
    assert_eq!(
        run(concat!(
            "len = 'global-len'\n",
            "def f(len):\n",
            "    return len\n",
            "print(f('param'))\n",
        )),
        "param\n"
    );
}

#[test]
fn builtin_shadowed_by_global_then_restored_by_del() {
    assert_eq!(
        run(concat!(
            "abs = 'shadow'\n",
            "print(abs)\n",
            "del abs\n",
            "print(abs(-3))\n",
        )),
        "shadow\n3\n"
    );
}

// ---------- del ----------

#[test]
fn del_local_then_read_is_name_error_class() {
    // Pre-refactor behavior pinned: deleting a bound local, then
    // reading it, surfaces as an unbound local read.
    let (class, _) = run_err(concat!(
        "def f():\n",
        "    x = 1\n",
        "    del x\n",
        "    return x\n",
        "f()\n",
    ));
    assert_eq!(class, "UnboundLocalError");
}

#[test]
fn del_unbound_local_is_name_error() {
    let (class, _) = run_err(concat!(
        "def f():\n",
        "    del x\n",
        "f()\n",
    ));
    assert_eq!(class, "NameError");
}

#[test]
fn del_module_name_and_dict_key() {
    assert_eq!(
        run(concat!(
            "d = {'a': 1, 'b': 2}\n",
            "del d['a']\n",
            "print(list(d.keys()))\n",
            "x = 5\n",
            "del x\n",
            "try:\n",
            "    print(x)\n",
            "except NameError:\n",
            "    print('gone')\n",
        )),
        "['b']\ngone\n"
    );
}

#[test]
fn del_rebind_again_works() {
    assert_eq!(
        run(concat!(
            "def f():\n",
            "    x = 1\n",
            "    del x\n",
            "    x = 2\n",
            "    return x\n",
            "print(f())\n",
        )),
        "2\n"
    );
}

// ---------- class-attribute resolution ----------

#[test]
fn instance_attr_shadows_class_attr() {
    assert_eq!(
        run(concat!(
            "class C:\n",
            "    kind = 'class'\n",
            "    def __init__(self):\n",
            "        self.name = 'inst'\n",
            "c = C()\n",
            "print(c.kind, c.name)\n",
            "c.kind = 'shadowed'\n",
            "print(c.kind, C.kind)\n",
        )),
        "class inst\nshadowed class\n"
    );
}

#[test]
fn inherited_method_resolution_walks_bases() {
    assert_eq!(
        run(concat!(
            "class Base:\n",
            "    def who(self):\n",
            "        return 'base'\n",
            "class Mid(Base):\n",
            "    pass\n",
            "class Leaf(Mid):\n",
            "    def leaf_only(self):\n",
            "        return 'leaf'\n",
            "obj = Leaf()\n",
            "print(obj.who(), obj.leaf_only())\n",
        )),
        "base leaf\n"
    );
}

#[test]
fn method_override_wins_over_base() {
    assert_eq!(
        run(concat!(
            "class Base:\n",
            "    def who(self):\n",
            "        return 'base'\n",
            "class Leaf(Base):\n",
            "    def who(self):\n",
            "        return 'leaf'\n",
            "print(Leaf().who())\n",
        )),
        "leaf\n"
    );
}

#[test]
fn class_body_is_its_own_scope() {
    assert_eq!(
        run(concat!(
            "x = 'module'\n",
            "class C:\n",
            "    x = 'class'\n",
            "    y = x\n",
            "print(C.y, x)\n",
        )),
        "class module\n"
    );
}

// ---------- dict insertion order ----------

#[test]
fn dict_iteration_preserves_insertion_order_at_scale() {
    // Large enough that the hash index is active.
    assert_eq!(
        run(concat!(
            "d = {}\n",
            "for i in range(50):\n",
            "    d['k' + str(i)] = i\n",
            "d['k7'] = -1\n",
            "del d['k3']\n",
            "keys = list(d.keys())\n",
            "print(keys[0], keys[1], keys[2], keys[3], len(keys))\n",
            "print(d['k7'], d['k49'])\n",
        )),
        "k0 k1 k2 k4 49\n-1 49\n"
    );
}

#[test]
fn dict_membership_and_get_agree_with_equality_coercion() {
    assert_eq!(
        run(concat!(
            "d = {}\n",
            "for i in range(20):\n",
            "    d[i] = i * 10\n",
            "print(5.0 in d, d[5.0], True in d, d[True])\n",
        )),
        "True 50 True 10\n"
    );
}

// ---------- comprehension scope quirk (pre-refactor compatible) ----------

#[test]
fn comprehension_target_in_function_stays_invisible() {
    // The pre-slot interpreter never treated a comprehension target as
    // a readable local inside a function (assignment analysis is
    // statement-level), so the comprehension body's read of the target
    // raises NameError. Pinned so the fast path reproduces campaign
    // outcomes bit-for-bit.
    let (class, msg) = run_err(concat!(
        "def f():\n",
        "    return [n for n in [1, 2]]\n",
        "f()\n",
    ));
    assert_eq!(class, "NameError");
    assert!(msg.contains("'n'"));
    // At module level the target writes through to globals and works.
    assert_eq!(run("print([n * 2 for n in [1, 2, 3]])\n"), "[2, 4, 6]\n");
}

// ---------- augmented assignment targets ----------

#[test]
fn augassign_attribute_target_evaluates_object_twice() {
    // `get_box(b).v += 5` evaluates the object expression once for the
    // read and once more for the write — side effects and all. The
    // lowering must preserve the double evaluation.
    assert_eq!(
        run(concat!(
            "class Box:\n",
            "    def __init__(self):\n",
            "        self.v = 10\n",
            "calls = []\n",
            "def get_box(b):\n",
            "    calls.append(1)\n",
            "    return b\n",
            "b = Box()\n",
            "get_box(b).v += 5\n",
            "print(b.v, len(calls))\n",
        )),
        "15 2\n"
    );
}

#[test]
fn augassign_subscript_target_evaluates_index_twice() {
    assert_eq!(
        run(concat!(
            "d = {'k': 1}\n",
            "keys = []\n",
            "def k():\n",
            "    keys.append(1)\n",
            "    return 'k'\n",
            "d[k()] += 10\n",
            "print(d['k'], len(keys))\n",
        )),
        "11 2\n"
    );
}

#[test]
fn augassign_local_global_and_string() {
    assert_eq!(
        run(concat!(
            "total = 0\n",
            "def bump(n):\n",
            "    global total\n",
            "    total += n\n",
            "    s = 'a'\n",
            "    s += 'b'\n",
            "    return s\n",
            "print(bump(3), total)\n",
            "total += 1\n",
            "print(total)\n",
        )),
        "ab 3\n4\n"
    );
}

#[test]
fn augassign_unbound_local_raises() {
    let (class, _) = run_err(concat!(
        "def f():\n",
        "    x += 1\n",
        "    return x\n",
        "f()\n",
    ));
    assert_eq!(class, "UnboundLocalError");
}

// ---------- multiple / unpacking assignment ----------

#[test]
fn chained_assignment_aliases_single_value() {
    assert_eq!(
        run("a = b = [1, 2]\na.append(3)\nprint(b)\n"),
        "[1, 2, 3]\n"
    );
}

#[test]
fn nested_unpack_targets() {
    assert_eq!(
        run("x, (y, z) = 1, (2, 3)\nprint(x, y, z)\n"),
        "1 2 3\n"
    );
}

#[test]
fn unpack_length_mismatch_message() {
    let (class, msg) = run_err("a, b = 1, 2, 3\n");
    assert_eq!(class, "ValueError");
    assert!(msg.contains("cannot unpack 3 values into 2 targets"), "{msg}");
}

// ---------- aliasing & identity (pinned before the heap swap) ----------
//
// These tests pin the Python object-identity semantics the arena-backed
// value representation must preserve bit-for-bit: mutation through a
// second binding, container self-reference, `is` on aggregates vs.
// immediates, and bound-method receiver aliasing.

#[test]
fn mutation_through_second_binding_is_visible() {
    assert_eq!(
        run(concat!(
            "a = [1, 2]\n",
            "b = a\n",
            "b.append(3)\n",
            "a[0] = 99\n",
            "print(a, b, a is b)\n",
            "d = {'k': 1}\n",
            "e = d\n",
            "e['k'] = 2\n",
            "e['j'] = 3\n",
            "print(d['k'], d['j'], d is e)\n",
        )),
        "[99, 2, 3] [99, 2, 3] True\n2 3 True\n"
    );
}

#[test]
fn aliasing_through_function_call_and_container() {
    // An argument is the same object inside the callee, and a value
    // stored into a container stays the same object when read back.
    assert_eq!(
        run(concat!(
            "def grow(lst):\n",
            "    lst.append(len(lst))\n",
            "    return lst\n",
            "xs = []\n",
            "ys = grow(xs)\n",
            "print(xs is ys, xs)\n",
            "holder = {'inner': xs}\n",
            "holder['inner'].append(9)\n",
            "print(xs, holder['inner'] is xs)\n",
        )),
        "True [0]\n[0, 9] True\n"
    );
}

#[test]
fn list_self_reference_identity() {
    assert_eq!(
        run(concat!(
            "l = [1]\n",
            "l.append(l)\n",
            "print(l[1] is l, l[1][0], len(l[1]))\n",
            "l[0] = 7\n",
            "print(l[1][0])\n",
        )),
        "True 1 2\n7\n"
    );
}

#[test]
fn dict_self_reference_identity() {
    assert_eq!(
        run(concat!(
            "d = {'n': 0}\n",
            "d['self'] = d\n",
            "print(d['self'] is d)\n",
            "d['self']['n'] = 5\n",
            "print(d['n'])\n",
            "print(d['self']['self']['self'] is d)\n",
        )),
        "True\n5\nTrue\n"
    );
}

#[test]
fn is_operator_on_aggregates_and_immediates() {
    assert_eq!(
        run(concat!(
            "a = [1]\n",
            "b = [1]\n",
            "print(a is a, a is b, a == b)\n",
            "print([] is [], {} is {})\n",
            "n = None\n",
            "print(n is None, 5 is 5, True is True)\n",
            "s = 'hello'\n",
            "t = s\n",
            "print(s is t)\n",
        )),
        "True False True\nFalse False\nTrue True True\nTrue\n"
    );
}

#[test]
fn equal_strings_compare_is_true() {
    // Pre-refactor pin: `is` on strings falls back to content equality
    // (Rc ptr-eq OR text-eq), so even strings built at runtime satisfy
    // `is`. Interning must not change this observable.
    assert_eq!(
        run(concat!(
            "a = 'ab'\n",
            "b = 'a' + 'b'\n",
            "print(a is b, a == b)\n",
        )),
        "True True\n"
    );
}

#[test]
fn bound_method_receiver_aliasing() {
    // Extracting a method binds the receiver object, not a snapshot:
    // calls through the extracted method mutate the original, and
    // rebinding the name does not rebind the method's receiver.
    assert_eq!(
        run(concat!(
            "class Counter:\n",
            "    def __init__(self):\n",
            "        self.n = 0\n",
            "    def bump(self):\n",
            "        self.n = self.n + 1\n",
            "        return self.n\n",
            "c = Counter()\n",
            "m = c.bump\n",
            "print(m(), m())\n",
            "print(c.n)\n",
            "c2 = c\n",
            "c = None\n",
            "print(m(), c2.n)\n",
        )),
        "1 2\n2\n3 3\n"
    );
}

#[test]
fn builtin_method_receiver_aliasing() {
    // The same holds for builtin methods on lists/dicts: the extracted
    // method writes through to the receiver object.
    assert_eq!(
        run(concat!(
            "xs = [1]\n",
            "push = xs.append\n",
            "push(2)\n",
            "push(3)\n",
            "print(xs)\n",
            "d = {}\n",
            "put = d.setdefault\n",
            "put('a', 1)\n",
            "print(d, d.get('a'))\n",
        )),
        "[1, 2, 3]\n{'a': 1} 1\n"
    );
}

#[test]
fn shared_mutable_default_is_one_object() {
    // Python's classic shared-mutable-default gotcha depends on the
    // default being evaluated once and aliased by every call.
    assert_eq!(
        run(concat!(
            "def push(v, acc=[]):\n",
            "    acc.append(v)\n",
            "    return acc\n",
            "print(push(1), push(2), push(3))\n",
        )),
        "[1, 2, 3] [1, 2, 3] [1, 2, 3]\n"
    );
}

#[test]
fn instance_attribute_aliases_stored_object() {
    assert_eq!(
        run(concat!(
            "class Box:\n",
            "    def __init__(self, v):\n",
            "        self.v = v\n",
            "shared = [0]\n",
            "a = Box(shared)\n",
            "b = Box(shared)\n",
            "a.v.append(1)\n",
            "print(b.v, shared is a.v, a.v is b.v)\n",
        )),
        "[0, 1] True True\n"
    );
}

#[test]
fn tuple_holds_references_not_copies() {
    assert_eq!(
        run(concat!(
            "inner = [1]\n",
            "t = (inner, inner)\n",
            "t[0].append(2)\n",
            "print(t[1], t[0] is t[1], t[0] is inner)\n",
        )),
        "[1, 2] True True\n"
    );
}

// ---------- try/except/finally control flow ----------

#[test]
fn finally_return_overrides_body_return() {
    assert_eq!(
        run(concat!(
            "def f():\n",
            "    try:\n",
            "        return 'body'\n",
            "    finally:\n",
            "        return 'finally'\n",
            "print(f())\n",
        )),
        "finally\n"
    );
}

#[test]
fn finally_return_swallows_exception() {
    assert_eq!(
        run(concat!(
            "def f():\n",
            "    try:\n",
            "        raise ValueError('x')\n",
            "    finally:\n",
            "        return 'swallowed'\n",
            "print(f())\n",
        )),
        "swallowed\n"
    );
}

#[test]
fn try_else_runs_only_without_exception() {
    assert_eq!(
        run(concat!(
            "out = []\n",
            "try:\n",
            "    out.append('body')\n",
            "except ValueError:\n",
            "    out.append('handler')\n",
            "else:\n",
            "    out.append('else')\n",
            "finally:\n",
            "    out.append('finally')\n",
            "try:\n",
            "    raise ValueError('v')\n",
            "except ValueError:\n",
            "    out.append('handler2')\n",
            "else:\n",
            "    out.append('else2')\n",
            "print(out)\n",
        )),
        "['body', 'else', 'finally', 'handler2']\n"
    );
}

#[test]
fn bare_raise_rethrows_to_outer_handler() {
    assert_eq!(
        run(concat!(
            "def f():\n",
            "    try:\n",
            "        try:\n",
            "            raise ValueError('inner')\n",
            "        except ValueError:\n",
            "            raise\n",
            "    except ValueError as e:\n",
            "        return 'caught: ' + e.message\n",
            "print(f())\n",
        )),
        "caught: inner\n"
    );
}

#[test]
fn break_through_finally_runs_finally_first() {
    assert_eq!(
        run(concat!(
            "out = []\n",
            "for i in range(3):\n",
            "    try:\n",
            "        if i == 1:\n",
            "            break\n",
            "        out.append(i)\n",
            "    finally:\n",
            "        out.append('f')\n",
            "print(out)\n",
        )),
        "[0, 'f', 'f']\n"
    );
}

#[test]
fn except_tuple_matches_subclass() {
    assert_eq!(
        run(concat!(
            "class MyErr(ValueError):\n",
            "    pass\n",
            "def f():\n",
            "    try:\n",
            "        raise MyErr('m')\n",
            "    except (KeyError, ValueError):\n",
            "        return 'match'\n",
            "print(f())\n",
        )),
        "match\n"
    );
}

#[test]
fn fuel_exhaustion_is_uncatchable_by_bare_except() {
    let m = pysrc::parse_module(
        concat!(
            "try:\n",
            "    while True:\n",
            "        pass\n",
            "except:\n",
            "    print('caught')\n",
        ),
        "test.py",
    )
    .unwrap();
    let mut vm = Vm::new();
    vm.fuel.refill(5_000);
    let e = vm.run_module(&m).expect_err("budget trips");
    assert_eq!(e.class_name, "ProfipyFuelExhausted");
    assert_eq!(vm.stdout(), "", "handler must not run");
}

// ---------- loop else clauses ----------

#[test]
fn for_else_runs_on_normal_exit_and_skips_on_break() {
    assert_eq!(
        run(concat!(
            "for i in range(2):\n",
            "    pass\n",
            "else:\n",
            "    print('else-ran')\n",
            "for i in range(5):\n",
            "    if i == 2:\n",
            "        break\n",
            "else:\n",
            "    print('not-printed')\n",
            "print('after', i)\n",
        )),
        "else-ran\nafter 2\n"
    );
}

#[test]
fn while_else_runs_after_condition_fails() {
    assert_eq!(
        run(concat!(
            "n = 0\n",
            "while n < 3:\n",
            "    n += 1\n",
            "else:\n",
            "    print('done', n)\n",
        )),
        "done 3\n"
    );
}

#[test]
fn return_from_loop_else_propagates() {
    assert_eq!(
        run(concat!(
            "def f():\n",
            "    for i in range(2):\n",
            "        pass\n",
            "    else:\n",
            "        return 'from-else'\n",
            "    return 'after'\n",
            "print(f())\n",
        )),
        "from-else\n"
    );
}

#[test]
fn break_inside_loop_else_is_discarded() {
    // Pre-refactor quirk pinned: a `break` in a loop's `else` block is
    // swallowed by that loop (it neither breaks the outer loop nor
    // skips the statements after the inner one).
    assert_eq!(
        run(concat!(
            "out = []\n",
            "for i in range(2):\n",
            "    for j in range(1):\n",
            "        pass\n",
            "    else:\n",
            "        out.append('else' + str(i))\n",
            "        break\n",
            "    out.append('after-inner')\n",
            "print(out)\n",
        )),
        "['else0', 'after-inner', 'else1', 'after-inner']\n"
    );
}

// ---------- comprehension-target leak corners ----------

#[test]
fn comprehension_target_leaks_at_module_level() {
    assert_eq!(
        run("r = [x * x for x in range(4)]\nprint(x, r[3])\n"),
        "3 9\n"
    );
}

#[test]
fn comprehension_body_reads_enclosing_scope_not_target() {
    // Inside a function the comprehension target is invisible to reads
    // (see comprehension_target_in_function_stays_invisible); when an
    // enclosing scope binds the same name, the body reads *that*
    // binding on every iteration.
    assert_eq!(
        run(concat!(
            "def outer():\n",
            "    n = 100\n",
            "    def inner():\n",
            "        return [n for n in [1, 2, 3]]\n",
            "    return inner()\n",
            "print(outer())\n",
        )),
        "[100, 100, 100]\n"
    );
}

// ---------- evaluation-order pins for the lowering ----------

#[test]
fn chained_comparison_short_circuits_side_effects() {
    assert_eq!(
        run(concat!(
            "calls = []\n",
            "def t(v):\n",
            "    calls.append(v)\n",
            "    return v\n",
            "print(t(1) < t(2) < t(0) < t(99))\n",
            "print(calls)\n",
        )),
        "False\n[1, 2, 0]\n"
    );
}

#[test]
fn boolop_returns_deciding_operand() {
    assert_eq!(
        run("print(0 or 'x', 1 and 2, '' and 'y', [] or {})\n"),
        "x 2  {}\n"
    );
}

#[test]
fn conditional_expression_evaluates_single_branch() {
    assert_eq!(
        run(concat!(
            "calls = []\n",
            "def side(tag, v):\n",
            "    calls.append(tag)\n",
            "    return v\n",
            "print(side('a', 1) if True else side('b', 2))\n",
            "print(calls)\n",
        )),
        "1\n['a']\n"
    );
}

// ---------- recursion limit (satellite: MAX_DEPTH raise) ----------

#[test]
fn recursion_depth_beyond_old_limit_now_works() {
    // The pre-refactor limit was 32; slot frames shrank the per-frame
    // cost enough to double it. Depth 60 must succeed.
    assert_eq!(
        run(concat!(
            "def count(n):\n",
            "    if n == 0:\n",
            "        return 0\n",
            "    return 1 + count(n - 1)\n",
            "print(count(60))\n",
        )),
        "60\n"
    );
}

#[test]
fn runaway_recursion_still_bounded() {
    let (class, msg) = run_err(concat!(
        "def f():\n",
        "    return f()\n",
        "f()\n",
    ));
    assert_eq!(class, "RuntimeError");
    assert!(msg.contains("maximum recursion depth exceeded"));
}

// ---------- prepared-path equivalence ----------

#[test]
fn prepared_and_ad_hoc_execution_agree() {
    let src = concat!(
        "import mylib\n",
        "total = 0\n",
        "for i in range(5):\n",
        "    total = total + mylib.double(i)\n",
        "print(total, mylib.NAME)\n",
    );
    let lib_src = "NAME = 'lib'\ndef double(x):\n    return x * 2\n";

    // Ad-hoc path: `run_module` prepares the main module as it runs it.
    let main = pysrc::parse_module(src, "main.py").unwrap();
    let lib = pysrc::parse_module(lib_src, "mylib.py").unwrap();
    let mut vm1 = Vm::new();
    vm1.register_prepared_source("mylib", pyrt::prepare::prepare(Arc::new(lib)));
    vm1.run_module(&main).unwrap();

    // Prepared path: modules prepared once, shared via Arc — the
    // campaign fast path.
    let lib2 = Arc::new(pysrc::parse_module(lib_src, "mylib.py").unwrap());
    let prepared_lib = pyrt::prepare::prepare(lib2);
    let main2 = Arc::new(pysrc::parse_module(src, "main.py").unwrap());
    let prepared_main = pyrt::prepare::prepare(main2);
    let mut vm2 = Vm::new();
    vm2.register_prepared_source("mylib", prepared_lib);
    vm2.run_prepared(&prepared_main).unwrap();

    assert_eq!(vm1.stdout(), vm2.stdout());
    assert_eq!(vm1.stdout(), "20 lib\n");
}

#[test]
fn prepared_module_is_reusable_across_vms() {
    let src = "state = []\ndef push(x):\n    state.append(x)\n    return len(state)\nprint(push(1), push(2))\n";
    let prepared = pyrt::prepare::prepare(Arc::new(
        pysrc::parse_module(src, "m.py").unwrap(),
    ));
    for _ in 0..3 {
        let mut vm = Vm::new();
        vm.run_prepared(&prepared).unwrap();
        assert_eq!(vm.stdout(), "1 2\n", "state never leaks across VMs");
    }
}

// ---------- method calls and keyword calls, each engine forced ----------
//
// The bytecode tier calls `obj.m(a, b)` through `LoadMethod`/
// `CallMethod` (no bound-method object); the tree walk still builds the
// bound method and is the oracle. Every program here runs under both,
// and the two runs must agree on output, error, clock and fuel.

// ---------- code that was not prepared ----------

/// Runs `body` as a module top level over `proto` and `protos` under
/// each engine; asserts both raise the same `RuntimeError` with the
/// same stdout, clock bits and fuel, and returns its message.
fn not_prepared_on_both_engines(
    body: Vec<pysrc::ast::Stmt>,
    proto: Arc<pyrt::FuncProto>,
    protos: &std::collections::HashMap<u32, Arc<pyrt::FuncProto>>,
) -> String {
    use pyrt::vm::Engine;
    let prepared = pyrt::PreparedModule {
        module: Arc::new(pysrc::Module {
            name: "unprepared.py".into(),
            body,
        }),
        module_proto: proto,
        protos: protos.clone(),
        source_hash: None,
    };
    let run = |engine: Engine| {
        let mut vm = Vm::new();
        vm.set_engine(engine);
        vm.fuel.refill(100_000);
        let e = vm.run_prepared(&prepared).expect_err("raises").into_data();
        let outcome = (vm.stdout(), vm.now().to_bits(), vm.fuel.remaining());
        (e.class_name, e.message, outcome)
    };
    let (bytecode, treewalk) = (run(Engine::Bytecode), run(Engine::TreeWalk));
    assert_eq!(bytecode, treewalk, "engines diverge");
    assert_eq!(bytecode.0, "RuntimeError");
    bytecode.1
}

#[test]
fn code_run_against_a_prototype_it_was_not_prepared_with_raises() {
    let parse = |src: &str| pysrc::parse_module(src, "m.py").unwrap();
    let prep = |src: &str| pyrt::prepare::prepare(Arc::new(parse(src)));
    let message = |name: &str| format!("internal error: '{name}' was not prepared");
    // Statements run over another module's prototypes: no node of
    // theirs is in its table or in the registry. (Each run gets a
    // fresh module, as the bytecode compiled for one is cached on it.)
    for (src, name) in [
        ("print(1)\n", "print"),
        ("y = 1\n", "y"),
        ("z = 'a'.upper\n", "upper"),
        ("'a'.x = 1\n", "x"),
    ] {
        let other = prep("x = 1\n");
        let proto = other.module_proto.clone();
        let got = not_prepared_on_both_engines(parse(src).body, proto, &other.protos);
        assert_eq!(got, message(name), "{src:?}");
    }
    for src in [
        "def f():\n    pass\n",
        "class C:\n    pass\n",
        "(lambda: 1)\n",
        "def f(a=1 + 2):\n    pass\n",
        "(lambda a=[1]: a)\n",
    ] {
        let other = prep("x = 1\n");
        let body = parse(src).body;
        let scope = match &body[0].kind {
            pysrc::ast::StmtKind::Expr(lambda) => lambda.id,
            _ => body[0].id,
        };
        let got = not_prepared_on_both_engines(body, other.module_proto.clone(), &other.protos);
        assert_eq!(got, message(&format!("<scope {}>", scope.0)), "{src:?}");
    }
    // A default is evaluated before the prototype is looked up, so its
    // own unprepared name is what raises.
    for src in [
        "def f(a=print('d')):\n    pass\n",
        "(lambda a=print('d'): a)\n",
    ] {
        let other = prep("x = 1\n");
        let got = not_prepared_on_both_engines(
            parse(src).body,
            other.module_proto.clone(),
            &other.protos,
        );
        assert_eq!(got, message("print"), "{src:?}");
    }
    // A function body run as a module top level: its names were
    // resolved for a slot or dynamic frame, not this one.
    for (src, name) in [
        ("def f(a):\n    b = a\n", "a"),
        ("def f():\n    b = 1\n", "b"),
        (
            "def f():\n    print(b)\n    b = 1\n    def g():\n        pass\n",
            "b",
        ),
        ("def f():\n    b = 1\n    def g():\n        pass\n", "b"),
    ] {
        let module = prep(src);
        let f = module.protos.values().find(|p| p.name == "f").unwrap();
        let body = f.body.to_vec();
        let got = not_prepared_on_both_engines(body, f.clone(), &module.protos);
        assert_eq!(got, message(name), "{src:?}");
    }
}

/// Runs `src` with each engine forced; asserts the complete outcomes
/// are equal and returns it: stdout, or the error's class and message.
fn on_both_engines(src: &str) -> Result<String, (String, String)> {
    use pyrt::vm::Engine;
    let m = pysrc::parse_module(src, "test.py").expect("source parses");
    let run = |engine: Engine| {
        let mut vm = Vm::new();
        vm.set_engine(engine);
        vm.fuel.refill(100_000);
        let error = vm.run_module(&m).err().map(|e| {
            let e = e.into_data();
            (e.class_name, e.message)
        });
        (error, vm.stdout(), vm.now().to_bits(), vm.fuel.remaining())
    };
    let (bytecode, treewalk) = (run(Engine::Bytecode), run(Engine::TreeWalk));
    assert_eq!(bytecode, treewalk, "engines diverge on:\n{src}");
    match bytecode.0 {
        Some(error) => Err(error),
        None => Ok(bytecode.1),
    }
}

const COUNTER_CLASS: &str = concat!(
    "class Counter:\n",
    "    def __init__(self, n):\n",
    "        self.n = n\n",
    "    def bump(self, by):\n",
    "        self.n = self.n + by\n",
    "        return self.n\n",
);

#[test]
fn instance_attribute_shadowing_a_method_is_the_one_called() {
    let src = format!(
        "{COUNTER_CLASS}{}",
        concat!(
            "c = Counter(1)\n",
            "print(c.bump(2))\n",
            "c.bump = lambda by: 'shadow ' + str(by)\n",
            "print(c.bump(2), c.n)\n",
            "d = Counter(10)\n",
            "print(d.bump(2))\n",
        )
    );
    assert_eq!(on_both_engines(&src).unwrap(), "3\nshadow 2 3\n12\n");
}

#[test]
fn missing_method_raises_before_its_arguments_run() {
    let src = format!(
        "{COUNTER_CLASS}{}",
        concat!(
            "c = Counter(0)\n",
            "def effect():\n",
            "    print('argument evaluated')\n",
            "    return 1\n",
            "try:\n",
            "    c.nothing(effect())\n",
            "except AttributeError as e:\n",
            "    print('caught', e)\n",
            "c.nothing(effect())\n",
        )
    );
    let m = pysrc::parse_module(&src, "test.py").unwrap();
    for engine in [pyrt::vm::Engine::Bytecode, pyrt::vm::Engine::TreeWalk] {
        let mut vm = Vm::new();
        vm.set_engine(engine);
        let e = vm.run_module(&m).expect_err("raises");
        assert_eq!(e.class_name, "AttributeError");
        assert_eq!(e.message, "'Counter' object has no attribute 'nothing'");
        assert_eq!(
            vm.stdout(),
            "caught 'Counter' object has no attribute 'nothing'\n",
            "no argument side effect under {engine:?}"
        );
    }
    assert!(on_both_engines(&src).is_err());
}

#[test]
fn class_attributes_that_are_not_plain_methods() {
    // A native found on the class binds the receiver like a function
    // does; a lambda is a function; an instance without `__call__` and
    // a plain value are not callable.
    let prologue = concat!(
        "class Other:\n",
        "    pass\n",
        "class Box:\n",
        "    size = len\n",
        "    twice = lambda self, x: x * 2\n",
        "    other = Other()\n",
        "    limit = 3\n",
        "    def __init__(self):\n",
        "        self.items = [1, 2]\n",
        "b = Box()\n",
    );
    assert_eq!(
        on_both_engines(&format!("{prologue}print(b.twice(21), Box.size([1, 2, 3]))\n")).unwrap(),
        "42 3\n"
    );
    assert_eq!(
        on_both_engines(&format!("{prologue}b.size()\n")).unwrap_err(),
        (
            "TypeError".to_string(),
            "object of type 'instance' has no len()".to_string()
        )
    );
    assert_eq!(
        on_both_engines(&format!("{prologue}b.other()\n")).unwrap_err(),
        (
            "TypeError".to_string(),
            "'instance' object is not callable".to_string()
        )
    );
    assert_eq!(
        on_both_engines(&format!("{prologue}b.limit(1)\n")).unwrap_err(),
        (
            "TypeError".to_string(),
            "'int' object is not callable".to_string()
        )
    );
    // Methods of primitives and module functions take the same path.
    assert_eq!(
        on_both_engines(&format!(
            "{prologue}import time\nb.items.append(3)\nprint(b.items, 'a-b'.split('-'), time.time() >= 0)\n"
        ))
        .unwrap(),
        "[1, 2, 3] ['a', 'b'] True\n"
    );
}

#[test]
fn bound_method_values_keep_their_answers() {
    // Where the attribute is a *value* the bound object still exists:
    // it calls with its receiver, prints as before, and (like any two
    // bound-method fetches here) is not identical to a second fetch.
    let src = format!(
        "{COUNTER_CLASS}{}",
        concat!(
            "c = Counter(5)\n",
            "m = c.bump\n",
            "print(m(1), m(1), c.n)\n",
            "print(m is c.bump, m == c.bump, m)\n",
            "fs = [c.bump, Counter(100).bump]\n",
            "print([f(1) for f in fs])\n",
        )
    );
    assert_eq!(
        on_both_engines(&src).unwrap(),
        "6 7 7\nFalse False <bound method bump>\n[8, 101]\n"
    );
}

#[test]
fn method_calls_inside_and_outside_try_agree() {
    // Inside `try` the bytecode tier trampolines into the tree walk.
    let src = format!(
        "{COUNTER_CLASS}{}",
        concat!(
            "a = Counter(0)\n",
            "b = Counter(0)\n",
            "for i in range(4):\n",
            "    a.bump(i)\n",
            "    try:\n",
            "        b.bump(i)\n",
            "    finally:\n",
            "        pass\n",
            "print(a.n, b.n, a.n == b.n)\n",
            "try:\n",
            "    b.bump()\n",
            "except TypeError as e:\n",
            "    print(e)\n",
            "a.bump()\n",
        )
    );
    let m = pysrc::parse_module(&src, "test.py").unwrap();
    let mut vm = Vm::new();
    let e = vm.run_module(&m).expect_err("raises");
    assert_eq!(
        vm.stdout(),
        "6 6 True\nbump() missing required argument: 'by'\n"
    );
    assert_eq!(e.message, "bump() missing required argument: 'by'");
    assert!(on_both_engines(&src).is_err());
}

const KW_PROLOGUE: &str = concat!(
    "def f(a, b=2, *rest, **extra):\n",
    "    return [a, b, rest, sorted(extra.items())]\n",
    "def g(a, b):\n",
    "    return a - b\n",
);

#[test]
fn keyword_calls_bind_like_python() {
    let src = format!(
        "{KW_PROLOGUE}{}",
        concat!(
            "print(f(1))\n",
            "print(f(1, b=5))\n",
            "print(f(b=5, a=1))\n",
            "print(f(1, 2, 3, 4, z=9))\n",
            "print(f(*[1, 2, 3], **{'k': 1, 'j': 2}))\n",
            "print(f(1, *[7], x=1, **{'y': 2}))\n",
            "print(g(b=1, a=10), g(*[10], **{'b': 1}))\n",
            // A keyword value that is itself a keyword call: each call
            // keeps its own names (the tree walk reads them from the
            // prepare-time table, by position within the call).
            "print(g(a=g(b=1, a=10), b=g(a=3, b=1)))\n",
            "try:\n",
            "    print(f(a=g(b=1, a=10), z=g(a=3, b=1), b=f(0, k=1)))\n",
            "finally:\n",
            "    pass\n",
        )
    );
    assert_eq!(
        on_both_engines(&src).unwrap(),
        concat!(
            "[1, 2, (), []]\n",
            "[1, 5, (), []]\n",
            "[1, 5, (), []]\n",
            "[1, 2, (3, 4), [('z', 9)]]\n",
            "[1, 2, (3,), [('j', 2), ('k', 1)]]\n",
            "[1, 7, (), [('x', 1), ('y', 2)]]\n",
            "9 9\n",
            "7\n",
            "[9, [0, 2, (), [('k', 1)]], (), [('z', 2)]]\n",
        )
    );
}

#[test]
fn keyword_call_errors_are_the_same_in_both_engines() {
    let err = |call: &str| on_both_engines(&format!("{KW_PROLOGUE}{call}\n")).unwrap_err();
    let type_error = |msg: &str| ("TypeError".to_string(), msg.to_string());
    assert_eq!(
        err("g(1, a=2)"),
        type_error("g() got multiple values for argument 'a'")
    );
    assert_eq!(
        err("g(1, **{'a': 2})"),
        type_error("g() got multiple values for argument 'a'")
    );
    assert_eq!(
        err("g(1, 2, c=3)"),
        type_error("g() got an unexpected keyword argument 'c'")
    );
    assert_eq!(
        err("g(a=1)"),
        type_error("g() missing required argument: 'b'")
    );
    assert_eq!(
        err("g(1, **[2])"),
        type_error("argument after ** must be a mapping, not list")
    );
    // Also inside `try`, where the bytecode tier runs the tree walk.
    assert_eq!(
        on_both_engines(&format!(
            "{KW_PROLOGUE}try:\n    g(1, 2, c=3)\nexcept TypeError as e:\n    print(e)\n"
        ))
        .unwrap(),
        "g() got an unexpected keyword argument 'c'\n"
    );
}

#[test]
fn double_star_keys_must_be_strings() {
    // Python: `TypeError: keywords must be strings`. Both engines used
    // to bind the keyword "1".
    let err = |call: &str| on_both_engines(&format!("{KW_PROLOGUE}{call}\n")).unwrap_err();
    let expected = ("TypeError".to_string(), "keywords must be strings".to_string());
    assert_eq!(err("f(0, **{1: 2})"), expected);
    assert_eq!(err("f(0, **{'ok': 1, None: 2})"), expected);
    assert_eq!(err("print(**{1: 2})"), expected);
    assert_eq!(
        err("try:\n    f(0, **{(1, 2): 3})\nfinally:\n    pass"),
        expected
    );
}

#[test]
fn run_time_double_star_keys_bind_without_entering_the_interner() {
    // Keys built at run time bind to named parameters and to `**extra`
    // alike, and stay out of the process-wide (leaking) interner: only
    // names written in source are symbols.
    let src = format!(
        "{KW_PROLOGUE}{}",
        concat!(
            "n = 41\n",
            "key = 'rt_' + str(n) + '_zqx'\n",
            "print(f(**{'a' + '': 1, 'b' * 1: 7, key: n}))\n",
            "print(g(**{'ab'[0]: 5, 'ab'[1]: 3}))\n",
        )
    );
    assert_eq!(
        on_both_engines(&src).unwrap(),
        "[1, 7, (), [('rt_41_zqx', 41)]]\n2\n"
    );
    assert!(pyrt::intern::try_intern("rt_41_zqx").is_none());
    assert!(pyrt::intern::try_intern("extra").is_some(), "source names are symbols");
}

// ---------- bytecode fast paths, each driven to its fallback ----------
//
// The bytecode tier answers exact-arity positional calls, an instance's
// own attributes, class-chain methods, `int` `+`/`-`/comparisons and
// `bool` jumps inline; every other shape falls back to the general
// path. Each case below sits on one side of such a line, and both
// engines must agree on it.

#[test]
fn instance_held_function_is_called_without_a_receiver() {
    let src = format!(
        "{COUNTER_CLASS}{}",
        concat!(
            "def free(by):\n",
            "    return 'free ' + str(by)\n",
            "c = Counter(1)\n",
            "c.bump = free\n",
            "print(c.bump(5), c.n)\n",
            "class Holder:\n",
            "    def __init__(self, f):\n",
            "        self.f = f\n",
            "h = Holder(free)\n",
            "print(h.f(7))\n",
            "m = Counter(3).bump\n",
            "print(m(4))\n",
            "f = h.f\n",
            "print(f(8))\n",
        )
    );
    assert_eq!(
        on_both_engines(&src).unwrap(),
        "free 5 1\nfree 7\n7\nfree 8\n"
    );
    let err = on_both_engines(&format!("{src}c.bump(1, 2)\n")).unwrap_err();
    assert_eq!(err.0, "TypeError");
    assert_eq!(err.1, "free() takes 1 positional arguments but more were given");
}

#[test]
fn class_attributes_and_base_methods_through_an_instance() {
    let prologue = concat!(
        "class Base:\n",
        "    limit = 3\n",
        "    def hello(self, x):\n",
        "        return 'hello ' + str(x + self.limit)\n",
        "class Derived(Base):\n",
        "    pass\n",
        "d = Derived()\n",
    );
    assert_eq!(
        on_both_engines(&format!("{prologue}print(d.limit, d.hello(1))\nd.limit = 10\nprint(d.hello(2))\n"))
            .unwrap(),
        "3 hello 4\nhello 12\n"
    );
    assert_eq!(
        on_both_engines(&format!("{prologue}d.limit()\n")).unwrap_err(),
        ("TypeError".into(), "'int' object is not callable".into())
    );
    assert_eq!(
        on_both_engines(&format!("{prologue}d.nothing\n")).unwrap_err(),
        ("AttributeError".into(), "'Derived' object has no attribute 'nothing'".into())
    );
}

#[test]
fn int_fast_paths_leave_bool_and_float_operands_to_the_general_path() {
    let src = concat!(
        "print(True + 1, 1 - True, True + True, 1 == True, 2 == 2.0, 2 != 2.0)\n",
        "print(9223372036854775807 + 1, -9223372036854775807 - 2, 3 - 5, 2.5 + 1)\n",
        "def step(a, b):\n",
        "    c = a + b\n",
        "    c = c - 1\n",
        "    return c\n",
        "print(step(9223372036854775807, 2), step(True, 1), step(1.5, 1))\n",
        "x = 0\n",
        "while x < 3:\n",
        "    x = x + 1\n",
        "print(x, 1 < 2 < 3, 3 > 2 > 2, 1 <= 1 == True, 2 >= 2 != 3)\n",
        "flag = True\n",
        "if flag:\n",
        "    print('bool jump')\n",
        "if not (x == 3):\n",
        "    print('unreached')\n",
        "while [] or 0:\n",
        "    print('unreached')\n",
        "print('a' < 'b', [1] == [1], None == 0)\n",
    );
    assert_eq!(
        on_both_engines(src).unwrap(),
        "2 0 2 True True False\n\
         -9223372036854775808 9223372036854775807 -2 3.5\n\
         -9223372036854775808 1 1.5\n\
         3 True False True True\n\
         bool jump\n\
         True True False\n"
    );
    assert_eq!(
        on_both_engines("print(1 + 'a')\n").unwrap_err(),
        (
            "TypeError".into(),
            "unsupported operand type(s) for +: 'int' and 'str'".into()
        )
    );
    // This VM orders no `int` against a `bool`; neither engine does.
    for src in [
        "print(1 < 'a')\n",
        "print(1 < True)\n",
        "print(True > 0)\n",
        "x = 1\nprint(0 < x <= True)\n",
    ] {
        assert_eq!(on_both_engines(src).unwrap_err().0, "TypeError", "on:\n{src}");
    }
}

#[test]
fn calls_outside_the_positional_shape_raise_the_same_type_errors() {
    let prologue = concat!(
        "def two(a, b):\n",
        "    return a + b\n",
        "def dflt(a, b=5):\n",
        "    return a + b\n",
        "def star(a, *rest):\n",
        "    return [a, rest]\n",
        "class K:\n",
        "    def two(self, a, b):\n",
        "        return a - b\n",
        "k = K()\n",
    );
    assert_eq!(
        on_both_engines(&format!(
            "{prologue}print(two(1, 2), dflt(1), dflt(1, 2), two(1, b=3), star(1), star(1, 2, 3), k.two(5, 1), two(*[4, 5]))\n"
        ))
        .unwrap(),
        "3 6 3 4 [1, ()] [1, (2, 3)] 4 9\n"
    );
    let err = |call: &str| on_both_engines(&format!("{prologue}{call}\n")).unwrap_err();
    let missing = |name: &str, arg: &str| {
        (
            "TypeError".to_string(),
            format!("{name}() missing required argument: '{arg}'"),
        )
    };
    let extra = |name: &str, n: usize| {
        (
            "TypeError".to_string(),
            format!("{name}() takes {n} positional arguments but more were given"),
        )
    };
    assert_eq!(err("two(1)"), missing("two", "b"));
    assert_eq!(err("two(1, 2, 3)"), extra("two", 2));
    assert_eq!(err("dflt()"), missing("dflt", "a"));
    assert_eq!(err("dflt(1, 2, 3)"), extra("dflt", 2));
    assert_eq!(err("k.two(1)"), missing("two", "b"));
    assert_eq!(err("k.two(1, 2, 3)"), extra("two", 3));
    assert_eq!(err("star()"), missing("star", "a"));
    assert_eq!(
        err("two(1, a=2)"),
        (
            "TypeError".to_string(),
            "two() got multiple values for argument 'a'".to_string()
        )
    );
}

#[test]
fn positional_recursion_past_the_depth_limit_is_the_same_error() {
    for src in [
        "def down(n):\n    return down(n + 1)\ndown(0)\n",
        "class R:\n    def down(self, n):\n        return self.down(n + 1)\nR().down(0)\n",
        "def a(n):\n    return b(n)\ndef b(n):\n    return a(n + 1)\nprint(a(0))\n",
    ] {
        let (class, message) = on_both_engines(src).unwrap_err();
        assert_eq!(class, "RuntimeError");
        assert_eq!(message, "maximum recursion depth exceeded");
    }
}

#[test]
fn sequences_past_the_vm_bound_raise_value_error_in_both_engines() {
    // Each of these once ended in a failed multi-gigabyte allocation,
    // which aborts the process instead of raising.
    for src in [
        "x = 'ab' * 1000000000000\n",
        "x = [0] * 3000000000\n",
        "s = 'ab'\nwhile True:\n    s = s + s\n",
        "l = [1, 2]\nwhile True:\n    l.extend(l)\n",
        "s = 'ab'\nwhile True:\n    s += s\n",
        "l = [1, 2]\nwhile True:\n    l = l + l\n",
        "t = (1, 2)\nwhile True:\n    t = t + t\n",
        "s = 'ab'\nwhile True:\n    s = ''.join([s, s])\n",
        "s = 'ab'\nwhile True:\n    s = s.replace('a', 'aa')\n",
        "s = 'ab'\nwhile True:\n    s = '{}{}'.format(s, s)\n",
        "s = 'ab'\nwhile True:\n    s = '%s%s' % (s, s)\n",
        "x = 'ab'.zfill(1000000000000)\n",
    ] {
        assert_eq!(
            on_both_engines(src).unwrap_err(),
            ("ValueError".into(), "sequence too large for this VM".into()),
            "on:\n{src}"
        );
    }
    // Below the bound, and empty repeats of any count, still build.
    assert_eq!(
        on_both_engines(
            "print(len('ab' * 2000000), len([0] * 4000000), [] * 1000000000000, '' * 1000000000000 == '')\n"
        )
        .unwrap(),
        "4000000 4000000 [] True\n"
    );
    // `range` keeps its own message.
    assert_eq!(
        on_both_engines("range(5000000)\n").unwrap_err(),
        ("ValueError".into(), "range too large for this VM".into())
    );
}
