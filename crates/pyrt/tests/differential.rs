//! Differential testing: the bytecode engine against the tree-walk
//! oracle.
//!
//! Every generated program runs on both engines and must agree on the
//! full observable outcome: result (error class + message), stdout,
//! stderr, the virtual-clock reading, and the remaining fuel. Programs
//! are valid by construction (built from statement templates over a
//! fixed prologue) and terminate without fuel, so a second property
//! additionally pins the exact fuel-exhaustion step under a randomized
//! budget.

use proptest::prelude::*;
use pyrt::vm::{Engine, Vm};

/// Everything a campaign can observe from one experiment run.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    /// Class, message and traceback of an uncaught exception.
    error: Option<(String, String, Vec<String>)>,
    stdout: String,
    stderr: String,
    /// Virtual-clock reading, compared bit-for-bit.
    clock_bits: u64,
    fuel_remaining: u64,
}

fn run_engine(src: &str, engine: Engine, fuel: Option<u64>) -> Outcome {
    let module = pysrc::parse_module(src, "diff.py").expect("generated program parses");
    let mut vm = Vm::new();
    vm.set_engine(engine);
    if let Some(f) = fuel {
        vm.fuel.refill(f);
    }
    let error = vm
        .run_module(&module)
        .err()
        .map(|e| {
            let e = e.into_data();
            (e.class_name, e.message, e.traceback)
        });
    Outcome {
        error,
        stdout: vm.stdout(),
        stderr: vm.stderr(),
        clock_bits: vm.now().to_bits(),
        fuel_remaining: vm.fuel.remaining(),
    }
}

fn assert_engines_agree(src: &str, fuel: Option<u64>) {
    let bytecode = run_engine(src, Engine::Bytecode, fuel);
    let treewalk = run_engine(src, Engine::TreeWalk, fuel);
    assert_eq!(
        bytecode, treewalk,
        "engines diverge (fuel {fuel:?}) on program:\n{src}"
    );
}

// ---------- generated programs

const PROLOGUE: &str = "a = 3\nb = 4\nc = [1, 2, 3]\n";

fn small_expr() -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("len(c)".to_string()),
        Just("c[1]".to_string()),
        Just("(a < b)".to_string()),
        (0i64..10).prop_map(|n| n.to_string()),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        (
            inner.clone(),
            prop_oneof![
                Just("+".to_string()),
                Just("-".to_string()),
                Just("*".to_string()),
            ],
            inner,
        )
            .prop_map(|(l, op, r)| format!("({l} {op} {r})"))
    })
    .boxed()
}

/// One self-contained statement block; always valid after [`PROLOGUE`].
fn block() -> BoxedStrategy<String> {
    prop_oneof![
        // Plain assignment + print.
        (small_expr(), 0u32..3).prop_map(|(e, i)| format!("x{i} = {e}\nprint(x{i})\n")),
        // Augmented assignment through a subscript target.
        (small_expr(), 0usize..3)
            .prop_map(|(e, i)| format!("c[{i}] = c[{i}] + 1\nprint(c, {e})\n")),
        // If/else on a comparison.
        (small_expr(), small_expr()).prop_map(|(l, r)| {
            format!("if {l} < {r}:\n    print('lt', {l})\nelse:\n    print('ge', {r})\n")
        }),
        // For loop with conditional break and an else clause.
        (1i64..6, 0i64..6).prop_map(|(n, k)| {
            format!(
                "acc = 0\nfor i in range({n}):\n    acc += i\n    if i == {k}:\n        \
                 break\nelse:\n    print('no-break')\nprint('acc', acc)\n"
            )
        }),
        // While loop with continue.
        (1i64..6, 1i64..6).prop_map(|(n, k)| {
            format!(
                "j = 0\nwhile j < {n}:\n    j += 1\n    if j == {k}:\n        \
                 continue\n    print('j', j)\n"
            )
        }),
        // try/except around a possibly-failing subscript.
        (0usize..6).prop_map(|i| {
            format!(
                "try:\n    print('item', c[{i}])\nexcept IndexError:\n    print('oob')\n"
            )
        }),
        // try/except around integer division.
        (small_expr(), 0i64..3).prop_map(|(e, d)| {
            format!(
                "try:\n    print({e} // {d})\nexcept ZeroDivisionError:\n    print('zde')\n"
            )
        }),
        // Function definition with a default, called twice.
        (small_expr(), small_expr(), 0u32..3).prop_map(|(e1, e2, i)| {
            format!(
                "def f{i}(x, y=2):\n    if x > y:\n        return x - y\n    return x + \
                 y\nprint(f{i}({e1}), f{i}({e1}, {e2}))\n"
            )
        }),
        // Closure over an enclosing local.
        (small_expr(), 0u32..3).prop_map(|(e, i)| {
            format!(
                "def outer{i}():\n    t = {e}\n    def inner(u):\n        return u + \
                 t\n    return inner(10)\nprint(outer{i}())\n"
            )
        }),
        // List comprehension (module-level target leak included).
        (1i64..6).prop_map(|n| {
            format!("print([z * z for z in range({n}) if z % 2 == 0])\nprint('leak', z)\n")
        }),
        // Uncaught exception: both engines must stop at the same point
        // with the same class/message and partial stdout.
        (small_expr(), 3usize..8).prop_map(|(e, i)| {
            format!("print('pre', {e})\nprint(c[{i}])\nprint('unreached')\n")
        }),
        // Aliasing: mutation through a second binding must be visible
        // through every name (pins reference semantics for the heap).
        (small_expr(), 0u32..3).prop_map(|(e, i)| {
            format!(
                "al{i} = [{e}]\nbl{i} = al{i}\nbl{i}.append({e})\n\
                 print(al{i}, al{i} is bl{i})\n"
            )
        }),
        // Container self-reference: identity must survive a round-trip
        // through the container (printing the cycle would not
        // terminate, so only identity and leaf reads are observed).
        (0u32..3).prop_map(|i| {
            format!(
                "sd{i} = {{'n': {i}}}\nsd{i}['me'] = sd{i}\n\
                 print(sd{i}['me'] is sd{i}, sd{i}['me']['n'])\n"
            )
        }),
        // Bound-method extraction: the receiver is aliased, not copied.
        (1i64..4, 0u32..3).prop_map(|(n, i)| {
            format!(
                "ml{i} = []\npush{i} = ml{i}.append\nfor v in range({n}):\n    \
                 push{i}(v)\nprint(ml{i})\n"
            )
        }),
        // Method calls on instances (`LoadMethod`/`CallMethod` against
        // the tree walk's bound methods): class methods, a method
        // calling methods, an instance attribute shadowing one, a
        // missing one (its argument must not run), and the same inside
        // `try`.
        (small_expr(), small_expr(), 0u32..3).prop_map(|(e1, e2, i)| {
            format!(
                "class K{i}:\n    def __init__(self, v):\n        self.v = v\n    \
                 def add(self, d):\n        self.v = self.v + d\n        return self.v\n    \
                 def twice(self, d):\n        return self.add(d) + self.add(d)\n\
                 k{i} = K{i}({e1})\nprint(k{i}.add({e2}), k{i}.twice(1), k{i}.v)\n\
                 try:\n    k{i}.missing(k{i}.add(5))\nexcept AttributeError:\n    \
                 print('no method', k{i}.twice({e2}))\n\
                 k{i}.add = lambda d: d * 100\nprint(k{i}.add(2), k{i}.twice(3), k{i}.v)\n"
            )
        }),
        // Keyword, `*` and `**` calls, bound and rejected.
        (small_expr(), small_expr(), 0u32..3, 0usize..4).prop_map(|(e1, e2, i, bad)| {
            let call = ["x=1, x=2", "1, 2, x=3", "w=0", "**{1: 2}"][bad];
            format!(
                "def kw{i}(x, y=1, *r, **o):\n    return [x, y, r, sorted(o.items())]\n\
                 print(kw{i}({e1}, y={e2}), kw{i}(*[{e1}, 2, 3], **{{'p': {e2}}}))\n\
                 try:\n    print(kw{i}({call}))\nexcept TypeError as err:\n    print(err)\n"
            )
        }),
    ]
    .boxed()
}

fn program() -> BoxedStrategy<String> {
    proptest::collection::vec(block(), 1..4)
        .prop_map(|blocks| format!("{PROLOGUE}{}", blocks.concat()))
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engines_agree_unfueled(src in program()) {
        assert_engines_agree(&src, None);
    }

    #[test]
    fn engines_agree_under_fuel(src in program(), fuel in 5u64..400) {
        assert_engines_agree(&src, Some(fuel));
    }
}

// ---------- deterministic differential pins

/// Exhaustive fuel sweep over a fixture exercising loops, calls,
/// closures, try/except, and comprehensions: for every budget the two
/// engines must trip at the identical step with identical partial
/// output and clock.
#[test]
fn fuel_exhaustion_step_identical_across_engines() {
    let src = "\
total = 0
def cost(n):
    r = 0
    for i in range(n):
        r += i * i
    return r
for k in range(6):
    try:
        total += cost(k) // (k % 3)
    except ZeroDivisionError:
        total += 1
squares = [v * v for v in range(4)]
print('total', total, squares)
";
    for fuel in 1..260 {
        assert_engines_agree(src, Some(fuel));
    }
}

/// The same sweep over a fixture that is nearly all method calls: every
/// budget from one step to past completion must trip (or finish) on the
/// same step, with the same clock bits, output and error, whether the
/// call goes through `LoadMethod`/`CallMethod` or a bound method.
#[test]
fn method_call_fuel_sweep_identical_across_engines() {
    let src = "\
class Queue:
    def __init__(self):
        self.items = []
        self.taken = 0
    def put(self, x):
        self.items.append(x)
        return len(self.items)
    def take(self):
        if len(self.items) == 0:
            return None
        self.taken = self.taken + 1
        return self.items.pop(0)
    def drain(self):
        out = []
        while self.size() > 0:
            out.append(self.take())
        return out
    def size(self):
        return len(self.items)
q = Queue()
for k in range(4):
    q.put(k * k)
q.size = q.size
try:
    q.nothing(q.put(99))
except AttributeError:
    pass
print(q.drain(), q.taken, q.take())
";
    let full = run_engine(src, Engine::TreeWalk, Some(100_000));
    assert_eq!(full.error, None);
    let steps = 100_000 - full.fuel_remaining;
    assert!(steps > 200, "fixture is long enough to sweep: {steps}");
    for fuel in 1..steps + 3 {
        assert_engines_agree(src, Some(fuel));
    }
}

#[test]
fn deadline_trip_identical_across_engines() {
    let src = "\
import time
print('start')
i = 0
while i < 50:
    time.sleep(0.5)
    i += 1
print('end', i)
";
    let run = |engine: Engine| {
        let module = pysrc::parse_module(src, "deadline.py").expect("parses");
        let mut vm = Vm::new();
        vm.set_engine(engine);
        vm.set_deadline(Some(5.0));
        let error = vm
            .run_module(&module)
            .err()
            .map(|e| {
            let e = e.into_data();
            (e.class_name, e.message)
        });
        (error, vm.stdout(), vm.now().to_bits())
    };
    assert_eq!(run(Engine::Bytecode), run(Engine::TreeWalk));
}

#[test]
fn engine_fixture_corpus_agrees() {
    // Hand-written corners that generation is unlikely to compose:
    // bare raise, finally overriding control flow, nested loop
    // break/continue through a try, chained comparisons, keyword and
    // star arguments, class with methods, global declarations.
    let fixtures: &[&str] = &[
        "def g():\n    global seen\n    seen = seen + 1\nseen = 0\ng()\ng()\nprint(seen)\n",
        "try:\n    try:\n        raise ValueError('inner')\n    except ValueError:\n        \
         print('first')\n        raise\nexcept ValueError as e:\n    print('second', e)\n",
        "for i in range(3):\n    try:\n        if i == 1:\n            continue\n        \
         if i == 2:\n            break\n    finally:\n        print('fin', i)\nprint('after')\n",
        "def f(a, b=2, *rest, **kw):\n    return [a, b, list(rest), len(kw)]\n\
         print(f(1))\nprint(f(1, 3, 4, 5))\nprint(f(1, b=9, z=0))\n\
         args = [7, 8, 9]\nprint(f(*args))\n",
        "class Counter:\n    def __init__(self, start):\n        self.n = start\n    \
         def bump(self, by=1):\n        self.n += by\n        return self.n\n\
         c = Counter(10)\nprint(c.bump(), c.bump(5), c.n)\n",
        "x = 5\nprint(1 < x < 9, 9 < x < 10, 1 < x > 2)\n",
        "d = {'a': 1, 'b': 2}\nd['c'] = d['a'] + d['b']\n\
         for k in d:\n    print(k, d[k])\nprint('b' in d, 'z' in d)\n",
        "s = 'abc'\nprint(s[1], s[-1], s[0:2], len(s), s + 'd', s * 2)\n",
        "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\n\
         print([fib(i) for i in range(10)])\n",
        "t = (1, 2, 3)\nu, v, w = t\nprint(u, v, w)\n\
         pairs = [(1, 'a'), (2, 'b')]\nfor num, ch in pairs:\n    print(num, ch)\n",
        "print(not 0, -True, +7, ~2)\nprint(0 or '' or 'x', 1 and 2 and 3)\n",
        "while True:\n    break\nelse:\n    print('unreached')\nprint('done')\n",
        // Aliasing/identity corners: user-class bound methods whose
        // receiver survives rebinding, instance attributes sharing one
        // object, and `is` across aggregate and immediate values.
        "class C:\n    def __init__(self):\n        self.n = 0\n    def bump(self):\n        \
         self.n += 1\n        return self.n\nc = C()\nm = c.bump\nprint(m(), m())\n\
         c2 = c\nc = None\nprint(m(), c2.n)\n",
        "shared = [0]\nclass B:\n    def __init__(self, v):\n        self.v = v\n\
         x = B(shared)\ny = B(shared)\nx.v.append(1)\n\
         print(y.v, x.v is y.v, x.v is shared)\n",
        "a = [1]\nb = [1]\nprint(a is a, a is b, a == b, [] is [])\n\
         s = 'ab'\nt = 'a' + 'b'\nprint(s is t, 5 is 5, None is None)\n",
        "l = [1]\nl.append(l)\nprint(l[0], l[1] is l)\nl[0] = 2\nprint(l[1][0])\n",
        "def push(v, acc=[]):\n    acc.append(v)\n    return acc\n\
         print(push(1), push(2), push(1))\n",
    ];
    // Every budget from one step to past completion: fuel runs out on
    // every step of each fixture, chained-comparison links, argument
    // builders and `finally` flows included.
    for src in fixtures {
        assert_engines_agree(src, None);
        let full = run_engine(src, Engine::TreeWalk, Some(100_000));
        let steps = 100_000 - full.fuel_remaining;
        for fuel in 1..steps + 3 {
            assert_engines_agree(src, Some(fuel));
        }
    }
}

/// The bytecode tier's fast paths — positional calls bound from the
/// operand stack, instance attributes and class-chain methods read in
/// place, `int` arithmetic and comparisons, `bool` jumps — each driven
/// across the line where it hands over to the general path, under
/// every budget from one step to past completion: fuel runs out inside
/// fast-pathed callees, mid-fallback and between the two.
#[test]
fn fast_path_fallbacks_agree_across_engines_and_fuel() {
    let fixtures: &[&str] = &[
        // Instance-held functions (no receiver), a bound method value,
        // a class-level non-callable, a base-class method.
        "def free(x):\n    return x + 1\n\
         class Base:\n    limit = 3\n    def get(self, x):\n        return x + self.limit\n\
         class Kid(Base):\n    def __init__(self):\n        self.f = free\n\
         k = Kid()\nprint(k.f(1), k.get(2), k.limit)\nm = k.get\nprint(m(5))\n\
         k.get = free\nprint(k.get(7))\ntry:\n    k.limit()\nexcept TypeError as e:\n    print(e)\n",
        // Arithmetic and comparisons on the int line and off it.
        "print(True + 1, 2 == 2.0, 9223372036854775807 + 1, 1.5 - 1)\n\
         def acc(n):\n    t = 0\n    i = 0\n    while i < n:\n        t = t + i\n        i = i + 1\n    return t\n\
         print(acc(6), acc(0) + True, 1 < 2 < 3 != 4)\ntry:\n    print(1 < True)\nexcept TypeError:\n    print('no order')\n",
        // Call shapes that bind on the fast path and ones that do not.
        "def two(a, b):\n    return a - b\ndef dflt(a, b=4):\n    return a * b\n\
         def rest(*r):\n    return len(r)\nprint(two(5, 2), dflt(2), dflt(2, 3), two(b=1, a=3), rest(1, 2))\n\
         for bad in ['two(1)', 'two(1, 2, 3)', 'dflt()', 'two(1, a=2)']:\n    try:\n        \
         if bad == 'two(1)':\n            two(1)\n        elif bad == 'two(1, 2, 3)':\n            two(1, 2, 3)\n        \
         elif bad == 'dflt()':\n            dflt()\n        else:\n            two(1, a=2)\n    \
         except TypeError as e:\n        print(e)\n",
        // The broker spin in small: method calls that return ints and
        // `None` until the budget runs out inside one of them.
        "class Q:\n    def __init__(self):\n        self.items = [1]\n    \
         def size(self):\n        return len(self.items) + 0\n    \
         def take(self):\n        if len(self.items) < 2:\n            return None\n        return self.items.pop()\n\
         class C:\n    def __init__(self, q):\n        self.q = q\n    \
         def poll(self):\n        m = self.q.take()\n        if m is None:\n            return 0\n        return 1\n\
         q = Q()\nc = C(q)\nn = 0\nwhile q.size() > 0:\n    n = n + c.poll()\n",
        // Recursion through positional calls past the depth limit.
        "def down(n):\n    return down(n + 1)\nclass R:\n    def down(self, n):\n        return self.down(n - 1)\n\
         try:\n    down(0)\nexcept RuntimeError as e:\n    print('deep', e)\nR().down(0)\n",
    ];
    for src in fixtures {
        // The spin never finishes: its `steps` is the whole budget.
        let full = run_engine(src, Engine::TreeWalk, Some(20_000));
        let steps = 20_000 - full.fuel_remaining;
        for fuel in (1..steps.min(2_000) + 3).chain([steps / 2, steps - 1, steps, steps + 1]) {
            assert_engines_agree(src, Some(fuel));
        }
    }
}

/// A program that prints without end is stopped by its fuel with its
/// captured stdout cut at the 1 MiB cap and marked, under both engines
/// alike.
#[test]
fn runaway_output_is_capped_under_both_engines() {
    const CAP: usize = 1 << 20;
    const MARKER: &str = "\n[output truncated at 1 MiB]\n";
    let src = "s = 'x' * 400000\nwhile True:\n    print(s)\n";
    let bytecode = run_engine(src, Engine::Bytecode, Some(100));
    assert_eq!(bytecode, run_engine(src, Engine::TreeWalk, Some(100)));
    let (class, ..) = bytecode.error.expect("the fuel stops the loop");
    assert_eq!(class, "ProfipyFuelExhausted");
    let out = &bytecode.stdout;
    assert!(
        out.len() <= CAP + MARKER.len(),
        "stdout grew to {} bytes",
        out.len()
    );
    assert!(out.ends_with(MARKER));
}

/// A program that logs without end is stopped by its fuel with its log
/// messages cut at the same 1 MiB cap and closed by one marker record,
/// under both engines alike.
#[test]
fn runaway_logging_is_capped_under_both_engines() {
    const CAP: usize = 1 << 20;
    const MARKER: &str = "[log truncated at 1 MiB]";
    let src = "import logging\ns = 'x' * 400000\nwhile True:\n    logging.info(s)\n";
    let messages = |engine| {
        let module = pysrc::parse_module(src, "diff.py").expect("parses");
        let mut vm = Vm::new();
        vm.set_engine(engine);
        vm.fuel.refill(100);
        let error = vm.run_module(&module).expect_err("the fuel stops the loop");
        assert_eq!(error.class_name, "ProfipyFuelExhausted");
        let logs = vm.take_logs();
        logs.into_iter().map(|r| r.message).collect::<Vec<_>>()
    };
    let logged = messages(Engine::Bytecode);
    assert_eq!(logged, messages(Engine::TreeWalk));
    let bytes: usize = logged.iter().map(String::len).sum();
    assert!(bytes <= CAP + MARKER.len(), "log grew to {bytes} bytes");
    assert_eq!(logged.last().map(String::as_str), Some(MARKER));
}
