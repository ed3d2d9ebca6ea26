//! End-to-end language-semantics tests for the mini-Python interpreter.
//!
//! Each test runs a program and checks captured stdout or the uncaught
//! exception, pinning the CPython behaviors the ProFIPy case study
//! depends on.

use pyrt::vm::Vm;

fn run(src: &str) -> String {
    let m = pysrc::parse_module(src, "test.py").unwrap();
    let mut vm = Vm::new();
    vm.run_module(&m).unwrap_or_else(|e| panic!("uncaught {e}\nstderr: {}", vm.stderr()));
    vm.stdout()
}

fn run_err(src: &str) -> (String, String) {
    let m = pysrc::parse_module(src, "test.py").unwrap();
    let mut vm = Vm::new();
    let err = vm
        .run_module(&m)
        .expect_err("expected an uncaught exception")
        .into_data();
    (err.class_name, err.message)
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(run("print(1 + 2 * 3)\n"), "7\n");
    assert_eq!(run("print((1 + 2) * 3)\n"), "9\n");
    assert_eq!(run("print(7 // 2, 7 % 2, 7 / 2)\n"), "3 1 3.5\n");
    assert_eq!(run("print(2 ** 10)\n"), "1024\n");
    assert_eq!(run("print(-3 ** 2)\n"), "-9\n");
    assert_eq!(run("print(7 % -2)\n"), "1\n"); // rem_euclid keeps sign of... checked below
}

#[test]
fn division_by_zero() {
    let (class, _) = run_err("x = 1 / 0\n");
    assert_eq!(class, "ZeroDivisionError");
    let (class, _) = run_err("x = 1 % 0\n");
    assert_eq!(class, "ZeroDivisionError");
}

#[test]
fn string_operations() {
    assert_eq!(run("print('a' + 'b')\n"), "ab\n");
    assert_eq!(run("print('ab' * 3)\n"), "ababab\n");
    assert_eq!(run("print('hello'[1])\n"), "e\n");
    assert_eq!(run("print('hello'[-1])\n"), "o\n");
    assert_eq!(run("print('hello'[1:3])\n"), "el\n");
    assert_eq!(run("print('a,b,c'.split(','))\n"), "['a', 'b', 'c']\n");
    assert_eq!(run("print('-'.join(['a', 'b']))\n"), "a-b\n");
    assert_eq!(run("print('/v2/keys'.startswith('/v2'))\n"), "True\n");
    assert_eq!(run("print('  x '.strip())\n"), "x\n");
    assert_eq!(run("print('abc'.upper(), 'ABC'.lower())\n"), "ABC abc\n");
    assert_eq!(run("print('a%s-%d' % ('x', 3))\n"), "ax-3\n");
    assert_eq!(run("print('k={}'.format(42))\n"), "k=42\n");
    assert_eq!(run("print('sub' in 'a substring')\n"), "True\n");
    assert_eq!(run("print(len('hello'))\n"), "5\n");
}

#[test]
fn list_and_dict_operations() {
    assert_eq!(
        run("xs = [1, 2]\nxs.append(3)\nprint(xs, len(xs))\n"),
        "[1, 2, 3] 3\n"
    );
    assert_eq!(run("d = {'a': 1}\nd['b'] = 2\nprint(d['b'], d.get('c', 9))\n"), "2 9\n");
    assert_eq!(
        run("d = {'a': 1, 'b': 2}\nfor k, v in d.items():\n    print(k, v)\n"),
        "a 1\nb 2\n"
    );
    assert_eq!(run("xs = [3, 1, 2]\nxs.sort()\nprint(xs)\n"), "[1, 2, 3]\n");
    assert_eq!(run("print(sorted([3, 1, 2], reverse=True))\n"), "[3, 2, 1]\n");
    assert_eq!(run("xs = [1, 2, 3]\nprint(xs.pop(), xs)\n"), "3 [1, 2]\n");
    assert_eq!(run("print([x * 2 for x in range(4) if x > 0])\n"), "[2, 4, 6]\n");
    let (class, _) = run_err("d = {}\nx = d['missing']\n");
    assert_eq!(class, "KeyError");
    let (class, _) = run_err("xs = [1]\nx = xs[5]\n");
    assert_eq!(class, "IndexError");
}

#[test]
fn tuple_unpacking_and_multiple_assignment() {
    assert_eq!(run("a, b = 1, 2\nprint(a, b)\n"), "1 2\n");
    assert_eq!(run("a = b = 5\nprint(a, b)\n"), "5 5\n");
    // Chained assignment binds target lists left-to-right, so the
    // second list `b, a` overwrites the first: a=2, b=1 (CPython).
    assert_eq!(run("a, b = b, a = 1, 2\nprint(a, b)\n"), "2 1\n");
    let (class, _) = run_err("a, b = [1, 2, 3]\n");
    assert_eq!(class, "ValueError");
}

#[test]
fn functions_defaults_kwargs_star() {
    assert_eq!(
        run("def f(a, b=10):\n    return a + b\nprint(f(1), f(1, 2), f(1, b=5))\n"),
        "11 3 6\n"
    );
    assert_eq!(
        run("def f(*args, **kw):\n    return len(args) + len(kw)\nprint(f(1, 2, x=3))\n"),
        "3\n"
    );
    let (class, msg) = run_err("def f(a):\n    return a\nf()\n");
    assert_eq!(class, "TypeError");
    assert!(msg.contains("missing required argument"));
    let (class, msg) = run_err("def f(a):\n    return a\nf(1, q=2)\n");
    assert_eq!(class, "TypeError");
    assert!(msg.contains("unexpected keyword"));
}

#[test]
fn closures_capture_enclosing_scope() {
    assert_eq!(
        run("def outer():\n    x = 10\n    def inner():\n        return x + 1\n    return inner()\nprint(outer())\n"),
        "11\n"
    );
}

#[test]
fn global_statement() {
    assert_eq!(
        run("count = 0\ndef bump():\n    global count\n    count = count + 1\nbump()\nbump()\nprint(count)\n"),
        "2\n"
    );
}

#[test]
fn unbound_local_error_matches_paper() {
    // Assignment anywhere in the function makes the name local; reading
    // before the assignment executes raises UnboundLocalError — the
    // dominant §V-C failure mode.
    let (class, msg) = run_err(
        "def f(flag):\n    if flag:\n        response = 1\n    return response\nf(False)\n",
    );
    assert_eq!(class, "UnboundLocalError");
    assert!(msg.contains("local variable 'response' referenced before assignment"));
}

#[test]
fn none_attribute_error_matches_paper() {
    let (class, msg) = run_err("key = None\nkey.startswith('/')\n");
    assert_eq!(class, "AttributeError");
    assert_eq!(msg, "'NoneType' object has no attribute 'startswith'");
}

#[test]
fn classes_methods_inheritance() {
    assert_eq!(
        run(concat!(
            "class Animal:\n",
            "    def __init__(self, name):\n",
            "        self.name = name\n",
            "    def speak(self):\n",
            "        return self.name + ' makes a sound'\n",
            "class Dog(Animal):\n",
            "    def speak(self):\n",
            "        return self.name + ' barks'\n",
            "d = Dog('rex')\n",
            "print(d.speak())\n",
            "a = Animal('cat')\n",
            "print(a.speak())\n",
        )),
        "rex barks\ncat makes a sound\n"
    );
}

#[test]
fn isinstance_checks() {
    assert_eq!(run("print(isinstance('x', str), isinstance(1, str))\n"), "True False\n");
    assert_eq!(
        run("class A:\n    pass\nclass B(A):\n    pass\nb = B()\nprint(isinstance(b, A), isinstance(b, B))\n"),
        "True True\n"
    );
}

#[test]
fn try_except_else_finally_ordering() {
    assert_eq!(
        run(concat!(
            "def f(fail):\n",
            "    out = []\n",
            "    try:\n",
            "        out.append('try')\n",
            "        if fail:\n",
            "            raise ValueError('x')\n",
            "    except ValueError:\n",
            "        out.append('except')\n",
            "    else:\n",
            "        out.append('else')\n",
            "    finally:\n",
            "        out.append('finally')\n",
            "    return out\n",
            "print(f(False))\n",
            "print(f(True))\n",
        )),
        "['try', 'else', 'finally']\n['try', 'except', 'finally']\n"
    );
}

#[test]
fn except_matches_subclasses() {
    assert_eq!(
        run("try:\n    raise KeyError('k')\nexcept LookupError:\n    print('caught')\n"),
        "caught\n"
    );
    assert_eq!(
        run("try:\n    raise ValueError('v')\nexcept (KeyError, ValueError):\n    print('caught')\n"),
        "caught\n"
    );
    // Non-matching classes propagate.
    let (class, _) = run_err("try:\n    raise ValueError('v')\nexcept KeyError:\n    pass\n");
    assert_eq!(class, "ValueError");
}

#[test]
fn except_as_binds_exception_object() {
    assert_eq!(
        run("try:\n    raise ValueError('boom')\nexcept ValueError as e:\n    print(str(e))\n"),
        "boom\n"
    );
}

#[test]
fn user_exception_classes() {
    assert_eq!(
        run(concat!(
            "class EtcdException(Exception):\n",
            "    pass\n",
            "class EtcdKeyNotFound(EtcdException):\n",
            "    pass\n",
            "try:\n",
            "    raise EtcdKeyNotFound('Key not found: /x')\n",
            "except EtcdException as e:\n",
            "    print('caught:', str(e))\n",
        )),
        "caught: Key not found: /x\n"
    );
}

#[test]
fn bare_raise_reraises() {
    let (class, msg) = run_err(concat!(
        "try:\n",
        "    raise ValueError('orig')\n",
        "except ValueError:\n",
        "    raise\n",
    ));
    assert_eq!(class, "ValueError");
    assert_eq!(msg, "orig");
}

#[test]
fn finally_runs_on_exception() {
    let m = pysrc::parse_module(
        "try:\n    raise ValueError('x')\nfinally:\n    print('cleanup')\n",
        "t.py",
    )
    .unwrap();
    let mut vm = Vm::new();
    let err = vm.run_module(&m).unwrap_err();
    assert_eq!(err.class_name, "ValueError");
    assert_eq!(vm.stdout(), "cleanup\n");
}

#[test]
fn loops_break_continue_else() {
    assert_eq!(
        run("for i in range(5):\n    if i == 3:\n        break\n    print(i)\nelse:\n    print('no break')\n"),
        "0\n1\n2\n"
    );
    assert_eq!(
        run("for i in range(3):\n    pass\nelse:\n    print('completed')\n"),
        "completed\n"
    );
    assert_eq!(
        run("total = 0\nfor i in range(10):\n    if i % 2 == 0:\n        continue\n    total += i\nprint(total)\n"),
        "25\n"
    );
    assert_eq!(
        run("i = 0\nwhile i < 3:\n    i += 1\nprint(i)\n"),
        "3\n"
    );
}

#[test]
fn comparison_chains_and_membership() {
    assert_eq!(run("print(1 < 2 < 3, 1 < 2 > 3)\n"), "True False\n");
    assert_eq!(run("print(2 in [1, 2], 5 not in [1, 2])\n"), "True True\n");
    assert_eq!(run("print('a' in {'a': 1})\n"), "True\n");
    assert_eq!(run("x = None\nprint(x is None, x is not None)\n"), "True False\n");
}

#[test]
fn boolean_short_circuit_returns_operand() {
    assert_eq!(run("print(0 or 'default')\n"), "default\n");
    assert_eq!(run("print('x' and 42)\n"), "42\n");
    assert_eq!(run("print(None or None)\n"), "None\n");
    // Short circuit must not evaluate the RHS.
    assert_eq!(
        run("def boom():\n    raise ValueError('no')\nprint(False and boom())\n"),
        "False\n"
    );
}

#[test]
fn lambda_and_conditional_expression() {
    assert_eq!(run("f = lambda x, y=2: x * y\nprint(f(3), f(3, 4))\n"), "6 12\n");
    assert_eq!(run("x = 5\nprint('big' if x > 3 else 'small')\n"), "big\n");
}

#[test]
fn builtin_functions() {
    assert_eq!(run("print(abs(-3), min(3, 1), max([2, 7]))\n"), "3 1 7\n");
    assert_eq!(run("print(sum([1, 2, 3]))\n"), "6\n");
    assert_eq!(run("print(int('42'), float('2.5'), str(7))\n"), "42 2.5 7\n");
    assert_eq!(
        run("for i, v in enumerate(['a', 'b']):\n    print(i, v)\n"),
        "0 a\n1 b\n"
    );
    assert_eq!(run("print(zip([1, 2], ['a', 'b']))\n"), "[(1, 'a'), (2, 'b')]\n");
    let (class, _) = run_err("int('notanumber')\n");
    assert_eq!(class, "ValueError");
}

#[test]
fn getattr_hasattr() {
    assert_eq!(
        run("class C:\n    def __init__(self):\n        self.x = 1\nc = C()\nprint(getattr(c, 'x'), getattr(c, 'y', 99), hasattr(c, 'x'))\n"),
        "1 99 True\n"
    );
}

#[test]
fn recursion_works_and_is_bounded() {
    assert_eq!(
        run("def fact(n):\n    if n <= 1:\n        return 1\n    return n * fact(n - 1)\nprint(fact(10))\n"),
        "3628800\n"
    );
    let (class, msg) = run_err("def f():\n    return f()\nf()\n");
    assert_eq!(class, "RuntimeError");
    assert!(msg.contains("recursion"));
}

#[test]
fn time_module_uses_virtual_clock() {
    let out = run(concat!(
        "import time\n",
        "t0 = time.time()\n",
        "time.sleep(2.5)\n",
        "t1 = time.time()\n",
        "print(t1 - t0 >= 2.5)\n",
    ));
    assert_eq!(out, "True\n");
}

#[test]
fn random_module_is_seeded_and_deterministic() {
    let src = "import random\nprint(random.randint(0, 1000000))\n";
    assert_eq!(run(src), run(src));
}

#[test]
fn logging_module_captures_records() {
    let m = pysrc::parse_module(
        "import logging\nlogging.error('disk on fire')\nlogging.info('ok')\n",
        "t.py",
    )
    .unwrap();
    let mut vm = Vm::new();
    vm.run_module(&m).unwrap();
    let logs = vm.logs();
    assert_eq!(logs.len(), 2);
    assert_eq!(logs[0].severity, pyrt::Severity::Error);
    assert_eq!(logs[0].message, "disk on fire");
}

#[test]
fn logger_component_attribution() {
    let m = pysrc::parse_module(
        "import logging\nlog = logging.getLogger('etcd.client')\nlog.error('bad')\n",
        "t.py",
    )
    .unwrap();
    let mut vm = Vm::new();
    vm.run_module(&m).unwrap();
    assert_eq!(vm.logs()[0].component, "etcd.client");
}

#[test]
fn profipy_rt_trigger_and_coverage() {
    let m = pysrc::parse_module(
        concat!(
            "import profipy_rt\n",
            "profipy_rt.cov(7)\n",
            "if profipy_rt.trigger():\n",
            "    print('fault on')\n",
            "else:\n",
            "    print('fault off')\n",
        ),
        "t.py",
    )
    .unwrap();
    let mut vm = Vm::new();
    vm.run_module(&m).unwrap();
    assert_eq!(vm.stdout(), "fault off\n");
    assert!(vm.coverage().contains(&7));

    let mut vm2 = Vm::new();
    vm2.trigger.set(true);
    vm2.run_module(&m).unwrap();
    assert_eq!(vm2.stdout(), "fault on\n");
}

#[test]
fn profipy_rt_corrupt_changes_strings_deterministically() {
    let m = pysrc::parse_module(
        "import profipy_rt\nprint(profipy_rt.corrupt('--dport 2379'))\n",
        "t.py",
    )
    .unwrap();
    let mut vm_a = Vm::new();
    vm_a.run_module(&m).unwrap();
    let mut vm_b = Vm::new();
    vm_b.run_module(&m).unwrap();
    assert_eq!(vm_a.stdout(), vm_b.stdout(), "same seed → same corruption");
    assert_ne!(vm_a.stdout(), "--dport 2379\n");
}

#[test]
fn hog_starves_fuel() {
    let src = "import profipy_rt\nprofipy_rt.hog()\ni = 0\nwhile i < 20000:\n    i = i + 1\n";
    let m = pysrc::parse_module(src, "t.py").unwrap();
    // Without the hog this budget is ample; with a hog (5x step cost)
    // it exhausts.
    let mut vm = Vm::new();
    vm.fuel.refill(400_000);
    let err = vm.run_module(&m).unwrap_err();
    assert_eq!(err.class_name, "ProfipyFuelExhausted");

    let no_hog = pysrc::parse_module("i = 0\nwhile i < 20000:\n    i = i + 1\n", "t.py").unwrap();
    let mut vm2 = Vm::new();
    vm2.fuel.refill(400_000);
    vm2.run_module(&no_hog).unwrap();
}

#[test]
fn fuel_exhaustion_escapes_except_exception() {
    // Timeouts must not be swallowed by broad exception handlers.
    let src = concat!(
        "while True:\n",
        "    try:\n",
        "        x = 1\n",
        "    except Exception:\n",
        "        pass\n",
    );
    let m = pysrc::parse_module(src, "t.py").unwrap();
    let mut vm = Vm::new();
    vm.fuel.refill(5_000);
    let err = vm.run_module(&m).unwrap_err();
    assert_eq!(err.class_name, "ProfipyFuelExhausted");
}

#[test]
fn threading_thread_runs_target() {
    assert_eq!(
        run(concat!(
            "import threading\n",
            "def work(n):\n",
            "    print('worked', n)\n",
            "t = threading.Thread(target=work, args=(3,))\n",
            "t.start()\n",
            "t.join()\n",
        )),
        "worked 3\n"
    );
}

#[test]
fn with_statement_calls_enter_exit() {
    assert_eq!(
        run(concat!(
            "class Ctx:\n",
            "    def __enter__(self):\n",
            "        print('enter')\n",
            "        return 42\n",
            "    def __exit__(self):\n",
            "        print('exit')\n",
            "with Ctx() as v:\n",
            "    print(v)\n",
        )),
        "enter\n42\nexit\n"
    );
}

#[test]
fn del_and_assert() {
    assert_eq!(run("x = 1\ndel x\nprint('gone')\n"), "gone\n");
    let (class, _) = run_err("x = 1\ndel x\nprint(x)\n");
    assert_eq!(class, "NameError");
    let (class, msg) = run_err("assert 1 == 2, 'numbers drifted'\n");
    assert_eq!(class, "AssertionError");
    assert_eq!(msg, "numbers drifted");
}

#[test]
fn augmented_assignment_on_containers() {
    assert_eq!(run("d = {'n': 1}\nd['n'] += 5\nprint(d['n'])\n"), "6\n");
    assert_eq!(run("xs = [1]\nxs += [2]\nprint(xs)\n"), "[1, 2]\n");
}

#[test]
fn string_iteration_and_dict_iteration() {
    assert_eq!(run("for c in 'ab':\n    print(c)\n"), "a\nb\n");
    assert_eq!(run("d = {'x': 1, 'y': 2}\nfor k in d:\n    print(k)\n"), "x\ny\n");
}

#[test]
fn type_errors_have_python_messages() {
    let (class, msg) = run_err("x = 1 + 'a'\n");
    assert_eq!(class, "TypeError");
    assert!(msg.contains("unsupported operand type"));
    let (class, msg) = run_err("x = None\nx()\n");
    assert_eq!(class, "TypeError");
    assert!(msg.contains("not callable"));
    let (class, msg) = run_err("x = 5\nx[0]\n");
    assert_eq!(class, "TypeError");
    assert!(msg.contains("not subscriptable"));
}
