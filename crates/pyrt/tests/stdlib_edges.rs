//! Edge-case tests for built-in methods, string formatting, and the
//! simulated stdlib modules.

use pyrt::Vm;

fn run(src: &str) -> String {
    let m = pysrc::parse_module(src, "t.py").unwrap();
    let mut vm = Vm::new();
    vm.run_module(&m)
        .unwrap_or_else(|e| panic!("uncaught {e}\n{}", vm.stderr()));
    vm.stdout()
}

fn run_err(src: &str) -> String {
    let m = pysrc::parse_module(src, "t.py").unwrap();
    let mut vm = Vm::new();
    vm.run_module(&m).expect_err("should raise").into_data().class_name
}

#[test]
fn string_method_edges() {
    assert_eq!(run("print('abc'.find('b'), 'abc'.find('z'))\n"), "1 -1\n");
    assert_eq!(run("print('ababab'.count('ab'))\n"), "3\n");
    assert_eq!(run("print('7'.zfill(3))\n"), "007\n");
    assert_eq!(run("print('12'.isdigit(), 'a1'.isdigit(), ''.isdigit())\n"), "True False False\n");
    assert_eq!(run("print('ab'.isalpha(), 'a b'.isalpha())\n"), "True False\n");
    assert_eq!(run("print('x=1&y=2'.split('&'))\n"), "['x=1', 'y=2']\n");
    assert_eq!(run("print(''.join(['a', 'b', 'c']))\n"), "abc\n");
    assert_eq!(run("print('hello'.replace('l', 'L'))\n"), "heLLo\n");
    assert_eq!(run("s = 'key'\nprint(s.encode())\n"), "key\n");
    // Unicode-aware length and slicing.
    assert_eq!(run("s = 'caf\u{00e9}'\nprint(len(s), s[3])\n"), "4 \u{00e9}\n");
}

#[test]
fn percent_formatting_edges() {
    assert_eq!(run("print('%s=%d' % ('n', 3))\n"), "n=3\n");
    assert_eq!(run("print('%r' % 'x')\n"), "'x'\n");
    assert_eq!(run("print('100%%' % ())\n"), "100%\n");
    assert_eq!(run("print('%f' % 2)\n"), "2.000000\n");
    assert_eq!(run_err("print('%d' % 'nope')\n"), "TypeError");
    assert_eq!(run_err("print('%s %s' % 'one')\n"), "TypeError");
    assert_eq!(run_err("print('%s' % ('a', 'b'))\n"), "TypeError");
}

#[test]
fn list_method_edges() {
    assert_eq!(run("xs = [1, 2, 3]\nxs.insert(0, 0)\nxs.insert(-1, 9)\nprint(xs)\n"), "[0, 1, 2, 9, 3]\n");
    assert_eq!(run("xs = [3, 1]\nxs.extend([2])\nxs.sort()\nprint(xs)\n"), "[1, 2, 3]\n");
    assert_eq!(run("xs = [1, 2]\nxs.reverse()\nprint(xs)\n"), "[2, 1]\n");
    assert_eq!(run("xs = [1, 2, 2]\nprint(xs.count(2), xs.index(2))\n"), "2 1\n");
    assert_eq!(run("xs = [1, 2]\nxs.remove(1)\nprint(xs)\n"), "[2]\n");
    assert_eq!(run_err("xs = []\nxs.pop()\n"), "IndexError");
    assert_eq!(run_err("xs = [1]\nxs.remove(9)\n"), "ValueError");
    assert_eq!(run("print(sorted(['b', 'a'], key=lambda s: s))\n"), "['a', 'b']\n");
    assert_eq!(
        run("xs = [(2, 'b'), (1, 'a')]\nxs.sort(key=lambda p: p[0])\nprint(xs)\n"),
        "[(1, 'a'), (2, 'b')]\n"
    );
}

#[test]
fn dict_method_edges() {
    assert_eq!(run("d = {}\nprint(d.setdefault('k', 5), d['k'])\n"), "5 5\n");
    assert_eq!(run("d = {'k': 1}\nprint(d.setdefault('k', 5))\n"), "1\n");
    assert_eq!(run("d = {'a': 1}\nd.update({'b': 2}, c=3)\nprint(len(d))\n"), "3\n");
    assert_eq!(run("d = {'a': 1}\nprint(d.pop('a'), d.pop('a', 'gone'))\n"), "1 gone\n");
    assert_eq!(run_err("d = {}\nd.pop('missing')\n"), "KeyError");
    assert_eq!(run("d = {'a': 1}\ne = d.copy()\ne['a'] = 2\nprint(d['a'], e['a'])\n"), "1 2\n");
    assert_eq!(run("d = {'a': 1}\nd.clear()\nprint(len(d))\n"), "0\n");
}

#[test]
fn slicing_edges() {
    assert_eq!(run("xs = [0, 1, 2, 3]\nprint(xs[1:], xs[:2], xs[:], xs[-2:])\n"), "[1, 2, 3] [0, 1] [0, 1, 2, 3] [2, 3]\n");
    assert_eq!(run("print('hello'[10:20])\n"), "\n");
    assert_eq!(run("t = (1, 2, 3)\nprint(t[1:3])\n"), "(2, 3)\n");
    assert_eq!(run("print('abcdef'[2:4])\n"), "cd\n");
}

#[test]
fn negative_indexing() {
    assert_eq!(run("xs = [1, 2, 3]\nprint(xs[-1], xs[-3])\n"), "3 1\n");
    assert_eq!(run_err("xs = [1]\nprint(xs[-2])\n"), "IndexError");
}

#[test]
fn os_module_with_noop_host() {
    assert_eq!(run("import os\nprint(os.getenv('NOPE', 'fallback'))\n"), "fallback\n");
    assert_eq!(run("import os\nprint(os.path_exists('/etc/hosts'))\n"), "False\n");
    assert_eq!(run_err("import os\nos.read_file('/missing')\n"), "IOError");
}

#[test]
fn urllib_quote_and_urlencode() {
    assert_eq!(run("import urllib\nprint(urllib.quote('a b/c'))\n"), "a%20b/c\n");
    assert_eq!(
        run("import urllib\nprint(urllib.quote('caf\u{00e9}'))\n"),
        "caf%C3%A9\n"
    );
    assert_eq!(
        run("import urllib\nprint(urllib.urlencode({'a': 1, 'b': 'x'}))\n"),
        "a=1&b=x\n"
    );
}

#[test]
fn random_module_bounds() {
    assert_eq!(run("import random\nr = random.randint(5, 5)\nprint(r)\n"), "5\n");
    assert_eq!(
        run("import random\nok = True\nfor i in range(50):\n    v = random.randint(1, 3)\n    ok = ok and 1 <= v and v <= 3\nprint(ok)\n"),
        "True\n"
    );
    assert_eq!(run_err("import random\nrandom.randint(3, 1)\n"), "ValueError");
    assert_eq!(run_err("import random\nrandom.choice([])\n"), "IndexError");
}

#[test]
fn exception_hierarchy_from_python() {
    assert_eq!(
        run(concat!(
            "try:\n",
            "    raise ConnectionRefusedError('nope')\n",
            "except OSError as e:\n",
            "    print('oserror caught:', str(e))\n",
        )),
        "oserror caught: nope\n"
    );
    assert_eq!(
        run(concat!(
            "try:\n",
            "    raise UnboundLocalError('x')\n",
            "except NameError:\n",
            "    print('namerror superclass works')\n",
        )),
        "namerror superclass works\n"
    );
}

#[test]
fn nested_functions_and_methods_share_module_globals() {
    assert_eq!(
        run(concat!(
            "LIMIT = 10\n",
            "class Box:\n",
            "    def fits(self, n):\n",
            "        return n <= LIMIT\n",
            "b = Box()\n",
            "print(b.fits(5), b.fits(50))\n",
        )),
        "True False\n"
    );
}

#[test]
fn method_values_are_first_class() {
    assert_eq!(
        run(concat!(
            "s = '/v2/keys'\n",
            "f = s.startswith\n",
            "print(f('/v2'), f('/v3'))\n",
        )),
        "True False\n"
    );
}

#[test]
fn chained_subscript_attribute_calls() {
    assert_eq!(
        run(concat!(
            "data = {'rows': [{'name': 'a'}, {'name': 'b'}]}\n",
            "print(data['rows'][1]['name'].upper())\n",
        )),
        "B\n"
    );
}

#[test]
fn try_finally_with_return_runs_finally() {
    assert_eq!(
        run(concat!(
            "log = []\n",
            "def f():\n",
            "    try:\n",
            "        return 'early'\n",
            "    finally:\n",
            "        log.append('cleanup')\n",
            "print(f(), log)\n",
        )),
        "early ['cleanup']\n"
    );
}

#[test]
fn deadline_exceeded_is_timeout() {
    let m = pysrc::parse_module(
        "import time\nwhile True:\n    time.sleep(10)\n",
        "t.py",
    )
    .unwrap();
    let mut vm = Vm::new();
    vm.deadline.set(Some(100.0));
    let err = vm.run_module(&m).unwrap_err();
    assert_eq!(err.class_name, "ProfipyFuelExhausted");
    assert!(vm.clock.now() >= 100.0);
}
