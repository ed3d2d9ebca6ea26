//! Integration tests across the pyrt ↔ etcdsim boundary: mini-Python
//! snippets talking to the simulated etcd server through the simulated
//! urllib/os modules — the §V substrate without the full client.

use etcdsim::EtcdHost;
use pyrt::Vm;
use std::rc::Rc;
use std::sync::Arc;

fn run_with_server(src: &str) -> (Vm, Result<(), pyrt::PyExc>) {
    let host = Rc::new(EtcdHost::new(3));
    host.start_server();
    let mut vm = Vm::with_host(host, 3);
    let module = pysrc::parse_module(src, "snippet.py").expect("snippet parses");
    let result = vm.run_module(&module);
    (vm, result)
}

#[test]
fn put_then_get_roundtrips_through_urllib() {
    let (vm, result) = run_with_server(concat!(
        "import urllib\n",
        "resp = urllib.request('PUT', 'http://127.0.0.1:2379/v2/keys/greeting', 'value=hi')\n",
        "print(resp['status'])\n",
        "resp = urllib.request('GET', 'http://127.0.0.1:2379/v2/keys/greeting', None)\n",
        "print('VALUE hi' in resp['data'])\n",
    ));
    result.unwrap();
    assert_eq!(vm.stdout(), "201\nTrue\n");
}

#[test]
fn missing_key_yields_404_visible_to_python() {
    let (vm, result) = run_with_server(concat!(
        "import urllib\n",
        "resp = urllib.request('GET', 'http://127.0.0.1:2379/v2/keys/nope', None)\n",
        "print(resp['status'])\n",
        "print(resp['data'].startswith('ERROR 100'))\n",
    ));
    result.unwrap();
    assert_eq!(vm.stdout(), "404\nTrue\n");
}

#[test]
fn connection_refused_raises_python_exception() {
    // No server started.
    let host = Rc::new(EtcdHost::new(0));
    let mut vm = Vm::with_host(host, 0);
    let module = pysrc::parse_module(
        concat!(
            "import urllib\n",
            "try:\n",
            "    resp = urllib.request('GET', 'http://127.0.0.1:2379/health', None)\n",
            "except ConnectionRefusedError as e:\n",
            "    print('refused:', str(e))\n",
        ),
        "t.py",
    )
    .unwrap();
    vm.run_module(&module).unwrap();
    assert!(vm.stdout().starts_with("refused: connection refused"));
}

#[test]
fn request_latency_advances_virtual_clock() {
    let (vm, result) = run_with_server(concat!(
        "import urllib\n",
        "import time\n",
        "t0 = time.time()\n",
        "resp = urllib.request('GET', 'http://127.0.0.1:2379/health', None)\n",
        "print(time.time() - t0 > 0.0005)\n",
    ));
    result.unwrap();
    assert_eq!(vm.stdout(), "True\n");
}

#[test]
fn hog_registered_from_python_starves_short_timeouts() {
    let (vm, result) = run_with_server(concat!(
        "import urllib\n",
        "import profipy_rt\n",
        "i = 0\n",
        "while i < 20:\n",
        "    profipy_rt.hog()\n",
        "    i = i + 1\n",
        "try:\n",
        "    resp = urllib.request('GET', 'http://127.0.0.1:2379/health', None, timeout=0.25)\n",
        "    print('ok')\n",
        "except urllib.ConnectTimeoutError:\n",
        "    print('starved')\n",
    ));
    result.unwrap();
    assert_eq!(vm.stdout(), "starved\n");
}

#[test]
fn os_execute_controls_server_lifecycle_from_python() {
    let (vm, result) = run_with_server(concat!(
        "import os\n",
        "import urllib\n",
        "r = os.execute('etcd-stop')\n",
        "try:\n",
        "    resp = urllib.request('GET', 'http://127.0.0.1:2379/health', None)\n",
        "    print('up')\n",
        "except ConnectionRefusedError:\n",
        "    print('down')\n",
        "r = os.execute('etcd-start')\n",
        "resp = urllib.request('GET', 'http://127.0.0.1:2379/health', None)\n",
        "print(resp['status'])\n",
    ));
    result.unwrap();
    assert_eq!(vm.stdout(), "down\n200\n");
}

#[test]
fn failed_execute_raises_oserror_in_python() {
    let (vm, result) = run_with_server(concat!(
        "import os\n",
        "import urllib\n",
        // Open a connection, then stop the server so the port is held.
        "resp = urllib.request('POST', 'http://127.0.0.1:2379/v2/connection', None)\n",
        "r = os.execute('etcd-stop')\n",
        "try:\n",
        "    r = os.execute('etcd-start')\n",
        "    print('restarted')\n",
        "except OSError as e:\n",
        "    print('EADDRINUSE' if 'address already in use' in str(e) else 'other')\n",
    ));
    result.unwrap();
    assert_eq!(vm.stdout(), "EADDRINUSE\n");
}

#[test]
fn full_client_fault_free_leaves_consistent_store() {
    let host = Rc::new(EtcdHost::new(5));
    host.start_server();
    let mut vm = Vm::with_host(host.clone(), 5);
    let client = pysrc::parse_module(targets::CLIENT_SOURCE, "etcd").unwrap();
    vm.register_prepared_source("etcd", pyrt::prepare::prepare(Arc::new(client)));
    let driver = pysrc::parse_module(
        concat!(
            "import etcd\n",
            "c = etcd.Client()\n",
            "c.set('/a/b', 'v1')\n",
            "c.set('/a/c', 'v2', 30)\n",
            "print(c.get('/a/b'))\n",
            "c.test_and_set('/a/b', 'v3', 'v1')\n",
            "print(c.get('/a/b'))\n",
            "keys = c.ls('/a')\n",
            "print(len(keys))\n",
            "c.delete('/a', True)\n",
        ),
        "driver.py",
    )
    .unwrap();
    vm.run_module(&driver).unwrap_or_else(|e| {
        panic!("driver failed: {e}\nstderr: {}", vm.stderr());
    });
    assert_eq!(vm.stdout(), "v1\nv3\n3\n");
    assert_eq!(host.store_len(), 0, "cleanup removed everything");
}

#[test]
fn client_exceptions_carry_paper_messages() {
    let host = Rc::new(EtcdHost::new(5));
    host.start_server();
    let mut vm = Vm::with_host(host, 5);
    let client = pysrc::parse_module(targets::CLIENT_SOURCE, "etcd").unwrap();
    vm.register_prepared_source("etcd", pyrt::prepare::prepare(Arc::new(client)));
    let driver = pysrc::parse_module(
        concat!(
            "import etcd\n",
            "c = etcd.Client()\n",
            "try:\n",
            "    c.get('/missing')\n",
            "except etcd.EtcdKeyNotFound as e:\n",
            "    print(str(e))\n",
            "try:\n",
            "    c.set('/k', 'caf\u{00e9}')\n",
            "except etcd.EtcdException as e:\n",
            "    print(str(e))\n",
            "try:\n",
            "    c.get(None)\n",
            "except AttributeError as e:\n",
            "    print(str(e))\n",
        ),
        "driver.py",
    )
    .unwrap();
    vm.run_module(&driver).unwrap();
    let out = vm.stdout();
    assert!(out.contains("Key not found: /v2/keys/missing"), "{out}");
    assert!(out.contains("Bad response: 400 Bad Request"), "{out}");
    assert!(
        out.contains("'NoneType' object has no attribute 'startswith'"),
        "{out}"
    );
}

#[test]
fn trace_events_are_exposed_through_host_api() {
    let (vm, result) = run_with_server(concat!(
        "import urllib\n",
        "resp = urllib.request('PUT', 'http://127.0.0.1:2379/v2/keys/x', 'value=1')\n",
        "resp = urllib.request('GET', 'http://127.0.0.1:2379/v2/keys/missing', None)\n",
    ));
    result.unwrap();
    let events = vm.host.trace_events();
    assert_eq!(events.len(), 2);
    assert!(!events[0].failed);
    assert!(events[1].failed, "404 is a failed span");
    assert!(events[1].name.contains("GET /v2/keys/missing"));
}

#[test]
fn recorded_events_stop_at_the_capture_cap() {
    let (vm, result) = run_with_server(concat!(
        "import urllib\n",
        "s = 'x' * 400000\n",
        "for i in range(10):\n",
        "    resp = urllib.request('GET', 'http://127.0.0.1:2379/v2/keys/' + s, None)\n",
        "print(resp['status'])\n",
    ));
    result.unwrap();
    assert_eq!(vm.stdout(), "404\n", "every request is still served");
    let events = vm.host.trace_events();
    // Three 400 KB paths reach the 1 MiB cap; the third is kept, one
    // marker follows, and the other seven requests are not recorded.
    assert_eq!(events.len(), 4, "events recorded");
    assert!(events[..3].iter().all(|e| e.name.len() > 400_000));
    assert_eq!(events[3].name.trim(), "[events truncated at 1 MiB]");
    let bytes: usize = events.iter().map(|e| e.name.len()).sum();
    assert!(bytes < 2 << 20, "{bytes} bytes of events");
}
