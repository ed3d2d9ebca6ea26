//! Server behaviour under real sockets: routing, keep-alive reuse,
//! worker-pool saturation (503, never a hang), and graceful shutdown
//! draining in-flight requests.

use httpd::{Client, Response, Router, Server, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn echo_router() -> Router {
    Router::new()
        .route("GET", "/ping", |_| Response::text(200, "pong"))
        .route("GET", "/items/:id", |req| {
            Response::json(200, format!("{{\"id\": \"{}\"}}", req.param("id").unwrap()))
        })
        .route("POST", "/echo", |req| {
            Response::new(200).with_body(req.body.clone())
        })
}

#[test]
fn routes_keepalive_and_errors_over_a_real_socket() {
    let server = Server::bind("127.0.0.1:0", echo_router(), ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::new(&addr);

    // Many requests over ONE keep-alive connection.
    for i in 0..50 {
        let resp = client.get(&format!("/items/item-{i}")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), format!("{{\"id\": \"item-{i}\"}}"));
    }
    let resp = client
        .request("POST", "/echo", Some("text/plain"), b"body bytes")
        .unwrap();
    assert_eq!(resp.body, b"body bytes");
    assert_eq!(client.get("/missing").unwrap().status, 404);
    assert_eq!(
        client
            .request("DELETE", "/ping", None, &[])
            .unwrap()
            .status,
        405
    );
    // Only one TCP connection was used for all of the above.
    assert_eq!(server.connections_rejected(), 0);
    server.shutdown();
}

#[test]
fn saturated_pool_answers_503_and_never_hangs() {
    // One worker, zero queue slots: while the worker is pinned on a
    // blocked handler, every further connection must get a 503 —
    // quickly, not after a timeout.
    let gate = Arc::new(Barrier::new(2));
    let enter = gate.clone();
    let router = Router::new().route("GET", "/block", move |_| {
        enter.wait(); // released by the main thread below
        Response::text(200, "released")
    });
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", router, config).unwrap();
    let addr = server.addr().to_string();

    // Pin the single worker.
    let blocked_addr = addr.clone();
    let blocked = std::thread::spawn(move || {
        Client::new(&blocked_addr)
            .timeout(Duration::from_secs(10))
            .get("/block")
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(150)); // worker now inside the handler

    // At most one further connection fits the queue (and waits there);
    // every one after that must be answered 503 promptly — never left
    // hanging.
    let mut statuses = Vec::new();
    for _ in 0..6 {
        let started = std::time::Instant::now();
        let resp = Client::new(&addr)
            .timeout(Duration::from_millis(500))
            .get("/ping");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "saturation must answer promptly, not hang"
        );
        match resp {
            Ok(r) => statuses.push(r.status),
            // The single queued connection times out client-side while
            // the worker is pinned; that one slot is tolerated.
            Err(_) => statuses.push(0),
        }
    }
    assert!(
        statuses.iter().filter(|s| **s == 503).count() >= 4,
        "expected mostly 503s, got {statuses:?}"
    );
    assert!(server.connections_rejected() >= 4);

    gate.wait(); // release the worker
    assert_eq!(blocked.join().unwrap().text(), "released");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let started = Arc::new(Barrier::new(2));
    let handler_started = started.clone();
    let router = Router::new().route("GET", "/slow", move |_| {
        handler_started.wait();
        std::thread::sleep(Duration::from_millis(300));
        Response::text(200, "drained")
    });
    let server = Server::bind(
        "127.0.0.1:0",
        router,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    let in_flight = std::thread::spawn(move || {
        Client::new(&addr)
            .timeout(Duration::from_secs(10))
            .get("/slow")
            .unwrap()
    });
    started.wait(); // the handler is now running
    let t0 = std::time::Instant::now();
    server.shutdown(); // must wait for the in-flight response
    assert!(
        t0.elapsed() >= Duration::from_millis(250),
        "shutdown returned before the in-flight request finished"
    );
    let resp = in_flight.join().unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), "drained");
    // The connection was marked close during shutdown.
    assert_eq!(resp.header("connection"), Some("close"));
}

#[test]
fn malformed_and_oversized_requests_are_rejected() {
    use std::io::{Read, Write};
    let server = Server::bind(
        "127.0.0.1:0",
        echo_router(),
        ServerConfig {
            max_body_bytes: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Garbage bytes → 400.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");

    // Declared body over the cap → 413 without reading it.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(b"POST /echo HTTP/1.1\r\nContent-Length: 100000\r\n\r\n")
        .unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 413 "), "{reply}");

    server.shutdown();
}

#[test]
fn stalled_reader_cannot_pin_a_connection_slot_forever() {
    use std::io::Write;
    // A peer that requests a response far bigger than the socket
    // buffers and then never reads it must be disconnected once the
    // write deadline lapses — otherwise it pins a connection slot
    // indefinitely and wedges graceful shutdown (which waits for every
    // connection to drain).
    let router = Router::new().route("GET", "/big", |_| {
        Response::new(200).with_body(vec![b'x'; 16 * 1024 * 1024])
    });
    let config = ServerConfig {
        request_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", router, config).unwrap();

    let mut stalled = std::net::TcpStream::connect(server.addr()).unwrap();
    stalled.write_all(b"GET /big HTTP/1.1\r\n\r\n").unwrap();
    // Deliberately never read.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.connections_open() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "stalled reader still holds its connection slot"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // And shutdown is not wedged by the (now gone) connection.
    let t0 = std::time::Instant::now();
    server.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(5), "shutdown hung");
    drop(stalled);
}

#[test]
fn concurrent_clients_multiplex_across_the_pool() {
    let counter = Arc::new(AtomicU64::new(0));
    let c = counter.clone();
    let router = Router::new().route("GET", "/count", move |_| {
        Response::text(200, c.fetch_add(1, Ordering::SeqCst).to_string())
    });
    let server = Server::bind("127.0.0.1:0", router, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(&addr);
                for _ in 0..25 {
                    assert_eq!(client.get("/count").unwrap().status, 200);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(counter.load(Ordering::SeqCst), 200);
    assert_eq!(server.requests_served(), 200);
    server.shutdown();
}

#[test]
fn loop_blocks_while_idle_and_counts_what_woke_it() {
    use std::io::{Read, Write};
    let registry = Arc::new(obs::Registry::new());
    let config = ServerConfig {
        request_timeout: Duration::from_millis(200),
        metrics: Some(registry.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", echo_router(), config).unwrap();
    let woke = |cause: &str| {
        registry
            .counter_with("httpd_loop_wakeups_total", "", &[("cause", cause)])
            .value()
    };

    // Idle: the loop sits in one wait. Nothing wakes it — no polling
    // interval, no spin.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(woke("io") + woke("completion") + woke("timeout"), 0);

    // Each request wakes it once for the bytes and once for the
    // worker's completion.
    let mut client = Client::new(server.addr().to_string());
    for _ in 0..20 {
        assert_eq!(client.get("/ping").unwrap().status, 200);
    }
    assert!(woke("io") >= 20, "io wake-ups: {}", woke("io"));
    assert!(woke("completion") >= 20, "completion wake-ups: {}", woke("completion"));
    assert_eq!(woke("timeout"), 0);

    // A request that stops half way is answered 408 by the wait's
    // timeout, which is the connection's own deadline.
    let mut slow = std::net::TcpStream::connect(server.addr()).unwrap();
    slow.write_all(b"GET /ping HTTP/1.1\r\nHost").unwrap();
    let mut reply = String::new();
    slow.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 408 "), "{reply}");
    assert!(woke("timeout") >= 1);

    let text = registry.render();
    let families = obs::validate_exposition(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert!(families.iter().any(|f| f == "httpd_loop_wakeups_total"), "{families:?}");
    assert!(families.iter().any(|f| f == "httpd_loop_wait_seconds"), "{families:?}");

    // A wake, not a timeout, ends the wait at shutdown.
    let t0 = std::time::Instant::now();
    server.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(2), "shutdown waited for a timeout");
}
