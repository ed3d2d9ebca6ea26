//! [`EtcdHost`]: the [`HostApi`] implementation that wires the
//! interpreted python-etcd client to the simulated etcd server.
//!
//! One `EtcdHost` models one container: the etcd process, the host
//! network, a tiny filesystem, environment variables, and the external
//! utilities the workload may invoke (`etcd-start`, `etcd-restart`,
//! `iptables`, ...).

use crate::errors::EtcdError;
use crate::network::Network;
use crate::node::{EtcdNode, NodeState, ETCD_PORT};
use pyrt::host::{HostApi, HttpResponse, TransportError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Base latency of one request against an idle server (virtual secs).
const BASE_LATENCY: f64 = 0.002;
/// Per-hog latency slowdown (§V-C starvation). Hog *threads*
/// accumulate: a hog injected on a hot code path registers many stale
/// threads and eventually starves short-deadline requests (the
/// client's health probe), while a hog on a cold path barely hurts.
const HOG_SLOWDOWN_PER_THREAD: f64 = 30.0;
/// Cap on the effective hog thread count for latency purposes.
const HOG_THREAD_CAP: u32 = 30;
/// Per-hog-thread probability increment that a read under the race
/// window returns a stale value (§V-C "inconsistent values read from
/// the etcd datastore"), capped.
const STALE_READ_PROB_PER_THREAD: f64 = 0.06;
/// Cap on the stale-read probability.
const STALE_READ_PROB_MAX: f64 = 0.35;

/// One recorded API invocation (consumed by the trace/visualization
/// pipeline, paper §IV-D).
#[derive(Clone, Debug)]
pub struct ApiEvent {
    /// Virtual time the request started.
    pub time: f64,
    /// HTTP method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response HTTP status (0 = transport error).
    pub status: u16,
    /// Virtual seconds the request took.
    pub latency: f64,
}

/// The simulated container host for the etcd case study.
pub struct EtcdHost {
    node: RefCell<EtcdNode>,
    net: RefCell<Network>,
    files: RefCell<BTreeMap<String, String>>,
    env: BTreeMap<String, String>,
    rng: RefCell<StdRng>,
    /// Number of stale hog threads registered by the target.
    hog_threads: Cell<u32>,
    /// Last-overwritten value per key, feeding stale reads.
    stale: RefCell<BTreeMap<String, String>>,
    events: RefCell<Vec<ApiEvent>>,
    exec_log: RefCell<Vec<String>>,
}

impl EtcdHost {
    /// Creates a host with a stopped etcd node and the given RNG seed.
    pub fn new(seed: u64) -> EtcdHost {
        let mut env = BTreeMap::new();
        env.insert("ETCD_HOST".to_string(), "127.0.0.1".to_string());
        env.insert("ETCD_PORT".to_string(), ETCD_PORT.to_string());
        EtcdHost {
            node: RefCell::new(EtcdNode::new()),
            net: RefCell::new(Network::new()),
            files: RefCell::new(BTreeMap::new()),
            env,
            rng: RefCell::new(StdRng::seed_from_u64(seed)),
            hog_threads: Cell::new(0),
            stale: RefCell::new(BTreeMap::new()),
            events: RefCell::new(Vec::new()),
            exec_log: RefCell::new(Vec::new()),
        }
    }

    /// Starts the etcd server (the workload's deploy step).
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound — callers deploy into a
    /// fresh container.
    pub fn start_server(&self) {
        let mut net = self.net.borrow_mut();
        self.node
            .borrow_mut()
            .start(&mut net)
            .expect("fresh container has a free port");
    }

    /// True if the server is serving requests.
    pub fn serving(&self) -> bool {
        self.node.borrow().serving()
    }

    /// Recorded API events (for tracing/visualization).
    pub fn events(&self) -> Vec<ApiEvent> {
        self.events.borrow().clone()
    }

    /// Commands executed through `os.execute` (diagnostics).
    pub fn exec_log(&self) -> Vec<String> {
        self.exec_log.borrow().clone()
    }

    /// Number of keys currently stored (consistency checks).
    pub fn store_len(&self) -> usize {
        self.node.borrow().store.len()
    }

    fn record(&self, time: f64, method: &str, path: &str, status: u16, latency: f64) {
        self.events.borrow_mut().push(ApiEvent {
            time,
            method: method.to_string(),
            path: path.to_string(),
            status,
            latency,
        });
    }

    fn latency(&self) -> f64 {
        let jitter: f64 = self.rng.borrow_mut().gen_range(0.5..1.5);
        let threads = self.hog_threads.get().min(HOG_THREAD_CAP) as f64;
        let slow = 1.0 + HOG_SLOWDOWN_PER_THREAD * threads;
        BASE_LATENCY * jitter * slow
    }

    fn route(&self, now: f64, method: &str, path: &str, query: &str, body: &str) -> HttpResponse {
        let node = &mut *self.node.borrow_mut();
        // Wedged server: every data request fails with the bootstrap
        // error (paper §V-A).
        if node.state == NodeState::Wedged && path != "/v2/members" {
            return err_response(&EtcdError::ServerError(
                "member has already been bootstrapped".into(),
            ));
        }
        let params = parse_form(query);
        let form = parse_form(body);
        if path == "/health" {
            return HttpResponse {
                status: 200,
                body: "OK".into(),
            };
        }
        if path == "/v2/members" {
            return match method {
                "PUT" | "POST" => match node.bootstrap() {
                    Ok(()) => HttpResponse {
                        status: 201,
                        body: "BOOTSTRAPPED".into(),
                    },
                    Err(e) => err_response(&e),
                },
                "DELETE" => {
                    node.remove_member();
                    HttpResponse {
                        status: 204,
                        body: String::new(),
                    }
                }
                _ => err_response(&EtcdError::BadRequest(format!(
                    "unsupported method {method} for /v2/members"
                ))),
            };
        }
        if let Some(conn) = path.strip_prefix("/v2/connection") {
            let mut net = self.net.borrow_mut();
            return match method {
                "POST" => match net.connect(node.port) {
                    Ok(id) => HttpResponse {
                        status: 201,
                        body: format!("CONN {id}"),
                    },
                    Err(m) => err_response(&EtcdError::ServerError(m)),
                },
                "DELETE" => {
                    let id: u64 = conn.trim_start_matches('/').parse().unwrap_or(0);
                    net.disconnect(id);
                    HttpResponse {
                        status: 204,
                        body: String::new(),
                    }
                }
                _ => err_response(&EtcdError::BadRequest(format!(
                    "unsupported method {method} for /v2/connection"
                ))),
            };
        }
        let Some(raw_key) = path.strip_prefix("/v2/keys") else {
            return err_response(&EtcdError::BadRequest(format!("unknown path {path}")));
        };
        let key = if raw_key.is_empty() { "/" } else { raw_key };
        let recursive = params.get("recursive").map(String::as_str) == Some("true")
            || form.get("recursive").map(String::as_str) == Some("true");
        let result: Result<String, EtcdError> = match method {
            "GET" => node.store.get(key, now, recursive).map(|nodes| {
                let mut out = String::new();
                for n in nodes {
                    if n.dir {
                        out.push_str(&format!("DIR {}\n", n.key));
                    } else {
                        let value = self.maybe_stale(&n.key, n.value.as_deref().unwrap_or(""));
                        out.push_str(&format!("KEY {}\n", n.key));
                        out.push_str(&format!("VALUE {value}\n"));
                        out.push_str(&format!("INDEX {}\n", n.modified_index));
                    }
                }
                out
            }),
            "PUT" | "POST" => {
                let value = form.get("value").map(String::as_str);
                let ttl = form.get("ttl").and_then(|t| t.parse::<f64>().ok());
                let dir = form.get("dir").map(String::as_str) == Some("true");
                if let Some(prev) = form.get("prevValue") {
                    // Track the overwritten value for stale reads.
                    if let Ok(prev_nodes) = node.store.get(key, now, false) {
                        if let Some(v) = &prev_nodes[0].value {
                            self.stale
                                .borrow_mut()
                                .insert(prev_nodes[0].key.clone(), v.clone());
                        }
                    }
                    node.store
                        .test_and_set(key, value.unwrap_or(""), prev, now)
                        .map(|n| format!("SWAPPED {}\nINDEX {}\n", n.key, n.modified_index))
                } else if dir && method == "PUT" && !form.contains_key("existing") {
                    node.store
                        .mkdir(key, ttl, now)
                        .map(|n| format!("DIR {}\nINDEX {}\n", n.key, n.modified_index))
                } else {
                    // Track the overwritten value for stale reads.
                    if let Ok(prev_nodes) = node.store.get(key, now, false) {
                        if let Some(v) = &prev_nodes[0].value {
                            self.stale.borrow_mut().insert(prev_nodes[0].key.clone(), v.clone());
                        }
                    }
                    node.store.set(key, value, ttl, dir, now).map(|n| {
                        format!(
                            "SET {}\nVALUE {}\nINDEX {}\n",
                            n.key,
                            n.value.as_deref().unwrap_or(""),
                            n.modified_index
                        )
                    })
                }
            }
            "DELETE" => node
                .store
                .delete(key, recursive, now)
                .map(|n| format!("DELETED {}\n", n.key)),
            other => Err(EtcdError::BadRequest(format!("unsupported method {other}"))),
        };
        match result {
            Ok(body) => {
                let status = if matches!(method, "GET" | "DELETE") { 200 } else { 201 };
                HttpResponse { status, body }
            }
            Err(e) => err_response(&e),
        }
    }

    /// Under an active race window, reads sometimes return the previous
    /// value of the key. The probability scales with the number of
    /// stale hog threads racing the request.
    fn maybe_stale(&self, key: &str, fresh: &str) -> String {
        let p = (STALE_READ_PROB_PER_THREAD * self.hog_threads.get() as f64)
            .min(STALE_READ_PROB_MAX);
        if p > 0.0 {
            if let Some(old) = self.stale.borrow().get(key) {
                if self.rng.borrow_mut().gen_bool(p) {
                    return old.clone();
                }
            }
        }
        fresh.to_string()
    }
}

fn err_response(e: &EtcdError) -> HttpResponse {
    HttpResponse {
        status: e.http_status(),
        body: e.body(),
    }
}

fn parse_form(s: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for pair in s.split('&') {
        if pair.is_empty() {
            continue;
        }
        match pair.split_once('=') {
            Some((k, v)) => out.insert(k.to_string(), url_decode(v)),
            None => out.insert(pair.to_string(), String::new()),
        };
    }
    out
}

fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let Ok(b) = u8::from_str_radix(&s[i + 1..i + 3], 16) {
                out.push(b);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_url(url: &str) -> Option<(u16, String, String)> {
    let rest = url
        .strip_prefix("http://")
        .or_else(|| url.strip_prefix("https://"))?;
    let (host_port, path_query) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    let port: u16 = match host_port.split_once(':') {
        Some((_, p)) => p.parse().ok()?,
        None => 80,
    };
    let (path, query) = match path_query.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (path_query.to_string(), String::new()),
    };
    Some((port, path, query))
}

impl HostApi for EtcdHost {
    fn http_request(
        &self,
        vm_now: f64,
        method: &str,
        url: &str,
        body: &str,
        timeout: f64,
    ) -> (Result<HttpResponse, TransportError>, f64) {
        let Some((port, path, query)) = parse_url(url) else {
            self.record(vm_now, method, url, 0, 0.0);
            return (Err(TransportError::Reset), 0.0);
        };
        if port != self.node.borrow().port || !self.net.borrow().is_listening(port) {
            self.record(vm_now, method, &path, 0, 0.0);
            return (Err(TransportError::ConnectionRefused), 0.0);
        }
        let latency = self.latency();
        if latency > timeout {
            // Request could not complete in time (starved server).
            self.record(vm_now, method, &path, 0, timeout);
            return (Err(TransportError::Timeout), timeout);
        }
        let resp = self.route(vm_now, method, &path, &query, body);
        self.record(vm_now, method, &path, resp.status, latency);
        (Ok(resp), latency)
    }

    fn getenv(&self, name: &str) -> Option<String> {
        self.env.get(name).cloned()
    }

    fn read_file(&self, path: &str) -> Result<String, String> {
        self.files
            .borrow()
            .get(path)
            .cloned()
            .ok_or_else(|| format!("No such file or directory: '{path}'"))
    }

    fn write_file(&self, path: &str, contents: &str) -> Result<(), String> {
        self.files
            .borrow_mut()
            .insert(path.to_string(), contents.to_string());
        Ok(())
    }

    fn path_exists(&self, path: &str) -> bool {
        self.files.borrow().contains_key(path)
    }

    fn execute(&self, argv: &[String]) -> (i32, String) {
        self.exec_log.borrow_mut().push(argv.join(" "));
        let cmd = argv.first().map(String::as_str).unwrap_or("");
        match cmd {
            "etcd-start" => {
                let mut net = self.net.borrow_mut();
                match self.node.borrow_mut().start(&mut net) {
                    Ok(()) => (0, "etcd started".into()),
                    Err(m) => (1, m),
                }
            }
            "etcd-stop" => {
                let mut net = self.net.borrow_mut();
                self.node.borrow_mut().stop(&mut net);
                (0, "etcd stopped".into())
            }
            "etcd-restart" => {
                let mut net = self.net.borrow_mut();
                let mut node = self.node.borrow_mut();
                node.stop(&mut net);
                match node.start(&mut net) {
                    Ok(()) => (0, "etcd restarted".into()),
                    Err(m) => (1, m),
                }
            }
            "etcd-cleanup" => {
                let port = self.node.borrow().port;
                self.net.borrow_mut().force_free(port);
                self.node.borrow_mut().remove_member();
                (0, "cleaned up".into())
            }
            // External UNIX utilities (§III WPF target): argument
            // validation — corrupted flags make them fail, like
            // `execvp` failures in the referenced Nova bug #732549.
            "iptables" | "dnsmasq" | "e2fsck" => {
                for arg in &argv[1..] {
                    let well_formed = arg.is_ascii()
                        && (arg.starts_with('-')
                            || arg.chars().all(|c| {
                                c.is_ascii_alphanumeric() || "=:/._,".contains(c)
                            }));
                    if !well_formed {
                        return (2, format!("{cmd}: invalid argument '{arg}'"));
                    }
                }
                (0, format!("{cmd}: ok"))
            }
            other => (0, format!("executed: {other}")),
        }
    }

    fn note_hog(&self) {
        self.hog_threads.set(self.hog_threads.get() + 1);
    }

    fn trace_events(&self) -> Vec<pyrt::host::TraceEvent> {
        self.events.borrow().iter().map(trace_event).collect()
    }
}

fn trace_event(e: &ApiEvent) -> pyrt::host::TraceEvent {
    let mut name = String::with_capacity(e.method.len() + 1 + e.path.len());
    name.push_str(&e.method);
    name.push(' ');
    name.push_str(&e.path);
    pyrt::host::TraceEvent {
        time: e.time,
        name,
        failed: e.status == 0 || e.status >= 400,
        duration: e.latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> EtcdHost {
        let h = EtcdHost::new(7);
        h.start_server();
        h
    }

    fn req(h: &EtcdHost, method: &str, path: &str, body: &str) -> HttpResponse {
        let url = format!("http://127.0.0.1:2379{path}");
        h.http_request(0.0, method, &url, body, 5.0).0.unwrap()
    }

    #[test]
    fn put_get_delete_cycle() {
        let h = host();
        assert_eq!(req(&h, "PUT", "/v2/keys/app/name", "value=etcd").status, 201);
        let r = req(&h, "GET", "/v2/keys/app/name", "");
        assert!(r.body.contains("VALUE etcd"));
        assert_eq!(req(&h, "DELETE", "/v2/keys/app/name", "").status, 200);
        assert_eq!(req(&h, "GET", "/v2/keys/app/name", "").status, 404);
    }

    #[test]
    fn missing_key_is_404_with_error_code_100() {
        let h = host();
        let r = req(&h, "GET", "/v2/keys/none", "");
        assert_eq!(r.status, 404);
        assert!(r.body.contains("ERROR 100"));
    }

    #[test]
    fn non_ascii_value_is_400_bad_request() {
        let h = host();
        let r = req(&h, "PUT", "/v2/keys/k", "value=caf\u{00e9}");
        assert_eq!(r.status, 400);
    }

    #[test]
    fn test_and_set_via_prev_value() {
        let h = host();
        req(&h, "PUT", "/v2/keys/k", "value=old");
        let ok = req(&h, "PUT", "/v2/keys/k", "value=new&prevValue=old");
        assert_eq!(ok.status, 201);
        let fail = req(&h, "PUT", "/v2/keys/k", "value=x&prevValue=old");
        assert_eq!(fail.status, 412);
    }

    #[test]
    fn connection_refused_when_server_down() {
        let h = EtcdHost::new(7);
        let (r, _) = h.http_request(0.0, "GET", "http://127.0.0.1:2379/health", "", 5.0);
        assert_eq!(r, Err(TransportError::ConnectionRefused));
    }

    #[test]
    fn double_bootstrap_wedges_and_data_requests_500() {
        let h = host();
        assert_eq!(req(&h, "PUT", "/v2/members", "").status, 201);
        assert_eq!(req(&h, "PUT", "/v2/members", "").status, 500);
        let r = req(&h, "GET", "/v2/keys/any", "");
        assert_eq!(r.status, 500);
        assert!(r.body.contains("member has already been bootstrapped"));
        // Member removal recovers.
        assert_eq!(req(&h, "DELETE", "/v2/members", "").status, 204);
        assert_eq!(req(&h, "GET", "/v2/keys/any", "").status, 404);
    }

    #[test]
    fn stale_connection_blocks_restart() {
        let h = host();
        let r = req(&h, "POST", "/v2/connection", "");
        assert!(r.body.starts_with("CONN "));
        // Restart with the connection still open fails to bind.
        let (code, msg) = h.execute(&["etcd-restart".to_string()]);
        assert_eq!(code, 1, "{msg}");
        assert!(msg.contains("address already in use"));
        // Cleanup frees the port.
        let (code, _) = h.execute(&["etcd-cleanup".to_string()]);
        assert_eq!(code, 0);
        let (code, _) = h.execute(&["etcd-start".to_string()]);
        assert_eq!(code, 0);
    }

    #[test]
    fn closing_connection_allows_restart() {
        let h = host();
        let r = req(&h, "POST", "/v2/connection", "");
        let id = r.body.trim_start_matches("CONN ").to_string();
        assert_eq!(
            req(&h, "DELETE", &format!("/v2/connection/{id}"), "").status,
            204
        );
        let (code, _) = h.execute(&["etcd-restart".to_string()]);
        assert_eq!(code, 0);
    }

    #[test]
    fn hog_activates_slowdown_and_timeouts() {
        let h = host();
        h.note_hog();
        let (r, _) = h.http_request(
            0.0,
            "GET",
            "http://127.0.0.1:2379/health",
            "",
            0.01, // tight timeout; hog slowdown makes latency exceed it
        );
        assert_eq!(r, Err(TransportError::Timeout));
    }

    #[test]
    fn stale_reads_under_race_window() {
        let h = host();
        req(&h, "PUT", "/v2/keys/k", "value=v1");
        req(&h, "PUT", "/v2/keys/k", "value=v2");
        // A hot hog site registers many stale threads.
        for _ in 0..20 {
            h.note_hog();
        }
        let mut saw_stale = false;
        for _ in 0..50 {
            let (r, _) = h.http_request(0.0, "GET", "http://127.0.0.1:2379/v2/keys/k", "", 10.0);
            if r.unwrap().body.contains("VALUE v1") {
                saw_stale = true;
                break;
            }
        }
        assert!(saw_stale, "race window should eventually yield a stale read");
    }

    #[test]
    fn corrupted_iptables_args_fail() {
        let h = host();
        let (code, _) = h.execute(&["iptables".into(), "--dport".into(), "2379".into()]);
        assert_eq!(code, 0);
        let (code, msg) = h.execute(&["iptables".into(), "--dp\u{00f8}rt 2379".into()]);
        assert_eq!(code, 2);
        assert!(msg.contains("invalid argument"));
    }

    #[test]
    fn directory_listing() {
        let h = host();
        req(&h, "PUT", "/v2/keys/cfg/a", "value=1");
        req(&h, "PUT", "/v2/keys/cfg/b", "value=2");
        let r = req(&h, "GET", "/v2/keys/cfg?recursive=true", "");
        assert!(r.body.contains("KEY /cfg/a"));
        assert!(r.body.contains("KEY /cfg/b"));
    }

    #[test]
    fn events_are_recorded() {
        let h = host();
        req(&h, "PUT", "/v2/keys/k", "value=v");
        req(&h, "GET", "/v2/keys/k", "");
        let events = h.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].method, "PUT");
        assert_eq!(events[1].status, 200);
    }

    #[test]
    fn mkdir_and_ttl() {
        let h = host();
        let r = req(&h, "PUT", "/v2/keys/newdir", "dir=true");
        assert_eq!(r.status, 201, "{}", r.body);
        let again = req(&h, "PUT", "/v2/keys/newdir", "dir=true");
        assert_eq!(again.status, 412);
        // TTL expiry uses the virtual clock passed by the VM.
        req(&h, "PUT", "/v2/keys/tmp", "value=x&ttl=5");
        let (late, _) =
            h.http_request(10.0, "GET", "http://127.0.0.1:2379/v2/keys/tmp", "", 5.0);
        assert_eq!(late.unwrap().status, 404);
    }
}
