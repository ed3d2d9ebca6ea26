//! The host interface: how the simulated `urllib`/`os` modules reach
//! the world outside the interpreter.
//!
//! The `etcdsim` crate implements [`HostApi`] so that the mini-Python
//! python-etcd client talks to the simulated etcd server exactly the
//! way the real client talks to the real server over HTTP.


/// Result of a simulated HTTP request.
#[derive(Clone, Debug, PartialEq)]
pub struct HttpResponse {
    /// HTTP status code (e.g. 200, 400, 404).
    pub status: u16,
    /// Response body (the simulated etcd returns a JSON-ish encoding).
    pub body: String,
}

/// Transport-level failures (before any HTTP status exists).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// Nothing listening / connection refused.
    ConnectionRefused,
    /// The request did not complete within the timeout.
    Timeout,
    /// Connection dropped mid-request.
    Reset,
}

impl TransportError {
    /// The Python exception class the simulated urllib raises.
    pub fn exception_class(&self) -> &'static str {
        match self {
            TransportError::ConnectionRefused => "ConnectionRefusedError",
            TransportError::Timeout => "ConnectTimeoutError",
            TransportError::Reset => "ProtocolError",
        }
    }
}

/// One recorded API invocation, surfaced for tracing/visualization
/// (paper §IV-D). Hosts that do not trace return none.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual time the request started.
    pub time: f64,
    /// Operation label (e.g. `"PUT /v2/keys/a"`).
    pub name: String,
    /// Whether the operation failed (HTTP ≥ 400 or transport error).
    pub failed: bool,
    /// Virtual seconds the operation took.
    pub duration: f64,
}

/// Host-side services visible to the interpreted program.
///
/// All methods take `&self`; implementations use interior mutability.
/// The `vm_now` parameter carries the caller's virtual time so the host
/// can model latency and TTL expiry against the same clock.
pub trait HostApi {
    /// Performs an HTTP request. Returns the response or a transport
    /// error, plus the virtual seconds the request consumed.
    fn http_request(
        &self,
        vm_now: f64,
        method: &str,
        url: &str,
        body: &str,
        timeout: f64,
    ) -> (Result<HttpResponse, TransportError>, f64);

    /// Reads an environment variable.
    fn getenv(&self, name: &str) -> Option<String>;

    /// Reads a file from the simulated container filesystem.
    fn read_file(&self, path: &str) -> Result<String, String>;

    /// Writes a file to the simulated container filesystem.
    fn write_file(&self, path: &str, contents: &str) -> Result<(), String>;

    /// True if a path exists in the simulated filesystem.
    fn path_exists(&self, path: &str) -> bool;

    /// Executes an external utility (paper §III WPF example:
    /// `utils.execute` invoking `iptables`-style commands). Returns
    /// `(exit_code, stdout)`.
    fn execute(&self, argv: &[String]) -> (i32, String);

    /// Called when the interpreted program registers a CPU hog, so the
    /// host can surface races (stale reads) the way the paper's §V-C
    /// high-CPU experiments did.
    fn note_hog(&self) {}

    /// Traced API invocations recorded so far (paper §IV-D
    /// visualization). Default: no tracing.
    fn trace_events(&self) -> Vec<TraceEvent> {
        Vec::new()
    }
}

/// A host with no network, an empty filesystem and no environment.
/// HTTP requests fail with [`TransportError::ConnectionRefused`].
#[derive(Debug, Default)]
pub struct NoopHost;

impl NoopHost {
    /// Creates an empty host.
    pub fn new() -> NoopHost {
        NoopHost
    }
}

impl HostApi for NoopHost {
    fn http_request(
        &self,
        _vm_now: f64,
        _method: &str,
        _url: &str,
        _body: &str,
        _timeout: f64,
    ) -> (Result<HttpResponse, TransportError>, f64) {
        (Err(TransportError::ConnectionRefused), 0.0)
    }

    fn getenv(&self, _name: &str) -> Option<String> {
        None
    }

    fn read_file(&self, path: &str) -> Result<String, String> {
        Err(format!("No such file or directory: '{path}'"))
    }

    fn write_file(&self, _path: &str, _contents: &str) -> Result<(), String> {
        Ok(())
    }

    fn path_exists(&self, _path: &str) -> bool {
        false
    }

    fn execute(&self, argv: &[String]) -> (i32, String) {
        (0, format!("executed: {}", argv.join(" ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_host_refuses_connections() {
        let h = NoopHost::new();
        let (r, _) = h.http_request(0.0, "GET", "http://127.0.0.1:2379/v2/keys/x", "", 1.0);
        assert_eq!(r, Err(TransportError::ConnectionRefused));
    }

    #[test]
    fn transport_errors_map_to_exception_classes() {
        assert_eq!(
            TransportError::Timeout.exception_class(),
            "ConnectTimeoutError"
        );
    }
}
