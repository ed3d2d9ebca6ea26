//! A minimal blocking HTTP/1.1 client: one persistent keep-alive
//! connection per [`Client`], transparent reconnect when the server
//! closed it. Used by the CLI, the loopback throughput bench, and the
//! integration tests — not a general-purpose user agent.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers (names lower-cased), arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A client bound to one server address.
pub struct Client {
    addr: String,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for `addr` (`host:port`); connects lazily.
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(30),
            conn: None,
        }
    }

    /// Overrides the per-operation socket timeout (builder-style).
    pub fn timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// Connection or protocol failure.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None, &[])
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// Connection or protocol failure.
    pub fn post_json(&mut self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some("application/json"), body.as_bytes())
    }

    /// An arbitrary request over the persistent connection, retrying
    /// once on a fresh connection if the kept-alive one went stale.
    ///
    /// The retry is restricted to connection-level failures (EOF or
    /// reset before a status line) on a *reused* connection — the
    /// signature of the server having closed the idle keep-alive
    /// socket before this request arrived. A timeout or a mid-response
    /// failure is NOT retried: the server may already have processed a
    /// non-idempotent request, and re-sending it would run it twice.
    ///
    /// # Errors
    ///
    /// Connection or protocol failure.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        let reused = self.conn.is_some();
        match self.try_request(method, path, content_type, body) {
            Ok(response) => Ok(response),
            Err(e) if reused && is_stale_connection(&e) => {
                self.conn = None;
                self.try_request(method, path, content_type, body)
            }
            Err(e) => {
                self.conn = None; // connection state is unknown; rebuild next call
                Err(e)
            }
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        if self.conn.is_none() {
            self.conn = Some(connect(&self.addr, self.timeout)?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let response = send_on(conn, &self.addr, method, path, content_type, body)?;
        if wants_close(&response) {
            self.conn = None;
        }
        Ok(response)
    }
}

/// Opens a fresh connection to `addr` with per-operation timeouts set.
pub(crate) fn connect(addr: &str, timeout: Duration) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    Ok(BufReader::new(stream))
}

/// Writes one request on an open connection and reads the response.
pub(crate) fn send_on(
    conn: &mut BufReader<TcpStream>,
    addr: &str,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> io::Result<ClientResponse> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    if let Some(ct) = content_type {
        head.push_str(&format!("Content-Type: {ct}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let stream = conn.get_mut();
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    read_response(conn)
}

/// Whether the server asked for this connection to be closed.
pub(crate) fn wants_close(response: &ClientResponse) -> bool {
    response
        .header("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

/// Whether an error means the kept-alive connection was already dead
/// (safe to retry) as opposed to the server failing mid-request (not
/// safe — it may have acted on the request).
///
/// Read-path errors matching these kinds can only come from
/// [`read_response`]'s before-the-status-line phase: once the status
/// line has arrived the server has visibly acted on the request, so
/// every later failure — clean EOF *and* reset/abort — is demoted to
/// `InvalidData`, precisely so this predicate cannot mistake a
/// half-delivered response for a stale connection and re-send a
/// non-idempotent request.
pub(crate) fn is_stale_connection(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
    )
}

fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<ClientResponse> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before status line",
        ));
    }
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line '{}'", line.trim_end()),
            )
        })?;
    // From here on the server has committed to a response: an EOF *or
    // reset* is a truncated response, not a stale keep-alive socket,
    // and must not surface with a retry-safe error kind.
    read_after_status(reader, status).map_err(|e| {
        if is_stale_connection(&e) {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("connection failed mid-response: {e}"),
            )
        } else {
            e
        }
    })
}

/// Reads headers + body once the status line is in. Callers demote any
/// connection-level error kind this returns (see [`read_response`]).
fn read_after_status(
    reader: &mut BufReader<TcpStream>,
    status: u16,
) -> io::Result<ClientResponse> {
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server closed the connection inside response headers",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    let mut filled = 0;
    while filled < length {
        match reader.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "server closed the connection mid-response body: \
                         got {filled} of {length} bytes"
                    ),
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mid_response_error_kinds_are_never_retry_safe() {
        // The demotion applied by read_response: every kind the stale
        // predicate would match must stop matching once wrapped.
        for kind in [
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::BrokenPipe,
        ] {
            let raw = io::Error::new(kind, "boom");
            assert!(is_stale_connection(&raw));
            let demoted = io::Error::new(
                io::ErrorKind::InvalidData,
                format!("connection failed mid-response: {raw}"),
            );
            assert!(
                !is_stale_connection(&demoted),
                "{kind:?} must not be retryable mid-response"
            );
        }
        // Timeouts were never retryable and stay that way.
        assert!(!is_stale_connection(&io::Error::from(io::ErrorKind::WouldBlock)));
    }
}
