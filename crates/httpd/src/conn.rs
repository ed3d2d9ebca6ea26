//! Per-connection state for the event loop: a nonblocking socket, the
//! bytes received so far, the response bytes still to write, and where
//! the connection is in its request/response cycle.
//!
//! A connection is a cheap state machine, not a thread:
//!
//! ```text
//!   Reading ──complete request──▶ Dispatched ──worker done──▶ Writing
//!      ▲                                                        │
//!      └───────────────── keep-alive (close=false) ─────────────┘
//! ```
//!
//! The event loop drives every transition; this module only owns the
//! buffering mechanics (nonblocking fill/flush, parse-and-consume).

use crate::http::{self, ParseStatus, Response};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Instant;

/// Per-fill read chunk; also bounds how much one connection can pull
/// in per event-loop cycle so a firehose peer cannot starve the rest.
const READ_CHUNK: usize = 8 * 1024;
const MAX_READ_PER_CYCLE: usize = 64 * 1024;

/// Where a connection is in its request/response cycle.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Waiting for (more of) the next request.
    Reading,
    /// A complete request is with a worker; awaiting its response.
    Dispatched,
    /// Draining response bytes to the socket.
    Writing {
        /// Close after the flush completes (vs. return to `Reading`).
        close: bool,
    },
}

/// What one nonblocking fill pass observed.
pub(crate) struct Fill {
    /// Bytes appended to the receive buffer.
    pub bytes: usize,
    /// The peer closed its write side (EOF).
    pub eof: bool,
    /// Hard I/O error — the connection is unusable.
    pub err: bool,
}

/// Outcome of one nonblocking flush pass.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Flush {
    /// Every queued byte is out.
    Done,
    /// The socket would block; more to write next cycle.
    Pending,
    /// Hard I/O error — the connection is unusable.
    Error,
}

/// One client connection owned by the event loop.
pub(crate) struct Conn {
    stream: TcpStream,
    /// State machine position.
    pub state: ConnState,
    /// Received, not-yet-consumed request bytes.
    buf: Vec<u8>,
    /// Serialized response bytes not yet written.
    out: Vec<u8>,
    out_pos: usize,
    /// When the first byte of the in-progress request arrived — the
    /// slowloris deadline anchor. `None` while idle between requests.
    pub started_at: Option<Instant>,
}

impl Conn {
    /// Adopts an accepted stream, switching it to nonblocking mode.
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            state: ConnState::Reading,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            started_at: None,
        })
    }

    /// The socket's descriptor, for the event loop's readiness wait.
    pub fn raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Pulls whatever the socket has ready into the receive buffer
    /// (bounded per cycle), without blocking.
    pub fn fill(&mut self) -> Fill {
        let mut fill = Fill {
            bytes: 0,
            eof: false,
            err: false,
        };
        let mut chunk = [0u8; READ_CHUNK];
        while fill.bytes < MAX_READ_PER_CYCLE {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    fill.eof = true;
                    break;
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    fill.bytes += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if http::is_timeout(&e) => break,
                Err(_) => {
                    fill.err = true;
                    break;
                }
            }
        }
        fill
    }

    /// Whether any request bytes are buffered.
    pub fn has_buffered_bytes(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Marks the in-progress request as started (deadline anchor) if
    /// bytes are buffered and it is not already marked.
    pub fn note_request_started(&mut self, now: Instant) {
        if !self.buf.is_empty() && self.started_at.is_none() {
            self.started_at = Some(now);
        }
    }

    /// Attempts to parse one complete request out of the buffer,
    /// consuming its bytes on success (leftovers are pipelined data).
    ///
    /// Each attempt re-parses from the start of the buffer. That is
    /// deliberate: the incremental path stays byte-for-byte identical
    /// to one-shot parsing by construction, and the rescan is bounded
    /// — the head is capped at `MAX_HEAD_BYTES` (16 KiB) and attempts
    /// only happen when new bytes arrive, so even a byte-dripping peer
    /// costs low single-digit MB of scanning across its whole
    /// request-timeout window.
    pub fn try_extract(&mut self, max_body_bytes: usize) -> ParseStatus {
        let status = http::try_parse(&self.buf, max_body_bytes);
        if let ParseStatus::Complete { used, .. } = &status {
            self.buf.drain(..*used);
        }
        status
    }

    /// Serializes a response into the write buffer and transitions to
    /// `Writing`. The deadline anchor is restarted: a peer that never
    /// reads its response gets `request_timeout` to drain it, the same
    /// budget it had to send the request — otherwise a stalled reader
    /// would pin a connection slot forever (and wedge shutdown, which
    /// waits for every connection to finish).
    pub fn queue_response(&mut self, response: &Response, close: bool) {
        self.out.clear();
        self.out_pos = 0;
        response
            .write_to(&mut self.out, close)
            .expect("writing to a Vec cannot fail");
        self.state = ConnState::Writing { close };
        self.started_at = Some(Instant::now());
    }

    /// Writes as much of the queued response as the socket accepts,
    /// without blocking.
    pub fn flush(&mut self) -> Flush {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Flush::Error,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if http::is_timeout(&e) => return Flush::Pending,
                Err(_) => return Flush::Error,
            }
        }
        Flush::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected loopback (server-side Conn, client-side stream) pair.
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (Conn::new(server).unwrap(), client)
    }

    #[test]
    fn byte_at_a_time_request_assembles() {
        let (mut conn, mut client) = pair();
        let raw = b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n";
        for (i, byte) in raw.iter().enumerate() {
            client.write_all(&[*byte]).unwrap();
            client.flush().unwrap();
            // Wait for the byte to land, then confirm the verdict.
            let deadline = Instant::now() + std::time::Duration::from_secs(5);
            loop {
                let fill = conn.fill();
                assert!(!fill.err);
                if fill.bytes > 0 {
                    break;
                }
                assert!(Instant::now() < deadline, "byte {i} never arrived");
                std::thread::yield_now();
            }
            match conn.try_extract(1024) {
                ParseStatus::Incomplete => assert!(i + 1 < raw.len(), "complete too early"),
                ParseStatus::Complete { request, .. } => {
                    assert_eq!(i + 1, raw.len(), "complete only on the last byte");
                    assert_eq!(request.path, "/x");
                    assert!(!conn.has_buffered_bytes());
                }
                other => panic!("unexpected verdict: {other:?}"),
            }
        }
    }

    #[test]
    fn fill_reports_eof_and_flush_delivers() {
        let (mut conn, mut client) = pair();
        client.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while !matches!(conn.try_extract(1024), ParseStatus::Complete { .. }) {
            assert!(Instant::now() < deadline);
            conn.fill();
        }
        conn.queue_response(&Response::text(200, "ok"), true);
        assert_eq!(conn.flush(), Flush::Done);
        drop(client);
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let fill = conn.fill();
            if fill.eof {
                break;
            }
            assert!(Instant::now() < deadline, "EOF never observed");
            std::thread::yield_now();
        }
    }
}
