//! The event loop's one blocking call: `poll(2)` over a set of
//! descriptors, plus the wake channel other threads use to end a wait
//! early.
//!
//! `std` links libc but wraps no readiness call, so this module
//! declares `poll` itself — the crate's only foreign function and the
//! workspace's only `unsafe` block (the crate root denies `unsafe_code`,
//! and [`wait`] alone allows it). Everything else about readiness stays
//! in safe code: the loop treats a return as "something may be ready"
//! and attempts nonblocking I/O on every registered connection, so which
//! descriptor fired is never read back (only whether the wake end did,
//! for the wake-up cause counter).

use std::io::{self, Write};
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

/// `POLLIN` — the same value on Linux, macOS and the BSDs.
pub(crate) const READABLE: c_short = 0x001;
/// `POLLOUT` — likewise.
pub(crate) const WRITABLE: c_short = 0x004;

/// POSIX `struct pollfd`: `int fd; short events; short revents;`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Registers interest in `events` on `fd`.
    pub fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported anything for this entry
    /// (readiness, hang-up or error).
    pub fn fired(&self) -> bool {
        self.revents != 0
    }
}

/// `nfds_t` is `unsigned long` on Linux and `unsigned int` on macOS and
/// the BSDs.
#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout` passes (`None`
/// = no limit). Returns how many entries fired; 0 means timed out.
///
/// # Errors
///
/// The OS error, `Interrupted` included — callers treat that one as a
/// spurious wake-up.
#[allow(unsafe_code)]
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    // Round up, and one more: a wait that ends a fraction of a
    // millisecond before its deadline would be followed by zero-length
    // waits until the deadline really passes.
    let timeout_ms = match timeout {
        Some(t) => c_int::try_from(t.as_millis().saturating_add(1)).unwrap_or(c_int::MAX),
        None => -1,
    };
    let nfds = NfdsT::try_from(fds.len()).expect("descriptor count fits nfds_t");
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `PollFd`, field for field POSIX `struct pollfd`; `nfds` is that
    // slice's length in the platform's `nfds_t` (declared per
    // `target_os` above), so the kernel reads `fd`/`events` and writes
    // `revents` inside the slice only, and keeps no pointer once the
    // call returns. A descriptor that is stale or closed is reported in
    // `revents` (`POLLNVAL`), never dereferenced.
    let rc = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    usize::try_from(rc).map_err(|_| io::Error::last_os_error())
}

/// The write end of the wake channel: ends the event loop's current (or
/// next) wait. Cheap to clone; every worker and the server handle hold
/// one.
#[derive(Clone)]
pub(crate) struct Waker(Arc<UnixStream>);

impl Waker {
    /// Makes the wake end readable. Call **after** publishing whatever
    /// the loop should notice (a completion sent, the stop flag set):
    /// the loop drains the wake end before it looks.
    pub fn wake(&self) {
        // Ignored on purpose: `WouldBlock` means the buffer is full of
        // wake-ups not yet drained, so the loop is waking anyway; any
        // other error means the loop is gone and nobody is waiting.
        let _ = (&*self.0).write(&[1]);
    }
}

/// A connected, nonblocking wake channel: the [`Waker`] and the end the
/// event loop waits on and drains.
///
/// # Errors
///
/// Socket-pair creation failures.
pub(crate) fn wake_channel() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker(Arc::new(tx)), rx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn wait_times_out_then_wakes() {
        let (waker, mut rx) = wake_channel().unwrap();
        let mut fds = [PollFd::new(rx.as_raw_fd(), READABLE)];
        let t0 = Instant::now();
        assert_eq!(wait(&mut fds, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(!fds[0].fired());

        // A wake sent before the wait ends it at once, however long the
        // timeout; several coalesce into one drain.
        waker.wake();
        waker.clone().wake();
        let mut fds = [PollFd::new(rx.as_raw_fd(), READABLE)];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].fired());
        let mut buf = [0u8; 8];
        assert_eq!(rx.read(&mut buf).unwrap(), 2);
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn a_full_wake_buffer_never_blocks_the_waker() {
        let (waker, _rx) = wake_channel().unwrap();
        // Far more wake-ups than any socket buffer holds, none drained.
        for _ in 0..100_000 {
            waker.wake();
        }
    }
}
