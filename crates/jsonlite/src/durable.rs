//! Durable files — the one place the workspace makes a state file
//! survive a crash and reads a damaged one back.
//!
//! The policy, in full:
//!
//! * **Rewrite** ([`replace`]): the new content goes to a temp file next
//!   to the target, is synced, and is renamed over it; then the
//!   directory is synced. A crash leaves the old file or the new one,
//!   never a truncated mix; a leftover `*.tmp` is garbage the next
//!   rewrite overwrites.
//! * **Append** ([`Log::append`]): one compact JSON value, one newline,
//!   and `sync_data` before the call returns, through a handle opened
//!   for it and closed with it — no open file outlives an append.
//! * **Load** ([`Log::load`]): the lines up to the first one that does
//!   not parse, or that the caller turns down, are the log; whatever
//!   follows is the torn tail of a crash mid-append and is reported, so
//!   the owner can [`Log::rewrite`] the file clean before appending
//!   again. Lines are read as bytes: a last line cut inside a
//!   multi-byte character is torn too.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::Value;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Atomically replaces the file at `path` with `bytes`: temp file in
/// the same directory → write → `sync_data` → rename → sync the
/// directory, so the rename itself survives a power loss. The directory
/// must exist.
///
/// # Errors
///
/// I/O errors; the file at `path` is untouched unless the rename
/// succeeded.
pub fn replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// An append-only JSON-lines log: one compact [`Value`] per line. It
/// holds no file open: each write opens the file at its path.
pub struct Log {
    path: PathBuf,
}

impl Log {
    /// Streams the valid prefix of the log at `path` through `accept`,
    /// one line's value alive at a time. Blank lines are skipped. The
    /// first line that is not JSON, or for which `accept` returns
    /// `false`, ends the prefix: nothing after it is read. So does a
    /// last line that is not UTF-8 — an append cut inside a multi-byte
    /// character. Returns whether the file needs a [`Log::rewrite`]
    /// before it is appended to — a line ended the prefix, or the last
    /// line lacks its newline. A missing file is an empty log.
    ///
    /// # Errors
    ///
    /// A failed read, and a line that is not UTF-8 with more lines
    /// after it, are errors, not a torn tail; `accept` has seen every
    /// line before them.
    pub fn load(path: &Path, mut accept: impl FnMut(Value) -> bool) -> io::Result<bool> {
        let mut reader = match File::open(path) {
            Ok(file) => BufReader::new(file),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        let mut bytes = Vec::new();
        loop {
            bytes.clear();
            if reader.read_until(b'\n', &mut bytes)? == 0 {
                return Ok(false);
            }
            let line = match std::str::from_utf8(&bytes) {
                Ok(line) => line,
                Err(_) if reader.fill_buf()?.is_empty() => return Ok(true),
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            };
            if line.trim().is_empty() {
                continue;
            }
            let accepted = crate::parse(line).is_ok_and(&mut accept);
            if !accepted || !line.ends_with('\n') {
                return Ok(true);
            }
        }
    }

    /// The log at `path`, for appending and rewriting. Touches nothing
    /// until the first write.
    pub fn at(path: &Path) -> Log {
        Log {
            path: path.to_path_buf(),
        }
    }

    /// Appends one line to the file at the log's path — whatever file
    /// is there now — and syncs it to disk before returning.
    ///
    /// # Errors
    ///
    /// I/O errors opening, writing or syncing the file.
    pub fn append(&self, line: &Value) -> io::Result<()> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let mut text = line.compact();
        text.push('\n');
        file.write_all(text.as_bytes())?;
        file.sync_data()
    }

    /// Replaces the whole log with `lines` ([`replace`]: the old content
    /// stays until the new one is durable).
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn rewrite(&self, lines: impl IntoIterator<Item = Value>) -> io::Result<()> {
        let mut text = String::new();
        for line in lines {
            text.push_str(&line.compact());
            text.push('\n');
        }
        replace(&self.path, text.as_bytes())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "jsonlite-durable-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    fn load_all(path: &Path) -> (Vec<Value>, bool) {
        let mut lines = Vec::new();
        let torn = Log::load(path, |v| {
            lines.push(v);
            true
        })
        .unwrap();
        (lines, torn)
    }

    #[test]
    fn appends_reload_and_a_rewrite_redirects_later_appends() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            load_all(&path),
            (Vec::new(), false),
            "a missing file is an empty log"
        );
        let log = Log::at(&path);
        log.append(&Value::obj(vec![("n", 1u64.into())])).unwrap();
        log.append(&Value::obj(vec![("n", 2u64.into())])).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"n\":1}\n{\"n\":2}\n"
        );
        log.rewrite([Value::obj(vec![("n", 9u64.into())])]).unwrap();
        log.append(&Value::obj(vec![("n", 3u64.into())])).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"n\":9}\n{\"n\":3}\n"
        );
        assert!(
            !path.with_extension("jsonl.tmp").exists(),
            "the temp file was renamed away"
        );
        let (lines, torn) = load_all(&path);
        assert_eq!(lines.len(), 2);
        assert!(!torn);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_append_reaches_the_file_now_at_the_path() {
        let path = temp_path("moved");
        let aside = path.with_extension("aside");
        let _ = std::fs::remove_file(&path);
        let log = Log::at(&path);
        log.append(&Value::obj(vec![("n", 1u64.into())])).unwrap();
        std::fs::rename(&path, &aside).unwrap();
        log.append(&Value::obj(vec![("n", 2u64.into())])).unwrap();
        assert_eq!(std::fs::read_to_string(&aside).unwrap(), "{\"n\":1}\n");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"n\":2}\n");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&aside);
    }

    #[test]
    fn the_first_bad_or_rejected_line_ends_the_prefix() {
        let path = temp_path("prefix");
        std::fs::write(&path, "{\"n\":1}\n\n{\"n\":2}\n{\"n\":3\n{\"n\":4}\n").unwrap();
        let (lines, torn) = load_all(&path);
        assert_eq!(
            lines.len(),
            2,
            "blank line skipped, unparsable line and its successors dropped"
        );
        assert!(torn);
        let mut seen = 0;
        let torn = Log::load(&path, |v| {
            seen += 1;
            v.req_u64("n") == Ok(1)
        })
        .unwrap();
        assert_eq!(
            (seen, torn),
            (2, true),
            "a rejected line is the last one read"
        );
        // A complete last line that lost only its newline still counts,
        // but an append would run into it: the file needs its rewrite.
        std::fs::write(&path, "{\"n\":1}\n{\"n\":2}").unwrap();
        let (lines, torn) = load_all(&path);
        assert_eq!((lines.len(), torn), (2, true));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_read_error_is_not_a_torn_tail() {
        let path = temp_path("utf8");
        // Not UTF-8 with a line after it: the file is damaged, not torn.
        std::fs::write(&path, b"{\"n\":1}\n\xff\xfe\n{\"n\":2}\n").unwrap();
        let mut seen = 0;
        let result = Log::load(&path, |_| {
            seen += 1;
            true
        });
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(seen, 1, "the lines before the error were delivered");

        // Not UTF-8 as the last line — with or without its newline, and
        // an append cut inside "é" — is a torn tail.
        for tail in [&b"\xff\xfe\n"[..], b"\xff\xfe", b"{\"s\":\"\xc3"] {
            let mut bytes = b"{\"n\":1}\n".to_vec();
            bytes.extend_from_slice(tail);
            std::fs::write(&path, &bytes).unwrap();
            let (lines, torn) = load_all(&path);
            assert_eq!((lines.len(), torn), (1, true), "{tail:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replace_swaps_the_content_and_leaves_no_temp_file() {
        let dir =
            std::env::temp_dir().join(format!("jsonlite-durable-replace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        replace(&path, b"old").unwrap();
        replace(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "no temp file left behind"
        );
        // No directory, no temp file: the error surfaces.
        assert!(replace(&dir.join("missing").join("state.json"), b"x").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
