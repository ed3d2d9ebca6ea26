//! Structured, leveled JSONL event log.
//!
//! Every event is one JSON object per line — `{"ts_ms":…,"level":…,
//! "event":…,…fields}` — written to stderr (default) or a file.
//! Configure via environment (`PROFIPY_LOG=stderr|<path>`,
//! `PROFIPY_LOG_LEVEL=debug|info|warn|error|off`) or programmatically
//! ([`set_file`], [`set_level`]). Emission is gated on an atomic level
//! check, so disabled events cost one load.
//!
//! Use through the [`crate::log!`] macro:
//!
//! ```
//! obs::log!(obs::Level::Info, "worker_registered", "worker" => "w1", "parallelism" => 2u64);
//! ```

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::thread::JoinHandle;
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity. Events below the configured level are dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn parse(s: &str) -> Option<u8> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug as u8),
            "info" => Some(Level::Info as u8),
            "warn" | "warning" => Some(Level::Warn as u8),
            "error" => Some(Level::Error as u8),
            "off" | "none" => Some(LEVEL_OFF),
            _ => None,
        }
    }
}

const LEVEL_OFF: u8 = 4;

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static ENV_INIT: Once = Once::new();

/// `None` = stderr; `Some(file)` = append to that file.
fn sink() -> &'static Mutex<Option<std::fs::File>> {
    static SINK: OnceLock<Mutex<Option<std::fs::File>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Applies `PROFIPY_LOG` / `PROFIPY_LOG_LEVEL` (first call wins; later
/// calls are no-ops so explicit [`set_level`]/[`set_file`] stick).
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(level) = std::env::var("PROFIPY_LOG_LEVEL") {
            if let Some(v) = Level::parse(&level) {
                LEVEL.store(v, Ordering::Relaxed);
            }
        }
        if let Ok(dest) = std::env::var("PROFIPY_LOG") {
            if !dest.is_empty() && dest != "stderr" {
                let _ = set_file(&dest);
            }
        }
    });
}

/// True if events at `level` would currently be emitted.
pub fn enabled(level: Level) -> bool {
    init_from_env();
    level as u8 >= LEVEL.load(Ordering::Relaxed)
}

/// Sets the minimum emitted level.
pub fn set_level(level: Level) {
    init_from_env(); // consume env first so it cannot override us later
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Disables the event log entirely.
pub fn disable() {
    init_from_env();
    LEVEL.store(LEVEL_OFF, Ordering::Relaxed);
}

/// Appends events to `path` instead of stderr.
pub fn set_file(path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    *sink().lock().unwrap() = Some(file);
    Ok(())
}

/// Reverts the sink to stderr.
pub fn set_stderr() {
    *sink().lock().unwrap() = None;
}

/// A typed field value; `From` impls cover the common primitives so
/// `log!` callers pass values directly.
#[derive(Clone, Debug)]
pub enum FieldValue {
    Str(String),
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}
impl From<&String> for FieldValue {
    fn from(v: &String) -> FieldValue {
        FieldValue::Str(v.clone())
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

/// One in-flight event, built field by field then [`emit`](Event::emit)ted.
pub struct Event {
    buf: String,
}

impl Event {
    pub fn new(level: Level, event: &str) -> Event {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let mut buf = String::with_capacity(96);
        buf.push_str("{\"ts_ms\":");
        buf.push_str(&ts_ms.to_string());
        buf.push_str(",\"level\":\"");
        buf.push_str(level.as_str());
        buf.push_str("\",\"event\":\"");
        push_escaped(&mut buf, event);
        buf.push('"');
        Event { buf }
    }

    pub fn field(mut self, key: &str, value: impl Into<FieldValue>) -> Event {
        self.buf.push_str(",\"");
        push_escaped(&mut self.buf, key);
        self.buf.push_str("\":");
        match value.into() {
            FieldValue::Str(s) => {
                self.buf.push('"');
                push_escaped(&mut self.buf, &s);
                self.buf.push('"');
            }
            FieldValue::U64(v) => self.buf.push_str(&v.to_string()),
            FieldValue::I64(v) => self.buf.push_str(&v.to_string()),
            FieldValue::F64(v) => {
                if v.is_finite() {
                    self.buf.push_str(&format!("{v}"));
                } else {
                    self.buf.push_str("null");
                }
            }
            FieldValue::Bool(v) => self.buf.push_str(if v { "true" } else { "false" }),
        }
        self
    }

    /// Writes the event as one line to the configured sink. Write
    /// errors are swallowed: telemetry must never take the service
    /// down.
    pub fn emit(self) {
        let line = self.into_line();
        let mut guard = sink().lock().unwrap();
        match guard.as_mut() {
            Some(file) => {
                let _ = writeln!(file, "{line}");
            }
            None => {
                let _ = writeln!(std::io::stderr().lock(), "{line}");
            }
        }
    }

    fn into_line(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn push_escaped(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
}

/// Joins `thread` and returns what it returned. If it panicked, logs
/// `event` at error level with the thread's name and the panic payload,
/// and returns `None`: a background thread that died took its work
/// with it, and that must not pass in silence.
pub fn join_logged<T>(thread: JoinHandle<T>, event: &str) -> Option<T> {
    let name = thread.thread().name().unwrap_or("unnamed").to_string();
    thread
        .join()
        .map_err(|panic| {
            let payload = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            crate::log!(Level::Error, event, "thread" => name, "error" => payload);
        })
        .ok()
}

/// Emits a structured event if `level` is enabled:
///
/// ```
/// obs::log!(obs::Level::Warn, "lease_expired", "worker" => "w1", "requeued" => 4u64);
/// ```
#[macro_export]
macro_rules! log {
    ($level:expr, $event:expr $(, $key:literal => $value:expr)* $(,)?) => {{
        let __level = $level;
        if $crate::log::enabled(__level) {
            #[allow(unused_mut)]
            let mut __event = $crate::log::Event::new(__level, $event);
            $( __event = __event.field($key, $value); )*
            __event.emit();
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_as_one_json_object_per_line() {
        let line = Event::new(Level::Warn, "upload_retry")
            .field("worker", "w\"1\"")
            .field("attempt", 3u64)
            .field("delta", -2i64)
            .field("ratio", 0.5f64)
            .field("fatal", false)
            .into_line();
        assert!(line.starts_with("{\"ts_ms\":"), "{line}");
        assert!(line.contains("\"level\":\"warn\""));
        assert!(line.contains("\"event\":\"upload_retry\""));
        assert!(line.contains("\"worker\":\"w\\\"1\\\"\""));
        assert!(line.contains("\"attempt\":3"));
        assert!(line.contains("\"delta\":-2"));
        assert!(line.contains("\"ratio\":0.5"));
        assert!(line.contains("\"fatal\":false"));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'), "newlines must be escaped");
    }

    #[test]
    fn join_logged_hands_back_a_result_and_survives_a_panic() {
        let finished = std::thread::spawn(|| 7);
        assert_eq!(join_logged(finished, "unused"), Some(7));
        let panicked = std::thread::Builder::new()
            .name("doomed".into())
            .spawn(|| -> u32 { panic!("boom") })
            .unwrap();
        assert_eq!(join_logged(panicked, "doomed_thread_panicked"), None);
    }

    #[test]
    fn control_characters_are_escaped() {
        let line = Event::new(Level::Error, "boom")
            .field("detail", "a\nb\tc\u{1}")
            .into_line();
        assert!(line.contains("a\\nb\\tc\\u0001"), "{line}");
    }

    #[test]
    fn file_sink_receives_events_and_level_gates() {
        let dir = std::env::temp_dir().join(format!("obs-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        set_file(&path).unwrap();
        set_level(Level::Warn);
        crate::log!(Level::Info, "dropped_by_level");
        crate::log!(Level::Error, "kept", "n" => 1u64);
        set_stderr();
        set_level(Level::Info);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"event\":\"kept\""), "{text}");
        assert!(!text.contains("dropped_by_level"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
