//! `jsonlite` — a dependency-free JSON layer for the workspace.
//!
//! The build environment is offline (no serde), so persistence across the
//! workspace — fault models (§IV-A "the fault model is stored in a JSON
//! file"), the campaign queue, checkpoints, and the scan cache — goes
//! through this small crate instead:
//!
//! * [`Value`] — a JSON document (object keys keep insertion order).
//! * [`parse`] — a strict recursive-descent parser.
//! * [`Value::pretty`] / [`Value::compact`] — serializers.
//! * [`stable_hash64`] — a seed-independent FNV-1a content hash used for
//!   cross-campaign cache keys.
//!
//! Every codec in the workspace is written in one **field vocabulary**,
//! so a malformed document is described the same way whichever decoder
//! met it:
//!
//! * readers — [`Value::req`] (`missing field 'k'`), then
//!   [`Value::req_str`] / [`Value::req_u64`] / [`Value::req_f64`] /
//!   [`Value::req_bool`] (`field 'k' must be a <type>`),
//!   [`Value::req_list`] / [`Value::req_strs`] for arrays decoded
//!   element by element, and [`Value::opt`] for the tolerant wire fields
//!   where absent and `null` both mean "not sent";
//! * builders — [`Value::or_null`] for an `Option` and [`Value::arr`]
//!   for an iterator, over `From<&String | u64 | usize>` (the element
//!   types the codecs hold), next to [`Value::obj`] and [`Value::str`].
//!
//! And every state file is written through one module, [`durable`]:
//! [`durable::replace`] (temp file → sync → rename) and
//! [`durable::Log`], the JSON-lines log (append = line + sync, load =
//! valid prefix, rewrite = `replace`). No other crate opens a state file
//! for writing.

#![forbid(unsafe_code)]

pub mod durable;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer (fits i64, no fraction/exponent).
    Int(i64),
    /// Unsigned integer above `i64::MAX`.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric payload as u64 (integers only, non-negative).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            Value::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// Numeric payload as f64 (any number).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Required-field lookup with a path-flavoured error.
    ///
    /// # Errors
    ///
    /// Describes the missing key.
    pub fn req(&self, key: &str) -> Result<&Value, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    /// Required field read through `read`; a value `read` turns down is
    /// the one error shape every typed reader shares.
    fn req_as<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
        a_type: &str,
    ) -> Result<T, String> {
        read(self.req(key)?).ok_or_else(|| format!("field '{key}' must be {a_type}"))
    }

    /// Required string field.
    ///
    /// # Errors
    ///
    /// `missing field 'k'` or `field 'k' must be a string`.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.req_as(key, Value::as_str, "a string")
    }

    /// Required non-negative integer field.
    ///
    /// # Errors
    ///
    /// `missing field 'k'` or `field 'k' must be a u64`.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.req_as(key, Value::as_u64, "a u64")
    }

    /// Required numeric field (any JSON number).
    ///
    /// # Errors
    ///
    /// `missing field 'k'` or `field 'k' must be a number`.
    pub fn req_f64(&self, key: &str) -> Result<f64, String> {
        self.req_as(key, Value::as_f64, "a number")
    }

    /// Required boolean field.
    ///
    /// # Errors
    ///
    /// `missing field 'k'` or `field 'k' must be a bool`.
    pub fn req_bool(&self, key: &str) -> Result<bool, String> {
        self.req_as(key, Value::as_bool, "a bool")
    }

    /// Required array field, each element decoded by `item`.
    ///
    /// # Errors
    ///
    /// `missing field 'k'` or `field 'k' must be an array`; an element's
    /// own error is prefixed with the field it sits in.
    pub fn req_list<T>(
        &self,
        key: &str,
        item: impl FnMut(&Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.req_as(key, Value::as_arr, "an array")?;
        let items: Result<Vec<T>, String> = items.iter().map(item).collect();
        items.map_err(|e| format!("field '{key}': {e}"))
    }

    /// Required field holding an array of strings.
    ///
    /// # Errors
    ///
    /// `missing field 'k'` or `field 'k' must be an array of strings`.
    pub fn req_strs(&self, key: &str) -> Result<Vec<String>, String> {
        self.req_as(key, Value::as_strs, "an array of strings")
    }

    /// The elements as owned strings, if this is an array of strings.
    pub fn as_strs(&self) -> Option<Vec<String>> {
        self.as_arr()?
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect()
    }

    /// A field that may be left out: absent and `null` both read as
    /// `None`.
    pub fn opt(&self, key: &str) -> Option<&Value> {
        self.get(key).filter(|v| !matches!(v, Value::Null))
    }

    /// `Some(x)` as `x`'s value, `None` as `null`.
    pub fn or_null<T: Into<Value>>(value: Option<T>) -> Value {
        value.map_or(Value::Null, Into::into)
    }

    /// Builds an array from anything that iterates over values.
    pub fn arr<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Serializes with 2-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes without whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // Guarantee a re-parse as Float (never bare int syntax
                    // losing the type) while round-tripping the value.
                    // Rust's Display for f64 never uses an exponent and
                    // `{:.1}` is exact for integral floats, so both forms
                    // re-parse to the identical value.
                    if f.fract() == 0.0 {
                        let _ = write!(out, "{f:.1}");
                    } else {
                        let _ = write!(out, "{f}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Value::Obj(pairs) => write_seq(out, indent, '{', '}', pairs.len(), |out, i, ind| {
                write_escaped(out, &pairs[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                pairs[i].1.write(out, ind);
            }),
        }
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::Str(s.clone())
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::UInt(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::UInt(n as u64)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(level) = indent {
            out.push('\n');
            for _ in 0..(level + 1) * 2 {
                out.push(' ');
            }
        }
        item(out, i, indent.map(|l| l + 1));
    }
    if let Some(level) = indent {
        out.push('\n');
        for _ in 0..level * 2 {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting-depth limit applied by [`parse`]. Deep enough for any
/// artifact this workspace persists, shallow enough that a crafted
/// `[[[[…` network body cannot blow the recursive parser's stack.
pub const DEFAULT_MAX_DEPTH: usize = 128;

/// Parses a JSON document with the [`DEFAULT_MAX_DEPTH`] nesting limit.
///
/// # Errors
///
/// A human-readable description with a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    parse_with_depth_limit(text, DEFAULT_MAX_DEPTH)
}

/// Parses a JSON document, rejecting arrays/objects nested deeper than
/// `max_depth` — the knob for callers facing untrusted input (network
/// request bodies) or unusually deep trusted documents.
///
/// # Errors
///
/// A human-readable description with a byte offset.
pub fn parse_with_depth_limit(text: &str, max_depth: usize) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
        max_depth,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            ))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Value::Null),
            Some(b't') => self.eat_keyword("true", Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(format!(
                "nesting deeper than {} levels at byte {}",
                self.max_depth, self.pos
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest run without escapes/quotes.
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs: decode \uD800-\uDBFF + \uDC00-\uDFFF.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let lo_hex = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .ok_or_else(|| "truncated surrogate".to_string())?;
                                    let lo = u32::from_str_radix(
                                        std::str::from_utf8(lo_hex)
                                            .map_err(|_| "bad surrogate".to_string())?,
                                        16,
                                    )
                                    .map_err(|_| "bad surrogate".to_string())?;
                                    self.pos += 6;
                                    // The low half must actually be a low
                                    // surrogate; anything else is a lone
                                    // high surrogate (and subtracting
                                    // 0xDC00 from it would underflow).
                                    if (0xDC00..0xE000).contains(&lo) {
                                        let combined =
                                            0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(combined)
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| "invalid code point".to_string())?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                // RFC 8259: control characters must be escaped; a raw
                // one in an untrusted body is rejected, not absorbed.
                Some(_) => {
                    return Err(format!(
                        "unescaped control character in string at byte {}",
                        self.pos
                    ))
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

/// Seed-independent FNV-1a 64-bit hash of a byte string — stable across
/// processes and platforms, unlike `DefaultHasher`. Used for cache keys.
pub fn stable_hash64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Combines hashes order-sensitively (for multi-part cache keys).
pub fn combine_hash64(parts: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for b in part.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Renders a hash as fixed-width hex (cache file names, keys).
pub fn hex64(h: u64) -> String {
    format!("{h:016x}")
}

/// Sorts object keys recursively — canonical form for hashing.
pub fn canonicalize(v: &Value) -> Value {
    match v {
        Value::Arr(items) => Value::Arr(items.iter().map(canonicalize).collect()),
        Value::Obj(pairs) => {
            let sorted: BTreeMap<&String, &Value> =
                pairs.iter().map(|(k, v)| (k, v)).collect();
            Value::Obj(
                sorted
                    .into_iter()
                    .map(|(k, v)| (k.clone(), canonicalize(v)))
                    .collect(),
            )
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "1e3"] {
            let v = parse(text).unwrap();
            let back = parse(&v.compact()).unwrap();
            assert_eq!(v, back, "{text}");
        }
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
    }

    #[test]
    fn roundtrip_structures() {
        let v = Value::obj(vec![
            ("name", Value::str("campaign-A")),
            ("seed", Value::UInt(u64::MAX - 1)),
            ("nested", Value::Arr(vec![Value::Int(-3), Value::Null])),
            ("text", Value::str("line1\nline2\t\"quoted\" \\ done")),
            ("unicode", Value::str("héllo 🦀 \u{1}")),
        ]);
        for serialized in [v.pretty(), v.compact()] {
            assert_eq!(parse(&serialized).unwrap(), v);
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["z", "a"]);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("{not json").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn stable_hash_is_stable() {
        // Pinned value: must never change across runs or platforms —
        // cache keys persist on disk.
        assert_eq!(stable_hash64(b""), 0xcbf29ce484222325);
        assert_eq!(stable_hash64(b"profipy"), stable_hash64(b"profipy"));
        assert_ne!(stable_hash64(b"a"), stable_hash64(b"b"));
        assert_ne!(combine_hash64(&[1, 2]), combine_hash64(&[2, 1]));
    }

    #[test]
    fn canonical_form_sorts_keys() {
        let a = parse(r#"{"b": 1, "a": {"y": 2, "x": 3}}"#).unwrap();
        let b = parse(r#"{"a": {"x": 3, "y": 2}, "b": 1}"#).unwrap();
        assert_eq!(canonicalize(&a), canonicalize(&b));
        assert_eq!(
            stable_hash64(canonicalize(&a).compact().as_bytes()),
            stable_hash64(canonicalize(&b).compact().as_bytes())
        );
    }

    #[test]
    fn floats_reparse_as_floats() {
        for f in [2.0, -0.0, 1e16, -1e18, 4.0e300] {
            let v = Value::Float(f);
            assert_eq!(parse(&v.compact()).unwrap(), v, "{f}");
        }
    }
}
