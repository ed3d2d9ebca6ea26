//! Indentation-aware lexer for the mini-Python subset.
//!
//! Produces a token stream with explicit [`TokenKind::Newline`],
//! [`TokenKind::Indent`] and [`TokenKind::Dedent`] tokens, mirroring
//! CPython's tokenizer. Blank lines and comment-only lines emit no
//! tokens; indentation is ignored inside brackets.
//!
//! The lexer walks the source's bytes: everything it branches on is
//! ASCII, so a multi-byte character is only ever decoded where an
//! identifier may start or continue, and identifiers, numbers and
//! escape-free strings are sliced out of the input. Columns still
//! count characters, not bytes.

use crate::error::{ParseError, Pos, Span};
use crate::token::{Keyword, Op, Token, TokenKind};
use std::borrow::Cow;

#[cfg(test)]
mod reference;

/// Lexes an entire source file into a token vector (terminated by
/// [`TokenKind::Eof`]).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed numbers, unterminated strings,
/// inconsistent indentation, or unexpected characters.
pub fn lex(source: &str, file: &str) -> Result<Vec<Token>, ParseError> {
    Lexer::new(source, file).run()
}

struct Lexer<'s> {
    src: &'s str,
    /// Byte offset into `src`, always on a character boundary except
    /// while a string literal's body is being scanned.
    pos: usize,
    line: u32,
    /// 0-based column, in characters.
    col: u32,
    file: &'s str,
    tokens: Vec<Token>,
    indents: Vec<u32>,
    bracket_depth: usize,
    at_line_start: bool,
}

/// True for every byte that starts a character (all but UTF-8
/// continuation bytes): the bytes a column counts.
fn starts_char(b: u8) -> bool {
    b & 0xC0 != 0x80
}

/// A numeric literal's digits without the `_` separators.
fn without_underscores(text: &str) -> Cow<'_, str> {
    if text.contains('_') {
        Cow::Owned(text.chars().filter(|c| *c != '_').collect())
    } else {
        Cow::Borrowed(text)
    }
}

impl<'s> Lexer<'s> {
    fn new(source: &'s str, file: &'s str) -> Lexer<'s> {
        Lexer {
            src: source,
            pos: 0,
            line: 1,
            col: 0,
            file,
            // About one token per four bytes of source, measured on
            // the catalog targets: one allocation instead of a dozen
            // doublings.
            tokens: Vec::with_capacity(source.len() / 4 + 8),
            indents: vec![0],
            bracket_depth: 0,
            at_line_start: true,
        }
    }

    fn here(&self) -> Pos {
        Pos::new(self.line, self.col)
    }

    /// The byte `ahead` positions past the current one.
    fn byte(&self, ahead: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + ahead).copied()
    }

    /// Steps over `n` ASCII bytes, none of them a newline.
    fn advance(&mut self, n: usize) {
        self.pos += n;
        self.col += n as u32;
    }

    /// Steps over the newline at the current position.
    fn advance_newline(&mut self) {
        self.pos += 1;
        self.line += 1;
        self.col = 0;
    }

    /// Decodes and steps over the character at the current position.
    fn bump_char(&mut self) -> Option<char> {
        let c = self.src[self.pos..].chars().next()?;
        if c == '\n' {
            self.advance_newline();
        } else {
            self.pos += c.len_utf8();
            self.col += 1;
        }
        Some(c)
    }

    /// Steps to the end of the line (not over its newline).
    fn skip_comment(&mut self) {
        let rest = &self.src[self.pos..];
        let len = rest.find('\n').unwrap_or(rest.len());
        self.col += rest[..len].chars().count() as u32;
        self.pos += len;
    }

    fn err(&self, msg: impl Into<String>, lo: Pos) -> ParseError {
        ParseError::new(msg, Span::new(lo, self.here()), self.file)
    }

    fn push(&mut self, kind: TokenKind, lo: Pos) {
        let span = Span::new(lo, self.here());
        self.tokens.push(Token { kind, span });
    }

    fn run(mut self) -> Result<Vec<Token>, ParseError> {
        while self.pos < self.src.len() {
            if self.at_line_start && self.bracket_depth == 0 {
                self.handle_indentation()?;
            }
            let lo = self.here();
            let Some(b) = self.byte(0) else {
                break;
            };
            match b {
                b'\n' => {
                    self.advance_newline();
                    if self.bracket_depth == 0 {
                        // Collapse consecutive newlines.
                        if !matches!(
                            self.tokens.last().map(|t| &t.kind),
                            Some(TokenKind::Newline) | None
                        ) {
                            self.push(TokenKind::Newline, lo);
                        }
                        self.at_line_start = true;
                    }
                }
                b' ' | b'\t' | b'\r' => self.advance(1),
                b'#' => self.skip_comment(),
                b'\\' if self.byte(1) == Some(b'\n') => {
                    self.advance(1);
                    self.advance_newline();
                }
                b'"' | b'\'' => self.lex_string()?,
                b'0'..=b'9' => self.lex_number()?,
                b'.' if self.byte(1).is_some_and(|n| n.is_ascii_digit()) => self.lex_number()?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(),
                0x80..
                    if self.src[self.pos..]
                        .chars()
                        .next()
                        .is_some_and(char::is_alphabetic) =>
                {
                    self.lex_ident();
                }
                _ => self.lex_op()?,
            }
        }
        // Final newline + dedents.
        if !matches!(
            self.tokens.last().map(|t| &t.kind),
            Some(TokenKind::Newline) | None
        ) {
            let lo = self.here();
            self.push(TokenKind::Newline, lo);
        }
        while self.indents.len() > 1 {
            self.indents.pop();
            let lo = self.here();
            self.push(TokenKind::Dedent, lo);
        }
        let lo = self.here();
        self.push(TokenKind::Eof, lo);
        Ok(self.tokens)
    }

    fn handle_indentation(&mut self) -> Result<(), ParseError> {
        loop {
            let lo = self.here();
            let mut width = 0u32;
            loop {
                match self.byte(0) {
                    Some(b' ') => width += 1,
                    Some(b'\t') => width += 8 - (width % 8),
                    _ => break,
                }
                self.advance(1);
            }
            match self.byte(0) {
                // Blank or comment-only line: swallow it entirely.
                Some(b'\n') => self.advance_newline(),
                Some(b'\r') if self.byte(1) == Some(b'\n') => {
                    self.advance(1);
                    self.advance_newline();
                }
                Some(b'#') => self.skip_comment(),
                None => {
                    self.at_line_start = false;
                    return Ok(());
                }
                Some(_) => {
                    let current = *self.indents.last().expect("indent stack never empty");
                    if width > current {
                        self.indents.push(width);
                        self.push(TokenKind::Indent, lo);
                    } else if width < current {
                        while *self.indents.last().expect("indent stack never empty") > width {
                            self.indents.pop();
                            self.push(TokenKind::Dedent, lo);
                        }
                        if *self.indents.last().expect("indent stack never empty") != width {
                            return Err(self.err("inconsistent dedent", lo));
                        }
                    }
                    self.at_line_start = false;
                    return Ok(());
                }
            }
        }
    }

    fn lex_string(&mut self) -> Result<(), ParseError> {
        let lo = self.here();
        let src = self.src;
        let quote = self.byte(0).expect("caller checked quote");
        let triple = self.byte(1) == Some(quote) && self.byte(2) == Some(quote);
        self.advance(if triple { 3 } else { 1 });
        // The decoded text, once an escape makes it differ from the
        // input; until then the literal's body is `src[run..pos]`.
        let mut decoded: Option<String> = None;
        let mut run = self.pos;
        let end = loop {
            let Some(b) = self.byte(0) else {
                return Err(self.err("unterminated string literal", lo));
            };
            match b {
                _ if b == quote && !triple => {
                    self.advance(1);
                    break self.pos - 1;
                }
                _ if b == quote && self.byte(1) == Some(quote) && self.byte(2) == Some(quote) => {
                    self.advance(3);
                    break self.pos - 3;
                }
                b'\n' if !triple => {
                    return Err(self.err("newline in single-quoted string", lo));
                }
                b'\n' => self.advance_newline(),
                b'\\' => {
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(&src[run..self.pos]);
                    self.advance(1);
                    let Some(esc) = self.bump_char() else {
                        return Err(self.err("unterminated escape", lo));
                    };
                    match esc {
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        '0' => out.push('\0'),
                        '\\' => out.push('\\'),
                        '\'' => out.push('\''),
                        '"' => out.push('"'),
                        '\n' => {}
                        other => {
                            // Unknown escapes are kept verbatim, like CPython.
                            out.push('\\');
                            out.push(other);
                        }
                    }
                    run = self.pos;
                }
                _ => {
                    self.pos += 1;
                    self.col += u32::from(starts_char(b));
                }
            }
        };
        let text = match decoded {
            Some(mut out) => {
                out.push_str(&src[run..end]);
                out
            }
            None => src[run..end].to_string(),
        };
        self.push(TokenKind::Str(text), lo);
        Ok(())
    }

    fn lex_number(&mut self) -> Result<(), ParseError> {
        let lo = self.here();
        let src = self.src;
        // Hex literal.
        if self.byte(0) == Some(b'0') && matches!(self.byte(1), Some(b'x' | b'X')) {
            self.advance(2);
            let start = self.pos;
            while self
                .byte(0)
                .is_some_and(|b| b.is_ascii_hexdigit() || b == b'_')
            {
                self.advance(1);
            }
            let value = i64::from_str_radix(&without_underscores(&src[start..self.pos]), 16)
                .map_err(|e| self.err(format!("invalid hex literal: {e}"), lo))?;
            self.push(TokenKind::Int(value), lo);
            return Ok(());
        }
        let start = self.pos;
        let mut is_float = false;
        loop {
            match self.byte(0) {
                Some(b'0'..=b'9' | b'_') => self.advance(1),
                Some(b'.') if !is_float && self.byte(1) != Some(b'.') => {
                    is_float = true;
                    self.advance(1);
                }
                Some(b'e' | b'E')
                    if self
                        .byte(1)
                        .is_some_and(|n| n.is_ascii_digit() || n == b'+' || n == b'-') =>
                {
                    is_float = true;
                    self.advance(1);
                    if matches!(self.byte(0), Some(b'+' | b'-')) {
                        self.advance(1);
                    }
                }
                _ => break,
            }
        }
        let text = without_underscores(&src[start..self.pos]);
        let kind = if is_float {
            let v: f64 = text
                .parse()
                .map_err(|e| self.err(format!("invalid float literal: {e}"), lo))?;
            TokenKind::Float(v)
        } else {
            let v: i64 = text
                .parse()
                .map_err(|e| self.err(format!("invalid integer literal: {e}"), lo))?;
            TokenKind::Int(v)
        };
        self.push(kind, lo);
        Ok(())
    }

    fn lex_ident(&mut self) {
        let lo = self.here();
        let src = self.src;
        let start = self.pos;
        // The ASCII run first — all of most identifiers — then
        // character by character once a multi-byte one shows up.
        let ascii = src.as_bytes()[start..]
            .iter()
            .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
            .count();
        self.advance(ascii);
        if self.byte(0).is_some_and(|b| b >= 0x80) {
            let rest = &src[self.pos..];
            let len = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            self.col += rest[..len].chars().count() as u32;
            self.pos += len;
        }
        let text = &src[start..self.pos];
        let kind = match Keyword::from_text(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text.to_string()),
        };
        self.push(kind, lo);
    }

    fn lex_op(&mut self) -> Result<(), ParseError> {
        let lo = self.here();
        let next = self.byte(1);
        // The operator and how many bytes spell it.
        let (op, len) = match self.byte(0).expect("caller checked non-empty") {
            b'+' if next == Some(b'=') => (Op::PlusAssign, 2),
            b'+' => (Op::Plus, 1),
            b'-' if next == Some(b'=') => (Op::MinusAssign, 2),
            b'-' if next == Some(b'>') => (Op::Arrow, 2),
            b'-' => (Op::Minus, 1),
            b'*' if next == Some(b'*') => (Op::DoubleStar, 2),
            b'*' if next == Some(b'=') => (Op::StarAssign, 2),
            b'*' => (Op::Star, 1),
            b'/' if next == Some(b'/') && self.byte(2) == Some(b'=') => (Op::DoubleSlashAssign, 3),
            b'/' if next == Some(b'/') => (Op::DoubleSlash, 2),
            b'/' if next == Some(b'=') => (Op::SlashAssign, 2),
            b'/' => (Op::Slash, 1),
            b'%' if next == Some(b'=') => (Op::PercentAssign, 2),
            b'%' => (Op::Percent, 1),
            b'@' => (Op::At, 1),
            b'&' => (Op::Amp, 1),
            b'|' => (Op::Pipe, 1),
            b'^' => (Op::Caret, 1),
            b'~' => (Op::Tilde, 1),
            b'<' if next == Some(b'=') => (Op::Le, 2),
            b'<' if next == Some(b'<') => (Op::Shl, 2),
            b'<' => (Op::Lt, 1),
            b'>' if next == Some(b'=') => (Op::Ge, 2),
            b'>' if next == Some(b'>') => (Op::Shr, 2),
            b'>' => (Op::Gt, 1),
            b'=' if next == Some(b'=') => (Op::Eq, 2),
            b'=' => (Op::Assign, 1),
            b'!' if next == Some(b'=') => (Op::Ne, 2),
            b'(' => (Op::LParen, 1),
            b')' => (Op::RParen, 1),
            b'[' => (Op::LBracket, 1),
            b']' => (Op::RBracket, 1),
            b'{' => (Op::LBrace, 1),
            b'}' => (Op::RBrace, 1),
            b',' => (Op::Comma, 1),
            b':' => (Op::Colon, 1),
            b'.' => (Op::Dot, 1),
            b';' => (Op::Semicolon, 1),
            _ => {
                let other = self.bump_char().expect("caller checked non-empty");
                return Err(self.err(format!("unexpected character `{other}`"), lo));
            }
        };
        match op {
            Op::LParen | Op::LBracket | Op::LBrace => self.bracket_depth += 1,
            Op::RParen | Op::RBracket | Op::RBrace => {
                self.bracket_depth = self.bracket_depth.saturating_sub(1);
            }
            _ => {}
        }
        self.advance(len);
        self.push(TokenKind::Op(op), lo);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src, "t.py").unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_assignment() {
        let k = kinds("x = 1\n");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Op(Op::Assign),
                TokenKind::Int(1),
                TokenKind::Newline,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn indentation_produces_indent_dedent() {
        let k = kinds("if a:\n    b = 1\nc = 2\n");
        assert!(k.contains(&TokenKind::Indent));
        assert!(k.contains(&TokenKind::Dedent));
    }

    #[test]
    fn nested_blocks_emit_matching_dedents() {
        let k = kinds("if a:\n    if b:\n        c = 1\n");
        let indents = k.iter().filter(|t| **t == TokenKind::Indent).count();
        let dedents = k.iter().filter(|t| **t == TokenKind::Dedent).count();
        assert_eq!(indents, 2);
        assert_eq!(dedents, 2);
    }

    #[test]
    fn brackets_suppress_newlines() {
        let k = kinds("f(a,\n  b)\n");
        let newlines = k.iter().filter(|t| **t == TokenKind::Newline).count();
        assert_eq!(newlines, 1);
    }

    #[test]
    fn blank_and_comment_lines_are_skipped() {
        let k = kinds("a = 1\n\n# comment\n   # indented comment\nb = 2\n");
        assert!(!k.contains(&TokenKind::Indent));
        let newlines = k.iter().filter(|t| **t == TokenKind::Newline).count();
        assert_eq!(newlines, 2);
    }

    #[test]
    fn string_escapes_decode() {
        let k = kinds(r#"s = "a\nb\t\"q\"""#);
        assert!(k.contains(&TokenKind::Str("a\nb\t\"q\"".into())));
    }

    #[test]
    fn triple_quoted_string() {
        let k = kinds("s = \"\"\"line1\nline2\"\"\"\n");
        assert!(k.contains(&TokenKind::Str("line1\nline2".into())));
    }

    #[test]
    fn numbers_int_float_hex() {
        let k = kinds("a = 42\nb = 3.5\nc = 0xff\nd = 1e3\n");
        assert!(k.contains(&TokenKind::Int(42)));
        assert!(k.contains(&TokenKind::Float(3.5)));
        assert!(k.contains(&TokenKind::Int(255)));
        assert!(k.contains(&TokenKind::Float(1000.0)));
    }

    #[test]
    fn keywords_recognized() {
        let k = kinds("def f():\n    return None\n");
        assert!(k.contains(&TokenKind::Keyword(Keyword::Def)));
        assert!(k.contains(&TokenKind::Keyword(Keyword::Return)));
        assert!(k.contains(&TokenKind::Keyword(Keyword::None)));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("s = \"abc\n", "t.py").is_err());
    }

    #[test]
    fn inconsistent_dedent_is_error() {
        assert!(lex("if a:\n        b = 1\n   c = 2\n", "t.py").is_err());
    }

    #[test]
    fn line_continuation_backslash() {
        let k = kinds("a = 1 + \\\n    2\n");
        let newlines = k.iter().filter(|t| **t == TokenKind::Newline).count();
        assert_eq!(newlines, 1);
        assert!(!k.contains(&TokenKind::Indent));
    }

    #[test]
    fn two_char_operators() {
        let k = kinds("a == b != c <= d >= e // f ** g\n");
        assert!(k.contains(&TokenKind::Op(Op::Eq)));
        assert!(k.contains(&TokenKind::Op(Op::Ne)));
        assert!(k.contains(&TokenKind::Op(Op::Le)));
        assert!(k.contains(&TokenKind::Op(Op::Ge)));
        assert!(k.contains(&TokenKind::Op(Op::DoubleSlash)));
        assert!(k.contains(&TokenKind::Op(Op::DoubleStar)));
    }

    #[test]
    fn crlf_blank_line_inside_a_block_is_blank() {
        let crlf = "def f():\r\n    x = 1\r\n\r\n    y = 2\r\n  \t\r\n    z = 3\r\n";
        assert_eq!(kinds(crlf), kinds(&crlf.replace("\r\n", "\n")));
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        let tokens = lex("été = 'ß' # ü\nx", "t.py").unwrap();
        let spans: Vec<(u32, u32)> = tokens
            .iter()
            .map(|t| (t.span.lo.col, t.span.hi.col))
            .collect();
        // été, =, 'ß', newline (after the comment), x, newline, eof
        assert_eq!(
            spans,
            [(0, 3), (4, 5), (6, 9), (13, 0), (0, 1), (1, 1), (1, 1)]
        );
        assert_eq!(tokens[0].kind, TokenKind::Ident("été".into()));
    }

    /// Pieces that, strung together, reach every branch of the lexer:
    /// both newline styles, tabs and ragged indentation, continuations,
    /// every string form (escapes, triple quotes, unterminated), numbers
    /// well and ill formed, non-ASCII identifiers and non-ASCII junk.
    #[rustfmt::skip]
    const FRAGMENTS: &[&str] = &[
        "x", "self", "_a1", "été", "变量", "naïve_9", "if", "not", "in", "None", "lambda",
        " ", "  ", "    ", "\t", " \t", "\n", "\r\n", "\r", "\n\n", "\\\n", "\\\r\n", "\\",
        "# note\n", "#é\r\n", "#",
        "0", "42", "1_000", "3.5", ".5", "1.", "1..2", "1e3", "1E-2", "1e+", "0xff", "0X_f", "0x",
        "99999999999999999999", "1__2", "7e5e2",
        "'a'", "\"b\"", "''", "'é'", "'a\\nb'", "'\\q'", "'\\\n'", "'x\\", "\"\"\"doc\nstring\"\"\"",
        "'''a'b''c'''", "'open", "\"\"\"open\n", "'a\nb'", "\"a\r\nb\"", "'\\é'", "\"\"\"\\\"\"\"\"",
        "+", "-", "*", "**", "/", "//", "//=", "%", "@", "&", "|", "^", "~", "<<", ">>", "<", ">",
        "<=", ">=", "==", "!=", "!", "=", "+=", "-=", "*=", "/=", "%=", "->",
        "(", ")", "[", "]", "{", "}", ",", ":", ".", ";", "$", "?", "`", "\u{a0}", "€", "\u{7f}",
    ];

    /// Both lexers on one source: the same tokens — kinds, payloads,
    /// spans — or the same error.
    fn agree(source: &str) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::prop_assert_eq;
        prop_assert_eq!(lex(source, "p.py"), reference::lex(source, "p.py"));
        Ok(())
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn byte_lexer_agrees_with_the_char_lexer_on_fragment_soup(
                picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..48),
            ) {
                let source: String = picks.iter().map(|i| FRAGMENTS[*i]).collect();
                agree(&source)?;
            }

            #[test]
            fn byte_lexer_agrees_with_the_char_lexer_on_indented_programs(
                lines in proptest::collection::vec(
                    (0usize..4, proptest::collection::vec(0usize..FRAGMENTS.len(), 0..6), any::<bool>()),
                    0..16,
                ),
            ) {
                let mut source = String::new();
                for (depth, picks, crlf) in &lines {
                    source.push_str(&"    ".repeat(*depth));
                    for i in picks {
                        source.push_str(FRAGMENTS[*i]);
                        source.push(' ');
                    }
                    source.push_str(if *crlf { "\r\n" } else { "\n" });
                }
                agree(&source)?;
            }

            #[test]
            fn arbitrary_bytes_never_panic_and_lex_the_same(
                bytes in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                agree(&String::from_utf8_lossy(&bytes))?;
                // The parser sits on the same stream: it must reject or
                // accept, never panic.
                let _ = crate::parse_module(&String::from_utf8_lossy(&bytes), "p.py");
            }
        }
    }
}
