//! The char-at-a-time lexer the byte lexer replaced, kept as the
//! reference the property tests compare it against: token kinds,
//! payloads and spans must be equal, or the error must be. It is the
//! parent's code unchanged but for the CRLF blank-line fix both lexers
//! share. Compiled for tests only.

use crate::error::{ParseError, Pos, Span};
use crate::token::{Keyword, Op, Token, TokenKind};

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
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    file: &'s str,
    tokens: Vec<Token>,
    indents: Vec<u32>,
    bracket_depth: usize,
    at_line_start: bool,
}

impl<'s> Lexer<'s> {
    fn new(source: &str, file: &'s str) -> Lexer<'s> {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            col: 0,
            file,
            tokens: Vec::new(),
            indents: vec![0],
            bracket_depth: 0,
            at_line_start: true,
        }
    }

    fn here(&self) -> Pos {
        Pos::new(self.line, self.col)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn peek3(&self) -> Option<char> {
        self.chars.get(self.pos + 2).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 0;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, msg: impl Into<String>, lo: Pos) -> ParseError {
        ParseError::new(msg, Span::new(lo, self.here()), self.file)
    }

    fn push(&mut self, kind: TokenKind, lo: Pos) {
        let span = Span::new(lo, self.here());
        self.tokens.push(Token { kind, span });
    }

    fn run(mut self) -> Result<Vec<Token>, ParseError> {
        while self.pos < self.chars.len() {
            if self.at_line_start && self.bracket_depth == 0 {
                self.handle_indentation()?;
                if self.pos >= self.chars.len() {
                    break;
                }
            }
            let lo = self.here();
            let c = match self.peek() {
                Some(c) => c,
                None => break,
            };
            match c {
                '\n' => {
                    self.bump();
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
                ' ' | '\t' | '\r' => {
                    self.bump();
                }
                '#' => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                '\\' if self.peek2() == Some('\n') => {
                    self.bump();
                    self.bump();
                }
                '"' | '\'' => self.lex_string()?,
                c if c.is_ascii_digit() => self.lex_number()?,
                '.' if self.peek2().is_some_and(|c| c.is_ascii_digit()) => self.lex_number()?,
                c if c.is_alphabetic() || c == '_' => self.lex_ident(),
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
            while let Some(c) = self.peek() {
                match c {
                    ' ' => {
                        width += 1;
                        self.bump();
                    }
                    '\t' => {
                        width += 8 - (width % 8);
                        self.bump();
                    }
                    _ => break,
                }
            }
            match self.peek() {
                // Blank or comment-only line: swallow it entirely.
                Some('\n') => {
                    self.bump();
                    continue;
                }
                Some('\r') if self.peek2() == Some('\n') => {
                    self.bump();
                    self.bump();
                    continue;
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                    continue;
                }
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
        let quote = self.bump().expect("caller checked quote");
        // Triple-quoted?
        let triple = self.peek() == Some(quote) && self.peek2() == Some(quote);
        if triple {
            self.bump();
            self.bump();
        }
        let mut out = String::new();
        loop {
            let c = match self.peek() {
                Some(c) => c,
                None => return Err(self.err("unterminated string literal", lo)),
            };
            if triple {
                if c == quote && self.peek2() == Some(quote) && self.peek3() == Some(quote) {
                    self.bump();
                    self.bump();
                    self.bump();
                    break;
                }
            } else if c == quote {
                self.bump();
                break;
            } else if c == '\n' {
                return Err(self.err("newline in single-quoted string", lo));
            }
            if c == '\\' {
                self.bump();
                let esc = self
                    .bump()
                    .ok_or_else(|| self.err("unterminated escape", lo))?;
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
            } else {
                out.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::Str(out), lo);
        Ok(())
    }

    fn lex_number(&mut self) -> Result<(), ParseError> {
        let lo = self.here();
        let mut text = String::new();
        let mut is_float = false;
        // Hex literal.
        if self.peek() == Some('0') && matches!(self.peek2(), Some('x') | Some('X')) {
            self.bump();
            self.bump();
            let mut hex = String::new();
            while let Some(c) = self.peek() {
                if c.is_ascii_hexdigit() || c == '_' {
                    if c != '_' {
                        hex.push(c);
                    }
                    self.bump();
                } else {
                    break;
                }
            }
            let value = i64::from_str_radix(&hex, 16)
                .map_err(|e| self.err(format!("invalid hex literal: {e}"), lo))?;
            self.push(TokenKind::Int(value), lo);
            return Ok(());
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == '_' {
                if c != '_' {
                    text.push(c);
                }
                self.bump();
            } else if c == '.' && !is_float && self.peek2() != Some('.') {
                is_float = true;
                text.push('.');
                self.bump();
            } else if (c == 'e' || c == 'E')
                && self
                    .peek2()
                    .is_some_and(|n| n.is_ascii_digit() || n == '+' || n == '-')
            {
                is_float = true;
                text.push(c);
                self.bump();
                if matches!(self.peek(), Some('+') | Some('-')) {
                    text.push(self.bump().expect("sign present"));
                }
            } else {
                break;
            }
        }
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
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        let kind = match Keyword::from_text(&text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text),
        };
        self.push(kind, lo);
    }

    fn lex_op(&mut self) -> Result<(), ParseError> {
        let lo = self.here();
        let c = self.bump().expect("caller checked non-empty");
        let two = |l: &Lexer<'_>| l.peek();
        let op = match c {
            '+' => {
                if two(self) == Some('=') {
                    self.bump();
                    Op::PlusAssign
                } else {
                    Op::Plus
                }
            }
            '-' => match two(self) {
                Some('=') => {
                    self.bump();
                    Op::MinusAssign
                }
                Some('>') => {
                    self.bump();
                    Op::Arrow
                }
                _ => Op::Minus,
            },
            '*' => match two(self) {
                Some('*') => {
                    self.bump();
                    Op::DoubleStar
                }
                Some('=') => {
                    self.bump();
                    Op::StarAssign
                }
                _ => Op::Star,
            },
            '/' => match two(self) {
                Some('/') => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        Op::DoubleSlashAssign
                    } else {
                        Op::DoubleSlash
                    }
                }
                Some('=') => {
                    self.bump();
                    Op::SlashAssign
                }
                _ => Op::Slash,
            },
            '%' => {
                if two(self) == Some('=') {
                    self.bump();
                    Op::PercentAssign
                } else {
                    Op::Percent
                }
            }
            '@' => Op::At,
            '&' => Op::Amp,
            '|' => Op::Pipe,
            '^' => Op::Caret,
            '~' => Op::Tilde,
            '<' => match two(self) {
                Some('=') => {
                    self.bump();
                    Op::Le
                }
                Some('<') => {
                    self.bump();
                    Op::Shl
                }
                _ => Op::Lt,
            },
            '>' => match two(self) {
                Some('=') => {
                    self.bump();
                    Op::Ge
                }
                Some('>') => {
                    self.bump();
                    Op::Shr
                }
                _ => Op::Gt,
            },
            '=' => {
                if two(self) == Some('=') {
                    self.bump();
                    Op::Eq
                } else {
                    Op::Assign
                }
            }
            '!' => {
                if two(self) == Some('=') {
                    self.bump();
                    Op::Ne
                } else {
                    return Err(self.err("unexpected character `!`", lo));
                }
            }
            '(' => {
                self.bracket_depth += 1;
                Op::LParen
            }
            ')' => {
                self.bracket_depth = self.bracket_depth.saturating_sub(1);
                Op::RParen
            }
            '[' => {
                self.bracket_depth += 1;
                Op::LBracket
            }
            ']' => {
                self.bracket_depth = self.bracket_depth.saturating_sub(1);
                Op::RBracket
            }
            '{' => {
                self.bracket_depth += 1;
                Op::LBrace
            }
            '}' => {
                self.bracket_depth = self.bracket_depth.saturating_sub(1);
                Op::RBrace
            }
            ',' => Op::Comma,
            ':' => Op::Colon,
            '.' => Op::Dot,
            ';' => Op::Semicolon,
            other => {
                return Err(self.err(format!("unexpected character `{other}`"), lo));
            }
        };
        self.push(TokenKind::Op(op), lo);
        Ok(())
    }
}

