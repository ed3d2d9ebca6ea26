//! Recursive-descent parser for the mini-Python subset.

use crate::ast::{IdCounter, NODE_IDS, *};
use crate::error::{ParseError, Span};
use crate::lexer::lex;
use crate::token::{Keyword, Op, Token, TokenKind};

#[cfg(test)]
mod reference;

/// Parses a source file into a [`Module`].
///
/// # Errors
///
/// Returns [`ParseError`] on any lexical or syntactic error.
///
/// # Example
///
/// ```
/// let m = pysrc::parse_module("def f(x):\n    return x + 1\n", "m.py").unwrap();
/// assert_eq!(m.body.len(), 1);
/// ```
pub fn parse_module(source: &str, file: &str) -> Result<Module, ParseError> {
    parse_module_with(source, file, &NODE_IDS)
}

/// [`parse_module`] drawing node ids from `ids` — the process-wide
/// counter, except in the test that starts one near its end.
fn parse_module_with(source: &str, file: &str, ids: &IdCounter) -> Result<Module, ParseError> {
    let mut parser = Parser::new(lex(source, file)?, file, ids);
    let body = parser.parse_block_until_eof()?;
    Ok(Module {
        name: file.to_string(),
        body,
    })
}

/// Parses a single expression (used by the DSL compiler for literal
/// pattern fragments).
///
/// # Errors
///
/// Returns [`ParseError`] if the input is not exactly one expression.
pub fn parse_expr(source: &str, file: &str) -> Result<Expr, ParseError> {
    let mut parser = Parser::new(lex(source, file)?, file, &NODE_IDS);
    let e = parser.expr()?;
    parser.eat_newlines();
    parser.expect_eof()?;
    Ok(e)
}

/// Precedence of the infix operators, loosest first. `NOT` is the
/// prefix `not`, listed because it sits between `and` and the
/// comparisons; one above `TERM` are the unary operators and `**`,
/// which [`Parser::factor`] parses.
mod prec {
    pub const OR: u8 = 0;
    pub const AND: u8 = 1;
    pub const NOT: u8 = 2;
    pub const COMPARE: u8 = 3;
    pub const BIT_OR: u8 = 4;
    pub const BIT_XOR: u8 = 5;
    pub const BIT_AND: u8 = 6;
    pub const SHIFT: u8 = 7;
    pub const ARITH: u8 = 8;
    pub const TERM: u8 = 9;
}

/// The parser consumes its tokens by move: a token's payload (an
/// identifier's or a string literal's text) is taken out of the stream
/// into the AST node it becomes, and nothing looks at a token's kind
/// again once the cursor is past it (only at its span).
struct Parser<'f> {
    /// Never empty, and ends in `Eof`: [`lex`] guarantees both.
    tokens: Vec<Token>,
    /// Index of the current token; stops at the final `Eof`.
    pos: usize,
    file: &'f str,
    ids: &'f IdCounter,
}

impl<'f> Parser<'f> {
    fn new(tokens: Vec<Token>, file: &'f str, ids: &'f IdCounter) -> Parser<'f> {
        Parser {
            tokens,
            pos: 0,
            file,
            ids,
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    /// The kind of the token after the current one.
    fn peek_next(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    /// Steps past the current token and returns its span.
    fn bump(&mut self) -> Span {
        let span = self.tokens[self.pos].span;
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        span
    }

    /// Moves the text out of the current `Ident` or `Str` token and
    /// steps past it.
    fn take_text(&mut self) -> String {
        let text = match &mut self.tokens[self.pos].kind {
            TokenKind::Ident(text) | TokenKind::Str(text) => std::mem::take(text),
            other => unreachable!("caller peeked an identifier or string, found {other}"),
        };
        self.bump();
        text
    }

    fn at_op(&self, op: Op) -> bool {
        matches!(self.peek(), TokenKind::Op(o) if *o == op)
    }

    fn at_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if *k == kw)
    }

    fn eat_op(&mut self, op: Op) -> bool {
        if self.at_op(op) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// A fresh node id — or, in a process that has used all of them
    /// up, the error that ends this parse (logged: from here on the
    /// process can parse nothing and has to be restarted).
    fn fresh_id(&self) -> Result<NodeId, ParseError> {
        self.ids.next().ok_or_else(|| {
            obs::log!(obs::Level::Error, "node_ids_exhausted", "file" => self.file);
            self.err(
                "AST node ids exhausted: this process has allocated all 2^32 of them, restart it",
            )
        })
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.peek_span(), self.file)
    }

    fn expect_op(&mut self, op: Op) -> Result<Span, ParseError> {
        if self.at_op(op) {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected `{op}`, found {}", self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<Span, ParseError> {
        if self.at_kw(kw) {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    fn expect_newline(&mut self) -> Result<(), ParseError> {
        // A semicolon also terminates a simple statement.
        if self.eat_op(Op::Semicolon) {
            let _ = matches!(self.peek(), TokenKind::Newline) && {
                self.bump();
                true
            };
            return Ok(());
        }
        match self.peek() {
            TokenKind::Newline => {
                self.bump();
                Ok(())
            }
            TokenKind::Eof | TokenKind::Dedent => Ok(()),
            other => Err(self.err(format!("expected end of statement, found {other}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            TokenKind::Ident(_) => Ok(self.take_text()),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.err(format!("expected end of input, found {}", self.peek())))
        }
    }

    fn eat_newlines(&mut self) {
        while matches!(self.peek(), TokenKind::Newline) {
            self.bump();
        }
    }

    fn parse_block_until_eof(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut body = Vec::new();
        self.eat_newlines();
        while !matches!(self.peek(), TokenKind::Eof) {
            body.push(self.statement()?);
            self.eat_newlines();
        }
        Ok(body)
    }

    /// Parses an indented suite after a `:`, or a simple statement on
    /// the same line (`if x: return`).
    fn suite(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_op(Op::Colon)?;
        if matches!(self.peek(), TokenKind::Newline) {
            self.bump();
            if !matches!(self.peek(), TokenKind::Indent) {
                return Err(self.err("expected an indented block"));
            }
            self.bump();
            let mut body = Vec::new();
            self.eat_newlines();
            while !matches!(self.peek(), TokenKind::Dedent | TokenKind::Eof) {
                body.push(self.statement()?);
                self.eat_newlines();
            }
            if matches!(self.peek(), TokenKind::Dedent) {
                self.bump();
            }
            Ok(body)
        } else {
            // Inline suite: one or more simple statements separated by `;`.
            let mut body = vec![self.simple_statement()?];
            while !matches!(self.peek(), TokenKind::Newline | TokenKind::Eof) {
                body.push(self.simple_statement()?);
            }
            if matches!(self.peek(), TokenKind::Newline) {
                self.bump();
            }
            Ok(body)
        }
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            TokenKind::Keyword(Keyword::If) => self.if_stmt(),
            TokenKind::Keyword(Keyword::While) => self.while_stmt(),
            TokenKind::Keyword(Keyword::For) => self.for_stmt(),
            TokenKind::Keyword(Keyword::Def) => self.func_def(),
            TokenKind::Keyword(Keyword::Class) => self.class_def(),
            TokenKind::Keyword(Keyword::Try) => self.try_stmt(),
            TokenKind::Keyword(Keyword::With) => self.with_stmt(),
            _ => {
                let s = self.simple_statement()?;
                self.expect_newline()?;
                Ok(s)
            }
        }
    }

    fn simple_statement(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.peek_span();
        let keyword = match self.peek() {
            TokenKind::Keyword(kw) => Some(*kw),
            _ => None,
        };
        let kind = match keyword {
            Some(Keyword::Return) => {
                self.bump();
                if matches!(
                    self.peek(),
                    TokenKind::Newline | TokenKind::Eof | TokenKind::Op(Op::Semicolon)
                ) {
                    StmtKind::Return(None)
                } else {
                    StmtKind::Return(Some(self.expr_or_tuple()?))
                }
            }
            Some(Keyword::Pass) => {
                self.bump();
                StmtKind::Pass
            }
            Some(Keyword::Break) => {
                self.bump();
                StmtKind::Break
            }
            Some(Keyword::Continue) => {
                self.bump();
                StmtKind::Continue
            }
            Some(Keyword::Del) => {
                self.bump();
                let mut targets = vec![self.expr()?];
                while self.eat_op(Op::Comma) {
                    targets.push(self.expr()?);
                }
                StmtKind::Del(targets)
            }
            Some(Keyword::Assert) => {
                self.bump();
                let test = self.expr()?;
                let msg = if self.eat_op(Op::Comma) {
                    Some(self.expr()?)
                } else {
                    None
                };
                StmtKind::Assert { test, msg }
            }
            Some(Keyword::Global) => {
                self.bump();
                let mut names = vec![self.expect_ident()?];
                while self.eat_op(Op::Comma) {
                    names.push(self.expect_ident()?);
                }
                StmtKind::Global(names)
            }
            Some(Keyword::Raise) => {
                self.bump();
                if matches!(
                    self.peek(),
                    TokenKind::Newline | TokenKind::Eof | TokenKind::Op(Op::Semicolon)
                ) {
                    StmtKind::Raise {
                        exc: None,
                        cause: None,
                    }
                } else {
                    let exc = self.expr()?;
                    let cause = if self.eat_kw(Keyword::From) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    StmtKind::Raise {
                        exc: Some(exc),
                        cause,
                    }
                }
            }
            Some(Keyword::Import) => {
                self.bump();
                let mut modules = vec![self.import_alias()?];
                while self.eat_op(Op::Comma) {
                    modules.push(self.import_alias()?);
                }
                StmtKind::Import(modules)
            }
            Some(Keyword::From) => {
                self.bump();
                let module = self.dotted_name()?;
                self.expect_kw(Keyword::Import)?;
                let mut names = vec![self.import_alias()?];
                while self.eat_op(Op::Comma) {
                    names.push(self.import_alias()?);
                }
                StmtKind::FromImport { module, names }
            }
            _ => {
                // Expression, assignment, or augmented assignment.
                let first = self.expr_or_tuple()?;
                if self.at_op(Op::Assign) {
                    let mut targets = vec![first];
                    let mut value = None;
                    while self.eat_op(Op::Assign) {
                        let next = self.expr_or_tuple()?;
                        if self.at_op(Op::Assign) {
                            targets.push(next);
                        } else {
                            value = Some(next);
                        }
                    }
                    StmtKind::Assign {
                        targets,
                        value: value.expect("loop exits only after seeing a value"),
                    }
                } else if let Some(op) = self.aug_assign_op() {
                    self.bump();
                    let value = self.expr_or_tuple()?;
                    StmtKind::AugAssign {
                        target: first,
                        op,
                        value,
                    }
                } else {
                    StmtKind::Expr(first)
                }
            }
        };
        let hi = self.tokens[self.pos.saturating_sub(1)].span;
        Ok(Stmt {
            id: self.fresh_id()?,
            span: lo.to(hi),
            kind,
        })
    }

    fn aug_assign_op(&self) -> Option<BinOp> {
        match self.peek() {
            TokenKind::Op(Op::PlusAssign) => Some(BinOp::Add),
            TokenKind::Op(Op::MinusAssign) => Some(BinOp::Sub),
            TokenKind::Op(Op::StarAssign) => Some(BinOp::Mul),
            TokenKind::Op(Op::SlashAssign) => Some(BinOp::Div),
            TokenKind::Op(Op::DoubleSlashAssign) => Some(BinOp::FloorDiv),
            TokenKind::Op(Op::PercentAssign) => Some(BinOp::Mod),
            _ => None,
        }
    }

    fn import_alias(&mut self) -> Result<ImportAlias, ParseError> {
        let name = self.dotted_name()?;
        let alias = if self.eat_kw(Keyword::As) {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(ImportAlias { name, alias })
    }

    fn dotted_name(&mut self) -> Result<String, ParseError> {
        let mut name = self.expect_ident()?;
        while self.at_op(Op::Dot) {
            self.bump();
            name.push('.');
            name.push_str(&self.expect_ident()?);
        }
        Ok(name)
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.expect_kw(Keyword::If)?;
        let mut branches = Vec::new();
        let test = self.expr()?;
        let body = self.suite()?;
        branches.push((test, body));
        let mut orelse = Vec::new();
        loop {
            self.eat_newlines();
            if self.at_kw(Keyword::Elif) {
                self.bump();
                let test = self.expr()?;
                let body = self.suite()?;
                branches.push((test, body));
            } else if self.at_kw(Keyword::Else) {
                self.bump();
                orelse = self.suite()?;
                break;
            } else {
                break;
            }
        }
        Ok(Stmt {
            id: self.fresh_id()?,
            span: lo,
            kind: StmtKind::If { branches, orelse },
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.expect_kw(Keyword::While)?;
        let test = self.expr()?;
        let body = self.suite()?;
        self.eat_newlines();
        let orelse = if self.eat_kw(Keyword::Else) {
            self.suite()?
        } else {
            Vec::new()
        };
        Ok(Stmt {
            id: self.fresh_id()?,
            span: lo,
            kind: StmtKind::While { test, body, orelse },
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.expect_kw(Keyword::For)?;
        let target = self.target_list()?;
        self.expect_kw(Keyword::In)?;
        let iter = self.expr_or_tuple()?;
        let body = self.suite()?;
        self.eat_newlines();
        let orelse = if self.eat_kw(Keyword::Else) {
            self.suite()?
        } else {
            Vec::new()
        };
        Ok(Stmt {
            id: self.fresh_id()?,
            span: lo,
            kind: StmtKind::For {
                target,
                iter,
                body,
                orelse,
            },
        })
    }

    /// `a` or `a, b` (loop targets); produces a tuple for multiple names.
    fn target_list(&mut self) -> Result<Expr, ParseError> {
        let lo = self.peek_span();
        let first = self.postfix_expr()?;
        if self.at_op(Op::Comma) {
            let mut items = vec![first];
            while self.eat_op(Op::Comma) {
                if self.at_kw(Keyword::In) {
                    break;
                }
                items.push(self.postfix_expr()?);
            }
            Ok(Expr {
                id: self.fresh_id()?,
                span: lo,
                kind: ExprKind::Tuple(items),
            })
        } else {
            Ok(first)
        }
    }

    fn func_def(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.expect_kw(Keyword::Def)?;
        let name = self.expect_ident()?;
        self.expect_op(Op::LParen)?;
        let params = self.param_list()?;
        self.expect_op(Op::RParen)?;
        let body = self.suite()?;
        Ok(Stmt {
            id: self.fresh_id()?,
            span: lo,
            kind: StmtKind::FuncDef { name, params, body },
        })
    }

    fn param_list(&mut self) -> Result<Vec<Param>, ParseError> {
        let mut params = Vec::new();
        while !self.at_op(Op::RParen) {
            let kind = if self.eat_op(Op::DoubleStar) {
                ParamKind::DoubleStar
            } else if self.eat_op(Op::Star) {
                ParamKind::Star
            } else {
                ParamKind::Normal
            };
            let name = self.expect_ident()?;
            let default = if self.eat_op(Op::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            params.push(Param {
                name,
                default,
                kind,
            });
            if !self.eat_op(Op::Comma) {
                break;
            }
        }
        Ok(params)
    }

    fn class_def(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.expect_kw(Keyword::Class)?;
        let name = self.expect_ident()?;
        let mut bases = Vec::new();
        if self.eat_op(Op::LParen) {
            while !self.at_op(Op::RParen) {
                bases.push(self.expr()?);
                if !self.eat_op(Op::Comma) {
                    break;
                }
            }
            self.expect_op(Op::RParen)?;
        }
        let body = self.suite()?;
        Ok(Stmt {
            id: self.fresh_id()?,
            span: lo,
            kind: StmtKind::ClassDef { name, bases, body },
        })
    }

    fn try_stmt(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.expect_kw(Keyword::Try)?;
        let body = self.suite()?;
        let mut handlers = Vec::new();
        let mut orelse = Vec::new();
        let mut finalbody = Vec::new();
        loop {
            self.eat_newlines();
            if self.at_kw(Keyword::Except) {
                self.bump();
                let (exc_type, name) = if self.at_op(Op::Colon) {
                    (None, None)
                } else {
                    let e = self.expr()?;
                    let name = if self.eat_kw(Keyword::As) {
                        Some(self.expect_ident()?)
                    } else {
                        None
                    };
                    (Some(e), name)
                };
                let hbody = self.suite()?;
                handlers.push(ExceptHandler {
                    exc_type,
                    name,
                    body: hbody,
                });
            } else if self.at_kw(Keyword::Else) {
                self.bump();
                orelse = self.suite()?;
            } else if self.at_kw(Keyword::Finally) {
                self.bump();
                finalbody = self.suite()?;
                break;
            } else {
                break;
            }
        }
        if handlers.is_empty() && finalbody.is_empty() {
            return Err(self.err("`try` requires at least one `except` or `finally`"));
        }
        Ok(Stmt {
            id: self.fresh_id()?,
            span: lo,
            kind: StmtKind::Try {
                body,
                handlers,
                orelse,
                finalbody,
            },
        })
    }

    fn with_stmt(&mut self) -> Result<Stmt, ParseError> {
        let lo = self.expect_kw(Keyword::With)?;
        let mut items = Vec::new();
        loop {
            let ctx = self.expr()?;
            let target = if self.eat_kw(Keyword::As) {
                Some(self.postfix_expr()?)
            } else {
                None
            };
            items.push((ctx, target));
            if !self.eat_op(Op::Comma) {
                break;
            }
        }
        let body = self.suite()?;
        Ok(Stmt {
            id: self.fresh_id()?,
            span: lo,
            kind: StmtKind::With { items, body },
        })
    }

    // ----- expressions -----

    /// Expression possibly followed by `, expr ...` forming a tuple
    /// (used in statement contexts: RHS of assignments, `return`).
    fn expr_or_tuple(&mut self) -> Result<Expr, ParseError> {
        let lo = self.peek_span();
        let first = self.expr()?;
        if self.at_op(Op::Comma) {
            let mut items = vec![first];
            while self.eat_op(Op::Comma) {
                if matches!(
                    self.peek(),
                    TokenKind::Newline
                        | TokenKind::Eof
                        | TokenKind::Op(Op::Assign)
                        | TokenKind::Op(Op::RParen)
                        | TokenKind::Op(Op::Semicolon)
                ) {
                    break;
                }
                items.push(self.expr()?);
            }
            Ok(Expr {
                id: self.fresh_id()?,
                span: lo,
                kind: ExprKind::Tuple(items),
            })
        } else {
            Ok(first)
        }
    }

    /// Full expression (lambda / conditional level).
    pub(crate) fn expr(&mut self) -> Result<Expr, ParseError> {
        if self.at_kw(Keyword::Lambda) {
            let lo = self.bump();
            let mut params = Vec::new();
            if !self.at_op(Op::Colon) {
                loop {
                    let name = self.expect_ident()?;
                    let default = if self.eat_op(Op::Assign) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    params.push(Param {
                        name,
                        default,
                        kind: ParamKind::Normal,
                    });
                    if !self.eat_op(Op::Comma) {
                        break;
                    }
                }
            }
            self.expect_op(Op::Colon)?;
            let body = Box::new(self.expr()?);
            return Ok(Expr {
                id: self.fresh_id()?,
                span: lo,
                kind: ExprKind::Lambda { params, body },
            });
        }
        let lo = self.peek_span();
        let body = self.or_expr()?;
        if self.at_kw(Keyword::If) {
            self.bump();
            let test = Box::new(self.or_expr()?);
            self.expect_kw(Keyword::Else)?;
            let orelse = Box::new(self.expr()?);
            Ok(Expr {
                id: self.fresh_id()?,
                span: lo,
                kind: ExprKind::IfExp {
                    test,
                    body: Box::new(body),
                    orelse,
                },
            })
        } else {
            Ok(body)
        }
    }

    /// `or_test` in CPython's grammar: everything below a conditional
    /// expression.
    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        self.operators(prec::OR)
    }

    /// The infix operator at the cursor, if any: its precedence, and
    /// for an arithmetic or bitwise operator the AST operator.
    fn infix(&self) -> Option<(u8, Option<BinOp>)> {
        let binary = |level, op| Some((level, Some(op)));
        match self.peek() {
            TokenKind::Keyword(Keyword::Or) => Some((prec::OR, None)),
            TokenKind::Keyword(Keyword::And) => Some((prec::AND, None)),
            TokenKind::Op(Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge)
            | TokenKind::Keyword(Keyword::In | Keyword::Is) => Some((prec::COMPARE, None)),
            // `not in`; a bare `not` here is not an operator.
            TokenKind::Keyword(Keyword::Not)
                if matches!(self.peek_next(), Some(TokenKind::Keyword(Keyword::In))) =>
            {
                Some((prec::COMPARE, None))
            }
            TokenKind::Op(Op::Pipe) => binary(prec::BIT_OR, BinOp::BitOr),
            TokenKind::Op(Op::Caret) => binary(prec::BIT_XOR, BinOp::BitXor),
            TokenKind::Op(Op::Amp) => binary(prec::BIT_AND, BinOp::BitAnd),
            TokenKind::Op(Op::Shl) => binary(prec::SHIFT, BinOp::Shl),
            TokenKind::Op(Op::Shr) => binary(prec::SHIFT, BinOp::Shr),
            TokenKind::Op(Op::Plus) => binary(prec::ARITH, BinOp::Add),
            TokenKind::Op(Op::Minus) => binary(prec::ARITH, BinOp::Sub),
            TokenKind::Op(Op::Star) => binary(prec::TERM, BinOp::Mul),
            TokenKind::Op(Op::Slash) => binary(prec::TERM, BinOp::Div),
            TokenKind::Op(Op::DoubleSlash) => binary(prec::TERM, BinOp::FloorDiv),
            TokenKind::Op(Op::Percent) => binary(prec::TERM, BinOp::Mod),
            _ => None,
        }
    }

    /// Parses an operand and every infix operator after it that binds
    /// at least as tightly as `min` (see [`prec`]) — precedence
    /// climbing over the grammar's `or` … `term` levels, so an operand
    /// with no operator after it costs one call, not one per level.
    ///
    /// Every node built here is spanned by the first token of its
    /// leftmost operand, and gets its id after its operands got theirs.
    fn operators(&mut self, min: u8) -> Result<Expr, ParseError> {
        let lo = self.peek_span();
        let mut left = if min <= prec::NOT && self.at_kw(Keyword::Not) {
            let lo = self.bump();
            let operand = Box::new(self.operators(prec::NOT)?);
            Expr {
                id: self.fresh_id()?,
                span: lo,
                kind: ExprKind::Unary {
                    op: UnaryOp::Not,
                    operand,
                },
            }
        } else {
            self.factor()?
        };
        while let Some((level, op)) = self.infix().filter(|(level, _)| *level >= min) {
            let kind = if let Some(op) = op {
                // Left-associative: the right operand binds tighter.
                self.bump();
                let right = self.operators(level + 1)?;
                ExprKind::Binary {
                    left: Box::new(left),
                    op,
                    right: Box::new(right),
                }
            } else if level == prec::COMPARE {
                // A chain `a < b <= c` is one node.
                let mut ops = Vec::new();
                let mut comparators = Vec::new();
                while let Some(op) = self.cmp_op() {
                    ops.push(op);
                    comparators.push(self.operators(prec::BIT_OR)?);
                }
                ExprKind::Compare {
                    left: Box::new(left),
                    ops,
                    comparators,
                }
            } else {
                // `a or b or c` is one node too.
                let (keyword, op) = if level == prec::OR {
                    (Keyword::Or, BoolOpKind::Or)
                } else {
                    (Keyword::And, BoolOpKind::And)
                };
                let mut values = vec![left];
                while self.eat_kw(keyword) {
                    values.push(self.operators(level + 1)?);
                }
                ExprKind::BoolOp { op, values }
            };
            left = Expr {
                id: self.fresh_id()?,
                span: lo,
                kind,
            };
        }
        Ok(left)
    }

    /// Consumes the comparison operator at the cursor, if any.
    fn cmp_op(&mut self) -> Option<CmpOp> {
        let op = match self.peek() {
            TokenKind::Op(Op::Eq) => CmpOp::Eq,
            TokenKind::Op(Op::Ne) => CmpOp::Ne,
            TokenKind::Op(Op::Lt) => CmpOp::Lt,
            TokenKind::Op(Op::Le) => CmpOp::Le,
            TokenKind::Op(Op::Gt) => CmpOp::Gt,
            TokenKind::Op(Op::Ge) => CmpOp::Ge,
            TokenKind::Keyword(Keyword::In) => CmpOp::In,
            TokenKind::Keyword(Keyword::Is) => {
                self.bump();
                if self.at_kw(Keyword::Not) {
                    self.bump();
                    return Some(CmpOp::IsNot);
                }
                return Some(CmpOp::Is);
            }
            TokenKind::Keyword(Keyword::Not) => {
                // `not in`
                if matches!(self.peek_next(), Some(TokenKind::Keyword(Keyword::In))) {
                    self.bump();
                    self.bump();
                    return Some(CmpOp::NotIn);
                }
                return None;
            }
            _ => return None,
        };
        self.bump();
        Some(op)
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        let lo = self.peek_span();
        let op = match self.peek() {
            TokenKind::Op(Op::Minus) => Some(UnaryOp::Neg),
            TokenKind::Op(Op::Plus) => Some(UnaryOp::Pos),
            TokenKind::Op(Op::Tilde) => Some(UnaryOp::Invert),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = Box::new(self.factor()?);
            return Ok(Expr {
                id: self.fresh_id()?,
                span: lo,
                kind: ExprKind::Unary { op, operand },
            });
        }
        self.power()
    }

    fn power(&mut self) -> Result<Expr, ParseError> {
        let lo = self.peek_span();
        let base = self.postfix_expr()?;
        if self.eat_op(Op::DoubleStar) {
            // Right-associative.
            let exp = self.factor()?;
            Ok(Expr {
                id: self.fresh_id()?,
                span: lo,
                kind: ExprKind::Binary {
                    left: Box::new(base),
                    op: BinOp::Pow,
                    right: Box::new(exp),
                },
            })
        } else {
            Ok(base)
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let lo = self.peek_span();
        let mut e = self.atom()?;
        loop {
            if self.at_op(Op::Dot) {
                self.bump();
                let attr = self.expect_ident()?;
                e = Expr {
                    id: self.fresh_id()?,
                    span: lo,
                    kind: ExprKind::Attribute {
                        value: Box::new(e),
                        attr,
                    },
                };
            } else if self.at_op(Op::LParen) {
                self.bump();
                let args = self.call_args()?;
                self.expect_op(Op::RParen)?;
                e = Expr {
                    id: self.fresh_id()?,
                    span: lo,
                    kind: ExprKind::Call {
                        func: Box::new(e),
                        args,
                    },
                };
            } else if self.at_op(Op::LBracket) {
                self.bump();
                let index = self.subscript_index()?;
                self.expect_op(Op::RBracket)?;
                e = Expr {
                    id: self.fresh_id()?,
                    span: lo,
                    kind: ExprKind::Subscript {
                        value: Box::new(e),
                        index: Box::new(index),
                    },
                };
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn call_args(&mut self) -> Result<Vec<Arg>, ParseError> {
        let mut args = Vec::new();
        while !self.at_op(Op::RParen) {
            if self.eat_op(Op::DoubleStar) {
                args.push(Arg::DoubleStar(self.expr()?));
            } else if self.eat_op(Op::Star) {
                args.push(Arg::Star(self.expr()?));
            } else if matches!(self.peek(), TokenKind::Ident(_))
                && matches!(self.peek_next(), Some(TokenKind::Op(Op::Assign)))
            {
                let name = self.expect_ident()?;
                self.bump(); // `=`
                args.push(Arg::Kw(name, self.expr()?));
            } else {
                args.push(Arg::Pos(self.expr()?));
            }
            if !self.eat_op(Op::Comma) {
                break;
            }
        }
        Ok(args)
    }

    fn subscript_index(&mut self) -> Result<Expr, ParseError> {
        let lo = self.peek_span();
        // Slice forms: [:], [a:], [:b], [a:b], [a:b:c]
        let lower = if self.at_op(Op::Colon) {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        if self.eat_op(Op::Colon) {
            let upper = if self.at_op(Op::RBracket) || self.at_op(Op::Colon) {
                None
            } else {
                Some(Box::new(self.expr()?))
            };
            let step = if self.eat_op(Op::Colon) {
                if self.at_op(Op::RBracket) {
                    None
                } else {
                    Some(Box::new(self.expr()?))
                }
            } else {
                None
            };
            Ok(Expr {
                id: self.fresh_id()?,
                span: lo,
                kind: ExprKind::Slice { lower, upper, step },
            })
        } else {
            let e = *lower.expect("non-slice subscript must have an index expression");
            // Tuple index `d[a, b]`.
            if self.at_op(Op::Comma) {
                let mut items = vec![e];
                while self.eat_op(Op::Comma) {
                    if self.at_op(Op::RBracket) {
                        break;
                    }
                    items.push(self.expr()?);
                }
                Ok(Expr {
                    id: self.fresh_id()?,
                    span: lo,
                    kind: ExprKind::Tuple(items),
                })
            } else {
                Ok(e)
            }
        }
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        let lo = self.peek_span();
        let kind = match self.peek() {
            &TokenKind::Int(v) => {
                self.bump();
                ExprKind::Num(Number::Int(v))
            }
            &TokenKind::Float(v) => {
                self.bump();
                ExprKind::Num(Number::Float(v))
            }
            TokenKind::Str(_) => {
                // Adjacent string literal concatenation.
                let mut out = self.take_text();
                while let TokenKind::Str(next) = self.peek() {
                    out.push_str(next);
                    self.bump();
                }
                ExprKind::Str(out)
            }
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                ExprKind::Bool(true)
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                ExprKind::Bool(false)
            }
            TokenKind::Keyword(Keyword::None) => {
                self.bump();
                ExprKind::NoneLit
            }
            TokenKind::Ident(_) => ExprKind::Name(self.take_text()),
            TokenKind::Op(Op::Star) => {
                self.bump();
                let inner = self.postfix_expr()?;
                ExprKind::Starred(Box::new(inner))
            }
            TokenKind::Op(Op::LParen) => {
                self.bump();
                if self.eat_op(Op::RParen) {
                    ExprKind::Tuple(Vec::new())
                } else {
                    let first = self.expr()?;
                    if self.at_op(Op::Comma) {
                        let mut items = vec![first];
                        while self.eat_op(Op::Comma) {
                            if self.at_op(Op::RParen) {
                                break;
                            }
                            items.push(self.expr()?);
                        }
                        self.expect_op(Op::RParen)?;
                        ExprKind::Tuple(items)
                    } else {
                        self.expect_op(Op::RParen)?;
                        // Parenthesized expression: transparent.
                        return Ok(first);
                    }
                }
            }
            TokenKind::Op(Op::LBracket) => {
                self.bump();
                if self.eat_op(Op::RBracket) {
                    ExprKind::List(Vec::new())
                } else {
                    let first = self.expr()?;
                    if self.at_kw(Keyword::For) {
                        self.bump();
                        let target = Box::new(self.target_list()?);
                        self.expect_kw(Keyword::In)?;
                        // CPython parses the iterable and filters of a
                        // comprehension at `or_test` level so a trailing
                        // `if` starts a filter, not a conditional expr.
                        let iter = Box::new(self.or_expr()?);
                        let mut ifs = Vec::new();
                        while self.eat_kw(Keyword::If) {
                            ifs.push(self.or_expr()?);
                        }
                        self.expect_op(Op::RBracket)?;
                        ExprKind::ListComp {
                            elt: Box::new(first),
                            target,
                            iter,
                            ifs,
                        }
                    } else {
                        let mut items = vec![first];
                        while self.eat_op(Op::Comma) {
                            if self.at_op(Op::RBracket) {
                                break;
                            }
                            items.push(self.expr()?);
                        }
                        self.expect_op(Op::RBracket)?;
                        ExprKind::List(items)
                    }
                }
            }
            TokenKind::Op(Op::LBrace) => {
                self.bump();
                if self.eat_op(Op::RBrace) {
                    ExprKind::Dict(Vec::new())
                } else {
                    let first_key = self.expr()?;
                    if self.eat_op(Op::Colon) {
                        let first_val = self.expr()?;
                        let mut pairs = vec![(first_key, first_val)];
                        while self.eat_op(Op::Comma) {
                            if self.at_op(Op::RBrace) {
                                break;
                            }
                            let k = self.expr()?;
                            self.expect_op(Op::Colon)?;
                            let v = self.expr()?;
                            pairs.push((k, v));
                        }
                        self.expect_op(Op::RBrace)?;
                        ExprKind::Dict(pairs)
                    } else {
                        let mut items = vec![first_key];
                        while self.eat_op(Op::Comma) {
                            if self.at_op(Op::RBrace) {
                                break;
                            }
                            items.push(self.expr()?);
                        }
                        self.expect_op(Op::RBrace)?;
                        ExprKind::Set(items)
                    }
                }
            }
            other => return Err(self.err(format!("expected expression, found {other}"))),
        };
        Ok(Expr {
            id: self.fresh_id()?,
            span: lo,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Module {
        parse_module(src, "t.py").unwrap()
    }

    #[test]
    fn parses_assignment_and_expression() {
        let m = parse("x = 1 + 2 * 3\nf(x)\n");
        assert_eq!(m.body.len(), 2);
        assert!(matches!(m.body[0].kind, StmtKind::Assign { .. }));
        assert!(matches!(m.body[1].kind, StmtKind::Expr(_)));
    }

    #[test]
    fn precedence_mul_over_add() {
        let m = parse("x = 1 + 2 * 3\n");
        let StmtKind::Assign { value, .. } = &m.body[0].kind else {
            panic!("expected assign")
        };
        let ExprKind::Binary { op, right, .. } = &value.kind else {
            panic!("expected binary")
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(
            right.kind,
            ExprKind::Binary {
                op: BinOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn parses_function_with_defaults_and_star_args() {
        let m = parse("def f(a, b=2, *args, **kwargs):\n    return a\n");
        let StmtKind::FuncDef { params, .. } = &m.body[0].kind else {
            panic!("expected funcdef")
        };
        assert_eq!(params.len(), 4);
        assert!(params[1].default.is_some());
        assert_eq!(params[2].kind, ParamKind::Star);
        assert_eq!(params[3].kind, ParamKind::DoubleStar);
    }

    #[test]
    fn parses_class_with_methods() {
        let m = parse("class C(Base):\n    def m(self):\n        pass\n");
        let StmtKind::ClassDef { name, bases, body } = &m.body[0].kind else {
            panic!("expected classdef")
        };
        assert_eq!(name, "C");
        assert_eq!(bases.len(), 1);
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn parses_try_except_else_finally() {
        let m = parse(
            "try:\n    f()\nexcept ValueError as e:\n    g(e)\nexcept:\n    pass\nelse:\n    h()\nfinally:\n    k()\n",
        );
        let StmtKind::Try {
            handlers,
            orelse,
            finalbody,
            ..
        } = &m.body[0].kind
        else {
            panic!("expected try")
        };
        assert_eq!(handlers.len(), 2);
        assert_eq!(handlers[0].name.as_deref(), Some("e"));
        assert!(handlers[1].exc_type.is_none());
        assert_eq!(orelse.len(), 1);
        assert_eq!(finalbody.len(), 1);
    }

    #[test]
    fn parses_if_elif_else() {
        let m = parse("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n");
        let StmtKind::If { branches, orelse } = &m.body[0].kind else {
            panic!("expected if")
        };
        assert_eq!(branches.len(), 2);
        assert_eq!(orelse.len(), 1);
    }

    #[test]
    fn parses_chained_comparison() {
        let m = parse("r = 0 <= x < 10\n");
        let StmtKind::Assign { value, .. } = &m.body[0].kind else {
            panic!()
        };
        let ExprKind::Compare {
            ops, comparators, ..
        } = &value.kind
        else {
            panic!("expected comparison")
        };
        assert_eq!(ops, &[CmpOp::Le, CmpOp::Lt]);
        assert_eq!(comparators.len(), 2);
    }

    #[test]
    fn parses_call_with_keyword_and_star_args() {
        let m = parse("f(1, key=2, *rest, **kw)\n");
        let StmtKind::Expr(e) = &m.body[0].kind else {
            panic!()
        };
        let ExprKind::Call { args, .. } = &e.kind else {
            panic!("expected call")
        };
        assert!(matches!(args[0], Arg::Pos(_)));
        assert!(matches!(args[1], Arg::Kw(ref n, _) if n == "key"));
        assert!(matches!(args[2], Arg::Star(_)));
        assert!(matches!(args[3], Arg::DoubleStar(_)));
    }

    #[test]
    fn parses_for_with_tuple_target() {
        let m = parse("for k, v in d.items():\n    print(k)\n");
        let StmtKind::For { target, .. } = &m.body[0].kind else {
            panic!()
        };
        assert!(matches!(target.kind, ExprKind::Tuple(ref t) if t.len() == 2));
    }

    #[test]
    fn parses_imports() {
        let m = parse("import os\nimport urllib.request as req\nfrom etcd import Client\n");
        assert!(matches!(m.body[0].kind, StmtKind::Import(_)));
        let StmtKind::Import(aliases) = &m.body[1].kind else {
            panic!()
        };
        assert_eq!(aliases[0].name, "urllib.request");
        assert_eq!(aliases[0].alias.as_deref(), Some("req"));
        assert!(matches!(m.body[2].kind, StmtKind::FromImport { .. }));
    }

    #[test]
    fn parses_slices() {
        let m = parse("a = s[1:2]\nb = s[:3]\nc = s[::2]\nd = s[i]\n");
        assert_eq!(m.body.len(), 4);
    }

    #[test]
    fn parses_dict_set_list_tuple() {
        let m = parse("d = {'a': 1, 'b': 2}\ns = {1, 2}\nl = [1, 2]\nt = (1, 2)\ne = ()\n");
        assert_eq!(m.body.len(), 5);
    }

    #[test]
    fn parses_list_comprehension() {
        let m = parse("xs = [x * 2 for x in range(10) if x > 1]\n");
        let StmtKind::Assign { value, .. } = &m.body[0].kind else {
            panic!()
        };
        assert!(matches!(value.kind, ExprKind::ListComp { .. }));
    }

    #[test]
    fn parses_lambda_and_ifexp() {
        let m = parse("f = lambda x, y=1: x + y\nv = a if c else b\n");
        assert_eq!(m.body.len(), 2);
    }

    #[test]
    fn parses_with_statement() {
        let m = parse("with open('f') as fh:\n    fh.read()\n");
        assert!(matches!(m.body[0].kind, StmtKind::With { .. }));
    }

    #[test]
    fn parses_inline_suite() {
        let m = parse("if x: return 1\n");
        let StmtKind::If { branches, .. } = &m.body[0].kind else {
            panic!()
        };
        assert_eq!(branches[0].1.len(), 1);
    }

    #[test]
    fn parses_aug_assign() {
        let m = parse("x += 1\ny //= 2\n");
        assert!(
            matches!(m.body[0].kind, StmtKind::AugAssign { op: BinOp::Add, .. })
        );
        assert!(matches!(
            m.body[1].kind,
            StmtKind::AugAssign {
                op: BinOp::FloorDiv,
                ..
            }
        ));
    }

    #[test]
    fn parses_multi_target_assignment() {
        let m = parse("a = b = 3\n");
        let StmtKind::Assign { targets, .. } = &m.body[0].kind else {
            panic!()
        };
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn parses_raise_from() {
        let m = parse("raise ValueError('x') from err\nraise\n");
        assert!(matches!(
            m.body[0].kind,
            StmtKind::Raise {
                exc: Some(_),
                cause: Some(_)
            }
        ));
        assert!(matches!(
            m.body[1].kind,
            StmtKind::Raise {
                exc: None,
                cause: None
            }
        ));
    }

    #[test]
    fn parses_not_in_and_is_not() {
        let m = parse("a = x not in y\nb = x is not None\n");
        for (i, expected) in [(0usize, CmpOp::NotIn), (1, CmpOp::IsNot)] {
            let StmtKind::Assign { value, .. } = &m.body[i].kind else {
                panic!()
            };
            let ExprKind::Compare { ops, .. } = &value.kind else {
                panic!("expected compare")
            };
            assert_eq!(ops[0], expected);
        }
    }

    #[test]
    fn node_ids_are_unique() {
        let m = parse("x = 1\ny = 2\n");
        assert_ne!(m.body[0].id, m.body[1].id);
    }

    #[test]
    fn exhausted_node_ids_are_a_parse_error_not_a_wrap() {
        // Five ids left: enough for `x = 1` (three nodes), not for the
        // statement after it.
        let ids = IdCounter::starting_at(u64::from(u32::MAX) - 4);
        let err = parse_module_with("x = 1\ny = 2\n", "t.py", &ids).unwrap_err();
        assert!(err.message.contains("node ids exhausted"), "{err}");
        assert_eq!((err.span.lo.line, err.file.as_str()), (2, "t.py"));
        // The counter does not wrap: nothing parses afterwards either,
        // and no id below the last one is ever handed out again.
        assert!(parse_module_with("z\n", "t.py", &ids).is_err());
        assert_eq!(ids.next(), None);
        let fits = IdCounter::starting_at(u64::from(u32::MAX) - 3);
        let module = parse_module_with("x = 1\n", "t.py", &fits).expect("three ids are enough");
        assert_eq!(module.body[0].id, NodeId(u32::MAX - 1));
    }

    #[test]
    fn error_on_bad_syntax() {
        assert!(parse_module("def f(:\n    pass\n", "t.py").is_err());
        assert!(parse_module("x = = 1\n", "t.py").is_err());
        assert!(parse_module("try:\n    pass\n", "t.py").is_err());
    }

    #[test]
    fn parse_single_expr() {
        let e = super::parse_expr("a.b(1, x=2)", "t.py").unwrap();
        assert!(matches!(e.kind, ExprKind::Call { .. }));
        assert!(super::parse_expr("a b", "t.py").is_err());
    }

    /// The tree of an operator expression, fully bracketed.
    fn shape(e: &Expr) -> String {
        let join = |items: &[Expr], sep: &str| {
            let items: Vec<String> = items.iter().map(shape).collect();
            format!("({})", items.join(sep))
        };
        match &e.kind {
            ExprKind::Name(n) => n.clone(),
            ExprKind::BoolOp { op, values } => match op {
                BoolOpKind::Or => join(values, " or "),
                BoolOpKind::And => join(values, " and "),
            },
            ExprKind::Unary { op, operand } => {
                let op = match op {
                    UnaryOp::Not => "not",
                    UnaryOp::Neg => "-",
                    UnaryOp::Pos => "+",
                    UnaryOp::Invert => "~",
                };
                format!("({op} {})", shape(operand))
            }
            ExprKind::Binary { left, op, right } => {
                format!("({} {} {})", shape(left), op.as_str(), shape(right))
            }
            ExprKind::Compare {
                left,
                ops,
                comparators,
            } => {
                let mut out = format!("({}", shape(left));
                for (op, c) in ops.iter().zip(comparators) {
                    out += &format!(" {} {}", op.as_str(), shape(c));
                }
                out + ")"
            }
            other => panic!("not an operator expression: {other:?}"),
        }
    }

    #[test]
    fn operators_bind_by_precedence_and_associate_to_the_left() {
        for (src, tree) in [
            ("a or b and c or d", "(a or (b and c) or d)"),
            ("a and b or c and d", "((a and b) or (c and d))"),
            ("not a and not not b", "((not a) and (not (not b)))"),
            ("not a == b or c", "((not (a == b)) or c)"),
            ("a < b <= c != d", "(a < b <= c != d)"),
            ("a not in b is not c in d is e", "(a not in b is not c in d is e)"),
            ("a | b ^ c & d << e + f * g", "(a | (b ^ (c & (d << (e + (f * g))))))"),
            ("a * b + c << d & e ^ f | g", "((((((a * b) + c) << d) & e) ^ f) | g)"),
            ("a - b - c", "((a - b) - c)"),
            ("a / b // c % d * e", "((((a / b) // c) % d) * e)"),
            ("a >> b << c", "((a >> b) << c)"),
            ("a | b < c | d and e", "(((a | b) < (c | d)) and e)"),
            ("a + b == c - d", "((a + b) == (c - d))"),
            ("-a ** b * ~c", "((- (a ** b)) * (~ c))"),
            ("a ** b ** c", "(a ** (b ** c))"),
            ("a if b or c else d and e", "a"),
        ] {
            let mut parser = Parser::new(lex(src, "t.py").unwrap(), "t.py", &NODE_IDS);
            assert_eq!(shape(&parser.or_expr().unwrap()), tree, "{src}");
        }
        // A `not` where an operand of a tighter operator must stand.
        for src in ["a == not b", "a + not b", "a and", "a not b", "a is not"] {
            assert!(super::parse_expr(src, "t.py").is_err(), "{src}");
        }
    }

    #[test]
    fn operator_nodes_span_their_leftmost_operand_and_take_their_id_last() {
        let ids = IdCounter::starting_at(1);
        let mut parser = Parser::new(lex("a + b * c < not_d or e", "t.py").unwrap(), "t.py", &ids);
        let e = parser.or_expr().unwrap();
        // (id, column) of every node, in the order of `shape`.
        fn walk(e: &Expr, out: &mut Vec<(u32, u32)>) {
            out.push((e.id.0, e.span.lo.col));
            match &e.kind {
                ExprKind::BoolOp { values, .. } => values.iter().for_each(|v| walk(v, out)),
                ExprKind::Binary { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
                ExprKind::Compare {
                    left, comparators, ..
                } => {
                    walk(left, out);
                    comparators.iter().for_each(|c| walk(c, out));
                }
                _ => {}
            }
        }
        let mut nodes = Vec::new();
        walk(&e, &mut nodes);
        // or, <, +, a, *, b, c, not_d, e
        assert_eq!(
            nodes,
            [(9, 0), (7, 0), (5, 0), (1, 0), (4, 4), (2, 4), (3, 8), (6, 12), (8, 21)]
        );
    }

    /// What operator expressions are made of — and a few things they
    /// are not, for the errors.
    #[rustfmt::skip]
    const OPERANDS: &[&str] = &[
        "a", "b1", "self.x", "f(a, b)", "d[k]", "1", "2.5", "'s'", "None", "True",
        "(a or b)", "(not a)", "[a < b]", "(a, b)", "lambda: a", "", ")", "=",
    ];
    const PREFIXES: &[&str] = &["", "", "", "not ", "not not ", "-", "+", "~", "- not ", "not -"];
    #[rustfmt::skip]
    const INFIXES: &[&str] = &[
        "or", "and", "==", "!=", "<", "<=", ">", ">=", "in", "not in", "is", "is not", "not",
        "|", "^", "&", "<<", ">>", "+", "-", "*", "/", "//", "%", "**", "if", "else", ",", "",
    ];

    /// `operators` and the level functions on one source: the same
    /// tree — kinds, spans, ids — or the same error, and the cursor
    /// left on the same token.
    fn levels_agree(source: &str) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::prop_assert_eq;
        let Ok(tokens) = lex(source, "p.py") else {
            return Ok(());
        };
        let (ids, reference_ids) = (IdCounter::starting_at(1), IdCounter::starting_at(1));
        let mut parser = Parser::new(tokens.clone(), "p.py", &ids);
        let mut reference = Parser::new(tokens, "p.py", &reference_ids);
        prop_assert_eq!(parser.or_expr(), reference.reference_or_expr(), "{}", source);
        prop_assert_eq!(parser.pos, reference.pos, "{}", source);
        Ok(())
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn precedence_climbing_agrees_with_the_level_functions_on_operator_soup(
                first in (0usize..PREFIXES.len(), 0usize..OPERANDS.len()),
                rest in proptest::collection::vec(
                    (0usize..INFIXES.len(), 0usize..PREFIXES.len(), 0usize..OPERANDS.len()),
                    0..12,
                ),
            ) {
                let mut source = format!("{}{}", PREFIXES[first.0], OPERANDS[first.1]);
                for (infix, prefix, operand) in &rest {
                    source += &format!(" {} {}{}", INFIXES[*infix], PREFIXES[*prefix], OPERANDS[*operand]);
                }
                levels_agree(&source)?;
            }

            #[test]
            fn precedence_climbing_agrees_with_the_level_functions_on_any_order(
                picks in proptest::collection::vec((0usize..3, 0usize..32), 0..16),
            ) {
                let source: Vec<&str> = picks
                    .iter()
                    .map(|(list, i)| {
                        let list = [OPERANDS, PREFIXES, INFIXES][*list];
                        list[i % list.len()]
                    })
                    .collect();
                levels_agree(&source.join(" "))?;
            }
        }
    }
}
