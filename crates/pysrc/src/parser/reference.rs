//! The grammar's `or` … `term` levels as one function each — what
//! [`Parser::operators`] replaced — kept as the reference the property
//! test compares it against: the same tree, spans and id order, or the
//! same error. It is the parent's code but for where ids come from
//! (the parser's counter) and what `bump` returns. Both share what lies
//! under the levels (`factor`, `cmp_op`), so whatever stands in
//! brackets is parsed by `operators` either way: the generated
//! expressions put their operators at the top. Compiled for tests only.

use super::Parser;
use crate::ast::*;
use crate::error::ParseError;
use crate::token::{Keyword, Op};

impl Parser<'_> {
    pub(super) fn reference_or_expr(&mut self) -> Result<Expr, ParseError> {
        let lo = self.peek_span();
        let first = self.reference_and_expr()?;
        if self.at_kw(Keyword::Or) {
            let mut values = vec![first];
            while self.eat_kw(Keyword::Or) {
                values.push(self.reference_and_expr()?);
            }
            Ok(Expr {
                id: self.fresh_id()?,
                span: lo,
                kind: ExprKind::BoolOp {
                    op: BoolOpKind::Or,
                    values,
                },
            })
        } else {
            Ok(first)
        }
    }

    fn reference_and_expr(&mut self) -> Result<Expr, ParseError> {
        let lo = self.peek_span();
        let first = self.reference_not_expr()?;
        if self.at_kw(Keyword::And) {
            let mut values = vec![first];
            while self.eat_kw(Keyword::And) {
                values.push(self.reference_not_expr()?);
            }
            Ok(Expr {
                id: self.fresh_id()?,
                span: lo,
                kind: ExprKind::BoolOp {
                    op: BoolOpKind::And,
                    values,
                },
            })
        } else {
            Ok(first)
        }
    }

    fn reference_not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.at_kw(Keyword::Not) {
            let lo = self.bump();
            let operand = Box::new(self.reference_not_expr()?);
            Ok(Expr {
                id: self.fresh_id()?,
                span: lo,
                kind: ExprKind::Unary {
                    op: UnaryOp::Not,
                    operand,
                },
            })
        } else {
            self.reference_comparison()
        }
    }

    fn reference_comparison(&mut self) -> Result<Expr, ParseError> {
        let lo = self.peek_span();
        let left = self.reference_bitor()?;
        let mut ops = Vec::new();
        let mut comparators = Vec::new();
        while let Some(op) = self.cmp_op() {
            ops.push(op);
            comparators.push(self.reference_bitor()?);
        }
        if ops.is_empty() {
            Ok(left)
        } else {
            Ok(Expr {
                id: self.fresh_id()?,
                span: lo,
                kind: ExprKind::Compare {
                    left: Box::new(left),
                    ops,
                    comparators,
                },
            })
        }
    }

    fn reference_binary_level(
        &mut self,
        next: fn(&mut Self) -> Result<Expr, ParseError>,
        table: &[(Op, BinOp)],
    ) -> Result<Expr, ParseError> {
        let lo = self.peek_span();
        let mut left = next(self)?;
        'outer: loop {
            for (tok, op) in table {
                if self.at_op(*tok) {
                    self.bump();
                    let right = next(self)?;
                    left = Expr {
                        id: self.fresh_id()?,
                        span: lo,
                        kind: ExprKind::Binary {
                            left: Box::new(left),
                            op: *op,
                            right: Box::new(right),
                        },
                    };
                    continue 'outer;
                }
            }
            break;
        }
        Ok(left)
    }

    fn reference_bitor(&mut self) -> Result<Expr, ParseError> {
        self.reference_binary_level(Self::reference_bitxor, &[(Op::Pipe, BinOp::BitOr)])
    }

    fn reference_bitxor(&mut self) -> Result<Expr, ParseError> {
        self.reference_binary_level(Self::reference_bitand, &[(Op::Caret, BinOp::BitXor)])
    }

    fn reference_bitand(&mut self) -> Result<Expr, ParseError> {
        self.reference_binary_level(Self::reference_shift, &[(Op::Amp, BinOp::BitAnd)])
    }

    fn reference_shift(&mut self) -> Result<Expr, ParseError> {
        self.reference_binary_level(
            Self::reference_arith,
            &[(Op::Shl, BinOp::Shl), (Op::Shr, BinOp::Shr)],
        )
    }

    fn reference_arith(&mut self) -> Result<Expr, ParseError> {
        self.reference_binary_level(
            Self::reference_term,
            &[(Op::Plus, BinOp::Add), (Op::Minus, BinOp::Sub)],
        )
    }

    fn reference_term(&mut self) -> Result<Expr, ParseError> {
        self.reference_binary_level(
            Self::factor,
            &[
                (Op::Star, BinOp::Mul),
                (Op::Slash, BinOp::Div),
                (Op::DoubleSlash, BinOp::FloorDiv),
                (Op::Percent, BinOp::Mod),
            ],
        )
    }
}
