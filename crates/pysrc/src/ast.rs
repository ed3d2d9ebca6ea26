//! Abstract syntax tree for the mini-Python subset.
//!
//! Every statement and expression carries a unique [`NodeId`] (used by the
//! injector to address fault-injection points) and a [`Span`] for
//! diagnostics and reports.

use crate::error::Span;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique identity of an AST node within a process.
///
/// Ids are allocated from a process-global counter so nodes created
/// during mutation never collide with parsed nodes. The id space is
/// 32 bits and is never reused: a process that has used it up can no
/// longer parse and has to be restarted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Hands out node ids in increasing order. The counter is 64 bits wide
/// so that it can run past the 32-bit id space — after which every
/// allocation fails — without ever wrapping back into it: ids reissued
/// after a wrap could collide with a resident module's, and a parse
/// straddling the wrap would make the interpreter's dense per-module
/// tables span the whole id space.
pub(crate) struct IdCounter(AtomicU64);

impl IdCounter {
    pub(crate) const fn starting_at(next: u64) -> IdCounter {
        IdCounter(AtomicU64::new(next))
    }

    /// The next id, or `None` once all of them are allocated.
    pub(crate) fn next(&self) -> Option<NodeId> {
        u32::try_from(self.0.fetch_add(1, Ordering::Relaxed))
            .ok()
            .map(NodeId)
    }
}

/// The process-wide counter every parse and every synthesized node
/// draws from.
pub(crate) static NODE_IDS: IdCounter = IdCounter::starting_at(1);

impl NodeId {
    /// Placeholder id for synthesized nodes that never need identity.
    pub const DUMMY: NodeId = NodeId(0);

    /// Allocates a fresh, process-unique id.
    ///
    /// # Panics
    ///
    /// Panics once the process has allocated all 2³² − 1 ids; the
    /// parser, which input can drive there, reports a
    /// [`crate::ParseError`] instead.
    pub fn fresh() -> NodeId {
        NODE_IDS
            .next()
            .expect("AST node ids exhausted: restart the process")
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A parsed source file.
#[derive(Clone, Debug, PartialEq)]
pub struct Module {
    /// Logical name (usually the file path).
    pub name: String,
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

/// A statement with identity and span.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    /// Unique node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// The statement payload.
    pub kind: StmtKind,
}

impl Stmt {
    /// Creates a statement with a fresh id and dummy span (for synthesized
    /// code produced by the mutator).
    pub fn synth(kind: StmtKind) -> Stmt {
        Stmt {
            id: NodeId::fresh(),
            span: Span::default(),
            kind,
        }
    }
}

/// One `except` clause of a `try` statement.
#[derive(Clone, Debug, PartialEq)]
pub struct ExceptHandler {
    /// Exception type expression (`None` = bare `except:`).
    pub exc_type: Option<Expr>,
    /// Binding name (`except E as name`).
    pub name: Option<String>,
    /// Handler body.
    pub body: Vec<Stmt>,
}

/// A function parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Default value, if any.
    pub default: Option<Expr>,
    /// Parameter kind (positional, `*args`, `**kwargs`).
    pub kind: ParamKind,
}

impl Param {
    /// A plain positional parameter without a default.
    pub fn plain(name: impl Into<String>) -> Param {
        Param {
            name: name.into(),
            default: None,
            kind: ParamKind::Normal,
        }
    }
}

/// Kind of a function parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamKind {
    /// Ordinary positional/keyword parameter.
    Normal,
    /// `*args` rest parameter.
    Star,
    /// `**kwargs` rest parameter.
    DoubleStar,
}

/// Statement kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum StmtKind {
    /// An expression evaluated for its side effects.
    Expr(Expr),
    /// `a = b = value` (one or more targets).
    Assign {
        /// Assignment targets, outermost first.
        targets: Vec<Expr>,
        /// Assigned value.
        value: Expr,
    },
    /// `target op= value`.
    AugAssign {
        /// Assignment target.
        target: Expr,
        /// The arithmetic operator.
        op: BinOp,
        /// Right-hand side.
        value: Expr,
    },
    /// `return [value]`.
    Return(Option<Expr>),
    /// `pass`.
    Pass,
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// `del target, ...`.
    Del(Vec<Expr>),
    /// `assert test[, msg]`.
    Assert {
        /// The asserted condition.
        test: Expr,
        /// Optional failure message.
        msg: Option<Expr>,
    },
    /// `global name, ...`.
    Global(Vec<String>),
    /// `import module [as alias], ...`.
    Import(Vec<ImportAlias>),
    /// `from module import name [as alias], ...`.
    FromImport {
        /// Source module.
        module: String,
        /// Imported names.
        names: Vec<ImportAlias>,
    },
    /// `if`/`elif` chain with optional `else`.
    If {
        /// `(condition, body)` per `if`/`elif` branch, in order.
        branches: Vec<(Expr, Vec<Stmt>)>,
        /// `else` body (possibly empty).
        orelse: Vec<Stmt>,
    },
    /// `while test: body [else: orelse]`.
    While {
        /// Loop condition.
        test: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// `else` body (possibly empty).
        orelse: Vec<Stmt>,
    },
    /// `for target in iter: body [else: orelse]`.
    For {
        /// Loop variable(s).
        target: Expr,
        /// Iterated expression.
        iter: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// `else` body (possibly empty).
        orelse: Vec<Stmt>,
    },
    /// `def name(params): body`.
    FuncDef {
        /// Function name.
        name: String,
        /// Parameter list.
        params: Vec<Param>,
        /// Function body.
        body: Vec<Stmt>,
    },
    /// `class name(bases): body`.
    ClassDef {
        /// Class name.
        name: String,
        /// Base class expressions.
        bases: Vec<Expr>,
        /// Class body.
        body: Vec<Stmt>,
    },
    /// `try/except/else/finally`.
    Try {
        /// `try` body.
        body: Vec<Stmt>,
        /// `except` clauses.
        handlers: Vec<ExceptHandler>,
        /// `else` body (possibly empty).
        orelse: Vec<Stmt>,
        /// `finally` body (possibly empty).
        finalbody: Vec<Stmt>,
    },
    /// `raise [exc [from cause]]`.
    Raise {
        /// Raised exception (None = re-raise).
        exc: Option<Expr>,
        /// `from` cause.
        cause: Option<Expr>,
    },
    /// `with item [as name], ...: body`.
    With {
        /// `(context expression, optional target)` pairs.
        items: Vec<(Expr, Option<Expr>)>,
        /// Body.
        body: Vec<Stmt>,
    },
}

/// `module [as alias]` or `name [as alias]` in imports.
#[derive(Clone, Debug, PartialEq)]
pub struct ImportAlias {
    /// Dotted module or plain name.
    pub name: String,
    /// Optional `as` alias.
    pub alias: Option<String>,
}

/// An expression with identity and span.
#[derive(Clone, Debug, PartialEq)]
pub struct Expr {
    /// Unique node id.
    pub id: NodeId,
    /// Source span.
    pub span: Span,
    /// The expression payload.
    pub kind: ExprKind,
}

impl Expr {
    /// Creates an expression with a fresh id and dummy span (for
    /// synthesized code produced by the mutator).
    pub fn synth(kind: ExprKind) -> Expr {
        Expr {
            id: NodeId::fresh(),
            span: Span::default(),
            kind,
        }
    }

    /// Convenience constructor for a synthesized name expression.
    pub fn name(name: impl Into<String>) -> Expr {
        Expr::synth(ExprKind::Name(name.into()))
    }

    /// Convenience constructor for a synthesized string literal.
    pub fn str(value: impl Into<String>) -> Expr {
        Expr::synth(ExprKind::Str(value.into()))
    }

    /// Convenience constructor for a synthesized integer literal.
    pub fn int(value: i64) -> Expr {
        Expr::synth(ExprKind::Num(Number::Int(value)))
    }

    /// Renders the dotted path of a name/attribute chain
    /// (`utils.execute` → `Some("utils.execute")`), or `None` if the
    /// expression is not a pure dotted path.
    pub fn dotted_path(&self) -> Option<String> {
        match &self.kind {
            ExprKind::Name(n) => Some(n.clone()),
            ExprKind::Attribute { value, attr } => {
                Some(format!("{}.{}", value.dotted_path()?, attr))
            }
            _ => None,
        }
    }
}

/// Numeric literal payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
}

/// Expression kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    /// Numeric literal.
    Num(Number),
    /// String literal.
    Str(String),
    /// `True` / `False`.
    Bool(bool),
    /// `None`.
    NoneLit,
    /// Identifier reference.
    Name(String),
    /// `value.attr`.
    Attribute {
        /// Object expression.
        value: Box<Expr>,
        /// Attribute name.
        attr: String,
    },
    /// `value[index]`.
    Subscript {
        /// Subscripted expression.
        value: Box<Expr>,
        /// Index expression (may be a [`ExprKind::Slice`]).
        index: Box<Expr>,
    },
    /// `lower:upper:step` inside a subscript.
    Slice {
        /// Lower bound.
        lower: Option<Box<Expr>>,
        /// Upper bound.
        upper: Option<Box<Expr>>,
        /// Step.
        step: Option<Box<Expr>>,
    },
    /// `func(args...)`.
    Call {
        /// Callee expression.
        func: Box<Expr>,
        /// Arguments in source order.
        args: Vec<Arg>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Binary arithmetic/bitwise operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `and`/`or` chains (two or more operands).
    BoolOp {
        /// `and` or `or`.
        op: BoolOpKind,
        /// Operands in source order.
        values: Vec<Expr>,
    },
    /// Chained comparison `a < b <= c`.
    Compare {
        /// Leftmost operand.
        left: Box<Expr>,
        /// Comparison operators, one per comparator.
        ops: Vec<CmpOp>,
        /// Right-hand operands.
        comparators: Vec<Expr>,
    },
    /// `lambda params: body`.
    Lambda {
        /// Parameters.
        params: Vec<Param>,
        /// Body expression.
        body: Box<Expr>,
    },
    /// `body if test else orelse`.
    IfExp {
        /// Condition.
        test: Box<Expr>,
        /// Value when true.
        body: Box<Expr>,
        /// Value when false.
        orelse: Box<Expr>,
    },
    /// Tuple display.
    Tuple(Vec<Expr>),
    /// List display.
    List(Vec<Expr>),
    /// Dict display.
    Dict(Vec<(Expr, Expr)>),
    /// Set display.
    Set(Vec<Expr>),
    /// `[elt for target in iter if cond...]`.
    ListComp {
        /// Element expression.
        elt: Box<Expr>,
        /// Loop target.
        target: Box<Expr>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Filter conditions.
        ifs: Vec<Expr>,
    },
    /// `*expr` in calls or assignments.
    Starred(Box<Expr>),
}

/// A call argument.
#[derive(Clone, Debug, PartialEq)]
pub enum Arg {
    /// Positional argument.
    Pos(Expr),
    /// Keyword argument `name=value`.
    Kw(String, Expr),
    /// `*expr` argument.
    Star(Expr),
    /// `**expr` argument.
    DoubleStar(Expr),
}

impl Arg {
    /// The argument's value expression.
    pub fn value(&self) -> &Expr {
        match self {
            Arg::Pos(e) | Arg::Kw(_, e) | Arg::Star(e) | Arg::DoubleStar(e) => e,
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `-x`
    Neg,
    /// `+x`
    Pos,
    /// `not x`
    Not,
    /// `~x`
    Invert,
}

/// Binary arithmetic and bitwise operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `//`
    FloorDiv,
    /// `%`
    Mod,
    /// `**`
    Pow,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}

impl BinOp {
    /// Source spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::FloorDiv => "//",
            BinOp::Mod => "%",
            BinOp::Pow => "**",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }
}

/// `and` / `or`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BoolOpKind {
    /// `and`
    And,
    /// `or`
    Or,
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `in`
    In,
    /// `not in`
    NotIn,
    /// `is`
    Is,
    /// `is not`
    IsNot,
}

impl CmpOp {
    /// Source spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::In => "in",
            CmpOp::NotIn => "not in",
            CmpOp::Is => "is",
            CmpOp::IsNot => "is not",
        }
    }
}

/// Structural equality over statement sequences that ignores
/// [`NodeId`]s and [`Span`]s (the parser's round-trip tests use it).
pub fn stmts_eq(a: &[Stmt], b: &[Stmt]) -> bool {
    use crate::unparse;
    if a.len() != b.len() {
        return false;
    }
    // Unparse-based comparison: simple and guaranteed to normalize ids
    // and spans away. The unparser is deterministic.
    a.iter()
        .zip(b.iter())
        .all(|(x, y)| unparse::unparse_stmt(x) == unparse::unparse_stmt(y))
}
