//! The source-code mutator (paper §IV-B): generates mutated versions
//! of the target from injection points.
//!
//! Two modes:
//!
//! * [`MutationMode::Direct`] — splice the replacement over the matched
//!   window.
//! * [`MutationMode::Triggered`] — EDFI-style switchable mutation: the
//!   window becomes
//!   `if profipy_rt.trigger(): <replacement> else: <original>`, so the
//!   sandbox can enable/disable the fault between workload rounds by
//!   writing the shared trigger cell (§IV-B).
//!
//! The mutator also provides the coverage instrumentation pre-pass of
//! §IV-D: a fault-free copy of the target with `profipy_rt.cov(id)`
//! probes at every injection point.

use crate::matcher::{match_at, Bindings};
use crate::scanner::InjectionPoint;
use faultdsl::spec::ELLIPSIS;
use faultdsl::{BugSpec, DirectiveKind};
use pysrc::ast::*;
use pysrc::unparse::{unparse_stmt, unparse_stmt_at};
use pysrc::visit::{child_blocks, child_blocks_mut, walk_blocks_mut};
use std::ops::Range;

/// How the fault is spliced into the target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MutationMode {
    /// Replace the window outright.
    Direct,
    /// Wrap in `if profipy_rt.trigger(): faulty else: original`.
    #[default]
    Triggered,
}

/// The mutator.
#[derive(Debug, Default)]
pub struct Mutator {
    mode: MutationMode,
}

/// Error applying a mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutateError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for MutateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mutation error: {}", self.message)
    }
}

impl std::error::Error for MutateError {}

/// A fault-free module's text, one piece per top-level statement
/// (their concatenation is `unparse_module`): what every mutant of the
/// module shares with it, rendered once.
#[derive(Clone, Debug)]
pub struct ModuleText {
    /// The module's name.
    name: String,
    /// Each top-level statement's text, in order.
    chunks: Vec<Chunk>,
}

/// One top-level statement's text.
#[derive(Clone, Debug)]
struct Chunk {
    /// The statement's id. Node ids are unique in a process, so the ids
    /// tell this module's text from that of any other parse — another
    /// module or another revision.
    id: NodeId,
    /// The statement's text.
    text: String,
    /// For a class: where in `text` its header line ends, then where
    /// each member's text does — a mutant under the class re-renders
    /// one member and takes the rest from here. Empty for any other
    /// statement.
    cuts: Vec<usize>,
}

impl Chunk {
    fn of(stmt: &Stmt) -> Chunk {
        let mut chunk = Chunk {
            id: stmt.id,
            text: String::new(),
            cuts: Vec::new(),
        };
        match &stmt.kind {
            StmtKind::ClassDef { body, .. } if !body.is_empty() => {
                // The header is the first line of the class, which with
                // no members is cheap to have the writer write.
                chunk.text = unparse_stmt(&class_spliced(stmt, 0..body.len(), Vec::new()));
                let header = chunk.text.find('\n').map_or(0, |end| end + 1);
                chunk.text.truncate(header);
                chunk.cuts.push(chunk.text.len());
                for member in body {
                    chunk.text.push_str(&unparse_stmt_at(member, 1));
                    chunk.cuts.push(chunk.text.len());
                }
            }
            _ => chunk.text = unparse_stmt(stmt),
        }
        chunk
    }
}

/// The class statement `class` — same id, span, name and bases — with
/// the members `at` of its body replaced by `stmts`.
fn class_spliced(class: &Stmt, at: Range<usize>, stmts: Vec<Stmt>) -> Stmt {
    let StmtKind::ClassDef { name, bases, body } = &class.kind else {
        unreachable!("a landing block other than the top level is a class's body");
    };
    Stmt {
        id: class.id,
        span: class.span,
        kind: StmtKind::ClassDef {
            name: name.clone(),
            bases: bases.clone(),
            body: spliced(body, at, stmts),
        },
    }
}

impl ModuleText {
    /// Renders `module`.
    pub fn of(module: &Module) -> ModuleText {
        ModuleText {
            name: module.name.clone(),
            chunks: module.body.iter().map(Chunk::of).collect(),
        }
    }

    /// Whether this is the text of `module`, statement for statement.
    fn is_of(&self, module: &Module) -> bool {
        self.name == module.name
            && self.chunks.len() == module.body.len()
            && self
                .chunks
                .iter()
                .zip(&module.body)
                .all(|(c, s)| c.id == s.id)
    }
}

/// A mutant as text ([`Mutator::render`]).
#[derive(Clone, Debug)]
pub struct Rendered {
    /// The mutated module's text.
    pub text: String,
    /// The one `def` the mutant differs from the fault-free module in,
    /// when its window lies under a `def`.
    pub def: Option<ChangedDef>,
}

/// The function a mutant changed, cut from the splice that rendered the
/// mutant's text.
#[derive(Clone, Debug)]
pub struct ChangedDef {
    /// The `def` statement's id in the fault-free module: the
    /// outermost `def` the window lies under.
    pub id: NodeId,
    /// The mutated `def` on its own at indent level 0 — the lines it
    /// has in [`Rendered::text`], dedented.
    pub text: String,
    /// The statement [`Rendered::text`] has in front of the fault-free
    /// module's top level, as text: `import profipy_rt`, or none.
    pub lead: Option<String>,
}

/// One mutation, as an edit of its landing block — the module's top
/// level, or the body of the top-level class the window lies in or
/// under: the statements `at` of that block give way to `stmts`. A
/// window deeper than the landing block replaces the one statement of
/// it that the window lies under with a spliced copy; the rest of the
/// module is never copied to find that out.
struct Splice {
    /// The top-level statement whose body the landing block is, if it
    /// is a class's and not the module's top level.
    class: Option<usize>,
    /// The statements of the landing block replaced.
    at: Range<usize>,
    /// What replaces them.
    stmts: Vec<Stmt>,
    /// Whether the mutant then lacks `import profipy_rt` and gets it
    /// as its first statement.
    add_import: bool,
    /// The outermost `def` on the way from the landing block down to
    /// the window: its copy, same id, is in or under `stmts`, and
    /// nothing outside it differs from the fault-free module.
    def: Option<NodeId>,
}

/// Where a window's first statement is, seen from its landing block.
struct Located<'a> {
    class: Option<usize>,
    landing: &'a [Stmt],
    /// The landing-block statement that is, or has below it, the
    /// window's first.
    slot: usize,
    /// The block that holds the window, and where in it the window
    /// starts.
    block: &'a [Stmt],
    start: usize,
    def: Option<NodeId>,
}

/// Finds statement `id` from `landing` (the body of top-level statement
/// `class`, or with `None` the module's top level). A top-level class
/// met on the way is not searched as one statement: its body becomes
/// the landing block.
fn locate(landing: &[Stmt], class: Option<usize>, id: NodeId) -> Option<Located<'_>> {
    landing.iter().enumerate().find_map(|(slot, stmt)| {
        if stmt.id == id {
            return Some(Located {
                class,
                landing,
                slot,
                block: landing,
                start: slot,
                def: None,
            });
        }
        if let (None, StmtKind::ClassDef { body, .. }) = (class, &stmt.kind) {
            return locate(body, Some(slot), id);
        }
        let (block, start, def) = find_under(stmt, id, None)?;
        Some(Located {
            class,
            landing,
            slot,
            block,
            start,
            def,
        })
    })
}

/// The block under `stmt` that holds statement `id`, the statement's
/// index in it, and the outermost `def` passed on the way down from
/// (and including) `stmt`, unless `def` already names one further out.
/// Ids are unique, so the first hit is the only one and the search
/// stops there.
fn find_under(
    stmt: &Stmt,
    id: NodeId,
    def: Option<NodeId>,
) -> Option<(&[Stmt], usize, Option<NodeId>)> {
    let def = def.or(matches!(stmt.kind, StmtKind::FuncDef { .. }).then_some(stmt.id));
    child_blocks(stmt).into_iter().find_map(|block| {
        if let Some(at) = block.iter().position(|s| s.id == id) {
            return Some((block, at, def));
        }
        block.iter().find_map(|s| find_under(s, id, def))
    })
}

/// The statement `id` at or under `body`.
fn find_stmt(body: &[Stmt], id: NodeId) -> Option<&Stmt> {
    body.iter().find_map(|s| {
        if s.id == id {
            return Some(s);
        }
        let (block, at, _) = find_under(s, id, None)?;
        Some(&block[at])
    })
}

/// The block under `stmt`, about to be edited, that holds statement
/// `id`, and the statement's index in it.
fn find_under_mut(stmt: &mut Stmt, id: NodeId) -> Option<(&mut Vec<Stmt>, usize)> {
    child_blocks_mut(stmt).into_iter().find_map(|block| {
        if let Some(at) = block.iter().position(|s| s.id == id) {
            return Some((block, at));
        }
        block.iter_mut().find_map(|s| find_under_mut(s, id))
    })
}

/// `block` with the statements `at` replaced by `stmts`, the rest
/// copied.
fn spliced(block: &[Stmt], at: Range<usize>, stmts: Vec<Stmt>) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(block.len() - at.len() + stmts.len());
    out.extend_from_slice(&block[..at.start]);
    out.extend(stmts);
    out.extend_from_slice(&block[at.end..]);
    out
}

impl Mutator {
    /// Creates a mutator with the given mode.
    pub fn new(mode: MutationMode) -> Mutator {
        Mutator { mode }
    }

    /// The one mutation path: locates the point's window on the
    /// borrowed module, re-matches it, instantiates the replacement
    /// and lands it — in the landing block itself, or in a copy of the
    /// one statement of it the window lies under.
    fn splice(
        &self,
        module: &Module,
        spec: &BugSpec,
        point: &InjectionPoint,
    ) -> Result<Splice, MutateError> {
        if module.name != point.module {
            return Err(MutateError {
                message: format!(
                    "point {} targets module {}, got {}",
                    point.id, point.module, module.name
                ),
            });
        }
        let body = &module.body;
        let id = point.start_stmt_id;
        let matched = locate(body, None, id)
            .and_then(|found| Some((match_at(spec, found.block, found.start)?, found)));
        let Some((m, found)) = matched else {
            return Err(MutateError {
                message: format!(
                    "could not re-locate window for point {} (spec {})",
                    point.id, point.spec_name
                ),
            });
        };
        let Located {
            class,
            landing,
            slot,
            block,
            start,
            def,
        } = found;
        let window = start..start + m.len;
        let replacement = instantiate(spec, &spec.replacement, &m.bindings);
        let stmts = match self.mode {
            MutationMode::Direct => replacement,
            MutationMode::Triggered => {
                vec![trigger_wrap(replacement, block[window.clone()].to_vec())]
            }
        };
        let (at, stmts) = if landing[slot].id == id {
            (window, stmts)
        } else {
            let mut holder = landing[slot].clone();
            let (block, _) = find_under_mut(&mut holder, id)
                .expect("the copy holds the statement the original does");
            block.splice(window, stmts);
            (slot..slot + 1, vec![holder])
        };
        // A class statement is no import, whatever lands in its body.
        let add_import = !match class {
            Some(_) => imports_profipy_rt(body),
            None => {
                imports_profipy_rt(&body[..at.start])
                    || imports_profipy_rt(&stmts)
                    || imports_profipy_rt(&body[at.end..])
            }
        };
        Ok(Splice {
            class,
            at,
            stmts,
            add_import,
            def,
        })
    }

    /// Produces the mutated version of `module` for one injection
    /// point. Node identity of the window start is used to re-locate
    /// the match; the statements the mutation leaves alone are copies.
    ///
    /// # Errors
    ///
    /// Fails if the point's window can no longer be located or
    /// re-matched (e.g. the point belongs to a different module).
    pub fn apply(
        &self,
        module: &Module,
        spec: &BugSpec,
        point: &InjectionPoint,
    ) -> Result<Module, MutateError> {
        let splice = self.splice(module, spec, point)?;
        let (at, stmts) = match splice.class {
            None => (splice.at, splice.stmts),
            Some(top) => (
                top..top + 1,
                vec![class_spliced(&module.body[top], splice.at, splice.stmts)],
            ),
        };
        let mut body = spliced(&module.body, at, stmts);
        if splice.add_import {
            body.insert(0, profipy_rt_import());
        }
        Ok(Module {
            name: module.name.clone(),
            body,
        })
    }

    /// The text of the mutated module — `unparse_module` of
    /// [`Mutator::apply`], byte for byte — from the pieces of `text`
    /// (the fault-free module's, see [`ModuleText`]): only the
    /// statements the mutation puts in are rendered. With it, read off
    /// the same splice, the `def` that holds everything the mutation
    /// changed, if there is one.
    ///
    /// # Errors
    ///
    /// As [`Mutator::apply`]; also if `text` is not `module`'s.
    pub fn render(
        &self,
        module: &Module,
        text: &ModuleText,
        spec: &BugSpec,
        point: &InjectionPoint,
    ) -> Result<Rendered, MutateError> {
        if !text.is_of(module) {
            return Err(MutateError {
                message: format!("module text is not that of {}", module.name),
            });
        }
        let splice = self.splice(module, spec, point)?;
        let chunks = &text.chunks;
        let shared: usize = chunks.iter().map(|c| c.text.len()).sum();
        let mut out = String::with_capacity(shared + 256);
        let lead = splice
            .add_import
            .then(|| unparse_stmt(&profipy_rt_import()));
        out.extend(lead.as_deref());
        let put = |out: &mut String, level: usize| {
            out.extend(splice.stmts.iter().map(|s| unparse_stmt_at(s, level)));
        };
        match splice.class {
            None => {
                out.extend(chunks[..splice.at.start].iter().map(|c| c.text.as_str()));
                put(&mut out, 0);
                out.extend(chunks[splice.at.end..].iter().map(|c| c.text.as_str()));
            }
            Some(top) => {
                out.extend(chunks[..top].iter().map(|c| c.text.as_str()));
                let Chunk { text, cuts, .. } = &chunks[top];
                if splice.stmts.is_empty() && splice.at.len() + 1 == cuts.len() {
                    // Every member went and nothing came: the writer
                    // says what a class of no members reads like.
                    let class = class_spliced(&module.body[top], splice.at.clone(), Vec::new());
                    out.push_str(&unparse_stmt(&class));
                } else {
                    out.push_str(&text[..cuts[splice.at.start]]);
                    put(&mut out, 1);
                    out.push_str(&text[cuts[splice.at.end]..]);
                }
                out.extend(chunks[top + 1..].iter().map(|c| c.text.as_str()));
            }
        }
        let def = splice.def.map(|id| ChangedDef {
            id,
            text: unparse_stmt(
                find_stmt(&splice.stmts, id).expect("the spliced copy keeps the def's id"),
            ),
            lead,
        });
        Ok(Rendered { text: out, def })
    }

    /// Builds the fault-free, coverage-instrumented copy of a module
    /// (paper §IV-D): inserts `profipy_rt.cov(<point id>)` immediately
    /// before the window of every point that lives in this module.
    pub fn instrument_coverage(&self, module: &Module, points: &[InjectionPoint]) -> Module {
        let mut instrumented = module.clone();
        walk_blocks_mut(&mut instrumented, &mut |block| {
            // Gather (index, point id) pairs, then insert back-to-front
            // so indices stay valid.
            let mut inserts: Vec<(usize, u64)> = Vec::new();
            for p in points {
                if p.module != module.name {
                    continue;
                }
                if let Some(idx) = block.iter().position(|s| s.id == p.start_stmt_id) {
                    inserts.push((idx, p.id));
                }
            }
            inserts.sort_by(|a, b| b.cmp(a));
            for (idx, id) in inserts {
                block.insert(idx, cov_probe(id));
            }
        });
        if !imports_profipy_rt(&instrumented.body) {
            instrumented.body.insert(0, profipy_rt_import());
        }
        instrumented
    }
}

/// `profipy_rt.cov(<id>)` statement.
fn cov_probe(id: u64) -> Stmt {
    Stmt::synth(StmtKind::Expr(rt_call("cov", vec![Expr::int(id as i64)])))
}

/// `profipy_rt.<name>(args)` expression.
fn rt_call(name: &str, args: Vec<Expr>) -> Expr {
    Expr::synth(ExprKind::Call {
        func: Box::new(Expr::synth(ExprKind::Attribute {
            value: Box::new(Expr::name("profipy_rt")),
            attr: name.to_string(),
        })),
        args: args.into_iter().map(Arg::Pos).collect(),
    })
}

/// `if profipy_rt.trigger(): <faulty> else: <original>`.
fn trigger_wrap(mut faulty: Vec<Stmt>, original: Vec<Stmt>) -> Stmt {
    if faulty.is_empty() {
        faulty.push(Stmt::synth(StmtKind::Pass));
    }
    Stmt::synth(StmtKind::If {
        branches: vec![(rt_call("trigger", vec![]), faulty)],
        orelse: original,
    })
}

/// Whether one of these (top-level) statements is `import profipy_rt`.
fn imports_profipy_rt(body: &[Stmt]) -> bool {
    body.iter().any(|s| {
        matches!(&s.kind, StmtKind::Import(aliases) if aliases.iter().any(|a| a.name == "profipy_rt"))
    })
}

/// `import profipy_rt`, which a mutated or instrumented module that
/// lacks it gets as its first statement.
fn profipy_rt_import() -> Stmt {
    Stmt::synth(StmtKind::Import(vec![ImportAlias {
        name: "profipy_rt".to_string(),
        alias: None,
    }]))
}

/// Instantiates replacement statements against bindings, producing
/// fresh-id AST nodes.
pub fn instantiate(spec: &BugSpec, replacement: &[Stmt], bindings: &Bindings) -> Vec<Stmt> {
    let mut out = Vec::new();
    for stmt in replacement {
        instantiate_stmt(spec, stmt, bindings, &mut out);
    }
    out
}

fn instantiate_stmt(spec: &BugSpec, stmt: &Stmt, bindings: &Bindings, out: &mut Vec<Stmt>) {
    // Placeholder-statement forms: $BLOCK / $HOG / $TIMEOUT / tagged exprs.
    if let StmtKind::Expr(e) = &stmt.kind {
        if let ExprKind::Name(n) = &e.kind {
            if let Some(d) = spec.directive(n) {
                match &d.kind {
                    DirectiveKind::Block { .. } => {
                        if let Some(tag) = &d.tag {
                            if let Some(stmts) = bindings.blocks.get(tag) {
                                out.extend(stmts.iter().map(refresh_stmt));
                            }
                        }
                        return;
                    }
                    DirectiveKind::Hog => {
                        out.push(Stmt::synth(StmtKind::Expr(rt_call("hog", vec![]))));
                        return;
                    }
                    DirectiveKind::Timeout { secs } => {
                        out.push(Stmt::synth(StmtKind::Expr(rt_call(
                            "delay",
                            vec![Expr::synth(ExprKind::Num(Number::Float(*secs)))],
                        ))));
                        return;
                    }
                    _ => {
                        // Tagged expression as a statement.
                        let inst = instantiate_expr(spec, e, bindings);
                        out.push(Stmt::synth(StmtKind::Expr(inst)));
                        return;
                    }
                }
            }
        }
    }
    // Ordinary statement: clone with instantiated expressions and
    // recursively instantiated bodies.
    let kind = match &stmt.kind {
        StmtKind::Expr(e) => StmtKind::Expr(instantiate_expr(spec, e, bindings)),
        StmtKind::Assign { targets, value } => StmtKind::Assign {
            targets: targets
                .iter()
                .map(|t| instantiate_expr(spec, t, bindings))
                .collect(),
            value: instantiate_expr(spec, value, bindings),
        },
        StmtKind::AugAssign { target, op, value } => StmtKind::AugAssign {
            target: instantiate_expr(spec, target, bindings),
            op: *op,
            value: instantiate_expr(spec, value, bindings),
        },
        StmtKind::Return(v) => {
            StmtKind::Return(v.as_ref().map(|e| instantiate_expr(spec, e, bindings)))
        }
        StmtKind::Raise { exc, cause } => StmtKind::Raise {
            exc: exc.as_ref().map(|e| instantiate_expr(spec, e, bindings)),
            cause: cause.as_ref().map(|e| instantiate_expr(spec, e, bindings)),
        },
        StmtKind::If { branches, orelse } => StmtKind::If {
            branches: branches
                .iter()
                .map(|(c, body)| {
                    (
                        instantiate_expr(spec, c, bindings),
                        instantiate(spec, body, bindings),
                    )
                })
                .collect(),
            orelse: instantiate(spec, orelse, bindings),
        },
        StmtKind::While { test, body, orelse } => StmtKind::While {
            test: instantiate_expr(spec, test, bindings),
            body: instantiate(spec, body, bindings),
            orelse: instantiate(spec, orelse, bindings),
        },
        StmtKind::For {
            target,
            iter,
            body,
            orelse,
        } => StmtKind::For {
            target: instantiate_expr(spec, target, bindings),
            iter: instantiate_expr(spec, iter, bindings),
            body: instantiate(spec, body, bindings),
            orelse: instantiate(spec, orelse, bindings),
        },
        other => other.clone(),
    };
    out.push(Stmt::synth(kind));
}

/// Deep-clones a bound statement with fresh node ids (so a statement
/// reused in both trigger branches keeps unique identity).
fn refresh_stmt(stmt: &Stmt) -> Stmt {
    let mut s = stmt.clone();
    s.id = NodeId::fresh();
    s
}

fn instantiate_expr(spec: &BugSpec, expr: &Expr, bindings: &Bindings) -> Expr {
    // Placeholder reference?
    if let ExprKind::Name(n) = &expr.kind {
        if let Some(d) = spec.directive(n) {
            if let Some(tag) = &d.tag {
                if let Some(bound) = bindings.exprs.get(tag) {
                    return bound.clone();
                }
            }
        }
    }
    match &expr.kind {
        ExprKind::Call { func, args } => {
            // `$CORRUPT(x)` → profipy_rt.corrupt(x)
            if let ExprKind::Name(n) = &func.kind {
                if let Some(d) = spec.directive(n) {
                    match &d.kind {
                        DirectiveKind::Corrupt => {
                            let inner = args
                                .first()
                                .map(|a| instantiate_expr(spec, a.value(), bindings))
                                .unwrap_or_else(|| Expr::synth(ExprKind::NoneLit));
                            return rt_call("corrupt", vec![inner]);
                        }
                        DirectiveKind::Call { .. } => {
                            if let Some(tag) = &d.tag {
                                return rebuild_call(spec, tag, args, bindings);
                            }
                        }
                        _ => {}
                    }
                }
            }
            Expr::synth(ExprKind::Call {
                func: Box::new(instantiate_expr(spec, func, bindings)),
                args: args
                    .iter()
                    .map(|a| instantiate_arg(spec, a, bindings))
                    .collect(),
            })
        }
        ExprKind::Attribute { value, attr } => Expr::synth(ExprKind::Attribute {
            value: Box::new(instantiate_expr(spec, value, bindings)),
            attr: attr.clone(),
        }),
        ExprKind::Subscript { value, index } => Expr::synth(ExprKind::Subscript {
            value: Box::new(instantiate_expr(spec, value, bindings)),
            index: Box::new(instantiate_expr(spec, index, bindings)),
        }),
        ExprKind::Unary { op, operand } => Expr::synth(ExprKind::Unary {
            op: *op,
            operand: Box::new(instantiate_expr(spec, operand, bindings)),
        }),
        ExprKind::Binary { left, op, right } => Expr::synth(ExprKind::Binary {
            left: Box::new(instantiate_expr(spec, left, bindings)),
            op: *op,
            right: Box::new(instantiate_expr(spec, right, bindings)),
        }),
        ExprKind::BoolOp { op, values } => Expr::synth(ExprKind::BoolOp {
            op: *op,
            values: values
                .iter()
                .map(|v| instantiate_expr(spec, v, bindings))
                .collect(),
        }),
        ExprKind::Compare {
            left,
            ops,
            comparators,
        } => Expr::synth(ExprKind::Compare {
            left: Box::new(instantiate_expr(spec, left, bindings)),
            ops: ops.clone(),
            comparators: comparators
                .iter()
                .map(|c| instantiate_expr(spec, c, bindings))
                .collect(),
        }),
        ExprKind::Tuple(items) => Expr::synth(ExprKind::Tuple(
            items
                .iter()
                .map(|i| instantiate_expr(spec, i, bindings))
                .collect(),
        )),
        ExprKind::List(items) => Expr::synth(ExprKind::List(
            items
                .iter()
                .map(|i| instantiate_expr(spec, i, bindings))
                .collect(),
        )),
        ExprKind::Set(items) => Expr::synth(ExprKind::Set(
            items
                .iter()
                .map(|i| instantiate_expr(spec, i, bindings))
                .collect(),
        )),
        ExprKind::Dict(pairs) => Expr::synth(ExprKind::Dict(
            pairs
                .iter()
                .map(|(k, v)| {
                    (
                        instantiate_expr(spec, k, bindings),
                        instantiate_expr(spec, v, bindings),
                    )
                })
                .collect(),
        )),
        ExprKind::IfExp { test, body, orelse } => Expr::synth(ExprKind::IfExp {
            test: Box::new(instantiate_expr(spec, test, bindings)),
            body: Box::new(instantiate_expr(spec, body, bindings)),
            orelse: Box::new(instantiate_expr(spec, orelse, bindings)),
        }),
        ExprKind::Starred(inner) => Expr::synth(ExprKind::Starred(Box::new(instantiate_expr(
            spec, inner, bindings,
        )))),
        _ => {
            let mut e = expr.clone();
            e.id = NodeId::fresh();
            e
        }
    }
}

fn instantiate_arg(spec: &BugSpec, arg: &Arg, bindings: &Bindings) -> Arg {
    match arg {
        Arg::Pos(e) => Arg::Pos(instantiate_expr(spec, e, bindings)),
        Arg::Kw(n, e) => Arg::Kw(n.clone(), instantiate_expr(spec, e, bindings)),
        Arg::Star(e) => Arg::Star(instantiate_expr(spec, e, bindings)),
        Arg::DoubleStar(e) => Arg::DoubleStar(instantiate_expr(spec, e, bindings)),
    }
}

/// Rebuilds a tagged call: `$CALL#c(<arg pattern>)` in the replacement
/// takes the *original* matched call and rewrites its arguments.
///
/// * No `...` in the replacement arg pattern → the arguments are
///   exactly the instantiated explicit elements (parameter dropping).
/// * With `...` → original arguments pass through, except that the
///   argument matched by the k-th explicit *pattern* element is
///   replaced by the instantiated k-th explicit *replacement* element.
fn rebuild_call(spec: &BugSpec, tag: &str, rep_args: &[Arg], bindings: &Bindings) -> Expr {
    let Some(original) = bindings.exprs.get(tag) else {
        return Expr::synth(ExprKind::NoneLit);
    };
    let ExprKind::Call {
        func: orig_func,
        args: orig_args,
    } = &original.kind
    else {
        return original.clone();
    };
    let is_ellipsis = |a: &Arg| {
        matches!(a, Arg::Pos(e) if matches!(&e.kind, ExprKind::Name(n) if n == ELLIPSIS))
    };
    let has_ellipsis = rep_args.iter().any(is_ellipsis);
    let new_args: Vec<Arg> = if !has_ellipsis {
        rep_args
            .iter()
            .map(|a| instantiate_arg(spec, a, bindings))
            .collect()
    } else {
        let explicit: Vec<&Arg> = rep_args.iter().filter(|a| !is_ellipsis(a)).collect();
        let map = bindings
            .call_arg_map
            .get(tag)
            .cloned()
            .unwrap_or_default();
        let mut out = Vec::with_capacity(orig_args.len());
        for (i, orig) in orig_args.iter().enumerate() {
            match map.iter().position(|&m| m == i) {
                Some(k) if k < explicit.len() => {
                    out.push(instantiate_arg(spec, explicit[k], bindings));
                }
                _ => out.push(orig.clone()),
            }
        }
        out
    };
    Expr::synth(ExprKind::Call {
        func: orig_func.clone(),
        args: new_args,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::Scanner;
    use faultdsl::parse_spec;
    use pysrc::unparse::unparse_module;

    fn mutate_one(dsl: &str, src: &str, mode: MutationMode) -> String {
        mutate_first(dsl, src, mode).1.text
    }

    /// The mutant of the first point `dsl` finds in `src`, with the
    /// module it was made from.
    fn mutate_first(dsl: &str, src: &str, mode: MutationMode) -> (Module, Rendered) {
        let spec = parse_spec(dsl, "S").unwrap();
        let module = pysrc::parse_module(src, "m.py").unwrap();
        let scanner = Scanner::new(vec![spec.clone()]);
        let points = scanner.scan(std::slice::from_ref(&module));
        assert!(!points.is_empty(), "no injection points found");
        let mutator = Mutator::new(mode);
        let mutated = unparse_module(&mutator.apply(&module, &spec, &points[0]).unwrap());
        // Every mutant below is also rendered without building it.
        let rendered = mutator
            .render(&module, &ModuleText::of(&module), &spec, &points[0])
            .unwrap();
        assert_eq!(
            rendered.text, mutated,
            "render and apply + unparse disagree"
        );
        (module, rendered)
    }

    /// [`mutate_first`] on a mutant that must still be Python.
    fn mutate_to_python(dsl: &str, src: &str, mode: MutationMode) -> (Module, Rendered) {
        let (module, rendered) = mutate_first(dsl, src, mode);
        let text = &rendered.text;
        pysrc::parse_module(text, "check.py").unwrap_or_else(|e| panic!("{e}:\n{text}"));
        (module, rendered)
    }

    /// The members of the top-level class `module.body[top]`.
    fn members(module: &Module, top: usize) -> &[Stmt] {
        let StmtKind::ClassDef { body, .. } = &module.body[top].kind else {
            panic!("statement {top} is no class");
        };
        body
    }

    /// Replaces a call of `f`.
    const OMIT_F: &str = "change {\n    $CALL{name=f}(...)\n} into {\n    pass\n}";

    #[test]
    fn a_window_in_a_method_lands_in_the_class_body_and_names_the_method() {
        let src = "class A(B):\n    x = 1\n    def m(self):\n        f(self)\n        return 2\n    def n(self):\n        return 3\ny = A()\n";
        let (module, rendered) = mutate_to_python(OMIT_F, src, MutationMode::Direct);
        assert_eq!(
            rendered.text,
            "import profipy_rt\nclass A(B):\n    x = 1\n    def m(self):\n        pass\n        return 2\n    def n(self):\n        return 3\ny = A()\n"
        );
        let def = rendered.def.expect("the window lies under m");
        assert_eq!(def.id, members(&module, 0)[1].id);
        assert_eq!(def.text, "def m(self):\n    pass\n    return 2\n");
        assert_eq!(def.lead.as_deref(), Some("import profipy_rt\n"));

        let (module, rendered) = mutate_to_python(OMIT_F, src, MutationMode::Triggered);
        let def = rendered.def.expect("the window lies under m");
        assert_eq!(def.id, members(&module, 0)[1].id);
        assert_eq!(
            def.text,
            "def m(self):\n    if profipy_rt.trigger():\n        pass\n    else:\n        f(self)\n    return 2\n"
        );
        // The def's lines are the mutant's, four columns in.
        let indented: String = def.text.lines().map(|l| format!("    {l}\n")).collect();
        assert!(rendered.text.contains(&indented), "{}", rendered.text);
    }

    #[test]
    fn the_def_named_is_the_outermost_on_the_way_down() {
        // A nested def, a def under a module-level `if`, and a method
        // of a class nested in a function: one override covers each.
        for (src, def_text) in [
            (
                "def outer(c):\n    def inner():\n        f(c)\n    return inner\n",
                "def outer(c):\n    def inner():\n        pass\n    return inner\n",
            ),
            (
                "if flag:\n    def g(c):\n        f(c)\nelse:\n    g = None\n",
                "def g(c):\n    pass\n",
            ),
            (
                "def make():\n    class K:\n        def m(self):\n            f(self)\n    return K\n",
                "def make():\n    class K:\n        def m(self):\n            pass\n    return K\n",
            ),
        ] {
            let (_, rendered) = mutate_to_python(OMIT_F, src, MutationMode::Direct);
            assert_eq!(rendered.def.expect("under a def").text, def_text);
        }
    }

    #[test]
    fn a_window_that_is_a_class_member_names_no_def() {
        // The window starts at the `def` itself: a class-level window,
        // landed in the class body with nothing copied.
        let dsl = "change {\n    $BLOCK{tag=b; stmts=1,1}\n    $CALL{name=f}(...)\n} into {\n    $BLOCK{tag=b}\n}";
        let src = "class A:\n    def m(self):\n        return 1\n    f(m)\n    z = 2\n";
        for mode in [MutationMode::Direct, MutationMode::Triggered] {
            let (_, rendered) = mutate_to_python(dsl, src, mode);
            assert!(rendered.def.is_none(), "{:?}", rendered.def);
            assert!(rendered.text.ends_with("    z = 2\n"));
        }
        let (_, rendered) = mutate_to_python(dsl, src, MutationMode::Direct);
        assert_eq!(
            rendered.text,
            "import profipy_rt\nclass A:\n    def m(self):\n        return 1\n    z = 2\n"
        );
        // A class-level window, triggered: the wrapper is a member.
        let (_, rendered) =
            mutate_to_python(OMIT_F, "class A:\n    f(1)\n", MutationMode::Triggered);
        assert_eq!(
            rendered.text,
            "import profipy_rt\nclass A:\n    if profipy_rt.trigger():\n        pass\n    else:\n        f(1)\n"
        );
        assert!(rendered.def.is_none());
    }

    #[test]
    fn a_class_mutated_empty_becomes_pass() {
        let src = "x = 0\nclass A(Base):\n    if x:\n        y = 1\nz = A()\n";
        let (_, rendered) = mutate_to_python(MIFS, src, MutationMode::Direct);
        assert_eq!(
            rendered.text,
            "import profipy_rt\nx = 0\nclass A(Base):\n    pass\nz = A()\n"
        );
        let (_, rendered) = mutate_to_python(MIFS, src, MutationMode::Triggered);
        assert!(rendered.text.contains("class A(Base):\n    if profipy_rt.trigger():\n        pass\n    else:\n        if x:\n"));
    }

    #[test]
    fn only_a_top_level_class_is_a_landing_block() {
        // Under a module-level `if` the class is part of the one
        // top-level statement that is copied, as before; the method is
        // still the def named.
        let src = "if flag:\n    class A:\n        def m(self):\n            f(self)\nelse:\n    A = None\n";
        let (module, rendered) = mutate_to_python(OMIT_F, src, MutationMode::Direct);
        assert_eq!(
            rendered.text,
            "import profipy_rt\nif flag:\n    class A:\n        def m(self):\n            pass\nelse:\n    A = None\n"
        );
        let StmtKind::If { branches, .. } = &module.body[0].kind else {
            panic!("an if");
        };
        let StmtKind::ClassDef { body, .. } = &branches[0].1[0].kind else {
            panic!("a class");
        };
        let def = rendered.def.expect("under m");
        assert_eq!(def.id, body[0].id);
        assert_eq!(def.text, "def m(self):\n    pass\n");
    }

    #[test]
    fn the_second_of_two_classes_is_landed_in() {
        let src = "class A:\n    def m(self):\n        return 1\nclass B(A):\n    def m(self):\n        return 2\n    def n(self):\n        f(self)\nprint(B().n())\n";
        let (module, rendered) = mutate_to_python(OMIT_F, src, MutationMode::Direct);
        assert_eq!(
            rendered.text,
            "import profipy_rt\nclass A:\n    def m(self):\n        return 1\nclass B(A):\n    def m(self):\n        return 2\n    def n(self):\n        pass\nprint(B().n())\n"
        );
        assert_eq!(rendered.def.expect("under n").id, members(&module, 1)[1].id);
        // The module's own import is kept, not doubled.
        let (_, rendered) = mutate_to_python(
            OMIT_F,
            "import profipy_rt\nclass A:\n    def m(self):\n        f(self)\n",
            MutationMode::Direct,
        );
        assert_eq!(
            rendered.text,
            "import profipy_rt\nclass A:\n    def m(self):\n        pass\n"
        );
        assert_eq!(rendered.def.expect("under m").lead, None);
    }

    #[test]
    fn module_text_cuts_every_catalog_class_into_header_and_members() {
        let mut classes = 0;
        for target in scenarios::default_catalog() {
            let texts = target.sources.iter().map(|(n, t)| (n.as_str(), t));
            for (name, text) in texts.chain([("workload", &target.workload)]) {
                let module = pysrc::parse_module(text, name).unwrap();
                let pieces = ModuleText::of(&module);
                assert!(pieces.is_of(&module));
                for (chunk, stmt) in pieces.chunks.iter().zip(&module.body) {
                    assert_eq!(chunk.text, unparse_stmt(stmt), "{}/{name}", target.name);
                    let StmtKind::ClassDef { body, .. } = &stmt.kind else {
                        assert!(chunk.cuts.is_empty());
                        continue;
                    };
                    classes += 1;
                    assert_eq!(chunk.cuts.len(), body.len() + 1);
                    assert!(chunk.text[..chunk.cuts[0]].starts_with("class "));
                    assert_eq!(chunk.text[..chunk.cuts[0]].matches('\n').count(), 1);
                    for (member, cut) in body.iter().zip(chunk.cuts.windows(2)) {
                        assert_eq!(chunk.text[cut[0]..cut[1]], unparse_stmt_at(member, 1));
                    }
                }
            }
        }
        assert!(
            classes >= 4,
            "the catalog's sources define classes: {classes}"
        );
    }

    #[test]
    fn direct_mfc_removes_call() {
        let out = mutate_one(
            "change {\n    $BLOCK{tag=b1; stmts=1,*}\n    $CALL{name=delete_*}(...)\n    $BLOCK{tag=b2; stmts=1,*}\n} into {\n    $BLOCK{tag=b1}\n    $BLOCK{tag=b2}\n}",
            "def f(x):\n    a = 1\n    delete_port(x)\n    b = 2\n",
            MutationMode::Direct,
        );
        assert!(!out.contains("delete_port"));
        assert!(out.contains("a = 1"));
        assert!(out.contains("b = 2"));
        assert!(out.starts_with("import profipy_rt\n"));
    }

    #[test]
    fn triggered_mutation_keeps_original_in_else() {
        let out = mutate_one(
            "change {\n    $CALL{name=delete_*}(...)\n} into {\n    pass\n}",
            "def f(x):\n    delete_port(x)\n",
            MutationMode::Triggered,
        );
        assert!(out.contains("if profipy_rt.trigger():"));
        assert!(out.contains("pass"));
        assert!(out.contains("else:"));
        assert!(out.contains("delete_port(x)"));
        // The mutated module still parses.
        pysrc::parse_module(&out, "check.py").unwrap();
    }

    #[test]
    fn wpf_corrupts_only_flag_argument() {
        let out = mutate_one(
            "change {\n    $CALL#c{name=utils.execute}(..., $STRING#s{val=*-*}, ...)\n} into {\n    $CALL#c(..., $CORRUPT($STRING#s), ...)\n}",
            "utils.execute('iptables', '--dport 2379', table)\n",
            MutationMode::Direct,
        );
        assert!(out.contains("utils.execute('iptables', profipy_rt.corrupt('--dport 2379'), table)"));
    }

    #[test]
    fn missing_parameter_drops_trailing_args() {
        let out = mutate_one(
            "change {\n    $VAR#r = $CALL#c{name=urllib.request}($EXPR#m, $EXPR#u, ...)\n} into {\n    $VAR#r = $CALL#c($EXPR#m, $EXPR#u)\n}",
            "resp = urllib.request('PUT', url, body, timeout=5)\n",
            MutationMode::Direct,
        );
        assert!(out.contains("resp = urllib.request('PUT', url)\n"));
    }

    #[test]
    fn hog_is_appended_after_call() {
        let out = mutate_one(
            "change {\n    $VAR#r = $CALL#c{name=*}(...)\n} into {\n    $VAR#r = $CALL#c(...)\n    $HOG\n}",
            "r = client.set(k, v)\n",
            MutationMode::Direct,
        );
        assert!(out.contains("r = client.set(k, v)\nprofipy_rt.hog()\n"));
    }

    #[test]
    fn timeout_injects_delay() {
        let out = mutate_one(
            "change {\n    $VAR#r = $CALL#c{name=*}(...)\n} into {\n    $TIMEOUT{secs=5}\n    $VAR#r = $CALL#c(...)\n}",
            "r = get()\n",
            MutationMode::Direct,
        );
        assert!(out.contains("profipy_rt.delay(5.0)\nr = get()\n"));
    }

    #[test]
    fn mifs_deletes_guarded_block() {
        let out = mutate_one(
            "change {\n    if $EXPR{var=node}:\n        $BLOCK{stmts=1,4}\n        continue\n} into {\n}",
            "for node in nodes:\n    if not node:\n        skip(node)\n        continue\n    work(node)\n",
            MutationMode::Direct,
        );
        assert!(!out.contains("skip(node)"));
        assert!(out.contains("work(node)"));
        pysrc::parse_module(&out, "check.py").unwrap();
    }

    #[test]
    fn empty_replacement_under_trigger_becomes_pass() {
        let out = mutate_one(
            "change {\n    if $EXPR{var=node}:\n        $BLOCK{stmts=1,4}\n        continue\n} into {\n}",
            "for node in nodes:\n    if not node:\n        skip(node)\n        continue\n    work(node)\n",
            MutationMode::Triggered,
        );
        assert!(out.contains("if profipy_rt.trigger():\n        pass\n"));
        assert!(out.contains("skip(node)")); // original kept in else
        pysrc::parse_module(&out, "check.py").unwrap();
    }

    #[test]
    fn a_block_mutated_empty_becomes_pass() {
        let out = mutate_one(
            "change {\n    if $EXPR{var=node}:\n        $BLOCK{stmts=1,4}\n        continue\n} into {\n}",
            "for node in nodes:\n    if not node:\n        skip(node)\n        continue\nwork(nodes)\n",
            MutationMode::Direct,
        );
        assert_eq!(
            out,
            "import profipy_rt\nfor node in nodes:\n    pass\nwork(nodes)\n"
        );
    }

    /// The predefined MIFS spec: delete a small guarded block.
    const MIFS: &str = "change {\n    if $EXPR:\n        $BLOCK{stmts=1,4}\n} into {\n}";

    #[test]
    fn an_optional_clause_mutated_empty_is_dropped() {
        // The window is all of an `else` / loop-`else` / try-`else` /
        // `finally`: the clause goes, it does not become `pass` — and
        // the rendered text says the same as the applied tree does.
        for (src, mutant) in [
            (
                "def f(c):\n    if c.a:\n        x = 1\n    else:\n        if c.b:\n            c.close()\n",
                "def f(c):\n    if c.a:\n        x = 1\n",
            ),
            (
                "def f(c):\n    for i in c:\n        x = i\n    else:\n        if c.b:\n            c.close()\n",
                "def f(c):\n    for i in c:\n        x = i\n",
            ),
            (
                "def f(c):\n    while c.more():\n        x = 1\n    else:\n        if c.b:\n            c.close()\n",
                "def f(c):\n    while c.more():\n        x = 1\n",
            ),
            (
                "def f(c):\n    try:\n        x = 1\n    except E:\n        x = 2\n    else:\n        if c.b:\n            c.close()\n",
                "def f(c):\n    try:\n        x = 1\n    except E:\n        x = 2\n",
            ),
            (
                "def f(c):\n    try:\n        x = 1\n    except E:\n        x = 2\n    finally:\n        if c.b:\n            c.close()\n",
                "def f(c):\n    try:\n        x = 1\n    except E:\n        x = 2\n",
            ),
            // No `except` either: what is left is not Python, and is
            // what the mutant has always been.
            (
                "def f(c):\n    try:\n        x = 1\n    finally:\n        if c.b:\n            c.close()\n",
                "def f(c):\n    try:\n        x = 1\n",
            ),
            // At the top level, where nothing is copied to splice.
            (
                "try:\n    x = 1\nfinally:\n    if c.b:\n        c.close()\n",
                "try:\n    x = 1\n",
            ),
        ] {
            let out = mutate_one(MIFS, src, MutationMode::Direct);
            assert_eq!(out, format!("import profipy_rt\n{mutant}"));
            let out = mutate_one(MIFS, src, MutationMode::Triggered);
            assert!(out.contains("else:\n"), "{out}");
            pysrc::parse_module(&out, "check.py").unwrap();
        }
    }

    #[test]
    fn a_top_level_window_keeps_or_brings_the_import() {
        // The window is the module's only import of profipy_rt …
        let out = mutate_one(
            "change {\n    $BLOCK{stmts=1,1}\n    $CALL{name=f}(...)\n} into {\n    pass\n}",
            "import profipy_rt\nf(x)\ny = 2\n",
            MutationMode::Direct,
        );
        assert_eq!(out, "import profipy_rt\npass\ny = 2\n");
        // … or leaves one standing after it.
        let out = mutate_one(
            "change {\n    $CALL{name=f}(...)\n} into {\n    pass\n}",
            "f(1)\nimport profipy_rt\n",
            MutationMode::Direct,
        );
        assert_eq!(out, "pass\nimport profipy_rt\n");
    }

    #[test]
    fn render_rejects_the_text_of_another_parse() {
        let spec = parse_spec(
            "change {\n    $CALL{name=f}(...)\n} into {\n    pass\n}",
            "S",
        )
        .unwrap();
        let module = pysrc::parse_module("x = 1\nf(1)\n", "a.py").unwrap();
        let points = Scanner::new(vec![spec.clone()]).scan(std::slice::from_ref(&module));
        // Another module, a revision with as many statements, and the
        // same text parsed again: none is this module's text.
        for (src, name) in [
            ("f(1)\n", "a.py"),
            ("x = 2\nf(1)\n", "a.py"),
            ("x = 1\nf(1)\n", "b.py"),
            ("x = 1\nf(1)\n", "a.py"),
        ] {
            let other = pysrc::parse_module(src, name).unwrap();
            let text = ModuleText::of(&other);
            assert!(Mutator::default()
                .render(&module, &text, &spec, &points[0])
                .is_err());
        }
        assert!(Mutator::default()
            .render(&module, &ModuleText::of(&module), &spec, &points[0])
            .is_ok());
    }

    #[test]
    fn coverage_instrumentation_inserts_probes() {
        let spec = parse_spec(
            "change {\n    $CALL{name=f}(...)\n} into {\n    pass\n}",
            "S",
        )
        .unwrap();
        let module = pysrc::parse_module("f(1)\nx = 2\nf(3)\n", "m.py").unwrap();
        let scanner = Scanner::new(vec![spec]);
        let points = scanner.scan(std::slice::from_ref(&module));
        assert_eq!(points.len(), 2);
        let instrumented = Mutator::default().instrument_coverage(&module, &points);
        let out = unparse_module(&instrumented);
        assert!(out.contains("profipy_rt.cov(0)\nf(1)\n"));
        assert!(out.contains("profipy_rt.cov(1)\nf(3)\n"));
        pysrc::parse_module(&out, "check.py").unwrap();
    }

    #[test]
    fn mutated_module_roundtrips_through_parser() {
        for mode in [MutationMode::Direct, MutationMode::Triggered] {
            let out = mutate_one(
                "change {\n    $CALL#c{name=self.client.set}($EXPR#k, ...)\n} into {\n    $CALL#c($CORRUPT($EXPR#k), ...)\n}",
                "class W:\n    def go(self):\n        self.client.set(key, val, ttl=30)\n",
                mode,
            );
            pysrc::parse_module(&out, "check.py").unwrap();
        }
    }

    #[test]
    fn apply_rejects_wrong_module() {
        let spec = parse_spec("change {\n    $CALL{name=f}(...)\n} into {\n    pass\n}", "S")
            .unwrap();
        let m1 = pysrc::parse_module("f(1)\n", "a.py").unwrap();
        let m2 = pysrc::parse_module("f(1)\n", "b.py").unwrap();
        let points = Scanner::new(vec![spec.clone()]).scan(std::slice::from_ref(&m1));
        assert!(Mutator::default().apply(&m2, &spec, &points[0]).is_err());
    }
}
