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
use pysrc::unparse::unparse_stmt;
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
    /// Each top-level statement's id and text, in order. Node ids are
    /// unique in a process, so the ids tell this module's text from
    /// that of any other parse — another module or another revision.
    chunks: Vec<(NodeId, String)>,
}

impl ModuleText {
    /// Renders `module`.
    pub fn of(module: &Module) -> ModuleText {
        ModuleText {
            name: module.name.clone(),
            chunks: module
                .body
                .iter()
                .map(|s| (s.id, unparse_stmt(s)))
                .collect(),
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
                .all(|(c, s)| c.0 == s.id)
    }
}

/// One mutation, as an edit of the module's top level: the statements
/// `at` of the body give way to `stmts`. A window inside a function or
/// class replaces that one top-level statement with a spliced copy of
/// it; the rest of the module is never copied to find that out.
struct Splice {
    /// The top-level statements replaced.
    at: Range<usize>,
    /// What replaces them.
    stmts: Vec<Stmt>,
    /// Whether the mutant then lacks `import profipy_rt` and gets it
    /// as its first statement.
    add_import: bool,
}

/// The block at or under `body` that holds statement `id`, and the
/// statement's index in it. Ids are unique, so the first hit is the
/// only one and the search stops there.
fn find_block(body: &[Stmt], id: NodeId) -> Option<(&[Stmt], usize)> {
    if let Some(at) = body.iter().position(|s| s.id == id) {
        return Some((body, at));
    }
    body.iter()
        .flat_map(child_blocks)
        .find_map(|block| find_block(block, id))
}

/// [`find_block`] on statements about to be edited.
fn find_block_mut(body: &mut Vec<Stmt>, id: NodeId) -> Option<(&mut Vec<Stmt>, usize)> {
    if let Some(at) = body.iter().position(|s| s.id == id) {
        return Some((body, at));
    }
    body.iter_mut()
        .flat_map(child_blocks_mut)
        .find_map(|block| find_block_mut(block, id))
}

impl Mutator {
    /// Creates a mutator with the given mode.
    pub fn new(mode: MutationMode) -> Mutator {
        Mutator { mode }
    }

    /// The one mutation path: locates the point's window on the
    /// borrowed module, re-matches it, instantiates the replacement
    /// and lands it — in the module body itself, or in a copy of the
    /// one top-level statement the window lies under.
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
        // The top-level statement that is the window's first, or has
        // it somewhere below.
        let located = body.iter().enumerate().find_map(|(top, stmt)| {
            if stmt.id == id {
                return Some((top, body.as_slice(), top));
            }
            let (block, start) = child_blocks(stmt)
                .into_iter()
                .find_map(|block| find_block(block, id))?;
            Some((top, block, start))
        });
        let matched = located.and_then(|(top, block, start)| {
            Some((top, block, start, match_at(spec, block, start)?))
        });
        let Some((top, block, start, m)) = matched else {
            return Err(MutateError {
                message: format!(
                    "could not re-locate window for point {} (spec {})",
                    point.id, point.spec_name
                ),
            });
        };
        let window = start..start + m.len;
        let replacement = instantiate(spec, &spec.replacement, &m.bindings);
        let stmts = match self.mode {
            MutationMode::Direct => replacement,
            MutationMode::Triggered => {
                vec![trigger_wrap(replacement, block[window.clone()].to_vec())]
            }
        };
        let (at, stmts) = if body[top].id == id {
            (window, stmts)
        } else {
            let mut holder = body[top].clone();
            let (block, _) = child_blocks_mut(&mut holder)
                .into_iter()
                .find_map(|block| find_block_mut(block, id))
                .expect("the copy holds the statement the original does");
            block.splice(window, stmts);
            (top..top + 1, vec![holder])
        };
        let add_import = !(imports_profipy_rt(&body[..at.start])
            || imports_profipy_rt(&stmts)
            || imports_profipy_rt(&body[at.end..]));
        Ok(Splice {
            at,
            stmts,
            add_import,
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
        let (before, after) = (
            &module.body[..splice.at.start],
            &module.body[splice.at.end..],
        );
        let mut body = Vec::with_capacity(1 + before.len() + splice.stmts.len() + after.len());
        if splice.add_import {
            body.push(profipy_rt_import());
        }
        body.extend_from_slice(before);
        body.extend(splice.stmts);
        body.extend_from_slice(after);
        Ok(Module {
            name: module.name.clone(),
            body,
        })
    }

    /// The text of the mutated module — `unparse_module` of
    /// [`Mutator::apply`], byte for byte — from the pieces of `text`
    /// (the fault-free module's, see [`ModuleText`]): only the
    /// statements the mutation puts in are rendered.
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
    ) -> Result<String, MutateError> {
        if !text.is_of(module) {
            return Err(MutateError {
                message: format!("module text is not that of {}", module.name),
            });
        }
        let splice = self.splice(module, spec, point)?;
        let (before, after) = (
            &text.chunks[..splice.at.start],
            &text.chunks[splice.at.end..],
        );
        let shared: usize = text.chunks.iter().map(|c| c.1.len()).sum();
        let mut out = String::with_capacity(shared + 256);
        if splice.add_import {
            out.push_str(&unparse_stmt(&profipy_rt_import()));
        }
        out.extend(before.iter().map(|c| c.1.as_str()));
        out.extend(splice.stmts.iter().map(unparse_stmt));
        out.extend(after.iter().map(|c| c.1.as_str()));
        Ok(out)
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
        assert_eq!(rendered, mutated, "render and apply + unparse disagree");
        mutated
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
