//! AST traversal utilities used by the scanner, mutator, and coverage
//! instrumentation.
//!
//! Two flavors:
//!
//! * [`walk_blocks`] / [`walk_blocks_mut`] — visit every *statement
//!   block* (a `Vec<Stmt>`) in a module, which is the unit the matcher
//!   operates on (patterns match consecutive statements within one
//!   block).
//! * [`walk_exprs`] / [`walk_exprs_mut`] — visit every expression in a
//!   statement tree (used for expression-level injection points).

use crate::ast::*;

/// Identifies where a block sits, for reporting (function/class path).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BlockContext {
    /// Enclosing `def`/`class` names, outermost first.
    pub scope: Vec<String>,
}

impl BlockContext {
    /// Dotted rendering (`Class.method`), or `"<module>"` at top level.
    pub fn dotted(&self) -> String {
        if self.scope.is_empty() {
            "<module>".to_string()
        } else {
            self.scope.join(".")
        }
    }
}

/// The statement blocks directly under `stmt`, in source order (an
/// `if`'s branches then its `else`; a `try`'s body, handlers, `else`,
/// `finally`); none for a simple statement.
pub fn child_blocks(stmt: &Stmt) -> Vec<&[Stmt]> {
    match &stmt.kind {
        StmtKind::If { branches, orelse } => branches
            .iter()
            .map(|(_, body)| body.as_slice())
            .chain([orelse.as_slice()])
            .collect(),
        StmtKind::While { body, orelse, .. } | StmtKind::For { body, orelse, .. } => {
            vec![body, orelse]
        }
        StmtKind::FuncDef { body, .. }
        | StmtKind::ClassDef { body, .. }
        | StmtKind::With { body, .. } => vec![body],
        StmtKind::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => [body]
            .into_iter()
            .chain(handlers.iter().map(|h| &h.body))
            .chain([orelse, finalbody])
            .map(Vec::as_slice)
            .collect(),
        _ => Vec::new(),
    }
}

/// [`child_blocks`], mutably: statements may be spliced in and out.
pub fn child_blocks_mut(stmt: &mut Stmt) -> Vec<&mut Vec<Stmt>> {
    match &mut stmt.kind {
        StmtKind::If { branches, orelse } => branches
            .iter_mut()
            .map(|(_, body)| body)
            .chain([orelse])
            .collect(),
        StmtKind::While { body, orelse, .. } | StmtKind::For { body, orelse, .. } => {
            vec![body, orelse]
        }
        StmtKind::FuncDef { body, .. }
        | StmtKind::ClassDef { body, .. }
        | StmtKind::With { body, .. } => vec![body],
        StmtKind::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => [body]
            .into_iter()
            .chain(handlers.iter_mut().map(|h| &mut h.body))
            .chain([orelse, finalbody])
            .collect(),
        _ => Vec::new(),
    }
}

/// Calls `f` on every statement block in the module body (including the
/// body itself), passing the enclosing scope path.
pub fn walk_blocks<'a>(module: &'a Module, f: &mut dyn FnMut(&'a [Stmt], &BlockContext)) {
    let mut ctx = BlockContext::default();
    f(&module.body, &ctx);
    for s in &module.body {
        walk_stmt_blocks(s, &mut ctx, f);
    }
}

fn walk_stmt_blocks<'a>(
    stmt: &'a Stmt,
    ctx: &mut BlockContext,
    f: &mut dyn FnMut(&'a [Stmt], &BlockContext),
) {
    let scope = match &stmt.kind {
        StmtKind::FuncDef { name, .. } | StmtKind::ClassDef { name, .. } => Some(name),
        _ => None,
    };
    ctx.scope.extend(scope.cloned());
    for body in child_blocks(stmt) {
        f(body, ctx);
        for s in body {
            walk_stmt_blocks(s, ctx, f);
        }
    }
    if scope.is_some() {
        ctx.scope.pop();
    }
}

/// Calls `f` on every mutable statement block in the module. `f` may
/// splice statements in and out; children of the (possibly modified)
/// block are visited afterwards.
pub fn walk_blocks_mut(module: &mut Module, f: &mut dyn FnMut(&mut Vec<Stmt>)) {
    f(&mut module.body);
    for s in &mut module.body {
        walk_stmt_blocks_mut(s, f);
    }
}

fn walk_stmt_blocks_mut(stmt: &mut Stmt, f: &mut dyn FnMut(&mut Vec<Stmt>)) {
    for body in child_blocks_mut(stmt) {
        f(body);
        for s in body {
            walk_stmt_blocks_mut(s, f);
        }
    }
}

/// Calls `f` on every expression reachable from `stmt` (pre-order).
pub fn walk_exprs<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    match &stmt.kind {
        StmtKind::Expr(e) => walk_expr(e, f),
        StmtKind::Assign { targets, value } => {
            for t in targets {
                walk_expr(t, f);
            }
            walk_expr(value, f);
        }
        StmtKind::AugAssign { target, value, .. } => {
            walk_expr(target, f);
            walk_expr(value, f);
        }
        StmtKind::Return(Some(e)) => walk_expr(e, f),
        StmtKind::Return(None)
        | StmtKind::Pass
        | StmtKind::Break
        | StmtKind::Continue
        | StmtKind::Global(_)
        | StmtKind::Import(_)
        | StmtKind::FromImport { .. } => {}
        StmtKind::Del(targets) => {
            for t in targets {
                walk_expr(t, f);
            }
        }
        StmtKind::Assert { test, msg } => {
            walk_expr(test, f);
            if let Some(m) = msg {
                walk_expr(m, f);
            }
        }
        StmtKind::If { branches, orelse } => {
            for (test, body) in branches {
                walk_expr(test, f);
                for s in body {
                    walk_exprs(s, f);
                }
            }
            for s in orelse {
                walk_exprs(s, f);
            }
        }
        StmtKind::While { test, body, orelse } => {
            walk_expr(test, f);
            for s in body.iter().chain(orelse) {
                walk_exprs(s, f);
            }
        }
        StmtKind::For {
            target,
            iter,
            body,
            orelse,
        } => {
            walk_expr(target, f);
            walk_expr(iter, f);
            for s in body.iter().chain(orelse) {
                walk_exprs(s, f);
            }
        }
        StmtKind::FuncDef { params, body, .. } => {
            for p in params {
                if let Some(d) = &p.default {
                    walk_expr(d, f);
                }
            }
            for s in body {
                walk_exprs(s, f);
            }
        }
        StmtKind::ClassDef { bases, body, .. } => {
            for b in bases {
                walk_expr(b, f);
            }
            for s in body {
                walk_exprs(s, f);
            }
        }
        StmtKind::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => {
            for s in body {
                walk_exprs(s, f);
            }
            for h in handlers {
                if let Some(t) = &h.exc_type {
                    walk_expr(t, f);
                }
                for s in &h.body {
                    walk_exprs(s, f);
                }
            }
            for s in orelse.iter().chain(finalbody) {
                walk_exprs(s, f);
            }
        }
        StmtKind::Raise { exc, cause } => {
            if let Some(e) = exc {
                walk_expr(e, f);
            }
            if let Some(c) = cause {
                walk_expr(c, f);
            }
        }
        StmtKind::With { items, body } => {
            for (ctx, target) in items {
                walk_expr(ctx, f);
                if let Some(t) = target {
                    walk_expr(t, f);
                }
            }
            for s in body {
                walk_exprs(s, f);
            }
        }
    }
}

/// Pre-order walk over an expression tree.
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(expr);
    match &expr.kind {
        ExprKind::Attribute { value, .. } => walk_expr(value, f),
        ExprKind::Subscript { value, index } => {
            walk_expr(value, f);
            walk_expr(index, f);
        }
        ExprKind::Slice { lower, upper, step } => {
            for e in [lower, upper, step].into_iter().flatten() {
                walk_expr(e, f);
            }
        }
        ExprKind::Call { func, args } => {
            walk_expr(func, f);
            for a in args {
                walk_expr(a.value(), f);
            }
        }
        ExprKind::Unary { operand, .. } => walk_expr(operand, f),
        ExprKind::Binary { left, right, .. } => {
            walk_expr(left, f);
            walk_expr(right, f);
        }
        ExprKind::BoolOp { values, .. } => {
            for v in values {
                walk_expr(v, f);
            }
        }
        ExprKind::Compare {
            left, comparators, ..
        } => {
            walk_expr(left, f);
            for c in comparators {
                walk_expr(c, f);
            }
        }
        ExprKind::Lambda { params, body } => {
            for p in params {
                if let Some(d) = &p.default {
                    walk_expr(d, f);
                }
            }
            walk_expr(body, f);
        }
        ExprKind::IfExp { test, body, orelse } => {
            walk_expr(test, f);
            walk_expr(body, f);
            walk_expr(orelse, f);
        }
        ExprKind::Tuple(items) | ExprKind::List(items) | ExprKind::Set(items) => {
            for i in items {
                walk_expr(i, f);
            }
        }
        ExprKind::Dict(pairs) => {
            for (k, v) in pairs {
                walk_expr(k, f);
                walk_expr(v, f);
            }
        }
        ExprKind::ListComp {
            elt,
            target,
            iter,
            ifs,
        } => {
            walk_expr(elt, f);
            walk_expr(target, f);
            walk_expr(iter, f);
            for c in ifs {
                walk_expr(c, f);
            }
        }
        ExprKind::Starred(inner) => walk_expr(inner, f),
        ExprKind::Num(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::NoneLit
        | ExprKind::Name(_) => {}
    }
}

/// Post-order mutable walk over every expression in a statement,
/// including nested statements. `f` may rewrite the expression in place.
pub fn walk_exprs_mut(stmt: &mut Stmt, f: &mut dyn FnMut(&mut Expr)) {
    match &mut stmt.kind {
        StmtKind::Expr(e) => walk_expr_mut(e, f),
        StmtKind::Assign { targets, value } => {
            for t in targets {
                walk_expr_mut(t, f);
            }
            walk_expr_mut(value, f);
        }
        StmtKind::AugAssign { target, value, .. } => {
            walk_expr_mut(target, f);
            walk_expr_mut(value, f);
        }
        StmtKind::Return(Some(e)) => walk_expr_mut(e, f),
        StmtKind::Return(None)
        | StmtKind::Pass
        | StmtKind::Break
        | StmtKind::Continue
        | StmtKind::Global(_)
        | StmtKind::Import(_)
        | StmtKind::FromImport { .. } => {}
        StmtKind::Del(targets) => {
            for t in targets {
                walk_expr_mut(t, f);
            }
        }
        StmtKind::Assert { test, msg } => {
            walk_expr_mut(test, f);
            if let Some(m) = msg {
                walk_expr_mut(m, f);
            }
        }
        StmtKind::If { branches, orelse } => {
            for (test, body) in branches {
                walk_expr_mut(test, f);
                for s in body {
                    walk_exprs_mut(s, f);
                }
            }
            for s in orelse {
                walk_exprs_mut(s, f);
            }
        }
        StmtKind::While { test, body, orelse } => {
            walk_expr_mut(test, f);
            for s in body.iter_mut().chain(orelse) {
                walk_exprs_mut(s, f);
            }
        }
        StmtKind::For {
            target,
            iter,
            body,
            orelse,
        } => {
            walk_expr_mut(target, f);
            walk_expr_mut(iter, f);
            for s in body.iter_mut().chain(orelse) {
                walk_exprs_mut(s, f);
            }
        }
        StmtKind::FuncDef { params, body, .. } => {
            for p in params {
                if let Some(d) = &mut p.default {
                    walk_expr_mut(d, f);
                }
            }
            for s in body {
                walk_exprs_mut(s, f);
            }
        }
        StmtKind::ClassDef { bases, body, .. } => {
            for b in bases {
                walk_expr_mut(b, f);
            }
            for s in body {
                walk_exprs_mut(s, f);
            }
        }
        StmtKind::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => {
            for s in body {
                walk_exprs_mut(s, f);
            }
            for h in handlers {
                if let Some(t) = &mut h.exc_type {
                    walk_expr_mut(t, f);
                }
                for s in &mut h.body {
                    walk_exprs_mut(s, f);
                }
            }
            for s in orelse.iter_mut().chain(finalbody) {
                walk_exprs_mut(s, f);
            }
        }
        StmtKind::Raise { exc, cause } => {
            if let Some(e) = exc {
                walk_expr_mut(e, f);
            }
            if let Some(c) = cause {
                walk_expr_mut(c, f);
            }
        }
        StmtKind::With { items, body } => {
            for (ctx, target) in items {
                walk_expr_mut(ctx, f);
                if let Some(t) = target {
                    walk_expr_mut(t, f);
                }
            }
            for s in body {
                walk_exprs_mut(s, f);
            }
        }
    }
}

/// Post-order mutable walk over one expression tree.
pub fn walk_expr_mut(expr: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    match &mut expr.kind {
        ExprKind::Attribute { value, .. } => walk_expr_mut(value, f),
        ExprKind::Subscript { value, index } => {
            walk_expr_mut(value, f);
            walk_expr_mut(index, f);
        }
        ExprKind::Slice { lower, upper, step } => {
            for e in [lower, upper, step].into_iter().flatten() {
                walk_expr_mut(e, f);
            }
        }
        ExprKind::Call { func, args } => {
            walk_expr_mut(func, f);
            for a in args {
                walk_expr_mut(a.value_mut(), f);
            }
        }
        ExprKind::Unary { operand, .. } => walk_expr_mut(operand, f),
        ExprKind::Binary { left, right, .. } => {
            walk_expr_mut(left, f);
            walk_expr_mut(right, f);
        }
        ExprKind::BoolOp { values, .. } => {
            for v in values {
                walk_expr_mut(v, f);
            }
        }
        ExprKind::Compare {
            left, comparators, ..
        } => {
            walk_expr_mut(left, f);
            for c in comparators {
                walk_expr_mut(c, f);
            }
        }
        ExprKind::Lambda { params, body } => {
            for p in params {
                if let Some(d) = &mut p.default {
                    walk_expr_mut(d, f);
                }
            }
            walk_expr_mut(body, f);
        }
        ExprKind::IfExp { test, body, orelse } => {
            walk_expr_mut(test, f);
            walk_expr_mut(body, f);
            walk_expr_mut(orelse, f);
        }
        ExprKind::Tuple(items) | ExprKind::List(items) | ExprKind::Set(items) => {
            for i in items {
                walk_expr_mut(i, f);
            }
        }
        ExprKind::Dict(pairs) => {
            for (k, v) in pairs {
                walk_expr_mut(k, f);
                walk_expr_mut(v, f);
            }
        }
        ExprKind::ListComp {
            elt,
            target,
            iter,
            ifs,
        } => {
            walk_expr_mut(elt, f);
            walk_expr_mut(target, f);
            walk_expr_mut(iter, f);
            for c in ifs {
                walk_expr_mut(c, f);
            }
        }
        ExprKind::Starred(inner) => walk_expr_mut(inner, f),
        ExprKind::Num(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::NoneLit
        | ExprKind::Name(_) => {}
    }
    f(expr);
}

/// Calls `f` on every identifier a name resolver will touch: `Name`
/// references, `Attribute` names, binding names (`def`/`class`,
/// parameters, import aliases, `except .. as`), and `global`
/// declarations — across all nesting levels.
///
/// This is the resolver's pre-pass hook: `pyrt`'s prepare pass feeds
/// the collected identifiers through its bulk interner in one shot
/// (one lock acquisition per module instead of one per identifier).
pub fn walk_identifiers<'a>(body: &'a [Stmt], f: &mut dyn FnMut(&'a str)) {
    // Statement-level binding names at any nesting depth (expressions
    // are handled by one walk_exprs pass per top-level statement, which
    // already descends into every nested block).
    fn binding_names<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&'a str)) {
        match &stmt.kind {
            StmtKind::FuncDef { name, params, body } => {
                f(name);
                for p in params {
                    f(&p.name);
                }
                for s in body {
                    binding_names(s, f);
                }
            }
            StmtKind::ClassDef { name, body, .. } => {
                f(name);
                for s in body {
                    binding_names(s, f);
                }
            }
            StmtKind::Global(names) => {
                for n in names {
                    f(n);
                }
            }
            StmtKind::Import(aliases) | StmtKind::FromImport { names: aliases, .. } => {
                for a in aliases {
                    f(&a.name);
                    if let Some(alias) = &a.alias {
                        f(alias);
                    }
                }
            }
            StmtKind::If { branches, orelse } => {
                for (_, b) in branches {
                    for s in b {
                        binding_names(s, f);
                    }
                }
                for s in orelse {
                    binding_names(s, f);
                }
            }
            StmtKind::While { body, orelse, .. } | StmtKind::For { body, orelse, .. } => {
                for s in body.iter().chain(orelse) {
                    binding_names(s, f);
                }
            }
            StmtKind::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                for s in body.iter().chain(orelse).chain(finalbody) {
                    binding_names(s, f);
                }
                for h in handlers {
                    if let Some(n) = &h.name {
                        f(n);
                    }
                    for s in &h.body {
                        binding_names(s, f);
                    }
                }
            }
            StmtKind::With { body, .. } => {
                for s in body {
                    binding_names(s, f);
                }
            }
            _ => {}
        }
    }
    for stmt in body {
        walk_exprs(stmt, &mut |e| match &e.kind {
            ExprKind::Name(n) => f(n),
            ExprKind::Attribute { attr, .. } => f(attr),
            ExprKind::Lambda { params, .. } => {
                for p in params {
                    f(&p.name);
                }
            }
            _ => {}
        });
        binding_names(stmt, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    #[test]
    fn walk_blocks_visits_nested_scopes() {
        let m = parse_module(
            "class C:\n    def m(self):\n        if x:\n            pass\n",
            "t.py",
        )
        .unwrap();
        let mut scopes = Vec::new();
        walk_blocks(&m, &mut |_, ctx| scopes.push(ctx.dotted()));
        assert!(scopes.contains(&"<module>".to_string()));
        assert!(scopes.contains(&"C".to_string()));
        assert!(scopes.contains(&"C.m".to_string()));
    }

    #[test]
    fn walk_exprs_finds_all_calls() {
        let m = parse_module("x = f(g(1), h(2))\n", "t.py").unwrap();
        let mut calls = 0;
        walk_exprs(&m.body[0], &mut |e| {
            if matches!(e.kind, crate::ast::ExprKind::Call { .. }) {
                calls += 1;
            }
        });
        assert_eq!(calls, 3);
    }

    #[test]
    fn walk_identifiers_covers_all_scopes() {
        let m = parse_module(
            concat!(
                "import os as system\n",
                "GLOBAL = 1\n",
                "def outer(par):\n",
                "    global GLOBAL\n",
                "    try:\n",
                "        obj.attr = par\n",
                "    except ValueError as err:\n",
                "        pass\n",
                "    def inner():\n",
                "        return lambda lam_par: lam_par\n",
                "class C:\n",
                "    field = 2\n",
            ),
            "t.py",
        )
        .unwrap();
        let mut seen = std::collections::HashSet::new();
        walk_identifiers(&m.body, &mut |n| {
            seen.insert(n.to_string());
        });
        for expected in [
            "os", "system", "GLOBAL", "outer", "par", "obj", "attr", "ValueError", "err",
            "inner", "lam_par", "C", "field",
        ] {
            assert!(seen.contains(expected), "missing identifier {expected}");
        }
    }

    #[test]
    fn walk_exprs_mut_rewrites() {
        let mut m = parse_module("x = 1 + 2\n", "t.py").unwrap();
        walk_exprs_mut(&mut m.body[0], &mut |e| {
            if let crate::ast::ExprKind::Num(crate::ast::Number::Int(v)) = &mut e.kind {
                *v *= 10;
            }
        });
        let s = crate::unparse::unparse_module(&m);
        assert_eq!(s, "x = 10 + 20\n");
    }

    #[test]
    fn walk_blocks_mut_can_splice() {
        let mut m = parse_module("def f():\n    a()\n    b()\n", "t.py").unwrap();
        walk_blocks_mut(&mut m, &mut |block| {
            if block.len() == 2 {
                block.remove(0);
            }
        });
        let s = crate::unparse::unparse_module(&m);
        assert_eq!(s, "def f():\n    b()\n");
    }
}
