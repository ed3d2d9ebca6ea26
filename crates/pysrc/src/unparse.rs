//! AST → source text. The output is canonical mini-Python (4-space
//! indents, normalized spacing) and is guaranteed to re-parse to a
//! structurally identical AST (property-tested in the crate tests).

use crate::ast::*;

/// Renders a whole module as source text: the concatenation of
/// [`unparse_stmt`] over its top-level statements.
pub fn unparse_module(module: &Module) -> String {
    let mut out = String::new();
    for stmt in &module.body {
        write_stmt(&mut out, stmt, 0);
    }
    out
}

/// Renders a single statement (including its trailing newline and any
/// nested blocks) at indent level 0.
pub fn unparse_stmt(stmt: &Stmt) -> String {
    unparse_stmt_at(stmt, 0)
}

/// [`unparse_stmt`] at indent level `level`: the statement's text where
/// it stands `level` blocks deep.
pub fn unparse_stmt_at(stmt: &Stmt, level: usize) -> String {
    let mut out = String::new();
    write_stmt(&mut out, stmt, level);
    out
}

/// Renders an expression.
pub fn unparse_expr(expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr, 0);
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn write_block(out: &mut String, body: &[Stmt], level: usize) {
    if body.is_empty() {
        indent(out, level);
        out.push_str("pass\n");
    } else {
        for s in body {
            write_stmt(out, s, level);
        }
    }
}

fn write_stmt(out: &mut String, stmt: &Stmt, level: usize) {
    indent(out, level);
    match &stmt.kind {
        StmtKind::Expr(e) => {
            write_expr(out, e, 0);
            out.push('\n');
        }
        StmtKind::Assign { targets, value } => {
            for t in targets {
                write_expr(out, t, 0);
                out.push_str(" = ");
            }
            write_expr(out, value, 0);
            out.push('\n');
        }
        StmtKind::AugAssign { target, op, value } => {
            write_expr(out, target, 0);
            out.push(' ');
            out.push_str(op.as_str());
            out.push_str("= ");
            write_expr(out, value, 0);
            out.push('\n');
        }
        StmtKind::Return(v) => {
            out.push_str("return");
            if let Some(v) = v {
                out.push(' ');
                write_expr(out, v, 0);
            }
            out.push('\n');
        }
        StmtKind::Pass => out.push_str("pass\n"),
        StmtKind::Break => out.push_str("break\n"),
        StmtKind::Continue => out.push_str("continue\n"),
        StmtKind::Del(targets) => {
            out.push_str("del ");
            for (i, t) in targets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, t, 0);
            }
            out.push('\n');
        }
        StmtKind::Assert { test, msg } => {
            out.push_str("assert ");
            write_expr(out, test, 0);
            if let Some(m) = msg {
                out.push_str(", ");
                write_expr(out, m, 0);
            }
            out.push('\n');
        }
        StmtKind::Global(names) => {
            out.push_str("global ");
            out.push_str(&names.join(", "));
            out.push('\n');
        }
        StmtKind::Import(aliases) => {
            out.push_str("import ");
            write_aliases(out, aliases);
            out.push('\n');
        }
        StmtKind::FromImport { module, names } => {
            out.push_str("from ");
            out.push_str(module);
            out.push_str(" import ");
            write_aliases(out, names);
            out.push('\n');
        }
        StmtKind::If { branches, orelse } => {
            for (i, (test, body)) in branches.iter().enumerate() {
                if i > 0 {
                    indent(out, level);
                    out.push_str("elif ");
                } else {
                    out.push_str("if ");
                }
                write_expr(out, test, 0);
                out.push_str(":\n");
                write_block(out, body, level + 1);
            }
            if !orelse.is_empty() {
                indent(out, level);
                out.push_str("else:\n");
                write_block(out, orelse, level + 1);
            }
        }
        StmtKind::While { test, body, orelse } => {
            out.push_str("while ");
            write_expr(out, test, 0);
            out.push_str(":\n");
            write_block(out, body, level + 1);
            if !orelse.is_empty() {
                indent(out, level);
                out.push_str("else:\n");
                write_block(out, orelse, level + 1);
            }
        }
        StmtKind::For {
            target,
            iter,
            body,
            orelse,
        } => {
            out.push_str("for ");
            write_target(out, target);
            out.push_str(" in ");
            write_expr(out, iter, 0);
            out.push_str(":\n");
            write_block(out, body, level + 1);
            if !orelse.is_empty() {
                indent(out, level);
                out.push_str("else:\n");
                write_block(out, orelse, level + 1);
            }
        }
        StmtKind::FuncDef { name, params, body } => {
            out.push_str("def ");
            out.push_str(name);
            out.push('(');
            write_params(out, params);
            out.push_str("):\n");
            write_block(out, body, level + 1);
        }
        StmtKind::ClassDef { name, bases, body } => {
            out.push_str("class ");
            out.push_str(name);
            if !bases.is_empty() {
                out.push('(');
                for (i, b) in bases.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_expr(out, b, 0);
                }
                out.push(')');
            }
            out.push_str(":\n");
            write_block(out, body, level + 1);
        }
        StmtKind::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => {
            out.push_str("try:\n");
            write_block(out, body, level + 1);
            for h in handlers {
                indent(out, level);
                out.push_str("except");
                if let Some(t) = &h.exc_type {
                    out.push(' ');
                    write_expr(out, t, 0);
                    if let Some(n) = &h.name {
                        out.push_str(" as ");
                        out.push_str(n);
                    }
                }
                out.push_str(":\n");
                write_block(out, &h.body, level + 1);
            }
            if !orelse.is_empty() {
                indent(out, level);
                out.push_str("else:\n");
                write_block(out, orelse, level + 1);
            }
            if !finalbody.is_empty() {
                indent(out, level);
                out.push_str("finally:\n");
                write_block(out, finalbody, level + 1);
            }
        }
        StmtKind::Raise { exc, cause } => {
            out.push_str("raise");
            if let Some(e) = exc {
                out.push(' ');
                write_expr(out, e, 0);
                if let Some(c) = cause {
                    out.push_str(" from ");
                    write_expr(out, c, 0);
                }
            }
            out.push('\n');
        }
        StmtKind::With { items, body } => {
            out.push_str("with ");
            for (i, (ctx, target)) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, ctx, 0);
                if let Some(t) = target {
                    out.push_str(" as ");
                    write_expr(out, t, 0);
                }
            }
            out.push_str(":\n");
            write_block(out, body, level + 1);
        }
    }
}

fn write_aliases(out: &mut String, aliases: &[ImportAlias]) {
    for (i, a) in aliases.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&a.name);
        if let Some(alias) = &a.alias {
            out.push_str(" as ");
            out.push_str(alias);
        }
    }
}

fn write_params(out: &mut String, params: &[Param]) {
    for (i, p) in params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match p.kind {
            ParamKind::Star => out.push('*'),
            ParamKind::DoubleStar => out.push_str("**"),
            ParamKind::Normal => {}
        }
        out.push_str(&p.name);
        if let Some(d) = &p.default {
            out.push('=');
            write_expr(out, d, 0);
        }
    }
}

/// `for` targets: bare tuples print without parentheses.
fn write_target(out: &mut String, target: &Expr) {
    if let ExprKind::Tuple(items) = &target.kind {
        if !items.is_empty() {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, item, 0);
            }
            return;
        }
    }
    write_expr(out, target, 0);
}

/// Precedence table for parenthesization. Higher binds tighter.
fn precedence(expr: &Expr) -> u8 {
    match &expr.kind {
        ExprKind::Lambda { .. } => 1,
        ExprKind::IfExp { .. } => 2,
        ExprKind::BoolOp { op, .. } => match op {
            BoolOpKind::Or => 3,
            BoolOpKind::And => 4,
        },
        ExprKind::Unary {
            op: UnaryOp::Not, ..
        } => 5,
        ExprKind::Compare { .. } => 6,
        ExprKind::Binary { op, .. } => match op {
            BinOp::BitOr => 7,
            BinOp::BitXor => 8,
            BinOp::BitAnd => 9,
            BinOp::Shl | BinOp::Shr => 10,
            BinOp::Add | BinOp::Sub => 11,
            BinOp::Mul | BinOp::Div | BinOp::FloorDiv | BinOp::Mod => 12,
            BinOp::Pow => 14,
        },
        ExprKind::Unary { .. } => 13,
        ExprKind::Starred(_) => 15,
        _ => 20,
    }
}

fn write_child(out: &mut String, child: &Expr, min_prec: u8) {
    if precedence(child) < min_prec {
        out.push('(');
        write_expr(out, child, 0);
        out.push(')');
    } else {
        write_expr(out, child, min_prec);
    }
}

fn write_expr(out: &mut String, expr: &Expr, _ambient: u8) {
    match &expr.kind {
        ExprKind::Num(Number::Int(v)) => {
            if *v < 0 {
                // Negative literal needs parens in contexts like `(-1).foo`;
                // we only synthesize them in plain positions, so plain text.
                out.push_str(&v.to_string());
            } else {
                out.push_str(&v.to_string());
            }
        }
        ExprKind::Num(Number::Float(v)) => {
            let s = format!("{v}");
            out.push_str(&s);
            if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
                out.push_str(".0");
            }
        }
        ExprKind::Str(s) => {
            out.push('\'');
            for c in s.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\'' => out.push_str("\\'"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    '\0' => out.push_str("\\0"),
                    c => out.push(c),
                }
            }
            out.push('\'');
        }
        ExprKind::Bool(true) => out.push_str("True"),
        ExprKind::Bool(false) => out.push_str("False"),
        ExprKind::NoneLit => out.push_str("None"),
        ExprKind::Name(n) => out.push_str(n),
        ExprKind::Attribute { value, attr } => {
            // A numeric-literal base must be parenthesized: `905.attr`
            // would lex as a float followed by a name.
            if matches!(value.kind, ExprKind::Num(_)) {
                out.push('(');
                write_expr(out, value, 0);
                out.push(')');
            } else {
                write_child(out, value, 16);
            }
            out.push('.');
            out.push_str(attr);
        }
        ExprKind::Subscript { value, index } => {
            write_child(out, value, 16);
            out.push('[');
            write_expr(out, index, 0);
            out.push(']');
        }
        ExprKind::Slice { lower, upper, step } => {
            if let Some(l) = lower {
                write_expr(out, l, 0);
            }
            out.push(':');
            if let Some(u) = upper {
                write_expr(out, u, 0);
            }
            if let Some(s) = step {
                out.push(':');
                write_expr(out, s, 0);
            }
        }
        ExprKind::Call { func, args } => {
            write_child(out, func, 16);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                match a {
                    Arg::Pos(e) => write_expr(out, e, 0),
                    Arg::Kw(n, e) => {
                        out.push_str(n);
                        out.push('=');
                        write_expr(out, e, 0);
                    }
                    Arg::Star(e) => {
                        out.push('*');
                        write_expr(out, e, 0);
                    }
                    Arg::DoubleStar(e) => {
                        out.push_str("**");
                        write_expr(out, e, 0);
                    }
                }
            }
            out.push(')');
        }
        ExprKind::Unary { op, operand } => match op {
            UnaryOp::Not => {
                out.push_str("not ");
                write_child(out, operand, 5);
            }
            UnaryOp::Neg => {
                out.push('-');
                write_child(out, operand, 13);
            }
            UnaryOp::Pos => {
                out.push('+');
                write_child(out, operand, 13);
            }
            UnaryOp::Invert => {
                out.push('~');
                write_child(out, operand, 13);
            }
        },
        ExprKind::Binary { left, op, right } => {
            let prec = precedence(expr);
            // Left-associative except Pow.
            if *op == BinOp::Pow {
                write_child(out, left, prec + 1);
                out.push_str(" ** ");
                write_child(out, right, prec);
            } else {
                write_child(out, left, prec);
                out.push(' ');
                out.push_str(op.as_str());
                out.push(' ');
                write_child(out, right, prec + 1);
            }
        }
        ExprKind::BoolOp { op, values } => {
            let prec = precedence(expr);
            let sep = match op {
                BoolOpKind::And => " and ",
                BoolOpKind::Or => " or ",
            };
            for (i, v) in values.iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                write_child(out, v, prec + 1);
            }
        }
        ExprKind::Compare {
            left,
            ops,
            comparators,
        } => {
            write_child(out, left, 7);
            for (op, c) in ops.iter().zip(comparators) {
                out.push(' ');
                out.push_str(op.as_str());
                out.push(' ');
                write_child(out, c, 7);
            }
        }
        ExprKind::Lambda { params, body } => {
            out.push_str("lambda");
            if !params.is_empty() {
                out.push(' ');
                write_params(out, params);
            }
            out.push_str(": ");
            write_expr(out, body, 0);
        }
        ExprKind::IfExp { test, body, orelse } => {
            write_child(out, body, 3);
            out.push_str(" if ");
            write_child(out, test, 3);
            out.push_str(" else ");
            write_child(out, orelse, 2);
        }
        ExprKind::Tuple(items) => {
            out.push('(');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, item, 0);
            }
            if items.len() == 1 {
                out.push(',');
            }
            out.push(')');
        }
        ExprKind::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, item, 0);
            }
            out.push(']');
        }
        ExprKind::Dict(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, k, 0);
                out.push_str(": ");
                write_expr(out, v, 0);
            }
            out.push('}');
        }
        ExprKind::Set(items) => {
            out.push('{');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, item, 0);
            }
            out.push('}');
        }
        ExprKind::ListComp {
            elt,
            target,
            iter,
            ifs,
        } => {
            out.push('[');
            write_expr(out, elt, 0);
            out.push_str(" for ");
            write_target(out, target);
            out.push_str(" in ");
            write_child(out, iter, 3);
            for cond in ifs {
                out.push_str(" if ");
                write_child(out, cond, 3);
            }
            out.push(']');
        }
        ExprKind::Starred(inner) => {
            out.push('*');
            write_child(out, inner, 16);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn roundtrip(src: &str) {
        let m1 = parse_module(src, "t.py").unwrap();
        let printed = unparse_module(&m1);
        let m2 = parse_module(&printed, "t.py")
            .unwrap_or_else(|e| panic!("reparse failed for:\n{printed}\nerror: {e}"));
        let printed2 = unparse_module(&m2);
        assert_eq!(printed, printed2, "unparse not a fixpoint for:\n{src}");
    }

    #[test]
    fn roundtrips_statements() {
        roundtrip("x = 1\ny = x + 2\n");
        roundtrip("def f(a, b=1, *args, **kw):\n    return a + b\n");
        roundtrip("class C(Base):\n    def m(self):\n        pass\n");
        roundtrip("if a:\n    b()\nelif c:\n    d()\nelse:\n    e()\n");
        roundtrip("for k, v in d.items():\n    print(k, v)\nelse:\n    done()\n");
        roundtrip("while x < 10:\n    x += 1\n");
        roundtrip("try:\n    f()\nexcept E as e:\n    g()\nfinally:\n    h()\n");
        roundtrip("with open('f') as fh:\n    fh.read()\n");
        roundtrip("raise ValueError('bad') from err\n");
        roundtrip("import os, sys\nfrom a.b import c as d\n");
        roundtrip("del x, y\nassert x, 'msg'\nglobal g\n");
    }

    #[test]
    fn roundtrips_expressions() {
        roundtrip("r = (1 + 2) * 3\n");
        roundtrip("r = 1 + 2 * 3\n");
        roundtrip("r = -x ** 2\n");
        roundtrip("r = not a and b or c\n");
        roundtrip("r = a < b <= c\n");
        roundtrip("r = x if c else y\n");
        roundtrip("r = lambda a, b=2: a * b\n");
        roundtrip("r = [x for x in xs if x]\n");
        roundtrip("r = {'k': v, 'k2': v2}\n");
        roundtrip("r = (1,)\n");
        roundtrip("r = s[1:2:3]\n");
        roundtrip("r = f(a, k=b, *c, **d)\n");
        roundtrip("r = a.b.c(d)[e]\n");
        roundtrip("r = x is not None\n");
        roundtrip("r = 'quote \\' and \\\\ backslash\\n'\n");
    }

    #[test]
    fn parenthesizes_nested_precedence() {
        let m = parse_module("r = (a + b) * c\n", "t.py").unwrap();
        let s = unparse_module(&m);
        assert_eq!(s, "r = (a + b) * c\n");
    }

    #[test]
    fn empty_block_prints_pass() {
        use crate::ast::*;
        let stmt = Stmt::synth(StmtKind::If {
            branches: vec![(Expr::name("c"), vec![])],
            orelse: vec![],
        });
        assert_eq!(unparse_stmt(&stmt), "if c:\n    pass\n");
    }

    #[test]
    fn float_formatting_reparses() {
        roundtrip("x = 1.0\ny = 2.5e10\nz = 0.001\n");
    }

    #[test]
    fn attribute_on_numeric_literal_is_parenthesized() {
        // Found by the AST-generator proptest: `905.attr` lexes as a
        // float followed by a name; the base must be parenthesized.
        use crate::ast::*;
        let expr = Expr::synth(ExprKind::Attribute {
            value: Box::new(Expr::int(905)),
            attr: "bit_length".into(),
        });
        let stmt = Stmt::synth(StmtKind::Expr(expr));
        let printed = unparse_stmt(&stmt);
        assert_eq!(printed, "(905).bit_length\n");
        crate::parser::parse_module(&printed, "t.py").unwrap();
    }
}
