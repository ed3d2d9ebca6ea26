//! Lowering from the prepare-time-resolved AST to the flat bytecode of
//! [`crate::ir`].
//!
//! The compiler walks a scope body exactly the way the tree walk
//! executes it and emits instructions whose *observable* behavior —
//! side-effect order, error identity, and interpreter-step accounting —
//! is bit-for-bit the tree walk's:
//!
//! * Every node the tree walk would `vm.tick()` on entry adds one to a
//!   pending-step counter, and `Compiler::emit` attaches the count to
//!   the next instruction that can fault or have an observable effect
//!   ([`Insn::steps`]; the dispatch loop settles them before the op
//!   runs). Pure stack construction carries none, so straight runs of
//!   literals batch their steps. A standalone [`Op::Tick`] is emitted
//!   only where steps must land before a bound label or at the end of
//!   the body.
//! * Statements with deep cold semantics (`try`, `with`, `class`,
//!   imports, `del`, unsupported assignment shapes) and expressions
//!   with scope quirks (list comprehensions, starred expressions)
//!   compile to tree-walk trampolines over AST clones held by the code
//!   object — those nodes tick themselves, so no pending step is
//!   counted for them.
//! * Every name and attribute was resolved by [`crate::prepare`]; the
//!   compiler only reads that table. A node it finds unresolved goes
//!   to the same trampoline, where the tree walk raises the internal
//!   error — so there is one place that does.
//!
//! Compilation is cached on [`FuncProto::compiled`] (a `OnceLock`), so
//! a prepared module shared across a campaign compiles each scope at
//! most once, process-wide.

use crate::intern::intern;
use crate::ir::{CodeObject, Const, FnDecl, Insn, Op, NO_LOOP};
use crate::prepare::{FuncProto, NameRes};
use pysrc::ast::*;
use std::sync::Arc;

/// The compiled body of a function scope, compiling (and caching) on
/// first use. Returns a reference into the proto's cache — the hot call
/// path pays no refcount traffic.
pub fn func_code(proto: &Arc<FuncProto>) -> &CodeObject {
    proto
        .compiled
        .get_or_init(|| Arc::new(compile(proto, &proto.body)))
        .as_ref()
}

/// The compiled body of a module scope (module protos carry an empty
/// `body`; the statements live in the AST), cached on the module proto.
pub fn module_code<'p>(proto: &'p Arc<FuncProto>, body: &[Stmt]) -> &'p CodeObject {
    proto
        .compiled
        .get_or_init(|| Arc::new(compile(proto, body)))
        .as_ref()
}

/// Compiles one scope body against its prototype's resolution table.
pub fn compile(proto: &Arc<FuncProto>, body: &[Stmt]) -> CodeObject {
    lower(proto, body).code
}

/// Lowers and patches one scope body; the compiler keeps its label
/// table.
fn lower<'a>(proto: &'a Arc<FuncProto>, body: &[Stmt]) -> Compiler<'a> {
    let mut c = Compiler {
        proto,
        code: CodeObject::default(),
        labels: Vec::new(),
        pending: 0,
        loops: Vec::new(),
    };
    c.block(body);
    c.flush();
    c.patch();
    c
}

/// An enclosing loop's jump targets (label ids until patched).
#[derive(Clone, Copy)]
struct LoopCtx {
    brk: u32,
    cont: u32,
}

struct Compiler<'a> {
    proto: &'a Arc<FuncProto>,
    code: CodeObject,
    /// Label id → bound instruction index.
    labels: Vec<u32>,
    /// Interpreter steps counted and not yet attached to an
    /// instruction.
    pending: u32,
    loops: Vec<LoopCtx>,
}

/// Narrows a pool index / instruction offset to the bytecode's 32-bit
/// operand width. Real inputs are nowhere near 2^32 entries, but a
/// silent `as u32` truncation here would produce wrong jump targets or
/// pool slots instead of an error, so the conversion is checked.
fn idx32(n: usize, what: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!("{what} index {n} overflows the u32 operand width"))
}

/// Calls `f` on every jump operand of `op` (label ids until patched;
/// [`NO_LOOP`] is not one).
fn for_each_target(op: &mut Op, mut f: impl FnMut(&mut u32)) {
    match op {
        Op::Jump(t)
        | Op::JumpIfFalse(t)
        | Op::JumpIfTrue(t)
        | Op::JumpIfFalseOrPop(t)
        | Op::JumpIfTrueOrPop(t)
        | Op::ForNext(t)
        | Op::CmpJump { target: t, .. } => f(t),
        Op::ExecStmt { brk, cont, .. } => {
            for t in [brk, cont] {
                if *t != NO_LOOP {
                    f(t);
                }
            }
        }
        _ => {}
    }
}

impl Compiler<'_> {
    // ----- emission plumbing -----

    /// Emits `op`, carrying every pending step unless it is pure stack
    /// construction (which cannot fault or act, so its steps can wait
    /// for the next op that does).
    fn emit(&mut self, op: Op) {
        let pure = matches!(
            op,
            Op::Const(_)
                | Op::Dup
                | Op::Pop
                | Op::BuildTuple(_)
                | Op::BuildList(_)
                | Op::BuildSet(_)
                | Op::BuildDict(_)
                | Op::BuildSlice
                | Op::CallBegin
                | Op::ArgPos
                | Op::ArgKw(_)
                | Op::PopIter
        );
        let steps = if pure {
            0
        } else {
            std::mem::take(&mut self.pending)
        };
        self.code.insns.push(Insn { steps, op });
    }

    /// Counts one interpreter step (a `vm.tick()` the tree walk makes
    /// at node entry).
    fn tick(&mut self) {
        self.pending += 1;
    }

    /// Emits the pending steps as a standalone [`Op::Tick`].
    fn flush(&mut self) {
        if self.pending > 0 {
            self.emit(Op::Tick);
        }
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(u32::MAX);
        idx32(self.labels.len() - 1, "label")
    }

    /// Binds `label` to the next instruction. A path that jumps here
    /// arrives with no pending steps, so the fall-through path's steps
    /// land first.
    fn bind(&mut self, label: u32) {
        self.flush();
        self.labels[label as usize] = idx32(self.code.insns.len(), "instruction");
    }

    /// Rewrites label ids into absolute instruction indices.
    fn patch(&mut self) {
        for insn in &mut self.code.insns {
            for_each_target(&mut insn.op, |t| *t = self.labels[*t as usize]);
        }
    }

    fn const_idx(&mut self, c: Const) -> u32 {
        self.code.consts.push(c);
        idx32(self.code.consts.len() - 1, "constant")
    }

    // ----- trampolines -----

    /// Compiles a statement to the tree-walk trampoline. The statement
    /// ticks itself, so no pending step is counted here — but pending
    /// steps from *earlier* nodes land first, on the trampoline.
    fn fallback_stmt(&mut self, stmt: &Stmt) {
        self.code.stmts.push(stmt.clone());
        let idx = idx32(self.code.stmts.len() - 1, "statement pool");
        let ctx = self.loops.last().copied();
        self.emit(Op::ExecStmt {
            stmt: idx,
            brk: ctx.map_or(NO_LOOP, |c| c.brk),
            cont: ctx.map_or(NO_LOOP, |c| c.cont),
        });
    }

    /// Compiles an expression to the tree-walk trampoline (it ticks
    /// itself).
    fn fallback_expr(&mut self, expr: &Expr) {
        self.code.exprs.push(expr.clone());
        let idx = idx32(self.code.exprs.len() - 1, "expression pool");
        self.emit(Op::EvalExpr(idx));
    }

    // ----- statements -----

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Expr(e) => {
                self.tick();
                self.expr(e);
                self.emit(Op::Pop);
            }
            StmtKind::Assign { targets, value } => {
                if !targets.iter().all(|t| self.store_supported(t)) {
                    return self.fallback_stmt(stmt);
                }
                self.tick();
                self.expr(value);
                for (i, t) in targets.iter().enumerate() {
                    if i < targets.len() - 1 {
                        self.emit(Op::Dup);
                    }
                    self.store(t);
                }
            }
            StmtKind::AugAssign { target, op, value } => {
                // The tree walk evaluates the target as an expression
                // (old value), then the rhs, applies the operator, and
                // re-evaluates the target's object/index for the store
                // — the double evaluation is pinned by tests.
                if !matches!(
                    target.kind,
                    ExprKind::Name(_) | ExprKind::Attribute { .. } | ExprKind::Subscript { .. }
                ) || !self.store_supported(target)
                {
                    return self.fallback_stmt(stmt);
                }
                self.tick();
                self.expr(target);
                self.expr(value);
                self.emit(Op::Binary(*op));
                self.store(target);
            }
            StmtKind::Return(v) => {
                self.tick();
                match v {
                    Some(e) => {
                        self.expr(e);
                        self.emit(Op::Return);
                    }
                    None => self.emit(Op::ReturnNone),
                }
            }
            StmtKind::Pass => self.tick(),
            StmtKind::Break => {
                self.tick();
                match self.loops.last() {
                    Some(ctx) => self.emit(Op::Jump(ctx.brk)),
                    // Outside any loop the flow escapes the frame and
                    // the caller treats it as a plain `None` return.
                    None => self.emit(Op::ReturnNone),
                }
            }
            StmtKind::Continue => {
                self.tick();
                match self.loops.last() {
                    Some(ctx) => self.emit(Op::Jump(ctx.cont)),
                    None => self.emit(Op::ReturnNone),
                }
            }
            StmtKind::Assert { test, msg } => {
                self.tick();
                self.expr(test);
                let ok = self.new_label();
                self.emit(Op::JumpIfTrue(ok));
                let has_msg = msg.is_some();
                if let Some(m) = msg {
                    self.expr(m);
                }
                self.emit(Op::AssertFail { has_msg });
                self.bind(ok);
            }
            StmtKind::Raise { exc, cause: _ } => {
                self.tick();
                if let Some(e) = exc {
                    self.expr(e);
                }
                self.emit(Op::Raise {
                    has_exc: exc.is_some(),
                });
            }
            StmtKind::Global(_) => self.tick(), // handled by analysis
            StmtKind::If { branches, orelse } => {
                self.tick();
                let end = self.new_label();
                for (test, body) in branches {
                    self.expr(test);
                    let next = self.new_label();
                    self.emit(Op::JumpIfFalse(next));
                    self.block(body);
                    self.emit(Op::Jump(end));
                    self.bind(next);
                }
                self.block(orelse);
                self.bind(end);
            }
            StmtKind::While { test, body, orelse } => {
                self.tick();
                let start = self.new_label();
                let orelse_l = self.new_label();
                let end = self.new_label();
                self.bind(start);
                self.expr(test);
                self.emit(Op::JumpIfFalse(orelse_l));
                self.loops.push(LoopCtx {
                    brk: end,
                    cont: start,
                });
                self.block(body);
                self.loops.pop();
                self.emit(Op::Jump(start));
                self.bind(orelse_l);
                self.compile_loop_orelse(orelse, end);
                self.bind(end);
            }
            StmtKind::For {
                target,
                iter,
                body,
                orelse,
            } => {
                if !self.store_supported(target) {
                    return self.fallback_stmt(stmt);
                }
                self.tick();
                self.expr(iter);
                self.emit(Op::GetIter);
                let start = self.new_label();
                let trampoline = self.new_label();
                let orelse_l = self.new_label();
                let end = self.new_label();
                self.bind(start);
                self.emit(Op::ForNext(orelse_l));
                self.store(target);
                self.loops.push(LoopCtx {
                    brk: trampoline,
                    cont: start,
                });
                self.block(body);
                self.loops.pop();
                self.emit(Op::Jump(start));
                // `break` lands here so the iterator is discarded.
                self.bind(trampoline);
                self.emit(Op::PopIter);
                self.emit(Op::Jump(end));
                self.bind(orelse_l);
                self.compile_loop_orelse(orelse, end);
                self.bind(end);
            }
            StmtKind::FuncDef { name, params, .. } => {
                self.tick();
                let decl = self.fn_decl(stmt.id, params);
                self.compile_defaults(params);
                self.emit(Op::MakeFunction(decl));
                self.emit(Op::StoreSym(intern(name)));
            }
            // Deep, cold, or scope-quirky statements run through the
            // tree walk — one implementation site for both engines.
            StmtKind::ClassDef { .. }
            | StmtKind::Try { .. }
            | StmtKind::With { .. }
            | StmtKind::Import(_)
            | StmtKind::FromImport { .. }
            | StmtKind::Del(_) => self.fallback_stmt(stmt),
        }
    }

    /// A loop's `else` block swallows `break`/`continue` flows escaping
    /// it (the tree walk discards them); both jump targets collapse to
    /// the loop's end.
    fn compile_loop_orelse(&mut self, orelse: &[Stmt], end: u32) {
        if orelse.is_empty() {
            return;
        }
        self.loops.push(LoopCtx { brk: end, cont: end });
        self.block(orelse);
        self.loops.pop();
    }

    fn fn_decl(&mut self, id: NodeId, params: &[Param]) -> u32 {
        self.code.fn_decls.push(FnDecl {
            def_id: id,
            has_default: params.iter().map(|p| p.default.is_some()).collect(),
        });
        idx32(self.code.fn_decls.len() - 1, "fn decl")
    }

    /// Compiles parameter defaults in declaration order (each evaluates
    /// — and ticks — at `def` time in the enclosing scope).
    fn compile_defaults(&mut self, params: &[Param]) {
        for p in params {
            if let Some(d) = &p.default {
                self.expr(d);
            }
        }
    }

    // ----- assignment targets -----

    /// Whether a target shape lowers natively; anything else falls back
    /// to the tree walk statement (which also produces the runtime
    /// `SyntaxError` for non-targets, and the internal error for a name
    /// or attribute that was not prepared).
    fn store_supported(&self, target: &Expr) -> bool {
        match (&target.kind, self.proto.table.res(target.id)) {
            (ExprKind::Name(_), res) => !matches!(
                res,
                NameRes::Unprepared | NameRes::Attr(_) | NameRes::CallKw(_)
            ),
            (ExprKind::Attribute { .. }, res) => matches!(res, NameRes::Attr(_)),
            (ExprKind::Subscript { .. }, _) => true,
            (ExprKind::Tuple(items) | ExprKind::List(items), _) => {
                items.iter().all(|t| self.store_supported(t))
            }
            _ => false,
        }
    }

    /// Compiles a store of the top of stack into `target` (the tree
    /// walk's `assign_target`: no step for the target node itself;
    /// nested object/index evaluations tick as expressions).
    fn store(&mut self, target: &Expr) {
        let insn = match (&target.kind, self.proto.table.res(target.id)) {
            (ExprKind::Name(_), NameRes::Local { slot, sym }) => Op::StoreSlot { slot, sym },
            (ExprKind::Name(_), NameRes::DynLocal(sym)) => Op::StoreDyn(sym),
            (ExprKind::Name(_), NameRes::Global(sym) | NameRes::GlobalDecl(sym)) => {
                Op::StoreGlobal(sym)
            }
            (ExprKind::Name(_), NameRes::Cell(sym)) => Op::StoreSym(sym),
            (ExprKind::Attribute { value: obj, .. }, NameRes::Attr(sym)) => {
                self.expr(obj);
                Op::StoreAttr(sym)
            }
            (ExprKind::Subscript { value: obj, index }, _) => {
                self.expr(obj);
                self.expr(index);
                Op::StoreItem
            }
            (ExprKind::Tuple(items) | ExprKind::List(items), _) => {
                self.emit(Op::UnpackSeq(idx32(items.len(), "unpack target")));
                for t in items {
                    self.store(t);
                }
                return;
            }
            _ => unreachable!("store_supported() gated"),
        };
        self.emit(insn);
    }

    /// Compiles a name or attribute read as prepare resolved it. A node
    /// it did not resolve goes to the tree walk, which raises the
    /// internal error (and ticks for itself).
    fn load(&mut self, expr: &Expr) {
        match (&expr.kind, self.proto.table.res(expr.id)) {
            (ExprKind::Name(_), NameRes::Local { slot, sym }) => {
                self.tick();
                self.emit(Op::LoadSlot { slot, sym });
            }
            (ExprKind::Name(_), NameRes::Global(sym) | NameRes::GlobalDecl(sym)) => {
                self.tick();
                self.emit(Op::LoadGlobal(sym));
            }
            (ExprKind::Name(_), NameRes::DynLocal(sym)) => {
                self.tick();
                self.emit(Op::LoadDyn(sym));
            }
            (ExprKind::Name(_), NameRes::Cell(sym)) => {
                self.tick();
                self.emit(Op::LoadCell(sym));
            }
            (ExprKind::Attribute { value, .. }, NameRes::Attr(sym)) => {
                self.tick();
                self.expr(value);
                self.emit(Op::LoadAttr(sym));
            }
            _ => self.fallback_expr(expr),
        }
    }

    // ----- expressions -----

    fn expr(&mut self, expr: &Expr) {
        match &expr.kind {
            ExprKind::Num(Number::Int(v)) => {
                self.tick();
                let i = self.const_idx(Const::Int(*v));
                self.emit(Op::Const(i));
            }
            ExprKind::Num(Number::Float(v)) => {
                self.tick();
                let i = self.const_idx(Const::Float(*v));
                self.emit(Op::Const(i));
            }
            ExprKind::Str(s) => {
                self.tick();
                let i = self.const_idx(Const::Str(Arc::from(s.as_str())));
                self.emit(Op::Const(i));
            }
            ExprKind::Bool(b) => {
                self.tick();
                let i = self.const_idx(Const::Bool(*b));
                self.emit(Op::Const(i));
            }
            ExprKind::NoneLit => {
                self.tick();
                let i = self.const_idx(Const::None);
                self.emit(Op::Const(i));
            }
            ExprKind::Name(_) | ExprKind::Attribute { .. } => self.load(expr),
            ExprKind::Subscript { value, index } => {
                self.tick();
                self.expr(value);
                self.expr(index);
                self.emit(Op::LoadItem);
            }
            ExprKind::Slice { lower, upper, step } => {
                self.tick();
                for part in [lower, upper, step] {
                    match part {
                        Some(e) => self.expr(e),
                        None => {
                            let i = self.const_idx(Const::None);
                            self.emit(Op::Const(i));
                        }
                    }
                }
                self.emit(Op::BuildSlice);
            }
            ExprKind::Call { func, args } => {
                self.tick();
                // Positional-only calls — the overwhelmingly common
                // shape — skip the argument builder entirely.
                if args.iter().all(|a| matches!(a, Arg::Pos(_))) {
                    // `obj.m(a, b)`: the attribute node's own lowering
                    // (same steps, settled at the same point, same lookup and
                    // `AttributeError` ahead of the arguments) with
                    // `LoadMethod` for `LoadAttr`, so a method found on
                    // the class is called without a bound object.
                    let method = match (&func.kind, self.proto.table.res(func.id)) {
                        (ExprKind::Attribute { value, .. }, NameRes::Attr(sym)) => {
                            self.tick();
                            self.expr(value);
                            self.emit(Op::LoadMethod(sym));
                            true
                        }
                        _ => {
                            self.expr(func);
                            false
                        }
                    };
                    for a in args {
                        if let Arg::Pos(e) = a {
                            self.expr(e);
                        }
                    }
                    let argc = idx32(args.len(), "call argument");
                    self.emit(if method {
                        Op::CallMethod(argc)
                    } else {
                        Op::Call(argc)
                    });
                    return;
                }
                self.expr(func);
                self.emit(Op::CallBegin);
                for a in args {
                    match a {
                        Arg::Pos(e) => {
                            self.expr(e);
                            self.emit(Op::ArgPos);
                        }
                        Arg::Kw(n, e) => {
                            self.expr(e);
                            self.emit(Op::ArgKw(intern(n)));
                        }
                        Arg::Star(e) => {
                            self.expr(e);
                            self.emit(Op::ArgStar);
                        }
                        Arg::DoubleStar(e) => {
                            self.expr(e);
                            self.emit(Op::ArgDoubleStar);
                        }
                    }
                }
                self.emit(Op::CallEnd);
            }
            ExprKind::Unary { op, operand } => {
                self.tick();
                self.expr(operand);
                self.emit(Op::Unary(*op));
            }
            ExprKind::Binary { left, op, right } => {
                self.tick();
                self.expr(left);
                self.expr(right);
                self.emit(Op::Binary(*op));
            }
            ExprKind::BoolOp { op, values } => {
                self.tick();
                let end = self.new_label();
                for (i, v) in values.iter().enumerate() {
                    self.expr(v);
                    if i < values.len() - 1 {
                        match op {
                            BoolOpKind::And => self.emit(Op::JumpIfFalseOrPop(end)),
                            BoolOpKind::Or => self.emit(Op::JumpIfTrueOrPop(end)),
                        }
                    }
                }
                self.bind(end);
            }
            ExprKind::Compare {
                left,
                ops,
                comparators,
            } => {
                self.tick();
                self.expr(left);
                let end = self.new_label();
                let last = ops.len() - 1;
                for (i, (op, comp)) in ops.iter().zip(comparators).enumerate() {
                    self.expr(comp);
                    if i < last {
                        self.emit(Op::CmpJump {
                            op: *op,
                            target: end,
                        });
                    } else {
                        self.emit(Op::Cmp(*op));
                    }
                }
                self.bind(end);
            }
            ExprKind::Lambda { params, .. } => {
                self.tick();
                let decl = self.fn_decl(expr.id, params);
                self.compile_defaults(params);
                self.emit(Op::MakeFunction(decl));
            }
            ExprKind::IfExp { test, body, orelse } => {
                self.tick();
                self.expr(test);
                let alt = self.new_label();
                let end = self.new_label();
                self.emit(Op::JumpIfFalse(alt));
                self.expr(body);
                self.emit(Op::Jump(end));
                self.bind(alt);
                self.expr(orelse);
                self.bind(end);
            }
            ExprKind::Tuple(items) => {
                self.tick();
                for i in items {
                    self.expr(i);
                }
                self.emit(Op::BuildTuple(idx32(items.len(), "tuple item")));
            }
            ExprKind::List(items) => {
                self.tick();
                for i in items {
                    self.expr(i);
                }
                self.emit(Op::BuildList(idx32(items.len(), "list item")));
            }
            ExprKind::Set(items) => {
                self.tick();
                for i in items {
                    self.expr(i);
                }
                self.emit(Op::BuildSet(idx32(items.len(), "set item")));
            }
            ExprKind::Dict(pairs) => {
                self.tick();
                for (k, v) in pairs {
                    self.expr(k);
                    self.expr(v);
                }
                self.emit(Op::BuildDict(idx32(pairs.len(), "dict pair")));
            }
            // The comprehension-target scope quirk lives in the tree
            // walk; starred expressions outside call/assignment
            // reproduce its runtime SyntaxError.
            ExprKind::ListComp { .. } | ExprKind::Starred(_) => self.fallback_expr(expr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scope of `src`, compiled, with the index each label was
    /// bound to.
    fn compile_all(src: &str) -> Vec<(CodeObject, Vec<u32>)> {
        let module = pysrc::parse_module(src, "t.py").expect("parses");
        let prepared = crate::prepare::prepare(Arc::new(module));
        let mut scopes = vec![lower(&prepared.module_proto, &prepared.module.body)];
        scopes.extend(prepared.protos.values().map(|p| lower(p, &p.body)));
        scopes.into_iter().map(|c| (c.code, c.labels)).collect()
    }

    #[test]
    fn a_standalone_tick_only_lands_steps_before_a_label_or_the_end() {
        let programs = [
            "x = 1\nif x:\n    pass\nelif x > 2:\n    x = 3\nelse:\n    pass\nprint(x)\n",
            "i = 0\nwhile i < 3:\n    i += 1\nelse:\n    pass\nprint(i)\n",
            "i = 0\nwhile True:\n    if i:\n        break\n    i = i + 1\nelse:\n    pass\nprint(i)\n",
            "for k in [1, 2]:\n    if k == 2:\n        continue\n    pass\nelse:\n    pass\n\
             for k in [3]:\n    break\nprint(k)\n",
            "def f(a, b=[1, 2], *r, **kw):\n    for x in a:\n        try:\n            break\n        \
             finally:\n            pass\n    return (lambda y=1: y)() if a and b or r else kw\n",
            "x = 5\nassert 1 < x < 9, 'no'\ny = x if x else -x\nz = x.real\npass\n",
            "def g():\n    pass\n",
        ];
        for src in programs {
            for (code, labels) in compile_all(src) {
                let last = code.insns.len().saturating_sub(1);
                for (at, insn) in code.insns.iter().enumerate() {
                    if matches!(insn.op, Op::Tick) {
                        assert!(insn.steps > 0, "an empty tick at {at} in:\n{src}");
                        assert!(
                            at == last || labels.contains(&idx32(at + 1, "instruction")),
                            "a tick at {at} that could ride on the next op in:\n{src}\n{:?}",
                            code.insns
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn an_instruction_stays_within_32_bytes() {
        assert!(std::mem::size_of::<Insn>() <= 32);
    }
}
