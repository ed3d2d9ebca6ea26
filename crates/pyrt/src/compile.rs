//! Lowering from the prepare-time-resolved AST to the flat bytecode of
//! [`crate::ir`].
//!
//! The compiler walks a scope body exactly the way the tree walk
//! executes it and emits instructions whose *observable* behavior —
//! side-effect order, error identity, and interpreter-step accounting —
//! is bit-for-bit the tree walk's:
//!
//! * Every node the tree walk would `vm.tick()` on entry adds one to a
//!   pending-step counter; the counter is flushed as one
//!   [`Insn::Tick`] before the next instruction that can fault or have
//!   an observable effect (and at every label/jump). Pure
//!   stack-construction instructions never force a flush, so straight
//!   runs of literals batch their steps.
//! * Statements with deep cold semantics (`try`, `with`, `class`,
//!   imports, `del`, unsupported assignment shapes) and expressions
//!   with scope quirks (list comprehensions, unresolved attributes)
//!   compile to tree-walk trampolines over AST clones held by the code
//!   object — those nodes tick themselves, so no pending step is
//!   counted for them.
//!
//! Compilation is cached on [`FuncProto::compiled`] (a `OnceLock`), so
//! a prepared module shared across a campaign compiles each scope at
//! most once, process-wide.

use crate::intern::intern;
use crate::ir::{CodeObject, Const, FnDecl, Insn, NO_LOOP};
use crate::prepare::{self, FuncProto, NameRes};
use crate::vm::Vm;
use pysrc::ast::*;
use std::sync::Arc;

/// The compiled body of a function scope, compiling (and caching) on
/// first use. Returns a reference into the proto's cache — the hot call
/// path pays no refcount traffic.
pub fn func_code<'p>(vm: &Vm, proto: &'p Arc<FuncProto>) -> &'p CodeObject {
    proto
        .compiled
        .get_or_init(|| Arc::new(compile(vm, proto, &proto.body)))
        .as_ref()
}

/// Like [`func_code`], but hands out an owned `Arc` so the caller can
/// keep the code alive without holding a borrow of the prototype (the
/// call hot path mutates the frame while executing the code).
pub fn func_code_arc(vm: &Vm, proto: &Arc<FuncProto>) -> Arc<CodeObject> {
    proto
        .compiled
        .get_or_init(|| Arc::new(compile(vm, proto, &proto.body)))
        .clone()
}

/// The compiled body of a module scope (module protos carry an empty
/// `body`; the statements live in the AST), cached on the module proto.
pub fn module_code<'p>(vm: &Vm, proto: &'p Arc<FuncProto>, body: &[Stmt]) -> &'p CodeObject {
    proto
        .compiled
        .get_or_init(|| Arc::new(compile(vm, proto, body)))
        .as_ref()
}

/// Compiles one scope body against its prototype's resolution table.
pub fn compile(vm: &Vm, proto: &Arc<FuncProto>, body: &[Stmt]) -> CodeObject {
    let mut c = Compiler {
        vm,
        proto,
        code: CodeObject::default(),
        labels: Vec::new(),
        pending: 0,
        loops: Vec::new(),
    };
    c.block(body);
    c.flush();
    c.patch();
    c.code
}

/// An enclosing loop's jump targets (label ids until patched).
#[derive(Clone, Copy)]
struct LoopCtx {
    brk: u32,
    cont: u32,
}

struct Compiler<'a> {
    vm: &'a Vm,
    proto: &'a Arc<FuncProto>,
    code: CodeObject,
    /// Label id → bound instruction index.
    labels: Vec<u32>,
    /// Interpreter steps counted since the last flush.
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

impl Compiler<'_> {
    // ----- emission plumbing -----

    fn emit(&mut self, i: Insn) {
        self.code.insns.push(i);
    }

    /// Counts one interpreter step (a `vm.tick()` the tree walk makes
    /// at node entry).
    fn tick(&mut self) {
        self.pending += 1;
    }

    /// Emits the pending steps before an instruction that can fault or
    /// observably act.
    fn flush(&mut self) {
        if self.pending > 0 {
            let n = self.pending;
            self.pending = 0;
            self.emit(Insn::Tick(n));
        }
    }

    /// Takes the whole pending-step count for fusion into the next
    /// instruction. The fused forms settle the steps before acting —
    /// the exact order `flush()` + emit would have produced.
    fn take_pending(&mut self) -> u32 {
        std::mem::take(&mut self.pending)
    }

    /// Emits a binary operator, fusing pending steps when there are any.
    fn emit_binary(&mut self, op: BinOp) {
        match self.take_pending() {
            0 => self.emit(Insn::Binary(op)),
            n => self.emit(Insn::TickBinary { n, op }),
        }
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(u32::MAX);
        idx32(self.labels.len() - 1, "label")
    }

    fn bind(&mut self, label: u32) {
        self.flush();
        self.labels[label as usize] = idx32(self.code.insns.len(), "instruction");
    }

    /// Rewrites label ids into absolute instruction indices.
    fn patch(&mut self) {
        let labels = &self.labels;
        let fix = |t: &mut u32| {
            if *t != NO_LOOP {
                *t = labels[*t as usize];
            }
        };
        for insn in &mut self.code.insns {
            match insn {
                Insn::Jump(t)
                | Insn::JumpIfFalse(t)
                | Insn::JumpIfTrue(t)
                | Insn::JumpIfFalseOrPop(t)
                | Insn::JumpIfTrueOrPop(t)
                | Insn::ForNext(t)
                | Insn::CmpJump { target: t, .. } => fix(t),
                Insn::ExecStmt { brk, cont, .. } => {
                    fix(brk);
                    fix(cont);
                }
                _ => {}
            }
        }
    }

    fn const_idx(&mut self, c: Const) -> u32 {
        self.code.consts.push(c);
        idx32(self.code.consts.len() - 1, "constant")
    }

    // ----- trampolines -----

    /// Compiles a statement to the tree-walk trampoline. The statement
    /// ticks itself, so no pending step is counted here — but pending
    /// steps from *earlier* nodes must land first.
    fn fallback_stmt(&mut self, stmt: &Stmt) {
        self.flush();
        self.code.stmts.push(stmt.clone());
        let idx = idx32(self.code.stmts.len() - 1, "statement pool");
        let ctx = self.loops.last().copied();
        self.emit(Insn::ExecStmt {
            stmt: idx,
            brk: ctx.map_or(NO_LOOP, |c| c.brk),
            cont: ctx.map_or(NO_LOOP, |c| c.cont),
        });
    }

    /// Compiles an expression to the tree-walk trampoline (it ticks
    /// itself).
    fn fallback_expr(&mut self, expr: &Expr) {
        self.flush();
        self.code.exprs.push(expr.clone());
        let idx = idx32(self.code.exprs.len() - 1, "expression pool");
        self.emit(Insn::EvalExpr(idx));
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
                self.emit(Insn::Pop);
            }
            StmtKind::Assign { targets, value } => {
                if !targets.iter().all(|t| self.store_supported(t)) {
                    return self.fallback_stmt(stmt);
                }
                self.tick();
                self.expr(value);
                for (i, t) in targets.iter().enumerate() {
                    if i < targets.len() - 1 {
                        self.emit(Insn::Dup);
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
                // Slot-local / module-global `x op= e` fuses the step
                // settle, the operator, and the write into one
                // instruction — the hottest statement shape in loops.
                if matches!(target.kind, ExprKind::Name(_)) {
                    match self.proto.table.res(target.id) {
                        NameRes::Local { slot, sym } => {
                            self.tick();
                            self.expr(target);
                            self.expr(value);
                            let n = self.take_pending();
                            self.emit(Insn::TickBinaryStoreSlot {
                                n,
                                op: *op,
                                slot,
                                sym,
                            });
                            return;
                        }
                        NameRes::Global(sym) | NameRes::GlobalDecl(sym) => {
                            self.tick();
                            self.expr(target);
                            self.expr(value);
                            let n = self.take_pending();
                            self.emit(Insn::TickBinaryStoreGlobal { n, op: *op, sym });
                            return;
                        }
                        _ => {}
                    }
                }
                self.tick();
                self.expr(target);
                self.expr(value);
                self.emit_binary(*op);
                self.store(target);
            }
            StmtKind::Return(v) => {
                self.tick();
                match v {
                    Some(e) => {
                        self.expr(e);
                        self.flush();
                        self.emit(Insn::Return);
                    }
                    None => {
                        self.flush();
                        self.emit(Insn::ReturnNone);
                    }
                }
            }
            StmtKind::Pass => self.tick(),
            StmtKind::Break => {
                self.tick();
                self.flush();
                match self.loops.last() {
                    Some(ctx) => self.emit(Insn::Jump(ctx.brk)),
                    // Outside any loop the flow escapes the frame and
                    // the caller treats it as a plain `None` return.
                    None => self.emit(Insn::ReturnNone),
                }
            }
            StmtKind::Continue => {
                self.tick();
                self.flush();
                match self.loops.last() {
                    Some(ctx) => self.emit(Insn::Jump(ctx.cont)),
                    None => self.emit(Insn::ReturnNone),
                }
            }
            StmtKind::Assert { test, msg } => {
                self.tick();
                self.expr(test);
                self.flush();
                let ok = self.new_label();
                self.emit(Insn::JumpIfTrue(ok));
                let has_msg = msg.is_some();
                if let Some(m) = msg {
                    self.expr(m);
                    self.flush();
                }
                self.emit(Insn::AssertFail { has_msg });
                self.bind(ok);
            }
            StmtKind::Raise { exc, cause: _ } => {
                self.tick();
                match exc {
                    Some(e) => {
                        self.expr(e);
                        self.flush();
                        self.emit(Insn::Raise { has_exc: true });
                    }
                    None => {
                        self.flush();
                        self.emit(Insn::Raise { has_exc: false });
                    }
                }
            }
            StmtKind::Global(_) => self.tick(), // handled by analysis
            StmtKind::If { branches, orelse } => {
                self.tick();
                let end = self.new_label();
                for (test, body) in branches {
                    self.expr(test);
                    self.flush();
                    let next = self.new_label();
                    self.emit(Insn::JumpIfFalse(next));
                    self.block(body);
                    self.flush();
                    self.emit(Insn::Jump(end));
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
                self.flush();
                self.emit(Insn::JumpIfFalse(orelse_l));
                self.loops.push(LoopCtx {
                    brk: end,
                    cont: start,
                });
                self.block(body);
                self.loops.pop();
                self.flush();
                self.emit(Insn::Jump(start));
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
                self.flush();
                self.emit(Insn::GetIter);
                let start = self.new_label();
                let trampoline = self.new_label();
                let orelse_l = self.new_label();
                let end = self.new_label();
                self.bind(start);
                self.emit(Insn::ForNext(orelse_l));
                self.store(target);
                self.loops.push(LoopCtx {
                    brk: trampoline,
                    cont: start,
                });
                self.block(body);
                self.loops.pop();
                self.flush();
                self.emit(Insn::Jump(start));
                // `break` lands here so the iterator is discarded.
                self.bind(trampoline);
                self.emit(Insn::PopIter);
                self.emit(Insn::Jump(end));
                self.bind(orelse_l);
                self.compile_loop_orelse(orelse, end);
                self.bind(end);
            }
            StmtKind::FuncDef { name, params, body } => {
                self.tick();
                let decl = self.make_fn_decl(stmt.id, name, params, body);
                self.compile_defaults(params);
                self.emit(Insn::MakeFunction(decl));
                self.flush();
                self.emit(Insn::StoreSym(intern(name)));
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

    fn make_fn_decl(&mut self, id: NodeId, name: &str, params: &[Param], body: &[Stmt]) -> u32 {
        let proto = match self.vm.proto(id) {
            Some(p) => p,
            None => {
                let (p, nested) = prepare::prepare_function(name, params, body);
                self.vm.install_proto(id, p.clone(), nested);
                p
            }
        };
        self.code.fn_decls.push(FnDecl {
            def_id: id,
            proto,
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
    /// `SyntaxError` for non-targets).
    fn store_supported(&self, target: &Expr) -> bool {
        match &target.kind {
            ExprKind::Name(_) | ExprKind::Attribute { .. } | ExprKind::Subscript { .. } => true,
            ExprKind::Tuple(items) | ExprKind::List(items) => {
                items.iter().all(|t| self.store_supported(t))
            }
            _ => false,
        }
    }

    /// Compiles a store of the top of stack into `target` (the tree
    /// walk's `assign_target`: no step for the target node itself;
    /// nested object/index evaluations tick as expressions).
    fn store(&mut self, target: &Expr) {
        match &target.kind {
            ExprKind::Name(n) => {
                self.flush();
                match self.proto.table.res(target.id) {
                    NameRes::Local { slot, sym } => self.emit(Insn::StoreSlot { slot, sym }),
                    NameRes::DynLocal(sym) => self.emit(Insn::StoreDyn(sym)),
                    NameRes::Global(sym) | NameRes::GlobalDecl(sym) => {
                        self.emit(Insn::StoreGlobal(sym))
                    }
                    NameRes::Cell(sym) => self.emit(Insn::StoreSym(sym)),
                    NameRes::Unprepared | NameRes::Attr(_) | NameRes::CallKw(_) => {
                        self.emit(Insn::StoreSym(intern(n)))
                    }
                }
            }
            ExprKind::Attribute { value: obj, attr } => {
                let sym = match self.proto.table.res(target.id) {
                    NameRes::Attr(s) => s,
                    _ => intern(attr),
                };
                self.expr(obj);
                self.flush();
                self.emit(Insn::StoreAttr(sym));
            }
            ExprKind::Subscript { value: obj, index } => {
                self.expr(obj);
                self.expr(index);
                self.flush();
                self.emit(Insn::StoreItem);
            }
            ExprKind::Tuple(items) | ExprKind::List(items) => {
                self.flush();
                self.emit(Insn::UnpackSeq(idx32(items.len(), "unpack target")));
                for t in items {
                    self.store(t);
                }
            }
            _ => unreachable!("store_supported() gated"),
        }
    }

    // ----- expressions -----

    fn expr(&mut self, expr: &Expr) {
        match &expr.kind {
            ExprKind::Num(Number::Int(v)) => {
                self.tick();
                let i = self.const_idx(Const::Int(*v));
                self.emit(Insn::Const(i));
            }
            ExprKind::Num(Number::Float(v)) => {
                self.tick();
                let i = self.const_idx(Const::Float(*v));
                self.emit(Insn::Const(i));
            }
            ExprKind::Str(s) => {
                self.tick();
                let i = self.const_idx(Const::Str(Arc::from(s.as_str())));
                self.emit(Insn::Const(i));
            }
            ExprKind::Bool(b) => {
                self.tick();
                let i = self.const_idx(Const::Bool(*b));
                self.emit(Insn::Const(i));
            }
            ExprKind::NoneLit => {
                self.tick();
                let i = self.const_idx(Const::None);
                self.emit(Insn::Const(i));
            }
            ExprKind::Name(n) => {
                self.tick();
                match self.proto.table.res(expr.id) {
                    // Slot and global reads fuse the flush into the load
                    // (`pending` ≥ 1: the name node just ticked).
                    NameRes::Local { slot, sym } => {
                        let n = self.take_pending();
                        self.emit(Insn::TickLoadSlot { n, slot, sym });
                    }
                    NameRes::Global(sym) | NameRes::GlobalDecl(sym) => {
                        let n = self.take_pending();
                        self.emit(Insn::TickLoadGlobal { n, sym });
                    }
                    NameRes::DynLocal(sym) => {
                        self.flush();
                        self.emit(Insn::LoadDyn(sym));
                    }
                    NameRes::Cell(sym) => {
                        self.flush();
                        self.emit(Insn::LoadCell(sym));
                    }
                    NameRes::Unprepared | NameRes::Attr(_) | NameRes::CallKw(_) => {
                        self.flush();
                        self.emit(Insn::LoadFallback(intern(n)));
                    }
                }
            }
            ExprKind::Attribute { value, .. } => match self.proto.table.res(expr.id) {
                NameRes::Attr(sym) => {
                    self.tick();
                    self.expr(value);
                    self.flush();
                    self.emit(Insn::LoadAttr(sym));
                }
                // Unresolved attribute nodes use the tree walk's
                // non-inserting intern probe; don't intern here.
                _ => self.fallback_expr(expr),
            },
            ExprKind::Subscript { value, index } => {
                self.tick();
                self.expr(value);
                self.expr(index);
                self.flush();
                self.emit(Insn::LoadItem);
            }
            ExprKind::Slice { lower, upper, step } => {
                self.tick();
                for part in [lower, upper, step] {
                    match part {
                        Some(e) => self.expr(e),
                        None => {
                            let i = self.const_idx(Const::None);
                            self.emit(Insn::Const(i));
                        }
                    }
                }
                self.emit(Insn::BuildSlice);
            }
            ExprKind::Call { func, args } => {
                self.tick();
                // Positional-only calls — the overwhelmingly common
                // shape — skip the argument builder entirely.
                if args.iter().all(|a| matches!(a, Arg::Pos(_))) {
                    // `obj.m(a, b)`: the attribute node's own lowering
                    // (same steps, same flush point, same lookup and
                    // `AttributeError` ahead of the arguments) with
                    // `LoadMethod` for `LoadAttr`, so a method found on
                    // the class is called without a bound object.
                    let method = match (&func.kind, self.proto.table.res(func.id)) {
                        (ExprKind::Attribute { value, .. }, NameRes::Attr(sym)) => {
                            self.tick();
                            self.expr(value);
                            self.flush();
                            self.emit(Insn::LoadMethod(sym));
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
                    match (method, self.take_pending()) {
                        (true, n) => self.emit(Insn::CallMethod { n, argc }),
                        (false, 0) => self.emit(Insn::Call(argc)),
                        (false, n) => self.emit(Insn::TickCall { n, argc }),
                    }
                    return;
                }
                self.expr(func);
                self.emit(Insn::CallBegin);
                for a in args {
                    match a {
                        Arg::Pos(e) => {
                            self.expr(e);
                            self.emit(Insn::ArgPos);
                        }
                        Arg::Kw(n, e) => {
                            self.expr(e);
                            self.emit(Insn::ArgKw(intern(n)));
                        }
                        Arg::Star(e) => {
                            self.expr(e);
                            self.flush();
                            self.emit(Insn::ArgStar);
                        }
                        Arg::DoubleStar(e) => {
                            self.expr(e);
                            self.flush();
                            self.emit(Insn::ArgDoubleStar);
                        }
                    }
                }
                self.flush();
                self.emit(Insn::CallEnd);
            }
            ExprKind::Unary { op, operand } => {
                self.tick();
                self.expr(operand);
                self.flush();
                self.emit(Insn::Unary(*op));
            }
            ExprKind::Binary { left, op, right } => {
                self.tick();
                self.expr(left);
                self.expr(right);
                self.emit_binary(*op);
            }
            ExprKind::BoolOp { op, values } => {
                self.tick();
                let end = self.new_label();
                for (i, v) in values.iter().enumerate() {
                    self.expr(v);
                    if i < values.len() - 1 {
                        self.flush();
                        match op {
                            BoolOpKind::And => self.emit(Insn::JumpIfFalseOrPop(end)),
                            BoolOpKind::Or => self.emit(Insn::JumpIfTrueOrPop(end)),
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
                        self.flush();
                        self.emit(Insn::CmpJump {
                            op: *op,
                            target: end,
                        });
                    } else {
                        match self.take_pending() {
                            0 => self.emit(Insn::Cmp(*op)),
                            n => self.emit(Insn::TickCmp { n, op: *op }),
                        }
                    }
                }
                self.bind(end);
            }
            ExprKind::Lambda { params, .. } => {
                self.tick();
                let decl = self.lambda_decl(expr);
                self.compile_defaults(params);
                self.emit(Insn::MakeFunction(decl));
            }
            ExprKind::IfExp { test, body, orelse } => {
                self.tick();
                self.expr(test);
                self.flush();
                let alt = self.new_label();
                let end = self.new_label();
                self.emit(Insn::JumpIfFalse(alt));
                self.expr(body);
                self.flush();
                self.emit(Insn::Jump(end));
                self.bind(alt);
                self.expr(orelse);
                self.bind(end);
            }
            ExprKind::Tuple(items) => {
                self.tick();
                for i in items {
                    self.expr(i);
                }
                self.emit(Insn::BuildTuple(idx32(items.len(), "tuple item")));
            }
            ExprKind::List(items) => {
                self.tick();
                for i in items {
                    self.expr(i);
                }
                self.emit(Insn::BuildList(idx32(items.len(), "list item")));
            }
            ExprKind::Set(items) => {
                self.tick();
                for i in items {
                    self.expr(i);
                }
                self.emit(Insn::BuildSet(idx32(items.len(), "set item")));
            }
            ExprKind::Dict(pairs) => {
                self.tick();
                for (k, v) in pairs {
                    self.expr(k);
                    self.expr(v);
                }
                self.emit(Insn::BuildDict(idx32(pairs.len(), "dict pair")));
            }
            // The comprehension-target scope quirk (and its
            // spec-version switch) lives in the tree walk; starred
            // expressions outside call/assignment reproduce its
            // runtime SyntaxError.
            ExprKind::ListComp { .. } | ExprKind::Starred(_) => self.fallback_expr(expr),
        }
    }

    fn lambda_decl(&mut self, expr: &Expr) -> u32 {
        let ExprKind::Lambda { params, body } = &expr.kind else {
            unreachable!("caller matched Lambda");
        };
        let proto = match self.vm.proto(expr.id) {
            Some(p) => p,
            None => {
                let (p, nested) = prepare::prepare_lambda(params, body);
                self.vm.install_proto(expr.id, p.clone(), nested);
                p
            }
        };
        self.code.fn_decls.push(FnDecl {
            def_id: expr.id,
            proto,
            has_default: params.iter().map(|p| p.default.is_some()).collect(),
        });
        idx32(self.code.fn_decls.len() - 1, "fn decl")
    }
}
