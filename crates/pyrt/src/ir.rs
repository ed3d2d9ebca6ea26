//! The flat, position-independent instruction set the bytecode tier
//! executes.
//!
//! A [`CodeObject`] is compiled once per scope (see [`crate::compile`])
//! and cached on the scope's [`FuncProto`], so every experiment of a
//! campaign that shares a prepared module also shares its bytecode.
//! The object is immutable and `Send + Sync`: operands are slot
//! indices, interned [`Symbol`]s, constant-pool indices, and absolute
//! jump targets — never `Rc` values — so one compile serves every VM
//! (and every fleet worker) that runs the module.
//!
//! Interpreter-step accounting is batched per straight-line run: the
//! compiler counts the `vm.tick()` calls the tree walk would have made
//! and emits one [`Insn::Tick`] *before* the next faultable or
//! effectful instruction, which keeps the fuel-exhaustion step, the
//! virtual clock, and every error/side-effect interleaving bit-for-bit
//! identical to the tree-walk oracle.
//!
//! Statements and expressions whose semantics are deep and cold
//! (`try`/`with`/`class`/imports/`del`, list comprehensions) compile to
//! [`Insn::ExecStmt`]/[`Insn::EvalExpr`] trampolines into the tree
//! walk over AST nodes cloned into the code object — one shared
//! implementation site, zero drift risk.

use crate::intern::Symbol;
use crate::prepare::FuncProto;
use crate::value::Value;
use pysrc::ast::{BinOp, CmpOp, Expr, NodeId, Stmt, UnaryOp};
use std::sync::Arc;

/// A pooled constant. `Str` holds an `Arc<str>` (not a `Value`) so the
/// pool stays `Send + Sync`; loads materialize a fresh string value.
#[derive(Clone, Debug)]
pub enum Const {
    /// `None`.
    None,
    /// `True` / `False`.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(Arc<str>),
}

impl Const {
    /// Materializes the constant as a runtime value. String constants
    /// go through the heap's short-string interner, so repeated loads
    /// of the same literal share one handle.
    #[inline]
    pub fn value(&self, heap: &crate::value::Heap) -> Value {
        match self {
            Const::None => Value::None,
            Const::Bool(b) => Value::Bool(*b),
            Const::Int(i) => Value::Int(*i),
            Const::Float(f) => Value::Float(*f),
            Const::Str(s) => heap.new_str(s),
        }
    }
}

/// A nested `def`/`lambda` referenced by [`Insn::MakeFunction`]: the
/// prepared prototype plus which parameters have a compiled default on
/// the stack (in declaration order).
#[derive(Debug)]
pub struct FnDecl {
    /// The defining node (`FuncDef` statement or `Lambda` expression):
    /// the executing VM's registry is asked for its prototype first,
    /// because this code may be shared with a module that overrides the
    /// `def` (see [`crate::prepare::override_def`]).
    pub def_id: NodeId,
    /// Prototype of the nested scope as the compiling VM knew it: what
    /// a VM whose registry has none under `def_id` builds.
    pub proto: Arc<FuncProto>,
    /// `true` per parameter that has a default expression compiled
    /// before the `MakeFunction`.
    pub has_default: Vec<bool>,
}

/// Jump-target sentinel in [`Insn::ExecStmt`] meaning "no enclosing
/// loop": a `break`/`continue` flow escaping here returns `None` from
/// the frame, exactly like the tree walk's `Ok(_) => Value::None`.
pub const NO_LOOP: u32 = u32::MAX;

/// One bytecode instruction. Jump operands are absolute instruction
/// indices (patched from labels at the end of compilation).
#[derive(Clone, Copy, Debug)]
pub enum Insn {
    /// Settle `n` interpreter steps through [`crate::vm::Vm::tick`]
    /// (batched per straight-line run; see module docs).
    Tick(u32),
    /// Push constant-pool entry.
    Const(u32),
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Read a slot-allocated local (`sym` names the diagnostic).
    LoadSlot {
        /// Slot index into the frame's dense local vector.
        slot: u32,
        /// Name, for `UnboundLocalError` and the non-slot fallback.
        sym: Symbol,
    },
    /// Write a slot-allocated local.
    StoreSlot {
        /// Slot index into the frame's dense local vector.
        slot: u32,
        /// Name, for the non-slot fallback.
        sym: Symbol,
    },
    /// Read a dynamic-scope local.
    LoadDyn(Symbol),
    /// Write a dynamic-scope local.
    StoreDyn(Symbol),
    /// Read a cell name: captured scopes innermost-first, then globals,
    /// then builtins.
    LoadCell(Symbol),
    /// Read a module-global (globals then builtins).
    LoadGlobal(Symbol),
    /// Write a module-global.
    StoreGlobal(Symbol),
    /// Dynamic read via the tree walk's fallback resolution order.
    LoadFallback(Symbol),
    /// Generic symbol write honoring `global` declarations and the
    /// frame kind (the tree walk's `write_sym`).
    StoreSym(Symbol),
    /// Pop an object, push its attribute.
    LoadAttr(Symbol),
    /// Pop object then the value beneath it; set the attribute.
    StoreAttr(Symbol),
    /// Pop index then object, push `obj[index]`.
    LoadItem,
    /// Pop index, object, value; execute `obj[index] = value`.
    StoreItem,
    /// Pop `n` values (pushed in order), build a tuple.
    BuildTuple(u32),
    /// Pop `n` values, build a list.
    BuildList(u32),
    /// Pop `n` values, build a set (dedup in insertion order).
    BuildSet(u32),
    /// Pop `n` key/value pairs, build a dict in insertion order.
    BuildDict(u32),
    /// Pop step, upper, lower; push the `__slice__` marker tuple.
    BuildSlice,
    /// Pop an iterable, check it has exactly `n` items, push them
    /// reversed (first target pops first).
    UnpackSeq(u32),
    /// Unary operator on the top of stack.
    Unary(UnaryOp),
    /// Pop right then left, apply a binary operator.
    Binary(BinOp),
    /// Pop right then left, push the comparison result.
    Cmp(CmpOp),
    /// Chained-comparison link: pop right then left; on failure push
    /// `False` and jump to `target`, on success push right (the next
    /// link's left operand).
    CmpJump {
        /// Comparison operator for this link.
        op: CmpOp,
        /// End of the whole chain.
        target: u32,
    },
    // ----- fused superinstructions -----
    //
    // Each fuses a `Tick(n)` with the op that immediately follows it
    // (tick first, then act — the order `flush()` + emit would have
    // produced), collapsing the hottest two-instruction pairs into one
    // dispatch. They carry no jump targets, so `patch()` ignores them.
    /// `Tick(n)` + [`Insn::LoadSlot`] (`n` ≥ 1: the name node ticks).
    TickLoadSlot {
        /// Pending interpreter steps to settle first.
        n: u32,
        /// Slot index into the frame's dense local vector.
        slot: u32,
        /// Name, for `UnboundLocalError` and the non-slot fallback.
        sym: Symbol,
    },
    /// `Tick(n)` + [`Insn::LoadGlobal`] (`n` ≥ 1: the name node ticks).
    TickLoadGlobal {
        /// Pending interpreter steps to settle first.
        n: u32,
        /// Module-global name.
        sym: Symbol,
    },
    /// `Tick(n)` + [`Insn::Binary`].
    TickBinary {
        /// Pending interpreter steps to settle first.
        n: u32,
        /// Binary operator.
        op: BinOp,
    },
    /// `Tick(n)` + [`Insn::Cmp`].
    TickCmp {
        /// Pending interpreter steps to settle first.
        n: u32,
        /// Comparison operator.
        op: CmpOp,
    },
    /// `Tick(n)` + [`Insn::Binary`] + [`Insn::StoreSlot`]: the
    /// augmented-assignment fast path for a slot-local target
    /// (`x += e`). `n` may be 0 when the operands flushed.
    TickBinaryStoreSlot {
        /// Pending interpreter steps to settle first.
        n: u32,
        /// Binary operator.
        op: BinOp,
        /// Slot index into the frame's dense local vector.
        slot: u32,
        /// Name, for the non-slot fallback.
        sym: Symbol,
    },
    /// `Tick(n)` + [`Insn::Binary`] + [`Insn::StoreGlobal`]: the
    /// augmented-assignment fast path for a module-global target.
    TickBinaryStoreGlobal {
        /// Pending interpreter steps to settle first.
        n: u32,
        /// Binary operator.
        op: BinOp,
        /// Module-global name.
        sym: Symbol,
    },
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy.
    JumpIfFalse(u32),
    /// Pop; jump when truthy.
    JumpIfTrue(u32),
    /// `and`: jump keeping the value when falsy, else pop.
    JumpIfFalseOrPop(u32),
    /// `or`: jump keeping the value when truthy, else pop.
    JumpIfTrueOrPop(u32),
    /// Pop an iterable, materialize its value snapshot onto the
    /// iterator stack.
    GetIter,
    /// Push the next iteration value, or pop the iterator and jump to
    /// the loop's `else` block when exhausted.
    ForNext(u32),
    /// Discard the top iterator (the `break` trampoline).
    PopIter,
    /// Pop the callee, open an argument builder.
    CallBegin,
    /// Pop a positional argument into the open builder.
    ArgPos,
    /// Pop a keyword argument into the open builder.
    ArgKw(Symbol),
    /// Pop an iterable, splat it into the positional arguments.
    ArgStar,
    /// Pop a mapping, splat it into the keyword arguments.
    ArgDoubleStar,
    /// Close the builder and call; push the result.
    CallEnd,
    /// Positional-only call fast path: pop `argc` arguments (pushed in
    /// order) then the callee beneath them; push the result. Replaces
    /// the `CallBegin`/`ArgPos`×n/`CallEnd` sequence when every
    /// argument is a plain positional and the callee is not an
    /// attribute (those are [`Insn::LoadMethod`]/[`Insn::CallMethod`]).
    Call(u32),
    /// `Tick(n)` + [`Insn::Call`].
    TickCall {
        /// Pending interpreter steps to settle first.
        n: u32,
        /// Positional argument count.
        argc: u32,
    },
    /// Method-call half of [`Insn::LoadAttr`]: pop an object, look the
    /// attribute up (instance attribute first, then the class chain —
    /// `AttributeError` here, before any argument is evaluated) and
    /// push two slots: the value to call, then its receiver when the
    /// value is a class function found through an instance, else
    /// `None`. No bound-method object is allocated.
    LoadMethod(Symbol),
    /// `Tick(n)` + the call that closes an [`Insn::LoadMethod`]: pop
    /// `argc` arguments, the receiver slot and the callee; call with
    /// the receiver (if any) as first argument; push the result.
    CallMethod {
        /// Pending interpreter steps to settle first (may be 0).
        n: u32,
        /// Positional argument count (receiver not included).
        argc: u32,
    },
    /// Build a closure from `fn_decls[i]`, popping compiled defaults.
    MakeFunction(u32),
    /// `raise` (`has_exc`: pops the raised value) / bare re-raise.
    Raise {
        /// Whether an explicit exception value is on the stack.
        has_exc: bool,
    },
    /// Failed `assert` (`has_msg`: pops the message value).
    AssertFail {
        /// Whether a message value is on the stack.
        has_msg: bool,
    },
    /// Pop the return value and leave the frame.
    Return,
    /// Leave the frame returning `None`.
    ReturnNone,
    /// Tree-walk trampoline for one statement (`try`, `with`, `class`,
    /// imports, `del`, unsupported targets). `brk`/`cont` are the
    /// enclosing loop's jump targets for escaping `break`/`continue`
    /// flows ([`NO_LOOP`] when there is none).
    ExecStmt {
        /// Index into [`CodeObject::stmts`].
        stmt: u32,
        /// Jump target for an escaping `break`.
        brk: u32,
        /// Jump target for an escaping `continue`.
        cont: u32,
    },
    /// Tree-walk trampoline for one expression (list comprehensions,
    /// unresolved attributes); pushes the result.
    EvalExpr(u32),
}

/// The compiled form of one scope body.
#[derive(Debug, Default)]
pub struct CodeObject {
    /// Flat instruction stream.
    pub insns: Vec<Insn>,
    /// Constant pool.
    pub consts: Vec<Const>,
    /// Statements executed through the tree-walk trampoline.
    pub stmts: Vec<Stmt>,
    /// Expressions evaluated through the tree-walk trampoline.
    pub exprs: Vec<Expr>,
    /// Nested function declarations for [`Insn::MakeFunction`].
    pub fn_decls: Vec<FnDecl>,
}
