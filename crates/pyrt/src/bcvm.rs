//! The bytecode dispatch loop: a flat `pc`-driven interpreter over
//! [`CodeObject`]s, sharing the tree walk's values, frames, builtins,
//! exception machinery, and host calls.
//!
//! The loop has no exception tables: `try`/`with` compile to
//! [`Op::ExecStmt`] trampolines into the tree walk, so a raised
//! [`PyExc`] simply propagates out of `run` (adding the frame name is
//! the caller's job, exactly as with the tree walk). `break`/`continue`
//! escaping a trampolined statement re-enter the bytecode at the
//! enclosing loop's patched targets.
//!
//! Interpreter steps settle at one site: the top of dispatch settles
//! an instruction's [`Insn::steps`] before its [`Op`] runs, so no op
//! body charges steps of its own (see [`crate::ir`]).
//!
//! Fast paths: a few instructions answer the hottest operand shapes
//! inline — exact-arity positional calls of slot-frame functions bind
//! straight from the operand stack and natives read their arguments as
//! a slice of it ([`call_from_stack`]), an instance's
//! own attribute and an instance's class-chain method are read in
//! place, `int` `+`/`-` and comparisons and `bool` jumps skip the
//! generic operators. Each is chosen by what the instruction finds on
//! the stack, returns exactly what the general `interp` call returns,
//! allocates nothing, and falls through to that call for every other
//! shape.

use crate::exc::{Flow, PyExc};
use crate::intern::Symbol;
use crate::interp::{self, Frame, FrameLocals};
use crate::ir::{CodeObject, Insn, Op, NO_LOOP};
use crate::value::{values_eq, DictObj, FuncObj, KwName, Value};
use crate::vm::Vm;
use pysrc::ast::{BinOp, CmpOp};
use std::borrow::Cow;

/// An in-flight call's argument builder (between `CallBegin` and
/// `CallEnd`); both vectors come from the VM's pools and go back
/// through the callee.
pub(crate) struct CallBuilder {
    callee: Value,
    pos: Vec<Value>,
    kw: Vec<(KwName, Value)>,
}

/// Executes a compiled scope body in `frame`, returning the function's
/// return value (`None` when the body falls off the end or a
/// loop-control flow escapes the frame).
///
/// # Errors
///
/// Propagates any raised [`PyExc`] (without the frame-name traceback
/// entry; the caller adds it, mirroring the tree-walk call path).
pub fn run(vm: &mut Vm, frame: &mut Frame, code: &CodeObject) -> Result<Value, PyExc> {
    // Value stacks are recycled through the VM so the (recursion-deep)
    // call path doesn't allocate one per frame.
    let mut stack = vm.bc_stacks.borrow_mut().pop().unwrap_or_default();
    let open_calls = vm.calls.len();
    let result = run_on(vm, frame, code, &mut stack);
    // A raise between `CallBegin` and `CallEnd` leaves builders open.
    vm.calls.truncate(open_calls);
    stack.clear();
    vm.bc_stacks.borrow_mut().push(stack);
    result
}

fn run_on(
    vm: &mut Vm,
    frame: &mut Frame,
    code: &CodeObject,
    stack: &mut Vec<Value>,
) -> Result<Value, PyExc> {
    let mut iters: Vec<(Vec<Value>, usize)> = Vec::new();
    let insns = &code.insns;
    let mut pc = 0usize;
    while pc < insns.len() {
        let Insn { steps, op } = insns[pc];
        pc += 1;
        // The one place steps settle: before the op they precede.
        if steps != 0 {
            vm.tick_n(steps)?;
        }
        match op {
            Op::Tick => {}
            Op::Const(i) => stack.push(code.consts[i as usize].value(&vm.heap)),
            Op::Pop => {
                stack.pop();
            }
            Op::Dup => {
                let v = *stack.last().expect("stack discipline");
                stack.push(v);
            }
            Op::LoadSlot { slot, sym } => stack.push(load_slot(frame, slot, sym)?),
            Op::StoreSlot { slot, sym } => {
                let v = stack.pop().expect("stack discipline");
                store_slot(frame, slot, sym, v)?;
            }
            Op::LoadDyn(sym) => {
                let FrameLocals::Dynamic(locals) = &frame.locals else {
                    return Err(PyExc::not_prepared(sym.as_str()));
                };
                let v = locals.borrow().get_sym(sym);
                stack.push(v.ok_or_else(|| PyExc::unbound_local(sym.as_str()))?);
            }
            Op::StoreDyn(sym) => {
                let v = stack.pop().expect("stack discipline");
                let FrameLocals::Dynamic(locals) = &frame.locals else {
                    return Err(PyExc::not_prepared(sym.as_str()));
                };
                locals.borrow_mut().set_sym(sym, v);
            }
            Op::LoadCell(sym) => {
                let mut found = None;
                for scope in frame.captured.iter().rev() {
                    if let Some(v) = scope.borrow().get_sym(sym) {
                        found = Some(v);
                        break;
                    }
                }
                let v = match found {
                    Some(v) => v,
                    None => interp::read_global_sym(vm, frame, sym)?,
                };
                stack.push(v);
            }
            Op::LoadGlobal(sym) => stack.push(interp::read_global_sym(vm, frame, sym)?),
            Op::StoreGlobal(sym) => {
                let v = stack.pop().expect("stack discipline");
                frame.globals.borrow_mut().set_sym(sym, v);
            }
            Op::StoreSym(sym) => {
                let v = stack.pop().expect("stack discipline");
                interp::write_sym(frame, sym, v);
            }
            Op::LoadAttr(sym) => {
                let obj = stack.pop().expect("stack discipline");
                // An instance's own attribute is `get_attr_sym`'s answer.
                let own = match obj {
                    Value::Instance(i) => vm.heap.instance(i).get_attr_sym(sym),
                    _ => None,
                };
                stack.push(match own {
                    Some(v) => v,
                    None => interp::get_attr_sym(vm, obj, sym)?,
                });
            }
            Op::StoreAttr(sym) => {
                let obj = stack.pop().expect("stack discipline");
                let value = stack.pop().expect("stack discipline");
                interp::set_attr_sym(&vm.heap, obj, sym, value)?;
            }
            Op::LoadItem => {
                let idx = stack.pop().expect("stack discipline");
                let obj = stack.pop().expect("stack discipline");
                stack.push(interp::get_item(&vm.heap, obj, idx)?);
            }
            Op::StoreItem => {
                let idx = stack.pop().expect("stack discipline");
                let obj = stack.pop().expect("stack discipline");
                let value = stack.pop().expect("stack discipline");
                interp::set_item(&vm.heap, obj, idx, value)?;
            }
            Op::BuildTuple(n) => {
                let items = stack.split_off(stack.len() - n as usize);
                stack.push(vm.heap.new_tuple(items));
            }
            Op::BuildList(n) => {
                let items = stack.split_off(stack.len() - n as usize);
                stack.push(vm.heap.new_list(items));
            }
            Op::BuildSet(n) => {
                let items = stack.split_off(stack.len() - n as usize);
                let mut out: Vec<Value> = Vec::new();
                for v in items {
                    if !out.iter().any(|&x| values_eq(&vm.heap, x, v)) {
                        out.push(v);
                    }
                }
                stack.push(vm.heap.new_set(out));
            }
            Op::BuildDict(n) => {
                let items = stack.split_off(stack.len() - 2 * n as usize);
                let mut d = DictObj::new();
                let mut it = items.into_iter();
                while let (Some(k), Some(v)) = (it.next(), it.next()) {
                    d.set(&vm.heap, k, v);
                }
                stack.push(vm.heap.new_dict(d));
            }
            Op::BuildSlice => {
                let step = stack.pop().expect("stack discipline");
                let upper = stack.pop().expect("stack discipline");
                let lower = stack.pop().expect("stack discipline");
                let tag = vm.heap.new_str("__slice__");
                stack.push(vm.heap.new_tuple(vec![tag, lower, upper, step]));
            }
            Op::UnpackSeq(n) => {
                let v = stack.pop().expect("stack discipline");
                let values = interp::iter_values(&vm.heap, v)?;
                if values.len() != n as usize {
                    return Err(PyExc::value_error(format!(
                        "cannot unpack {} values into {} targets",
                        values.len(),
                        n
                    )));
                }
                stack.extend(values.into_iter().rev());
            }
            Op::Unary(op) => {
                let v = stack.pop().expect("stack discipline");
                stack.push(interp::unary_op(&vm.heap, op, v)?);
            }
            Op::Binary(op) => {
                let r = stack.pop().expect("stack discipline");
                let l = stack.pop().expect("stack discipline");
                stack.push(binary(vm, op, l, r)?);
            }
            Op::Cmp(op) => {
                let r = stack.pop().expect("stack discipline");
                let l = stack.pop().expect("stack discipline");
                stack.push(Value::Bool(compare(vm, op, l, r)?));
            }
            Op::CmpJump { op, target } => {
                let r = stack.pop().expect("stack discipline");
                let l = stack.pop().expect("stack discipline");
                if compare(vm, op, l, r)? {
                    stack.push(r);
                } else {
                    stack.push(Value::Bool(false));
                    pc = target as usize;
                }
            }
            Op::Jump(t) => pc = t as usize,
            Op::JumpIfFalse(t) => {
                if !truthy(vm, stack.pop().expect("stack discipline")) {
                    pc = t as usize;
                }
            }
            Op::JumpIfTrue(t) => {
                if truthy(vm, stack.pop().expect("stack discipline")) {
                    pc = t as usize;
                }
            }
            Op::JumpIfFalseOrPop(t) => {
                if stack.last().expect("stack discipline").truthy(&vm.heap) {
                    stack.pop();
                } else {
                    pc = t as usize;
                }
            }
            Op::JumpIfTrueOrPop(t) => {
                if stack.last().expect("stack discipline").truthy(&vm.heap) {
                    pc = t as usize;
                } else {
                    stack.pop();
                }
            }
            Op::GetIter => {
                let v = stack.pop().expect("stack discipline");
                iters.push((interp::iter_values(&vm.heap, v)?, 0));
            }
            Op::ForNext(t) => {
                let (items, idx) = iters.last_mut().expect("iter discipline");
                if *idx < items.len() {
                    let v = items[*idx];
                    *idx += 1;
                    stack.push(v);
                } else {
                    iters.pop();
                    pc = t as usize;
                }
            }
            Op::PopIter => {
                iters.pop();
            }
            Op::LoadMethod(sym) => {
                let obj = stack.pop().expect("stack discipline");
                let (callee, recv) = match class_method(vm, obj, sym) {
                    Some((callee, i)) => (callee, Some(i)),
                    None => interp::load_method(vm, obj, sym)?,
                };
                stack.push(callee);
                // A receiver is an instance by `load_method`'s type, so
                // `None` marks "call the value as it is".
                stack.push(recv.map_or(Value::None, Value::Instance));
            }
            Op::CallMethod(argc) => {
                // The receiver slot sits directly under the arguments:
                // a method call passes it with them, in call order.
                let slot = stack.len() - argc as usize - 1;
                let bound = matches!(stack[slot], Value::Instance(_));
                let r = call_from_stack(vm, stack, slot - 1, slot + usize::from(!bound))?;
                stack.push(r);
            }
            Op::CallBegin => {
                let callee = stack.pop().expect("stack discipline");
                let (pos, kw) = (vm.take_args(), vm.take_kwargs());
                vm.calls.push(CallBuilder { callee, pos, kw });
            }
            Op::ArgPos => {
                let v = stack.pop().expect("stack discipline");
                vm.calls.last_mut().expect("call discipline").pos.push(v);
            }
            Op::ArgKw(sym) => {
                let v = stack.pop().expect("stack discipline");
                vm.calls
                    .last_mut()
                    .expect("call discipline")
                    .kw
                    .push((Cow::Borrowed(sym.as_str()), v));
            }
            Op::ArgStar => {
                let v = stack.pop().expect("stack discipline");
                let splat = interp::iter_values(&vm.heap, v)?;
                vm.calls
                    .last_mut()
                    .expect("call discipline")
                    .pos
                    .extend(splat);
            }
            Op::ArgDoubleStar => {
                let v = stack.pop().expect("stack discipline");
                let builder = vm.calls.last_mut().expect("call discipline");
                interp::splat_mapping(&vm.heap, v, &mut builder.kw)?;
            }
            Op::CallEnd => {
                let b = vm.calls.pop().expect("call discipline");
                stack.push(interp::call_value(vm, b.callee, b.pos, b.kw)?);
            }
            Op::Call(argc) => {
                let first = stack.len() - argc as usize;
                let r = call_from_stack(vm, stack, first - 1, first)?;
                stack.push(r);
            }
            Op::MakeFunction(i) => {
                let decl = &code.fn_decls[i as usize];
                let n = decl.has_default.iter().filter(|h| **h).count();
                let values = stack.split_off(stack.len() - n);
                let mut it = values.into_iter();
                let defaults = decl
                    .has_default
                    .iter()
                    .map(|has| if *has { it.next() } else { None })
                    .collect();
                // The registry, as `interp::make_function` asks it: this
                // code may be shared with a module that overrides the
                // `def`.
                let proto = vm.proto(decl.def_id)?;
                stack.push(vm.heap.new_func(FuncObj {
                    proto,
                    defaults,
                    globals: frame.globals.clone(),
                    captured: frame.closure_scopes(),
                }));
            }
            Op::Raise { has_exc } => {
                let e = if has_exc {
                    let v = stack.pop().expect("stack discipline");
                    interp::exception_from_value(vm, frame, v)?
                } else {
                    let handling = vm.handling.borrow();
                    match handling.last() {
                        Some(e) => e.clone(),
                        None => PyExc::new("RuntimeError", "No active exception to re-raise"),
                    }
                };
                return Err(e.with_frame(&frame.proto.name));
            }
            Op::AssertFail { has_msg } => {
                let message = if has_msg {
                    stack.pop().expect("stack discipline").to_display(&vm.heap)
                } else {
                    String::new()
                };
                return Err(PyExc::new("AssertionError", message));
            }
            Op::Return => return Ok(stack.pop().expect("stack discipline")),
            Op::ReturnNone => return Ok(Value::None),
            Op::ExecStmt { stmt, brk, cont } => {
                // `TRAMPOLINE_KINDS` order: `stmt`, then `expr`.
                vm.trampolines[0].set(vm.trampolines[0].get() + 1);
                match interp::exec_stmt(vm, frame, &code.stmts[stmt as usize])? {
                    Flow::Normal => {}
                    Flow::Return(v) => return Ok(v),
                    Flow::Break => {
                        if brk == NO_LOOP {
                            return Ok(Value::None);
                        }
                        pc = brk as usize;
                    }
                    Flow::Continue => {
                        if cont == NO_LOOP {
                            return Ok(Value::None);
                        }
                        pc = cont as usize;
                    }
                }
            }
            Op::EvalExpr(i) => {
                vm.trampolines[1].set(vm.trampolines[1].get() + 1);
                stack.push(interp::eval(vm, frame, &code.exprs[i as usize])?)
            }
        }
    }
    Ok(Value::None)
}

/// Reads a slot-allocated local.
///
/// # Errors
///
/// `UnboundLocalError` when the slot is empty; the internal error when
/// the frame has no slots (code run against a prototype it was not
/// compiled for).
#[inline]
fn load_slot(frame: &Frame, slot: u32, sym: Symbol) -> Result<Value, PyExc> {
    let FrameLocals::Slots(slots) = &frame.locals else {
        return Err(PyExc::not_prepared(sym.as_str()));
    };
    slots[slot as usize].ok_or_else(|| PyExc::unbound_local(sym.as_str()))
}

/// Writes a slot-allocated local (errors as [`load_slot`]).
#[inline]
fn store_slot(frame: &mut Frame, slot: u32, sym: Symbol, v: Value) -> Result<(), PyExc> {
    let FrameLocals::Slots(slots) = &mut frame.locals else {
        return Err(PyExc::not_prepared(sym.as_str()));
    };
    slots[slot as usize] = Some(v);
    Ok(())
}

/// Calls `stack[callee]` with `stack[first..]` as its positional
/// arguments and pops both, along with an empty receiver slot between
/// them. A user-defined function whose parameters take the arguments
/// one to one binds them straight from the stack, and a native reads
/// them as a slice of it; every other callee and shape drains them into
/// a pooled vector for [`interp::call_function`] /
/// [`interp::call_value`].
///
/// # Errors
///
/// Whatever the callee raises, or the call's own `TypeError` /
/// `RuntimeError`, exactly as the general path.
#[inline]
fn call_from_stack(
    vm: &mut Vm,
    stack: &mut Vec<Value>,
    callee: usize,
    first: usize,
) -> Result<Value, PyExc> {
    let callee_value = stack[callee];
    match callee_value {
        Value::Func(f) => {
            // The general path's first check too, whatever the shape.
            interp::check_depth(vm)?;
            if let Some(frame) = interp::positional_frame(vm, f, &stack[first..]) {
                stack.truncate(callee);
                return interp::run_frame(vm, frame);
            }
        }
        Value::Native(n) => {
            let r = interp::call_native(vm, n, &stack[first..], &[]);
            stack.truncate(callee);
            return r;
        }
        _ => {}
    }
    // Recycled argument vector: drained into the callee's frame and
    // returned to the pool by the callee's path.
    let mut pos = vm.take_args();
    pos.extend(stack.drain(first..));
    stack.truncate(callee);
    // Plain functions bypass the `call_value` dispatch layer.
    match callee_value {
        Value::Func(f) => interp::call_function(vm, f, pos, Vec::new()),
        other => interp::call_value(vm, other, pos, Vec::new()),
    }
}

/// [`interp::load_method`]'s answer for an instance that does not hold
/// `sym` itself and whose class chain yields a function or native: the
/// callee and the receiving instance. `None` for everything else.
#[inline]
fn class_method(vm: &Vm, obj: Value, sym: Symbol) -> Option<(Value, u32)> {
    let Value::Instance(i) = obj else {
        return None;
    };
    let inst = vm.heap.instance(i);
    if inst.get_attr_sym(sym).is_some() {
        return None;
    }
    match vm.heap.class_lookup_sym(inst.class, sym)? {
        f @ (Value::Func(_) | Value::Native(_)) => Some((f, i)),
        _ => None,
    }
}

/// [`interp::binary_op`], with `int` `+` and `-` answered inline.
#[inline]
fn binary(vm: &Vm, op: BinOp, l: Value, r: Value) -> Result<Value, PyExc> {
    match (op, l, r) {
        (BinOp::Add, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(b))),
        (BinOp::Sub, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(b))),
        _ => interp::binary_op(&vm.heap, op, l, r),
    }
}

/// [`interp::compare`], with `int` orderings and equalities answered
/// inline.
#[inline]
fn compare(vm: &Vm, op: CmpOp, l: Value, r: Value) -> Result<bool, PyExc> {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        match op {
            CmpOp::Eq => return Ok(a == b),
            CmpOp::Ne => return Ok(a != b),
            CmpOp::Lt => return Ok(a < b),
            CmpOp::Le => return Ok(a <= b),
            CmpOp::Gt => return Ok(a > b),
            CmpOp::Ge => return Ok(a >= b),
            _ => {}
        }
    }
    interp::compare(&vm.heap, op, l, r)
}

/// [`Value::truthy`], with `bool` answered inline.
#[inline]
fn truthy(vm: &Vm, v: Value) -> bool {
    match v {
        Value::Bool(b) => b,
        other => other.truthy(&vm.heap),
    }
}
