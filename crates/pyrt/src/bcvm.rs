//! The bytecode dispatch loop: a flat `pc`-driven interpreter over
//! [`CodeObject`]s, sharing the tree walk's values, frames, builtins,
//! name-resolution fallbacks, exception machinery, and host calls.
//!
//! The loop has no exception tables: `try`/`with` compile to
//! [`Insn::ExecStmt`] trampolines into the tree walk, so a raised
//! [`PyExc`] simply propagates out of `run` (adding the frame name is
//! the caller's job, exactly as with the tree walk). `break`/`continue`
//! escaping a trampolined statement re-enter the bytecode at the
//! enclosing loop's patched targets.

use crate::exc::{Flow, PyExc};
use crate::interp::{self, Frame, FrameLocals};
use crate::ir::{CodeObject, Insn, NO_LOOP};
use crate::value::{values_eq, DictObj, FuncObj, KwName, Value};
use crate::vm::Vm;
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
        let insn = insns[pc];
        pc += 1;
        match insn {
            Insn::Tick(n) => vm.tick_n(n)?,
            Insn::Const(i) => stack.push(code.consts[i as usize].value(&vm.heap)),
            Insn::Pop => {
                stack.pop();
            }
            Insn::Dup => {
                let v = *stack.last().expect("stack discipline");
                stack.push(v);
            }
            Insn::LoadSlot { slot, sym } => {
                let v = if let FrameLocals::Slots(slots) = &frame.locals {
                    match slots[slot as usize] {
                        Some(v) => v,
                        None => return Err(PyExc::unbound_local(sym.as_str())),
                    }
                } else {
                    interp::read_sym_fallback(vm, frame, sym)?
                };
                stack.push(v);
            }
            Insn::StoreSlot { slot, sym } => {
                let v = stack.pop().expect("stack discipline");
                if let FrameLocals::Slots(slots) = &mut frame.locals {
                    slots[slot as usize] = Some(v);
                } else {
                    interp::write_sym(frame, sym, v);
                }
            }
            Insn::LoadDyn(sym) => {
                let v = if let FrameLocals::Dynamic(locals) = &frame.locals {
                    match locals.borrow().get_sym(sym) {
                        Some(v) => v,
                        None => return Err(PyExc::unbound_local(sym.as_str())),
                    }
                } else {
                    interp::read_sym_fallback(vm, frame, sym)?
                };
                stack.push(v);
            }
            Insn::StoreDyn(sym) => {
                let v = stack.pop().expect("stack discipline");
                if let FrameLocals::Dynamic(locals) = &mut frame.locals {
                    locals.borrow_mut().set_sym(sym, v);
                } else {
                    interp::write_sym(frame, sym, v);
                }
            }
            Insn::LoadCell(sym) => {
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
            Insn::LoadGlobal(sym) => stack.push(interp::read_global_sym(vm, frame, sym)?),
            Insn::StoreGlobal(sym) => {
                let v = stack.pop().expect("stack discipline");
                frame.globals.borrow_mut().set_sym(sym, v);
            }
            Insn::LoadFallback(sym) => {
                stack.push(interp::read_sym_fallback(vm, frame, sym)?)
            }
            Insn::StoreSym(sym) => {
                let v = stack.pop().expect("stack discipline");
                interp::write_sym(frame, sym, v);
            }
            Insn::LoadAttr(sym) => {
                let obj = stack.pop().expect("stack discipline");
                stack.push(interp::get_attr_sym(vm, obj, sym)?);
            }
            Insn::StoreAttr(sym) => {
                let obj = stack.pop().expect("stack discipline");
                let value = stack.pop().expect("stack discipline");
                interp::set_attr_sym(&vm.heap, obj, sym, value)?;
            }
            Insn::LoadItem => {
                let idx = stack.pop().expect("stack discipline");
                let obj = stack.pop().expect("stack discipline");
                stack.push(interp::get_item(&vm.heap, obj, idx)?);
            }
            Insn::StoreItem => {
                let idx = stack.pop().expect("stack discipline");
                let obj = stack.pop().expect("stack discipline");
                let value = stack.pop().expect("stack discipline");
                interp::set_item(&vm.heap, obj, idx, value)?;
            }
            Insn::BuildTuple(n) => {
                let items = stack.split_off(stack.len() - n as usize);
                stack.push(vm.heap.new_tuple(items));
            }
            Insn::BuildList(n) => {
                let items = stack.split_off(stack.len() - n as usize);
                stack.push(vm.heap.new_list(items));
            }
            Insn::BuildSet(n) => {
                let items = stack.split_off(stack.len() - n as usize);
                let mut out: Vec<Value> = Vec::new();
                for v in items {
                    if !out.iter().any(|&x| values_eq(&vm.heap, x, v)) {
                        out.push(v);
                    }
                }
                stack.push(vm.heap.new_set(out));
            }
            Insn::BuildDict(n) => {
                let items = stack.split_off(stack.len() - 2 * n as usize);
                let mut d = DictObj::new();
                let mut it = items.into_iter();
                while let (Some(k), Some(v)) = (it.next(), it.next()) {
                    d.set(&vm.heap, k, v);
                }
                stack.push(vm.heap.new_dict(d));
            }
            Insn::BuildSlice => {
                let step = stack.pop().expect("stack discipline");
                let upper = stack.pop().expect("stack discipline");
                let lower = stack.pop().expect("stack discipline");
                let tag = vm.heap.new_str("__slice__");
                stack.push(vm.heap.new_tuple(vec![tag, lower, upper, step]));
            }
            Insn::UnpackSeq(n) => {
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
            Insn::Unary(op) => {
                let v = stack.pop().expect("stack discipline");
                stack.push(interp::unary_op(&vm.heap, op, v)?);
            }
            Insn::Binary(op) => {
                let r = stack.pop().expect("stack discipline");
                let l = stack.pop().expect("stack discipline");
                stack.push(interp::binary_op(&vm.heap, op, l, r)?);
            }
            Insn::Cmp(op) => {
                let r = stack.pop().expect("stack discipline");
                let l = stack.pop().expect("stack discipline");
                stack.push(Value::Bool(interp::compare(&vm.heap, op, l, r)?));
            }
            Insn::CmpJump { op, target } => {
                let r = stack.pop().expect("stack discipline");
                let l = stack.pop().expect("stack discipline");
                if interp::compare(&vm.heap, op, l, r)? {
                    stack.push(r);
                } else {
                    stack.push(Value::Bool(false));
                    pc = target as usize;
                }
            }
            // Fused superinstructions: settle the batched steps, then
            // run the plain op's body — one dispatch instead of two
            // (or three for the augmented-assignment forms).
            Insn::TickLoadSlot { n, slot, sym } => {
                vm.tick_n(n)?;
                let v = if let FrameLocals::Slots(slots) = &frame.locals {
                    match slots[slot as usize] {
                        Some(v) => v,
                        None => return Err(PyExc::unbound_local(sym.as_str())),
                    }
                } else {
                    interp::read_sym_fallback(vm, frame, sym)?
                };
                stack.push(v);
            }
            Insn::TickLoadGlobal { n, sym } => {
                vm.tick_n(n)?;
                stack.push(interp::read_global_sym(vm, frame, sym)?);
            }
            Insn::TickBinary { n, op } => {
                vm.tick_n(n)?;
                let r = stack.pop().expect("stack discipline");
                let l = stack.pop().expect("stack discipline");
                stack.push(interp::binary_op(&vm.heap, op, l, r)?);
            }
            Insn::TickCmp { n, op } => {
                vm.tick_n(n)?;
                let r = stack.pop().expect("stack discipline");
                let l = stack.pop().expect("stack discipline");
                stack.push(Value::Bool(interp::compare(&vm.heap, op, l, r)?));
            }
            Insn::TickBinaryStoreSlot { n, op, slot, sym } => {
                vm.tick_n(n)?;
                let r = stack.pop().expect("stack discipline");
                let l = stack.pop().expect("stack discipline");
                let v = interp::binary_op(&vm.heap, op, l, r)?;
                if let FrameLocals::Slots(slots) = &mut frame.locals {
                    slots[slot as usize] = Some(v);
                } else {
                    interp::write_sym(frame, sym, v);
                }
            }
            Insn::TickBinaryStoreGlobal { n, op, sym } => {
                vm.tick_n(n)?;
                let r = stack.pop().expect("stack discipline");
                let l = stack.pop().expect("stack discipline");
                let v = interp::binary_op(&vm.heap, op, l, r)?;
                frame.globals.borrow_mut().set_sym(sym, v);
            }
            Insn::Jump(t) => pc = t as usize,
            Insn::JumpIfFalse(t) => {
                if !stack.pop().expect("stack discipline").truthy(&vm.heap) {
                    pc = t as usize;
                }
            }
            Insn::JumpIfTrue(t) => {
                if stack.pop().expect("stack discipline").truthy(&vm.heap) {
                    pc = t as usize;
                }
            }
            Insn::JumpIfFalseOrPop(t) => {
                if stack.last().expect("stack discipline").truthy(&vm.heap) {
                    stack.pop();
                } else {
                    pc = t as usize;
                }
            }
            Insn::JumpIfTrueOrPop(t) => {
                if stack.last().expect("stack discipline").truthy(&vm.heap) {
                    pc = t as usize;
                } else {
                    stack.pop();
                }
            }
            Insn::GetIter => {
                let v = stack.pop().expect("stack discipline");
                iters.push((interp::iter_values(&vm.heap, v)?, 0));
            }
            Insn::ForNext(t) => {
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
            Insn::PopIter => {
                iters.pop();
            }
            Insn::LoadMethod(sym) => {
                let obj = stack.pop().expect("stack discipline");
                let (callee, recv) = interp::load_method(vm, obj, sym)?;
                stack.push(callee);
                // A receiver is an instance by `load_method`'s type, so
                // `None` marks "call the value as it is".
                stack.push(recv.map_or(Value::None, Value::Instance));
            }
            Insn::CallMethod { n, argc } => {
                vm.tick_n(n)?;
                let mut pos = vm.take_args();
                // The receiver slot sits directly under the arguments:
                // a method call drains it with them, in call order.
                let first = stack.len() - argc as usize - 1;
                let bound = matches!(stack[first], Value::Instance(_));
                pos.extend(stack.drain(first + usize::from(!bound)..));
                if !bound {
                    stack.pop();
                }
                let callee = stack.pop().expect("stack discipline");
                let r = match callee {
                    Value::Func(f) => interp::call_function(vm, f, pos, Vec::new())?,
                    other => interp::call_value(vm, other, pos, Vec::new())?,
                };
                stack.push(r);
            }
            Insn::CallBegin => {
                let callee = stack.pop().expect("stack discipline");
                let (pos, kw) = (vm.take_args(), vm.take_kwargs());
                vm.calls.push(CallBuilder { callee, pos, kw });
            }
            Insn::ArgPos => {
                let v = stack.pop().expect("stack discipline");
                vm.calls.last_mut().expect("call discipline").pos.push(v);
            }
            Insn::ArgKw(sym) => {
                let v = stack.pop().expect("stack discipline");
                vm.calls
                    .last_mut()
                    .expect("call discipline")
                    .kw
                    .push((Cow::Borrowed(sym.as_str()), v));
            }
            Insn::ArgStar => {
                let v = stack.pop().expect("stack discipline");
                let splat = interp::iter_values(&vm.heap, v)?;
                vm.calls
                    .last_mut()
                    .expect("call discipline")
                    .pos
                    .extend(splat);
            }
            Insn::ArgDoubleStar => {
                let v = stack.pop().expect("stack discipline");
                let builder = vm.calls.last_mut().expect("call discipline");
                interp::splat_mapping(&vm.heap, v, &mut builder.kw)?;
            }
            Insn::CallEnd => {
                let b = vm.calls.pop().expect("call discipline");
                stack.push(interp::call_value(vm, b.callee, b.pos, b.kw)?);
            }
            Insn::Call(argc) => {
                // Recycled argument vector: drained into the callee's
                // frame and returned to the pool by the callee's path.
                let mut pos = vm.take_args();
                pos.extend(stack.drain(stack.len() - argc as usize..));
                let callee = stack.pop().expect("stack discipline");
                // Plain functions bypass the `call_value` dispatch layer
                // — by far the hottest callee kind in compiled code.
                let r = match callee {
                    Value::Func(f) => interp::call_function(vm, f, pos, Vec::new())?,
                    other => interp::call_value(vm, other, pos, Vec::new())?,
                };
                stack.push(r);
            }
            Insn::TickCall { n, argc } => {
                vm.tick_n(n)?;
                let mut pos = vm.take_args();
                pos.extend(stack.drain(stack.len() - argc as usize..));
                let callee = stack.pop().expect("stack discipline");
                let r = match callee {
                    Value::Func(f) => interp::call_function(vm, f, pos, Vec::new())?,
                    other => interp::call_value(vm, other, pos, Vec::new())?,
                };
                stack.push(r);
            }
            Insn::MakeFunction(i) => {
                let decl = &code.fn_decls[i as usize];
                let n = decl.has_default.iter().filter(|h| **h).count();
                let values = stack.split_off(stack.len() - n);
                let mut it = values.into_iter();
                let defaults = decl
                    .has_default
                    .iter()
                    .map(|has| if *has { it.next() } else { None })
                    .collect();
                // The registry first, as `interp::make_function` does:
                // this code may be shared with a module that overrides
                // the `def`.
                let proto = vm.proto(decl.def_id).unwrap_or_else(|| decl.proto.clone());
                stack.push(vm.heap.new_func(FuncObj {
                    proto,
                    defaults,
                    globals: frame.globals.clone(),
                    captured: frame.closure_scopes(),
                }));
            }
            Insn::Raise { has_exc } => {
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
            Insn::AssertFail { has_msg } => {
                let message = if has_msg {
                    stack.pop().expect("stack discipline").to_display(&vm.heap)
                } else {
                    String::new()
                };
                return Err(PyExc::new("AssertionError", message));
            }
            Insn::Return => return Ok(stack.pop().expect("stack discipline")),
            Insn::ReturnNone => return Ok(Value::None),
            Insn::ExecStmt { stmt, brk, cont } => {
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
            Insn::EvalExpr(i) => {
                stack.push(interp::eval(vm, frame, &code.exprs[i as usize])?)
            }
        }
    }
    Ok(Value::None)
}
