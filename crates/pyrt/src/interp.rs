//! The tree-walking evaluator, executing over prepare-time-resolved
//! names: locals are dense slot vectors, every other name is a symbol
//! compare, and nothing on the hot path allocates a `String`.

use crate::exc::{Flow, PyExc};
use crate::intern::{intern, well_known, Symbol};
use crate::methods::{self, MethodKind};
use crate::prepare::{self, FuncProto, NameRes};
use crate::value::*;
use crate::vm::Vm;
use pysrc::ast::*;
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Maximum Python call depth before `RuntimeError: maximum recursion
/// depth exceeded`. Slot-resolved frames shrank the per-Python-frame
/// footprint (no per-call `Vec<String>` clones, no scope allocation for
/// leaf functions), so the budget is double the original 32 while still
/// fitting a debug-build test thread's 2 MB stack; runaway mutants
/// still fail fast.
const MAX_DEPTH: u32 = 64;

/// Storage for a frame's local bindings.
pub enum FrameLocals {
    /// Module level: locals are the globals.
    Module,
    /// Dense slot storage (leaf functions; `None` = unbound).
    Slots(Vec<Option<Value>>),
    /// Dynamic symbol-keyed scope (capturing functions, class bodies).
    Dynamic(ScopeRef),
}

/// An activation record.
pub struct Frame {
    /// Module globals.
    pub globals: ScopeRef,
    /// Local bindings.
    pub locals: FrameLocals,
    /// The prepared prototype for this scope (resolution table, slot
    /// layout, `global` declarations, traceback name).
    pub proto: Arc<FuncProto>,
    /// Captured enclosing scopes, innermost last (shared with the
    /// function object the frame was built from).
    pub captured: Rc<[ScopeRef]>,
}

impl Frame {
    /// A module-level frame without a prepare pass (ad-hoc execution;
    /// every name resolves through the dynamic fallback).
    pub fn module(globals: ScopeRef) -> Frame {
        Frame::prepared_module(globals, FuncProto::empty_module())
    }

    /// A module-level frame backed by a prepared module prototype.
    pub fn prepared_module(globals: ScopeRef, proto: Arc<FuncProto>) -> Frame {
        Frame {
            globals,
            locals: FrameLocals::Module,
            proto,
            captured: Rc::new([]),
        }
    }

    /// The scopes a `def`/`lambda` evaluated in this frame closes over:
    /// the frame's own captures, plus its locals when they are a
    /// dynamic scope. A slot frame's closures share its capture list.
    pub(crate) fn closure_scopes(&self) -> Rc<[ScopeRef]> {
        match &self.locals {
            FrameLocals::Dynamic(locals) => self
                .captured
                .iter()
                .chain(std::iter::once(locals))
                .cloned()
                .collect(),
            _ => self.captured.clone(),
        }
    }
}

/// Collects the names a function body assigns (its locals), without
/// descending into nested `def`/`class` bodies. Dedup is a hash set
/// (the old per-insert linear `contains` made this quadratic on wide
/// function bodies).
pub fn collect_assigned_names(body: &[Stmt]) -> Vec<String> {
    struct Acc {
        names: Vec<String>,
        seen: std::collections::HashSet<String>,
    }
    impl Acc {
        fn add(&mut self, n: &str) {
            if self.seen.insert(n.to_string()) {
                self.names.push(n.to_string());
            }
        }
    }
    fn target_names(e: &Expr, acc: &mut Acc) {
        match &e.kind {
            ExprKind::Name(n) => acc.add(n),
            ExprKind::Tuple(items) | ExprKind::List(items) => {
                for i in items {
                    target_names(i, acc);
                }
            }
            ExprKind::Starred(inner) => target_names(inner, acc),
            // Attribute/subscript targets assign into objects, not names.
            _ => {}
        }
    }
    fn walk(body: &[Stmt], acc: &mut Acc) {
        for s in body {
            match &s.kind {
                StmtKind::Assign { targets, .. } => {
                    for t in targets {
                        target_names(t, acc);
                    }
                }
                StmtKind::AugAssign { target, .. } => target_names(target, acc),
                StmtKind::For {
                    target,
                    body,
                    orelse,
                    ..
                } => {
                    target_names(target, acc);
                    walk(body, acc);
                    walk(orelse, acc);
                }
                StmtKind::While { body, orelse, .. } => {
                    walk(body, acc);
                    walk(orelse, acc);
                }
                StmtKind::If { branches, orelse } => {
                    for (_, b) in branches {
                        walk(b, acc);
                    }
                    walk(orelse, acc);
                }
                StmtKind::Try {
                    body,
                    handlers,
                    orelse,
                    finalbody,
                } => {
                    walk(body, acc);
                    for h in handlers {
                        if let Some(n) = &h.name {
                            acc.add(n);
                        }
                        walk(&h.body, acc);
                    }
                    walk(orelse, acc);
                    walk(finalbody, acc);
                }
                StmtKind::With { items, body } => {
                    for (_, t) in items {
                        if let Some(t) = t {
                            target_names(t, acc);
                        }
                    }
                    walk(body, acc);
                }
                StmtKind::FuncDef { name, .. } | StmtKind::ClassDef { name, .. } => {
                    acc.add(name);
                }
                StmtKind::Import(aliases) => {
                    for a in aliases {
                        let bound = a
                            .alias
                            .clone()
                            .unwrap_or_else(|| a.name.split('.').next().unwrap_or("").to_string());
                        acc.add(&bound);
                    }
                }
                StmtKind::FromImport { names: ns, .. } => {
                    for a in ns {
                        acc.add(a.alias.as_deref().unwrap_or(&a.name));
                    }
                }
                _ => {}
            }
        }
    }
    let mut acc = Acc {
        names: Vec::new(),
        seen: std::collections::HashSet::new(),
    };
    walk(body, &mut acc);
    acc.names
}

/// Collects `global` declarations in a function body (not descending
/// into nested functions).
pub fn collect_global_decls(body: &[Stmt]) -> Vec<String> {
    struct Acc {
        names: Vec<String>,
        seen: std::collections::HashSet<String>,
    }
    fn walk(body: &[Stmt], acc: &mut Acc) {
        for s in body {
            match &s.kind {
                StmtKind::Global(names) => {
                    for n in names {
                        if acc.seen.insert(n.clone()) {
                            acc.names.push(n.clone());
                        }
                    }
                }
                StmtKind::If { branches, orelse } => {
                    for (_, b) in branches {
                        walk(b, acc);
                    }
                    walk(orelse, acc);
                }
                StmtKind::For { body, orelse, .. } | StmtKind::While { body, orelse, .. } => {
                    walk(body, acc);
                    walk(orelse, acc);
                }
                StmtKind::Try {
                    body,
                    handlers,
                    orelse,
                    finalbody,
                } => {
                    walk(body, acc);
                    for h in handlers {
                        walk(&h.body, acc);
                    }
                    walk(orelse, acc);
                    walk(finalbody, acc);
                }
                StmtKind::With { body, .. } => walk(body, acc),
                _ => {}
            }
        }
    }
    let mut acc = Acc {
        names: Vec::new(),
        seen: std::collections::HashSet::new(),
    };
    walk(body, &mut acc);
    acc.names
}

/// Executes a statement block.
///
/// # Errors
///
/// Propagates any raised [`PyExc`].
pub fn exec_block(vm: &mut Vm, frame: &mut Frame, stmts: &[Stmt]) -> Result<Flow, PyExc> {
    for stmt in stmts {
        match exec_stmt(vm, frame, stmt)? {
            Flow::Normal => {}
            other => return Ok(other),
        }
    }
    Ok(Flow::Normal)
}

pub(crate) fn exec_stmt(vm: &mut Vm, frame: &mut Frame, stmt: &Stmt) -> Result<Flow, PyExc> {
    vm.tick()?;
    match &stmt.kind {
        StmtKind::Expr(e) => {
            eval(vm, frame, e)?;
            Ok(Flow::Normal)
        }
        StmtKind::Assign { targets, value } => {
            let v = eval(vm, frame, value)?;
            for t in targets {
                assign_target(vm, frame, t, v)?;
            }
            Ok(Flow::Normal)
        }
        StmtKind::AugAssign { target, op, value } => {
            let old = eval(vm, frame, target)?;
            let rhs = eval(vm, frame, value)?;
            let new = binary_op(&vm.heap, *op, old, rhs)?;
            assign_target(vm, frame, target, new)?;
            Ok(Flow::Normal)
        }
        StmtKind::Return(v) => {
            let value = match v {
                Some(e) => eval(vm, frame, e)?,
                None => Value::None,
            };
            Ok(Flow::Return(value))
        }
        StmtKind::Pass => Ok(Flow::Normal),
        StmtKind::Break => Ok(Flow::Break),
        StmtKind::Continue => Ok(Flow::Continue),
        StmtKind::Del(targets) => {
            for t in targets {
                del_target(vm, frame, t)?;
            }
            Ok(Flow::Normal)
        }
        StmtKind::Assert { test, msg } => {
            let v = eval(vm, frame, test)?;
            if !v.truthy(&vm.heap) {
                let message = match msg {
                    Some(m) => eval(vm, frame, m)?.to_display(&vm.heap),
                    None => String::new(),
                };
                return Err(PyExc::new("AssertionError", message));
            }
            Ok(Flow::Normal)
        }
        StmtKind::Global(_) => Ok(Flow::Normal), // handled by analysis
        StmtKind::Import(aliases) => {
            for a in aliases {
                let module = vm.import_module(&a.name)?;
                let bound = a
                    .alias
                    .clone()
                    .unwrap_or_else(|| a.name.split('.').next().unwrap_or(&a.name).to_string());
                // For dotted imports without alias, Python binds the top
                // package; our flat registry binds the imported module
                // under the top segment.
                write_name_str(frame, &bound, Value::Module(module));
            }
            Ok(Flow::Normal)
        }
        StmtKind::FromImport { module, names } => {
            let ns = vm.import_module(module)?;
            for a in names {
                let v = vm.heap.module(ns).get(&a.name).ok_or_else(|| {
                    PyExc::new(
                        "ImportError",
                        format!("cannot import name '{}' from '{}'", a.name, module),
                    )
                })?;
                write_name_str(frame, a.alias.as_deref().unwrap_or(&a.name), v);
            }
            Ok(Flow::Normal)
        }
        StmtKind::If { branches, orelse } => {
            for (test, body) in branches {
                if eval(vm, frame, test)?.truthy(&vm.heap) {
                    return exec_block(vm, frame, body);
                }
            }
            exec_block(vm, frame, orelse)
        }
        StmtKind::While { test, body, orelse } => {
            let mut broke = false;
            while eval(vm, frame, test)?.truthy(&vm.heap) {
                match exec_block(vm, frame, body)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => {
                        broke = true;
                        break;
                    }
                    ret @ Flow::Return(_) => return Ok(ret),
                }
            }
            if !broke {
                if let Flow::Return(v) = exec_block(vm, frame, orelse)? {
                    return Ok(Flow::Return(v));
                }
            }
            Ok(Flow::Normal)
        }
        StmtKind::For {
            target,
            iter,
            body,
            orelse,
        } => {
            let iterable = eval(vm, frame, iter)?;
            let items = iter_values(&vm.heap, iterable)?;
            let mut broke = false;
            for item in items {
                assign_target(vm, frame, target, item)?;
                match exec_block(vm, frame, body)? {
                    Flow::Normal | Flow::Continue => {}
                    Flow::Break => {
                        broke = true;
                        break;
                    }
                    ret @ Flow::Return(_) => return Ok(ret),
                }
            }
            if !broke {
                if let Flow::Return(v) = exec_block(vm, frame, orelse)? {
                    return Ok(Flow::Return(v));
                }
            }
            Ok(Flow::Normal)
        }
        StmtKind::FuncDef { name, params, body } => {
            let func = make_function(vm, frame, stmt.id, name, params, body)?;
            write_name_str(frame, name, func);
            Ok(Flow::Normal)
        }
        StmtKind::ClassDef { name, bases, body } => {
            let base = match bases.first() {
                Some(b) => match eval(vm, frame, b)? {
                    Value::Class(c) => Some(c),
                    other => {
                        return Err(PyExc::type_error(format!(
                            "cannot inherit from {}",
                            other.type_name()
                        )))
                    }
                },
                None => None,
            };
            let class_proto = match vm.proto(stmt.id) {
                Some(p) => p,
                None => {
                    let (p, nested) = prepare::prepare_class(name, body);
                    vm.install_proto(stmt.id, p.clone(), nested);
                    p
                }
            };
            // Execute the class body in its own scope.
            let class_scope = Scope::new_ref();
            {
                let mut class_frame = Frame {
                    globals: frame.globals.clone(),
                    locals: FrameLocals::Dynamic(class_scope.clone()),
                    proto: class_proto,
                    captured: frame.captured.clone(),
                };
                exec_block(vm, &mut class_frame, body)?;
            }
            let is_exception = base.is_some_and(|b| vm.heap.class(b).is_exception);
            let class = vm.heap.new_class(ClassObj {
                name: name.clone(),
                base,
                attrs: RefCell::new(class_scope.borrow().bindings_syms()),
                is_exception,
            });
            if is_exception {
                vm.register_exception_class(class);
            }
            write_name_str(frame, name, Value::Class(class));
            Ok(Flow::Normal)
        }
        StmtKind::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => {
            let result = exec_block(vm, frame, body);
            let outcome = match result {
                Ok(flow) => {
                    // `else` runs only if no exception occurred.
                    match flow {
                        Flow::Normal => exec_block(vm, frame, orelse),
                        other => Ok(other),
                    }
                }
                Err(exc) => {
                    // Fuel exhaustion must not be caught by `except`.
                    if exc.class_name == "ProfipyFuelExhausted" {
                        Err(exc)
                    } else {
                        handle_exception(vm, frame, exc, handlers)
                    }
                }
            };
            // `finally` always runs; its exceptional/return flow wins.
            match exec_block(vm, frame, finalbody)? {
                Flow::Normal => outcome,
                other => Ok(other),
            }
        }
        StmtKind::Raise { exc, cause: _ } => {
            let e = match exc {
                Some(expr) => {
                    let v = eval(vm, frame, expr)?;
                    exception_from_value(vm, frame, v)?
                }
                None => match vm.handling.borrow().last() {
                    Some(e) => e.clone(),
                    None => PyExc::new("RuntimeError", "No active exception to re-raise"),
                },
            };
            Err(e.with_frame(&frame.proto.name))
        }
        StmtKind::With { items, body } => {
            let mut exits = Vec::new();
            for (ctx_expr, target) in items {
                let ctx = eval(vm, frame, ctx_expr)?;
                let entered = match get_attr_sym(vm, ctx, well_known::sym_enter()) {
                    Ok(enter) => call_value(vm, enter, Vec::new(), Vec::new())?,
                    Err(_) => ctx,
                };
                if let Ok(exit) = get_attr_sym(vm, ctx, well_known::sym_exit()) {
                    exits.push(exit);
                }
                if let Some(t) = target {
                    assign_target(vm, frame, t, entered)?;
                }
            }
            let result = exec_block(vm, frame, body);
            for exit in exits.into_iter().rev() {
                call_value(vm, exit, Vec::new(), Vec::new())?;
            }
            result
        }
    }
}

fn handle_exception(
    vm: &mut Vm,
    frame: &mut Frame,
    exc: PyExc,
    handlers: &[ExceptHandler],
) -> Result<Flow, PyExc> {
    for handler in handlers {
        let matches = match &handler.exc_type {
            None => true,
            Some(type_expr) => {
                let type_value = eval(vm, frame, type_expr)?;
                exception_matches(vm, &exc, type_value)?
            }
        };
        if matches {
            if let Some(name) = &handler.name {
                let obj = exception_object(vm, &exc);
                write_name_str(frame, name, obj);
            }
            vm.handling.borrow_mut().push(exc);
            let result = exec_block(vm, frame, &handler.body);
            vm.handling.borrow_mut().pop();
            return result;
        }
    }
    Err(exc)
}

/// Does `exc` match an `except <type_value>` clause?
fn exception_matches(vm: &Vm, exc: &PyExc, type_value: Value) -> Result<bool, PyExc> {
    match type_value {
        Value::Class(c) => {
            let exc_class = match exc.value {
                Some(Value::Instance(i)) => vm.heap.instance(i).class,
                _ => match vm.exception_class(&exc.class_name) {
                    Some(cls) => cls,
                    None => return Ok(exc.class_name == vm.heap.class(c).name),
                },
            };
            Ok(vm.heap.class_isa(exc_class, c))
        }
        Value::Tuple(types) => {
            let items = vm.heap.tuple(types).to_vec();
            for t in items {
                if exception_matches(vm, exc, t)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        other => Err(PyExc::type_error(format!(
            "catching classes that do not inherit from BaseException is not allowed (got {})",
            other.type_name()
        ))),
    }
}

/// The Python object bound by `except E as e`.
fn exception_object(vm: &Vm, exc: &PyExc) -> Value {
    if let Some(v) = exc.value {
        return v;
    }
    let class = vm
        .exception_class(&exc.class_name)
        .or_else(|| vm.exception_class("Exception"))
        .expect("Exception class always registered");
    let message = vm.heap.new_str(&exc.message);
    vm.heap.new_instance(InstanceObj {
        class,
        attrs: RefCell::new(vec![(well_known::sym_message(), message)]),
    })
}

/// Converts a raised value (`raise X`) into a [`PyExc`].
pub(crate) fn exception_from_value(
    vm: &mut Vm,
    _frame: &mut Frame,
    v: Value,
) -> Result<PyExc, PyExc> {
    match v {
        Value::Class(c) if vm.heap.class(c).is_exception => {
            // `raise E` instantiates with no arguments.
            let inst = instantiate_exception(vm, c, Vec::new())?;
            Ok(PyExc::with_value(
                vm.heap.class(c).name.clone(),
                String::new(),
                inst,
            ))
        }
        Value::Instance(i) if vm.heap.class(vm.heap.instance(i).class).is_exception => {
            let message = match vm.heap.instance(i).get_attr_sym(well_known::sym_message()) {
                Some(m) => m.to_display(&vm.heap),
                None => String::new(),
            };
            Ok(PyExc::with_value(
                vm.heap.class(vm.heap.instance(i).class).name.clone(),
                message,
                v,
            ))
        }
        other => Err(PyExc::type_error(format!(
            "exceptions must derive from BaseException (got {})",
            other.type_name()
        ))),
    }
}

/// Instantiates an exception class with positional args.
pub fn instantiate_exception(vm: &mut Vm, class: u32, args: Vec<Value>) -> Result<Value, PyExc> {
    let inst = vm.heap.new_instance(InstanceObj {
        class,
        attrs: RefCell::new(Vec::new()),
    });
    if let Some(Value::Func(init)) = vm.heap.class_lookup_sym(class, well_known::sym_init()) {
        let mut all = args;
        all.insert(0, inst);
        call_function(vm, init, all, Vec::new())?;
    } else {
        let message = match args.len() {
            0 => vm.heap.new_str(""),
            1 => args[0],
            _ => vm.heap.new_tuple(args.clone()),
        };
        let Value::Instance(id) = inst else {
            unreachable!("new_instance returns Value::Instance")
        };
        vm.heap
            .instance(id)
            .set_attr_sym(well_known::sym_message(), message);
        if let Some(&first) = args.first() {
            let args_tuple = vm.heap.new_tuple(vec![first]);
            vm.heap
                .instance(id)
                .set_attr_sym(well_known::sym_args(), args_tuple);
        }
    }
    Ok(inst)
}

fn make_function(
    vm: &mut Vm,
    frame: &mut Frame,
    def_id: NodeId,
    name: &str,
    params: &[Param],
    body: &[Stmt],
) -> Result<Value, PyExc> {
    let proto = match vm.proto(def_id) {
        Some(p) => p,
        None => {
            let (p, nested) = prepare::prepare_function(name, params, body);
            vm.install_proto(def_id, p.clone(), nested);
            p
        }
    };
    finish_function(vm, frame, proto, params)
}

fn finish_function(
    vm: &mut Vm,
    frame: &mut Frame,
    proto: Arc<FuncProto>,
    params: &[Param],
) -> Result<Value, PyExc> {
    let mut defaults = Vec::with_capacity(params.len());
    for p in params {
        defaults.push(match &p.default {
            Some(d) => Some(eval(vm, frame, d)?),
            None => None,
        });
    }
    Ok(vm.heap.new_func(FuncObj {
        proto,
        defaults,
        globals: frame.globals.clone(),
        captured: frame.closure_scopes(),
    }))
}

/// Binds `name` in the frame the way an assignment would (used for the
/// string-named binding forms: imports, `def`/`class` names, `except
/// .. as e`).
fn write_name_str(frame: &mut Frame, name: &str, value: Value) {
    write_sym(frame, intern(name), value);
}

pub(crate) fn write_sym(frame: &mut Frame, sym: Symbol, value: Value) {
    if frame.proto.global_decls.contains(&sym) {
        frame.globals.borrow_mut().set_sym(sym, value);
        return;
    }
    match &mut frame.locals {
        FrameLocals::Module => frame.globals.borrow_mut().set_sym(sym, value),
        FrameLocals::Slots(slots) => match frame.proto.slot_of(sym) {
            Some(i) => slots[i as usize] = Some(value),
            // Unreachable for prepared code (every binding form is in
            // the assignment analysis); fall back to globals.
            None => frame.globals.borrow_mut().set_sym(sym, value),
        },
        FrameLocals::Dynamic(locals) => locals.borrow_mut().set_sym(sym, value),
    }
}

fn read_name(vm: &Vm, frame: &Frame, id: NodeId, name: &str) -> Result<Value, PyExc> {
    match frame.proto.table.res(id) {
        NameRes::Local { slot, sym } => match &frame.locals {
            FrameLocals::Slots(slots) => match slots[slot as usize] {
                Some(v) => Ok(v),
                // Local by analysis but not yet bound: the paper's §V-C
                // UnboundLocalError.
                None => Err(PyExc::unbound_local(sym.as_str())),
            },
            _ => read_name_fallback(vm, frame, name),
        },
        NameRes::DynLocal(sym) => match &frame.locals {
            FrameLocals::Dynamic(locals) => match locals.borrow().get_sym(sym) {
                Some(v) => Ok(v),
                None => Err(PyExc::unbound_local(sym.as_str())),
            },
            _ => read_name_fallback(vm, frame, name),
        },
        NameRes::Cell(sym) => {
            for scope in frame.captured.iter().rev() {
                if let Some(v) = scope.borrow().get_sym(sym) {
                    return Ok(v);
                }
            }
            read_global_sym(vm, frame, sym)
        }
        NameRes::Global(sym) | NameRes::GlobalDecl(sym) => read_global_sym(vm, frame, sym),
        NameRes::Unprepared | NameRes::Attr(_) | NameRes::CallKw(_) => read_name_fallback(vm, frame, name),
    }
}

pub(crate) fn read_global_sym(vm: &Vm, frame: &Frame, sym: Symbol) -> Result<Value, PyExc> {
    if let Some(v) = frame.globals.borrow().get_sym(sym) {
        return Ok(v);
    }
    if let Some(v) = vm.builtins.borrow().get_sym(sym) {
        return Ok(v);
    }
    Err(PyExc::name_error(sym.as_str()))
}

/// Dynamic (string-driven) name resolution for nodes outside the
/// prepared table — semantically identical to the pre-slot interpreter.
fn read_name_fallback(vm: &Vm, frame: &Frame, name: &str) -> Result<Value, PyExc> {
    read_sym_fallback(vm, frame, intern(name))
}

/// Symbol-keyed form of [`read_name_fallback`], shared with the
/// bytecode VM (whose operands are already interned).
pub(crate) fn read_sym_fallback(vm: &Vm, frame: &Frame, sym: Symbol) -> Result<Value, PyExc> {
    if frame.proto.global_decls.contains(&sym) {
        return read_global_sym(vm, frame, sym);
    }
    match &frame.locals {
        FrameLocals::Module => {}
        FrameLocals::Slots(slots) => {
            if let Some(i) = frame.proto.slot_of(sym) {
                return match slots[i as usize] {
                    Some(v) => Ok(v),
                    None => Err(PyExc::unbound_local(sym.as_str())),
                };
            }
            for scope in frame.captured.iter().rev() {
                if let Some(v) = scope.borrow().get_sym(sym) {
                    return Ok(v);
                }
            }
        }
        FrameLocals::Dynamic(locals) => {
            if frame.proto.local_syms.contains(&sym) {
                return match locals.borrow().get_sym(sym) {
                    Some(v) => Ok(v),
                    None => Err(PyExc::unbound_local(sym.as_str())),
                };
            }
            for scope in frame.captured.iter().rev() {
                if let Some(v) = scope.borrow().get_sym(sym) {
                    return Ok(v);
                }
            }
        }
    }
    read_global_sym(vm, frame, sym)
}

fn assign_target(vm: &mut Vm, frame: &mut Frame, target: &Expr, value: Value) -> Result<(), PyExc> {
    match &target.kind {
        ExprKind::Name(n) => {
            match frame.proto.table.res(target.id) {
                NameRes::Local { slot, sym } => match &mut frame.locals {
                    FrameLocals::Slots(slots) => slots[slot as usize] = Some(value),
                    _ => write_sym(frame, sym, value),
                },
                NameRes::DynLocal(sym) => match &mut frame.locals {
                    FrameLocals::Dynamic(locals) => locals.borrow_mut().set_sym(sym, value),
                    _ => write_sym(frame, sym, value),
                },
                NameRes::Global(sym) | NameRes::GlobalDecl(sym) => {
                    frame.globals.borrow_mut().set_sym(sym, value)
                }
                // A write to a `Cell` name (comprehension targets) goes
                // into the dynamic scope, like the old interpreter's
                // unconditional locals write.
                NameRes::Cell(sym) => write_sym(frame, sym, value),
                NameRes::Unprepared | NameRes::Attr(_) | NameRes::CallKw(_) => write_name_str(frame, n, value),
            }
            Ok(())
        }
        ExprKind::Attribute { value: obj, attr } => {
            let o = eval(vm, frame, obj)?;
            let sym = match frame.proto.table.res(target.id) {
                NameRes::Attr(s) => s,
                _ => intern(attr),
            };
            set_attr_sym(&vm.heap, o, sym, value)
        }
        ExprKind::Subscript { value: obj, index } => {
            let o = eval(vm, frame, obj)?;
            let i = eval(vm, frame, index)?;
            set_item(&vm.heap, o, i, value)
        }
        ExprKind::Tuple(items) | ExprKind::List(items) => {
            let values = iter_values(&vm.heap, value)?;
            if values.len() != items.len() {
                return Err(PyExc::value_error(format!(
                    "cannot unpack {} values into {} targets",
                    values.len(),
                    items.len()
                )));
            }
            for (t, v) in items.iter().zip(values) {
                assign_target(vm, frame, t, v)?;
            }
            Ok(())
        }
        _ => Err(PyExc::new("SyntaxError", "cannot assign to expression")),
    }
}

fn del_target(vm: &mut Vm, frame: &mut Frame, target: &Expr) -> Result<(), PyExc> {
    match &target.kind {
        ExprKind::Name(n) => {
            // Pre-refactor semantics: `del` always operates on the
            // innermost storage (locals in a function, globals at
            // module level), regardless of `global` declarations.
            let removed = match &mut frame.locals {
                FrameLocals::Module => frame.globals.borrow_mut().unset(n),
                FrameLocals::Slots(slots) => match frame.proto.slot_of(intern(n)) {
                    Some(i) => slots[i as usize].take().is_some(),
                    None => false,
                },
                FrameLocals::Dynamic(locals) => locals.borrow_mut().unset(n),
            };
            if removed {
                Ok(())
            } else {
                Err(PyExc::name_error(n))
            }
        }
        ExprKind::Subscript { value: obj, index } => {
            let o = eval(vm, frame, obj)?;
            let i = eval(vm, frame, index)?;
            match o {
                Value::Dict(d) => {
                    vm.heap
                        .dict(d)
                        .borrow_mut()
                        .remove(&vm.heap, i)
                        .ok_or_else(|| PyExc::key_error(&vm.heap, i))?;
                    Ok(())
                }
                Value::List(l) => {
                    let idx = as_index(i, vm.heap.list(l).borrow().len())?;
                    vm.heap.list(l).borrow_mut().remove(idx);
                    Ok(())
                }
                other => Err(PyExc::type_error(format!(
                    "'{}' object does not support item deletion",
                    other.type_name()
                ))),
            }
        }
        _ => Err(PyExc::new("SyntaxError", "cannot delete expression")),
    }
}

/// Evaluates an expression.
///
/// # Errors
///
/// Propagates any raised [`PyExc`].
pub fn eval(vm: &mut Vm, frame: &mut Frame, expr: &Expr) -> Result<Value, PyExc> {
    vm.tick()?;
    match &expr.kind {
        ExprKind::Num(Number::Int(v)) => Ok(Value::Int(*v)),
        ExprKind::Num(Number::Float(v)) => Ok(Value::Float(*v)),
        ExprKind::Str(s) => Ok(vm.heap.new_str(s)),
        ExprKind::Bool(b) => Ok(Value::Bool(*b)),
        ExprKind::NoneLit => Ok(Value::None),
        ExprKind::Name(n) => read_name(vm, frame, expr.id, n),
        ExprKind::Attribute { value, attr } => {
            let obj = eval(vm, frame, value)?;
            match frame.proto.table.res(expr.id) {
                NameRes::Attr(sym) => get_attr_sym(vm, obj, sym),
                _ => get_attr(vm, obj, attr),
            }
        }
        ExprKind::Subscript { value, index } => {
            let obj = eval(vm, frame, value)?;
            let idx = eval(vm, frame, index)?;
            get_item(&vm.heap, obj, idx)
        }
        ExprKind::Slice { lower, upper, step } => {
            // Bare slice object (only meaningful inside subscripts; we
            // represent it as a tuple marker).
            let l = opt_eval(vm, frame, lower)?;
            let u = opt_eval(vm, frame, upper)?;
            let s = opt_eval(vm, frame, step)?;
            let tag = vm.heap.new_str("__slice__");
            Ok(vm.heap.new_tuple(vec![tag, l, u, s]))
        }
        ExprKind::Call { func, args } => {
            let callee = eval(vm, frame, func)?;
            let mut pos = vm.take_args();
            let mut kw = vm.take_kwargs();
            let mut nth_kw = 0;
            for a in args {
                match a {
                    Arg::Pos(e) => pos.push(eval(vm, frame, e)?),
                    Arg::Kw(n, e) => {
                        let v = eval(vm, frame, e)?;
                        // The name was interned when the module was
                        // prepared; only an uncovered (synthesized)
                        // call pays the interner's lock here.
                        let sym = match frame.proto.table.kw_name(expr.id, nth_kw) {
                            Some(sym) => sym,
                            None => intern(n),
                        };
                        debug_assert_eq!(sym.as_str(), n);
                        nth_kw += 1;
                        kw.push((Cow::Borrowed(sym.as_str()), v));
                    }
                    Arg::Star(e) => {
                        let v = eval(vm, frame, e)?;
                        pos.extend(iter_values(&vm.heap, v)?);
                    }
                    Arg::DoubleStar(e) => {
                        let v = eval(vm, frame, e)?;
                        splat_mapping(&vm.heap, v, &mut kw)?;
                    }
                }
            }
            call_value(vm, callee, pos, kw)
        }
        ExprKind::Unary { op, operand } => {
            let v = eval(vm, frame, operand)?;
            unary_op(&vm.heap, *op, v)
        }
        ExprKind::Binary { left, op, right } => {
            let l = eval(vm, frame, left)?;
            let r = eval(vm, frame, right)?;
            binary_op(&vm.heap, *op, l, r)
        }
        ExprKind::BoolOp { op, values } => {
            let mut last = Value::None;
            for (i, v) in values.iter().enumerate() {
                last = eval(vm, frame, v)?;
                let t = last.truthy(&vm.heap);
                let short_circuit = match op {
                    BoolOpKind::And => !t,
                    BoolOpKind::Or => t,
                };
                if short_circuit && i < values.len() - 1 {
                    return Ok(last);
                }
                if short_circuit {
                    return Ok(last);
                }
            }
            Ok(last)
        }
        ExprKind::Compare {
            left,
            ops,
            comparators,
        } => {
            let mut lhs = eval(vm, frame, left)?;
            for (op, comp) in ops.iter().zip(comparators) {
                let rhs = eval(vm, frame, comp)?;
                if !compare(&vm.heap, *op, lhs, rhs)? {
                    return Ok(Value::Bool(false));
                }
                lhs = rhs;
            }
            Ok(Value::Bool(true))
        }
        ExprKind::Lambda { params, body } => {
            let proto = match vm.proto(expr.id) {
                Some(p) => p,
                None => {
                    let (p, nested) = prepare::prepare_lambda(params, body);
                    vm.install_proto(expr.id, p.clone(), nested);
                    p
                }
            };
            finish_function(vm, frame, proto, params)
        }
        ExprKind::IfExp { test, body, orelse } => {
            if eval(vm, frame, test)?.truthy(&vm.heap) {
                eval(vm, frame, body)
            } else {
                eval(vm, frame, orelse)
            }
        }
        ExprKind::Tuple(items) => {
            let mut out = Vec::with_capacity(items.len());
            for i in items {
                out.push(eval(vm, frame, i)?);
            }
            Ok(vm.heap.new_tuple(out))
        }
        ExprKind::List(items) => {
            let mut out = Vec::with_capacity(items.len());
            for i in items {
                out.push(eval(vm, frame, i)?);
            }
            Ok(vm.heap.new_list(out))
        }
        ExprKind::Dict(pairs) => {
            let mut d = DictObj::new();
            for (k, v) in pairs {
                let key = eval(vm, frame, k)?;
                let value = eval(vm, frame, v)?;
                d.set(&vm.heap, key, value);
            }
            Ok(vm.heap.new_dict(d))
        }
        ExprKind::Set(items) => {
            let mut out: Vec<Value> = Vec::new();
            for i in items {
                let v = eval(vm, frame, i)?;
                if !out.iter().any(|&x| values_eq(&vm.heap, x, v)) {
                    out.push(v);
                }
            }
            Ok(vm.heap.new_set(out))
        }
        ExprKind::ListComp {
            elt,
            target,
            iter,
            ifs,
        } => {
            let iterable = eval(vm, frame, iter)?;
            // Under the `Scoped` spec version the comprehension target
            // does not leak: snapshot its prior binding and restore it
            // afterwards. `Legacy` (the default) keeps the historical
            // leaking behavior so existing campaign reports are stable.
            let snapshot = if vm.spec_version() == crate::vm::SpecVersion::Scoped {
                comp_target_snapshot(frame, target)
            } else {
                None
            };
            let result = (|vm: &mut Vm, frame: &mut Frame| -> Result<Value, PyExc> {
                let mut out = Vec::new();
                'outer: for item in iter_values(&vm.heap, iterable)? {
                    assign_target(vm, frame, target, item)?;
                    for cond in ifs {
                        if !eval(vm, frame, cond)?.truthy(&vm.heap) {
                            continue 'outer;
                        }
                    }
                    out.push(eval(vm, frame, elt)?);
                }
                Ok(vm.heap.new_list(out))
            })(vm, frame);
            if let Some((sym, prev)) = snapshot {
                comp_target_restore(frame, sym, prev);
            }
            result
        }
        ExprKind::Starred(_) => Err(PyExc::new(
            "SyntaxError",
            "starred expression outside call/assignment",
        )),
    }
}

/// Applies a unary operator (shared by the tree walk and the bytecode
/// VM).
///
/// # Errors
///
/// `TypeError` when the operand does not support the operator.
pub(crate) fn unary_op(heap: &Heap, op: UnaryOp, v: Value) -> Result<Value, PyExc> {
    match op {
        UnaryOp::Not => Ok(Value::Bool(!v.truthy(heap))),
        UnaryOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Bool(b) => Ok(Value::Int(-(b as i64))),
            other => Err(PyExc::type_error(format!(
                "bad operand type for unary -: '{}'",
                other.type_name()
            ))),
        },
        UnaryOp::Pos => match v {
            Value::Int(_) | Value::Float(_) | Value::Bool(_) => Ok(v),
            other => Err(PyExc::type_error(format!(
                "bad operand type for unary +: '{}'",
                other.type_name()
            ))),
        },
        UnaryOp::Invert => match v {
            Value::Int(i) => Ok(Value::Int(!i)),
            Value::Bool(b) => Ok(Value::Int(!(b as i64))),
            other => Err(PyExc::type_error(format!(
                "bad operand type for unary ~: '{}'",
                other.type_name()
            ))),
        },
    }
}

fn opt_eval(vm: &mut Vm, frame: &mut Frame, e: &Option<Box<Expr>>) -> Result<Value, PyExc> {
    match e {
        Some(e) => eval(vm, frame, e),
        None => Ok(Value::None),
    }
}

/// Appends the entries of a `**mapping` argument to `kw` (shared by
/// both engines). Keys stay owned: they are run-time strings and must
/// not enter the process-wide interner.
///
/// # Errors
///
/// `TypeError` when the value is not a dict or a key is not a string.
pub(crate) fn splat_mapping(
    heap: &Heap,
    mapping: Value,
    kw: &mut Vec<(KwName, Value)>,
) -> Result<(), PyExc> {
    let Value::Dict(d) = mapping else {
        return Err(PyExc::type_error(format!(
            "argument after ** must be a mapping, not {}",
            mapping.type_name()
        )));
    };
    for &(k, v) in heap.dict(d).borrow().iter() {
        match k {
            Value::Str(s) => kw.push((Cow::Owned(heap.str(s).to_string()), v)),
            _ => return Err(PyExc::type_error("keywords must be strings")),
        }
    }
    Ok(())
}

/// Calls any callable value. The argument vectors are consumed: the
/// paths that return normally hand them back to the VM's pools once the
/// callee has its arguments (an error path, or an exception class
/// being instantiated, just drops them — a pool miss later, nothing
/// else).
///
/// # Errors
///
/// `TypeError` for non-callables; propagates exceptions from the callee.
pub fn call_value(
    vm: &mut Vm,
    callee: Value,
    mut args: Vec<Value>,
    kwargs: Vec<(KwName, Value)>,
) -> Result<Value, PyExc> {
    match callee {
        Value::Native(n) => {
            // Copy the dispatch data out of the slab before handing the
            // whole `Vm` (mutably) to the implementation.
            enum NativeCall {
                Fn(Rc<NativeImpl>),
                Method(MethodKind, Value),
            }
            let call = match vm.heap.native(n) {
                NativeObj::Fn { imp, .. } => NativeCall::Fn(imp.clone()),
                NativeObj::Method { kind, recv } => NativeCall::Method(*kind, *recv),
            };
            let result = match call {
                NativeCall::Fn(imp) => imp(vm, &args, &kwargs),
                NativeCall::Method(kind, recv) => {
                    methods::call_method(vm, kind, recv, &args, &kwargs)
                }
            };
            vm.recycle_args(args);
            vm.recycle_kwargs(kwargs);
            result
        }
        Value::Func(f) => call_function(vm, f, args, kwargs),
        Value::BoundMethod(b) => {
            let BoundObj { func, recv } = *vm.heap.bound(b);
            args.insert(0, recv);
            call_value(vm, func, args, kwargs)
        }
        Value::Class(c) => {
            if vm.heap.class(c).is_exception {
                return instantiate_exception(vm, c, args);
            }
            let inst = vm.heap.new_instance(InstanceObj {
                class: c,
                attrs: RefCell::new(Vec::new()),
            });
            match vm.heap.class_lookup_sym(c, well_known::sym_init()) {
                Some(init @ (Value::Func(_) | Value::Native(_))) => {
                    args.insert(0, inst);
                    call_value(vm, init, args, kwargs)?;
                }
                _ => {
                    if !args.is_empty() || !kwargs.is_empty() {
                        return Err(PyExc::type_error(format!(
                            "{}() takes no arguments",
                            vm.heap.class(c).name
                        )));
                    }
                    vm.recycle_args(args);
                    vm.recycle_kwargs(kwargs);
                }
            }
            Ok(inst)
        }
        other => Err(PyExc::type_error(format!(
            "'{}' object is not callable",
            other.type_name()
        ))),
    }
}

/// Calls a user-defined function (a `Value::Func` handle) with bound
/// arguments.
pub fn call_function(
    vm: &mut Vm,
    func: u32,
    mut args: Vec<Value>,
    mut kwargs: Vec<(KwName, Value)>,
) -> Result<Value, PyExc> {
    if vm.depth.get() >= MAX_DEPTH {
        return Err(PyExc::new(
            "RuntimeError",
            "maximum recursion depth exceeded",
        ));
    }
    // Phase A: build the frame under shared heap borrows (slab refs are
    // address-stable, and `bind_params` only allocates, never runs user
    // code). Slot vectors are recycled through the VM so small calls
    // don't allocate.
    let mut frame = {
        let f = vm.heap.func(func);
        let locals = if f.proto.dynamic {
            FrameLocals::Dynamic(Scope::new_ref())
        } else {
            let mut slots = vm.slot_pool.borrow_mut().pop().unwrap_or_default();
            slots.resize(f.proto.slots.len(), None);
            FrameLocals::Slots(slots)
        };
        let mut frame = Frame {
            globals: f.globals.clone(),
            locals,
            proto: f.proto.clone(),
            captured: f.captured.clone(),
        };
        bind_params(&vm.heap, f, &mut args, &mut kwargs, &mut frame.locals)?;
        frame
    };
    vm.recycle_args(args);
    vm.recycle_kwargs(kwargs);
    // Phase B: all heap borrows dropped; run the body with `&mut Vm`.
    vm.depth.set(vm.depth.get() + 1);
    let result = if vm.engine() == crate::vm::Engine::Bytecode {
        // SAFETY: the compiled code lives in the proto's `OnceLock`,
        // which is never replaced once set, and `frame.proto` keeps the
        // prototype (and therefore the code `Arc`) alive for the whole
        // call. Detaching the borrow from `frame` lets `run` take
        // `&mut frame` without an Arc round-trip on every call.
        let code: *const crate::ir::CodeObject = crate::compile::func_code(vm, &frame.proto);
        crate::bcvm::run(vm, &mut frame, unsafe { &*code })
    } else {
        let proto = frame.proto.clone();
        match exec_block(vm, &mut frame, &proto.body) {
            Ok(Flow::Return(v)) => Ok(v),
            Ok(_) => Ok(Value::None),
            Err(e) => Err(e),
        }
    };
    vm.depth.set(vm.depth.get() - 1);
    if let FrameLocals::Slots(mut slots) = std::mem::replace(&mut frame.locals, FrameLocals::Module)
    {
        slots.clear();
        vm.slot_pool.borrow_mut().push(slots);
    }
    result.map_err(|e| e.with_frame(&frame.proto.name))
}

/// Executes a module-level scope body through the configured engine.
/// The bytecode compile is cached on the module's [`FuncProto`], except
/// for the shared `empty_module` prototype (used by eval-style entry
/// points whose body is not 1:1 with the prototype) which always tree
/// walks.
///
/// # Errors
///
/// Propagates any raised [`PyExc`].
pub(crate) fn exec_entry(vm: &mut Vm, frame: &mut Frame, body: &[Stmt]) -> Result<Flow, PyExc> {
    if vm.engine() == crate::vm::Engine::Bytecode
        && !Arc::ptr_eq(&frame.proto, &FuncProto::empty_module())
    {
        let proto = frame.proto.clone();
        let code = crate::compile::module_code(vm, &proto, body);
        return crate::bcvm::run(vm, frame, code).map(Flow::Return);
    }
    exec_block(vm, frame, body)
}

/// Snapshot of a simple-`Name` comprehension target's binding (for the
/// `Scoped` spec version). Returns `None` for non-name targets, which
/// keep legacy semantics.
fn comp_target_snapshot(frame: &Frame, target: &Expr) -> Option<(Symbol, Option<Value>)> {
    let ExprKind::Name(n) = &target.kind else {
        return None;
    };
    let sym = intern(n);
    let prev = if frame.proto.global_decls.contains(&sym) {
        frame.globals.borrow().get_sym(sym)
    } else {
        match &frame.locals {
            FrameLocals::Module => frame.globals.borrow().get_sym(sym),
            FrameLocals::Slots(slots) => {
                frame.proto.slot_of(sym).and_then(|i| slots[i as usize])
            }
            FrameLocals::Dynamic(locals) => locals.borrow().get_sym(sym),
        }
    };
    Some((sym, prev))
}

/// Restores (or unsets) a comprehension target binding captured by
/// [`comp_target_snapshot`].
fn comp_target_restore(frame: &mut Frame, sym: Symbol, prev: Option<Value>) {
    match prev {
        Some(v) => write_sym(frame, sym, v),
        None => {
            if frame.proto.global_decls.contains(&sym) {
                frame.globals.borrow_mut().unset_sym(sym);
                return;
            }
            match &mut frame.locals {
                FrameLocals::Module => {
                    frame.globals.borrow_mut().unset_sym(sym);
                }
                FrameLocals::Slots(slots) => {
                    if let Some(i) = frame.proto.slot_of(sym) {
                        slots[i as usize] = None;
                    }
                }
                FrameLocals::Dynamic(locals) => {
                    locals.borrow_mut().unset_sym(sym);
                }
            }
        }
    }
}

fn bind_params(
    heap: &Heap,
    func: &FuncObj,
    args: &mut Vec<Value>,
    kwargs: &mut Vec<(KwName, Value)>,
    locals: &mut FrameLocals,
) -> Result<(), PyExc> {
    fn bind(locals: &mut FrameLocals, p: &crate::prepare::ProtoParam, v: Value) {
        match locals {
            FrameLocals::Slots(slots) => slots[p.slot as usize] = Some(v),
            FrameLocals::Dynamic(scope) => scope.borrow_mut().set_sym(p.sym, v),
            FrameLocals::Module => unreachable!("functions never bind module frames"),
        }
    }
    let params = &func.proto.params;
    // Fast path: exact-arity positional call with plain parameters —
    // the overwhelmingly common shape on the call-heavy hot path.
    if kwargs.is_empty() && args.len() == params.len() {
        if let FrameLocals::Slots(slots) = locals {
            if params
                .iter()
                .all(|p| matches!(p.kind, ParamKind::Normal))
            {
                for (p, v) in params.iter().zip(args.drain(..)) {
                    slots[p.slot as usize] = Some(v);
                }
                return Ok(());
            }
        }
    }
    let mut arg_iter = args.drain(..);
    for (i, p) in params.iter().enumerate() {
        match p.kind {
            ParamKind::Normal => {
                let p_name = p.sym.as_str();
                if let Some(v) = arg_iter.next() {
                    // Positional wins; a duplicate keyword is an error.
                    if kwargs.iter().any(|(n, _)| n == p_name) {
                        return Err(PyExc::type_error(format!(
                            "{}() got multiple values for argument '{}'",
                            func.name(),
                            p_name
                        )));
                    }
                    bind(locals, p, v);
                } else if let Some(pos) = kwargs.iter().position(|(n, _)| n == p_name) {
                    let (_, v) = kwargs.remove(pos);
                    bind(locals, p, v);
                } else if let Some(Some(d)) = func.defaults.get(i) {
                    bind(locals, p, *d);
                } else {
                    return Err(PyExc::type_error(format!(
                        "{}() missing required argument: '{}'",
                        func.name(),
                        p_name
                    )));
                }
            }
            ParamKind::Star => {
                let rest: Vec<Value> = arg_iter.by_ref().collect();
                bind(locals, p, heap.new_tuple(rest));
            }
            ParamKind::DoubleStar => {
                let mut d = DictObj::new();
                for (n, v) in kwargs.drain(..) {
                    let key = heap.new_text(n);
                    d.set(heap, key, v);
                }
                bind(locals, p, heap.new_dict(d));
            }
        }
    }
    if arg_iter.next().is_some() {
        drop(arg_iter);
        return Err(PyExc::type_error(format!(
            "{}() takes {} positional arguments but more were given",
            func.name(),
            params.len()
        )));
    }
    if !kwargs.is_empty() {
        return Err(PyExc::type_error(format!(
            "{}() got an unexpected keyword argument '{}'",
            func.name(),
            kwargs[0].0
        )));
    }
    Ok(())
}

/// Attribute lookup with Python semantics (including the canonical
/// `AttributeError: 'NoneType' object has no attribute ...`).
///
/// Uses the non-inserting intern probe: a never-interned name cannot
/// key any symbol table, so `getattr` with runtime-generated strings
/// fails (or reaches the string-matched builtin methods) without
/// permanently growing the interner.
pub fn get_attr(vm: &Vm, obj: Value, attr: &str) -> Result<Value, PyExc> {
    match crate::intern::try_intern(attr) {
        Some(sym) => get_attr_sym(vm, obj, sym),
        None => match obj {
            Value::Instance(i) => Err(PyExc::attribute_error(
                &vm.heap.class(vm.heap.instance(i).class).name,
                attr,
            )),
            Value::Class(c) => Err(PyExc::attribute_error(&vm.heap.class(c).name, attr)),
            Value::Module(m) => Err(PyExc::new(
                "AttributeError",
                format!(
                    "module '{}' has no attribute '{attr}'",
                    vm.heap.module(m).name
                ),
            )),
            other => {
                if let Some(v) = methods::builtin_method(vm, other, attr) {
                    Ok(v)
                } else {
                    Err(PyExc::attribute_error(other.type_name(), attr))
                }
            }
        },
    }
}

/// The attribute lookup behind a method call, `obj.sym(…)`: the value
/// to call and, when it is a class function (or class-level native)
/// found through an instance, the handle of that instance, to pass
/// first — the pair a bound method would hold, without allocating one.
/// The receiver is an instance handle by type: `CallMethod` tells a
/// receiver slot from an empty one by `Value::Instance`. Instance
/// attributes shadow the class chain; everything else is
/// [`get_attr_sym`]'s value with no receiver.
///
/// # Errors
///
/// `AttributeError` exactly as [`get_attr_sym`].
pub(crate) fn load_method(
    vm: &Vm,
    obj: Value,
    sym: Symbol,
) -> Result<(Value, Option<u32>), PyExc> {
    let Value::Instance(i) = obj else {
        return Ok((get_attr_sym(vm, obj, sym)?, None));
    };
    let inst = vm.heap.instance(i);
    if let Some(v) = inst.get_attr_sym(sym) {
        return Ok((v, None));
    }
    match vm.heap.class_lookup_sym(inst.class, sym) {
        Some(f @ (Value::Func(_) | Value::Native(_))) => Ok((f, Some(i))),
        Some(other) => Ok((other, None)),
        None => Err(PyExc::attribute_error(
            &vm.heap.class(inst.class).name,
            sym.as_str(),
        )),
    }
}

/// Symbol-keyed attribute lookup (the interpreter hot path; the symbol
/// comes from the prepare-time resolution table).
pub fn get_attr_sym(vm: &Vm, obj: Value, sym: Symbol) -> Result<Value, PyExc> {
    match obj {
        Value::Instance(_) => Ok(match load_method(vm, obj, sym)? {
            (func, Some(recv)) => vm.heap.new_bound(func, Value::Instance(recv)),
            (value, None) => value,
        }),
        Value::Class(c) => vm
            .heap
            .class_lookup_sym(c, sym)
            .ok_or_else(|| PyExc::attribute_error(&vm.heap.class(c).name, sym.as_str())),
        Value::Module(m) => vm.heap.module(m).get_sym(sym).ok_or_else(|| {
            PyExc::new(
                "AttributeError",
                format!(
                    "module '{}' has no attribute '{}'",
                    vm.heap.module(m).name,
                    sym.as_str()
                ),
            )
        }),
        other => {
            if let Some(v) = methods::builtin_method(vm, other, sym.as_str()) {
                Ok(v)
            } else {
                Err(PyExc::attribute_error(other.type_name(), sym.as_str()))
            }
        }
    }
}

pub(crate) fn set_attr_sym(heap: &Heap, obj: Value, sym: Symbol, value: Value) -> Result<(), PyExc> {
    match obj {
        Value::Instance(i) => {
            heap.instance(i).set_attr_sym(sym, value);
            Ok(())
        }
        Value::Class(c) => {
            let mut attrs = heap.class(c).attrs.borrow_mut();
            if let Some(slot) = attrs.iter_mut().find(|(n, _)| *n == sym) {
                slot.1 = value;
            } else {
                attrs.push((sym, value));
            }
            Ok(())
        }
        Value::Module(m) => {
            heap.module(m).set_sym(sym, value);
            Ok(())
        }
        other => Err(PyExc::attribute_error(other.type_name(), sym.as_str())),
    }
}

fn as_index(v: Value, len: usize) -> Result<usize, PyExc> {
    let i = match v {
        Value::Int(i) => i,
        Value::Bool(b) => b as i64,
        other => {
            return Err(PyExc::type_error(format!(
                "indices must be integers, not {}",
                other.type_name()
            )))
        }
    };
    let adjusted = if i < 0 { i + len as i64 } else { i };
    if adjusted < 0 || adjusted as usize >= len {
        Err(PyExc::index_error("sequence"))
    } else {
        Ok(adjusted as usize)
    }
}

fn slice_bounds(len: usize, lower: Value, upper: Value, step: Value) -> Result<(usize, usize), PyExc> {
    if !matches!(step, Value::None) {
        if let Value::Int(s) = step {
            if s != 1 {
                return Err(PyExc::value_error("only step 1 slices are supported"));
            }
        }
    }
    let clamp = |v: Value, default: usize| -> usize {
        match v {
            Value::Int(i) => {
                let adj = if i < 0 { i + len as i64 } else { i };
                adj.clamp(0, len as i64) as usize
            }
            _ => default,
        }
    };
    let lo = clamp(lower, 0);
    let hi = clamp(upper, len).max(lo);
    Ok((lo, hi))
}

/// `obj[index]`.
pub fn get_item(heap: &Heap, obj: Value, index: Value) -> Result<Value, PyExc> {
    // Slice marker?
    if let Value::Tuple(t) = index {
        let items = heap.tuple(t);
        if items.len() == 4 {
            if let Value::Str(tag) = items[0] {
                if heap.str(tag) == "__slice__" {
                    return get_slice(heap, obj, items[1], items[2], items[3]);
                }
            }
        }
    }
    match obj {
        Value::List(l) => {
            let list = heap.list(l).borrow();
            let i = as_index(index, list.len()).map_err(|_| {
                if matches!(index, Value::Int(_) | Value::Bool(_)) {
                    PyExc::index_error("list")
                } else {
                    PyExc::type_error(format!(
                        "list indices must be integers, not {}",
                        index.type_name()
                    ))
                }
            })?;
            Ok(list[i])
        }
        Value::Tuple(t) => {
            let items = heap.tuple(t);
            let i = as_index(index, items.len())?;
            Ok(items[i])
        }
        Value::Str(s) => {
            let chars: Vec<char> = heap.str(s).chars().collect();
            let i = as_index(index, chars.len()).map_err(|e| {
                if e.class_name == "IndexError" {
                    PyExc::index_error("string")
                } else {
                    e
                }
            })?;
            Ok(heap.new_string(chars[i].to_string()))
        }
        Value::Dict(d) => heap
            .dict(d)
            .borrow()
            .get(heap, index)
            .ok_or_else(|| PyExc::key_error(heap, index)),
        other => Err(PyExc::type_error(format!(
            "'{}' object is not subscriptable",
            other.type_name()
        ))),
    }
}

fn get_slice(
    heap: &Heap,
    obj: Value,
    lower: Value,
    upper: Value,
    step: Value,
) -> Result<Value, PyExc> {
    match obj {
        Value::List(l) => {
            let out = {
                let list = heap.list(l).borrow();
                let (lo, hi) = slice_bounds(list.len(), lower, upper, step)?;
                list[lo..hi].to_vec()
            };
            Ok(heap.new_list(out))
        }
        Value::Str(s) => {
            let chars: Vec<char> = heap.str(s).chars().collect();
            let (lo, hi) = slice_bounds(chars.len(), lower, upper, step)?;
            Ok(heap.new_string(chars[lo..hi].iter().collect::<String>()))
        }
        Value::Tuple(t) => {
            let (lo, hi) = slice_bounds(heap.tuple(t).len(), lower, upper, step)?;
            let out = heap.tuple(t)[lo..hi].to_vec();
            Ok(heap.new_tuple(out))
        }
        other => Err(PyExc::type_error(format!(
            "'{}' object is not sliceable",
            other.type_name()
        ))),
    }
}

pub(crate) fn set_item(heap: &Heap, obj: Value, index: Value, value: Value) -> Result<(), PyExc> {
    match obj {
        Value::List(l) => {
            let len = heap.list(l).borrow().len();
            let i = as_index(index, len)?;
            heap.list(l).borrow_mut()[i] = value;
            Ok(())
        }
        Value::Dict(d) => {
            heap.dict(d).borrow_mut().set(heap, index, value);
            Ok(())
        }
        other => Err(PyExc::type_error(format!(
            "'{}' object does not support item assignment",
            other.type_name()
        ))),
    }
}

/// Materializes an iterable into values (lists, tuples, dicts iterate
/// keys, strings iterate characters, sets iterate elements).
pub fn iter_values(heap: &Heap, v: Value) -> Result<Vec<Value>, PyExc> {
    match v {
        Value::List(l) => Ok(heap.list(l).borrow().clone()),
        Value::Tuple(t) => Ok(heap.tuple(t).to_vec()),
        Value::Set(s) => Ok(heap.set(s).borrow().clone()),
        Value::Dict(d) => Ok(heap.dict(d).borrow().iter().map(|&(k, _)| k).collect()),
        Value::Str(s) => {
            let chars: Vec<String> = heap.str(s).chars().map(|c| c.to_string()).collect();
            Ok(chars.into_iter().map(|c| heap.new_string(c)).collect())
        }
        other => Err(PyExc::type_error(format!(
            "'{}' object is not iterable",
            other.type_name()
        ))),
    }
}

/// Applies a binary operator.
pub fn binary_op(heap: &Heap, op: BinOp, l: Value, r: Value) -> Result<Value, PyExc> {
    use BinOp::*;
    let type_err = |l: Value, r: Value, sym: &str| {
        PyExc::type_error(format!(
            "unsupported operand type(s) for {sym}: '{}' and '{}'",
            l.type_name(),
            r.type_name()
        ))
    };
    // Promote bools to ints for arithmetic.
    let norm = |v: Value| match v {
        Value::Bool(b) => Value::Int(b as i64),
        other => other,
    };
    let (l, r) = (norm(l), norm(r));
    match (op, l, r) {
        (Add, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(b))),
        (Add, Value::Float(a), Value::Float(b)) => Ok(Value::Float(a + b)),
        (Add, Value::Int(a), Value::Float(b)) => Ok(Value::Float(a as f64 + b)),
        (Add, Value::Float(a), Value::Int(b)) => Ok(Value::Float(a + b as f64)),
        (Add, Value::Str(a), Value::Str(b)) => {
            let (a, b) = (heap.str(a), heap.str(b));
            let mut s = String::with_capacity(a.len() + b.len());
            s.push_str(a);
            s.push_str(b);
            Ok(heap.new_string(s))
        }
        (Add, Value::List(a), Value::List(b)) => {
            let mut out = heap.list(a).borrow().clone();
            out.extend(heap.list(b).borrow().iter().copied());
            Ok(heap.new_list(out))
        }
        (Add, Value::Tuple(a), Value::Tuple(b)) => {
            let mut out = heap.tuple(a).to_vec();
            out.extend(heap.tuple(b).iter().copied());
            Ok(heap.new_tuple(out))
        }
        (Sub, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(b))),
        (Sub, Value::Float(a), Value::Float(b)) => Ok(Value::Float(a - b)),
        (Sub, Value::Int(a), Value::Float(b)) => Ok(Value::Float(a as f64 - b)),
        (Sub, Value::Float(a), Value::Int(b)) => Ok(Value::Float(a - b as f64)),
        (Mul, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(b))),
        (Mul, Value::Float(a), Value::Float(b)) => Ok(Value::Float(a * b)),
        (Mul, Value::Int(a), Value::Float(b)) => Ok(Value::Float(a as f64 * b)),
        (Mul, Value::Float(a), Value::Int(b)) => Ok(Value::Float(a * b as f64)),
        (Mul, Value::Str(s), Value::Int(n)) | (Mul, Value::Int(n), Value::Str(s)) => {
            // Negative repeat counts clamp to 0 (`as usize` would wrap).
            Ok(heap.new_string(heap.str(s).repeat(n.max(0) as usize)))
        }
        (Mul, Value::List(xs), Value::Int(n)) | (Mul, Value::Int(n), Value::List(xs)) => {
            let out = {
                let items = heap.list(xs).borrow();
                let mut out = Vec::new();
                for _ in 0..n.max(0) {
                    out.extend(items.iter().copied());
                }
                out
            };
            Ok(heap.new_list(out))
        }
        (Div, _, _) => {
            let (a, b) = float_pair(l, r).ok_or_else(|| type_err(l, r, "/"))?;
            if b == 0.0 {
                Err(PyExc::zero_division())
            } else {
                Ok(Value::Float(a / b))
            }
        }
        (FloorDiv, Value::Int(a), Value::Int(b)) => {
            if b == 0 {
                Err(PyExc::zero_division())
            } else {
                Ok(Value::Int(a.div_euclid(b)))
            }
        }
        (FloorDiv, _, _) => {
            let (a, b) = float_pair(l, r).ok_or_else(|| type_err(l, r, "//"))?;
            if b == 0.0 {
                Err(PyExc::zero_division())
            } else {
                Ok(Value::Float((a / b).floor()))
            }
        }
        (Mod, Value::Int(a), Value::Int(b)) => {
            if b == 0 {
                Err(PyExc::zero_division())
            } else {
                Ok(Value::Int(a.rem_euclid(b)))
            }
        }
        (Mod, Value::Str(fmt), _) => format_percent(heap, fmt, r),
        (Mod, _, _) => {
            let (a, b) = float_pair(l, r).ok_or_else(|| type_err(l, r, "%"))?;
            if b == 0.0 {
                Err(PyExc::zero_division())
            } else {
                Ok(Value::Float(a.rem_euclid(b)))
            }
        }
        (Pow, Value::Int(a), Value::Int(b)) if b >= 0 => {
            Ok(Value::Int(a.wrapping_pow(b.min(u32::MAX as i64) as u32)))
        }
        (Pow, _, _) => {
            let (a, b) = float_pair(l, r).ok_or_else(|| type_err(l, r, "**"))?;
            Ok(Value::Float(a.powf(b)))
        }
        (BitAnd, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a & b)),
        (BitOr, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a | b)),
        (BitXor, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a ^ b)),
        // `as u32` truncates the shift amount and `wrapping_*` masks it
        // mod 64 — pinned pre-existing semantics for huge shift counts.
        (Shl, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_shl(b as u32))),
        (Shr, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_shr(b as u32))),
        (op, l, r) => Err(type_err(l, r, op.as_str())),
    }
}

fn float_pair(l: Value, r: Value) -> Option<(f64, f64)> {
    let f = |v: Value| match v {
        Value::Int(i) => Some(i as f64),
        Value::Float(f) => Some(f),
        Value::Bool(b) => Some(b as i64 as f64),
        _ => None,
    };
    Some((f(l)?, f(r)?))
}

/// Minimal `%` string formatting: `%s`, `%d`, `%f`, `%r`, `%%`.
fn format_percent(heap: &Heap, fmt: u32, args: Value) -> Result<Value, PyExc> {
    let values: Vec<Value> = match args {
        Value::Tuple(t) => heap.tuple(t).to_vec(),
        other => vec![other],
    };
    let mut out = String::new();
    let mut it = heap.str(fmt).chars().peekable();
    let mut idx = 0;
    while let Some(c) = it.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('%') => out.push('%'),
            Some(spec) => {
                let v = *values
                    .get(idx)
                    .ok_or_else(|| PyExc::type_error("not enough arguments for format string"))?;
                idx += 1;
                match spec {
                    's' => out.push_str(&v.to_display(heap)),
                    'r' => out.push_str(&v.repr(heap)),
                    'd' | 'i' => match v {
                        Value::Int(i) => out.push_str(&i.to_string()),
                        Value::Float(f) => out.push_str(&(f as i64).to_string()),
                        Value::Bool(b) => out.push_str(&(b as i64).to_string()),
                        other => {
                            return Err(PyExc::type_error(format!(
                                "%d format: a number is required, not {}",
                                other.type_name()
                            )))
                        }
                    },
                    'f' => match v {
                        Value::Int(i) => out.push_str(&format!("{:.6}", i as f64)),
                        Value::Float(f) => out.push_str(&format!("{f:.6}")),
                        other => {
                            return Err(PyExc::type_error(format!(
                                "%f format: a number is required, not {}",
                                other.type_name()
                            )))
                        }
                    },
                    other => {
                        return Err(PyExc::value_error(format!(
                            "unsupported format character '{other}'"
                        )))
                    }
                }
            }
            None => return Err(PyExc::value_error("incomplete format")),
        }
    }
    if idx < values.len() {
        return Err(PyExc::type_error(
            "not all arguments converted during string formatting",
        ));
    }
    Ok(heap.new_string(out))
}

/// Applies a comparison operator.
pub fn compare(heap: &Heap, op: CmpOp, l: Value, r: Value) -> Result<bool, PyExc> {
    use CmpOp::*;
    match op {
        Eq => Ok(values_eq(heap, l, r)),
        Ne => Ok(!values_eq(heap, l, r)),
        Is => Ok(values_is(heap, l, r)),
        IsNot => Ok(!values_is(heap, l, r)),
        In | NotIn => {
            let found = membership(heap, l, r)?;
            Ok(if op == In { found } else { !found })
        }
        Lt | Le | Gt | Ge => {
            let ord = values_cmp(heap, l, r).ok_or_else(|| {
                PyExc::type_error(format!(
                    "'<' not supported between instances of '{}' and '{}'",
                    l.type_name(),
                    r.type_name()
                ))
            })?;
            Ok(match op {
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!("handled above"),
            })
        }
    }
}

fn membership(heap: &Heap, needle: Value, haystack: Value) -> Result<bool, PyExc> {
    match haystack {
        Value::List(l) => Ok(heap
            .list(l)
            .borrow()
            .iter()
            .any(|&v| values_eq(heap, v, needle))),
        Value::Tuple(t) => Ok(heap.tuple(t).iter().any(|&v| values_eq(heap, v, needle))),
        Value::Set(s) => Ok(heap
            .set(s)
            .borrow()
            .iter()
            .any(|&v| values_eq(heap, v, needle))),
        Value::Dict(d) => Ok(heap.dict(d).borrow().get(heap, needle).is_some()),
        Value::Str(s) => match needle {
            Value::Str(sub) => Ok(heap.str(s).contains(heap.str(sub))),
            other => Err(PyExc::type_error(format!(
                "'in <string>' requires string as left operand, not {}",
                other.type_name()
            ))),
        },
        other => Err(PyExc::type_error(format!(
            "argument of type '{}' is not iterable",
            other.type_name()
        ))),
    }
}
