//! The one-shot prepare/resolve pass.
//!
//! Before a module executes, this pass resolves every identifier. It
//! walks each scope's own statements twice: once for its
//! `ScopeFacts` (what the scope binds, what it declares `global`,
//! whether it needs dynamic locals), then once to resolve its names
//! against them — and so on into each nested scope:
//!
//! * each `def`/`lambda`/`class` body becomes a [`FuncProto`] — name,
//!   parameter slots, `global` declarations, and an [`Arc`]-shared body
//!   (cloned once here instead of once per `def` execution),
//! * every local of a non-capturing function gets a **slot index** so
//!   its frame is a dense `Vec<Option<Value>>` instead of a name→value
//!   scan table,
//! * every `Name` and `Attribute` node gets a [`NameRes`] entry in a
//!   dense [`NameTable`] keyed by AST `NodeId`, so the interpreter
//!   never compares strings (or even hashes) on the hot path.
//!
//! Functions whose locals can escape — those containing a nested `def`,
//! a `lambda`, or a list comprehension (whose leaky write-only target
//! semantics predate this pass and are preserved bit-for-bit) — keep a
//! dynamic symbol-keyed scope so closures capture by reference exactly
//! as before. Class bodies always use a dynamic scope.
//!
//! The result ([`PreparedModule`]) is immutable, `Send + Sync`, and
//! cacheable: the campaign layer prepares each module once per campaign
//! (and memoizes across campaigns) instead of re-analyzing identical
//! ASTs in every experiment.

use crate::intern::{intern, Symbol};
use pysrc::ast::*;
use std::collections::HashMap;
use std::sync::Arc;

/// How a `Name` (or `Attribute`) node resolves, decided at prepare time.
#[derive(Clone, Copy, Debug)]
pub enum NameRes {
    /// Not in the table: the filler for nodes that are not names. A
    /// `Name` or `Attribute` node that reads this was never prepared,
    /// and either engine raises [`crate::PyExc`]'s internal error.
    Unprepared,
    /// A slot-allocated local of a non-capturing function.
    Local {
        /// Index into the frame's slot vector.
        slot: u32,
        /// The name, for error messages.
        sym: Symbol,
    },
    /// A local by assignment analysis, living in a dynamic scope
    /// (capturing functions and class bodies).
    DynLocal(Symbol),
    /// Not local: search captured scopes, then globals, then builtins.
    Cell(Symbol),
    /// Module-level name: globals then builtins.
    Global(Symbol),
    /// Declared `global` inside a function: globals then builtins.
    GlobalDecl(Symbol),
    /// The attribute name of an `Attribute` node.
    Attr(Symbol),
    /// A `Call` node with keyword arguments: where its keyword names
    /// start in the table (see [`NameTable::kw_name`]).
    CallKw(u32),
}

/// Dense `NodeId → NameRes` side table for one module (or the one
/// `def` of an [`override_def`]). Lookup is a bounds check + index.
#[derive(Debug, Default)]
pub struct NameTable {
    base: u32,
    entries: Vec<NameRes>,
    /// Keyword names of every call, in source order per call.
    kw_names: Vec<Symbol>,
}

impl NameTable {
    fn from_cx(cx: &mut PrepareCx) -> NameTable {
        let pairs = &cx.resolutions;
        let Some(base) = pairs.iter().map(|(id, _)| *id).min() else {
            return NameTable::default();
        };
        let max = pairs.iter().map(|(id, _)| *id).max().unwrap_or(base);
        let mut entries = vec![NameRes::Unprepared; (max - base + 1) as usize];
        for (id, res) in pairs {
            entries[(id - base) as usize] = *res;
        }
        NameTable {
            base,
            entries,
            kw_names: std::mem::take(&mut cx.kw_names),
        }
    }

    /// Resolution for a node, or [`NameRes::Unprepared`] if unknown.
    #[inline]
    pub fn res(&self, id: NodeId) -> NameRes {
        match self.entries.get(id.0.wrapping_sub(self.base) as usize) {
            Some(r) => *r,
            None => NameRes::Unprepared,
        }
    }

    /// The `i`-th keyword name of the call node `id`, interned when the
    /// module was prepared; `None` for a call that was not prepared.
    #[inline]
    pub fn kw_name(&self, id: NodeId, i: usize) -> Option<Symbol> {
        match self.res(id) {
            NameRes::CallKw(start) => self.kw_names.get(start as usize + i).copied(),
            _ => None,
        }
    }
}

/// A prepared parameter: symbol, destination slot, and kind.
#[derive(Clone, Copy, Debug)]
pub struct ProtoParam {
    /// Parameter name.
    pub sym: Symbol,
    /// Destination slot in a slot frame (index into `FuncProto::slots`);
    /// ignored by dynamic frames.
    pub slot: u32,
    /// Positional / `*args` / `**kwargs`.
    pub kind: ParamKind,
}

/// The immutable, shareable prototype of one scope (function, lambda,
/// class body, or module top level).
#[derive(Debug)]
pub struct FuncProto {
    /// Name for tracebacks (`<module>`, `<lambda>`, class or def name).
    pub name: String,
    /// Prepared parameters in declaration order (empty for classes and
    /// modules).
    pub params: Vec<ProtoParam>,
    /// Body statements, cloned out of the AST exactly once. For class
    /// bodies and module protos this is empty — they execute the AST
    /// in place.
    pub body: Arc<Vec<Stmt>>,
    /// Slot → name mapping for slot frames (empty when `dynamic`).
    pub slots: Vec<Symbol>,
    /// Names declared `global` in the body.
    pub global_decls: Vec<Symbol>,
    /// Per-module resolution table shared by every proto of the module.
    pub table: Arc<NameTable>,
    /// True when the frame must keep a dynamic scope: the body contains
    /// a nested `def`/`lambda` (closures capture the scope by
    /// reference) or a list comprehension (whose target writes into the
    /// dynamic scope without becoming a readable local — preserved,
    /// see module docs).
    pub dynamic: bool,
    /// Lazily compiled bytecode for this scope's body (see
    /// [`crate::compile`]); shared by every VM running the proto.
    pub(crate) compiled: std::sync::OnceLock<Arc<crate::ir::CodeObject>>,
}

impl FuncProto {
    /// Slot index of a symbol, if it is a slot-allocated local.
    pub fn slot_of(&self, sym: Symbol) -> Option<u32> {
        self.slots.iter().position(|s| *s == sym).map(|i| i as u32)
    }
}

/// A fully prepared module: the AST plus every scope's prototype.
#[derive(Debug)]
pub struct PreparedModule {
    /// The parsed module this was prepared from.
    pub module: Arc<Module>,
    /// Prototype for the module top level.
    pub module_proto: Arc<FuncProto>,
    /// Prototypes keyed by defining node id (`FuncDef`/`ClassDef`
    /// statement id, `Lambda` expression id).
    pub protos: HashMap<u32, Arc<FuncProto>>,
    /// Hash ([`source_hash64`]) of the source text this module was
    /// parsed from, when known. Consumers substituting this artifact
    /// for a source file (the sandbox deploy fast path) verify it so a
    /// stale artifact can never silently replace changed source.
    pub source_hash: Option<u64>,
}

/// FNV-1a hash of a source text, for [`PreparedModule::source_hash`].
pub fn source_hash64(text: &str) -> u64 {
    crate::value::fnv1a(text.as_bytes())
}

/// Prepares a module for execution, producing the
/// shareable, cacheable artifact (without a source-text stamp; see
/// [`prepare_hashed`]).
pub fn prepare(module: Arc<Module>) -> Arc<PreparedModule> {
    let (module_proto, protos) = prepare_ast(&module);
    Arc::new(PreparedModule {
        module,
        module_proto,
        protos,
        source_hash: None,
    })
}

/// Prepares a module and stamps it with the hash of the source text it
/// was parsed from, enabling deploy-time staleness verification.
pub fn prepare_hashed(module: Arc<Module>, source_text: &str) -> Arc<PreparedModule> {
    let (module_proto, protos) = prepare_ast(&module);
    Arc::new(PreparedModule {
        module,
        module_proto,
        protos,
        source_hash: Some(source_hash64(source_text)),
    })
}

/// Prepares a module AST in place (no ownership transfer): returns the
/// module-level prototype and the prototypes of every nested scope.
pub fn prepare_ast(module: &Module) -> (Arc<FuncProto>, HashMap<u32, Arc<FuncProto>>) {
    let mut cx = PrepareCx::default();
    cx.resolve_block(&module.body, &ScopeInfo::module());
    let (table, protos) = cx.finish();
    (module_level_proto(table), protos)
}

/// A module top level's prototype over `table` (nothing compiled yet).
fn module_level_proto(table: Arc<NameTable>) -> Arc<FuncProto> {
    Arc::new(FuncProto {
        name: "<module>".to_string(),
        params: Vec::new(),
        body: Arc::new(Vec::new()),
        slots: Vec::new(),
        global_decls: Vec::new(),
        table,
        dynamic: true,
        compiled: std::sync::OnceLock::new(),
    })
}

/// `base` with the one `def` it registers under `def_id` replaced by
/// `def` — a mutant as its fault-free module plus the function it
/// changed. Only `def` is prepared (its own dense [`NameTable`], its
/// nested prototypes); the module, its top-level prototype and every
/// other scope's prototype — hence their compiled bytecode — are
/// `base`'s own, shared. The base's AST still executes the `def`
/// statement (its header, so its defaults, in the enclosing scope);
/// both engines then find the replacement through the VM's registry.
///
/// `def` must be that statement with another body: nothing here can
/// check that, so the caller vouches for it — and for `source_hash`
/// being the hash of the text the whole of it stands for. `None` when
/// `def` is no `def`, or `base` has none of that name under `def_id`.
pub fn override_def(
    base: &PreparedModule,
    def_id: NodeId,
    def: &Stmt,
    source_hash: u64,
) -> Option<Arc<PreparedModule>> {
    let StmtKind::FuncDef { name, params, body } = &def.kind else {
        return None;
    };
    if base.protos.get(&def_id.0)?.name != *name {
        return None;
    }
    let mut cx = PrepareCx::default();
    let proto = cx.resolve_function(name, params, body);
    cx.protos.insert(def_id.0, proto);
    let mut protos = base.protos.clone();
    protos.extend(cx.finish().1);
    Some(Arc::new(PreparedModule {
        module: base.module.clone(),
        module_proto: base.module_proto.clone(),
        protos,
        source_hash: Some(source_hash),
    }))
}

/// `base` with `stmt` in front of its top level (the `import
/// profipy_rt` a mutant brings): a fresh module-level prototype over
/// the base's table and the base's prototypes, shared. `stmt` is not
/// prepared, so it must be one that binds by string alone — an import.
/// Stands for no source text of its own, so it carries no stamp; it is
/// what [`override_def`] is applied to.
pub fn with_leading_stmt(base: &PreparedModule, stmt: Stmt) -> Arc<PreparedModule> {
    let mut body = Vec::with_capacity(1 + base.module.body.len());
    body.push(stmt);
    body.extend_from_slice(&base.module.body);
    Arc::new(PreparedModule {
        module: Arc::new(Module {
            name: base.module.name.clone(),
            body,
        }),
        module_proto: module_level_proto(base.module_proto.table.clone()),
        protos: base.protos.clone(),
        source_hash: None,
    })
}

/// What kind of scope the resolver is currently inside.
struct ScopeInfo {
    kind: ScopeKind,
    /// Locals of this scope (assignment analysis + params).
    locals: Vec<Symbol>,
    /// `global`-declared names of this scope.
    global_decls: Vec<Symbol>,
    /// Slot allocation, parallel to `locals`, for slot frames.
    slotted: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum ScopeKind {
    Module,
    Function,
    Class,
}

impl ScopeInfo {
    fn module() -> ScopeInfo {
        ScopeInfo {
            kind: ScopeKind::Module,
            locals: Vec::new(),
            global_decls: Vec::new(),
            slotted: false,
        }
    }
}

#[derive(Default)]
struct PrepareCx {
    resolutions: Vec<(u32, NameRes)>,
    kw_names: Vec<Symbol>,
    protos: HashMap<u32, FuncProto>,
}

impl PrepareCx {
    /// The resolution table of everything resolved so far, and every
    /// scope prepared so far as a prototype over it.
    fn finish(mut self) -> (Arc<NameTable>, HashMap<u32, Arc<FuncProto>>) {
        let table = Arc::new(NameTable::from_cx(&mut self));
        let protos = self
            .protos
            .into_iter()
            .map(|(id, p)| {
                let proto = FuncProto {
                    table: table.clone(),
                    ..p
                };
                (id, Arc::new(proto))
            })
            .collect();
        (table, protos)
    }

    fn record(&mut self, id: NodeId, res: NameRes) {
        if id != NodeId::DUMMY {
            self.resolutions.push((id.0, res));
        }
    }

    fn resolve_name(&mut self, id: NodeId, name: &str, scope: &ScopeInfo) {
        let sym = intern(name);
        let res = if scope.global_decls.contains(&sym) {
            NameRes::GlobalDecl(sym)
        } else {
            match scope.kind {
                ScopeKind::Module => NameRes::Global(sym),
                ScopeKind::Function | ScopeKind::Class => {
                    if scope.locals.contains(&sym) {
                        if scope.slotted {
                            let slot = scope
                                .locals
                                .iter()
                                .position(|s| *s == sym)
                                .expect("checked contains") as u32;
                            NameRes::Local { slot, sym }
                        } else {
                            NameRes::DynLocal(sym)
                        }
                    } else {
                        NameRes::Cell(sym)
                    }
                }
            }
        };
        self.record(id, res);
    }

    /// Resolves all expressions of one scope's statement block and
    /// prepares nested scopes.
    fn resolve_block(&mut self, body: &[Stmt], scope: &ScopeInfo) {
        for stmt in body {
            self.resolve_stmt(stmt, scope);
        }
    }

    fn resolve_stmt(&mut self, stmt: &Stmt, scope: &ScopeInfo) {
        match &stmt.kind {
            StmtKind::Expr(e) => self.resolve_expr(e, scope),
            StmtKind::Assign { targets, value } => {
                for t in targets {
                    self.resolve_expr(t, scope);
                }
                self.resolve_expr(value, scope);
            }
            StmtKind::AugAssign { target, value, .. } => {
                self.resolve_expr(target, scope);
                self.resolve_expr(value, scope);
            }
            StmtKind::Return(v) => {
                if let Some(v) = v {
                    self.resolve_expr(v, scope);
                }
            }
            StmtKind::Pass | StmtKind::Break | StmtKind::Continue | StmtKind::Global(_) => {}
            StmtKind::Del(targets) => {
                for t in targets {
                    self.resolve_expr(t, scope);
                }
            }
            StmtKind::Assert { test, msg } => {
                self.resolve_expr(test, scope);
                if let Some(m) = msg {
                    self.resolve_expr(m, scope);
                }
            }
            StmtKind::Import(_) | StmtKind::FromImport { .. } => {
                // Imports bind by plain string; the write path falls
                // back to symbol resolution against the proto.
            }
            StmtKind::If { branches, orelse } => {
                for (test, body) in branches {
                    self.resolve_expr(test, scope);
                    self.resolve_block(body, scope);
                }
                self.resolve_block(orelse, scope);
            }
            StmtKind::While { test, body, orelse } => {
                self.resolve_expr(test, scope);
                self.resolve_block(body, scope);
                self.resolve_block(orelse, scope);
            }
            StmtKind::For {
                target,
                iter,
                body,
                orelse,
            } => {
                self.resolve_expr(target, scope);
                self.resolve_expr(iter, scope);
                self.resolve_block(body, scope);
                self.resolve_block(orelse, scope);
            }
            StmtKind::FuncDef { name, params, body } => {
                // Defaults evaluate at `def` time in the enclosing scope.
                for p in params {
                    if let Some(d) = &p.default {
                        self.resolve_expr(d, scope);
                    }
                }
                let proto = self.resolve_function(name, params, body);
                self.protos.insert(stmt.id.0, proto);
            }
            StmtKind::ClassDef { name, bases, body } => {
                for b in bases {
                    self.resolve_expr(b, scope);
                }
                let proto = self.resolve_class(name, body);
                self.protos.insert(stmt.id.0, proto);
            }
            StmtKind::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                self.resolve_block(body, scope);
                for h in handlers {
                    if let Some(t) = &h.exc_type {
                        self.resolve_expr(t, scope);
                    }
                    self.resolve_block(&h.body, scope);
                }
                self.resolve_block(orelse, scope);
                self.resolve_block(finalbody, scope);
            }
            StmtKind::Raise { exc, cause } => {
                if let Some(e) = exc {
                    self.resolve_expr(e, scope);
                }
                if let Some(c) = cause {
                    self.resolve_expr(c, scope);
                }
            }
            StmtKind::With { items, body } => {
                for (ctx, target) in items {
                    self.resolve_expr(ctx, scope);
                    if let Some(t) = target {
                        self.resolve_expr(t, scope);
                    }
                }
                self.resolve_block(body, scope);
            }
        }
    }

    fn resolve_expr(&mut self, expr: &Expr, scope: &ScopeInfo) {
        match &expr.kind {
            ExprKind::Name(n) => self.resolve_name(expr.id, n, scope),
            ExprKind::Attribute { value, attr } => {
                self.resolve_expr(value, scope);
                self.record(expr.id, NameRes::Attr(intern(attr)));
            }
            ExprKind::Num(_) | ExprKind::Str(_) | ExprKind::Bool(_) | ExprKind::NoneLit => {}
            ExprKind::Subscript { value, index } => {
                self.resolve_expr(value, scope);
                self.resolve_expr(index, scope);
            }
            ExprKind::Slice { lower, upper, step } => {
                for part in [lower, upper, step].into_iter().flatten() {
                    self.resolve_expr(part, scope);
                }
            }
            ExprKind::Call { func, args } => {
                self.resolve_expr(func, scope);
                // This call's names first, contiguously: a keyword
                // value may itself be a call with keywords.
                let start = self.kw_names.len() as u32;
                for a in args {
                    if let Arg::Kw(n, _) = a {
                        self.kw_names.push(intern(n));
                    }
                }
                if self.kw_names.len() as u32 > start {
                    self.record(expr.id, NameRes::CallKw(start));
                }
                for a in args {
                    self.resolve_expr(a.value(), scope);
                }
            }
            ExprKind::Unary { operand, .. } => self.resolve_expr(operand, scope),
            ExprKind::Binary { left, right, .. } => {
                self.resolve_expr(left, scope);
                self.resolve_expr(right, scope);
            }
            ExprKind::BoolOp { values, .. } => {
                for v in values {
                    self.resolve_expr(v, scope);
                }
            }
            ExprKind::Compare {
                left, comparators, ..
            } => {
                self.resolve_expr(left, scope);
                for c in comparators {
                    self.resolve_expr(c, scope);
                }
            }
            ExprKind::Lambda { params, body } => {
                for p in params {
                    if let Some(d) = &p.default {
                        self.resolve_expr(d, scope);
                    }
                }
                let proto = self.resolve_lambda(params, body);
                self.protos.insert(expr.id.0, proto);
            }
            ExprKind::IfExp { test, body, orelse } => {
                self.resolve_expr(test, scope);
                self.resolve_expr(body, scope);
                self.resolve_expr(orelse, scope);
            }
            ExprKind::Tuple(items) | ExprKind::List(items) | ExprKind::Set(items) => {
                for i in items {
                    self.resolve_expr(i, scope);
                }
            }
            ExprKind::Dict(pairs) => {
                for (k, v) in pairs {
                    self.resolve_expr(k, scope);
                    self.resolve_expr(v, scope);
                }
            }
            ExprKind::ListComp {
                elt,
                target,
                iter,
                ifs,
            } => {
                // The comprehension target writes into the scope but is
                // *not* an assignment-analysis local (pre-refactor
                // semantics, preserved): resolve it as a plain name.
                self.resolve_expr(target, scope);
                self.resolve_expr(iter, scope);
                for cond in ifs {
                    self.resolve_expr(cond, scope);
                }
                self.resolve_expr(elt, scope);
            }
            ExprKind::Starred(inner) => self.resolve_expr(inner, scope),
        }
    }

    /// Prepares one function scope and returns its proto (table is
    /// patched in by the caller once the whole module is resolved).
    fn resolve_function(&mut self, name: &str, params: &[Param], body: &[Stmt]) -> FuncProto {
        let ScopeFacts {
            bound: mut locals,
            globals,
            dynamic,
        } = ScopeFacts::of(body);
        let param_syms: Vec<Symbol> = params.iter().map(|p| intern(&p.name)).collect();
        for &sym in &param_syms {
            if !locals.contains(&sym) {
                locals.push(sym);
            }
        }
        // A parameter that is also declared `global` is degenerate
        // (CPython rejects it at compile time; the old interpreter
        // bound the argument into a locals scope that reads never
        // consulted). It has no slot, so a slot frame would misbind it
        // — keep such functions on the dynamic scope, which reproduces
        // the old behavior exactly.
        let dynamic = dynamic || param_syms.iter().any(|s| globals.contains(s));
        // Slot allocation excludes `global`-declared names (they always
        // resolve to the module scope).
        let slots: Vec<Symbol> = if dynamic {
            Vec::new()
        } else {
            locals
                .iter()
                .copied()
                .filter(|s| !globals.contains(s))
                .collect()
        };
        let scope = ScopeInfo {
            kind: ScopeKind::Function,
            locals: if dynamic { locals } else { slots.clone() },
            global_decls: globals.clone(),
            slotted: !dynamic,
        };
        self.resolve_block(body, &scope);
        let proto_params = params
            .iter()
            .zip(param_syms)
            .map(|(p, sym)| ProtoParam {
                sym,
                slot: slots.iter().position(|s| *s == sym).unwrap_or(0) as u32,
                kind: p.kind,
            })
            .collect();
        FuncProto {
            name: name.to_string(),
            params: proto_params,
            body: Arc::new(body.to_vec()),
            slots,
            global_decls: globals,
            table: Arc::new(NameTable::default()),
            dynamic,
            compiled: std::sync::OnceLock::new(),
        }
    }

    /// Prepares a lambda: a function whose body is a synthesized
    /// `return <expr>` statement, created once here instead of on every
    /// evaluation of the lambda expression.
    fn resolve_lambda(&mut self, params: &[Param], body: &Expr) -> FuncProto {
        let ret = Stmt::synth(StmtKind::Return(Some(body.clone())));
        self.resolve_function("<lambda>", params, std::slice::from_ref(&ret))
    }

    /// Prepares a class body: always a dynamic scope (the class dict).
    fn resolve_class(&mut self, name: &str, body: &[Stmt]) -> FuncProto {
        let facts = ScopeFacts::of(body);
        let scope = ScopeInfo {
            kind: ScopeKind::Class,
            locals: facts.bound,
            global_decls: facts.globals.clone(),
            slotted: false,
        };
        self.resolve_block(body, &scope);
        FuncProto {
            name: name.to_string(),
            params: Vec::new(),
            body: Arc::new(Vec::new()),
            slots: Vec::new(),
            global_decls: facts.globals,
            table: Arc::new(NameTable::default()),
            dynamic: true,
            compiled: std::sync::OnceLock::new(),
        }
    }
}

/// What one scope's own statements say about its names, found in one
/// walk. The walk enters `if`/`while`/`for`/`try`/`with` blocks and
/// handler bodies, but not a nested `def` or `class` body: that is a
/// scope of its own.
struct ScopeFacts {
    /// The names the scope binds, in first-binding order: assignment,
    /// augmented-assignment, `for` and `with` targets, `def` and `class`
    /// names, imports, and `except … as` names (bound before their
    /// handler's body). Not bound: comprehension targets, `del` targets,
    /// and attribute or subscript targets.
    bound: Vec<Symbol>,
    /// The names declared `global`, in first-declaration order.
    globals: Vec<Symbol>,
    /// A nested `def` (whatever its defaults), or a `lambda` or list
    /// comprehension in any expression evaluated here — a class's bases
    /// included, its body not. A `def` or `lambda` may capture the
    /// scope by reference; a comprehension's target writes into it
    /// without becoming a readable local. Either way the scope needs
    /// dynamic locals (see [`crate::interp::FrameLocals`]).
    dynamic: bool,
}

impl ScopeFacts {
    fn of(body: &[Stmt]) -> ScopeFacts {
        let mut facts = ScopeFacts {
            bound: Vec::new(),
            globals: Vec::new(),
            dynamic: false,
        };
        facts.block(body);
        let mut seen = std::collections::HashSet::new();
        facts.bound.retain(|s| seen.insert(*s));
        seen.clear();
        facts.globals.retain(|s| seen.insert(*s));
        facts
    }

    fn block(&mut self, body: &[Stmt]) {
        for stmt in body {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Expr(e) | StmtKind::Return(Some(e)) => self.scan(e),
            StmtKind::Assign { targets, value } => {
                for t in targets {
                    self.bind_target(t);
                    self.scan(t);
                }
                self.scan(value);
            }
            StmtKind::AugAssign { target, value, .. } => {
                self.bind_target(target);
                self.scan(target);
                self.scan(value);
            }
            StmtKind::Del(targets) => targets.iter().for_each(|t| self.scan(t)),
            StmtKind::Assert { test, msg } => {
                self.scan(test);
                msg.iter().for_each(|m| self.scan(m));
            }
            StmtKind::Raise { exc, cause } => exc.iter().chain(cause).for_each(|e| self.scan(e)),
            StmtKind::Return(None) | StmtKind::Pass | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Global(names) => self.globals.extend(names.iter().map(|n| intern(n))),
            StmtKind::Import(aliases) => {
                let bound = aliases.iter().map(|a| intern(a.bound_name()));
                self.bound.extend(bound);
            }
            StmtKind::FromImport { names, .. } => {
                let bound = names.iter().map(|a| intern(a.alias.as_deref().unwrap_or(&a.name)));
                self.bound.extend(bound);
            }
            StmtKind::If { branches, orelse } => {
                for (test, body) in branches {
                    self.scan(test);
                    self.block(body);
                }
                self.block(orelse);
            }
            StmtKind::While { test, body, orelse } => {
                self.scan(test);
                self.block(body);
                self.block(orelse);
            }
            StmtKind::For {
                target,
                iter,
                body,
                orelse,
            } => {
                self.bind_target(target);
                self.scan(target);
                self.scan(iter);
                self.block(body);
                self.block(orelse);
            }
            StmtKind::FuncDef { name, .. } => {
                self.bound.push(intern(name));
                self.dynamic = true;
            }
            StmtKind::ClassDef { name, bases, .. } => {
                self.bound.push(intern(name));
                bases.iter().for_each(|b| self.scan(b));
            }
            StmtKind::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                self.block(body);
                for h in handlers {
                    h.exc_type.iter().for_each(|t| self.scan(t));
                    self.bound.extend(h.name.iter().map(|n| intern(n)));
                    self.block(&h.body);
                }
                self.block(orelse);
                self.block(finalbody);
            }
            StmtKind::With { items, body } => {
                for (ctx, target) in items {
                    self.scan(ctx);
                    if let Some(t) = target {
                        self.bind_target(t);
                        self.scan(t);
                    }
                }
                self.block(body);
            }
        }
    }

    /// The names an assignment to `target` binds.
    fn bind_target(&mut self, target: &Expr) {
        match &target.kind {
            ExprKind::Name(n) => self.bound.push(intern(n)),
            ExprKind::Tuple(items) | ExprKind::List(items) => {
                items.iter().for_each(|i| self.bind_target(i));
            }
            ExprKind::Starred(inner) => self.bind_target(inner),
            _ => {}
        }
    }

    /// Notes a `lambda` or list comprehension anywhere in `expr`.
    fn scan(&mut self, expr: &Expr) {
        if !self.dynamic {
            pysrc::visit::walk_expr(expr, &mut |e| {
                if matches!(e.kind, ExprKind::Lambda { .. } | ExprKind::ListComp { .. }) {
                    self.dynamic = true;
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prep(src: &str) -> Arc<PreparedModule> {
        prepare(Arc::new(pysrc::parse_module(src, "m.py").unwrap()))
    }

    #[test]
    fn leaf_function_gets_slots() {
        let pm = prep("def f(a, b):\n    c = a + b\n    return c\n");
        let (_, proto) = pm
            .protos
            .iter()
            .next()
            .expect("one proto for f");
        assert!(!proto.dynamic);
        assert_eq!(proto.slots.len(), 3, "a, b, c");
        assert_eq!(proto.params.len(), 2);
        let syms: Vec<&str> = proto.slots.iter().map(|s| s.as_str()).collect();
        assert!(syms.contains(&"a") && syms.contains(&"b") && syms.contains(&"c"));
    }

    #[test]
    fn nested_def_forces_dynamic_scope() {
        let pm = prep(concat!(
            "def outer():\n",
            "    x = 1\n",
            "    def inner():\n",
            "        return x\n",
            "    return inner\n",
        ));
        let outer = pm
            .protos
            .values()
            .find(|p| p.name == "outer")
            .expect("outer prepared");
        let inner = pm
            .protos
            .values()
            .find(|p| p.name == "inner")
            .expect("inner prepared");
        assert!(outer.dynamic, "closure-captured scope stays dynamic");
        assert!(!inner.dynamic, "leaf closure body gets slots");
        assert_eq!(inner.slots.len(), 0, "inner has no locals");
    }

    #[test]
    fn global_decls_excluded_from_slots() {
        let pm = prep("def f():\n    global g\n    g = 1\n    h = 2\n");
        let proto = pm.protos.values().next().unwrap();
        assert!(!proto.dynamic);
        assert_eq!(proto.slots.len(), 1);
        assert_eq!(proto.slots[0].as_str(), "h");
        assert_eq!(proto.global_decls.len(), 1);
        assert_eq!(proto.global_decls[0].as_str(), "g");
    }

    #[test]
    fn comprehension_keeps_scope_dynamic() {
        let pm = prep("def f(xs):\n    ys = [x for x in xs]\n    return ys\n");
        let proto = pm.protos.values().next().unwrap();
        assert!(proto.dynamic, "list comp target semantics need a scope");
    }

    #[test]
    fn module_names_resolve_global_and_attrs_resolve() {
        let pm = prep("x = 1\ny = x.bit_length\n");
        let module = &pm.module;
        let mut saw_global = false;
        let mut saw_attr = false;
        for stmt in &module.body {
            pysrc::visit::walk_exprs(stmt, &mut |e| match pm.module_proto.table.res(e.id) {
                NameRes::Global(_) => saw_global = true,
                NameRes::Attr(sym) => {
                    assert_eq!(sym.as_str(), "bit_length");
                    saw_attr = true;
                }
                _ => {}
            });
        }
        assert!(saw_global && saw_attr);
    }
}
