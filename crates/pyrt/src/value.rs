//! Runtime values for the mini-Python interpreter.
//!
//! Values are a small `Copy` enum: unboxed immediates (`None`, `Bool`,
//! `Int`, `Float`) plus 32-bit handles into typed slabs owned by the
//! per-`Vm` [`Heap`]. Aliasing is handle equality: copying a `Value`
//! copies the handle, so every binding of the same list/dict/instance
//! refers to the same slab slot, giving Python's reference semantics
//! without per-copy refcount traffic. Slab slots are never freed or
//! reused while the `Vm` lives; the whole arena drops with the `Vm`
//! (campaign VMs are short-lived, so no GC is needed).

use crate::intern::{intern, try_intern, Symbol};
use crate::prepare::FuncProto;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::Arc;

/// A runtime value: unboxed immediates or a 32-bit handle into one of
/// the [`Heap`]'s typed slabs. 16 bytes, `Copy` — stack pushes, slot
/// writes, and argument passing are plain memcpys with no drop glue.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// `None`.
    None,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Immutable string (short strings are interned per-heap).
    Str(u32),
    /// Mutable list.
    List(u32),
    /// Immutable tuple.
    Tuple(u32),
    /// Insertion-ordered dictionary with a lazy hash index over the
    /// entries (O(1) lookup past a small size, deterministic iteration).
    Dict(u32),
    /// Mutable set (represented as an ordered vec of unique values).
    Set(u32),
    /// User-defined function (or method before binding).
    Func(u32),
    /// A callable (user function or native) bound to a receiver.
    BoundMethod(u32),
    /// A class object.
    Class(u32),
    /// A class instance.
    Instance(u32),
    /// Native (Rust-implemented) function or built-in method.
    Native(u32),
    /// A native module namespace.
    Module(u32),
}

/// Entries per slab chunk. Chunked storage keeps allocated objects at
/// fixed addresses (so `get` can hand out references that stay valid
/// for the heap's lifetime) while amortizing allocator calls.
const SLAB_CHUNK: usize = 256;

/// An append-only typed arena: `alloc` hands out dense sequential
/// `u32` ids, `get` resolves an id to a reference that stays valid
/// until the slab is dropped. Interior-mutable (`alloc` takes `&self`)
/// so any `&Vm`/`&Heap` context can create objects.
struct Slab<T> {
    /// Raw chunk pointers (not `Box`/`Vec` elements, so outstanding
    /// `get` references are never invalidated by spine reallocation or
    /// aliased by a uniquely-borrowed owner).
    chunks: RefCell<Vec<*mut T>>,
    len: Cell<u32>,
}

impl<T> Slab<T> {
    fn new() -> Slab<T> {
        Slab {
            chunks: RefCell::new(Vec::new()),
            len: Cell::new(0),
        }
    }

    /// Appends a value, returning its id. Ids are sequential and never
    /// reused, so allocation order is deterministic for a given program
    /// (both engines allocate in the same order, keeping hashes and
    /// reprs engine-independent).
    fn alloc(&self, value: T) -> u32 {
        let id = self.len.get();
        let idx = id as usize;
        let (chunk_idx, offset) = (idx / SLAB_CHUNK, idx % SLAB_CHUNK);
        let mut chunks = self.chunks.borrow_mut();
        if chunk_idx == chunks.len() {
            let mut chunk = Vec::<T>::with_capacity(SLAB_CHUNK);
            let ptr = chunk.as_mut_ptr();
            std::mem::forget(chunk);
            chunks.push(ptr);
        }
        // SAFETY: `offset` is within the chunk's SLAB_CHUNK capacity
        // and this slot has never been initialized — ids are handed out
        // sequentially and never reused, so no live reference points at
        // it and no previous value is overwritten.
        unsafe { chunks[chunk_idx].add(offset).write(value) };
        self.len
            .set(id.checked_add(1).expect("slab full: u32 ids exhausted"));
        id
    }

    /// Resolves an id. The returned reference stays valid for the
    /// slab's whole lifetime (chunks never move and slots are never
    /// dropped until the slab is), but is conservatively tied to
    /// `&self`.
    fn get(&self, id: u32) -> &T {
        assert!(id < self.len.get(), "stale heap handle {id}");
        let idx = id as usize;
        let ptr = self.chunks.borrow()[idx / SLAB_CHUNK];
        // SAFETY: the slot was initialized by `alloc` (id < len); the
        // chunk allocation never moves and is only freed in `drop`, so
        // the reference is valid for the slab's lifetime. The RefCell
        // guard on the spine is released before returning, so `alloc`
        // can run while references from `get` are outstanding — it only
        // writes to never-referenced slots.
        unsafe { &*ptr.add(idx % SLAB_CHUNK) }
    }
}

impl<T> Drop for Slab<T> {
    fn drop(&mut self) {
        let chunks = self.chunks.get_mut();
        let mut remaining = self.len.get() as usize;
        for &ptr in chunks.iter() {
            let live = remaining.min(SLAB_CHUNK);
            // SAFETY: reconstructs the chunk Vec forgotten in `alloc`
            // with its `live` initialized elements; dropping it drops
            // the elements and frees the chunk allocation exactly once.
            drop(unsafe { Vec::from_raw_parts(ptr, live, SLAB_CHUNK) });
            remaining -= live;
        }
    }
}

/// A heap-resident string: immutable text plus a lazily cached FNV-1a
/// hash (0 = not yet computed; a genuine 0 hash just recomputes).
pub struct StrObj {
    text: Box<str>,
    hash: Cell<u64>,
}

/// A callable bound to a receiver (`obj.method`).
#[derive(Clone, Copy)]
pub struct BoundObj {
    /// The unbound callable (`Value::Func` or `Value::Native`).
    pub func: Value,
    /// The receiver prepended to every call.
    pub recv: Value,
}

/// The most elements a list, tuple or `range` — or bytes a string —
/// one operation may build. Operations whose result length is a sum or
/// product of their operands' lengths check it *before* allocating: a
/// failed allocation aborts the process, where no `catch_unwind` sees
/// it.
pub const MAX_SEQUENCE_LEN: usize = 4_000_000;

/// `len` (`None`: the arithmetic that produced it overflowed), if it is
/// within [`MAX_SEQUENCE_LEN`].
///
/// # Errors
///
/// `ValueError` otherwise.
pub fn bounded_len(len: Option<usize>) -> Result<usize, crate::exc::PyExc> {
    match len {
        Some(len) if len <= MAX_SEQUENCE_LEN => Ok(len),
        _ => Err(crate::exc::PyExc::value_error("sequence too large for this VM")),
    }
}

/// Strings at or below this byte length are interned per-heap: equal
/// short strings share one handle, so the hot comparisons in dict and
/// scope lookups are id compares. Long strings allocate fresh slots.
const MAX_INTERNED_STR: usize = 64;

/// Hasher for tables whose keys already are hashes (the intern table is
/// keyed by the FNV-1a hash `new_str` computes anyway): the key goes
/// through unchanged instead of being SipHashed a second time. Only for
/// keys the program derives itself, never for text from outside.
#[derive(Default)]
struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("pass-through tables are keyed by u64");
    }
    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Interned string ids sharing one FNV-1a hash: the first lives inline,
/// so the (practically universal) collision-free case costs no `Vec`;
/// `more` never allocates until two distinct short strings collide.
struct InternSlot {
    first: u32,
    more: Vec<u32>,
}

/// The heap's slab kinds, in [`HeapStats::objects`] order.
pub const SLAB_KINDS: [&str; 11] = [
    "str", "list", "tuple", "dict", "set", "func", "bound", "class", "instance", "native", "module",
];

/// Objects ever allocated per slab kind plus the intern table's hit and
/// miss counts, read off a [`Heap`] when its container is torn down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Objects allocated per slab, parallel to [`SLAB_KINDS`].
    pub objects: [u64; SLAB_KINDS.len()],
    /// Short strings that found their handle in the intern table.
    pub intern_hits: u64,
    /// Short strings that were new to the table.
    pub intern_misses: u64,
}

/// The per-`Vm` object heap: one append-only typed slab per aggregate
/// kind, plus the short-string intern table. All allocation goes
/// through `&self` (interior mutability), so both interpreter engines
/// and native builtins can allocate from shared-borrow contexts.
/// Everything is reclaimed at once when the owning `Vm` drops.
pub struct Heap {
    strs: Slab<StrObj>,
    lists: Slab<RefCell<Vec<Value>>>,
    tuples: Slab<Vec<Value>>,
    dicts: Slab<RefCell<DictObj>>,
    sets: Slab<RefCell<Vec<Value>>>,
    funcs: Slab<FuncObj>,
    bounds: Slab<BoundObj>,
    classes: Slab<ClassObj>,
    instances: Slab<InstanceObj>,
    natives: Slab<NativeObj>,
    modules: Slab<ModuleObj>,
    /// fnv1a(text) → candidate string ids (hash-consing for short
    /// strings; collisions resolved by content compare). Probed with
    /// the FNV hash itself.
    interned: RefCell<HashMap<u64, InternSlot, BuildHasherDefault<PassThroughHasher>>>,
    intern_hits: Cell<u64>,
    intern_misses: Cell<u64>,
}

impl Default for Heap {
    fn default() -> Heap {
        Heap::new()
    }
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Heap {
        Heap {
            strs: Slab::new(),
            lists: Slab::new(),
            tuples: Slab::new(),
            dicts: Slab::new(),
            sets: Slab::new(),
            funcs: Slab::new(),
            bounds: Slab::new(),
            classes: Slab::new(),
            instances: Slab::new(),
            natives: Slab::new(),
            modules: Slab::new(),
            interned: RefCell::new(HashMap::default()),
            intern_hits: Cell::new(0),
            intern_misses: Cell::new(0),
        }
    }

    /// Allocation and interning counts so far (plain reads of counters
    /// the slabs keep anyway).
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            objects: [
                self.strs.len.get(),
                self.lists.len.get(),
                self.tuples.len.get(),
                self.dicts.len.get(),
                self.sets.len.get(),
                self.funcs.len.get(),
                self.bounds.len.get(),
                self.classes.len.get(),
                self.instances.len.get(),
                self.natives.len.get(),
                self.modules.len.get(),
            ]
            .map(u64::from),
            intern_hits: self.intern_hits.get(),
            intern_misses: self.intern_misses.get(),
        }
    }

    // ---- constructors

    /// Creates a string value, interning short strings.
    pub fn new_str(&self, s: &str) -> Value {
        self.new_text(Cow::Borrowed(s))
    }

    /// Creates a string value from an owned `String`: on an intern miss
    /// and on the non-interned path the heap adopts the caller's buffer
    /// instead of copying it.
    pub fn new_string(&self, s: String) -> Value {
        self.new_text(Cow::Owned(s))
    }

    /// Creates a string value from borrowed or owned text: one hash,
    /// one table probe, and — only when the string is new — one buffer
    /// (the caller's, if it was owned).
    pub fn new_text(&self, s: Cow<'_, str>) -> Value {
        if s.len() > MAX_INTERNED_STR {
            return Value::Str(self.strs.alloc(StrObj {
                text: s.into(),
                hash: Cell::new(0),
            }));
        }
        let h = fnv1a(s.as_bytes());
        let fresh = |s: Cow<'_, str>| {
            self.intern_misses.set(self.intern_misses.get() + 1);
            self.strs.alloc(StrObj {
                text: s.into(),
                hash: Cell::new(h),
            })
        };
        let id = match self.interned.borrow_mut().entry(h) {
            Entry::Vacant(e) => {
                let first = fresh(s);
                e.insert(InternSlot {
                    first,
                    more: Vec::new(),
                });
                first
            }
            Entry::Occupied(e) => {
                let slot = e.into_mut();
                let known = std::iter::once(slot.first)
                    .chain(slot.more.iter().copied())
                    .find(|&id| self.str(id) == &*s);
                match known {
                    Some(id) => {
                        self.intern_hits.set(self.intern_hits.get() + 1);
                        id
                    }
                    None => {
                        let id = fresh(s);
                        slot.more.push(id);
                        id
                    }
                }
            }
        };
        Value::Str(id)
    }

    /// Creates a list value.
    pub fn new_list(&self, items: Vec<Value>) -> Value {
        Value::List(self.lists.alloc(RefCell::new(items)))
    }

    /// Creates a tuple value.
    pub fn new_tuple(&self, items: Vec<Value>) -> Value {
        Value::Tuple(self.tuples.alloc(items))
    }

    /// Creates a dict value from a prepared [`DictObj`].
    pub fn new_dict(&self, dict: DictObj) -> Value {
        Value::Dict(self.dicts.alloc(RefCell::new(dict)))
    }

    /// Creates a dict value from key/value pairs (later keys replace
    /// earlier equal keys, like repeated assignment).
    pub fn new_dict_from(&self, pairs: Vec<(Value, Value)>) -> Value {
        let mut d = DictObj::new();
        for (k, v) in pairs {
            d.set(self, k, v);
        }
        self.new_dict(d)
    }

    /// Creates a set value (caller guarantees uniqueness).
    pub fn new_set(&self, items: Vec<Value>) -> Value {
        Value::Set(self.sets.alloc(RefCell::new(items)))
    }

    /// Creates a function value.
    pub fn new_func(&self, func: FuncObj) -> Value {
        Value::Func(self.funcs.alloc(func))
    }

    /// Creates a bound method value.
    pub fn new_bound(&self, func: Value, recv: Value) -> Value {
        Value::BoundMethod(self.bounds.alloc(BoundObj { func, recv }))
    }

    /// Creates a class object, returning its id (wrap in
    /// [`Value::Class`] for a value).
    pub fn new_class(&self, class: ClassObj) -> u32 {
        self.classes.alloc(class)
    }

    /// Creates a class instance value.
    pub fn new_instance(&self, instance: InstanceObj) -> Value {
        Value::Instance(self.instances.alloc(instance))
    }

    /// Creates a named native-function value.
    pub fn new_native(&self, name: &str, imp: Rc<NativeImpl>) -> Value {
        Value::Native(self.natives.alloc(NativeObj::Fn {
            name: name.into(),
            imp,
        }))
    }

    /// Creates a built-in method value bound to `recv`. Each fetch
    /// allocates a fresh slot, matching Python (and the previous
    /// representation): two fetches of `s.upper` are distinct objects.
    pub fn new_method(&self, kind: crate::methods::MethodKind, recv: Value) -> Value {
        Value::Native(self.natives.alloc(NativeObj::Method { kind, recv }))
    }

    /// Creates a module namespace, returning its id (wrap in
    /// [`Value::Module`] for a value).
    pub fn new_module(&self, name: &str) -> u32 {
        self.modules.alloc(ModuleObj {
            name: name.to_string(),
            attrs: RefCell::new(Vec::new()),
        })
    }

    // ---- accessors

    /// String text for a `Value::Str` handle.
    pub fn str(&self, id: u32) -> &str {
        &self.strs.get(id).text
    }

    /// Cached FNV-1a hash of a string.
    pub fn str_hash(&self, id: u32) -> u64 {
        let obj = self.strs.get(id);
        let h = obj.hash.get();
        if h != 0 {
            return h;
        }
        let h = fnv1a(obj.text.as_bytes());
        obj.hash.set(h);
        h
    }

    /// List storage for a `Value::List` handle.
    pub fn list(&self, id: u32) -> &RefCell<Vec<Value>> {
        self.lists.get(id)
    }

    /// Tuple items for a `Value::Tuple` handle.
    pub fn tuple(&self, id: u32) -> &[Value] {
        self.tuples.get(id)
    }

    /// Dict storage for a `Value::Dict` handle.
    pub fn dict(&self, id: u32) -> &RefCell<DictObj> {
        self.dicts.get(id)
    }

    /// Set storage for a `Value::Set` handle.
    pub fn set(&self, id: u32) -> &RefCell<Vec<Value>> {
        self.sets.get(id)
    }

    /// Function object for a `Value::Func` handle.
    pub fn func(&self, id: u32) -> &FuncObj {
        self.funcs.get(id)
    }

    /// Bound-method object for a `Value::BoundMethod` handle.
    pub fn bound(&self, id: u32) -> &BoundObj {
        self.bounds.get(id)
    }

    /// Class object for a `Value::Class` handle.
    pub fn class(&self, id: u32) -> &ClassObj {
        self.classes.get(id)
    }

    /// Instance object for a `Value::Instance` handle.
    pub fn instance(&self, id: u32) -> &InstanceObj {
        self.instances.get(id)
    }

    /// Native object for a `Value::Native` handle.
    pub fn native(&self, id: u32) -> &NativeObj {
        self.natives.get(id)
    }

    /// Module object for a `Value::Module` handle.
    pub fn module(&self, id: u32) -> &ModuleObj {
        self.modules.get(id)
    }

    // ---- class helpers (need the heap to walk the base chain)

    /// Symbol-keyed class attribute lookup through the inheritance
    /// chain.
    pub fn class_lookup_sym(&self, class: u32, sym: Symbol) -> Option<Value> {
        let mut id = class;
        loop {
            let c = self.class(id);
            if let Some((_, v)) = c.attrs.borrow().iter().find(|(n, _)| *n == sym) {
                return Some(*v);
            }
            id = c.base?;
        }
    }

    /// True if `class` is `other` or a subclass of it (name equality
    /// also counts, matching the previous representation where
    /// same-named exception classes from different registrations
    /// matched).
    pub fn class_isa(&self, class: u32, other: u32) -> bool {
        let other_name = &self.class(other).name;
        let mut id = class;
        loop {
            if id == other {
                return true;
            }
            let c = self.class(id);
            if c.name == *other_name {
                return true;
            }
            match c.base {
                Some(base) => id = base,
                None => return false,
            }
        }
    }
}

/// Entry count past which a [`DictObj`] builds its hash index. Below
/// this a linear scan over the entry vec is faster than hashing.
const DICT_INDEX_THRESHOLD: usize = 8;

/// Insertion-ordered dictionary object.
///
/// Entries live in one insertion-ordered vec (iteration, `repr`, and
/// report output stay deterministic). Once the dict grows past
/// [`DICT_INDEX_THRESHOLD`], a `hash → entry indices` side index makes
/// string/number-keyed access O(1); unhashable keys (lists, dicts)
/// permanently degrade that dict to the linear path, preserving the old
/// anything-goes key semantics.
#[derive(Default)]
pub struct DictObj {
    entries: Vec<(Value, Value)>,
    index: Option<HashMap<u64, Vec<u32>>>,
    unindexable: bool,
}

impl DictObj {
    /// Creates an empty dict.
    pub fn new() -> DictObj {
        DictObj::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn find(&self, heap: &Heap, key: Value) -> Option<usize> {
        self.find_hashed(heap, key, || value_hash(heap, key))
    }

    /// `find` with the key hash supplied lazily, so callers that
    /// already computed it (the `set` path) hash only once.
    fn find_hashed(
        &self,
        heap: &Heap,
        key: Value,
        hash: impl FnOnce() -> Option<u64>,
    ) -> Option<usize> {
        if let Some(index) = &self.index {
            let h = hash()?;
            return index
                .get(&h)?
                .iter()
                .copied()
                .find(|&i| values_eq(heap, self.entries[i as usize].0, key))
                .map(|i| i as usize);
        }
        self.entries
            .iter()
            .position(|&(k, _)| values_eq(heap, k, key))
    }

    /// Looks up a key by Python equality.
    ///
    /// `find` handles both paths: hash-index probe when the index is
    /// live (an unhashable probe key cannot equal any indexed key, so
    /// the `None` short-circuit is exact), linear scan otherwise.
    pub fn get(&self, heap: &Heap, key: Value) -> Option<Value> {
        self.find(heap, key).map(|i| self.entries[i].1)
    }

    fn build_index(&mut self, heap: &Heap) {
        let mut index: HashMap<u64, Vec<u32>> = HashMap::with_capacity(self.entries.len());
        for (i, &(k, _)) in self.entries.iter().enumerate() {
            match value_hash(heap, k) {
                Some(h) => index.entry(h).or_default().push(i as u32),
                None => {
                    self.unindexable = true;
                    return;
                }
            }
        }
        self.index = Some(index);
    }

    /// Inserts or replaces a key.
    pub fn set(&mut self, heap: &Heap, key: Value, value: Value) {
        let key_hash = value_hash(heap, key);
        if key_hash.is_none() {
            // Unhashable key: this dict stays on the linear path.
            self.unindexable = true;
            self.index = None;
        } else if self.index.is_none()
            && !self.unindexable
            && self.entries.len() + 1 > DICT_INDEX_THRESHOLD
        {
            self.build_index(heap);
        }
        if let Some(i) = self.find_hashed(heap, key, || key_hash) {
            self.entries[i].1 = value;
            return;
        }
        let slot = self.entries.len() as u32;
        self.entries.push((key, value));
        if let (Some(index), Some(h)) = (&mut self.index, key_hash) {
            index.entry(h).or_default().push(slot);
        }
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, heap: &Heap, key: Value) -> Option<Value> {
        let idx = self.find(heap, key)?;
        let (_, v) = self.entries.remove(idx);
        if self.index.is_some() {
            // Removal shifts every later entry; rebuilding keeps the
            // index simple and removal is rare next to lookup.
            self.build_index(heap);
        }
        Some(v)
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(Value, Value)> {
        self.entries.iter()
    }
}

/// FNV-1a over raw bytes — shared by string hashing here and the
/// prepared-module source stamps in [`crate::prepare`].
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Hashes a value consistently with [`values_eq`]'s coercions
/// (`1 == 1.0 == True` all hash alike), or `None` for unhashable
/// values. Mutable containers are unhashable; identity-compared values
/// (instances, classes, functions, modules) hash by handle (tagged per
/// slab, so `Instance#0` and `Class#0` hash apart).
pub fn value_hash(heap: &Heap, v: Value) -> Option<u64> {
    fn mix(x: u64) -> u64 {
        // splitmix64 finalizer.
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    match v {
        Value::None => Some(mix(u64::MAX)),
        Value::Bool(b) => Some(mix(b as u64)),
        Value::Int(i) => {
            // An int whose f64 projection is lossy (|i| > 2^53) can
            // compare equal to a float (values_eq compares `i as f64`),
            // so such ints must hash through the same projection the
            // equality uses.
            let projected = (i as f64) as i64;
            Some(mix(if projected == i { i as u64 } else { projected as u64 }))
        }
        Value::Float(f) => {
            // Numeric coercion: a float equal to an int must hash as
            // that int (values_eq treats 2 == 2.0).
            if f.is_finite() && f.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&f)
            {
                Some(mix(f as i64 as u64))
            } else {
                Some(mix(f.to_bits()))
            }
        }
        Value::Str(s) => Some(heap.str_hash(s)),
        Value::Tuple(t) => {
            let mut h: u64 = 0x345C_91A7;
            for &item in heap.tuple(t) {
                h = mix(h ^ value_hash(heap, item)?);
            }
            Some(h)
        }
        Value::Instance(i) => Some(mix((1u64 << 32) | i as u64)),
        Value::Class(c) => Some(mix((2u64 << 32) | c as u64)),
        Value::Func(f) => Some(mix((3u64 << 32) | f as u64)),
        Value::Native(n) => Some(mix((4u64 << 32) | n as u64)),
        Value::Module(m) => Some(mix((5u64 << 32) | m as u64)),
        Value::List(_) | Value::Dict(_) | Value::Set(_) | Value::BoundMethod(_) => None,
    }
}

/// A user-defined function: the immutable prepared prototype (shared
/// across every call and every experiment that reuses the prepared
/// module) plus the capture environment of this particular `def`.
pub struct FuncObj {
    /// Prepared prototype: name, parameter slots, resolved body.
    pub proto: Arc<FuncProto>,
    /// Default values, evaluated once at `def` time (Python semantics),
    /// parallel to `proto.params`.
    pub defaults: Vec<Option<Value>>,
    /// The module globals this function closes over.
    pub globals: ScopeRef,
    /// Enclosing local scopes captured by closures (innermost last),
    /// shared with every frame of this function: a call bumps a
    /// refcount instead of cloning a vector.
    pub captured: Rc<[ScopeRef]>,
}

impl FuncObj {
    /// Function name (for tracebacks and reprs).
    pub fn name(&self) -> &str {
        &self.proto.name
    }
}

/// A class object.
pub struct ClassObj {
    /// Class name.
    pub name: String,
    /// Single base class (slab id), if any.
    pub base: Option<u32>,
    /// Methods and class attributes, symbol-keyed.
    pub attrs: RefCell<Vec<(Symbol, Value)>>,
    /// True for the built-in exception classes and user subclasses of
    /// them (set at class creation by walking `base`).
    pub is_exception: bool,
}

/// A class instance.
pub struct InstanceObj {
    /// The instance's class (slab id).
    pub class: u32,
    /// Instance attributes, symbol-keyed.
    pub attrs: RefCell<Vec<(Symbol, Value)>>,
}

impl InstanceObj {
    /// Reads an instance attribute (not falling back to the class).
    pub fn get_attr(&self, name: &str) -> Option<Value> {
        self.get_attr_sym(try_intern(name)?)
    }

    /// Symbol-keyed instance attribute read.
    pub fn get_attr_sym(&self, sym: Symbol) -> Option<Value> {
        self.attrs
            .borrow()
            .iter()
            .find(|(n, _)| *n == sym)
            .map(|&(_, v)| v)
    }

    /// Writes an instance attribute.
    pub fn set_attr(&self, name: &str, value: Value) {
        self.set_attr_sym(intern(name), value);
    }

    /// Symbol-keyed instance attribute write.
    pub fn set_attr_sym(&self, sym: Symbol, value: Value) {
        let mut attrs = self.attrs.borrow_mut();
        if let Some(slot) = attrs.iter_mut().find(|(n, _)| *n == sym) {
            slot.1 = value;
        } else {
            attrs.push((sym, value));
        }
    }
}

/// A native module namespace (e.g. the simulated `os`, `urllib`).
pub struct ModuleObj {
    /// Module name.
    pub name: String,
    /// Module attributes, symbol-keyed.
    pub attrs: RefCell<Vec<(Symbol, Value)>>,
}

impl ModuleObj {
    /// Reads a module attribute.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.get_sym(try_intern(name)?)
    }

    /// Symbol-keyed module attribute read.
    pub fn get_sym(&self, sym: Symbol) -> Option<Value> {
        self.attrs
            .borrow()
            .iter()
            .find(|(n, _)| *n == sym)
            .map(|&(_, v)| v)
    }

    /// Writes a module attribute.
    pub fn set(&self, name: &str, value: Value) {
        self.set_sym(intern(name), value);
    }

    /// Symbol-keyed module attribute write.
    pub fn set_sym(&self, sym: Symbol, value: Value) {
        let mut attrs = self.attrs.borrow_mut();
        if let Some(slot) = attrs.iter_mut().find(|(n, _)| *n == sym) {
            slot.1 = value;
        } else {
            attrs.push((sym, value));
        }
    }
}

/// A keyword argument's name. A name written in the source is the
/// interned [`Symbol`]'s `&'static str` (no allocation per call); a key
/// of a run-time `**mapping` stays owned, so arbitrary program strings
/// never enter the process-wide interner.
pub type KwName = Cow<'static, str>;

/// Signature of a native function: `(vm, positional args, keyword
/// args)`. Both are borrowed: the dispatcher keeps the (pooled) vectors.
pub type NativeImpl =
    dyn Fn(&mut crate::vm::Vm, &[Value], &[(KwName, Value)]) -> Result<Value, crate::exc::PyExc>;

/// A native callable: either a named Rust function, or a built-in
/// method kind bound to its receiver (the latter avoids allocating a
/// fresh closure per attribute fetch — the hot path for `l.append`,
/// `s.split`, etc.).
pub enum NativeObj {
    /// Named native function.
    Fn {
        /// Name (for error messages).
        name: Box<str>,
        /// Implementation.
        imp: Rc<NativeImpl>,
    },
    /// Built-in method on a primitive receiver.
    Method {
        /// Which method (dispatched in [`crate::methods`]).
        kind: crate::methods::MethodKind,
        /// The receiver.
        recv: Value,
    },
}

impl NativeObj {
    /// Callable name (for error messages and reprs).
    pub fn name(&self) -> &str {
        match self {
            NativeObj::Fn { name, .. } => name,
            NativeObj::Method { kind, .. } => kind.name(),
        }
    }
}

/// A mutable name→value scope shared by reference.
pub type ScopeRef = Rc<RefCell<Scope>>;

/// A flat symbol→value binding table. Compares are `u32` compares; the
/// string convenience methods intern on the way in and are meant for
/// native-module setup, not the interpreter hot path.
#[derive(Default)]
pub struct Scope {
    bindings: Vec<(Symbol, Value)>,
}

impl Scope {
    /// Creates an empty scope behind an `Rc<RefCell<..>>`.
    pub fn new_ref() -> ScopeRef {
        Rc::new(RefCell::new(Scope::default()))
    }

    /// Looks up a name (non-inserting probe; see [`try_intern`]).
    pub fn get(&self, name: &str) -> Option<Value> {
        self.get_sym(try_intern(name)?)
    }

    /// Symbol-keyed lookup.
    pub fn get_sym(&self, sym: Symbol) -> Option<Value> {
        self.bindings
            .iter()
            .find(|(n, _)| *n == sym)
            .map(|&(_, v)| v)
    }

    /// Binds a name.
    pub fn set(&mut self, name: &str, value: Value) {
        self.set_sym(intern(name), value);
    }

    /// Symbol-keyed binding.
    pub fn set_sym(&mut self, sym: Symbol, value: Value) {
        if let Some(slot) = self.bindings.iter_mut().find(|(n, _)| *n == sym) {
            slot.1 = value;
        } else {
            self.bindings.push((sym, value));
        }
    }

    /// Removes a binding, returning whether it existed.
    pub fn unset(&mut self, name: &str) -> bool {
        try_intern(name).is_some_and(|sym| self.unset_sym(sym))
    }

    /// Symbol-keyed removal.
    pub fn unset_sym(&mut self, sym: Symbol) -> bool {
        let before = self.bindings.len();
        self.bindings.retain(|(n, _)| *n != sym);
        self.bindings.len() != before
    }

    /// True if the name is bound.
    pub fn contains(&self, name: &str) -> bool {
        try_intern(name).is_some_and(|sym| self.contains_sym(sym))
    }

    /// Symbol-keyed membership test.
    pub fn contains_sym(&self, sym: Symbol) -> bool {
        self.bindings.iter().any(|(n, _)| *n == sym)
    }

    /// Snapshot of all bindings in insertion order (symbol keys).
    pub fn bindings_syms(&self) -> Vec<(Symbol, Value)> {
        self.bindings.clone()
    }
}

impl Value {
    /// Python type name (`type(x).__name__`).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::None => "NoneType",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Tuple(_) => "tuple",
            Value::Dict(_) => "dict",
            Value::Set(_) => "set",
            Value::Func(_) | Value::BoundMethod(_) | Value::Native(_) => "function",
            Value::Class(_) => "type",
            Value::Instance(_) => "instance",
            Value::Module(_) => "module",
        }
    }

    /// Python truthiness.
    pub fn truthy(self, heap: &Heap) -> bool {
        match self {
            Value::None => false,
            Value::Bool(b) => b,
            Value::Int(i) => i != 0,
            Value::Float(f) => f != 0.0,
            Value::Str(s) => !heap.str(s).is_empty(),
            Value::List(l) => !heap.list(l).borrow().is_empty(),
            Value::Tuple(t) => !heap.tuple(t).is_empty(),
            Value::Dict(d) => !heap.dict(d).borrow().is_empty(),
            Value::Set(s) => !heap.set(s).borrow().is_empty(),
            _ => true,
        }
    }

    /// `repr()` rendering.
    pub fn repr(self, heap: &Heap) -> String {
        match self {
            Value::None => "None".into(),
            Value::Bool(true) => "True".into(),
            Value::Bool(false) => "False".into(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                let s = format!("{f}");
                if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                    s
                } else {
                    format!("{s}.0")
                }
            }
            Value::Str(s) => format!(
                "'{}'",
                heap.str(s).replace('\\', "\\\\").replace('\'', "\\'")
            ),
            Value::List(l) => {
                let items: Vec<String> =
                    heap.list(l).borrow().iter().map(|v| v.repr(heap)).collect();
                format!("[{}]", items.join(", "))
            }
            Value::Tuple(t) => {
                let items: Vec<String> = heap.tuple(t).iter().map(|v| v.repr(heap)).collect();
                if items.len() == 1 {
                    format!("({},)", items[0])
                } else {
                    format!("({})", items.join(", "))
                }
            }
            Value::Dict(d) => {
                let items: Vec<String> = heap
                    .dict(d)
                    .borrow()
                    .iter()
                    .map(|(k, v)| format!("{}: {}", k.repr(heap), v.repr(heap)))
                    .collect();
                format!("{{{}}}", items.join(", "))
            }
            Value::Set(s) => {
                let items: Vec<String> =
                    heap.set(s).borrow().iter().map(|v| v.repr(heap)).collect();
                if items.is_empty() {
                    "set()".into()
                } else {
                    format!("{{{}}}", items.join(", "))
                }
            }
            Value::Func(f) => format!("<function {}>", heap.func(f).name()),
            Value::BoundMethod(b) => match heap.bound(b).func {
                Value::Func(f) => format!("<bound method {}>", heap.func(f).name()),
                Value::Native(n) => format!("<bound method {}>", heap.native(n).name()),
                other => format!("<bound method {}>", other.type_name()),
            },
            Value::Native(n) => format!("<built-in function {}>", heap.native(n).name()),
            Value::Class(c) => format!("<class '{}'>", heap.class(c).name),
            Value::Instance(i) => {
                format!("<{} instance>", heap.class(heap.instance(i).class).name)
            }
            Value::Module(m) => format!("<module '{}'>", heap.module(m).name),
        }
    }

    /// `str()` rendering (strings print bare, exceptions show message),
    /// borrowed from the heap when the value already holds the text.
    pub fn display(self, heap: &Heap) -> Cow<'_, str> {
        match self {
            Value::Str(s) => Cow::Borrowed(heap.str(s)),
            Value::Instance(i) if heap.class(heap.instance(i).class).is_exception => {
                match heap
                    .instance(i)
                    .get_attr_sym(crate::intern::well_known::sym_message())
                {
                    Some(v) => v.display(heap),
                    None => Cow::Borrowed(""),
                }
            }
            other => Cow::Owned(other.repr(heap)),
        }
    }

    /// [`Value::display`] as an owned `String`.
    pub fn to_display(self, heap: &Heap) -> String {
        self.display(heap).into_owned()
    }
}

/// Python `==` equality (deep, numeric-coercing).
pub fn values_eq(heap: &Heap, a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::None, Value::None) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x == y,
        (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => x as f64 == y,
        (Value::Bool(x), Value::Int(y)) | (Value::Int(y), Value::Bool(x)) => (x as i64) == y,
        (Value::Str(x), Value::Str(y)) => x == y || heap.str(x) == heap.str(y),
        (Value::List(x), Value::List(y)) => {
            let (x, y) = (heap.list(x).borrow(), heap.list(y).borrow());
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(&a, &b)| values_eq(heap, a, b))
        }
        (Value::Tuple(x), Value::Tuple(y)) => {
            let (x, y) = (heap.tuple(x), heap.tuple(y));
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(&a, &b)| values_eq(heap, a, b))
        }
        (Value::Dict(x), Value::Dict(y)) => {
            let (x, y) = (heap.dict(x).borrow(), heap.dict(y).borrow());
            x.len() == y.len()
                && x.iter()
                    .all(|&(k, v)| y.get(heap, k).is_some_and(|w| values_eq(heap, v, w)))
        }
        (Value::Set(x), Value::Set(y)) => {
            let (x, y) = (heap.set(x).borrow(), heap.set(y).borrow());
            x.len() == y.len()
                && x.iter()
                    .all(|&v| y.iter().any(|&w| values_eq(heap, v, w)))
        }
        (Value::Class(x), Value::Class(y)) => x == y,
        (Value::Instance(x), Value::Instance(y)) => x == y,
        (Value::Func(x), Value::Func(y)) => x == y,
        (Value::Native(x), Value::Native(y)) => x == y,
        (Value::Module(x), Value::Module(y)) => x == y,
        _ => false,
    }
}

/// Identity (`is` operator).
pub fn values_is(heap: &Heap, a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::None, Value::None) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        // CPython interns small ints; our corpus relies only on
        // `is None` / `is True`, but int identity is harmless.
        (Value::Int(x), Value::Int(y)) => x == y,
        // Equal-content strings are `is`-identical (matching the old
        // representation); short strings usually share a handle anyway.
        (Value::Str(x), Value::Str(y)) => x == y || heap.str(x) == heap.str(y),
        (Value::List(x), Value::List(y)) => x == y,
        (Value::Dict(x), Value::Dict(y)) => x == y,
        (Value::Set(x), Value::Set(y)) => x == y,
        (Value::Tuple(x), Value::Tuple(y)) => x == y,
        (Value::Instance(x), Value::Instance(y)) => x == y,
        (Value::Class(x), Value::Class(y)) => x == y,
        _ => false,
    }
}

/// Total ordering for `<`/`sorted()` on comparable values.
/// Returns `None` for incomparable types (→ `TypeError`).
pub fn values_cmp(heap: &Heap, a: Value, b: Value) -> Option<std::cmp::Ordering> {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(&y)),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(&y),
        (Value::Int(x), Value::Float(y)) => (x as f64).partial_cmp(&y),
        (Value::Float(x), Value::Int(y)) => x.partial_cmp(&(y as f64)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(&y)),
        (Value::Str(x), Value::Str(y)) => Some(heap.str(x).cmp(heap.str(y))),
        (Value::List(x), Value::List(y)) => {
            let (x, y) = (heap.list(x).borrow(), heap.list(y).borrow());
            for (&a, &b) in x.iter().zip(y.iter()) {
                match values_cmp(heap, a, b)? {
                    Ordering::Equal => continue,
                    other => return Some(other),
                }
            }
            Some(x.len().cmp(&y.len()))
        }
        (Value::Tuple(x), Value::Tuple(y)) => {
            let (x, y) = (heap.tuple(x), heap.tuple(y));
            for (&a, &b) in x.iter().zip(y.iter()) {
                match values_cmp(heap, a, b)? {
                    Ordering::Equal => continue,
                    other => return Some(other),
                }
            }
            Some(x.len().cmp(&y.len()))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        let h = Heap::new();
        assert!(!Value::None.truthy(&h));
        assert!(!Value::Int(0).truthy(&h));
        assert!(Value::Int(3).truthy(&h));
        assert!(!h.new_str("").truthy(&h));
        assert!(h.new_str("x").truthy(&h));
        assert!(!h.new_list(vec![]).truthy(&h));
        assert!(h.new_list(vec![Value::Int(1)]).truthy(&h));
    }

    #[test]
    fn equality_coerces_numbers() {
        let h = Heap::new();
        assert!(values_eq(&h, Value::Int(2), Value::Float(2.0)));
        assert!(values_eq(&h, Value::Bool(true), Value::Int(1)));
        assert!(!values_eq(&h, Value::Int(2), h.new_str("2")));
    }

    #[test]
    fn value_is_copy_and_small() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
        fn assert_copy<T: Copy>() {}
        assert_copy::<Value>();
    }

    #[test]
    fn short_strings_are_interned_long_are_not() {
        let h = Heap::new();
        let (a, b) = (h.new_str("hello"), h.new_string("hello".to_string()));
        match (a, b) {
            (Value::Str(x), Value::Str(y)) => assert_eq!(x, y, "short strings share a handle"),
            _ => unreachable!(),
        }
        let long = "x".repeat(100);
        let (c, d) = (h.new_str(&long), h.new_str(&long));
        match (c, d) {
            (Value::Str(x), Value::Str(y)) => assert_ne!(x, y, "long strings allocate fresh"),
            _ => unreachable!(),
        }
        // Content equality and identity still hold either way.
        assert!(values_eq(&h, c, d));
        assert!(values_is(&h, c, d));
    }

    #[test]
    fn slab_references_survive_growth() {
        let h = Heap::new();
        let first = match h.new_list(vec![Value::Int(42)]) {
            Value::List(id) => id,
            _ => unreachable!(),
        };
        let early: *const _ = h.list(first);
        // Push enough lists to span multiple chunks.
        for i in 0..(SLAB_CHUNK as i64 * 3) {
            h.new_list(vec![Value::Int(i)]);
        }
        assert_eq!(early, h.list(first) as *const _, "slot address is stable");
        assert!(matches!(h.list(first).borrow()[0], Value::Int(42)));
    }

    #[test]
    fn dict_insertion_order_preserved() {
        let h = Heap::new();
        let mut d = DictObj::new();
        d.set(&h, h.new_str("b"), Value::Int(1));
        d.set(&h, h.new_str("a"), Value::Int(2));
        d.set(&h, h.new_str("b"), Value::Int(3));
        let keys: Vec<String> = d.iter().map(|&(k, _)| k.to_display(&h)).collect();
        assert_eq!(keys, vec!["b", "a"]);
        assert!(values_eq(&h, d.get(&h, h.new_str("b")).unwrap(), Value::Int(3)));
    }

    #[test]
    fn dict_index_kicks_in_and_preserves_semantics() {
        let h = Heap::new();
        let mut d = DictObj::new();
        for i in 0..100 {
            d.set(&h, h.new_string(format!("k{i}")), Value::Int(i));
        }
        assert!(d.index.is_some(), "index built past the threshold");
        assert!(values_eq(&h, d.get(&h, h.new_str("k73")).unwrap(), Value::Int(73)));
        assert!(d.get(&h, h.new_str("missing")).is_none());
        // Overwrite keeps position; remove keeps order and lookups.
        d.set(&h, h.new_str("k10"), Value::Int(-1));
        assert!(values_eq(&h, d.get(&h, h.new_str("k10")).unwrap(), Value::Int(-1)));
        assert!(d.remove(&h, h.new_str("k50")).is_some());
        assert!(d.get(&h, h.new_str("k50")).is_none());
        assert!(values_eq(&h, d.get(&h, h.new_str("k99")).unwrap(), Value::Int(99)));
        let keys: Vec<String> = d.iter().map(|&(k, _)| k.to_display(&h)).collect();
        assert_eq!(keys[0], "k0");
        assert_eq!(keys.len(), 99);
    }

    #[test]
    fn dict_numeric_coercion_with_index() {
        let h = Heap::new();
        let mut d = DictObj::new();
        for i in 0..20 {
            d.set(&h, Value::Int(i), Value::Int(i * 10));
        }
        // 5.0 and True coerce to existing int keys even via the index.
        assert!(values_eq(&h, d.get(&h, Value::Float(5.0)).unwrap(), Value::Int(50)));
        assert!(values_eq(&h, d.get(&h, Value::Bool(true)).unwrap(), Value::Int(10)));
        d.set(&h, Value::Float(7.0), Value::Int(-7));
        assert_eq!(d.len(), 20, "7.0 replaced the int 7 entry");
        assert!(values_eq(&h, d.get(&h, Value::Int(7)).unwrap(), Value::Int(-7)));
    }

    #[test]
    fn dict_unhashable_keys_fall_back_to_linear() {
        let h = Heap::new();
        let mut d = DictObj::new();
        for i in 0..20 {
            d.set(&h, Value::Int(i), Value::Int(i));
        }
        let list_key = h.new_list(vec![Value::Int(1)]);
        d.set(&h, list_key, h.new_str("by-list"));
        assert!(d.index.is_none(), "unhashable key drops the index");
        assert!(values_eq(&h, d.get(&h, list_key).unwrap(), h.new_str("by-list")));
        assert!(values_eq(&h, d.get(&h, Value::Int(12)).unwrap(), Value::Int(12)));
    }

    #[test]
    fn value_hash_matches_values_eq() {
        let h = Heap::new();
        let pairs = [
            (Value::Int(2), Value::Float(2.0)),
            (Value::Bool(true), Value::Int(1)),
            (h.new_str("x"), h.new_str("x")),
            (
                h.new_tuple(vec![Value::Int(1), h.new_str("a")]),
                h.new_tuple(vec![Value::Float(1.0), h.new_str("a")]),
            ),
        ];
        for &(a, b) in &pairs {
            assert!(values_eq(&h, a, b));
            assert_eq!(value_hash(&h, a), value_hash(&h, b), "{a:?} vs {b:?}");
        }
        assert!(value_hash(&h, h.new_list(vec![])).is_none());
    }

    #[test]
    fn value_hash_agrees_with_eq_beyond_f64_precision() {
        // 2^53 + 1 projects lossily to 2^53 as f64, so values_eq treats
        // it as equal to Float(2^53): the hashes must agree too, or the
        // dict index would miss keys the linear scan matched.
        let h = Heap::new();
        let big_int = Value::Int((1i64 << 53) + 1);
        let alias_float = Value::Float((1i64 << 53) as f64);
        assert!(values_eq(&h, big_int, alias_float));
        assert_eq!(value_hash(&h, big_int), value_hash(&h, alias_float));
        // And through an indexed dict:
        let mut d = DictObj::new();
        for i in 0..10 {
            d.set(&h, Value::Int(i), Value::Int(i));
        }
        d.set(&h, big_int, h.new_str("big"));
        assert!(d.index.is_some());
        assert!(values_eq(&h, d.get(&h, alias_float).unwrap(), h.new_str("big")));
        d.set(&h, alias_float, h.new_str("replaced"));
        assert_eq!(d.len(), 11, "aliasing float replaced, not duplicated");
    }

    #[test]
    fn repr_matches_python() {
        let h = Heap::new();
        assert_eq!(
            h.new_list(vec![Value::Int(1), h.new_str("a")]).repr(&h),
            "[1, 'a']"
        );
        assert_eq!(h.new_tuple(vec![Value::Int(1)]).repr(&h), "(1,)");
        assert_eq!(Value::Float(2.0).repr(&h), "2.0");
    }

    #[test]
    fn compare_orders_sequences_lexicographically() {
        let h = Heap::new();
        let a = h.new_list(vec![Value::Int(1), Value::Int(2)]);
        let b = h.new_list(vec![Value::Int(1), Value::Int(3)]);
        assert_eq!(values_cmp(&h, a, b), Some(std::cmp::Ordering::Less));
        assert!(values_cmp(&h, Value::Int(1), h.new_str("x")).is_none());
    }
}
