//! Process-global string interner for identifiers.
//!
//! Every identifier the prepare pass resolves (variable, attribute,
//! parameter and keyword names) becomes a [`Symbol`] there, one
//! interner lookup per occurrence. Comparing such names at run time is a pointer compare and
//! resolution back to text is a plain field read, with no lock.
//!
//! Not every name is resolved ahead, though. The binding forms the tree
//! walk still executes by string take the interner's read lock at run
//! time — under the bytecode engine too, through its trampolines:
//!
//! * `import` and `class` bind their name through [`intern`] (so does
//!   `def` in the tree walk);
//! * `except … as e` binds `e` the same way;
//! * `del` of a name in a slot frame finds its slot by [`intern`];
//! * `from … import` reads each name off the module with a
//!   [`try_intern`] probe, then binds it through [`intern`].
//!
//! A name met first there takes the write lock once. Lowering these
//! forms to bytecode is the place to resolve their names at prepare.
//!
//! Interned strings are leaked (`Box::leak`), which is the standard
//! trade for `&'static str` resolution: the set of distinct
//! identifiers across a campaign is bounded by the source corpus, not
//! by the number of experiments, so memory growth stops as soon as
//! every module has been prepared once. The interner is shared across
//! threads (interning itself takes a lock; symbol use never does), so
//! prepared programs cached by the campaign engine resolve to the same
//! symbols on every worker.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned identifier: a handle to the unique leaked copy of the
/// string. Equality is a pointer compare — valid because the interner
/// guarantees one allocation per distinct string.
#[derive(Clone, Copy)]
pub struct Symbol(&'static str);

impl PartialEq for Symbol {
    fn eq(&self, other: &Symbol) -> bool {
        std::ptr::eq(self.0.as_ptr(), other.0.as_ptr())
    }
}

impl Eq for Symbol {}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.as_ptr() as usize);
    }
}

fn interner() -> &'static RwLock<HashMap<&'static str, Symbol>> {
    static INTERNER: OnceLock<RwLock<HashMap<&'static str, Symbol>>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Interns a string, returning its symbol. Already-interned strings hit
/// the shared read lock; only genuinely new strings take the write
/// lock (double-checked).
pub fn intern(s: &str) -> Symbol {
    let lock = interner();
    if let Some(&sym) = lock.read().expect("interner poisoned").get(s) {
        return sym;
    }
    let mut map = lock.write().expect("interner poisoned");
    if let Some(&sym) = map.get(s) {
        return sym;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    let sym = Symbol(leaked);
    map.insert(leaked, sym);
    sym
}

/// Looks a string up **without inserting** — the right call for every
/// runtime *read* path (`getattr`, scope probes by string): if the
/// string was never interned, no symbol-keyed table can contain it, so
/// the lookup can fail without permanently leaking attacker-controlled
/// strings (e.g. a mutant looping `getattr(obj, 'a_' + str(i))`).
pub fn try_intern(s: &str) -> Option<Symbol> {
    interner().read().expect("interner poisoned").get(s).copied()
}

impl Symbol {
    /// The interned string — a plain field read, no lock.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Symbol({:?})", self.0)
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// Well-known symbols the runtime needs on hot paths (exception
/// construction, context managers), interned once on first use.
pub mod well_known {
    use super::{intern, Symbol};
    use std::sync::OnceLock;

    macro_rules! well_known_sym {
        ($fn_name:ident, $text:expr) => {
            /// The interned symbol for the corresponding identifier.
            pub fn $fn_name() -> Symbol {
                static CELL: OnceLock<Symbol> = OnceLock::new();
                *CELL.get_or_init(|| intern($text))
            }
        };
    }

    well_known_sym!(sym_init, "__init__");
    well_known_sym!(sym_enter, "__enter__");
    well_known_sym!(sym_exit, "__exit__");
    well_known_sym!(sym_message, "message");
    well_known_sym!(sym_args, "args");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_resolves() {
        let a = intern("alpha");
        let b = intern("alpha");
        let c = intern("beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "alpha");
        assert_eq!(c.as_str(), "beta");
    }

    #[test]
    fn symbols_are_stable_across_threads() {
        let here = intern("cross-thread");
        let there = std::thread::spawn(|| intern("cross-thread")).join().unwrap();
        assert_eq!(here, there);
    }

    #[test]
    fn try_intern_never_inserts() {
        assert!(try_intern("never-interned-probe-xyzzy").is_none());
        let sym = intern("try-intern-present");
        assert_eq!(try_intern("try-intern-present"), Some(sym));
        // Still absent: the failed probe above did not leak an entry.
        assert!(try_intern("never-interned-probe-xyzzy").is_none());
    }

    #[test]
    fn equal_content_from_different_allocations_interns_identically() {
        let owned = String::from("own") + "ed";
        let a = intern(&owned);
        let b = intern("owned");
        assert_eq!(a, b, "pointer equality holds via the unique interned copy");
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
