//! The cross-campaign cache (paper §IV-A: saved fault models are reused
//! across campaigns — here the *derived work* is reused too).
//!
//! Keyed by the spec's `(source hash, model hash)` cache key, three
//! artifacts are memoized:
//!
//! * **parsed modules** — skip re-parsing the target (in memory),
//! * **scan results** — skip the Scan phase entirely (in memory *and*
//!   on disk as JSON, so even a restarted service never re-scans an
//!   unchanged target),
//! * **mutants** — the per-point container source sets, each with its
//!   prepared override, rendered once and shared by every campaign and
//!   resume that needs them.
//!
//! Hit/miss counters are exposed so callers (and the acceptance tests)
//! can prove "second campaign on an unchanged target performs zero
//! re-scans".
//!
//! The memory tier is **bounded**: an LRU over cache keys under
//! `CACHE_BUDGET_BYTES`. A store that takes the total past the budget
//! evicts whole entries, least recently used first, never the one
//! being stored into — so a campaign larger than the budget stays
//! whole while it is the one running. An evicted revision that returns
//! misses and is rebuilt (its scan from the disk tier, when there is
//! one); jobs already prepared hold their own `Arc`s and lose nothing.

use injector::InjectionPoint;
use profipy::workflow::{Mutant, PreparedProgram};
use pysrc::Module;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A snapshot of the cache's hit and miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Scan results served from memory or disk.
    pub scan_hits: u64,
    /// Scans actually performed.
    pub scan_misses: u64,
    /// Parsed modules served from memory.
    pub parse_hits: u64,
    /// Parses actually performed.
    pub parse_misses: u64,
    /// Mutants served from the cache.
    pub mutant_hits: u64,
    /// Mutants actually rendered.
    pub mutant_misses: u64,
    /// Prepared programs (resolved interpreter artifacts) served from
    /// the cache.
    pub prepare_hits: u64,
    /// Prepared programs actually built.
    pub prepare_misses: u64,
    /// Coverage sets served from the cache.
    pub coverage_hits: u64,
    /// Fault-free coverage runs actually performed.
    pub coverage_misses: u64,
}

/// What the memory tier may weigh before a store evicts. Weight is an
/// estimate (see [`ENTRY_CHARGE_BYTES`]): a python-etcd key weighs
/// 0.5 to 4.2 MB with its overrides (campaign A's 12 mutants, B's 53),
/// so the budget keeps the ≈ 20 most recent ones.
const CACHE_BUDGET_BYTES: usize = 32 << 20;

/// The flat part of an entry's weight, standing for what the cache is
/// not handed a length for: parsed modules, prepared program, points,
/// coverage set. The rest grows with the target: the rendered mutants'
/// text bytes (exact) and their overrides (estimated, see
/// [`OVERRIDE_BYTES_PER_DEF_BYTE`]). Measured against resident bytes
/// while only text was charged (README "What the service keeps
/// resident"): weight was 0.64 of them for python-etcd-sized keys and
/// 1.45 for the scenario matrix's ten-line targets.
const ENTRY_CHARGE_BYTES: usize = 256 << 10;

/// What a mutant's prepared override is charged per byte of the text of
/// the `def` it changed: the `def`'s tree and prototypes, its compiled
/// bytecode once it has run, and a copy of its module's prototype map.
/// Counted on the heap (the bytes freed by dropping an override that
/// has run once; seed 17): python-etcd campaigns A / B / C, mean `def`
/// 364 / 2 182 / 357 B, hold 28.6 / 29.0 / 30.6 bytes per byte (19.4 /
/// 19.0 / 22.0 before the first call compiles the `def`); the scenario
/// matrix's broker / kvstore / microsvc, 29.0 / 27.4 / 25.6. A whole
/// python-etcd key of text and overrides weighs 0.83 of its live heap
/// bytes.
const OVERRIDE_BYTES_PER_DEF_BYTE: usize = 30;

struct CacheEntry {
    modules: Option<Arc<Vec<Module>>>,
    points: Option<Arc<Vec<InjectionPoint>>>,
    /// point id → rendered mutant.
    mutants: HashMap<u64, Mutant>,
    /// Covered point ids from a fault-free coverage run (in-memory
    /// only; coverage is cheap relative to scanning but not free).
    covered: Option<Arc<std::collections::BTreeSet<u64>>>,
    /// Prepared interpreter program (symbol-resolved modules +
    /// workload). In-memory only: symbols are process-scoped, so a
    /// restarted engine re-prepares once from the disk-tier modules and
    /// caches from then on.
    prepared: Option<Arc<PreparedProgram>>,
    /// The cache's tick when this entry was last looked up or stored
    /// into.
    stamp: u64,
    /// [`ENTRY_CHARGE_BYTES`] plus each mutant's [`mutant_bytes`].
    weight: usize,
}

impl CacheEntry {
    fn empty() -> CacheEntry {
        CacheEntry {
            modules: None,
            points: None,
            mutants: HashMap::new(),
            covered: None,
            prepared: None,
            stamp: 0,
            weight: ENTRY_CHARGE_BYTES,
        }
    }
}

/// A mutant's weight: its text bytes, and its override's estimate.
fn mutant_bytes(mutant: &Mutant) -> usize {
    let text: usize = mutant
        .sources
        .iter()
        .map(|f| f.import_name.len() + f.text.len())
        .sum();
    text + mutant.def_bytes * OVERRIDE_BYTES_PER_DEF_BYTE
}

/// One tier's lookups: served from the cache, or not.
#[derive(Clone)]
pub struct HitMiss {
    /// Lookups the tier answered.
    pub hits: obs::Counter,
    /// Lookups it did not: the artifact was built (or is about to be).
    pub misses: obs::Counter,
}

impl HitMiss {
    fn new() -> HitMiss {
        HitMiss {
            hits: obs::Counter::detached(),
            misses: obs::Counter::detached(),
        }
    }

    /// Counts one lookup by its outcome and hands the outcome back.
    fn count<T>(&self, found: Option<T>) -> Option<T> {
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }
}

/// The cache's instruments. Created detached; the engine registers
/// clones of them (handles are `Arc`-backed, so both sides see one
/// cell).
#[derive(Clone)]
pub struct CacheMetrics {
    /// Scan results (memory or disk tier).
    pub scan: HitMiss,
    /// Parsed modules.
    pub parse: HitMiss,
    /// Rendered mutants, one lookup per point.
    pub mutant: HitMiss,
    /// Prepared programs.
    pub prepare: HitMiss,
    /// Coverage sets.
    pub coverage: HitMiss,
    /// Disk-tier cache writes that failed (best-effort writes, but a
    /// silent failure hides a full disk behind "why does every restart
    /// re-scan?").
    pub write_failures: obs::Counter,
    /// Entries dropped to stay under the byte budget.
    pub evictions: obs::Counter,
    /// Total weight of the memory tier.
    pub resident_bytes: obs::Gauge,
    /// Keys in the memory tier.
    pub entries: obs::Gauge,
}

/// The cache. One per engine; cheap to share behind `&mut`.
pub struct MutantCache {
    dir: Option<PathBuf>,
    entries: HashMap<u64, CacheEntry>,
    metrics: CacheMetrics,
    budget: usize,
    /// Counts lookups and stores; an entry's `stamp` is its last one.
    tick: u64,
    /// Σ `weight` over `entries`.
    resident: usize,
}

impl MutantCache {
    /// A cache holding at most `budget` bytes of weight in memory,
    /// with its scan results also under `dir` if there is one. Only
    /// tests pick a budget of their own.
    pub(crate) fn new(dir: Option<PathBuf>, budget: usize) -> MutantCache {
        MutantCache {
            dir,
            entries: HashMap::new(),
            metrics: CacheMetrics {
                scan: HitMiss::new(),
                parse: HitMiss::new(),
                mutant: HitMiss::new(),
                prepare: HitMiss::new(),
                coverage: HitMiss::new(),
                write_failures: obs::Counter::detached(),
                evictions: obs::Counter::detached(),
                resident_bytes: obs::Gauge::detached(),
                entries: obs::Gauge::detached(),
            },
            budget,
            tick: 0,
            resident: 0,
        }
    }

    /// An in-memory cache (no disk persistence of scan results).
    pub fn in_memory() -> MutantCache {
        MutantCache::new(None, CACHE_BUDGET_BYTES)
    }

    /// A cache persisting scan results under `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open(dir: &Path) -> io::Result<MutantCache> {
        std::fs::create_dir_all(dir)?;
        Ok(MutantCache::new(Some(dir.to_path_buf()), CACHE_BUDGET_BYTES))
    }

    /// The hit and miss counters as they read now.
    pub fn stats(&self) -> CacheStats {
        let m = &self.metrics;
        CacheStats {
            scan_hits: m.scan.hits.value(),
            scan_misses: m.scan.misses.value(),
            parse_hits: m.parse.hits.value(),
            parse_misses: m.parse.misses.value(),
            mutant_hits: m.mutant.hits.value(),
            mutant_misses: m.mutant.misses.value(),
            prepare_hits: m.prepare.hits.value(),
            prepare_misses: m.prepare.misses.value(),
            coverage_hits: m.coverage.hits.value(),
            coverage_misses: m.coverage.misses.value(),
        }
    }

    /// The cache's instruments.
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// `key`'s entry, stamped as just used.
    fn lookup(&mut self, key: u64) -> Option<&CacheEntry> {
        self.tick += 1;
        let entry = self.entries.get_mut(&key)?;
        entry.stamp = self.tick;
        Some(entry)
    }

    /// Lets `fill` store into `key`'s entry (made if absent), stamps
    /// it, and evicts the least recently used *other* entries while
    /// the total is over budget.
    fn store(&mut self, key: u64, fill: impl FnOnce(&mut CacheEntry)) {
        self.tick += 1;
        let before = self.entries.get(&key).map_or(0, |e| e.weight);
        let entry = self.entries.entry(key).or_insert_with(CacheEntry::empty);
        fill(entry);
        entry.stamp = self.tick;
        self.resident = self.resident - before + entry.weight;
        while self.resident > self.budget {
            let lru = self
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            let Some(victim) = lru.and_then(|k| self.entries.remove(&k)) else {
                break;
            };
            self.resident -= victim.weight;
            self.metrics.evictions.inc();
        }
        self.metrics.resident_bytes.set(self.resident as u64);
        self.metrics.entries.set(self.entries.len() as u64);
    }

    /// Cached parsed modules for `key`, if any.
    pub fn modules(&mut self, key: u64) -> Option<Arc<Vec<Module>>> {
        let hit = self.lookup(key).and_then(|e| e.modules.clone());
        self.metrics.parse.count(hit)
    }

    /// Stores parsed modules for `key`.
    pub fn store_modules(&mut self, key: u64, modules: Arc<Vec<Module>>) {
        self.store(key, |e| e.modules = Some(modules));
    }

    /// Cached scan results for `key` — memory first, then disk.
    ///
    /// The disk tier stores *portable* points (statement spans instead
    /// of process-local node ids); `modules` — the freshly parsed
    /// modules the points will be used against — are required to
    /// re-bind them. A disk entry that fails to re-bind is treated as
    /// a miss.
    pub fn points(&mut self, key: u64, modules: &[Module]) -> Option<Arc<Vec<InjectionPoint>>> {
        let mut hit = self.lookup(key).and_then(|e| e.points.clone());
        // Disk tier: survives process restarts.
        if hit.is_none() {
            hit = self.load_points_from_disk(key, modules).map(Arc::new);
            if let Some(points) = &hit {
                self.store(key, |e| e.points = Some(points.clone()));
            }
        }
        self.metrics.scan.count(hit)
    }

    /// Stores scan results for `key` (and writes the disk tier).
    pub fn store_points(
        &mut self,
        key: u64,
        points: Arc<Vec<InjectionPoint>>,
        modules: &[Module],
    ) {
        if let Some(dir) = &self.dir {
            // Best-effort: a failed cache write only costs a future
            // re-scan — but a silent one hides a full disk or a bad
            // mount until someone wonders why every restart re-scans.
            if let Ok(value) = injector::persist::points_to_portable_value(&points, modules) {
                let path = dir.join(Self::points_file(key));
                if let Err(e) = jsonlite::durable::replace(&path, value.pretty().as_bytes()) {
                    self.metrics.write_failures.inc();
                    obs::log!(
                        obs::Level::Warn,
                        "cache_write_failed",
                        "path" => path.display().to_string(),
                        "error" => e.to_string()
                    );
                }
            }
        }
        self.store(key, |e| e.points = Some(points));
    }

    fn load_points_from_disk(&self, key: u64, modules: &[Module]) -> Option<Vec<InjectionPoint>> {
        let dir = self.dir.as_ref()?;
        let text = std::fs::read_to_string(dir.join(Self::points_file(key))).ok()?;
        jsonlite::parse(&text)
            .and_then(|v| injector::persist::points_from_portable_value(&v, modules))
            .ok()
    }

    fn points_file(key: u64) -> String {
        format!("scan-{}.json", jsonlite::hex64(key))
    }

    /// Cached coverage set for `key`.
    pub fn covered(&mut self, key: u64) -> Option<Arc<std::collections::BTreeSet<u64>>> {
        let hit = self.lookup(key).and_then(|e| e.covered.clone());
        self.metrics.coverage.count(hit)
    }

    /// Stores the coverage set for `key`.
    pub fn store_covered(&mut self, key: u64, covered: Arc<std::collections::BTreeSet<u64>>) {
        self.store(key, |e| e.covered = Some(covered));
    }

    /// Cached rendered mutant for one point.
    pub fn mutant(&mut self, key: u64, point_id: u64) -> Option<Mutant> {
        let hit = self
            .lookup(key)
            .and_then(|e| e.mutants.get(&point_id).cloned());
        self.metrics.mutant.count(hit)
    }

    /// Stores the rendered mutant for one point.
    pub fn store_mutant(&mut self, key: u64, point_id: u64, mutant: Mutant) {
        self.store(key, |e| {
            e.weight += mutant_bytes(&mutant);
            if let Some(old) = e.mutants.insert(point_id, mutant) {
                e.weight -= mutant_bytes(&old);
            }
        });
    }

    /// Cached prepared program for `key`, if any.
    pub fn prepared_program(&mut self, key: u64) -> Option<Arc<PreparedProgram>> {
        let hit = self.lookup(key).and_then(|e| e.prepared.clone());
        self.metrics.prepare.count(hit)
    }

    /// Stores the prepared program for `key`.
    pub fn store_prepared_program(&mut self, key: u64, prepared: Arc<PreparedProgram>) {
        self.store(key, |e| e.prepared = Some(prepared));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use injector::Scanner;

    const SRC: &str = "def f(c):\n    c.prepare()\n    delete_port(c)\n    c.done()\n";

    fn scanned() -> (Vec<Module>, Vec<InjectionPoint>) {
        let spec = faultdsl::parse_spec(
            "change {\n    $CALL{name=delete_*}(...)\n} into {\n    pass\n}",
            "DEL",
        )
        .unwrap();
        let module = pysrc::parse_module(SRC, "m.py").unwrap();
        let points = Scanner::new(vec![spec]).scan(std::slice::from_ref(&module));
        (vec![module], points)
    }

    #[test]
    fn memory_tier_hits_and_stats() {
        let (modules, points) = scanned();
        let mut cache = MutantCache::in_memory();
        assert!(cache.points(1, &modules).is_none());
        cache.store_points(1, Arc::new(points), &modules);
        let got = cache.points(1, &modules).expect("hit");
        assert_eq!(got.len(), 1);
        assert_eq!(cache.stats().scan_misses, 1);
        assert_eq!(cache.stats().scan_hits, 1);
        // A different key misses.
        assert!(cache.points(2, &modules).is_none());
        assert_eq!(cache.stats().scan_misses, 2);
    }

    #[test]
    fn disk_tier_survives_new_cache_instance_and_rebinds() {
        let dir = std::env::temp_dir().join(format!(
            "campaign-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (modules, points) = scanned();
        {
            let mut cache = MutantCache::open(&dir).unwrap();
            cache.store_points(7, Arc::new(points.clone()), &modules);
        }
        {
            // Fresh cache instance + freshly parsed modules (different
            // NodeIds) — the disk tier must still hit and re-bind.
            let fresh = vec![pysrc::parse_module(SRC, "m.py").unwrap()];
            let mut cache = MutantCache::open(&dir).unwrap();
            let got = cache.points(7, &fresh).expect("disk hit");
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].id, points[0].id);
            assert_ne!(
                got[0].start_stmt_id, points[0].start_stmt_id,
                "ids re-bound to the fresh parse"
            );
            assert_eq!(cache.stats().scan_hits, 1);
            assert_eq!(cache.stats().scan_misses, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_write_failure_counts_instead_of_vanishing() {
        let dir = std::env::temp_dir().join(format!(
            "campaign-cache-wfail-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (modules, points) = scanned();
        let mut cache = MutantCache::open(&dir).unwrap();
        // Yank the directory out from under the cache: the disk-tier
        // write fails, the counter ticks, and the in-memory tier still
        // serves the points.
        std::fs::remove_dir_all(&dir).unwrap();
        cache.store_points(3, Arc::new(points), &modules);
        assert_eq!(cache.metrics().write_failures.value(), 1);
        assert!(cache.points(3, &modules).is_some(), "memory tier unaffected");
        // A cloned handle (what the engine registers) observes the
        // same cell.
        let counter = cache.metrics().write_failures.clone();
        let (modules2, points2) = scanned();
        cache.store_points(4, Arc::new(points2), &modules2);
        assert_eq!(counter.value(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prepared_program_tier_hits_and_stats() {
        let mut cache = MutantCache::in_memory();
        assert!(cache.prepared_program(1).is_none());
        assert_eq!(cache.stats().prepare_misses, 1);
        let module = pysrc::parse_module(SRC, "m.py").unwrap();
        let program = PreparedProgram {
            modules: vec![pyrt::prepare::prepare(Arc::new(module))],
            workload: None,
        };
        cache.store_prepared_program(1, Arc::new(program));
        let got = cache.prepared_program(1).expect("hit");
        assert_eq!(got.modules.len(), 1);
        assert_eq!(got.modules[0].module.name, "m.py");
        assert_eq!(cache.stats().prepare_hits, 1);
        assert!(cache.prepared_program(2).is_none(), "other keys miss");
    }

    /// What the oracle knows of one resident key: when it was last
    /// used, the text bytes and the changed `def`'s bytes (0: no
    /// override) of each mutant stored under it, and whether a
    /// coverage set was.
    #[derive(Default)]
    struct ModelEntry {
        used: u64,
        mutants: HashMap<u64, (usize, usize)>,
        covered: bool,
    }

    impl ModelEntry {
        fn weight(&self) -> usize {
            let mutants: usize = self
                .mutants
                .values()
                .map(|(text, def)| text + def * OVERRIDE_BYTES_PER_DEF_BYTE)
                .sum();
            ENTRY_CHARGE_BYTES + mutants
        }
    }

    /// A mutant of `text` bytes whose override, if `def` is not 0,
    /// stands for a `def` of `def` bytes.
    fn mutant(text: &str, def: usize) -> Mutant {
        let sources = vec![sandbox::SourceFile {
            import_name: String::new(),
            text: text.into(),
        }];
        let prepared = (def > 0).then(|| {
            pyrt::prepare::prepare(Arc::new(pysrc::parse_module(SRC, "m.py").unwrap()))
        });
        Mutant {
            sources: Arc::new(sources),
            prepared,
            def_bytes: def,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Lookups and stores over five keys, budget three flat charges
        /// and a bit, of mutants with and without an override, against a
        /// model that recomputes every weight and finds each victim by
        /// scanning for the oldest use.
        #[test]
        fn eviction_matches_a_recomputing_oracle(
            ops in proptest::collection::vec(
                (0u8..7, 0u64..5, 0u64..4, 0usize..3, 0usize..3),
                1..80,
            )
        ) {
            const SIZES: [usize; 3] = [10, 40_000, 5 * ENTRY_CHARGE_BYTES];
            const DEFS: [usize; 3] = [0, 300, 2_000];
            let budget = 3 * ENTRY_CHARGE_BYTES + 50_000;
            let mut cache = MutantCache::new(None, budget);
            let mut model: HashMap<u64, ModelEntry> = HashMap::new();
            let mut evicted = 0u64;
            let (mut hits, mut misses) = (0u64, 0u64);
            proptest::prop_assert_eq!(cache.metrics().resident_bytes.value(), 0);
            for (step, (op, key, point, size, def)) in ops.into_iter().enumerate() {
                let now = step as u64 + 1;
                match op {
                    // Lookups: a hit refreshes the key, a miss makes
                    // nothing.
                    0..=2 => {
                        let got = cache.mutant(key, point);
                        if let Some(m) = &got {
                            proptest::prop_assert_eq!(m.prepared.is_some(), m.def_bytes > 0);
                        }
                        let got = got.map(|m| (m.sources[0].text.len(), m.def_bytes));
                        let expected = model.get(&key).and_then(|e| e.mutants.get(&point));
                        proptest::prop_assert_eq!(got, expected.copied());
                        if expected.is_some() { hits += 1 } else { misses += 1 }
                        if let Some(e) = model.get_mut(&key) {
                            e.used = now;
                        }
                    }
                    3 => {
                        // Another tier of the same entry: a miss
                        // there refreshes the key all the same.
                        let got = cache.covered(key).is_some();
                        proptest::prop_assert_eq!(got, model.get(&key).is_some_and(|e| e.covered));
                        if let Some(e) = model.get_mut(&key) {
                            e.used = now;
                        }
                    }
                    // Stores, the last size alone over the budget.
                    _ => {
                        if op == 4 {
                            cache.store_covered(key, Arc::new(Default::default()));
                        } else {
                            cache.store_mutant(key, point, mutant(&"x".repeat(SIZES[size]), DEFS[def]));
                        }
                        let entry = model.entry(key).or_default();
                        entry.used = now;
                        if op == 4 {
                            entry.covered = true;
                        } else {
                            entry.mutants.insert(point, (SIZES[size], DEFS[def]));
                        }
                        while model.values().map(ModelEntry::weight).sum::<usize>() > budget {
                            let victim = model
                                .iter()
                                .filter(|(k, _)| **k != key)
                                .min_by_key(|(_, e)| e.used)
                                .map(|(k, _)| *k);
                            let Some(victim) = victim else { break };
                            model.remove(&victim);
                            evicted += 1;
                        }
                        proptest::prop_assert!(model.contains_key(&key), "stored-into key evicted");
                    }
                }
                let total: usize = model.values().map(ModelEntry::weight).sum();
                proptest::prop_assert_eq!(cache.resident, total);
                proptest::prop_assert_eq!(cache.metrics().resident_bytes.value(), total as u64);
                proptest::prop_assert_eq!(cache.metrics().entries.value(), model.len() as u64);
                proptest::prop_assert_eq!(cache.metrics().evictions.value(), evicted);
                let mut resident: Vec<u64> = cache.entries.keys().copied().collect();
                let mut expected: Vec<u64> = model.keys().copied().collect();
                resident.sort_unstable();
                expected.sort_unstable();
                proptest::prop_assert_eq!(resident, expected);
                proptest::prop_assert_eq!(
                    cache.entries.values().map(|e| e.weight).sum::<usize>(),
                    total
                );
            }
            proptest::prop_assert_eq!(cache.stats().mutant_hits, hits);
            proptest::prop_assert_eq!(cache.stats().mutant_misses, misses);
        }
    }

    #[test]
    fn mutants_are_per_point() {
        let mut cache = MutantCache::in_memory();
        cache.store_mutant(1, 10, mutant("a", 0));
        cache.store_mutant(1, 11, mutant("b", 0));
        assert_eq!(cache.mutant(1, 10).unwrap().sources[0].text, "a");
        assert_eq!(cache.mutant(1, 11).unwrap().sources[0].text, "b");
        assert!(cache.mutant(1, 12).is_none());
        assert!(cache.mutant(2, 10).is_none());
        assert_eq!(cache.stats().mutant_hits, 2);
        assert_eq!(cache.stats().mutant_misses, 2);
    }
}
