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
//! * **mutants** — the per-point container source sets, rendered once
//!   and shared by every campaign and resume that needs them.
//!
//! Hit/miss counters are exposed so callers (and the acceptance tests)
//! can prove "second campaign on an unchanged target performs zero
//! re-scans".

use injector::InjectionPoint;
use profipy::workflow::PreparedProgram;
use pysrc::Module;
use sandbox::SourceFile;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cache observability counters.
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

struct CacheEntry {
    modules: Option<Arc<Vec<Module>>>,
    points: Option<Arc<Vec<InjectionPoint>>>,
    /// point id → rendered container sources.
    mutants: HashMap<u64, Arc<Vec<SourceFile>>>,
    /// Covered point ids from a fault-free coverage run (in-memory
    /// only; coverage is cheap relative to scanning but not free).
    covered: Option<Arc<std::collections::BTreeSet<u64>>>,
    /// Prepared interpreter program (symbol-resolved modules +
    /// workload). In-memory only: symbols are process-scoped, so a
    /// restarted engine re-prepares once from the disk-tier modules and
    /// caches from then on.
    prepared: Option<Arc<PreparedProgram>>,
}

impl CacheEntry {
    fn empty() -> CacheEntry {
        CacheEntry {
            modules: None,
            points: None,
            mutants: HashMap::new(),
            covered: None,
            prepared: None,
        }
    }
}

/// The cache. One per engine; cheap to share behind `&mut`.
pub struct MutantCache {
    dir: Option<PathBuf>,
    entries: HashMap<u64, CacheEntry>,
    stats: CacheStats,
    /// Disk-tier write failures. Detached by default; the engine
    /// attaches its registered `campaign_cache_write_failures_total`
    /// handle so failures surface on `/metrics`.
    write_failures: obs::Counter,
}

impl MutantCache {
    /// An in-memory cache (no disk persistence of scan results).
    pub fn in_memory() -> MutantCache {
        MutantCache {
            dir: None,
            entries: HashMap::new(),
            stats: CacheStats::default(),
            write_failures: obs::Counter::detached(),
        }
    }

    /// A cache persisting scan results under `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory.
    pub fn open(dir: &Path) -> io::Result<MutantCache> {
        std::fs::create_dir_all(dir)?;
        Ok(MutantCache {
            dir: Some(dir.to_path_buf()),
            entries: HashMap::new(),
            stats: CacheStats::default(),
            write_failures: obs::Counter::detached(),
        })
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Replaces the write-failure counter with a registered handle
    /// (counters are `Arc`-backed clones, so the engine's metrics and
    /// the cache increment the same cell).
    pub fn attach_write_failures(&mut self, counter: obs::Counter) {
        self.write_failures = counter;
    }

    /// Disk-tier write failures so far.
    pub fn write_failures(&self) -> u64 {
        self.write_failures.value()
    }

    /// Cached parsed modules for `key`, if any.
    pub fn modules(&mut self, key: u64) -> Option<Arc<Vec<Module>>> {
        let hit = self
            .entries
            .get(&key)
            .and_then(|e| e.modules.clone());
        if hit.is_some() {
            self.stats.parse_hits += 1;
        } else {
            self.stats.parse_misses += 1;
        }
        hit
    }

    /// Stores parsed modules for `key`.
    pub fn store_modules(&mut self, key: u64, modules: Arc<Vec<Module>>) {
        self.entries.entry(key).or_insert_with(CacheEntry::empty).modules = Some(modules);
    }

    /// Cached scan results for `key` — memory first, then disk.
    ///
    /// The disk tier stores *portable* points (statement spans instead
    /// of process-local node ids); `modules` — the freshly parsed
    /// modules the points will be used against — are required to
    /// re-bind them. A disk entry that fails to re-bind is treated as
    /// a miss.
    pub fn points(&mut self, key: u64, modules: &[Module]) -> Option<Arc<Vec<InjectionPoint>>> {
        if let Some(points) = self.entries.get(&key).and_then(|e| e.points.clone()) {
            self.stats.scan_hits += 1;
            return Some(points);
        }
        // Disk tier: survives process restarts.
        if let Some(points) = self.load_points_from_disk(key, modules) {
            let points = Arc::new(points);
            self.entries
                .entry(key)
                .or_insert_with(CacheEntry::empty)
                .points = Some(points.clone());
            self.stats.scan_hits += 1;
            return Some(points);
        }
        self.stats.scan_misses += 1;
        None
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
                    self.write_failures.inc();
                    obs::log!(
                        obs::Level::Warn,
                        "cache_write_failed",
                        "path" => path.display().to_string(),
                        "error" => e.to_string()
                    );
                }
            }
        }
        self.entries.entry(key).or_insert_with(CacheEntry::empty).points = Some(points);
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
        let hit = self.entries.get(&key).and_then(|e| e.covered.clone());
        if hit.is_some() {
            self.stats.coverage_hits += 1;
        } else {
            self.stats.coverage_misses += 1;
        }
        hit
    }

    /// Stores the coverage set for `key`.
    pub fn store_covered(&mut self, key: u64, covered: Arc<std::collections::BTreeSet<u64>>) {
        self.entries.entry(key).or_insert_with(CacheEntry::empty).covered = Some(covered);
    }

    /// Cached mutant sources for one point.
    pub fn mutant(&mut self, key: u64, point_id: u64) -> Option<Arc<Vec<SourceFile>>> {
        let hit = self
            .entries
            .get(&key)
            .and_then(|e| e.mutants.get(&point_id).cloned());
        if hit.is_some() {
            self.stats.mutant_hits += 1;
        } else {
            self.stats.mutant_misses += 1;
        }
        hit
    }

    /// Stores mutant sources for one point.
    pub fn store_mutant(&mut self, key: u64, point_id: u64, sources: Arc<Vec<SourceFile>>) {
        self.entries
            .entry(key)
            .or_insert_with(CacheEntry::empty)
            .mutants
            .insert(point_id, sources);
    }

    /// Cached prepared program for `key`, if any.
    pub fn prepared_program(&mut self, key: u64) -> Option<Arc<PreparedProgram>> {
        let hit = self.entries.get(&key).and_then(|e| e.prepared.clone());
        if hit.is_some() {
            self.stats.prepare_hits += 1;
        } else {
            self.stats.prepare_misses += 1;
        }
        hit
    }

    /// Stores the prepared program for `key`.
    pub fn store_prepared_program(&mut self, key: u64, prepared: Arc<PreparedProgram>) {
        self.entries
            .entry(key)
            .or_insert_with(CacheEntry::empty)
            .prepared = Some(prepared);
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
        assert_eq!(cache.write_failures(), 1);
        assert!(cache.points(3, &modules).is_some(), "memory tier unaffected");
        // An attached counter observes the same cell.
        let counter = obs::Counter::detached();
        cache.attach_write_failures(counter.clone());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let (modules2, points2) = scanned();
        cache.store_points(4, Arc::new(points2), &modules2);
        assert_eq!(counter.value(), 1);
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

    #[test]
    fn mutants_are_per_point() {
        let mut cache = MutantCache::in_memory();
        let src = |t: &str| {
            Arc::new(vec![SourceFile {
                import_name: "m".into(),
                text: t.into(),
            }])
        };
        cache.store_mutant(1, 10, src("a"));
        cache.store_mutant(1, 11, src("b"));
        assert_eq!(cache.mutant(1, 10).unwrap()[0].text, "a");
        assert_eq!(cache.mutant(1, 11).unwrap()[0].text, "b");
        assert!(cache.mutant(1, 12).is_none());
        assert!(cache.mutant(2, 10).is_none());
        assert_eq!(cache.stats().mutant_hits, 2);
        assert_eq!(cache.stats().mutant_misses, 2);
    }
}
