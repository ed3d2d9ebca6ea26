//! Properties of the one JSON-lines loader every log in the workspace
//! reads through (`jsonlite::durable::Log`), checked on the committed
//! format fixtures (`tests/fixtures/format_pins/`, written by the code
//! as it was before the logs shared a loader):
//!
//! * every truncation of every fixture, at any byte (inside a
//!   multi-byte character too), loads to a prefix of the full load, and
//!   the file the owner repairs it to is exactly that prefix;
//! * a line the owner turns down ends the prefix just like a torn one;
//! * arbitrary bytes never panic, and never load more than they hold.

use jsonlite::durable::Log;
use jsonlite::Value;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const FIXTURES: [(&str, &str); 6] = [
    (
        "checkpoint",
        include_str!("../../../tests/fixtures/format_pins/checkpoint.jsonl"),
    ),
    (
        "registry",
        include_str!("../../../tests/fixtures/format_pins/fleet-workers.jsonl"),
    ),
    (
        "registry-compacted",
        include_str!("../../../tests/fixtures/format_pins/fleet-workers.compacted.jsonl"),
    ),
    (
        "registry-appended",
        include_str!("../../../tests/fixtures/format_pins/fleet-workers.appended.jsonl"),
    ),
    (
        "wal",
        include_str!("../../../tests/fixtures/format_pins/fleet-leases.jsonl"),
    ),
    (
        "wal-compacted",
        include_str!("../../../tests/fixtures/format_pins/fleet-leases.compacted.jsonl"),
    ),
];

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "durable-props-{tag}-{}-{}.jsonl",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Loads like an owner that accepts every line, then repairs like one:
/// a file reported torn is rewritten as what was loaded.
fn load_and_repair(path: &Path) -> Vec<Value> {
    let mut lines = Vec::new();
    let torn = Log::load(path, |line| {
        lines.push(line);
        true
    })
    .unwrap();
    if torn {
        Log::at(path).rewrite(lines.iter().cloned()).unwrap();
    }
    lines
}

#[test]
fn every_truncation_loads_a_prefix_and_repairs_to_it() {
    for (name, fixture) in FIXTURES {
        let full: Vec<&str> = fixture.lines().collect();
        let path = temp_path(name);
        std::fs::write(&path, fixture).unwrap();
        let loaded = load_and_repair(&path);
        assert_eq!(
            loaded.len(),
            full.len(),
            "{name}: the intact fixture loads whole"
        );
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            fixture,
            "{name}: and is left alone"
        );

        // Every byte: a cut inside a multi-byte character is torn too.
        for cut in 0..fixture.len() {
            std::fs::write(&path, &fixture.as_bytes()[..cut]).unwrap();
            let loaded = load_and_repair(&path);
            // Exactly the lines whose last byte survived: a line cut
            // only of its newline is complete.
            let kept = full
                .iter()
                .scan(0, |end, line| {
                    *end += line.len() + 1;
                    Some(*end - 1)
                })
                .take_while(|last_byte| *last_byte <= cut)
                .count();
            assert_eq!(loaded.len(), kept, "{name} cut at {cut}");
            for (line, text) in loaded.iter().zip(&full) {
                assert_eq!(&line.compact(), text, "{name} cut at {cut}");
            }
            let prefix: String = full[..kept]
                .iter()
                .map(|line| format!("{line}\n"))
                .collect();
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                prefix,
                "{name} cut at {cut}: the repaired file is the loaded prefix, ready for an append"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn a_rejected_line_ends_the_prefix_where_a_torn_one_would() {
    for (name, fixture) in FIXTURES {
        let path = temp_path(name);
        std::fs::write(&path, fixture).unwrap();
        let total = fixture.lines().count();
        for reject in 0..total {
            let mut seen = 0;
            let torn = Log::load(&path, |_| {
                seen += 1;
                seen <= reject
            })
            .unwrap();
            assert!(
                torn,
                "{name}: rejecting line {reject} must ask for a repair"
            );
            assert_eq!(
                seen,
                reject + 1,
                "{name}: nothing after the rejected line is read"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic_and_a_repair_settles(
        fixture in 0usize..FIXTURES.len(),
        cut in any::<u16>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let (_, text) = FIXTURES[fixture];
        let mut bytes = text.as_bytes()[..cut as usize % (text.len() + 1)].to_vec();
        bytes.extend_from_slice(&garbage);
        let path = temp_path("garbage");
        std::fs::write(&path, &bytes).unwrap();
        let mut lines = Vec::new();
        let loaded = Log::load(&path, |line| {
            lines.push(line);
            true
        });
        prop_assert!(lines.len() <= bytes.iter().filter(|b| **b == b'\n').count() + 1);
        if let Ok(torn) = loaded {
            // Whatever loaded, the repaired file loads to the same
            // lines and asks for nothing more.
            if torn {
                Log::at(&path).rewrite(lines.iter().cloned()).unwrap();
            }
            let mut again = Vec::new();
            let torn = Log::load(&path, |line| {
                again.push(line);
                true
            })
            .unwrap();
            prop_assert!(!torn);
            prop_assert_eq!(again, lines);
        }
        let _ = std::fs::remove_file(&path);
    }
}
