//! Hostile bytes at the fleet protocol's decoders: a worker decodes a
//! lease grant (`lease_from_value`, then re-binds each job's point to
//! the sources it shipped with), a coordinator decodes a result upload
//! (`results_from_value`, `spans_from_value`). Arbitrary bytes run
//! through `jsonlite::parse`, and valid grants and uploads with a few
//! bytes changed, must each decode to `Ok` or `Err`, never a panic.

use cluster::wire::{lease_from_value, rebind_point, results_from_value, spans_from_value};
use jsonlite::Value;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A lease grant and a result upload as they cross the wire, pinned
/// byte for byte by the format fixtures.
const GRANT: &str = include_str!("../../../tests/fixtures/format_pins/lease.json");
const UPLOAD: &str = include_str!("../../../tests/fixtures/format_pins/results.json");

/// Everything a worker does with a lease reply's bytes before it runs
/// an experiment.
fn decode_grant(text: &str) {
    let Ok(value) = jsonlite::parse(text) else {
        return;
    };
    let Ok(lease) = lease_from_value(&value) else {
        return;
    };
    for job in &lease.jobs {
        let modules: Result<Vec<pysrc::Module>, _> = job
            .sources
            .iter()
            .map(|s| pysrc::parse_module(&s.text, &s.import_name))
            .collect();
        if let Ok(modules) = modules {
            let _ = rebind_point(&job.point, &modules);
        }
    }
}

/// Everything a coordinator decodes from a result upload's bytes.
fn decode_upload(text: &str) {
    let Ok(value) = jsonlite::parse(text) else {
        return;
    };
    let _ = results_from_value(&value);
    spans_from_value(value.get("spans").unwrap_or(&Value::Null));
    spans_from_value(&value);
}

/// Any bytes, to either side.
fn decode_either(text: &str) {
    decode_grant(text);
    decode_upload(text);
}

/// `valid` with `edits` applied to its bytes: each `(at, op, byte)`
/// overwrites, inserts or deletes the byte at `at`, or cuts the text
/// there.
fn mutated(valid: &str, edits: &[(usize, u8, u8)]) -> String {
    let mut bytes = valid.as_bytes().to_vec();
    for &(at, op, byte) in edits {
        let at = at % (bytes.len() + 1);
        match op % 4 {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `decode` on `input`, turning a panic into a failed case that
/// shows the input.
fn never_panics(decode: fn(&str), input: &str) -> Result<(), TestCaseError> {
    catch_unwind(AssertUnwindSafe(|| decode(input)))
        .map_err(|_| TestCaseError::fail(format!("panicked on {input:?}")))
}

fn edits() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
    proptest::collection::vec((any::<usize>(), any::<u8>(), any::<u8>()), 1..8)
}

#[test]
fn the_fixtures_decode() {
    let grant = lease_from_value(&jsonlite::parse(GRANT).unwrap()).unwrap();
    assert_eq!((grant.jobs.len(), grant.new_campaigns.len()), (2, 1));
    let upload = jsonlite::parse(UPLOAD).unwrap();
    assert_eq!(results_from_value(&upload).unwrap().len(), 3);
    assert!(!spans_from_value(upload.get("spans").unwrap()).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        never_panics(decode_either, &String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn a_mutated_lease_grant_never_panics_the_worker(edits in edits()) {
        never_panics(decode_grant, &mutated(GRANT, &edits))?;
    }

    #[test]
    fn a_mutated_result_upload_never_panics_the_coordinator(edits in edits()) {
        never_panics(decode_upload, &mutated(UPLOAD, &edits))?;
    }
}
