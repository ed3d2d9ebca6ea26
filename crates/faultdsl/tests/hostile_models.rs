//! Hostile bytes at the two ways a fault model arrives by
//! `POST /api/models`: bare DSL text, compiled as a one-spec model, and
//! a JSON fault-model document, decoded and then compiled. Whatever the
//! bytes — arbitrary, or a valid model with a few of them changed — the
//! answer is `Ok` or `Err`, never a panic.

use faultdsl::{predefined_models, FaultModel, SpecSource};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The raw-DSL upload path.
fn compile_dsl(dsl: &str) {
    let model = FaultModel {
        name: "upload".into(),
        description: String::new(),
        specs: vec![SpecSource {
            name: "UPLOAD".into(),
            description: String::new(),
            dsl: dsl.into(),
        }],
    };
    let _ = model.compile();
}

/// The JSON-model upload path.
fn decode_and_compile(json: &str) {
    if let Ok(model) = jsonlite::parse(json).and_then(|v| FaultModel::from_value(&v)) {
        let _ = model.compile();
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_as_dsl_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        never_panics(compile_dsl, &String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn arbitrary_bytes_as_a_json_model_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        never_panics(decode_and_compile, &String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn a_mutated_valid_dsl_spec_never_panics(pick in any::<usize>(), edits in edits()) {
        let specs = predefined_models().specs;
        never_panics(compile_dsl, &mutated(&specs[pick % specs.len()].dsl, &edits))?;
    }

    #[test]
    fn a_mutated_valid_json_model_never_panics(edits in edits()) {
        never_panics(decode_and_compile, &mutated(&predefined_models().to_json(), &edits))?;
    }
}
