//! The benchmark trajectory: every `BENCH_<pr>.json` at the repository
//! root is one change's before/after ledger, measured with profibench
//! (`BENCHMARK.json` names its workloads and end-to-end metrics).
//!
//! A ledger records the change (`pr`, the parent and change revisions,
//! the seeds), the box it was measured on, and for every workload it ran
//! and every end-to-end metric: the parent's and the change's medians,
//! the pairs the change won of the pairs run, the parent's
//! inter-quartile range, and `inside` — whether the change's median lies
//! within that range of the parent's. This test reads each ledger and
//! fails on a missing or wrong-typed field, so the trajectory stays
//! machine-readable.

use jsonlite::Value;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The end-to-end metric names `BENCHMARK.json` declares, and its
/// workload names.
fn declared() -> (Vec<String>, Vec<String>) {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = jsonlite::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| {
        bench
            .req_list(key, |v| v.req_str("name").map(str::to_string))
            .expect("named entries")
    };
    (names("end_to_end"), names("workloads"))
}

fn revision(ledger: &Value, key: &str) -> Result<(), String> {
    let rev = ledger.req_str(key)?;
    if rev.len() < 7 || !rev.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("field '{key}' must be a git revision, not '{rev}'"));
    }
    Ok(())
}

fn metric(m: &Value) -> Result<String, String> {
    let name = m.req_str("name")?;
    let (parent, change) = (m.req_f64("parent_median")?, m.req_f64("change_median")?);
    let (won, run) = (m.req_u64("pairs_won")?, m.req_u64("pairs_run")?);
    let iqr = m.req_f64("parent_iqr")?;
    let inside = m.req_bool("inside")?;
    if run == 0 || won > run {
        return Err(format!("{name}: {won} pairs won of {run} run"));
    }
    if iqr < 0.0 || inside != ((change - parent).abs() <= iqr) {
        return Err(format!(
            "{name}: `inside` {inside} disagrees with the medians and IQR"
        ));
    }
    Ok(name.to_string())
}

/// Checks one ledger against the declared metrics and workloads.
fn check(ledger: &Value, pr: u64, metrics: &[String], workloads: &[String]) -> Result<(), String> {
    if ledger.req_u64("pr")? != pr {
        return Err(format!(
            "field 'pr' must be {pr}, the number in the file name"
        ));
    }
    revision(ledger, "parent")?;
    revision(ledger, "change")?;
    let seed = |s: &Value| s.as_u64().ok_or_else(|| "a seed must be a u64".to_string());
    if ledger.req_list("seeds", seed)?.is_empty() {
        return Err("field 'seeds' is empty".into());
    }
    let machine = ledger.req("box")?;
    machine.req_u64("nproc")?;
    machine.req_str("rustc")?;
    machine.req_str("load")?;
    let ran = ledger.req_list("workloads", |w| {
        let name = w.req_str("name")?;
        if !workloads.iter().any(|d| d == name) {
            return Err(format!("workload '{name}' is not in BENCHMARK.json"));
        }
        let got = w.req_list("metrics", metric)?;
        match metrics.iter().find(|m| !got.contains(m)) {
            Some(missing) => Err(format!("workload '{name}' lacks metric '{missing}'")),
            None => Ok(()),
        }
    })?;
    if ran.is_empty() {
        return Err("field 'workloads' is empty".into());
    }
    Ok(())
}

#[test]
fn every_bench_ledger_has_every_field_with_its_type() {
    let (metrics, workloads) = declared();
    let mut ledgers = 0;
    for entry in std::fs::read_dir(root()).expect("repository root") {
        let name = entry.expect("directory entry").file_name();
        let name = name.to_string_lossy();
        let Some(pr) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let pr: u64 = pr
            .parse()
            .unwrap_or_else(|_| panic!("{name}: not BENCH_<pr>.json"));
        let text = std::fs::read_to_string(root().join(&*name)).expect("ledger reads");
        let ledger = jsonlite::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        if let Err(e) = check(&ledger, pr, &metrics, &workloads) {
            panic!("{name}: {e}");
        }
        ledgers += 1;
    }
    assert!(ledgers > 0, "no BENCH_*.json at the repository root");
}

#[test]
fn a_ledger_missing_a_field_or_with_a_wrong_type_is_refused() {
    let (metrics, workloads) = declared();
    let metric = |name: &str| {
        format!(
            r#"{{"name": "{name}", "parent_median": 1.0, "change_median": 1.1, "pairs_won": 1,
                "pairs_run": 3, "parent_iqr": 0.2, "inside": true}}"#
        )
    };
    let all: Vec<String> = metrics.iter().map(|m| metric(m)).collect();
    let good = format!(
        r#"{{"pr": 9, "parent": "0cd421e", "change": "abcdef0", "seeds": [17],
            "box": {{"nproc": 2, "rustc": "rustc 1.0", "load": "idle"}},
            "workloads": [{{"name": "{}", "metrics": [{}]}}]}}"#,
        workloads[0],
        all.join(",")
    );
    let parse = |text: &str| jsonlite::parse(text).expect("test ledger parses");
    assert_eq!(check(&parse(&good), 9, &metrics, &workloads), Ok(()));
    for (from, to) in [
        (r#""pr": 9, "#, ""),
        (r#""pr": 9"#, r#""pr": "9""#),
        (r#""seeds": [17]"#, r#""seeds": ["17"]"#),
        (r#""nproc": 2"#, r#""nproc": 2.5"#),
        (r#""load": "idle""#, r#""load": 1"#),
        (r#""change": "abcdef0""#, r#""change": "HEAD""#),
        (r#""inside": true"#, r#""inside": "yes""#),
        (r#""pairs_won": 1"#, r#""pairs_won": 4"#),
        (r#""parent_iqr": 0.2"#, r#""parent_iqr": 0.05"#),
    ] {
        let bad = good.replacen(from, to, 1);
        assert_ne!(bad, good);
        assert!(
            check(&parse(&bad), 9, &metrics, &workloads).is_err(),
            "{from} → {to}"
        );
    }
    let short = good.replacen(&format!("{},", all[0]), "", 1);
    assert!(check(&parse(&short), 9, &metrics, &workloads).is_err());
}
