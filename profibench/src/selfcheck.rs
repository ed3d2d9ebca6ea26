//! `profibench selfcheck`: the whole benchmark twice on one build.
//!
//! Each set runs every workload once per seed. For every end-to-end
//! metric and workload it prints both sets' medians, how far the
//! second is from the first, and each set's spread (inter-quartile
//! range as a share of the median), then applies the rule a later
//! change is judged by, using the bounds in `BENCHMARK.json`: every
//! spread but `setup_s`'s within the metric's bound, and no second
//! median worse than the first by more than the bound.

use crate::stats::{median, quartiles};
use crate::workloads::Workload;
use jsonlite::Value;
use std::collections::BTreeMap;
use std::process::Stdio;

/// Seeds, and so runs of each workload, in a set.
const RUNS: u64 = 10;
/// The share of its bound a spread should stay under to leave room
/// for a noisier day.
const WANTED_SHARE_OF_BOUND: f64 = 1.0 / 3.0;
/// The narrowest bound worth declaring, and the widest
/// `BENCHMARK.json` may declare.
const MIN_BOUND: f64 = 0.05;
const MAX_BOUND: f64 = 0.25;

/// The bound a metric whose widest spread was `widest` should declare:
/// the spread fits in it three times, in steps of 0.05.
fn derived_bound(widest: f64) -> f64 {
    // Less a hair, so that a spread of exactly 0.05 asks for 0.15.
    let steps = (widest / WANTED_SHARE_OF_BOUND / MIN_BOUND - 1e-9).ceil();
    (steps * MIN_BOUND).clamp(MIN_BOUND, MAX_BOUND)
}

struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared_metrics() -> Result<(Vec<Declared>, f64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let file = jsonlite::parse(&text)?;
    let seconds = file
        .req("run_seconds")?
        .as_f64()
        .ok_or("run_seconds must be a number")?;
    let metrics = file
        .req("end_to_end")?
        .as_arr()
        .ok_or("end_to_end must be an array")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m.req("name")?.as_str().ok_or("metric name")?.to_string(),
                higher_is_better: m.req("better")?.as_str() == Some("higher"),
                bound: m.req("bound")?.as_f64().ok_or("metric bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((metrics, seconds))
}

/// One untraced run; the metric values of its result line.
fn one_run(workload: Workload, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let out = crate::rerun(workload, seed, seconds, false)?
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let result = jsonlite::parse(line)
        .map_err(|e| format!("{} seed {seed}: no result line ({e})", workload.name()))?;
    if result.req("correct")?.as_bool() != Some(true) {
        return Err(format!(
            "{} seed {seed}: not correct: {line}",
            workload.name()
        ));
    }
    match result.req("metrics")? {
        Value::Obj(pairs) => pairs
            .iter()
            .map(|(name, m)| {
                let value = m.req("value")?.as_f64().ok_or("metric value")?;
                Ok((name.clone(), value))
            })
            .collect(),
        _ => Err("metrics must be an object".to_string()),
    }
}

/// Readings by (index into `Workload::ALL`, metric name).
type Readings = BTreeMap<(usize, String), Vec<f64>>;

fn one_set(first_seed: u64, seconds: f64) -> Result<Readings, String> {
    let mut readings = Readings::new();
    for seed in first_seed..first_seed + RUNS {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            for (name, value) in one_run(workload, seed, seconds)? {
                readings.entry((w, name)).or_default().push(value);
            }
            eprintln!("selfcheck: {} seed {seed} done", workload.name());
        }
    }
    Ok(readings)
}

fn spread(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

pub fn run() -> Result<bool, String> {
    let (declared, seconds) = declared_metrics()?;
    let first = one_set(1, seconds)?;
    let second = one_set(1 + RUNS, seconds)?;

    println!(
        "selfcheck: 2 sets x {RUNS} seeds x {} workloads, {seconds} s a run",
        Workload::ALL.len()
    );
    println!(
        "{:<16} {:<24} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound"
    );
    let mut all_ok = true;
    let mut worst_spread: BTreeMap<&str, f64> = BTreeMap::new();
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for metric in &declared {
            let key = (w, metric.name.clone());
            let (a, b) = match (first.get(&key), second.get(&key)) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(format!(
                        "{}: no {} in the result line",
                        workload.name(),
                        metric.name
                    ))
                }
            };
            let (ma, mb) = (median(a), median(b));
            // Positive = the second set is worse.
            let worse = if metric.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let (sa, sb) = (spread(a), spread(b));
            let widest = sa.max(sb);
            let entry = worst_spread.entry(&metric.name).or_insert(0.0);
            *entry = entry.max(widest);
            let spread_ok = metric.name == "setup_s" || widest <= metric.bound;
            let ok = spread_ok && worse <= metric.bound;
            all_ok &= ok;
            println!(
                "{:<16} {:<24} {:>12.5} {:>12.5} {:>+8.3} {:>8.3} {:>8.3} {:>6.2}  {}",
                workload.name(),
                metric.name,
                ma,
                mb,
                worse,
                sa,
                sb,
                metric.bound,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    println!("\nwidest spread seen per metric, the bound it asks for and the bound declared:");
    for metric in &declared {
        let widest = worst_spread[metric.name.as_str()];
        let note = if metric.name == "setup_s" {
            "(spread not judged)"
        } else if widest > MAX_BOUND {
            "wider than any bound the driver accepts: move it under client.*"
        } else if widest > metric.bound * WANTED_SHARE_OF_BOUND {
            "more than a third of its bound: a noisier day may reject it"
        } else {
            ""
        };
        println!(
            "{:<24} widest spread {:.3}, asks for {:.2}, declared {:.2} {note}",
            metric.name,
            widest,
            derived_bound(widest),
            metric.bound
        );
    }
    println!("selfcheck: {}", if all_ok { "PASS" } else { "FAIL" });
    Ok(all_ok)
}
