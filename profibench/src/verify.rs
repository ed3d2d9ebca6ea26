//! The correctness gate: every fetched report must equal, byte for
//! byte, a reference built on a path that shares no engine, cache or
//! checkpoint with the service; for the default seed the references
//! must also match the committed golden digests.

use crate::workloads::{build_workflow, stamped, Inputs, Workload, DEFAULT_SEED};
use campaign::{report_to_value, CampaignSpec};
use profipy::analysis::FailureClassifier;
use profipy::CampaignReport;

const GOLDEN: &str = include_str!("../golden.json");

/// The report `Workflow::run_campaign` produces for `spec`, in the
/// wire encoding, and how many injection points its scan found.
///
/// The service reports the coverage-pruned plan as `planned_points`
/// and never fills `covered_points`, so the reference is built with
/// `from_results` over the outcome, not with `from_outcome`.
pub fn reference_report(spec: &CampaignSpec) -> Result<(String, usize), String> {
    let outcome = build_workflow(spec)?
        .run_campaign(&spec.filter.to_filter(), spec.prune_by_coverage)
        .map_err(|e| e.message)?;
    let mut results = outcome.results;
    results.sort_by_key(|r| r.point_id);
    let report = CampaignReport::from_results(
        &spec.name,
        results.len(),
        None,
        &results,
        &FailureClassifier::case_study(),
    );
    Ok((report_to_value(&report).pretty(), outcome.points.len()))
}

/// Reference digests, one list per distinct op, in submit order.
pub struct References {
    pub digests: Vec<Vec<u64>>,
}

impl References {
    /// Builds the reference of every distinct op from the specs that
    /// op submits, and checks the revision stamp: a stamped campaign
    /// must find the injection points of the unstamped one, and its
    /// report must not depend on which revision it carries, so that
    /// one reference serves every op.
    ///
    /// The stamped report is not the unstamped one: the assignment is
    /// executed once per import and moves `total_virtual_secs` in its
    /// fifth digit. That no other line of the report differs is
    /// checked here too.
    pub fn build(inputs: &Inputs) -> Result<References, String> {
        let sets = inputs.sets.len() as u64;
        let mut digests = Vec::new();
        for n in 0..sets {
            let mut row = Vec::new();
            for (spec, unstamped) in inputs.op_specs(n).iter().zip(inputs.set(n)) {
                let (report, points) = reference_report(spec)?;
                if inputs.workload == Workload::FreshRevision {
                    let (plain, unstamped_points) = reference_report(unstamped)?;
                    if points != unstamped_points {
                        return Err(format!(
                            "{}: the stamp changed the scan ({unstamped_points} → {points} points)",
                            spec.name
                        ));
                    }
                    let same_but_for_time = report.lines().count() == plain.lines().count()
                        && report
                            .lines()
                            .zip(plain.lines())
                            .all(|(a, b)| a == b || a.contains("\"total_virtual_secs\""));
                    if !same_but_for_time {
                        return Err(format!(
                            "{}: the stamp changed more of the report than its virtual time",
                            spec.name
                        ));
                    }
                    let other = stamped(unstamped, inputs.seed, n + sets);
                    if reference_report(&other)?.0 != report {
                        return Err(format!(
                            "{}: the report depends on the revision stamped",
                            spec.name
                        ));
                    }
                }
                row.push(jsonlite::stable_hash64(report.as_bytes()));
            }
            digests.push(row);
        }
        Ok(References { digests })
    }

    /// Whether op `n` fetched exactly the reference reports.
    pub fn matches(&self, n: u64, fetched: &[u64]) -> bool {
        self.digests[(n % self.digests.len() as u64) as usize] == fetched
    }

    /// Compares against the committed digests; only the default seed
    /// has any.
    pub fn check_golden(&self, inputs: &Inputs) -> Result<(), String> {
        if inputs.seed != DEFAULT_SEED {
            return Ok(());
        }
        let golden = jsonlite::parse(GOLDEN)?;
        let want: Vec<Vec<u64>> = golden
            .req(inputs.workload.name())?
            .as_arr()
            .ok_or("golden: workload entry must be an array")?
            .iter()
            .map(|row| {
                row.as_arr()
                    .ok_or("golden: row must be an array")?
                    .iter()
                    .map(|d| {
                        d.as_str()
                            .and_then(|s| u64::from_str_radix(s, 16).ok())
                            .ok_or_else(|| "golden: digest must be a hex string".to_string())
                    })
                    .collect()
            })
            .collect::<Result<_, String>>()?;
        if want == self.digests {
            Ok(())
        } else {
            Err(format!(
                "{}: reference reports differ from golden.json — the program's results changed",
                inputs.workload.name()
            ))
        }
    }
}

/// The golden file for the default seed, as `profibench golden` prints it.
pub fn render_golden() -> Result<String, String> {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let refs = References::build(&Inputs::generate(workload, DEFAULT_SEED))?;
        let sets: Vec<String> = refs
            .digests
            .iter()
            .map(|row| {
                let cells: Vec<String> = row
                    .iter()
                    .map(|d| format!("\"{}\"", jsonlite::hex64(*d)))
                    .collect();
                format!("[{}]", cells.join(", "))
            })
            .collect();
        rows.push(format!("  \"{}\": [{}]", workload.name(), sets.join(", ")));
    }
    Ok(format!("{{\n{}\n}}\n", rows.join(",\n")))
}
