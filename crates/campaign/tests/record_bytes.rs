//! What a recorded experiment result costs on disk and on the wire.
//!
//! Every result a checkpoint appends, a fleet worker uploads or a
//! reopened engine reads back goes through `result_to_value`. The paper's
//! three campaigns run here through `Workflow::run_campaign`, and the
//! encoded bytes of their results are pinned exactly, per campaign: the
//! total and the largest. The interpreter and the simulated host are
//! deterministic, so the figures repeat; a change that moves what a
//! record carries moves a number below, and the pin is edited on
//! purpose, never by drift. Each of those lines also decodes to
//! exactly the result's record (`ExperimentResult::into_record`).

use campaign::{result_from_value, result_to_value};
use profipy::case_study::{campaign_a, campaign_b, campaign_c};

/// Per campaign: results, total encoded bytes, largest encoded result.
/// A result that carried every host event, every log and stdout
/// encoded to 116 944 / 930 412 / 648 257 bytes in all (largest
/// 20 153 / 20 160 / 20 184).
const PINNED: [(&str, usize, usize, usize); 3] = [
    ("A", 12, 4_406, 662),
    ("B", 53, 19_047, 461),
    ("C", 45, 17_475, 671),
];

#[test]
fn encoded_bytes_per_result_are_pinned() {
    let mut measured = Vec::new();
    for (name, campaign) in [("A", campaign_a()), ("B", campaign_b()), ("C", campaign_c())] {
        let outcome = campaign
            .workflow
            .run_campaign(&campaign.filter, campaign.prune_by_coverage)
            .expect("case-study campaign runs");
        let mut sizes = Vec::new();
        for r in &outcome.results {
            let line = result_to_value(r).compact();
            sizes.push(line.len());
            let back = result_from_value(&jsonlite::parse(&line).expect("a record parses"))
                .expect("a record decodes");
            assert_eq!(
                format!("{back:?}"),
                format!("{:?}", r.clone().into_record()),
                "campaign {name}, point {}: decoded != record",
                r.point_id
            );
        }
        let total = sizes.iter().sum();
        let largest = sizes.iter().copied().max().unwrap_or(0);
        println!("campaign {name}: {} results, {total} bytes, largest {largest}", sizes.len());
        measured.push((name, sizes.len(), total, largest));
    }
    assert_eq!(measured, PINNED);
}
