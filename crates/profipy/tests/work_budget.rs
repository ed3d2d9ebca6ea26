//! Work budget of the paper's three campaigns.
//!
//! A test binary of its own, like `alloc_budget.rs`: the interpreter
//! counters read here are process-wide, so no other test may run
//! containers beside it. Each campaign's planned experiments (campaign
//! A's coverage run included) run through `Workflow::run_campaign`, and
//! the deltas of `sandbox::heap_metrics()` around the run are pinned
//! exactly: interpreter steps settled, bytecode entries into the tree
//! walk per kind, and heap objects allocated per slab kind. So are the
//! largest captured stdout, stderr, log and host events of any one
//! experiment. The interpreter and the simulated host are
//! deterministic, so every figure repeats exactly; a change that
//! moves where or how often a step is charged moves a number printed
//! below, and the budget is edited on purpose, never by drift.

use profipy::case_study::{campaign_a, campaign_b, campaign_c, Campaign};
use pyrt::value::SLAB_KINDS;

const KINDS: usize = SLAB_KINDS.len();

/// What one campaign run costs the interpreter.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    experiments: usize,
    steps: u64,
    /// `ExecStmt` and `EvalExpr` entries, in `TRAMPOLINE_KINDS` order.
    trampolines: [u64; 2],
    /// Heap objects allocated, in `SLAB_KINDS` order.
    objects: [u64; KINDS],
    max_stdout: usize,
    max_stderr: usize,
    /// Bytes of the log messages of one experiment.
    max_log: usize,
    /// Bytes of the host event names of one experiment.
    max_events: usize,
}

fn counters() -> (u64, [u64; 2], [u64; KINDS]) {
    let m = sandbox::heap_metrics();
    (
        m.steps.value(),
        [0, 1].map(|k| m.trampolines[k].value()),
        std::array::from_fn(|k| m.objects[k].value()),
    )
}

fn work_of(campaign: &Campaign) -> Work {
    let (steps0, tramp0, objects0) = counters();
    let outcome = campaign
        .workflow
        .run_campaign(&campaign.filter, campaign.prune_by_coverage)
        .expect("case-study campaign runs");
    let (steps1, tramp1, objects1) = counters();
    let results = &outcome.results;
    let max = |f: &dyn Fn(&profipy::ExperimentResult) -> usize| results.iter().map(f).max();
    Work {
        experiments: results.len(),
        steps: steps1 - steps0,
        trampolines: [0, 1].map(|k| tramp1[k] - tramp0[k]),
        objects: std::array::from_fn(|k| objects1[k] - objects0[k]),
        max_stdout: max(&|r| r.stdout.len()).unwrap_or(0),
        max_stderr: max(&|r| r.stderr.len()).unwrap_or(0),
        max_log: max(&|r| r.logs.iter().map(|l| l.message.len()).sum()).unwrap_or(0),
        max_events: max(&|r| r.events.iter().map(|e| e.name.len()).sum()).unwrap_or(0),
    }
}

/// The pinned figures, campaign by campaign.
const BUDGET: [(&str, Work); 3] = [
    // objects: str, list, tuple, dict, set, func, bound, class,
    // instance, native, module.
    (
        "A",
        work(
            12,
            54_801,
            [461, 0],
            [3_123, 140, 192, 766, 0, 399, 0, 403, 24, 1_967, 115],
            [0, 0, 1_540, 2_531],
        ),
    ),
    (
        "B",
        work(
            53,
            398_839,
            [2_967, 0],
            [
                19_079, 1_023, 1_388, 5_769, 0, 1_643, 0, 1_643, 80, 12_085, 477,
            ],
            [0, 0, 1_541, 2_532],
        ),
    ),
    (
        "C",
        work(
            45,
            280_875,
            [2_194, 0],
            [13_817, 744, 972, 4_044, 0, 1_395, 0, 1_395, 62, 8_845, 405],
            [0, 0, 1_540, 2_531],
        ),
    ),
];

/// Experiments, steps, `ExecStmt` / `EvalExpr` entries, objects per
/// slab kind, and the largest stdout / stderr / log / event bytes.
const fn work(
    experiments: usize,
    steps: u64,
    trampolines: [u64; 2],
    objects: [u64; KINDS],
    max: [usize; 4],
) -> Work {
    Work {
        experiments,
        steps,
        trampolines,
        objects,
        max_stdout: max[0],
        max_stderr: max[1],
        max_log: max[2],
        max_events: max[3],
    }
}

#[test]
fn case_study_campaigns_do_exactly_their_pinned_work() {
    let campaigns = [campaign_a(), campaign_b(), campaign_c()];
    let first: Vec<Work> = campaigns.iter().map(work_of).collect();
    let second: Vec<Work> = campaigns.iter().map(work_of).collect();
    for ((name, _), got) in BUDGET.iter().zip(&first) {
        println!("work_budget: campaign {name}: {got:?}");
    }
    assert_eq!(
        first, second,
        "a second run of the same plans reads the same counts"
    );
    for ((name, want), got) in BUDGET.iter().zip(&first) {
        assert_eq!(
            got, want,
            "campaign {name} did different work — find what moved a step, or edit the budget on purpose"
        );
    }
}
