//! Allocation budget of a warm experiment.
//!
//! A test binary of its own: the counting `#[global_allocator]` below
//! counts only while the measuring thread has switched it on, so other
//! test threads (there are none here, but the harness has its own) do
//! not leak into the figure. Counts are exact and repeat exactly — the
//! interpreter, the simulated host and the collection path are
//! deterministic — so a change that adds a per-call or per-string
//! allocation moves a number printed below, and the budget is edited on
//! purpose, never by drift.
//!
//! CI judges the budget on the `--release` count (`cargo test --release
//! -p profipy --test alloc_budget`); the tier-1 profile's `opt-level =
//! 1` may elide differently, so the debug run checks only the looser
//! bound.

use profipy::case_study::{campaign_a, campaign_b, campaign_c, Campaign};
use profipy::workflow::{Workflow, WorkflowConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator is also called while a thread's locals
    // are being torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the only extra
// work is a thread-local counter bump, which does not allocate (both
// locals are `const`-initialised `Cell`s without destructors).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (`alloc` + `alloc_zeroed` + `realloc`) this thread
/// makes while `f` runs.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get) - before)
}

/// Mean allocations of one warm experiment of `campaign`, over its
/// planned points: every experiment runs once unmeasured (filling the
/// prepare cache, the bytecode caches and the process-wide interner)
/// and is measured on its second run.
fn warm_experiment_allocations(campaign: &Campaign) -> u64 {
    let wf = &campaign.workflow;
    let points = wf.scan();
    let mut plan = wf.plan(&points, &campaign.filter);
    if campaign.prune_by_coverage {
        let covered = wf.coverage_run(&points).expect("fault-free run");
        plan = plan.prune_by_coverage(&covered);
    }
    assert!(!plan.is_empty());
    let mut total = 0;
    for point in &plan.entries {
        let sources = wf.mutant_sources(point).expect("renders");
        let cold = wf.run_experiment_with_sources(point, &sources);
        let (warm, n) = allocations_of(|| wf.run_experiment_with_sources(point, &sources));
        assert_eq!(cold.duration.to_bits(), warm.duration.to_bits());
        total += n;
    }
    total / plan.len() as u64
}

/// The parent commit's counts were 3 646 / 6 207 / 5 214 (release);
/// the budget is 60 % of each.
const BUDGET: [(&str, u64); 3] = [("A", 2_200), ("B", 3_700), ("C", 3_100)];

#[test]
fn warm_experiment_stays_within_its_allocation_budget() {
    // One thread, campaigns in sequence: the counts depend on nothing
    // but the code.
    let campaigns = [campaign_a(), campaign_b(), campaign_c()];
    let first: Vec<u64> = campaigns.iter().map(warm_experiment_allocations).collect();
    let second: Vec<u64> = campaigns.iter().map(warm_experiment_allocations).collect();
    println!(
        "alloc_budget: warm experiment allocations A / B / C = {} / {} / {}",
        first[0], first[1], first[2]
    );
    assert_eq!(first, second, "the count repeats exactly");
    // The budget is the release count's; the tier-1 profile
    // (`opt-level = 1`) is allowed a tenth more.
    let slack = if cfg!(debug_assertions) { 110 } else { 100 };
    for ((name, budget), got) in BUDGET.iter().zip(&first) {
        assert!(
            *got <= budget * slack / 100,
            "campaign {name}: a warm experiment allocates {got} times, budget {budget} — \
             find the new allocation, or raise the budget on purpose"
        );
    }
}

/// broker × `redelivery-storm`: the mutant drops the consumer's ack, so
/// round 1 spins in `while bus.backlog() > 0: … consumer.poll()` until
/// the fuel is gone.
fn hang_workflow(fuel_per_round: u64) -> Workflow {
    let target = scenarios::noop_catalog()
        .into_iter()
        .find(|t| t.name == "broker")
        .expect("catalog has the broker");
    let model = scenarios::default_corpus()
        .into_iter()
        .find(|m| m.model.name == "redelivery-storm")
        .expect("corpus has redelivery-storm")
        .model;
    Workflow::new(
        target.sources,
        target.workload,
        model,
        Arc::new(|_| Rc::new(pyrt::NoopHost::new()) as Rc<dyn pyrt::HostApi>),
        WorkflowConfig {
            fuel_per_round,
            ..WorkflowConfig::default()
        },
    )
    .expect("catalog sources and corpus models are well-formed")
}

/// Allocations of the hang experiment at the given fuel (second run).
fn hang_allocations(fuel_per_round: u64) -> u64 {
    let wf = hang_workflow(fuel_per_round);
    let points = wf.scan();
    let point = points.first().expect("one ack to drop");
    let sources = wf.mutant_sources(point).expect("renders");
    let cold = wf.run_experiment_with_sources(point, &sources);
    assert_eq!(cold.round1.status, sandbox::RoundStatus::Timeout);
    let (_, n) = allocations_of(|| wf.run_experiment_with_sources(point, &sources));
    n
}

#[test]
fn hang_loop_allocates_nothing_per_iteration() {
    // Two fuel readings well into the loop's steady state; an iteration
    // is three method calls and three `len` calls, ~60 steps, so the
    // second reading is thousands of iterations past the first.
    let (short, long) = (hang_allocations(400_000), hang_allocations(800_000));
    println!("alloc_budget: hang experiment allocations at 400k / 800k steps = {short} / {long}");
    assert_eq!(
        long, short,
        "the spin loop's steady state allocates: {} allocations over 400 000 more steps",
        long as i64 - short as i64
    );
}
