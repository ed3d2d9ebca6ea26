//! P-4 (§IV-B / §V-D): parallel experiment execution.
//!
//! Paper: experiments run in up to N−1 parallel containers on an
//! N-core host (following "No PAIN, no gain?" [52]), backing off under
//! memory/IO pressure; the scan itself is "embarrassingly parallel".
//!
//! The bench measures campaign throughput at several worker counts —
//! the shape to reproduce is near-linear speedup up to the N−1 cap —
//! plus the DESIGN.md §8 ablation of the memory back-off threshold.
//!
//! Run: `cargo bench -p bench --bench parallel_speedup`.

use profipy::case_study::campaign_c;
use sandbox::ParallelExecutor;

fn main() {
    let campaign = campaign_c();
    let points = campaign.workflow.scan();
    let plan = campaign
        .workflow
        .plan(&points, &campaign.filter.clone().sample(16));
    let entries = plan.entries.clone();
    eprintln!("P-4: {} experiments per batch", entries.len());

    let batch = |executor: &ParallelExecutor| {
        executor.run(entries.len(), |i| {
            campaign.workflow.run_experiment(&entries[i])
        })
    };
    for cores in [2usize, 4, 8] {
        let executor = ParallelExecutor::new(cores);
        bench::time(&format!("campaign_batch/cores/{cores}"), 10, || {
            batch(&executor)
        });
    }

    // Ablation: memory back-off reduces effective workers.
    let mut constrained = ParallelExecutor::new(16);
    constrained.mem_mb_total = 1024;
    constrained.mem_mb_per_container = 512;
    eprintln!(
        "P-4 ablation: 16-core host, unconstrained workers = {}, with 1 GB memory cap = {}",
        ParallelExecutor::new(16).effective_workers(64),
        constrained.effective_workers(64)
    );
    for (label, executor) in [
        ("unconstrained", ParallelExecutor::new(16)),
        ("memory_capped", constrained),
    ] {
        bench::time(&format!("memory_backoff_ablation/{label}"), 10, || {
            batch(&executor)
        });
    }
}
