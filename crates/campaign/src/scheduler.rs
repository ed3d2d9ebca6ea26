//! The multi-campaign scheduler.
//!
//! Takes the pending experiments of several prepared campaigns,
//! interleaves them round-robin into a single job stream, and drains
//! that stream through `sandbox::ParallelExecutor::run_stream` — one
//! worker pool serving *all* queued campaigns at once (paper §IV-B runs
//! one campaign in N−1 containers; the orchestration engine keeps those
//! containers busy across campaign boundaries).
//!
//! Results are dispatched back to each campaign's checkpoint log on the
//! scheduler thread as they complete, so a crash at any instant loses
//! at most the experiments still in flight.

use crate::checkpoint::CheckpointLog;
use injector::InjectionPoint;
use profipy::workflow::{Mutant, Workflow};
use profipy::ExperimentResult;
use sandbox::ParallelExecutor;
use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Optional per-experiment telemetry threaded through
/// [`run_interleaved`]: the execution-latency histogram plus (when the
/// engine has a trace store attached) span recording keyed by the
/// campaigns' queue-job ids. Both sinks are lock-light and `Sync`, so
/// observations happen on the executor's worker threads.
pub struct RunTelemetry<'a> {
    /// `campaign_experiment_seconds`.
    pub experiment_seconds: &'a obs::Histogram,
    /// `(store, job ids)` — ids indexed by `ExperimentJob::campaign`.
    pub trace: Option<(&'a trace::TraceStore, &'a [String])>,
}

/// One schedulable experiment: everything a worker needs, with no
/// shared mutable state.
pub struct ExperimentJob {
    /// Index of the owning campaign in the scheduler's slice.
    pub campaign: usize,
    /// The injection point to exercise.
    pub point: InjectionPoint,
    /// The rendered mutant (from the mutant cache).
    pub mutant: Mutant,
    /// The owning campaign's workflow.
    pub workflow: Arc<Workflow>,
}

/// A campaign ready for scheduling.
pub struct ScheduledCampaign {
    /// The workflow (shared with every job of this campaign).
    pub workflow: Arc<Workflow>,
    /// Pending experiments: `(point, rendered mutant)`.
    pub pending: Vec<(InjectionPoint, Mutant)>,
    /// Where completed results are recorded.
    pub checkpoint: CheckpointLog,
}

/// Round-robin interleaving: campaign 0's first pending experiment,
/// campaign 1's first, …, campaign 0's second, and so on. `budget`
/// caps the total number of jobs emitted (`None` = all).
pub fn interleave(campaigns: &mut [ScheduledCampaign], budget: Option<usize>) -> VecDeque<ExperimentJob> {
    let mut jobs = VecDeque::new();
    let budget = budget.unwrap_or(usize::MAX);
    let mut iters: Vec<_> = campaigns
        .iter_mut()
        .enumerate()
        .map(|(i, c)| (i, c.workflow.clone(), std::mem::take(&mut c.pending).into_iter()))
        .collect();
    'outer: loop {
        let mut emitted_any = false;
        for (campaign, workflow, iter) in &mut iters {
            if let Some((point, mutant)) = iter.next() {
                if jobs.len() >= budget {
                    break 'outer;
                }
                jobs.push_back(ExperimentJob {
                    campaign: *campaign,
                    point,
                    mutant,
                    workflow: workflow.clone(),
                });
                emitted_any = true;
            }
        }
        if !emitted_any {
            break;
        }
    }
    jobs
}

/// Drains the job stream through the executor, checkpointing each
/// result into its campaign's log as it completes. Returns the number
/// of experiments executed.
///
/// # Errors
///
/// The first checkpoint I/O error (execution stops being recorded at
/// that point, so the error is fatal for the drive).
pub fn run_interleaved(
    executor: &ParallelExecutor,
    jobs: VecDeque<ExperimentJob>,
    campaigns: &mut [ScheduledCampaign],
    telemetry: Option<&RunTelemetry<'_>>,
) -> io::Result<usize> {
    let total = jobs.len();
    let stream = Mutex::new(jobs);
    let mut io_error: Option<io::Error> = None;
    let mut executed = 0usize;
    executor.run_stream(
        total,
        &stream,
        |job: ExperimentJob| {
            let started = Instant::now();
            let result = job.workflow.run_mutant(&job.point, &job.mutant);
            if let Some(t) = telemetry {
                let elapsed = started.elapsed();
                t.experiment_seconds.observe_duration(elapsed);
                if let Some((store, ids)) = t.trace {
                    if let Some(id) = ids.get(job.campaign) {
                        store.record_phase(
                            id,
                            "engine",
                            &format!("execute #{}", job.point.id),
                            started,
                            elapsed,
                            result.failed_round1(),
                        );
                    }
                }
            }
            (job.campaign, result)
        },
        |(campaign, result): (usize, ExperimentResult)| {
            executed += 1;
            if io_error.is_none() {
                if let Err(e) = campaigns[campaign].checkpoint.record_owned(result) {
                    io_error = Some(e);
                }
            }
        },
    );
    match io_error {
        Some(e) => Err(e),
        None => Ok(executed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(id: u64) -> InjectionPoint {
        use pysrc::ast::NodeId;
        use pysrc::error::Span;
        InjectionPoint {
            id,
            spec_name: "S".into(),
            module: "m".into(),
            scope: "f".into(),
            span: Span::default(),
            start_stmt_id: NodeId::DUMMY,
            window_len: 1,
            core_ids: vec![],
        }
    }

    fn campaign_with(points: &[u64]) -> ScheduledCampaign {
        // A tiny real workflow (never executed by `interleave` tests).
        let workflow = Workflow::new(
            vec![("m".into(), "pass\n".into())],
            "def run(round):\n    pass\n".into(),
            faultdsl::campaign_a_model(),
            Arc::new(|_| std::rc::Rc::new(pyrt::NoopHost::new()) as std::rc::Rc<dyn pyrt::HostApi>),
            Default::default(),
        )
        .unwrap();
        ScheduledCampaign {
            workflow: Arc::new(workflow),
            pending: points
                .iter()
                .map(|&id| {
                    let mutant = Mutant {
                        sources: Arc::new(Vec::new()),
                        prepared: None,
                        def_bytes: 0,
                    };
                    (point(id), mutant)
                })
                .collect(),
            checkpoint: CheckpointLog::in_memory(0),
        }
    }

    #[test]
    fn interleaving_alternates_campaigns() {
        let mut campaigns = vec![campaign_with(&[1, 2, 3]), campaign_with(&[10, 20])];
        let jobs = interleave(&mut campaigns, None);
        let order: Vec<(usize, u64)> = jobs.iter().map(|j| (j.campaign, j.point.id)).collect();
        assert_eq!(
            order,
            vec![(0, 1), (1, 10), (0, 2), (1, 20), (0, 3)],
            "round-robin across campaigns"
        );
    }

    #[test]
    fn budget_caps_total_jobs() {
        let mut campaigns = vec![campaign_with(&[1, 2, 3]), campaign_with(&[10, 20])];
        let jobs = interleave(&mut campaigns, Some(3));
        assert_eq!(jobs.len(), 3);
        let order: Vec<(usize, u64)> = jobs.iter().map(|j| (j.campaign, j.point.id)).collect();
        assert_eq!(order, vec![(0, 1), (1, 10), (0, 2)]);
    }

    #[test]
    fn empty_campaigns_produce_no_jobs() {
        let mut campaigns = vec![campaign_with(&[])];
        assert!(interleave(&mut campaigns, None).is_empty());
    }
}
