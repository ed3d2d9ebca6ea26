//! Parallel experiment execution (paper §IV-B: "run at most N − 1
//! parallel containers at the same time, where N is the number of CPU
//! cores ... the tool further reduces the number of parallel containers
//! if it hits a threshold for memory and I/O utilization"). The memory
//! threshold is modelled; an I/O one is not, as nothing here sets one.
//!
//! Two entry points:
//!
//! * [`ParallelExecutor::run`] — a fixed batch of indexed jobs, results
//!   returned in order (the classic single-campaign path).
//! * [`ParallelExecutor::run_stream`] — a dynamic [`JobStream`] drained
//!   by the worker pool until exhausted. The campaign scheduler feeds
//!   experiments from *multiple queued campaigns* through one stream so
//!   every worker stays busy across campaign boundaries.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// A dynamic source of jobs drained by the worker pool. Implementations
/// must hand out each job exactly once; `None` permanently ends the
/// stream for the asking worker.
pub trait JobStream: Sync {
    /// The job payload handed to workers.
    type Job: Send;

    /// Pops the next job, or `None` when the stream is exhausted.
    fn next_job(&self) -> Option<Self::Job>;
}

/// The obvious shared work queue: lock, pop front.
impl<J: Send> JobStream for Mutex<VecDeque<J>> {
    type Job = J;

    fn next_job(&self) -> Option<J> {
        self.lock().expect("job queue poisoned").pop_front()
    }
}

struct IndexStream {
    next: AtomicUsize,
    limit: usize,
}

impl JobStream for IndexStream {
    type Job = usize;

    fn next_job(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.limit).then_some(i)
    }
}

/// The parallel experiment executor.
#[derive(Clone, Debug)]
pub struct ParallelExecutor {
    /// CPU cores of the (simulated) host.
    pub cpu_cores: usize,
    /// Total memory available for containers (MB).
    pub mem_mb_total: u64,
    /// Memory footprint of one container (MB).
    pub mem_mb_per_container: u64,
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        ParallelExecutor {
            cpu_cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            mem_mb_total: 16 * 1024,
            mem_mb_per_container: 512,
        }
    }
}

impl fmt::Display for ParallelExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "executor(cores={}, workers<={}, mem={}MB/{}MB)",
            self.cpu_cores,
            self.cpu_cores.saturating_sub(1).max(1),
            self.mem_mb_total,
            self.mem_mb_per_container,
        )
    }
}

impl ParallelExecutor {
    /// Creates an executor for a host with `cpu_cores` cores.
    pub fn new(cpu_cores: usize) -> ParallelExecutor {
        ParallelExecutor {
            cpu_cores,
            ..ParallelExecutor::default()
        }
    }

    /// Effective worker count: `min(N−1, memory cap, jobs)`, at least
    /// 1.
    pub fn effective_workers(&self, jobs: usize) -> usize {
        let cpu_cap = self.cpu_cores.saturating_sub(1).max(1);
        let mem_cap = match self.mem_mb_total.checked_div(self.mem_mb_per_container) {
            Some(n) => (n as usize).max(1),
            None => usize::MAX,
        };
        cpu_cap.min(mem_cap).min(jobs.max(1))
    }

    /// Runs `jobs` independent experiments in parallel, preserving
    /// result order, the way [`ParallelExecutor::run_stream`] runs them.
    ///
    /// # Panics
    ///
    /// Panics if a worker panics.
    pub fn run<R, F>(&self, jobs: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if jobs == 0 {
            return Vec::new();
        }
        let stream = IndexStream {
            next: AtomicUsize::new(0),
            limit: jobs,
        };
        let mut results: Vec<Option<R>> = (0..jobs).map(|_| None).collect();
        self.run_stream(jobs, &stream, |i| (i, f(i)), |(i, r)| {
            results[i] = Some(r);
        });
        results
            .into_iter()
            .map(|r| r.expect("every job index produced a result"))
            .collect()
    }

    /// Drains a [`JobStream`] with up to `effective_workers(jobs_hint)`
    /// workers, invoking `collect` on the **calling thread** for every
    /// result as it arrives (completion order, not submission order).
    ///
    /// `jobs_hint` bounds pool size for small batches; pass
    /// `usize::MAX` when the stream length is unknown.
    ///
    /// Workers are spawned with [`pyrt::interp::STACK_BYTES`] of stack.
    /// With one worker no thread is spawned: every job runs on the
    /// calling thread, whose stack is the caller's to size.
    ///
    /// # Panics
    ///
    /// Panics if a worker panics.
    pub fn run_stream<S, R, F, C>(&self, jobs_hint: usize, stream: &S, run: F, mut collect: C)
    where
        S: JobStream,
        R: Send,
        F: Fn(S::Job) -> R + Sync,
        C: FnMut(R),
    {
        let workers = self.effective_workers(jobs_hint);
        if workers == 1 {
            while let Some(job) = stream.next_job() {
                collect(run(job));
            }
            return;
        }
        let (tx, rx) = mpsc::channel::<R>();
        let run = &run;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                std::thread::Builder::new()
                    .stack_size(pyrt::interp::STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        while let Some(job) = stream.next_job() {
                            if tx.send(run(job)).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn worker");
            }
            drop(tx);
            for r in rx {
                collect(r);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_minus_one_rule() {
        let ex = ParallelExecutor::new(8);
        assert_eq!(ex.effective_workers(100), 7);
        assert_eq!(ParallelExecutor::new(1).effective_workers(100), 1);
        assert_eq!(ParallelExecutor::new(2).effective_workers(100), 1);
    }

    #[test]
    fn memory_threshold_reduces_workers() {
        let mut ex = ParallelExecutor::new(32);
        ex.mem_mb_total = 2048;
        ex.mem_mb_per_container = 512;
        assert_eq!(ex.effective_workers(100), 4);
    }

    #[test]
    fn job_count_caps_workers() {
        let ex = ParallelExecutor::new(16);
        assert_eq!(ex.effective_workers(2), 2);
        assert_eq!(ex.effective_workers(0), 1);
    }

    #[test]
    fn display_summarizes_caps() {
        let mut ex = ParallelExecutor::new(8);
        ex.mem_mb_total = 2048;
        assert_eq!(
            ex.to_string(),
            "executor(cores=8, workers<=7, mem=2048MB/512MB)"
        );
    }

    #[test]
    fn results_preserve_order() {
        let ex = ParallelExecutor::new(8);
        let out = ex.run(64, |i| i * i);
        assert_eq!(out.len(), 64);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn serial_fallback_works() {
        let ex = ParallelExecutor::new(1);
        let out = ex.run(5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_jobs() {
        let ex = ParallelExecutor::new(4);
        let out: Vec<usize> = ex.run(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn stream_drains_shared_queue() {
        let ex = ParallelExecutor::new(4);
        let queue: Mutex<VecDeque<u64>> = Mutex::new((0..100).collect());
        let mut seen = Vec::new();
        ex.run_stream(usize::MAX, &queue, |j| j * 2, |r| seen.push(r));
        seen.sort_unstable();
        assert_eq!(seen, (0..100).map(|j| j * 2).collect::<Vec<_>>());
        assert!(queue.lock().unwrap().is_empty());
    }

    #[test]
    fn stream_serial_path() {
        let ex = ParallelExecutor::new(1);
        let queue: Mutex<VecDeque<u64>> = Mutex::new((0..5).collect());
        let mut seen = Vec::new();
        ex.run_stream(usize::MAX, &queue, |j| j + 1, |r| seen.push(r));
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn workers_actually_run_vms() {
        // Each job runs a tiny interpreter — exercises Send boundaries.
        let ex = ParallelExecutor::new(4);
        let outs = ex.run(8, |i| {
            let m = pysrc::parse_module(&format!("print({i} * 2)\n"), "m.py").unwrap();
            let mut vm = pyrt::Vm::new();
            vm.run_module(&m).unwrap();
            vm.stdout()
        });
        assert_eq!(outs[3], "6\n");
    }
}
