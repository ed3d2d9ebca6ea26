//! The untraced run: set-up, the timed closed loop in five equal
//! blocks, and the end-to-end metrics read from it.

use crate::rest::{self, OpOutcome};
use crate::stats;
use crate::workloads::Inputs;
use campaign::{ApiServer, CampaignService};
use httpd::Client;
use std::time::Instant;

/// Unstamped ops run before anything is timed.
pub const WARMUP_OPS: u64 = 3;

/// `USER_HZ`: the unit of the CPU times in `/proc/self/stat`. It is
/// 100 on every Linux ABI; std offers no `sysconf` to ask.
const CLOCK_TICKS_PER_S: f64 = 100.0;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, and their spread where the value is
    /// a median; shown next to it, not part of the result line.
    pub n: usize,
    pub iqr: Option<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n: 1,
            iqr: None,
        }
    }

    /// The median of `samples`, with their count and quartile spread.
    pub fn median_of(name: impl Into<String>, samples: &[f64], unit: &'static str) -> Metric {
        Metric {
            iqr: (samples.len() >= 2).then(|| stats::iqr(samples)),
            n: samples.len(),
            ..Metric::new(name, stats::median(samples), unit)
        }
    }

    pub fn with_n(mut self, n: usize) -> Metric {
        self.n = n;
        self
    }
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name may hold spaces; fields are counted after it.
    let after_comm = stat.rsplit_once(')').expect("stat has a command name").1;
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime and stime are fields 14 and 15")
    };
    (tick() + tick()) / CLOCK_TICKS_PER_S
}

/// The process's peak resident set so far, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// A booted, warmed single-node server with the client connected.
pub struct Stack {
    pub server: ApiServer,
    pub client: Client,
    /// Ops submitted so far (warm-up included); numbers the next op.
    pub next_op: u64,
}

impl Stack {
    /// Boots the server and runs the warm-up ops. For every workload
    /// but `fresh_revision` the warm-up is what fills the caches.
    pub fn boot(inputs: &Inputs) -> Result<Stack, String> {
        let server = rest::boot_single();
        let mut client = Client::new(server.addr().to_string());
        warm_up(&mut client, inputs)?;
        Ok(Stack {
            server,
            client,
            next_op: WARMUP_OPS,
        })
    }

    pub fn shutdown(self) -> CampaignService {
        drop(self.client);
        self.server.shutdown()
    }
}

/// Runs the warm-up ops, unstamped, one per distinct op first.
pub fn warm_up(client: &mut Client, inputs: &Inputs) -> Result<(), String> {
    for n in 0..WARMUP_OPS {
        if let Some(why) = rest::run_op(client, &rest::bodies(inputs.set(n))).failure {
            return Err(format!("warm-up op {n}: {why}"));
        }
    }
    Ok(())
}

/// The ops of one timed loop, in order, with the clocks read as each
/// one ended.
pub struct TimedRun {
    pub ops: Vec<OpOutcome>,
    /// (wall, CPU) seconds since the loop started: before the first
    /// op, then after each. CPU time ticks in hundredths of a second,
    /// coarse for one op and fine for the fifty a block sums.
    marks: Vec<(f64, f64)>,
}

/// A fifth of a timed loop's ops: every fifth one.
pub struct Block<'a> {
    /// Σ of the ops' latencies: the loop is closed, so that is the
    /// wall time they took.
    pub wall: f64,
    pub cpu: f64,
    pub ops: Vec<&'a OpOutcome>,
}

impl Block<'_> {
    pub fn experiments(&self) -> u64 {
        self.ops.iter().map(|o| o.experiments).sum()
    }

    fn latencies(&self) -> Vec<(u64, f64)> {
        self.ops.iter().map(|o| (o.n, o.latency)).collect()
    }

    fn status_rtts(&self) -> Vec<f64> {
        self.ops
            .iter()
            .flat_map(|o| o.status_rtts.iter().copied())
            .collect()
    }
}

/// Op `n` of the workload, over REST.
pub fn numbered_op(client: &mut Client, inputs: &Inputs, n: u64) -> OpOutcome {
    let mut op = rest::run_op(client, &rest::bodies(&inputs.op_specs(n)));
    op.n = n;
    op
}

/// Runs ops back to back until `quota` of them are done or `seconds`
/// have passed, whichever is first.
pub fn timed_loop(
    client: &mut Client,
    inputs: &Inputs,
    next_op: &mut u64,
    seconds: f64,
    quota: usize,
) -> TimedRun {
    let (started, cpu_before) = (Instant::now(), cpu_seconds());
    let mut run = TimedRun {
        ops: Vec::new(),
        marks: vec![(0.0, 0.0)],
    };
    while run.ops.len() < quota.max(stats::BLOCKS) && started.elapsed().as_secs_f64() < seconds {
        run.ops.push(numbered_op(client, inputs, *next_op));
        *next_op += 1;
        run.marks
            .push((started.elapsed().as_secs_f64(), cpu_seconds() - cpu_before));
    }
    run
}

impl TimedRun {
    /// Seconds from the loop's start to the end of its last op.
    pub fn wall(&self) -> f64 {
        self.marks.last().map_or(0.0, |m| m.0)
    }

    /// Five blocks; op `i` of the loop belongs to block `i mod 5`.
    ///
    /// The service slows down as finished campaigns pile up in it
    /// (`small_cells` ops take three times as long at the end of a run
    /// as at its start), so five consecutive stretches would be five
    /// different measurements. Interleaved, every block spans the
    /// whole run and carries the same history: the blocks are
    /// replicates, and their spread is the run's own noise.
    pub fn blocks(&self) -> Vec<Block<'_>> {
        (0..stats::BLOCKS)
            .map(|k| {
                let picked = || (k..self.ops.len()).step_by(stats::BLOCKS);
                Block {
                    wall: picked().map(|i| self.ops[i].latency).sum(),
                    cpu: picked()
                        .map(|i| self.marks[i + 1].1 - self.marks[i].1)
                        .sum(),
                    ops: picked().map(|i| &self.ops[i]).collect(),
                }
            })
            .filter(|b| !b.ops.is_empty())
            .collect()
    }
}

/// The end-to-end metrics of a timed loop, `setup_s` aside. Rates and
/// ratios are the median over the blocks of each block's own value.
pub fn end_to_end(blocks: &[Block<'_>], sets: usize) -> Vec<Metric> {
    let over_blocks = |name: &str, unit: &'static str, f: &dyn Fn(&Block) -> f64| -> Metric {
        Metric::median_of(name, &blocks.iter().map(f).collect::<Vec<_>>(), unit)
    };
    let all: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.ops.iter().map(|o| o.latency))
        .collect();
    let tail = stats::tail(&all);
    // Shown, not judged: between runs of one build the tail moves by
    // more than any bound the driver accepts (see README).
    println!(
        "note: submit_to_report p{} = {} s over {} ops",
        tail.percentile,
        tail.value,
        all.len()
    );
    vec![
        over_blocks("submit_to_report_p50_s", "s", &|b| {
            stats::rotation_median(&b.latencies(), sets)
        }),
        over_blocks("experiments_per_s", "1/s", &|b| {
            b.experiments() as f64 / b.wall
        }),
        over_blocks("cpu_ms_per_experiment", "ms", &|b| {
            1000.0 * b.cpu / b.experiments() as f64
        }),
        over_blocks("status_blocked_ratio", "ratio", &|b| {
            stats::blocked_ratio(&b.status_rtts(), b.wall)
        }),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}
