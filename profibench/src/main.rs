//! `profibench` — the submit→report ledger. See README.md.

mod layers;
mod measure;
mod replay;
mod rest;
mod selfcheck;
mod stats;
mod tracer;
mod verify;
mod workloads;

use measure::Metric;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Inputs, Workload, DEFAULT_SEED};

/// Directory for what a run leaves behind (traces, children's stderr).
pub const OUT_DIR: &str = "profibench/out";

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage() -> String {
    "usage: profibench [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
     \x20      profibench selfcheck\n\
     \x20      profibench golden\n\
     workloads: fresh_revision repeat_campaign hang_storm small_cells"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 28.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(args)
}

/// `PROFIPY_*` variables change what the program does (`PROFIPY_ENGINE`
/// picks the interpreter). They are removed before anything runs and
/// named in the run record.
fn clear_profipy_env() -> Vec<String> {
    let seen: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PROFIPY_"))
        .collect();
    for key in &seen {
        std::env::remove_var(key);
    }
    seen
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything needed to tell two outputs apart.
fn print_record(args: &Args, workload: Workload, env_seen: &[String]) {
    let start = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "record: workload={} trace={} seed={} seconds={} git_rev={} rustc=\"{}\" nproc={} \
         executor_cores={} worker_parallelism={} warmup_ops={} log_level=info \
         profipy_env_cleared=[{}] start_unix={}",
        workload.name(),
        u8::from(args.trace),
        args.seed,
        args.seconds,
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["-V"]),
        nproc,
        workloads::EXECUTOR_CORES,
        rest::WORKER_PARALLELISM,
        measure::WARMUP_OPS,
        env_seen.join(","),
        start
    );
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let iqr = m.iqr.map_or(String::new(), |i| format!(" iqr={i}"));
        println!(
            "metric: {} = {} {} (n={}{iqr})",
            m.name, m.value, m.unit, m.n
        );
    }
}

/// The result line the driver reads: last on stdout.
fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// This binary again, for one workload: every run gets a process of
/// its own, so no process-wide cache, interner or RSS high-water mark
/// leaks from one into the next.
pub fn rerun(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    Ok(command)
}

/// Set-up as a user meets it: build the specs, boot the server(s), run
/// the warm-up ops.
fn set_up(args: &Args, workload: Workload) -> Result<(Inputs, measure::Stack, f64), String> {
    let started = Instant::now();
    let inputs = Inputs::generate(workload, args.seed);
    let stack = measure::Stack::boot(&inputs)?;
    Ok((inputs, stack, started.elapsed().as_secs_f64()))
}

fn run_one(args: &Args, workload: Workload, env_seen: &[String]) -> Result<bool, String> {
    print_record(args, workload, env_seen);
    let (inputs, mut stack, setup_seconds) = set_up(args, workload)?;
    let mut cut_short = false;
    let (mut metrics, ops) = if args.trace {
        layers::run(&inputs, stack, args.seconds)?
    } else {
        let quota = inputs.quota(args.seconds);
        let run = measure::timed_loop(
            &mut stack.client,
            &inputs,
            &mut stack.next_op,
            args.seconds,
            quota,
        );
        println!(
            "note: {} ops of a quota of {quota} took {} s of {} s",
            run.ops.len(),
            run.wall(),
            args.seconds
        );
        // Fewer ops are a cheaper stretch of the history slope and a
        // lower memory peak: not the work other runs measured.
        if run.ops.len() < quota {
            eprintln!("FAILED quota: the seconds ran out first");
            cut_short = true;
        }
        let mut metrics = vec![Metric::new("setup_s", setup_seconds, "s")];
        metrics.extend(measure::end_to_end(&run.blocks(), inputs.sets.len()));
        stack.shutdown();
        (metrics, run.ops)
    };

    // Checked after the timed part so the reference path neither
    // warms the process-wide prepare cache nor counts into peak RSS.
    let references = verify::References::build(&inputs)?;
    let golden = references.check_golden(&inputs);
    if let Err(why) = &golden {
        eprintln!("FAILED golden: {why}");
    }
    let mut failed = 0;
    for op in &ops {
        let why = match &op.failure {
            Some(why) => why.clone(),
            None if !references.matches(op.n, &op.digests) => "report mismatch".to_string(),
            None => continue,
        };
        failed += 1;
        if failed <= 5 {
            eprintln!("FAILED op {}: {why}", op.n);
        }
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", bad.name));
    }
    if args.trace {
        metrics.push(Metric::new(
            "client.failed_op_ratio",
            failed as f64 / ops.len() as f64,
            "ratio",
        ));
    }
    print_metrics(&metrics);
    print_result(
        failed == 0 && golden.is_ok() && !cut_short,
        ops.len(),
        failed,
        &metrics,
    );
    // A printed result line is a finished run: whether it was correct
    // is in the line, not in the exit code.
    Ok(true)
}

/// Every workload, untraced then traced.
fn run_all(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut all_correct = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let trace_flag = u8::from(trace);
            let stderr_path = format!("{OUT_DIR}/{}-trace{trace_flag}.stderr", workload.name());
            let stderr =
                std::fs::File::create(&stderr_path).map_err(|e| format!("{stderr_path}: {e}"))?;
            let out = rerun(workload, args.seed, args.seconds, trace)?
                .stderr(stderr)
                .output()
                .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            let correct = stdout
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("{\"correct\": true"));
            if !correct {
                eprintln!(
                    "{} trace={trace_flag}: not correct, see {stderr_path}",
                    workload.name()
                );
            }
            all_correct &= out.status.success() && correct;
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let env_seen = clear_profipy_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("selfcheck") => selfcheck::run(),
        Some("golden") => verify::render_golden().map(|text| {
            print!("{text}");
            true
        }),
        Some("-h" | "--help") => {
            println!("{}", usage());
            Ok(true)
        }
        first => {
            let rest = if first == Some("run") {
                &argv[1..]
            } else {
                &argv[..]
            };
            parse_args(rest).and_then(|args| match args.workload {
                Some(workload) => run_one(&args, workload, &env_seen),
                None => run_all(&args),
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("profibench: {why}");
            ExitCode::from(2)
        }
    }
}
