//! The traced run. Most of its seconds go to five **arms** that take
//! turns, one rotation of ops each:
//!
//! * **REST** — the untraced run's op against the single-node server:
//!   the `client.*` and `httpd.*` readings and, from `/metrics` scraped
//!   before and after, the engine's own histograms, cache misses and
//!   drive calls;
//! * **fleet** — the same op against a coordinator with one worker:
//!   `client.fleet_tax_ratio`, `cluster.worker.*`;
//! * **in-process** — the same op through `CampaignService` with no
//!   socket: `campaign.inprocess_op_s`, the base of the trace ratios;
//! * **replay, recorded** and **replay, unrecorded** —
//!   [`crate::replay`] with and without spans.
//!
//! The rest goes to **calls**: each layer's public functions timed one
//! at a time on the payloads of the workload's first op.

use crate::measure::{self, Metric, Stack};
use crate::replay::{prepared_for, Replay};
use crate::rest::{self, Fleet, OpOutcome};
use crate::stats::{self, median};
use crate::tracer::{self, Tracer};
use crate::workloads::{build_workflow, registry, Inputs, Workload, DEFAULT_SEED, HANG_MODELS};
use campaign::{
    report_to_value, result_from_value, result_to_value, CampaignService, CampaignSpec,
    SharedService,
};
use cluster::{wire, Coordinator, FleetConfig};
use httpd::Client;
use injector::{InjectionPoint, Mutator};
use profipy::{ExperimentResult, InjectionPlan, Workflow};
use sandbox::{Container, ContainerImage};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Shares of the run's seconds: the arms, and the coordinator calls.
const SHARE_ARMS: f64 = 0.78;
const SHARE_CLUSTER: f64 = 0.06;

/// Requests per idle round-trip reading.
const IDLE_REQUESTS: usize = 200;
/// Injection points the per-point calls are timed on, at most.
const POINT_SAMPLE: usize = 32;
/// Repetitions of a whole-op call.
const REPS: usize = 5;

const LAYERS: [&str; 6] = [
    "pysrc", "injector", "pyrt", "sandbox", "profipy", "campaign",
];

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = black_box(f());
    (out, started.elapsed().as_secs_f64())
}

/// Median seconds of `REPS` runs of `f`.
fn rep_seconds(mut f: impl FnMut()) -> f64 {
    median(&(0..REPS).map(|_| timed(&mut f).1).collect::<Vec<_>>())
}

/// `name value` samples of a Prometheus exposition, labelled or not.
fn scrape(client: &mut Client) -> Result<BTreeMap<String, f64>, String> {
    let resp = client
        .get("/metrics")
        .map_err(|e| format!("/metrics: {e}"))?;
    Ok(resp
        .text()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// What a counter grew by between two scrapes.
struct Delta<'a>(&'a BTreeMap<String, f64>, &'a BTreeMap<String, f64>);

impl Delta<'_> {
    fn of(&self, name: &str) -> f64 {
        self.1.get(name).copied().unwrap_or(0.0) - self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Mean of a histogram's observations, 0 when it saw none.
    fn mean(&self, histogram: &str) -> f64 {
        let count = self.of(&format!("{histogram}_count"));
        if count > 0.0 {
            self.of(&format!("{histogram}_sum")) / count
        } else {
            0.0
        }
    }
}

fn flat<'a>(ops: &'a [OpOutcome], f: impl Fn(&'a OpOutcome) -> &'a Vec<f64>) -> Vec<f64> {
    ops.iter().flat_map(|o| f(o).iter().copied()).collect()
}

fn latencies(ops: &[OpOutcome]) -> Vec<(u64, f64)> {
    ops.iter().map(|o| (o.n, o.latency)).collect()
}

/// The median of `seconds`, in microseconds.
fn median_us(name: &str, seconds: &[f64]) -> Metric {
    Metric::median_of(
        name,
        &seconds.iter().map(|s| us(*s)).collect::<Vec<_>>(),
        "us",
    )
}

/// A per-op reading's typical value over a run whose ops rotate over
/// `sets` inputs, with how many ops it stands on.
fn typical(name: &str, readings: &[(u64, f64)], sets: usize, unit: &'static str) -> Metric {
    Metric::new(name, stats::rotation_median(readings, sets), unit).with_n(readings.len())
}

/// The five ways one op is run, taken in turn so that every ratio
/// between two of them compares ops run seconds apart, in the same
/// process, on the same heap, through the same spell of machine speed.
const ARMS: usize = 5;
const ARM_REST: usize = 0;
const ARM_FLEET: usize = 1;
const ARM_INPROCESS: usize = 2;
const ARM_REPLAY_RECORDED: usize = 3;
const ARM_REPLAY_UNRECORDED: usize = 4;

pub fn run(
    inputs: &Inputs,
    mut stack: Stack,
    seconds: f64,
) -> Result<(Vec<Metric>, Vec<OpOutcome>), String> {
    let sets = inputs.sets.len();
    let fleet = Fleet::boot();
    let mut fleet_client = Client::new(fleet.server.addr().to_string());
    measure::warm_up(&mut fleet_client, inputs)?;
    let mut service = rest::service();
    for n in 0..measure::WARMUP_OPS {
        inprocess_op(&mut service, n, inputs.set(n).to_vec())?;
    }
    let mut replay = ReplayArm::warm_up(inputs)?;

    // One round gives every arm one rotation over the distinct ops.
    // Each arm numbers its ops apart from the others': a revision one
    // arm stamped would otherwise be warm in the process-wide prepare
    // cache when the next arm submits it.
    let before = scrape(&mut stack.client)?;
    let mut by_arm: [Vec<OpOutcome>; ARMS] = Default::default();
    let mut untimed = Vec::new();
    let started = Instant::now();
    let mut round = 0;
    while started.elapsed().as_secs_f64() < seconds * SHARE_ARMS || round < 2 {
        // Slot `ARMS` numbers the fleet arm's untimed op.
        let number = |slot: usize, k: usize| {
            measure::WARMUP_OPS + ((round * (ARMS + 1) + slot) * sets + k) as u64
        };
        for turn in 0..ARMS {
            // The arm that goes first moves on every round.
            let arm = (round + turn) % ARMS;
            if arm == ARM_FLEET {
                // While the other arms ran, the idle worker's back-off
                // grew to half a second, which back-to-back traffic
                // never meets: one op brings it back down, untimed.
                untimed.push(measure::numbered_op(
                    &mut fleet_client,
                    inputs,
                    number(ARMS, 0),
                ));
            }
            for k in 0..sets {
                let n = number(arm, k);
                let op = match arm {
                    ARM_REST => measure::numbered_op(&mut stack.client, inputs, n),
                    ARM_FLEET => measure::numbered_op(&mut fleet_client, inputs, n),
                    ARM_INPROCESS => inprocess_op(&mut service, n, inputs.op_specs(n))?,
                    ARM_REPLAY_RECORDED => replay.op(inputs, n, true)?,
                    ARM_REPLAY_UNRECORDED => replay.op(inputs, n, false)?,
                    _ => unreachable!("arms are numbered below ARMS"),
                };
                by_arm[arm].push(op);
            }
        }
        round += 1;
    }
    let after = scrape(&mut stack.client)?;
    let [single, fleet_ops, inprocess_ops, recorded, unrecorded] = by_arm;

    let last_id = single
        .last()
        .and_then(|o| o.ids.first())
        .ok_or("the single-node arm finished no op")?;
    let healthz = rest::idle_rtts(&mut stack.client, "/healthz", IDLE_REQUESTS)?;
    let idle_status = rest::idle_rtts(
        &mut stack.client,
        &format!("/api/campaigns/{last_id}"),
        IDLE_REQUESTS,
    )?;
    stack.shutdown();
    drop(fleet_client);
    let (_, worker) = fleet.shutdown();

    let delta = Delta(&before, &after);
    let polls = flat(&single, |o| &o.status_rtts);
    let all: Vec<f64> = single.iter().map(|o| o.latency).collect();
    let wall: f64 = all.iter().sum();
    let campaigns: usize = single.iter().map(|o| o.digests.len()).sum();
    let rest_p50 = typical(
        "client.submit_to_report_p50_s",
        &latencies(&single),
        sets,
        "s",
    );
    let inprocess = typical(
        "campaign.inprocess_op_s",
        &latencies(&inprocess_ops),
        sets,
        "s",
    );
    let (rest_p50_s, inprocess_op_s) = (rest_p50.value, inprocess.value);
    // The arm's share of the seconds is a few dozen ops: the tail is
    // read at the highest percentile that leaves ten samples beyond
    // it, and that percentile is a reading of its own.
    let (op_tail, poll_tail) = (stats::tail(&all), stats::tail(&polls));
    let mut metrics = vec![
        rest_p50,
        Metric::new("client.submit_to_report_tail_s", op_tail.value, "s").with_n(all.len()),
        Metric::new(
            "client.submit_to_report_tail_pct",
            f64::from(op_tail.percentile),
            "percentile",
        )
        .with_n(all.len()),
        Metric::median_of(
            "client.status_poll_p50_ms",
            &polls.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
            "ms",
        ),
        Metric::new("client.status_poll_tail_ms", poll_tail.value * 1e3, "ms").with_n(polls.len()),
        Metric::new(
            "client.status_poll_tail_pct",
            f64::from(poll_tail.percentile),
            "percentile",
        )
        .with_n(polls.len()),
        Metric::new(
            "client.polls_per_op",
            polls.len() as f64 / single.len() as f64,
            "count",
        )
        .with_n(single.len()),
        Metric::new(
            "client.cells_per_min",
            60.0 * campaigns as f64 / wall,
            "1/min",
        )
        .with_n(campaigns),
        median_us("httpd.healthz_rtt_us", &healthz),
        median_us("httpd.status_rtt_idle_us", &idle_status),
        median_us("httpd.submit_rtt_us", &flat(&single, |o| &o.submit_rtts)),
        median_us("httpd.report_rtt_us", &flat(&single, |o| &o.report_rtts)),
        Metric::median_of(
            "httpd.requests_per_op",
            &single
                .iter()
                .map(|o| o.requests() as f64)
                .collect::<Vec<_>>(),
            "count",
        ),
        Metric::new("httpd.rest_overhead_s", rest_p50_s - inprocess_op_s, "s"),
        Metric::new(
            "campaign.engine_prepare_s",
            delta.mean("campaign_prepare_seconds"),
            "s",
        ),
        Metric::new(
            "campaign.queue_wait_s",
            delta.mean("campaign_queue_wait_seconds"),
            "s",
        ),
        Metric::new(
            "campaign.experiment_s",
            delta.mean("campaign_experiment_seconds"),
            "s",
        ),
        Metric::new(
            "campaign.drive_calls_per_op",
            delta.of("profipy_drive_calls_total") / single.len() as f64,
            "count",
        ),
        inprocess,
        Metric::new(
            "client.fleet_tax_ratio",
            stats::rotation_median(&latencies(&fleet_ops), sets) / rest_p50_s,
            "ratio",
        )
        .with_n(fleet_ops.len()),
        Metric::new(
            "cluster.worker.jobs_per_lease",
            worker.executed as f64 / (worker.leases - worker.empty_leases).max(1) as f64,
            "count",
        )
        .with_n(worker.leases as usize),
        Metric::new(
            "cluster.worker.empty_lease_ratio",
            worker.empty_leases as f64 / worker.leases.max(1) as f64,
            "ratio",
        )
        .with_n(worker.leases as usize),
        Metric::new(
            "cluster.worker.upload_retries",
            worker.upload_retries as f64,
            "count",
        ),
    ];

    // Reuse is counted per artifact, not per lookup. The default
    // `drive_batch` of 8 has the engine prepare a 66-experiment
    // campaign nine times, and lookups two to nine hit what the first
    // one stored: the raw hit counters read 0.8 on a workload that
    // reused nothing.
    let experiments: u64 = single.iter().map(|o| o.experiments).sum();
    let pruned: usize = single
        .iter()
        .map(|o| {
            inputs
                .set(o.n)
                .iter()
                .filter(|s| s.prune_by_coverage)
                .count()
        })
        .sum();
    for (cache, artifacts) in [
        ("scan", campaigns as f64),
        ("parse", campaigns as f64),
        ("mutant", experiments as f64),
        ("prepare", campaigns as f64),
        ("coverage", pruned as f64),
    ] {
        let built = delta.of(&format!("profipy_cache_{cache}_misses"));
        let reused = if artifacts > 0.0 {
            (1.0 - built / artifacts).clamp(0.0, 1.0)
        } else {
            0.0
        };
        metrics.push(Metric::new(
            format!("campaign.cache.{cache}_hit_ratio"),
            reused,
            "ratio",
        ));
    }

    let fuel_timeouts = std::mem::take(&mut replay.replay.fuel_timeouts);
    metrics.extend(replay.metrics(inputs, &recorded, &unrecorded, inprocess_op_s)?);

    // One call at a time, on the payloads of the first op.
    let first = &inputs.sets[0];
    metrics.extend(codec_calls(first, &replay.first_results)?);
    metrics.extend(layer_calls(first)?);
    // Numbered past every arm's ops, for revisions no deploy has seen.
    let unused = measure::WARMUP_OPS + (round * (ARMS + 1) * sets) as u64;
    let (cluster_metrics, cluster_ops) = cluster_calls(inputs, unused, seconds * SHARE_CLUSTER)?;
    metrics.extend(cluster_metrics);
    metrics.push(fuel_rate(inputs, &fuel_timeouts)?);
    check_cache_state(inputs.workload, &metrics)?;

    let mut ops = single;
    for more in [
        untimed,
        fleet_ops,
        inprocess_ops,
        recorded,
        unrecorded,
        replay.checked,
        cluster_ops,
    ] {
        ops.extend(more);
    }
    Ok((metrics, ops))
}

/// `fresh_revision` and `repeat_campaign` are the same campaigns with
/// every cache missing and with every cache hitting. A run of either
/// that finds its caches in another state measured something else, and
/// fails instead of reporting it.
fn check_cache_state(workload: Workload, metrics: &[Metric]) -> Result<(), String> {
    let hits = match workload {
        Workload::FreshRevision => false,
        Workload::RepeatCampaign => true,
        _ => return Ok(()),
    };
    for m in metrics {
        let off = if hits { m.value < 0.95 } else { m.value > 0.05 };
        if m.name.starts_with("campaign.cache.") && off {
            return Err(format!("{}: {} reads {}", workload.name(), m.name, m.value));
        }
    }
    // `sandbox`'s process-wide prepare cache has no counter, but a
    // deploy that hits it takes a twentieth of one that misses.
    let read = |name: &str| {
        let found = metrics.iter().find(|m| m.name == name);
        found.map(|m| m.value).ok_or(format!("no {name} to check"))
    };
    let per_deploy = read("sandbox.deploy_us")? / read("sandbox.deploys_per_op")?;
    let between = (read("sandbox.deploy_cold_us")? * read("sandbox.deploy_warm_us")?).sqrt();
    if hits != (per_deploy < between) {
        return Err(format!(
            "{}: a replayed deploy takes {per_deploy:.0} us, on the wrong side of {between:.0} us \
             between a cold and a warm one",
            workload.name()
        ));
    }
    Ok(())
}

/// An op that ran without a client, as the record the gate checks.
fn checked_op(n: u64, latency: f64, reports: &[String]) -> OpOutcome {
    OpOutcome {
        n,
        latency,
        digests: reports
            .iter()
            .map(|r| jsonlite::stable_hash64(r.as_bytes()))
            .collect(),
        ..OpOutcome::default()
    }
}

/// `submit` × n + `drive(None)` + `engine().report` × n: one op with no
/// socket. The reports are encoded after the clock stops.
fn inprocess_op(
    service: &mut CampaignService,
    n: u64,
    specs: Vec<CampaignSpec>,
) -> Result<OpOutcome, String> {
    let started = Instant::now();
    let ids: Vec<String> = specs
        .into_iter()
        .map(|spec| service.submit(spec).map_err(|e| e.message))
        .collect::<Result<_, _>>()?;
    service.drive(None).map_err(|e| e.message)?;
    let reports: Vec<_> = ids
        .iter()
        .map(|id| {
            service
                .engine()
                .report(id)
                .ok_or_else(|| format!("{id} did not complete in-process"))
        })
        .collect::<Result<_, _>>()?;
    let seconds = started.elapsed().as_secs_f64();
    let reports: Vec<String> = reports
        .iter()
        .map(|r| report_to_value(r).pretty())
        .collect();
    Ok(checked_op(n, seconds, &reports))
}

/// The replay and what its ops left to be read afterwards.
struct ReplayArm {
    replay: Replay,
    tracer: Tracer,
    /// The ops of the checking pass, for the gate.
    checked: Vec<OpOutcome>,
    /// The experiment results of the workload's first op.
    first_results: Vec<ExperimentResult>,
    /// Per op: seconds `report_to_value(..).pretty()` took, and bytes.
    encode_us: Vec<(u64, f64)>,
    report_bytes: Vec<(u64, f64)>,
}

impl ReplayArm {
    /// The checking pass, unrecorded: every distinct op once, each
    /// step compared with the `Workflow` method it mirrors. It also
    /// fills the artifact store, as the warm-up fills the engine's
    /// caches.
    fn warm_up(inputs: &Inputs) -> Result<ReplayArm, String> {
        let mut arm = ReplayArm {
            replay: Replay::new(),
            tracer: Tracer::new(),
            checked: Vec::new(),
            first_results: Vec::new(),
            encode_us: Vec::new(),
            report_bytes: Vec::new(),
        };
        arm.tracer.recording = false;
        for n in 0..inputs.sets.len() as u64 {
            let campaigns = arm.replay.op(&mut arm.tracer, &inputs.op_specs(n), true)?;
            let reports: Vec<String> = campaigns.iter().map(|c| c.report.clone()).collect();
            if n == 0 {
                arm.first_results = campaigns.into_iter().flat_map(|c| c.results).collect();
            }
            arm.checked.push(checked_op(n, 0.0, &reports));
        }
        arm.replay.fuel_timeouts.clear();
        Ok(arm)
    }

    fn op(&mut self, inputs: &Inputs, n: u64, recorded: bool) -> Result<OpOutcome, String> {
        let specs = inputs.op_specs(n);
        self.tracer.recording = recorded;
        self.tracer.set_op(n);
        let (tracer, replay) = (&mut self.tracer, &mut self.replay);
        let (campaigns, seconds) =
            timed(|| tracer.span("harness.op", |t| replay.op(t, &specs, false)));
        let campaigns = campaigns?;
        self.encode_us
            .push((n, us(campaigns.iter().map(|c| c.report_encode_s).sum())));
        self.report_bytes
            .push((n, campaigns.iter().map(|c| c.report.len() as f64).sum()));
        let reports: Vec<String> = campaigns.into_iter().map(|c| c.report).collect();
        Ok(checked_op(n, seconds, &reports))
    }

    /// Writes the spans out and reads the span-derived metrics.
    fn metrics(
        &self,
        inputs: &Inputs,
        recorded: &[OpOutcome],
        unrecorded: &[OpOutcome],
        inprocess_op_s: f64,
    ) -> Result<Vec<Metric>, String> {
        let sets = inputs.sets.len();
        std::fs::create_dir_all(crate::OUT_DIR).map_err(|e| format!("{}: {e}", crate::OUT_DIR))?;
        let path = format!("{}/trace-{}.jsonl", crate::OUT_DIR, inputs.workload.name());
        self.tracer
            .write_jsonl(std::path::Path::new(&path))
            .map_err(|e| format!("{path}: {e}"))?;

        // Per recorded op: what each span name summed to, and each
        // layer's self time.
        let spans = self.tracer.spans();
        let totals = tracer::totals_by_op(spans);
        let span_us = |metric: &str, span: &'static str| {
            let per_op: Vec<(u64, f64)> = totals
                .iter()
                .map(|(n, names)| (*n, us(names.get(span).copied().unwrap_or(0.0))))
                .collect();
            typical(metric, &per_op, sets, "us")
        };
        let layers = tracer::layer_self_by_op(spans);
        let attributed: Vec<(u64, f64)> = layers
            .iter()
            .map(|(n, by_layer)| {
                let own = by_layer.iter().filter(|(layer, _)| **layer != "harness");
                (*n, own.map(|(_, s)| s).sum())
            })
            .collect();
        let deploys = spans.iter().filter(|s| s.name == "sandbox.deploy").count();
        let mut metrics = vec![
            Metric::new(
                "sandbox.deploys_per_op",
                deploys as f64 / totals.len() as f64,
                "count",
            )
            .with_n(totals.len()),
            span_us("sandbox.deploy_us", "sandbox.deploy"),
            span_us("sandbox.round1_us", "sandbox.round1"),
            span_us("sandbox.round2_us", "sandbox.round2"),
            span_us("sandbox.collect_us", "sandbox.collect"),
            span_us("sandbox.teardown_us", "sandbox.teardown"),
            span_us("profipy.experiment_us", "profipy.experiment"),
            span_us("profipy.report_build_us", "profipy.report_build"),
            typical("campaign.report_encode_us", &self.encode_us, sets, "us"),
            typical("campaign.report_bytes", &self.report_bytes, sets, "bytes"),
            Metric::new(
                "trace.coverage_ratio",
                stats::rotation_median(&attributed, sets) / inprocess_op_s,
                "ratio",
            )
            .with_n(attributed.len()),
            Metric::new(
                "trace.overhead_ratio",
                stats::rotation_median(&latencies(recorded), sets)
                    / stats::rotation_median(&latencies(unrecorded), sets),
                "ratio",
            )
            .with_n(recorded.len()),
            typical("trace.replay_op_s", &latencies(unrecorded), sets, "s"),
        ];
        for layer in LAYERS {
            let own: Vec<(u64, f64)> = layers
                .iter()
                .map(|(n, by_layer)| (*n, 1e3 * by_layer.get(layer).copied().unwrap_or(0.0)))
                .collect();
            metrics.push(typical(&format!("trace.self_ms.{layer}"), &own, sets, "ms"));
        }
        Ok(metrics)
    }
}

/// Spec, checkpoint and JSON codec calls on the first op's payloads.
fn codec_calls(
    specs: &[CampaignSpec],
    results: &[ExperimentResult],
) -> Result<Vec<Metric>, String> {
    let bodies: Vec<String> = specs.iter().map(CampaignSpec::to_json).collect();
    let spec_bytes: usize = bodies.iter().map(String::len).sum();
    let encode = rep_seconds(|| {
        for spec in specs {
            black_box(spec.to_json());
        }
    });
    let decode = rep_seconds(|| {
        for body in &bodies {
            black_box(CampaignSpec::from_json(body).expect("round-trips"));
        }
    });
    let hash = rep_seconds(|| {
        for spec in specs {
            black_box((spec.content_hash(), spec.cache_key()));
        }
    });

    if results.is_empty() {
        return Err("the first op produced no experiment result".to_string());
    }
    let lines: Vec<String> = results
        .iter()
        .map(|r| result_to_value(r).compact())
        .collect();
    let values: Vec<jsonlite::Value> = lines
        .iter()
        .map(|l| jsonlite::parse(l))
        .collect::<Result<_, _>>()?;
    let per_result = results.len() as f64;
    let ckpt_encode = rep_seconds(|| {
        for r in results {
            black_box(result_to_value(r).compact());
        }
    });
    let ckpt_decode = rep_seconds(|| {
        for v in &values {
            black_box(result_from_value(v).expect("round-trips"));
        }
    });
    let ckpt_bytes: usize = lines.iter().map(String::len).sum();

    let spec_values: Vec<jsonlite::Value> = specs.iter().map(CampaignSpec::to_value).collect();
    let parse = rep_seconds(|| {
        for text in bodies.iter().chain(&lines) {
            black_box(jsonlite::parse(text).expect("valid JSON"));
        }
    });
    let render = rep_seconds(|| {
        for v in &spec_values {
            black_box(v.pretty());
        }
        for v in &values {
            black_box(v.compact());
        }
    });
    let mb = (spec_bytes + ckpt_bytes) as f64 / 1e6;
    Ok(vec![
        Metric::new("campaign.spec_encode_us", us(encode), "us").with_n(REPS),
        Metric::new("campaign.spec_decode_us", us(decode), "us").with_n(REPS),
        Metric::new("campaign.spec_bytes", spec_bytes as f64, "bytes"),
        Metric::new("campaign.content_hash_us", us(hash), "us").with_n(REPS),
        Metric::new(
            "campaign.checkpoint_encode_us_per_result",
            us(ckpt_encode) / per_result,
            "us",
        )
        .with_n(results.len()),
        Metric::new(
            "campaign.checkpoint_decode_us_per_result",
            us(ckpt_decode) / per_result,
            "us",
        )
        .with_n(results.len()),
        Metric::new(
            "campaign.checkpoint_bytes_per_result",
            ckpt_bytes as f64 / per_result,
            "bytes",
        )
        .with_n(results.len()),
        Metric::new("jsonlite.parse_mb_per_s", mb / parse, "MB/s").with_n(REPS),
        Metric::new("jsonlite.render_mb_per_s", mb / render, "MB/s").with_n(REPS),
    ])
}

/// One campaign of the first op, built through `Workflow`'s own
/// methods (untimed), for the per-call timings below.
struct Built {
    spec: CampaignSpec,
    workflow: Workflow,
    points: Vec<InjectionPoint>,
    plan: InjectionPlan,
}

fn build(spec: &CampaignSpec) -> Result<Built, String> {
    let workflow = build_workflow(spec)?;
    let points = workflow.scan();
    let plan = InjectionPlan::build(&points, &spec.filter.to_filter(), spec.seed);
    Ok(Built {
        spec: spec.clone(),
        workflow,
        points,
        plan,
    })
}

/// The calls `CampaignEngine::prepare` and an experiment make into
/// `faultdsl`, `pysrc`, `injector`, `pyrt`, `sandbox` and `profipy`,
/// each timed on its own.
fn layer_calls(specs: &[CampaignSpec]) -> Result<Vec<Metric>, String> {
    let built: Vec<Built> = specs.iter().map(build).collect::<Result<_, _>>()?;
    // The points the per-point calls run on: planned ones, spread
    // over the op's campaigns.
    let sample: Vec<(&Built, &InjectionPoint)> = {
        let per_campaign = POINT_SAMPLE.div_ceil(built.len());
        built
            .iter()
            .flat_map(|b| {
                b.plan
                    .entries
                    .iter()
                    .take(per_campaign)
                    .map(move |p| (b, p))
            })
            .take(POINT_SAMPLE)
            .collect()
    };
    if sample.is_empty() {
        return Err("the first op plans no experiment".to_string());
    }

    let compile = rep_seconds(|| {
        for spec in specs {
            black_box(spec.model.compile().expect("compiled once already"));
        }
    });
    let scan = rep_seconds(|| {
        for b in &built {
            black_box(b.workflow.scan());
        }
    });
    let plan = rep_seconds(|| {
        for b in &built {
            black_box(InjectionPlan::build(
                &b.points,
                &b.spec.filter.to_filter(),
                b.spec.seed,
            ));
        }
    });
    let instrument: Vec<f64> = built
        .iter()
        .map(|b| {
            let mutator = Mutator::new(b.spec.mode);
            us(rep_seconds(|| {
                for module in b.workflow.modules() {
                    black_box(mutator.instrument_coverage(module, &b.points));
                }
            }))
        })
        .collect();
    let coverage: Vec<f64> = built
        .iter()
        .map(|b| {
            let (covered, seconds) = timed(|| b.workflow.coverage_run(&b.points));
            covered.map(|_| us(seconds)).map_err(|e| e.message)
        })
        .collect::<Result<_, _>>()?;
    let prepare: Vec<f64> = built
        .iter()
        .flat_map(|b| b.workflow.modules().iter().zip(b.workflow.sources()))
        .map(|(module, (_, text))| {
            let module = Arc::new(module.clone());
            us(rep_seconds(|| {
                black_box(pyrt::prepare::prepare_hashed(module.clone(), text));
            }))
        })
        .collect();

    // Per point: mutate, unparse, the two together as `Workflow` does
    // them, then parse + prepare of the mutant text and a cold and a
    // warm deploy of it.
    let (mut mutate, mut unparse, mut sources_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut parse_s, mut parse_bytes) = (0.0, 0usize);
    let (mut mutant_prepare, mut cold, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (b, point)) in sample.iter().enumerate() {
        let bug = b
            .workflow
            .specs()
            .iter()
            .find(|s| s.name == point.spec_name)
            .ok_or_else(|| format!("unknown spec {}", point.spec_name))?;
        let module = b
            .workflow
            .modules()
            .iter()
            .find(|m| m.name == point.module)
            .ok_or_else(|| format!("unknown module {}", point.module))?;
        let (mutated, seconds) = timed(|| Mutator::new(b.spec.mode).apply(module, bug, point));
        let mutated = mutated.map_err(|e| e.to_string())?;
        mutate.push(us(seconds));
        let (text, seconds) = timed(|| pysrc::unparse::unparse_module(&mutated));
        unparse.push(us(seconds));
        let (rendered, seconds) = timed(|| b.workflow.mutant_sources(point));
        let mut rendered = rendered.map_err(|e| e.message)?;
        sources_us.push(us(seconds));

        let (parsed, seconds) = timed(|| pysrc::parse_module(&text, &point.module));
        let parsed = Arc::new(parsed.map_err(|e| e.to_string())?);
        parse_s += seconds;
        parse_bytes += text.len();
        let (_, prepare_seconds) = timed(|| pyrt::prepare::prepare_hashed(parsed.clone(), &text));
        mutant_prepare.push(us(seconds + prepare_seconds));

        // A comment no other deploy carried makes the process-wide
        // prepare cache miss the first time and hit the second.
        let mutant = rendered
            .iter_mut()
            .find(|s| s.import_name == point.module)
            .expect("mutant_sources renders every module");
        mutant
            .text
            .push_str(&format!("# profibench cold deploy {i}\n"));
        let deploy = || -> Result<f64, String> {
            let seed = b.spec.seed.wrapping_add(point.id);
            let mut image = ContainerImage::new("deploy")
                .workload(&b.spec.workload)
                .round_timeout(b.spec.round_timeout)
                .fuel(b.spec.fuel_per_round);
            image.setup = b.spec.setup.clone();
            image.sources = rendered.clone();
            image.prepared = prepared_for(&b.spec, b.workflow.prepared_program(), &rendered);
            let host = (registry().get(&b.spec.host).expect("built with it"))(seed);
            let (container, seconds) = timed(|| Container::deploy(&image, host, seed));
            container.map_err(|e| e.to_string())?.teardown();
            Ok(us(seconds))
        };
        cold.push(deploy()?);
        warm.push(deploy()?);
    }
    // Fault-free texts are parsed too: every target and the workload.
    for b in &built {
        let texts = b.spec.sources.iter().map(|(n, t)| (n.as_str(), t));
        for (name, text) in texts.chain([("workload", &b.spec.workload)]) {
            let (parsed, seconds) = timed(|| pysrc::parse_module(text, name));
            parsed.map_err(|e| format!("{name}: {e}"))?;
            parse_s += seconds;
            parse_bytes += text.len();
        }
    }
    // What an op with every cache cold parses: each campaign's targets
    // and workload once, and one mutant text per planned experiment.
    let cold_parse_bytes: usize = built
        .iter()
        .map(|b| {
            let fault_free: usize =
                b.spec.sources.iter().map(|(_, t)| t.len()).sum::<usize>() + b.spec.workload.len();
            let mutants: usize = b
                .plan
                .entries
                .iter()
                .map(|p| {
                    b.spec
                        .sources
                        .iter()
                        .find(|(n, _)| n == &p.module)
                        .map_or(0, |(_, t)| t.len())
                })
                .sum();
            fault_free + mutants
        })
        .sum();
    let scan_points: usize = built.iter().map(|b| b.points.len()).sum();
    Ok(vec![
        Metric::new("faultdsl.compile_us", us(compile), "us").with_n(REPS),
        Metric::new(
            "pysrc.parse_us_per_kb",
            us(parse_s) / (parse_bytes as f64 / 1024.0),
            "us",
        )
        .with_n(parse_bytes),
        Metric::new("pysrc.parse_bytes", cold_parse_bytes as f64, "bytes"),
        Metric::median_of("pysrc.unparse_us_per_mutant", &unparse, "us"),
        Metric::new("injector.scan_us", us(scan), "us").with_n(REPS),
        Metric::new("injector.scan_points", scan_points as f64, "count"),
        Metric::median_of("injector.mutate_us_per_point", &mutate, "us"),
        Metric::median_of("injector.instrument_coverage_us", &instrument, "us"),
        Metric::median_of("pyrt.prepare_us_per_module", &prepare, "us"),
        Metric::median_of("pyrt.mutant_parse_prepare_us", &mutant_prepare, "us"),
        Metric::median_of("sandbox.deploy_cold_us", &cold, "us"),
        Metric::median_of("sandbox.deploy_warm_us", &warm, "us"),
        Metric::new(
            "sandbox.prepare_cache_gain_ratio",
            median(&cold) / median(&warm),
            "ratio",
        )
        .with_n(cold.len()),
        Metric::new("profipy.plan_us", us(plan), "us").with_n(REPS),
        Metric::median_of("profipy.coverage_run_us", &coverage, "us"),
        Metric::median_of("profipy.mutant_sources_us_per_point", &sources_us, "us"),
    ])
}

/// `Coordinator::lease` / `report_results` and the wire codecs between
/// them, called directly: the coordinator's share of the fleet tax
/// without sockets, worker threads or idle back-off.
fn cluster_calls(
    inputs: &Inputs,
    first_op: u64,
    seconds: f64,
) -> Result<(Vec<Metric>, Vec<OpOutcome>), String> {
    let shared = SharedService::new(rest::service());
    let coordinator = Coordinator::new(shared.clone(), FleetConfig::default())
        .map_err(|e| format!("coordinator: {e}"))?;
    let worker = coordinator
        .register(rest::WORKER_PARALLELISM)
        .map_err(|e| format!("register: {e}"))?;
    let batch = 2 * rest::WORKER_PARALLELISM;
    let mut workflows: HashMap<String, Workflow> = HashMap::new();
    let (mut lease_us, mut encode_us, mut decode_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut codec_us, mut report_us, mut lease_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut ops = Vec::new();
    let started = Instant::now();
    let mut n = first_op;
    while started.elapsed().as_secs_f64() < seconds || n == first_op {
        let op_started = Instant::now();
        let ids: Vec<String> = inputs
            .op_specs(n)
            .into_iter()
            .map(|spec| shared.lock().submit(spec).map_err(|e| e.message))
            .collect::<Result<_, _>>()?;
        loop {
            let known: BTreeSet<String> = workflows.keys().cloned().collect();
            let (grant, seconds) = timed(|| coordinator.lease(&worker, batch, &known));
            let grant = grant.map_err(|e| format!("lease: {e:?}"))?;
            lease_us.push(us(seconds));
            if grant.jobs.is_empty() {
                break;
            }
            let (text, seconds) = timed(|| wire::lease_grant_to_value(&grant).map(|v| v.pretty()));
            let text = text?;
            encode_us.push(us(seconds));
            lease_bytes.push(text.len() as f64);
            let (lease, seconds) =
                timed(|| jsonlite::parse(&text).and_then(|v| wire::lease_from_value(&v)));
            let lease = lease?;
            for (id, spec) in &lease.new_campaigns {
                workflows.insert(id.clone(), build_workflow(spec)?);
            }
            let (points, rebind_seconds) = timed(|| {
                lease
                    .jobs
                    .iter()
                    .map(|job| wire::rebind_point(&job.point, workflows[&job.campaign].modules()))
                    .collect::<Result<Vec<_>, String>>()
            });
            decode_us.push(us(seconds + rebind_seconds));
            let results: Vec<(String, ExperimentResult)> = lease
                .jobs
                .iter()
                .zip(points?)
                .map(|(job, point)| {
                    let result =
                        workflows[&job.campaign].run_experiment_with_sources(&point, &job.sources);
                    (job.campaign.clone(), result)
                })
                .collect();
            let (decoded, seconds) = timed(|| {
                let body = wire::results_to_value(&results).compact();
                jsonlite::parse(&body).and_then(|v| wire::results_from_value(&v))
            });
            let decoded = decoded?;
            codec_us.push(us(seconds));
            let (summary, seconds) = timed(|| coordinator.report_results(&worker, decoded));
            summary.map_err(|e| format!("report_results: {e:?}"))?;
            report_us.push(us(seconds));
        }
        // The worker forgets finished campaigns, as the agent does.
        workflows.retain(|id, _| !ids.contains(id));
        let reports: Vec<String> = ids
            .iter()
            .map(|id| {
                shared
                    .lock()
                    .engine()
                    .report(id)
                    .map(|r| report_to_value(&r).pretty())
                    .ok_or_else(|| format!("{id} did not complete through the coordinator"))
            })
            .collect::<Result<_, _>>()?;
        ops.push(checked_op(n, op_started.elapsed().as_secs_f64(), &reports));
        n += 1;
    }
    let reading = |name: &str, values: &[f64], unit| {
        if values.is_empty() {
            // Only a workload whose campaigns plan no experiment at
            // all never gets a non-empty lease.
            Err(format!("{name}: the coordinator granted no job"))
        } else {
            Ok(Metric::median_of(name, values, unit))
        }
    };
    Ok((
        vec![
            reading("cluster.lease_us", &lease_us, "us")?,
            reading("cluster.report_results_us", &report_us, "us")?,
            reading("cluster.lease_encode_us", &encode_us, "us")?,
            reading("cluster.lease_decode_us", &decode_us, "us")?,
            reading("cluster.results_codec_us", &codec_us, "us")?,
            reading("cluster.lease_bytes", &lease_bytes, "bytes")?,
        ],
        ops,
    ))
}

/// Interpreter steps per wall second while a mutant spins its round's
/// fuel away. `hang_storm` reads it off its own replayed rounds; the
/// other workloads run one of the hang cells for it.
fn fuel_rate(inputs: &Inputs, seen: &[(f64, u64)]) -> Result<Metric, String> {
    let mut timeouts = seen.to_vec();
    if timeouts.is_empty() {
        let hang = Inputs::generate(Workload::HangStorm, DEFAULT_SEED);
        let spec = hang
            .sets
            .iter()
            .flatten()
            .find(|s| s.name.ends_with(HANG_MODELS[1]))
            .ok_or("the catalog lost its off-by-one hang cell")?;
        let mut replay = Replay::new();
        let mut t = Tracer::new();
        t.recording = false;
        for _ in 0..3 {
            replay.op(&mut t, std::slice::from_ref(spec), false)?;
        }
        timeouts = replay.fuel_timeouts;
    }
    if timeouts.is_empty() {
        return Err(format!(
            "{}: no round ran out of fuel; the hang cells no longer hang",
            inputs.workload.name()
        ));
    }
    let rates: Vec<f64> = timeouts.iter().map(|(s, fuel)| *fuel as f64 / s).collect();
    Ok(Metric::median_of("pyrt.fuel_steps_per_s", &rates, "1/s"))
}
