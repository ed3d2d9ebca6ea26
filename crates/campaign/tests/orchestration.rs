//! Acceptance tests for the orchestration engine:
//!
//! * a killed-and-resumed campaign produces the identical set of
//!   `ExperimentResult`s as an uninterrupted run with the same seed;
//! * a second campaign on an unchanged target performs **zero**
//!   re-scans (cache hit), including across engine restarts;
//! * multiple queued campaigns run interleaved through one engine and
//!   all complete;
//! * the service façade delivers completed reports into per-user
//!   sessions.

use campaign::{
    CampaignEngine, CampaignService, CampaignSpec, EngineConfig, HostRegistry, JobState,
};
use profipy::case_study::etcd_host_factory;
use std::path::PathBuf;

fn etcd_registry() -> HostRegistry {
    HostRegistry::with_noop().with("etcd", etcd_host_factory())
}

/// A small-but-real campaign over the python-etcd case study target
/// (sampled down so the suite stays fast).
fn etcd_spec(user: &str, name: &str, sample: usize) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        user,
        name,
        "etcd",
        vec![
            ("etcd".into(), targets::CLIENT_SOURCE.into()),
            ("workload".into(), targets::WORKLOAD_BASIC.into()),
        ],
        targets::WORKLOAD_BASIC.into(),
        faultdsl::campaign_a_model(),
    );
    spec.setup = vec![vec!["etcd-start".into()]];
    spec.seed = 7;
    spec.filter.modules.push("etcd".into());
    spec.filter.sample = sample;
    spec
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "campaign-orch-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn killed_and_resumed_campaign_matches_uninterrupted_run() {
    // Reference: one uninterrupted run, on a data dir of its own — the
    // checkpoint file is the durable record of raw results (an
    // in-memory engine keeps only a finished job's report).
    let ref_dir = temp_dir("resume-ref");
    let mut reference = CampaignEngine::open(&ref_dir, etcd_registry()).unwrap();
    let ref_id = reference.submit(etcd_spec("alice", "ref", 6)).unwrap();
    reference.drive(None).unwrap();
    let expected = reference.results(&ref_id);
    let _ = std::fs::remove_dir_all(&ref_dir);
    assert!(
        expected.len() >= 4,
        "reference campaign too small to be interesting: {}",
        expected.len()
    );

    // Interrupted: drive 2 experiments at a time, dropping the engine
    // (= killing the process) between drives.
    let dir = temp_dir("resume");
    let id = {
        let mut engine = CampaignEngine::open(&dir, etcd_registry()).unwrap();
        let id = engine.submit(etcd_spec("alice", "ref", 6)).unwrap();
        let summary = engine.drive(Some(2)).unwrap();
        assert_eq!(summary.experiments, 2);
        assert_eq!(summary.completed, 0, "budget must interrupt the campaign");
        id
        // Engine dropped here: the "crash".
    };
    let mut resumed_total = 2;
    loop {
        let mut engine = CampaignEngine::open(&dir, etcd_registry()).unwrap();
        assert_eq!(
            engine.poll(&id).unwrap().completed_experiments,
            resumed_total.min(expected.len()),
            "checkpoint carries completed experiments across restarts"
        );
        let summary = engine.drive(Some(2)).unwrap();
        resumed_total += summary.experiments;
        if summary.completed > 0 {
            break;
        }
        assert!(resumed_total <= expected.len() + 2, "resume failed to converge");
    }

    // The resumed campaign must have executed each experiment exactly
    // once overall and match the reference bit-for-bit.
    let engine = CampaignEngine::open(&dir, etcd_registry()).unwrap();
    let actual = engine.results(&id);
    assert_eq!(
        actual.iter().map(|r| r.point_id).collect::<Vec<_>>(),
        expected.iter().map(|r| r.point_id).collect::<Vec<_>>(),
        "same experiments, same plan order"
    );
    for (a, b) in actual.iter().zip(&expected) {
        assert!(
            campaign::results_equivalent(a, b),
            "point {} diverged between resumed and uninterrupted runs",
            a.point_id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unchanged_target_performs_zero_rescans() {
    let mut engine = CampaignEngine::new(EngineConfig::default(), etcd_registry()).unwrap();
    let first = engine.submit(etcd_spec("alice", "first", 4)).unwrap();
    engine.drive(None).unwrap();
    let after_first = engine.cache_stats();
    assert_eq!(after_first.scan_misses, 1, "first campaign scans once");
    assert_eq!(
        after_first.prepare_misses, 1,
        "first campaign prepares the interpreter program once"
    );

    // Second campaign, same target + model, different plan knobs.
    let mut second_spec = etcd_spec("alice", "second", 3);
    second_spec.seed = 99;
    let second = engine.submit(second_spec).unwrap();
    engine.drive(None).unwrap();
    let after_second = engine.cache_stats();
    assert_eq!(
        after_second.scan_misses, 1,
        "second campaign on unchanged target must not re-scan"
    );
    assert!(after_second.scan_hits >= 1, "cache hit expected");
    assert!(
        after_second.parse_hits >= 1,
        "parsed modules reused as well"
    );
    assert_eq!(
        after_second.prepare_misses, 1,
        "second campaign must not re-resolve the unchanged program"
    );
    assert!(
        after_second.prepare_hits >= 1,
        "prepared interpreter program reused across campaigns"
    );
    assert_eq!(engine.poll(&first).unwrap().state, JobState::Completed);
    assert_eq!(engine.poll(&second).unwrap().state, JobState::Completed);

    // A *changed* target must scan again — the cache key is content-based.
    let mut changed = etcd_spec("alice", "changed", 2);
    changed.sources[0].1.push_str("\ndef extra():\n    pass\n");
    engine.submit(changed).unwrap();
    engine.drive(None).unwrap();
    assert_eq!(engine.cache_stats().scan_misses, 2);
}

#[test]
fn scan_cache_survives_engine_restart_on_disk() {
    let dir = temp_dir("diskcache");
    {
        let mut engine = CampaignEngine::open(&dir, etcd_registry()).unwrap();
        engine.submit(etcd_spec("alice", "warm", 3)).unwrap();
        engine.drive(None).unwrap();
        assert_eq!(engine.cache_stats().scan_misses, 1);
    }
    {
        // Fresh process: the scan comes back from the disk tier.
        let mut engine = CampaignEngine::open(&dir, etcd_registry()).unwrap();
        engine.submit(etcd_spec("bob", "reuse", 3)).unwrap();
        engine.drive(None).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.scan_misses, 0, "restarted engine must not re-scan");
        assert!(stats.scan_hits >= 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multiple_campaigns_interleave_and_all_complete() {
    let mut engine = CampaignEngine::new(EngineConfig::default(), etcd_registry()).unwrap();
    let a = engine.submit(etcd_spec("alice", "a", 3)).unwrap();
    let b = engine.submit(etcd_spec("bob", "b", 4)).unwrap();
    let c = engine.submit(etcd_spec("carol", "c", 2)).unwrap();
    let summary = engine.drive(None).unwrap();
    assert_eq!(summary.campaigns, 3);
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.experiments, 3 + 4 + 2);
    for id in [&a, &b, &c] {
        let status = engine.poll(id).unwrap();
        assert_eq!(status.state, JobState::Completed, "{id}");
        assert_eq!(
            Some(status.completed_experiments),
            status.total_experiments,
            "{id}"
        );
        let report = engine.report(id).unwrap();
        assert_eq!(report.executed, status.completed_experiments);
    }
    // All three campaigns share one target: exactly one scan.
    assert_eq!(engine.cache_stats().scan_misses, 1);
}

#[test]
fn service_facade_delivers_reports_to_sessions() {
    let mut service = CampaignService::new(EngineConfig::default(), etcd_registry()).unwrap();
    let id = service.submit(etcd_spec("alice", "nightly", 3)).unwrap();
    assert!(service.poll(&id).is_some());
    assert!(service.sessions.reports("alice").is_empty(), "not done yet");
    service.drive(None).unwrap();
    // Completed report is now visible through the session accessors.
    let report = service
        .sessions
        .report("alice", "nightly")
        .expect("report delivered");
    assert_eq!(report.executed, 3);
    assert_eq!(service.sessions.report_names("alice"), vec!["nightly"]);
    // Driving again must not duplicate the delivery.
    service.drive(None).unwrap();
    assert_eq!(service.sessions.reports("alice").len(), 1);
}

#[test]
fn failed_setup_marks_job_failed_not_poisoning_queue() {
    let mut engine = CampaignEngine::new(EngineConfig::default(), etcd_registry()).unwrap();
    let mut bad = etcd_spec("alice", "bad", 2);
    bad.sources[0].1 = "def broken(:\n".into(); // unparsable target
    let bad_id = engine.submit(bad).unwrap();
    let good_id = engine.submit(etcd_spec("bob", "good", 2)).unwrap();
    let summary = engine.drive(None).unwrap();
    let bad_status = engine.poll(&bad_id).unwrap();
    assert_eq!(bad_status.state, JobState::Failed);
    assert!(bad_status.error.is_some());
    assert_eq!(engine.poll(&good_id).unwrap().state, JobState::Completed);
    assert_eq!(summary.completed, 1);
}

#[test]
fn unknown_host_is_rejected_at_submit() {
    let mut engine = CampaignEngine::new(EngineConfig::default(), HostRegistry::with_noop()).unwrap();
    let err = engine.submit(etcd_spec("alice", "x", 1)).unwrap_err();
    assert!(err.message.contains("unknown host"), "{}", err.message);
}

#[test]
fn checkout_checkin_reports_match_drive_byte_for_byte() {
    // The distributed-execution surface: checking a campaign out,
    // recording its experiments externally, and checking it back in
    // must produce a report byte-identical to a locally driven run —
    // the engine-level half of the cluster determinism invariant.
    let spec = etcd_spec("alice", "dist", 5);

    // Reference: locally driven.
    let mut reference = CampaignEngine::new(EngineConfig::default(), etcd_registry()).unwrap();
    let ref_id = reference.submit(spec.clone()).unwrap();
    reference.drive(None).unwrap();
    let expected = campaign::report_to_value(&reference.report(&ref_id).unwrap()).pretty();

    // Distributed: checkout, execute the pending jobs "remotely" (the
    // same deterministic workflow path a worker agent uses, completion
    // order scrambled), check back in.
    let mut engine = CampaignEngine::new(EngineConfig::default(), etcd_registry()).unwrap();
    let id = engine.submit(spec.clone()).unwrap();
    let mut checkout = engine.checkout_next().unwrap().expect("queued campaign");
    assert_eq!(checkout.id, id);
    assert!(!checkout.pending.is_empty());
    let workflow = spec
        .build_workflow(etcd_registry().get("etcd").unwrap(), Default::default())
        .unwrap();
    let mut jobs = std::mem::take(&mut checkout.pending);
    jobs.reverse(); // completion order must not matter
    for (point, sources) in &jobs {
        let result = workflow.run_experiment_with_sources(point, sources);
        checkout.checkpoint.record(&result).unwrap();
    }
    let completed = engine.checkin(checkout).unwrap();
    assert!(completed, "all results recorded → completed");
    assert_eq!(engine.poll(&id).unwrap().state, JobState::Completed);
    let report = campaign::report_to_value(&engine.report(&id).unwrap()).pretty();
    assert_eq!(report, expected, "checkout/checkin diverged from drive");

    // A partial checkin requeues and a later checkout resumes from the
    // checkpoint instead of restarting.
    let mut partial = CampaignEngine::new(EngineConfig::default(), etcd_registry()).unwrap();
    let pid = partial.submit(spec).unwrap();
    let mut first = partial.checkout_next().unwrap().unwrap();
    let pending = std::mem::take(&mut first.pending);
    let (head, tail) = pending.split_at(2);
    for (point, sources) in head {
        first
            .checkpoint
            .record(&workflow.run_experiment_with_sources(point, sources))
            .unwrap();
    }
    assert!(!partial.checkin(first).unwrap(), "incomplete → requeued");
    assert_eq!(partial.poll(&pid).unwrap().state, JobState::Queued);
    let mut second = partial.checkout_next().unwrap().unwrap();
    assert_eq!(
        second.pending.len(),
        tail.len(),
        "resume skips checkpointed experiments"
    );
    for (point, sources) in std::mem::take(&mut second.pending) {
        second
            .checkpoint
            .record(&workflow.run_experiment_with_sources(&point, &sources))
            .unwrap();
    }
    assert!(partial.checkin(second).unwrap());
    let resumed = campaign::report_to_value(&partial.report(&pid).unwrap()).pretty();
    assert_eq!(resumed, expected, "resumed distributed run diverged");
}

#[test]
fn reopened_engine_republishes_status_and_redelivers_reports() {
    let dir = temp_dir("republish");
    let open = || {
        CampaignService::new(
            EngineConfig {
                data_dir: Some(dir.clone()),
                executor: Default::default(),
            },
            etcd_registry(),
        )
        .unwrap()
    };
    let (id, expected) = {
        let mut service = open();
        let id = service.submit(etcd_spec("alice", "nightly", 3)).unwrap();
        service.drive(None).unwrap();
        let status = service.poll(&id).unwrap();
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.completed_experiments, 3);
        assert_eq!(status.total_experiments, Some(3));
        let report = service.engine().report(&id).unwrap();
        (id, campaign::report_to_value(&report).pretty())
        // Service dropped here: the process "exits".
    };

    // A fresh process publishes what the data dir says, before any
    // drive: the count comes from the checkpoint, read once at open.
    let mut service = open();
    let status = service.poll(&id).unwrap();
    assert_eq!(status.state, JobState::Completed);
    assert_eq!((status.user.as_str(), status.name.as_str()), ("alice", "nightly"));
    assert_eq!(status.completed_experiments, 3);
    assert_eq!(status.total_experiments, Some(3));
    assert!(status.error.is_none());
    assert!(service.poll("job-999999").is_none());

    // The old report reaches its session on the first drive — once.
    assert!(service.sessions.reports("alice").is_empty(), "not before a drive");
    let summary = service.drive(None).unwrap();
    assert_eq!(summary.experiments, 0, "nothing is run again");
    assert_eq!(service.sessions.report_names("alice"), vec!["nightly"]);
    let delivered = service.sessions.report("alice", "nightly").unwrap();
    assert_eq!(campaign::report_to_value(delivered).pretty(), expected);
    service.drive(None).unwrap();
    assert_eq!(service.sessions.reports("alice").len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
