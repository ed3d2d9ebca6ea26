//! Durable and wire formats, pinned from outside.
//!
//! Every fixture under `tests/fixtures/format_pins/` was **written by
//! the commit before the codecs moved onto `jsonlite`'s field
//! vocabulary and durable-file module** (PR 19's parent) and is
//! committed byte for byte. Each test loads one through the public API
//! and makes the code write it again: the bytes must not move. A
//! changed `content_hash` silently discards every checkpoint on disk, a
//! changed line format strands a data dir — so do not regenerate these
//! files to make a failure go away.
//!
//! The checkpoint record and the results upload changed on purpose: a
//! recorded result carries what its verdict reads, without stdout, host
//! events or logs below warning. `checkpoint.jsonl` and `results.json`
//! stay as decode pins — an existing data dir and an older worker's
//! upload must still load — and `checkpoint.v2.jsonl` and
//! `results.v2.json`, written by the code that made the change, are the
//! bytes the code must write again.
//!
//! Node ids (`start_stmt`, `core_ids`) are process-local counters; the
//! two fixtures that carry them are compared with those two fields
//! copied over from the fixture.

use campaign::{
    CampaignService, CampaignSpec, CheckpointLog, EngineConfig, HostRegistry, JobQueue, JobState,
    MutantCache, SharedService,
};
use cluster::{wire, Coordinator, FleetConfig, LeaseGrant, LeaseLog, LeasedJob};
use jsonlite::Value;
use sandbox::RoundStatus;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SPEC: &str = include_str!("fixtures/format_pins/spec.json");
const JOB_RUNNING: &str = include_str!("fixtures/format_pins/job-000001.json");
const JOB_FAILED: &str = include_str!("fixtures/format_pins/job-000002.json");
const CHECKPOINT: &str = include_str!("fixtures/format_pins/checkpoint.jsonl");
const CHECKPOINT_V2: &str = include_str!("fixtures/format_pins/checkpoint.v2.jsonl");
const SCAN: &str = include_str!("fixtures/format_pins/scan.json");
const MODEL: &str = include_str!("fixtures/format_pins/model.json");
const REGISTRY: &str = include_str!("fixtures/format_pins/fleet-workers.jsonl");
const REGISTRY_COMPACTED: &str = include_str!("fixtures/format_pins/fleet-workers.compacted.jsonl");
const REGISTRY_APPENDED: &str = include_str!("fixtures/format_pins/fleet-workers.appended.jsonl");
const WAL: &str = include_str!("fixtures/format_pins/fleet-leases.jsonl");
const WAL_COMPACTED: &str = include_str!("fixtures/format_pins/fleet-leases.compacted.jsonl");
const LEASE: &str = include_str!("fixtures/format_pins/lease.json");
const RESULTS: &str = include_str!("fixtures/format_pins/results.json");
const RESULTS_V2: &str = include_str!("fixtures/format_pins/results.v2.json");

const CONTENT_HASH: u64 = 6979709803095634094;
const CACHE_KEY: u64 = 18031757770952325122;
const COVERAGE_KEY: u64 = 15068789919110159634;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("format-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap()
}

fn spec() -> CampaignSpec {
    CampaignSpec::from_json(SPEC).unwrap()
}

/// The fixture spec's target module, parsed the way the fixtures'
/// points were scanned.
fn modules(spec: &CampaignSpec) -> Vec<pysrc::Module> {
    spec.sources
        .iter()
        .map(|(name, text)| pysrc::parse_module(text, name).unwrap())
        .collect()
}

/// The value at `path` (object keys; a numeric segment indexes an
/// array).
fn slot<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    let Some((head, rest)) = path.split_first() else {
        return v;
    };
    let child = match v {
        Value::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == head).unwrap().1,
        Value::Arr(items) => &mut items[head.parse::<usize>().unwrap()],
        other => panic!("no '{head}' in {other:?}"),
    };
    slot(child, rest)
}

fn set(v: &mut Value, path: &[&str], new: Value) {
    *slot(v, path) = new;
}

/// Copies the process-local node ids of a portable point from the
/// fixture into a re-encoded one.
fn copy_node_ids(from: &Value, to: &mut Value) {
    for key in ["start_stmt", "core_ids"] {
        set(to, &[key], from.req(key).unwrap().clone());
    }
}

#[test]
fn campaign_spec_and_its_hashes() {
    let spec = spec();
    assert_eq!(spec.to_json(), SPEC);
    assert_eq!(spec.content_hash(), CONTENT_HASH);
    assert_eq!(spec.cache_key(), CACHE_KEY);
    assert_eq!(spec.coverage_key(), COVERAGE_KEY);
    assert_eq!(spec.user, "alice");
    assert_eq!(spec.name, "pins/é");
    assert_eq!(spec.seed, u64::MAX - 5);
    assert_eq!(
        spec.setup,
        vec![vec!["etcd-start".to_string(), "--fast".to_string()], vec![]]
    );
    assert_eq!(spec.filter.sample, 5);
    assert!(spec.prune_by_coverage);
}

#[test]
fn fault_model() {
    let model = faultdsl::FaultModel::from_json(MODEL).unwrap();
    assert_eq!(model.to_json(), MODEL);
    assert_eq!(model, spec().model);
    assert_eq!(model.specs.len(), 2);
}

#[test]
fn queue_job_files() {
    let dir = temp_dir("queue");
    std::fs::write(dir.join("job-000001.json"), JOB_RUNNING).unwrap();
    std::fs::write(dir.join("job-000002.json"), JOB_FAILED).unwrap();
    // What a crash between temp-file write and rename leaves behind.
    std::fs::write(dir.join("job-000003.json.tmp"), "{\"id\": \"job-0000").unwrap();
    let mut specs = Vec::new();
    let mut queue = JobQueue::open_with(&dir, |job| specs.push(job.spec.clone())).unwrap();
    assert_eq!(
        specs,
        [spec(), spec()],
        "both specs decode; the leftover temp file is not a job"
    );
    // The running job was demoted, which rewrote its file.
    let demoted = queue.get("job-000001").unwrap();
    assert_eq!(demoted.state, JobState::Queued);
    assert_eq!(demoted.spec, spec());
    assert_eq!(demoted.spec_hash, CONTENT_HASH);
    assert_eq!(
        read(&dir.join("job-000001.json")),
        JOB_RUNNING.replace("\"state\": \"running\"", "\"state\": \"queued\"")
    );
    // The failed job is a record without its spec, and final.
    assert!(queue.get("job-000002").is_none());
    let failed = queue.finished("job-000002").unwrap();
    assert_eq!(failed.state, JobState::Failed);
    assert_eq!(failed.error.as_deref(), Some("boom: \"quoted\""));
    assert_eq!(failed.spec_hash, CONTENT_HASH);
    assert!(queue.fail("job-000002", "boom: \"quoted\"").is_err());
    // Sequence numbers continue after the recovered jobs.
    assert_eq!(queue.submit(spec()).unwrap(), "job-000003");
    drop(queue);
    let _ = std::fs::remove_dir_all(&dir);

    // The writer of a failure: the failed fixture as it stood while it
    // ran, opened, taken and failed, is written back byte for byte.
    let dir = temp_dir("queue-fail");
    let running = JOB_FAILED
        .replace("\"state\": \"failed\"", "\"state\": \"running\"")
        .replace("\"error\": \"boom: \\\"quoted\\\"\"", "\"error\": null");
    assert_ne!(running, JOB_FAILED);
    std::fs::write(dir.join("job-000002.json"), running).unwrap();
    let mut queue = JobQueue::open(&dir).unwrap();
    assert_eq!(queue.take_next().unwrap().as_deref(), Some("job-000002"));
    queue.fail("job-000002", "boom: \"quoted\"").unwrap();
    assert_eq!(read(&dir.join("job-000002.json")), JOB_FAILED);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a checkpoint at `path` holds, field for field.
fn records(path: &Path) -> Vec<String> {
    let log = CheckpointLog::open(path, CONTENT_HASH).unwrap();
    log.results().iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn checkpoint_file() {
    let dir = temp_dir("checkpoint");
    let path = dir.join("job-000001.jsonl");

    // An older log decodes, its stdout and host events dropped, to the
    // records the new fixture holds.
    std::fs::write(&path, CHECKPOINT).unwrap();
    let old = {
        let log = CheckpointLog::open(&path, CONTENT_HASH).unwrap();
        let results = log.results();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].round1.status, RoundStatus::Ok);
        assert!(matches!(
            &results[1].round1.status,
            RoundStatus::Failed { exc_class, message }
                if exc_class == "EtcdException" && message == "Bad response: 400"
        ));
        assert_eq!(results[1].round2.status, RoundStatus::Timeout);
        assert_eq!(results[2].round1.status, RoundStatus::NotRun);
        assert_eq!(
            results[2].deploy_error.as_deref(),
            Some("mutation failed: no such statement")
        );
        assert_eq!(results[0].logs[0].message, "write failed\nwith newline");
        assert!(results.iter().all(|r| r.events.is_empty() && r.stdout.is_empty()));
        drop(log);
        records(&path)
    };
    assert_eq!(read(&path), CHECKPOINT, "an intact log is not rewritten");
    assert_eq!(CheckpointLog::peek(&path, CONTENT_HASH).len(), 3);
    assert!(CheckpointLog::peek(&path, CONTENT_HASH + 1).is_empty());
    // Its repair writes the new records.
    std::fs::write(&path, format!("{CHECKPOINT}{{\"point_id\":4,\"spec\":\"DE")).unwrap();
    assert_eq!(records(&path), old);
    assert_eq!(read(&path), CHECKPOINT_V2, "an older log repairs to the records");

    std::fs::write(&path, CHECKPOINT_V2).unwrap();
    let recorded = {
        let log = CheckpointLog::open(&path, CONTENT_HASH).unwrap();
        log.results().to_vec()
    };
    assert_eq!(records(&path), old);
    assert_eq!(read(&path), CHECKPOINT_V2, "an intact log is not rewritten");

    // A torn tail forces the repair, which re-encodes every record.
    std::fs::write(&path, format!("{CHECKPOINT_V2}{{\"point_id\":4,\"spec\":\"DE")).unwrap();
    assert_eq!(CheckpointLog::peek(&path, CONTENT_HASH).len(), 3);
    {
        let mut log = CheckpointLog::open(&path, CONTENT_HASH).unwrap();
        assert_eq!(log.results().len(), 3);
        assert_eq!(
            read(&path),
            CHECKPOINT_V2,
            "repair = the valid prefix, byte for byte"
        );
        log.record(&recorded[1]).unwrap();
    }
    let second_record = CHECKPOINT_V2.lines().nth(2).unwrap();
    assert_eq!(read(&path), format!("{CHECKPOINT_V2}{second_record}\n"));

    // Torn inside a multi-byte character of program output ("…"): the
    // log still opens, on the records before it, and repairs to them.
    let cut = CHECKPOINT_V2.rfind('…').unwrap() + 1;
    std::fs::write(&path, &CHECKPOINT_V2.as_bytes()[..cut]).unwrap();
    assert_eq!(CheckpointLog::open(&path, CONTENT_HASH).unwrap().results().len(), 2);
    let kept: String = CHECKPOINT_V2.lines().take(3).map(|l| format!("{l}\n")).collect();
    assert_eq!(read(&path), kept);

    // Another spec hash discards the log, durably.
    assert!(CheckpointLog::open(&path, 7).unwrap().results().is_empty());
    assert_eq!(read(&path), "{\"spec_hash\":7}\n");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn portable_scan_file() {
    let spec = spec();
    let modules = modules(&spec);
    let file = format!("scan-{}.json", jsonlite::hex64(CACHE_KEY));
    let dir = temp_dir("scan");
    std::fs::write(dir.join(&file), SCAN).unwrap();
    let points = MutantCache::open(&dir)
        .unwrap()
        .points(CACHE_KEY, &modules)
        .expect("the fixture re-binds against a fresh parse");
    assert_eq!(points.len(), 2);
    assert_eq!(
        (points[0].spec_name.as_str(), points[1].spec_name.as_str()),
        ("DEL", "LOG")
    );
    assert_eq!(points[0].scope, "cleanup");

    let out = temp_dir("scan-out");
    MutantCache::open(&out)
        .unwrap()
        .store_points(CACHE_KEY, points, &modules);
    let fixture = jsonlite::parse(SCAN).unwrap();
    let mut written = jsonlite::parse(&read(&out.join(&file))).unwrap();
    for (i, entry) in fixture.as_arr().unwrap().iter().enumerate() {
        let Value::Arr(items) = &mut written else {
            panic!("scan file is an array")
        };
        copy_node_ids(entry, &mut items[i]);
    }
    assert_eq!(written.pretty(), SCAN);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&out);
}

/// A coordinator over `dir`, and the service whose registry it
/// publishes its gauges into.
fn coordinator(dir: &Path) -> (Coordinator, SharedService) {
    let service = CampaignService::new(EngineConfig::default(), HostRegistry::with_noop()).unwrap();
    let config = FleetConfig {
        data_dir: Some(dir.to_path_buf()),
        ..FleetConfig::default()
    };
    let shared = SharedService::new(service);
    (Coordinator::new(shared.clone(), config).unwrap(), shared)
}

fn registered(coordinator: &Coordinator, shared: &SharedService) -> u64 {
    coordinator.tick();
    let metrics = shared.metrics_registry().render();
    metrics
        .lines()
        .find_map(|line| line.strip_prefix("profipy_fleet_workers_registered "))
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn worker_registry_log() {
    let dir = temp_dir("registry");
    let path = dir.join("fleet-workers.jsonl");
    // Three registrations and a tombstone: loading compacts to the live
    // set plus the watermark.
    std::fs::write(&path, REGISTRY).unwrap();
    let (first, shared) = coordinator(&dir);
    assert_eq!(registered(&first, &shared), 2);
    drop(first);
    assert_eq!(read(&path), REGISTRY_COMPACTED);
    // The compacted form loads to the same set and rewrites to itself;
    // the watermark keeps the pruned worker's id from being reissued.
    let (reopened, shared) = coordinator(&dir);
    assert_eq!(registered(&reopened, &shared), 2);
    assert_eq!(read(&path), REGISTRY_COMPACTED);
    assert_eq!(reopened.register(8).unwrap(), "worker-000004");
    assert_eq!(read(&path), REGISTRY_APPENDED);
    // A torn registration costs only itself.
    std::fs::write(&path, format!("{REGISTRY_APPENDED}{{\"id\":\"worker-0000")).unwrap();
    drop(reopened);
    let (torn, shared) = coordinator(&dir);
    assert_eq!(registered(&torn, &shared), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lease_wal() {
    let dir = temp_dir("wal");
    let path = dir.join("fleet-leases.jsonl");
    let job = |campaign: &str, point: u64| (campaign.to_string(), point);
    std::fs::write(&path, WAL).unwrap();
    {
        let log = LeaseLog::open(&path).unwrap();
        assert_eq!(log.state().epoch, 2);
        assert_eq!(
            log.state().leases,
            [
                ("worker-000001".to_string(), vec![job("job-000001", 3)]),
                ("worker-000002".to_string(), vec![job("job-000002", 1)]),
            ]
            .into_iter()
            .collect()
        );
    }
    assert_eq!(
        read(&path),
        WAL_COMPACTED,
        "open compacts to one snapshot line"
    );

    // The history that wrote the fixture writes it again.
    std::fs::remove_file(&path).unwrap();
    {
        let mut log = LeaseLog::open(&path).unwrap();
        log.record_epoch(1).unwrap();
        log.record_grant(
            "worker-000001",
            &[job("job-000001", 3), job("job-000001", 4)],
        )
        .unwrap();
    }
    {
        let mut log = LeaseLog::open(&path).unwrap();
        log.record_epoch(2).unwrap();
        log.record_grant(
            "worker-000002",
            &[job("job-000001", 5), job("job-000002", 1)],
        )
        .unwrap();
        log.record_extend("worker-000001").unwrap();
        log.record_result("job-000001", 4).unwrap();
        log.record_supersede("worker-000002").unwrap();
        log.record_grant("worker-000002", &[job("job-000002", 1)])
            .unwrap();
        log.record_grant("worker-000003", &[job("job-000002", 2)])
            .unwrap();
        log.record_expire("worker-000003").unwrap();
    }
    assert_eq!(read(&path), WAL);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lease_grant_wire() {
    let fixture = jsonlite::parse(LEASE).unwrap();
    let lease = wire::lease_from_value(&fixture).unwrap();
    assert_eq!(lease.trace_id, "t-000007");
    assert_eq!(lease.epoch, 3);
    assert_eq!(
        lease.new_campaigns,
        vec![("job-000001".to_string(), spec())]
    );
    assert_eq!(lease.jobs.len(), 2);
    assert_eq!(lease.jobs[1].sources[1].import_name, "workload");

    let modules = Arc::new(modules(&lease.new_campaigns[0].1));
    let grant = LeaseGrant {
        jobs: lease
            .jobs
            .into_iter()
            .map(|job| LeasedJob {
                point: wire::rebind_point(&job.point, &modules).unwrap(),
                campaign: job.campaign,
                sources: Arc::new(job.sources),
                modules: modules.clone(),
            })
            .collect(),
        new_campaigns: lease.new_campaigns,
        trace_id: lease.trace_id,
        epoch: lease.epoch,
    };
    let mut encoded = wire::lease_grant_to_value(&grant).unwrap();
    for (i, job) in fixture
        .req("jobs")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .enumerate()
    {
        let index = i.to_string();
        for key in ["start_stmt", "core_ids"] {
            let id = job.req("point").unwrap().req(key).unwrap().clone();
            set(&mut encoded, &["jobs", index.as_str(), "point", key], id);
        }
    }
    assert_eq!(encoded.pretty(), LEASE);

    // A coordinator predating tracing and epochs sends neither field.
    let mut old = fixture.clone();
    if let Value::Obj(pairs) = &mut old {
        pairs.retain(|(k, _)| k != "trace" && k != "epoch");
    }
    let lease = wire::lease_from_value(&old).unwrap();
    assert_eq!((lease.trace_id.as_str(), lease.epoch), ("", 0));
}

#[test]
fn results_upload_wire() {
    // An older worker's upload decodes, its stdout and host events
    // dropped, to the records of the new one.
    let old = wire::results_from_value(&jsonlite::parse(RESULTS).unwrap()).unwrap();
    assert!(old.iter().all(|(_, r)| r.events.is_empty() && r.stdout.is_empty()));
    let fixture = jsonlite::parse(RESULTS_V2).unwrap();
    let results = wire::results_from_value(&fixture).unwrap();
    assert_eq!(format!("{old:?}"), format!("{results:?}"));
    assert_eq!(results.len(), 3);
    assert!(results.iter().all(|(campaign, _)| campaign == "job-000001"));
    assert_eq!(
        results[2].1.deploy_error.as_deref(),
        Some("mutation failed: no such statement")
    );
    let spans = wire::spans_from_value(fixture.req("spans").unwrap());
    assert_eq!(spans.len(), 2);
    assert_eq!(
        (spans[1].name.as_str(), spans[1].age, spans[1].failed),
        ("execute #2", 0.5, true)
    );

    // The upload body as the worker agent composes it.
    let mut body = wire::results_to_value(&results);
    if let Value::Obj(fields) = &mut body {
        fields.push(("trace".to_string(), fixture.req("trace").unwrap().clone()));
        fields.push(("epoch".to_string(), fixture.req("epoch").unwrap().clone()));
        fields.push(("spans".to_string(), wire::spans_to_value(&spans)));
    }
    assert_eq!(body.compact(), RESULTS_V2);

    // Spans are telemetry: malformed ones are skipped, never an error.
    assert!(wire::spans_from_value(&Value::str("not an array")).is_empty());
    let mut mangled = fixture.req("spans").unwrap().clone();
    set(&mut mangled, &["0", "age"], Value::str("soon"));
    assert_eq!(wire::spans_from_value(&mangled).len(), 1);
}

/// `decode(fixture with the field at path wrong-typed)` must fail with
/// an error that names the field.
fn assert_names_field(
    what: &str,
    fixture: &Value,
    path: &[&str],
    decode: &dyn Fn(&Value) -> Result<(), String>,
) {
    decode(fixture).unwrap_or_else(|e| panic!("{what}: the intact fixture must decode: {e}"));
    let mut broken = fixture.clone();
    let field_value = slot(&mut broken, path);
    *field_value = match field_value {
        Value::Bool(_) => Value::str("wrong"),
        _ => Value::Bool(true),
    };
    let field = path.last().unwrap();
    match decode(&broken) {
        Ok(()) => panic!("{what}: wrong-typed '{field}' was accepted"),
        Err(e) => assert!(
            e.contains(field),
            "{what}: error for '{field}' does not name it: {e}"
        ),
    }
}

#[test]
fn wrong_typed_fields_are_named() {
    let spec_value = jsonlite::parse(SPEC).unwrap();
    let decode_spec = |v: &Value| CampaignSpec::from_value(v).map(drop);
    for path in [
        &["user"][..],
        &["priority"],
        &["sources"],
        &["setup"],
        &["seed"],
        &["mode"],
        &["round_timeout"],
        &["prune_by_coverage"],
        &["filter", "modules"],
        &["filter", "sample"],
        &["model", "specs"],
        &["model", "specs", "1", "dsl"],
    ] {
        assert_names_field("spec", &spec_value, path, &decode_spec);
    }

    let model_value = jsonlite::parse(MODEL).unwrap();
    let decode_model = |v: &Value| faultdsl::FaultModel::from_value(v).map(drop);
    assert_names_field("model", &model_value, &["description"], &decode_model);

    let record = jsonlite::parse(CHECKPOINT_V2.lines().nth(2).unwrap()).unwrap();
    let decode_result = |v: &Value| campaign::result_from_value(v).map(drop);
    for path in [
        &["point_id"][..],
        &["scope"],
        &["round1", "duration"],
        &["round1", "status", "exc"],
        &["logs"],
        &["logs", "0", "severity"],
        &["stderr"],
        &["deploy_error"],
    ] {
        assert_names_field("result", &record, path, &decode_result);
    }

    let spec = spec();
    let modules = modules(&spec);
    let scan_value = jsonlite::parse(SCAN).unwrap();
    let decode_scan = |v: &Value| injector::points_from_portable_value(v, &modules).map(drop);
    for path in [
        &["0", "id"][..],
        &["0", "module"],
        &["1", "window_len"],
        &["1", "core_ids"],
        &["0", "core_spans"],
    ] {
        assert_names_field("scan", &scan_value, path, &decode_scan);
    }

    let lease_value = jsonlite::parse(LEASE).unwrap();
    let decode_lease = |v: &Value| wire::lease_from_value(v).map(drop);
    for path in [
        &["jobs"][..],
        &["jobs", "0", "campaign"],
        &["jobs", "1", "sources"],
        &["campaigns", "0", "id"],
    ] {
        assert_names_field("lease", &lease_value, path, &decode_lease);
    }

    let upload = jsonlite::parse(RESULTS_V2).unwrap();
    let decode_upload = |v: &Value| wire::results_from_value(v).map(drop);
    for path in [
        &["results"][..],
        &["results", "0", "campaign"],
        &["results", "2", "result", "stderr"],
    ] {
        assert_names_field("upload", &upload, path, &decode_upload);
    }

    // A corrupt job file is reported — the queue does not open without it.
    let dir = temp_dir("corrupt-job");
    let mut job = jsonlite::parse(JOB_FAILED).unwrap();
    set(&mut job, &["seq"], Value::str("two"));
    std::fs::write(dir.join("job-000002.json"), job.pretty()).unwrap();
    let error = JobQueue::open(&dir)
        .err()
        .expect("corrupt job file must fail the open");
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidData);
    assert!(error.to_string().contains("seq"), "{error}");
    let _ = std::fs::remove_dir_all(&dir);
}
