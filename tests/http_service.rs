//! The as-a-Service acceptance test: a real HTTP server on an
//! ephemeral port, 8 concurrent clients submitting campaigns, every
//! job polled to completion, and every report fetched over the wire
//! byte-identical to the same spec run through `CampaignService`
//! in-process. Worker-pool saturation (503) and graceful-shutdown
//! draining are covered at the `httpd` layer
//! (`crates/httpd/tests/server.rs`); here the server additionally
//! proves it hands back the service state intact on shutdown.

use campaign::{
    report_to_value, ApiConfig, ApiServer, CampaignService, CampaignSpec, EngineConfig,
    HostRegistry,
};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const TARGET: &str = "def transfer(amount):
    checked = validate(amount)
    log_event()
    return checked

def validate(amount):
    if amount > 0:
        return amount
    return 0
";

const WORKLOAD: &str = "import target

def run(round):
    total = 0
    for i in range(3):
        total = total + target.transfer(i)
    return total
";

fn spec_for(user: &str, seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        user,
        &format!("{user}-campaign"),
        "noop",
        vec![("target".into(), TARGET.into())],
        WORKLOAD.into(),
        faultdsl::predefined_models(),
    );
    spec.seed = seed;
    spec
}

fn service() -> CampaignService {
    CampaignService::new(EngineConfig::default(), HostRegistry::with_noop()).unwrap()
}

/// Runs a spec through the in-process service and returns the report's
/// canonical JSON — the reference bytes for the HTTP comparison.
fn in_process_report(service: &mut CampaignService, spec: CampaignSpec) -> String {
    let id = service.submit(spec).unwrap();
    service.drive(None).unwrap();
    let report = service.engine().report(&id).expect("campaign completed");
    report_to_value(&report).pretty()
}

#[test]
fn eight_concurrent_clients_get_byte_identical_reports() {
    let api = ApiServer::serve("127.0.0.1:0", service(), ApiConfig::default()).unwrap();
    let addr = api.addr().to_string();

    let users: Vec<String> = (0..8).map(|i| format!("user{i}")).collect();
    let handles: Vec<_> = users
        .iter()
        .map(|user| {
            let addr = addr.clone();
            let spec = spec_for(user, 40 + user.len() as u64);
            std::thread::spawn(move || {
                let mut client = httpd::Client::new(&addr);
                let resp = client
                    .post_json("/api/campaigns", &spec.to_json())
                    .expect("submit");
                assert_eq!(resp.status, 201, "{}", resp.text());
                let id = jsonlite::parse(&resp.text())
                    .unwrap()
                    .req("id")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string();
                // Poll to completion.
                let deadline = Instant::now() + Duration::from_secs(120);
                loop {
                    let status = client.get(&format!("/api/campaigns/{id}")).expect("poll");
                    assert_eq!(status.status, 200);
                    let v = jsonlite::parse(&status.text()).unwrap();
                    match v.req("state").unwrap().as_str().unwrap() {
                        "completed" => break,
                        "failed" => panic!("campaign failed: {}", status.text()),
                        _ => {}
                    }
                    assert!(Instant::now() < deadline, "poll timed out");
                    std::thread::sleep(Duration::from_millis(5));
                }
                let report = client
                    .get(&format!("/api/campaigns/{id}/report"))
                    .expect("report");
                assert_eq!(report.status, 200);
                report.text()
            })
        })
        .collect();
    let http_reports: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // The same specs through the in-process service: every report must
    // be byte-identical to what came over the wire.
    let mut reference = service();
    for (user, http_report) in users.iter().zip(&http_reports) {
        let expected = in_process_report(&mut reference, spec_for(user, 40 + user.len() as u64));
        assert_eq!(
            http_report, &expected,
            "HTTP report for {user} diverged from the in-process run"
        );
    }

    // Graceful shutdown hands the service back with every report
    // delivered into its session.
    let service = api.shutdown();
    for user in &users {
        assert_eq!(
            service.sessions.report_names(user),
            vec![format!("{user}-campaign")],
            "report missing from {user}'s session"
        );
    }
}

#[test]
fn many_keepalive_pollers_share_a_tiny_worker_pool() {
    // 64 persistent dashboard-style pollers against 4 HTTP workers:
    // under the old worker-per-connection model only 4 of them would
    // ever be served; the event loop serves all of them while a
    // campaign executes in the background.
    let config = ApiConfig {
        http: httpd::ServerConfig {
            workers: 4,
            queue_depth: 256,
            max_connections: 512,
            ..httpd::ServerConfig::default()
        },
        local_drive: true,
    };
    let api = ApiServer::serve("127.0.0.1:0", service(), config).unwrap();
    let addr = api.addr().to_string();

    let mut submitter = httpd::Client::new(&addr);
    let resp = submitter
        .post_json("/api/campaigns", &spec_for("crowd", 11).to_json())
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());

    const POLLERS: usize = 64;
    let connected = Arc::new(Barrier::new(POLLERS + 1));
    let handles: Vec<_> = (0..POLLERS)
        .map(|_| {
            let addr = addr.clone();
            let connected = connected.clone();
            std::thread::spawn(move || {
                let mut poller = httpd::Client::new(&addr).timeout(Duration::from_secs(60));
                assert_eq!(poller.get("/healthz").unwrap().status, 200);
                connected.wait(); // all 64 keep-alive connections open
                for _ in 0..10 {
                    assert_eq!(poller.get("/metrics").unwrap().status, 200);
                }
            })
        })
        .collect();
    connected.wait();
    for handle in handles {
        handle.join().unwrap();
    }
    api.shutdown();
}

#[test]
fn status_polls_stay_responsive_while_campaigns_run() {
    // A steady poller must keep getting sub-second answers while the
    // drive thread is busy executing another user's campaign.
    let api = ApiServer::serve("127.0.0.1:0", service(), ApiConfig::default()).unwrap();
    let addr = api.addr().to_string();
    let mut submitter = httpd::Client::new(&addr);
    let resp = submitter
        .post_json("/api/campaigns", &spec_for("heavy", 7).to_json())
        .unwrap();
    let id = jsonlite::parse(&resp.text())
        .unwrap()
        .req("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();

    let mut poller = httpd::Client::new(&addr);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let t0 = Instant::now();
        let status = poller.get(&format!("/api/campaigns/{id}")).unwrap();
        assert_eq!(status.status, 200);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "status poll starved by the drive thread"
        );
        let v = jsonlite::parse(&status.text()).unwrap();
        if v.req("state").unwrap().as_str().unwrap() == "completed" {
            break;
        }
        assert!(Instant::now() < deadline, "campaign never completed");
    }
    // /healthz and /metrics answer too.
    assert_eq!(poller.get("/healthz").unwrap().status, 200);
    let metrics = poller.get("/metrics").unwrap().text();
    assert!(metrics.contains("profipy_queue_depth"), "{metrics}");
    api.shutdown();
}

#[test]
fn metrics_are_valid_prometheus_exposition() {
    // Run a campaign first so histograms carry observations and the
    // job-state gauges are populated — the interesting case for
    // conformance, not an empty registry.
    let api = ApiServer::serve("127.0.0.1:0", service(), ApiConfig::default()).unwrap();
    let addr = api.addr().to_string();
    let mut client = httpd::Client::new(&addr);
    let before = client.get("/metrics").unwrap().text();
    let resp = client
        .post_json("/api/campaigns", &spec_for("conform", 3).to_json())
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = jsonlite::parse(&resp.text())
        .unwrap()
        .req("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client.get(&format!("/api/campaigns/{id}")).unwrap();
        let v = jsonlite::parse(&status.text()).unwrap();
        if v.req("state").unwrap().as_str().unwrap() == "completed" {
            break;
        }
        assert!(Instant::now() < deadline, "campaign never completed");
        std::thread::sleep(Duration::from_millis(5));
    }

    let metrics = client.get("/metrics").unwrap().text();
    // The shared validator checks the exposition invariants: every
    // sample belongs to a family whose `# TYPE` precedes it, no family
    // is declared twice, families are contiguous, label syntax and
    // sample values parse.
    let families = obs::validate_exposition(&metrics)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n---\n{metrics}"));

    // `# TYPE` precedes each family's samples and appears exactly once.
    for family in &families {
        let type_line = format!("# TYPE {family} ");
        assert_eq!(
            metrics.matches(&type_line).count(),
            1,
            "family {family} must be declared exactly once"
        );
        let type_at = metrics.find(&type_line).unwrap();
        let first_sample = {
            let mut at = 0usize;
            let mut found = None;
            for line in metrics.lines() {
                if !line.starts_with('#') && !line.is_empty() {
                    let name = line.split([' ', '{']).next().unwrap_or("");
                    let base = name
                        .strip_suffix("_bucket")
                        .or_else(|| name.strip_suffix("_sum"))
                        .or_else(|| name.strip_suffix("_count"))
                        .unwrap_or(name);
                    if name == family.as_str() || base == family.as_str() {
                        found = Some(at);
                        break;
                    }
                }
                at += line.len() + 1;
            }
            found
        };
        if let Some(sample_at) = first_sample {
            assert!(
                type_at < sample_at,
                "TYPE for {family} must precede its samples"
            );
        }
    }

    // Latency histograms and the operational profipy_* series come from
    // the one registry, each with a TYPE header.
    assert!(
        families.iter().any(|f| f == "httpd_request_seconds"),
        "request histogram missing: {families:?}"
    );
    assert!(
        families.iter().any(|f| f == "profipy_queue_depth"),
        "profipy_queue_depth family missing: {families:?}"
    );
    assert!(metrics.contains("httpd_request_seconds_bucket{"), "{metrics}");
    assert!(metrics.contains("# TYPE profipy_queue_depth gauge"), "{metrics}");

    let typed = |metrics: &str, kind: &str, name: &str| -> u64 {
        assert!(
            metrics.contains(&format!("# TYPE {name} {kind}")),
            "{metrics}"
        );
        let sample = metrics
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no sample of {name}\n{metrics}"));
        sample.parse().expect("sample value")
    };
    let counter = |metrics: &str, name: &str| typed(metrics, "counter", name);

    // Every series the API renders, typed before its sample (checked for
    // every family above): its own three, the queue's six and the
    // cross-campaign cache's ten. A state no job is in reads 0.
    let mut api_series = vec![
        ("profipy_http_requests_total".to_string(), "counter"),
        ("profipy_drive_calls_total".to_string(), "counter"),
        ("profipy_http_open_connections".to_string(), "gauge"),
        ("profipy_queue_depth".to_string(), "gauge"),
    ];
    for state in ["queued", "running", "completed", "failed", "cancelled"] {
        api_series.push((format!("profipy_jobs_{state}"), "gauge"));
    }
    for tier in ["scan", "parse", "mutant", "prepare", "coverage"] {
        api_series.push((format!("profipy_cache_{tier}_hits"), "counter"));
        api_series.push((format!("profipy_cache_{tier}_misses"), "counter"));
    }
    let read: std::collections::HashMap<&str, u64> = api_series
        .iter()
        .map(|(name, kind)| (name.as_str(), typed(&metrics, kind, name)))
        .collect();
    assert_eq!(read.len(), 19);
    assert_eq!(read["profipy_jobs_completed"], 1);
    for idle in [
        "queue_depth",
        "jobs_queued",
        "jobs_running",
        "jobs_failed",
        "jobs_cancelled",
    ] {
        assert_eq!(read[format!("profipy_{idle}").as_str()], 0, "{idle}");
    }
    for live in [
        "http_requests_total",
        "drive_calls_total",
        "http_open_connections",
    ] {
        assert!(read[format!("profipy_{live}").as_str()] > 0, "{live}");
    }

    // What the finished campaign left resident: its key in the bounded
    // cache, none of its raw results — and the report, which still
    // answers with the bytes of an in-process run.
    let gauge = |name: &str| typed(&metrics, "gauge", name);
    assert_eq!(gauge("campaign_results_resident"), 0);
    assert_eq!(gauge("campaign_cache_entries"), 1);
    assert!(gauge("campaign_cache_resident_bytes") > 0);
    assert_eq!(counter(&metrics, "campaign_cache_evictions_total"), 0);
    let report = client.get(&format!("/api/campaigns/{id}/report")).unwrap();
    assert_eq!(report.status, 200);
    assert_eq!(
        report.text(),
        in_process_report(&mut service(), spec_for("conform", 3))
    );

    // "Did these deploys parse anything?" is read off the process-wide
    // prepare cache's counters, which only text from elsewhere moves.
    // Every window of this target lies under a `def`: each mutant ran
    // as the override rendered with it, attached to its image, and the
    // same campaign again runs the same overrides from the mutant
    // cache. No other test here deploys text it did not render, so the
    // two campaigns move neither counter.
    let lookups = |metrics: &str| {
        [
            counter(metrics, "sandbox_prepare_cache_hits_total"),
            counter(metrics, "sandbox_prepare_cache_misses_total"),
        ]
    };
    let status = client.get(&format!("/api/campaigns/{id}")).unwrap().text();
    let experiments = jsonlite::parse(&status)
        .unwrap()
        .req("total_experiments")
        .unwrap()
        .as_u64()
        .expect("a completed campaign knows its plan");
    assert!(experiments > 0);
    let lookups_before = lookups(&before);
    assert_eq!(lookups(&metrics), lookups_before, "a new campaign: {metrics}");
    // Interpreter-heap totals, folded in when a container is torn down
    // (process-wide as well): every container's VM installs its
    // builtins as natives and the builtin exception hierarchy as
    // classes, so a campaign moves both by at least its experiments;
    // what it interns depends on the target (this one barely uses
    // strings), so those two only have to be there and never fall.
    const HEAP: [&str; 2] = [
        "pyrt_heap_objects_total{kind=\"native\"}",
        "pyrt_heap_objects_total{kind=\"class\"}",
    ];
    const INTERN: [&str; 2] = ["pyrt_intern_hits_total", "pyrt_intern_misses_total"];
    let sample = |metrics: &str, series: &str| -> u64 {
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no sample of {series}\n{metrics}"))
            .parse()
            .expect("counter value")
    };
    for family in ["pyrt_heap_objects_total", "pyrt_intern_hits_total", "pyrt_intern_misses_total"] {
        assert!(families.iter().any(|f| f == family), "{family} missing: {families:?}");
    }
    for kind in pyrt::value::SLAB_KINDS {
        sample(&metrics, &format!("pyrt_heap_objects_total{{kind=\"{kind}\"}}"));
    }
    let heap_before = HEAP.map(|series| sample(&metrics, series));
    assert!(heap_before.iter().all(|&n| n >= experiments), "{metrics}");
    let intern_before = INTERN.map(|series| sample(&metrics, series));
    let again = submit(&mut client, &spec_for("conform-again", 3));
    while client
        .get(&format!("/api/campaigns/{again}/report"))
        .unwrap()
        .status
        != 200
    {
        assert!(
            Instant::now() < deadline,
            "repeated campaign never completed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let metrics = client.get("/metrics").unwrap().text();
    obs::validate_exposition(&metrics).expect("still a valid exposition");
    assert_eq!(lookups(&metrics), lookups_before, "the same again: {metrics}");
    for (series, before) in HEAP.iter().zip(heap_before) {
        assert!(
            sample(&metrics, series) >= before + experiments,
            "{series} did not grow by a campaign's worth: {metrics}"
        );
    }
    for (series, before) in INTERN.iter().zip(intern_before) {
        assert!(sample(&metrics, series) >= before, "{series} fell: {metrics}");
    }
    api.shutdown();
}

fn submit(client: &mut httpd::Client, spec: &CampaignSpec) -> String {
    let resp = client.post_json("/api/campaigns", &spec.to_json()).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    jsonlite::parse(&resp.text())
        .unwrap()
        .req("id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

#[test]
fn status_never_waits_for_an_experiment() {
    // The broker × off-by-one cell: one of its mutants spins until the
    // round's 8 M fuel steps are gone, so a single drive slice holds
    // the service mutex for at least a fifth of a second. Status is
    // read from the engine's published board and `/metrics` is one
    // registry render, so neither may notice.
    let mut matrix =
        scenarios::Matrix::new(scenarios::default_catalog(), scenarios::default_corpus());
    matrix.sample_per_cell = 0;
    let hang = matrix
        .cells()
        .into_iter()
        .find(|c| c.target == "broker" && c.model == "off-by-one")
        .expect("the catalog has the broker × off-by-one cell")
        .spec;

    let api = ApiServer::serve("127.0.0.1:0", service(), ApiConfig::default()).unwrap();
    let mut client = httpd::Client::new(api.addr().to_string());
    let id = submit(&mut client, &hang);

    let deadline = Instant::now() + Duration::from_secs(120);
    let mut running_polls = 0u32;
    let mut running_for = Duration::ZERO;
    let mut slowest = Duration::ZERO;
    let mut slowest_scrape = Duration::ZERO;
    loop {
        let t0 = Instant::now();
        let status = client.get(&format!("/api/campaigns/{id}")).unwrap();
        let took = t0.elapsed();
        assert_eq!(status.status, 200);
        let v = jsonlite::parse(&status.text()).unwrap();
        match v.req("state").unwrap().as_str().unwrap() {
            "running" => {
                let t1 = Instant::now();
                let scrape = client.get("/metrics").unwrap();
                let scraped = t1.elapsed();
                assert_eq!(scrape.status, 200);
                obs::validate_exposition(&scrape.text()).expect("a valid exposition");
                running_polls += 1;
                running_for += took + scraped + Duration::from_millis(1);
                slowest = slowest.max(took);
                slowest_scrape = slowest_scrape.max(scraped);
            }
            "completed" => {
                // Whoever sees `completed` gets the report: it is
                // stored before that state is published.
                let report = client.get(&format!("/api/campaigns/{id}/report")).unwrap();
                assert_eq!(report.status, 200, "{}", report.text());
                assert_eq!(
                    v.req("completed_experiments").unwrap().as_u64(),
                    v.req("total_experiments").unwrap().as_u64()
                );
                break;
            }
            "failed" => panic!("hang cell failed: {}", status.text()),
            _ => {}
        }
        assert!(Instant::now() < deadline, "hang cell never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        running_for >= Duration::from_millis(100),
        "the cell was meant to keep a slice busy; it ran {running_for:?} over {running_polls} polls"
    );
    assert!(
        slowest < Duration::from_millis(20),
        "a status request waited {slowest:?} while an experiment ran"
    );
    assert!(
        slowest_scrape < Duration::from_millis(20),
        "a /metrics scrape waited {slowest_scrape:?} while an experiment ran"
    );
    // An id nobody submitted is still a 404, from the board as from
    // the engine before it.
    assert_eq!(client.get("/api/campaigns/job-999999").unwrap().status, 404);
    api.shutdown();
}

#[test]
fn reports_never_wait_for_an_experiment() {
    // A completed campaign's report is read from the engine's board,
    // like its status: while the broker × off-by-one cell holds a drive
    // slice (and the service mutex) for a fifth of a second or more,
    // fetching it must not notice.
    let mut matrix =
        scenarios::Matrix::new(scenarios::default_catalog(), scenarios::default_corpus());
    matrix.sample_per_cell = 0;
    let hang = matrix
        .cells()
        .into_iter()
        .find(|c| c.target == "broker" && c.model == "off-by-one")
        .expect("the catalog has the broker × off-by-one cell")
        .spec;
    let expected = in_process_report(&mut service(), spec_for("early", 5));

    let api = ApiServer::serve("127.0.0.1:0", service(), ApiConfig::default()).unwrap();
    let mut client = httpd::Client::new(api.addr().to_string());
    let early = submit(&mut client, &spec_for("early", 5));
    let deadline = Instant::now() + Duration::from_secs(120);
    while client.get(&format!("/api/campaigns/{early}/report")).unwrap().status != 200 {
        assert!(Instant::now() < deadline, "first campaign never completed");
        std::thread::sleep(Duration::from_millis(5));
    }

    let id = submit(&mut client, &hang);
    let mut running_polls = 0u32;
    let mut running_for = Duration::ZERO;
    let mut slowest = Duration::ZERO;
    loop {
        let status = client.get(&format!("/api/campaigns/{id}")).unwrap();
        assert_eq!(status.status, 200);
        let v = jsonlite::parse(&status.text()).unwrap();
        match v.req("state").unwrap().as_str().unwrap() {
            "running" => {
                let t0 = Instant::now();
                let report = client.get(&format!("/api/campaigns/{early}/report")).unwrap();
                let took = t0.elapsed();
                assert_eq!(report.status, 200);
                assert_eq!(report.text(), expected, "the bytes of an in-process run");
                running_polls += 1;
                running_for += took + Duration::from_millis(1);
                slowest = slowest.max(took);
            }
            "completed" => break,
            "failed" => panic!("hang cell failed: {}", status.text()),
            _ => {}
        }
        assert!(Instant::now() < deadline, "hang cell never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        running_for >= Duration::from_millis(100),
        "the cell was meant to keep a slice busy; it ran {running_for:?} over {running_polls} fetches"
    );
    assert!(
        slowest < Duration::from_millis(20),
        "a report request waited {slowest:?} while an experiment ran"
    );
    api.shutdown();
}

#[test]
fn failed_and_cancelled_jobs_publish_their_state() {
    // No drive thread: the test makes every transition itself, through
    // the shared service, and reads each one back over HTTP.
    let shared = campaign::SharedService::new(service());
    let config = ApiConfig {
        local_drive: false,
        ..ApiConfig::default()
    };
    let api = ApiServer::serve_with("127.0.0.1:0", shared.clone(), config, |router, _| router)
        .unwrap();
    let mut client = httpd::Client::new(api.addr().to_string());
    let state_of = |client: &mut httpd::Client, id: &str| {
        let resp = client.get(&format!("/api/campaigns/{id}")).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        jsonlite::parse(&resp.text()).unwrap()
    };

    let mut broken = spec_for("eve", 1);
    broken.sources[0].1 = "def broken(:\n".into();
    let failed = submit(&mut client, &broken);
    let cancelled = submit(&mut client, &spec_for("eve", 2));
    let v = state_of(&mut client, &cancelled);
    assert_eq!(v.req("state").unwrap().as_str(), Some("queued"));
    assert!(matches!(v.req("total_experiments").unwrap(), jsonlite::Value::Null));

    assert!(shared.lock().engine().cancel(&cancelled).unwrap());
    let v = state_of(&mut client, &cancelled);
    assert_eq!(v.req("state").unwrap().as_str(), Some("cancelled"));

    shared.lock().drive(None).unwrap();
    let v = state_of(&mut client, &failed);
    assert_eq!(v.req("state").unwrap().as_str(), Some("failed"));
    assert!(
        v.req("error").unwrap().as_str().is_some_and(|e| !e.is_empty()),
        "a failed job says why: {v:?}"
    );
    // The drive left the cancelled job alone.
    let v = state_of(&mut client, &cancelled);
    assert_eq!(v.req("state").unwrap().as_str(), Some("cancelled"));
    assert_eq!(
        client.get(&format!("/api/campaigns/{cancelled}/report")).unwrap().status,
        409
    );

    drop(shared);
    api.shutdown();
}

#[test]
fn a_deeply_nested_source_fails_its_request_not_the_server() {
    // 700 brackets is a 1.4 KB request; parsed recursively without a
    // nesting limit it overflows the 2 MB stack of the thread that
    // parses it — the drive thread for a campaign, an HTTP worker for a
    // model — and a stack overflow aborts the process.
    let deep = format!("x = {}1{}\n", "(".repeat(700), ")".repeat(700));
    let api = ApiServer::serve("127.0.0.1:0", service(), ApiConfig::default()).unwrap();
    let mut client = httpd::Client::new(api.addr().to_string()).timeout(Duration::from_secs(10));

    let mut spec = spec_for("mallory", 1);
    spec.sources[0].1 = deep.clone();
    let id = submit(&mut client, &spec);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        let resp = client.get(&format!("/api/campaigns/{id}")).unwrap();
        let v = jsonlite::parse(&resp.text()).unwrap();
        if v.req("state").unwrap().as_str() == Some("failed") {
            break v;
        }
        assert!(Instant::now() < deadline, "job never failed: {v:?}");
        std::thread::sleep(Duration::from_millis(10));
    };
    let error = status.req("error").unwrap().as_str().unwrap_or_default();
    assert!(error.contains("nested more than 200 levels deep"), "{error}");
    assert_eq!(client.get("/healthz").unwrap().status, 200);

    let dsl = format!("change {{\n    {deep}}} into {{\n    pass\n}}");
    let upload = jsonlite::Value::obj(vec![
        ("user", jsonlite::Value::str("mallory")),
        ("name", jsonlite::Value::str("deep")),
        ("dsl", jsonlite::Value::str(&dsl)),
    ]);
    let resp = client.post_json("/api/models", &upload.compact()).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.text());
    assert!(resp.text().contains("nested more than 200 levels deep"), "{}", resp.text());
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    api.shutdown();
}

#[test]
fn a_workload_that_asks_for_terabytes_fails_its_rounds_not_the_server() {
    // `'ab' * 10**12` once asked the allocator for 2 TB; a failed
    // allocation aborts the process, and the persisted job would abort
    // the restarted server again. Now it is a `ValueError` in the round.
    let api = ApiServer::serve("127.0.0.1:0", service(), ApiConfig::default()).unwrap();
    let mut client = httpd::Client::new(api.addr().to_string()).timeout(Duration::from_secs(10));
    let mut spec = spec_for("mallory", 2);
    spec.workload = WORKLOAD.replace(
        "    total = 0\n",
        "    total = 0\n    x = 'ab' * 1000000000000\n",
    );
    assert_ne!(spec.workload, WORKLOAD);
    let id = submit(&mut client, &spec);
    let deadline = Instant::now() + Duration::from_secs(60);
    let state = loop {
        let resp = client.get(&format!("/api/campaigns/{id}")).unwrap();
        let v = jsonlite::parse(&resp.text()).unwrap();
        let state = v.req("state").unwrap().as_str().unwrap().to_string();
        if state == "completed" || state == "failed" {
            break state;
        }
        assert!(Instant::now() < deadline, "job never finished: {v:?}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(state, "completed");
    let report = client.get(&format!("/api/campaigns/{id}/report")).unwrap();
    assert_eq!(report.status, 200);
    assert!(report.text().contains("ValueError"), "{}", report.text());
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    api.shutdown();
}
