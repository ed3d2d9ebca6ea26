//! Failure visualization (paper §IV-D): records the target's API
//! invocations during an experiment and renders them as an event
//! timeline (our ASCII stand-in for the Zipkin plots of FailViz).
//!
//! Runs one fault-injected experiment (a dropped connection-cleanup
//! call) and shows the fault-free vs fault-injected timelines.
//!
//! Run with: `cargo run --release --example failure_viz`

use etcdsim::EtcdHost;
use injector::{ModuleText, MutationMode, Mutator, Scanner};
use sandbox::{Container, ContainerImage};
use std::rc::Rc;
use trace::{render_timeline, Span, Timeline};

fn timeline_of(host: &EtcdHost) -> Timeline {
    host.events()
        .into_iter()
        .map(|e| {
            let span = Span::new("etcd-api", &format!("{} {}", e.method, e.path), e.time, e.latency.max(1e-4));
            if (400..=599).contains(&e.status) || e.status == 0 {
                span.err()
            } else {
                span.ok()
            }
        })
        .collect()
}

fn run_once(mutated_client: Option<String>) -> (Timeline, String, String) {
    let client_src = mutated_client.unwrap_or_else(|| targets::CLIENT_SOURCE.to_string());
    let image = ContainerImage::new("viz")
        .source("etcd", &client_src)
        .workload(targets::WORKLOAD_BASIC)
        .setup_cmd(&["etcd-start"]);
    let host = Rc::new(EtcdHost::new(11));
    let mut container = Container::deploy(&image, host.clone(), 11).expect("deploys");
    let r1 = container.run_round(1, true);
    let r2 = container.run_round(2, false);
    let timeline = timeline_of(&host);
    container.teardown();
    (timeline, format!("{:?}", r1.status), format!("{:?}", r2.status))
}

fn main() {
    // Fault-free baseline.
    let (clean, r1, r2) = run_once(None);
    println!("=== fault-free experiment (r1={r1}, r2={r2}) ===");
    println!("{}", render_timeline(&clean, 72));

    // Inject: drop the urllib call that closes connections (the §V-A
    // reconnection-failure substrate).
    let spec = faultdsl::parse_spec(
        "change {\n    $VAR#r = $CALL{name=urllib.request}($STRING{val=DELETE}, ...)\n} into {\n    $VAR#r = None\n}",
        "DROP-CLOSE",
    )
    .expect("valid spec");
    let module = pysrc::parse_module(targets::CLIENT_SOURCE, "etcd").expect("client parses");
    let points = Scanner::new(vec![spec.clone()]).scan(std::slice::from_ref(&module));
    assert!(!points.is_empty(), "expected DELETE urllib sites");
    let mutated = Mutator::new(MutationMode::Triggered)
        .render(&module, &ModuleText::of(&module), &spec, &points[0])
        .expect("mutation applies");
    let (faulty, r1, r2) = run_once(Some(mutated.text));
    println!("=== fault-injected experiment (r1={r1}, r2={r2}) ===");
    println!("{}", render_timeline(&faulty, 72));
    println!(
        "fault-free: {} spans / {} failed;  fault-injected: {} spans / {} failed",
        clean.len(),
        clean.failures(),
        faulty.len(),
        faulty.failures()
    );
}
