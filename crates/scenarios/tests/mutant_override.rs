//! A mutant prepared as its fault-free module plus the one `def` it
//! changed runs exactly as the same mutant parsed from its text.
//!
//! `Workflow::mutant_sources` prepares the override while it renders
//! the text; `run_experiment_with_sources` enters it into `sandbox`'s
//! prepare cache so the deploy of that text hits. Append a comment to
//! the text and its hash finds nothing: the deploy parses, which is the
//! path text from anywhere else takes, and the reference here. Over
//! every scanned point of every matrix cell in both mutation modes, and
//! every planned point of the paper's three campaigns, under both
//! engines, the two results must agree down to the bits of the virtual
//! clock — and the cache's counters must say each run took the path it
//! was meant to.

mod common;

use campaign::results_equivalent;
use injector::{InjectionPoint, ModuleText, MutationMode, Mutator};
use profipy::workflow::{HostFactory, Workflow, WorkflowConfig};
use pyrt::Engine;
use scenarios::{default_catalog, default_corpus, Matrix};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// The cache's counters and the default engine are the process's: the
/// tests that read the one or set the other take turns.
static TURN: Mutex<()> = Mutex::new(());

fn my_turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn host(name: &str) -> HostFactory {
    match name {
        "etcd" => profipy::case_study::etcd_host_factory(),
        "noop" => Arc::new(|_| Rc::new(pyrt::NoopHost::new()) as Rc<dyn pyrt::HostApi>),
        other => panic!("no host environment {other}"),
    }
}

/// `(seeded, hits, misses)` of the process-wide prepare cache.
fn cache_counts() -> [u64; 3] {
    let m = sandbox::prepare_cache_metrics();
    [m.seeded.value(), m.hits.value(), m.misses.value()]
}

fn grown(before: [u64; 3], after: [u64; 3]) -> [u64; 3] {
    [0, 1, 2].map(|i| after[i] - before[i])
}

/// Runs `point` on the sources rendered for it, then on the same
/// sources with a comment after the mutated module, and holds the two
/// results equal. Returns whether the first run was an override's.
/// `what` has to be unique among the calls of a process, or the
/// commented text is found in the cache.
fn both_paths_agree(workflow: &Workflow, point: &InjectionPoint, what: &str) -> bool {
    let sources = workflow.mutant_sources(point).expect("renders");
    let start = cache_counts();
    let rendered_here = workflow.run_experiment_with_sources(point, &sources);
    let between = cache_counts();
    let mut commented = sources.clone();
    commented
        .iter_mut()
        .find(|s| s.import_name == point.module)
        .expect("the mutated module is among the sources")
        .text
        .push_str(&format!(
            "# {what} point {}: parsed, not overridden\n",
            point.id
        ));
    let from_text = workflow.run_experiment_with_sources(point, &commented);
    let end = cache_counts();
    assert!(
        results_equivalent(&rendered_here, &from_text),
        "{what} point {}: the override and the text disagree\n{rendered_here:?}\n{from_text:?}",
        point.id
    );
    // Every other source is attached to the image: one probe a run.
    let [seeded, hits, misses] = grown(start, between);
    assert_eq!(hits + misses, 1, "{what} point {}", point.id);
    assert!(
        seeded <= hits,
        "{what} point {}: a seeded deploy hits",
        point.id
    );
    assert_eq!(
        grown(between, end),
        [0, 0, 1],
        "{what} point {}: handed other text, the deploy parses it",
        point.id
    );
    seeded == 1
}

#[test]
fn every_catalog_point_runs_the_same_overridden_as_parsed() {
    let _turn = my_turn();
    let mut matrix = Matrix::new(default_catalog(), default_corpus());
    matrix.sample_per_cell = 0;
    let (mut runs, mut overridden) = (0usize, 0usize);
    for engine in [Engine::Bytecode, Engine::TreeWalk] {
        pyrt::set_default_engine(engine);
        for mode in [MutationMode::Direct, MutationMode::Triggered] {
            for mut cell in matrix.cells() {
                cell.spec.mode = mode;
                let workflow = cell
                    .spec
                    .build_workflow(host(&cell.spec.host), sandbox::ParallelExecutor::default())
                    .expect("cell builds");
                let what = format!("{}/{} {mode:?} {engine:?}", cell.target, cell.model);
                for point in &workflow.scan() {
                    runs += 1;
                    overridden += usize::from(both_paths_agree(&workflow, point, &what));
                }
            }
        }
    }
    println!("catalog: {overridden} of {runs} point-runs took the override");
    assert!(runs >= 1000, "27 cells x 2 modes x 2 engines: {runs}");
    assert!(
        overridden * 100 >= runs * 95,
        "only {overridden} of {runs} point-runs took the override"
    );
}

#[test]
fn every_case_study_experiment_runs_the_same_overridden_as_parsed() {
    use profipy::case_study::{campaign_a, campaign_b, campaign_c};
    let _turn = my_turn();
    for engine in [Engine::Bytecode, Engine::TreeWalk] {
        pyrt::set_default_engine(engine);
        for campaign in [campaign_a(), campaign_b(), campaign_c()] {
            let workflow = &campaign.workflow;
            let points = workflow.scan();
            let mut plan = workflow.plan(&points, &campaign.filter);
            if campaign.prune_by_coverage {
                plan = plan.prune_by_coverage(&workflow.coverage_run(&points).expect("covers"));
            }
            assert!(!plan.is_empty());
            let what = format!("{} {engine:?}", campaign.name);
            for point in &plan.entries {
                assert!(
                    both_paths_agree(workflow, point, &what),
                    "{what} point {}: every planned window lies under a def",
                    point.id
                );
            }
        }
    }
}

/// `text` without the `Span { .. }` payloads of a `Debug` rendering.
fn without_spans(text: &str) -> String {
    const OPEN: &str = "Span { ";
    const CLOSE: &str = "} }";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(OPEN) {
        out.push_str(&rest[..at + OPEN.len()]);
        let close = rest[at..].find(CLOSE).expect("a span closes");
        rest = &rest[at + close..];
    }
    out.push_str(rest);
    out
}

/// The tree of one statement standing alone, ids by rank, spans out.
fn shape(stmt: &pysrc::ast::Stmt) -> String {
    without_spans(&common::normalised(&pysrc::Module {
        name: String::new(),
        body: vec![stmt.clone()],
    }))
}

#[test]
fn the_def_handed_over_is_the_one_in_the_mutants_text() {
    let mut matrix = Matrix::new(default_catalog(), default_corpus());
    matrix.sample_per_cell = 0;
    let mut defs = 0usize;
    for mode in [MutationMode::Direct, MutationMode::Triggered] {
        for mut cell in matrix.cells() {
            cell.spec.mode = mode;
            let workflow = cell
                .spec
                .build_workflow(host("noop"), sandbox::ParallelExecutor::default())
                .expect("cell builds");
            let texts: Vec<ModuleText> = workflow.modules().iter().map(ModuleText::of).collect();
            for point in &workflow.scan() {
                let what = format!("{}/{} {mode:?} point {}", cell.target, cell.model, point.id);
                let at = workflow
                    .modules()
                    .iter()
                    .position(|m| m.name == point.module)
                    .expect("the point's module");
                let spec = workflow
                    .specs()
                    .iter()
                    .find(|s| s.name == point.spec_name)
                    .expect("the point's spec");
                let rendered = Mutator::new(mode)
                    .render(&workflow.modules()[at], &texts[at], spec, point)
                    .expect("renders");
                assert_eq!(
                    rendered.text,
                    workflow.mutant_sources(point).expect("renders")[at].text
                );
                let Some(def) = rendered.def else { continue };
                defs += 1;

                // Its lines are a run of the mutant's, some levels in …
                let line = (0..8)
                    .find_map(|level| {
                        let pad = "    ".repeat(level);
                        let block: String =
                            def.text.lines().map(|l| format!("{pad}{l}\n")).collect();
                        rendered
                            .text
                            .match_indices(&block)
                            .find(|(at, _)| *at == 0 || rendered.text.as_bytes()[at - 1] == b'\n')
                            .map(|(at, _)| 1 + rendered.text[..at].matches('\n').count())
                    })
                    .unwrap_or_else(|| panic!("{what}: the def is not in the text\n{}", def.text));

                // … and parsed alone they give the tree those lines
                // give in the mutant: ids in the same order, only the
                // spans elsewhere.
                let alone = pysrc::parse_module(&def.text, "def").expect("the def parses");
                assert_eq!(alone.body.len(), 1, "{what}");
                let mutant = pysrc::parse_module(&rendered.text, "mutant").expect("parses");
                let mut in_place = None;
                pysrc::visit::walk_blocks(&mutant, &mut |block, _| {
                    in_place = in_place.or(block.iter().find(|s| {
                        matches!(s.kind, pysrc::ast::StmtKind::FuncDef { .. })
                            && s.span.lo.line as usize == line
                    }));
                });
                let in_place = in_place.unwrap_or_else(|| panic!("{what}: no def at line {line}"));
                assert_eq!(shape(&alone.body[0]), shape(in_place), "{what}");

                // The import the mutant brings is named, or is not there:
                // a window under a def leaves the top level as long as
                // it was.
                let top_level = workflow.modules()[at].body.len();
                match &def.lead {
                    Some(lead) => {
                        assert!(rendered.text.starts_with(lead.as_str()), "{what}");
                        assert_eq!(mutant.body.len(), top_level + 1, "{what}");
                    }
                    None => assert_eq!(mutant.body.len(), top_level, "{what}"),
                }
            }
        }
    }
    assert!(defs >= 500, "most windows lie under a def: {defs}");
}

#[test]
fn a_campaign_larger_than_the_prepare_cache_keeps_its_overrides() {
    let _turn = my_turn();
    pyrt::set_default_engine(Engine::Bytecode);
    // More injection points than the cache has entries (512), each in
    // a def of its own.
    let source: String = std::iter::once("def ping(c, i):\n    return c\n".to_string())
        .chain((0..600).map(|i| format!("def f{i}(c):\n    ping(c, {i})\n    return {i}\n")))
        .collect();
    let model = faultdsl::FaultModel {
        name: "omit".into(),
        description: String::new(),
        specs: vec![faultdsl::SpecSource {
            name: "OMIT".into(),
            description: String::new(),
            dsl: "change {\n    $CALL{name=ping}(...)\n} into {\n    pass\n}".into(),
        }],
    };
    let workflow = Workflow::new(
        vec![("lib".into(), source)],
        "import lib\ndef run(round):\n    assert lib.f7(round) == 7\n".into(),
        model,
        host("noop"),
        WorkflowConfig::default(),
    )
    .expect("builds");
    let points = workflow.scan();
    assert_eq!(points.len(), 600);
    // As `CampaignEngine::prepare` does: every mutant rendered before
    // the first one runs.
    let rendered: Vec<_> = points
        .iter()
        .map(|p| workflow.mutant_sources(p).expect("renders"))
        .collect();
    let start = cache_counts();
    for (point, sources) in points.iter().zip(&rendered) {
        let result = workflow.run_experiment_with_sources(point, sources);
        assert!(result.round1.status.is_ok(), "{:?}", result.round1.status);
    }
    assert_eq!(
        grown(start, cache_counts()),
        [600, 600, 0],
        "each mutant is entered when it runs, so the cache emptying itself on the way loses none"
    );
    // Run again they are text like any other: what the cache still
    // holds hits, the rest is parsed.
    let start = cache_counts();
    for (point, sources) in points.iter().zip(&rendered).take(8) {
        workflow.run_experiment_with_sources(point, sources);
    }
    let [seeded, hits, misses] = grown(start, cache_counts());
    assert_eq!((seeded, hits + misses), (0, 8));
}
