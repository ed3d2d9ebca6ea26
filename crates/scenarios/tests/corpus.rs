//! Corpus coverage (satellite): every shipped fault model compiles,
//! matches at least one injection site on at least one applicable
//! catalog target, and every rendered mutant still parses, prepares,
//! and imports under both interpreter engines (the tree-walk oracle
//! and the bytecode tier). No catalog source or mutant comes near the
//! parser's nesting limit.

use profipy::workflow::{HostFactory, Workflow, WorkflowConfig};
use pyrt::vm::{Engine, Vm};
use pysrc::parser::MAX_NESTING;
use scenarios::{default_catalog, default_corpus, CatalogTarget};
use std::rc::Rc;
use std::sync::Arc;

fn noop_factory() -> HostFactory {
    Arc::new(|_seed| Rc::new(pyrt::NoopHost::new()) as Rc<dyn pyrt::HostApi>)
}

fn workflow_for(target: &CatalogTarget, model: faultdsl::FaultModel) -> Workflow {
    Workflow::new(
        target.sources.clone(),
        target.workload.clone(),
        model,
        noop_factory(),
        WorkflowConfig::default(),
    )
    .unwrap_or_else(|e| panic!("workflow for {}: {e}", target.name))
}

#[test]
fn every_corpus_model_compiles_and_matches_a_catalog_site() {
    for entry in default_corpus() {
        entry
            .model
            .compile()
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", entry.model.name));
        let mut sites = 0usize;
        for target in default_catalog() {
            if !entry.applies_to_target(&target) {
                continue;
            }
            sites += workflow_for(&target, entry.model.clone()).scan().len();
        }
        assert!(
            sites >= 1,
            "model {} matched no injection site on any applicable target",
            entry.model.name
        );
    }
}

#[test]
fn corpus_mutants_parse_prepare_and_import_under_both_engines() {
    for entry in default_corpus() {
        for target in default_catalog() {
            if !entry.applies_to_target(&target) {
                continue;
            }
            let workflow = workflow_for(&target, entry.model.clone());
            let points = workflow.scan();
            let Some(point) = points.first() else {
                continue;
            };
            let mutants = workflow
                .mutant_sources(point)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", target.name, entry.model.name));
            for mutant in &mutants {
                let module = pysrc::parse_module(&mutant.text, &mutant.import_name)
                    .unwrap_or_else(|e| {
                        panic!(
                            "{}/{} mutant {} does not parse: {e}\n{}",
                            target.name, entry.model.name, mutant.import_name, mutant.text
                        )
                    });
                // Prepare (the scope-resolution pass both engines share).
                pyrt::prepare::prepare(Arc::new(module.clone()));
                // Import the mutated module under each engine: runs its
                // top level (class/function definitions) through the
                // full prepare→execute path.
                for engine in [Engine::TreeWalk, Engine::Bytecode] {
                    let mut vm = Vm::new();
                    vm.set_engine(engine);
                    for source in &mutants {
                        let parsed =
                            pysrc::parse_module(&source.text, &source.import_name).unwrap();
                        vm.register_prepared_source(
                            &source.import_name,
                            pyrt::prepare::prepare(Arc::new(parsed)),
                        );
                    }
                    vm.import_module(&mutant.import_name).unwrap_or_else(|e| {
                        panic!(
                            "{}/{} mutant {} fails to import under {engine:?}: \
                             {}: {}\n{}",
                            target.name,
                            entry.model.name,
                            mutant.import_name,
                            e.class_name,
                            e.message,
                            mutant.text
                        )
                    });
                }
            }
        }
    }
}

#[test]
fn tag_restricted_models_hit_their_intended_site() {
    let corpus = default_corpus();
    let catalog = default_catalog();
    let sites = |model_name: &str, target_name: &str| -> usize {
        let entry = corpus.iter().find(|m| m.model.name == model_name).unwrap();
        let target = catalog.iter().find(|t| t.name == target_name).unwrap();
        workflow_for(target, entry.model.clone()).scan().len()
    };
    assert!(sites("stale-read-amplifier", "kvstore") >= 1);
    assert!(sites("redelivery-storm", "broker") >= 1);
    assert!(sites("retry-starvation", "microsvc") >= 1);
}

/// `text` inside `blocks` nested `if` blocks: every statement of it sits
/// `blocks` levels deeper than it did.
fn inside_blocks(text: &str, blocks: usize) -> String {
    let mut out: String = (0..blocks)
        .map(|i| format!("{}if 1:\n", " ".repeat(i)))
        .collect();
    for line in text.lines() {
        out += &format!("{}{line}\n", " ".repeat(blocks));
    }
    out
}

/// How many of the parser's `MAX_NESTING` levels `text` uses: the
/// limit less the most blocks it still parses inside.
fn nesting(text: &str) -> usize {
    let parses = |blocks| pysrc::parse_module(&inside_blocks(text, blocks), "n.py").is_ok();
    assert!(parses(0), "{text}");
    let (mut fits, mut fails) = (0, MAX_NESTING + 1);
    while fails - fits > 1 {
        let mid = (fits + fails) / 2;
        if parses(mid) {
            fits = mid;
        } else {
            fails = mid;
        }
    }
    MAX_NESTING - fits
}

#[test]
fn catalog_and_corpus_sources_nest_far_below_the_parser_limit() {
    let mut deepest = (0, String::new());
    let mut measure = |what: String, text: &str| {
        let levels = nesting(text);
        if levels > deepest.0 {
            deepest = (levels, what);
        }
    };
    for target in default_catalog() {
        for (name, text) in &target.sources {
            measure(format!("{}/{name}", target.name), text);
        }
        measure(format!("{}/workload", target.name), &target.workload);
    }
    for entry in default_corpus() {
        for target in default_catalog() {
            if !entry.applies_to_target(&target) {
                continue;
            }
            let workflow = workflow_for(&target, entry.model.clone());
            let Some(point) = workflow.scan().into_iter().next() else {
                continue;
            };
            for mutant in workflow.mutant_sources(&point).unwrap() {
                let what = format!("{} mutant of {}", entry.model.name, mutant.import_name);
                measure(what, &mutant.text);
            }
        }
    }
    eprintln!("deepest nesting: {} of {MAX_NESTING} levels, in {}", deepest.0, deepest.1);
    assert!(
        (1..=MAX_NESTING / 10).contains(&deepest.0),
        "{} levels in {}",
        deepest.0,
        deepest.1
    );
}
