//! Everything the interpreter runs was prepared: every `Name` and
//! `Attribute` node of every shipped source, rendered mutant, workload
//! and case-study override has a resolution in its prepared table, and
//! every `def`, `lambda` and `class` has a prototype. Both engines rely
//! on it — they read what `pyrt::prepare` recorded and raise an
//! internal error for anything it did not.

use injector::MutationMode;
use profipy::case_study::{campaign_a, campaign_b, campaign_c};
use profipy::workflow::HostFactory;
use pyrt::prepare::{prepare, NameRes, NameTable, PreparedModule};
use pyrt::FuncProto;
use pysrc::ast::{ExprKind, Stmt, StmtKind};
use scenarios::{default_catalog, default_corpus, Matrix};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

type Protos = HashMap<u32, Arc<FuncProto>>;

/// Asserts every node of `body` that either engine resolves is in
/// `table` or `protos`; returns how many it checked.
fn assert_resolved(what: &str, body: &[Stmt], table: &NameTable, protos: &Protos) -> usize {
    let mut checked = 0;
    for stmt in body {
        pysrc::visit::walk_exprs(stmt, &mut |e| match &e.kind {
            ExprKind::Name(n) | ExprKind::Attribute { attr: n, .. } => {
                assert!(
                    !matches!(table.res(e.id), NameRes::Unprepared),
                    "{what}: '{n}' at {:?} has no resolution",
                    e.span
                );
                checked += 1;
            }
            ExprKind::Lambda { .. } => {
                assert!(
                    protos.contains_key(&e.id.0),
                    "{what}: lambda at {:?} has no prototype",
                    e.span
                );
                checked += 1;
            }
            _ => {}
        });
    }
    checked + assert_scopes(what, body, protos)
}

/// Asserts every `def` and `class` under `body` has a prototype.
fn assert_scopes(what: &str, body: &[Stmt], protos: &Protos) -> usize {
    let mut checked = 0;
    for stmt in body {
        if let StmtKind::FuncDef { name, .. } | StmtKind::ClassDef { name, .. } = &stmt.kind {
            assert!(
                protos.contains_key(&stmt.id.0),
                "{what}: '{name}' has no prototype"
            );
            checked += 1;
        }
        for block in pysrc::visit::child_blocks(stmt) {
            checked += assert_scopes(what, block, protos);
        }
    }
    checked
}

fn assert_text_prepares(what: &str, text: &str) -> usize {
    let module = pysrc::parse_module(text, what).unwrap_or_else(|e| panic!("{what}: {e}"));
    let prepared = prepare(Arc::new(module));
    assert_module(what, &prepared)
}

fn assert_module(what: &str, prepared: &PreparedModule) -> usize {
    let table = &prepared.module_proto.table;
    assert_resolved(what, &prepared.module.body, table, &prepared.protos)
}

fn noop() -> HostFactory {
    Arc::new(|_| Rc::new(pyrt::NoopHost::new()) as Rc<dyn pyrt::HostApi>)
}

#[test]
fn every_shipped_source_mutant_and_workload_is_fully_prepared() {
    let mut checked = 0;
    for target in default_catalog() {
        for (name, text) in &target.sources {
            checked += assert_text_prepares(&format!("{}/{name}", target.name), text);
        }
        checked += assert_text_prepares(&format!("{} workload", target.name), &target.workload);
    }
    checked += assert_text_prepares("python-etcd", targets::CLIENT_SOURCE);
    checked += assert_text_prepares("basic workload", targets::WORKLOAD_BASIC);
    checked += assert_text_prepares("quickstart workload", targets::WORKLOAD_QUICKSTART);

    let mut matrix = Matrix::new(default_catalog(), default_corpus());
    matrix.sample_per_cell = 0;
    let mut mutants = 0;
    for mode in [MutationMode::Direct, MutationMode::Triggered] {
        for mut cell in matrix.cells() {
            cell.spec.mode = mode;
            let workflow = cell
                .spec
                .build_workflow(noop(), sandbox::ParallelExecutor::default())
                .expect("cell builds");
            for point in &workflow.scan() {
                let sources = workflow.mutant_sources(point).expect("renders");
                let mutated = sources
                    .iter()
                    .find(|s| s.import_name == point.module)
                    .expect("the mutated module is among the sources");
                let what = format!("{}/{} {mode:?} point {}", cell.target, cell.model, point.id);
                checked += assert_text_prepares(&what, &mutated.text);
                mutants += 1;
            }
        }
    }
    assert!(mutants >= 500, "27 cells x 2 modes: {mutants} mutants");
    assert!(checked >= 10_000, "{checked} nodes checked");
}

#[test]
fn every_case_study_override_is_fully_prepared() {
    for campaign in [campaign_a(), campaign_b(), campaign_c()] {
        let workflow = &campaign.workflow;
        let points = workflow.scan();
        let plan = workflow.plan(&points, &campaign.filter);
        let point = plan.entries.first().expect("a planned point");
        let mutant = workflow.render_mutant(point).expect("renders");
        let prepared = mutant.prepared.expect("a planned window lies under a def");
        let what = format!("{} point {}", campaign.name, point.id);
        assert!(assert_module(&what, &prepared) > 0);
        // The override's own scopes resolve in a table of their own.
        let base = &prepared.module_proto.table;
        let checked: usize = prepared
            .protos
            .values()
            .filter(|p| !Arc::ptr_eq(&p.table, base))
            .map(|p| assert_resolved(&what, &p.body, &p.table, &prepared.protos))
            .sum();
        assert!(checked > 0, "{what}: nothing of the override's own");
    }
}
