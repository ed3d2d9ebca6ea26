//! Front-end pins: the parser's output for every catalog source, and
//! for every mutant the matrix renders, digested and compared with the
//! digests recorded before the byte lexer and the move-only parser
//! landed (PR 13's parent commit). A digest covers the whole `Debug`
//! rendering of the AST — kinds, payloads, spans — with node ids
//! replaced by their rank among the module's ids, so it also pins the
//! order ids are allocated in (cached `scan-*.json` files and the dense
//! per-module name tables both depend on it) while staying independent
//! of what else the process parsed first.
//!
//! On a deliberate change of the parser's output, the failure message
//! prints the new table.

mod common;

use common::normalised;
use profipy::InjectionPlan;
use scenarios::{default_catalog, default_corpus, noop_catalog, Matrix};
use std::sync::Arc;

fn ast_digest(text: &str, name: &str) -> u64 {
    let module = pysrc::parse_module(text, name).unwrap_or_else(|e| panic!("{name}: {e}"));
    jsonlite::stable_hash64(normalised(&module).as_bytes())
}

/// `(what, digest)` for every catalog text and every matrix cell; a
/// cell's digest folds, in plan order, each mutant's text and the AST
/// it parses to.
fn computed() -> Vec<(String, u64)> {
    let mut table = Vec::new();
    for target in default_catalog() {
        let texts = target.sources.iter().map(|(n, t)| (n.as_str(), t));
        for (name, text) in texts.chain([("workload", &target.workload)]) {
            table.push((
                format!("source {}/{name}", target.name),
                ast_digest(text, name),
            ));
        }
    }
    let host: profipy::HostFactory =
        Arc::new(|_| std::rc::Rc::new(pyrt::NoopHost::new()) as std::rc::Rc<dyn pyrt::HostApi>);
    let mut matrix = Matrix::new(default_catalog(), default_corpus());
    matrix.sample_per_cell = 0; // every point of every cell
    for cell in matrix.cells() {
        let workflow = cell
            .spec
            .build_workflow(host.clone(), sandbox::ParallelExecutor::default())
            .expect("cell builds");
        let points = workflow.scan();
        let plan = InjectionPlan::build(&points, &cell.spec.filter.to_filter(), cell.spec.seed);
        let mut parts = vec![plan.len() as u64];
        for point in &plan.entries {
            for source in workflow.mutant_sources(point).expect("mutant renders") {
                parts.push(jsonlite::stable_hash64(source.text.as_bytes()));
                parts.push(ast_digest(&source.text, &source.import_name));
            }
        }
        table.push((
            format!("mutants {}/{}", cell.target, cell.model),
            jsonlite::combine_hash64(&parts),
        ));
    }
    table
}

/// Recorded at the parent commit of PR 13 (char lexer, cloning parser,
/// whole-module mutation).
const PINNED: &[(&str, u64)] = &[
    ("source kvstore/kvstore", 0x5f252474cc28f1de),
    ("source kvstore/workload", 0xfa01f7577506d63e),
    ("source broker/broker", 0xfac3605f7718cc49),
    ("source broker/workload", 0x82d017b9afad7061),
    ("source microsvc/microsvc", 0xb2e91b5532cf7a55),
    ("source microsvc/workload", 0x49efc1fe370fb442),
    ("source python-etcd/etcd", 0x7f5fdce82a699447),
    ("source python-etcd/workload", 0xef9f8bb3ec239af3),
    ("mutants kvstore/exception-storm", 0x28c77ffb67e933fb),
    ("mutants kvstore/resource-hog", 0x7ef0ae85807e0cf2),
    ("mutants kvstore/latency-injection", 0xc2142693253aa438),
    ("mutants kvstore/value-corruption", 0xd96ca16a963b5614),
    ("mutants kvstore/off-by-one", 0xbcbd024abd902f60),
    ("mutants kvstore/inverted-condition", 0x3af219e814bb5b72),
    ("mutants kvstore/stale-read-amplifier", 0x0195a1dfe8acc332),
    ("mutants broker/exception-storm", 0x1580726d62eaa862),
    ("mutants broker/resource-hog", 0xb117ac6bf5f8ba2b),
    ("mutants broker/latency-injection", 0x384e26380a1eeceb),
    ("mutants broker/value-corruption", 0x59099c999daf9eba),
    ("mutants broker/off-by-one", 0x4031d400b8afd631),
    ("mutants broker/inverted-condition", 0xe62e8bd333582414),
    ("mutants broker/redelivery-storm", 0x7e6e66aea82b9b46),
    ("mutants microsvc/exception-storm", 0xe0e3bf210c0fc477),
    ("mutants microsvc/resource-hog", 0x7daf410de155b160),
    ("mutants microsvc/latency-injection", 0xe49801a7140d4167),
    ("mutants microsvc/value-corruption", 0x176241596750336a),
    ("mutants microsvc/off-by-one", 0x00783ab99512e5f6),
    ("mutants microsvc/inverted-condition", 0xac14b6d16b3929f9),
    ("mutants microsvc/retry-starvation", 0x6cf14671e5e91c47),
    ("mutants python-etcd/exception-storm", 0x75922a7a7a073b3b),
    ("mutants python-etcd/resource-hog", 0x9f86230ba369ce2b),
    ("mutants python-etcd/latency-injection", 0x56fde50f7f6a007f),
    ("mutants python-etcd/value-corruption", 0xc1dd949a402ed09a),
    ("mutants python-etcd/off-by-one", 0xa8c7f832281a39c5),
    ("mutants python-etcd/inverted-condition", 0x1d6cac1f297eddca),
];

#[test]
fn catalog_and_matrix_mutant_asts_match_the_recorded_digests() {
    let computed = computed();
    let matches = computed.len() == PINNED.len()
        && computed
            .iter()
            .zip(PINNED)
            .all(|((name, digest), (pinned_name, pinned))| name == pinned_name && digest == pinned);
    if !matches {
        let table: String = computed
            .iter()
            .map(|(name, digest)| format!("    ({name:?}, 0x{digest:016x}),\n"))
            .collect();
        panic!("front-end output moved; computed table:\n{table}");
    }
}

#[test]
fn crlf_catalog_sources_parse_to_the_lf_asts() {
    for target in noop_catalog() {
        let texts = target.sources.iter().map(|(n, t)| (n.as_str(), t));
        for (name, text) in texts.chain([("workload", &target.workload)]) {
            assert!(text.contains("\n\n"), "{name}: no blank line to trip over");
            let lf = pysrc::parse_module(text, name).expect("catalog source parses");
            let crlf = pysrc::parse_module(&text.replace('\n', "\r\n"), name)
                .unwrap_or_else(|e| panic!("{}/{name} with CRLF line ends: {e}", target.name));
            assert_eq!(normalised(&crlf), normalised(&lf), "{}/{name}", target.name);
        }
    }
}
