//! Everything the interpreter runs was prepared: every `Name` and
//! `Attribute` node of every shipped source, rendered mutant, workload
//! and override has a resolution in its prepared table, and every
//! `def`, `lambda` and `class` has a prototype. Both engines rely on it
//! — they read what `pyrt::prepare` recorded and raise an internal
//! error for anything it did not.
//!
//! What was prepared is pinned too: each prepared module is digested —
//! every resolution in its table, and each prototype's name, params,
//! slots, `global` names and frame kind — with node ids replaced by
//! their rank among the ids of the trees prepared (as `frontend_pins`
//! does), and compared with digests recorded before the prepare pass
//! found a scope's bindings in one walk. On a deliberate change of what
//! `prepare` records, the failure prints the new table.

use injector::MutationMode;
use profipy::case_study::{campaign_a, campaign_b, campaign_c};
use profipy::workflow::HostFactory;
use pyrt::prepare::{prepare, NameRes, NameTable, PreparedModule};
use pyrt::FuncProto;
use pysrc::ast::{ExprKind, Stmt, StmtKind};
use pysrc::visit::{child_blocks, walk_exprs};
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
        walk_exprs(stmt, &mut |e| match &e.kind {
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
        for block in child_blocks(stmt) {
            checked += assert_scopes(what, block, protos);
        }
    }
    checked
}

/// Asserts `text` prepares fully; returns how many nodes it checked
/// and the prepared module's digest.
fn assert_text_prepares(what: &str, text: &str) -> (usize, u64) {
    let module = pysrc::parse_module(text, what).unwrap_or_else(|e| panic!("{what}: {e}"));
    let prepared = prepare(Arc::new(module));
    (assert_module(what, &prepared), prepared_digest(&prepared))
}

fn assert_module(what: &str, prepared: &PreparedModule) -> usize {
    let table = &prepared.module_proto.table;
    assert_resolved(what, &prepared.module.body, table, &prepared.protos)
}

/// Asserts an override is fully prepared: the base module it shares
/// and the scopes it resolved in a table of their own.
fn assert_override(what: &str, prepared: &PreparedModule) {
    assert!(assert_module(what, prepared) > 0);
    let base = &prepared.module_proto.table;
    let checked: usize = own_protos(prepared)
        .map(|p| assert_resolved(what, &p.body, &p.table, &prepared.protos))
        .sum();
    assert!(checked > 0, "{what}: nothing of the override's own");
    assert!(prepared.protos.values().any(|p| Arc::ptr_eq(&p.table, base)));
}

/// The prototypes not resolved in the module's own table: an
/// override's `def` and the scopes nested in it.
fn own_protos(prepared: &PreparedModule) -> impl Iterator<Item = &Arc<FuncProto>> {
    let base = &prepared.module_proto.table;
    prepared
        .protos
        .values()
        .filter(move |p| !Arc::ptr_eq(&p.table, base))
}

/// Every statement and expression id under `body`, nested scopes
/// included.
fn collect_ids(body: &[Stmt], ids: &mut Vec<u32>) {
    fn stmt_ids(stmt: &Stmt, ids: &mut Vec<u32>) {
        ids.push(stmt.id.0);
        for block in child_blocks(stmt) {
            for s in block {
                stmt_ids(s, ids);
            }
        }
    }
    for stmt in body {
        walk_exprs(stmt, &mut |e| ids.push(e.id.0));
        stmt_ids(stmt, ids);
    }
}

/// The resolutions `table` holds for the expressions under `body`, one
/// line each, ids as ranks.
fn table_lines(body: &[Stmt], table: &NameTable, rank: &dyn Fn(u32) -> usize, out: &mut String) {
    for stmt in body {
        walk_exprs(stmt, &mut |e| {
            let res = table.res(e.id);
            if matches!(res, NameRes::Unprepared) {
                return;
            }
            out.push_str(&format!("{} {res:?}", rank(e.id.0)));
            let kw = (0..).map_while(|i| table.kw_name(e.id, i));
            for name in kw {
                out.push_str(&format!(" {name}"));
            }
            out.push('\n');
        });
    }
}

/// The digest of what `prepare` recorded for one module (see the
/// module docs).
fn prepared_digest(prepared: &PreparedModule) -> u64 {
    let mut ids = Vec::new();
    collect_ids(&prepared.module.body, &mut ids);
    for proto in own_protos(prepared) {
        collect_ids(&proto.body, &mut ids);
    }
    ids.sort_unstable();
    ids.dedup();
    let rank = |id: u32| ids.binary_search(&id).expect("a prepared node's id");
    let mut out = String::new();
    let table = &prepared.module_proto.table;
    table_lines(&prepared.module.body, table, &rank, &mut out);
    let mut protos: Vec<_> = prepared.protos.iter().collect();
    protos.sort_by_key(|(id, _)| rank(**id));
    for (id, p) in protos {
        let own_table = !Arc::ptr_eq(&p.table, table);
        out.push_str(&format!(
            "proto {} {} params {:?} slots {:?} globals {:?} dynamic {} own table {own_table}\n",
            rank(*id),
            p.name,
            p.params,
            p.slots,
            p.global_decls,
            p.dynamic,
        ));
        if own_table {
            table_lines(&p.body, &p.table, &rank, &mut out);
        }
    }
    jsonlite::stable_hash64(out.as_bytes())
}

/// Panics with the computed table unless it equals `pinned`.
fn assert_pinned(computed: &[(String, u64)], pinned: &[(&str, u64)]) {
    let matches = computed.len() == pinned.len()
        && computed
            .iter()
            .zip(pinned)
            .all(|((name, digest), (pinned_name, pinned))| name == pinned_name && digest == pinned);
    if !matches {
        let table: String = computed
            .iter()
            .map(|(name, digest)| format!("    ({name:?}, 0x{digest:016x}),\n"))
            .collect();
        panic!("what prepare records moved; computed table:\n{table}");
    }
}

fn noop() -> HostFactory {
    Arc::new(|_| Rc::new(pyrt::NoopHost::new()) as Rc<dyn pyrt::HostApi>)
}

#[test]
fn every_shipped_source_mutant_and_workload_is_fully_prepared() {
    let catalog = default_catalog();
    let mut texts: Vec<(String, &str)> = Vec::new();
    for target in &catalog {
        for (name, text) in &target.sources {
            texts.push((format!("{}/{name}", target.name), text));
        }
        texts.push((format!("{}/workload", target.name), &target.workload));
    }
    texts.push(("python-etcd".into(), targets::CLIENT_SOURCE));
    texts.push(("basic workload".into(), targets::WORKLOAD_BASIC));
    texts.push(("quickstart workload".into(), targets::WORKLOAD_QUICKSTART));
    let (mut computed, mut checked) = (Vec::new(), 0);
    for (what, text) in texts {
        let (nodes, digest) = assert_text_prepares(&what, text);
        checked += nodes;
        computed.push((format!("source {what}"), digest));
    }

    let mut matrix = Matrix::new(default_catalog(), default_corpus());
    matrix.sample_per_cell = 0;
    let (mut mutants, mut overrides) = (0, 0);
    for mode in [MutationMode::Direct, MutationMode::Triggered] {
        for mut cell in matrix.cells() {
            cell.spec.mode = mode;
            let workflow = cell
                .spec
                .build_workflow(noop(), sandbox::ParallelExecutor::default())
                .expect("cell builds");
            let (mut text_digests, mut override_digests) = (Vec::new(), Vec::new());
            for point in &workflow.scan() {
                let mutant = workflow.render_mutant(point).expect("renders");
                let mutated = mutant
                    .sources
                    .iter()
                    .find(|s| s.import_name == point.module)
                    .expect("the mutated module is among the sources");
                let what = format!("{}/{} {mode:?} point {}", cell.target, cell.model, point.id);
                let (nodes, digest) = assert_text_prepares(&what, &mutated.text);
                checked += nodes;
                text_digests.push(digest);
                mutants += 1;
                override_digests.push(match &mutant.prepared {
                    Some(prepared) => {
                        assert_override(&what, prepared);
                        overrides += 1;
                        prepared_digest(prepared)
                    }
                    None => 0,
                });
            }
            let cell = format!("{}/{} {mode:?}", cell.target, cell.model);
            computed.push((
                format!("mutants {cell}"),
                jsonlite::combine_hash64(&text_digests),
            ));
            computed.push((
                format!("overrides {cell}"),
                jsonlite::combine_hash64(&override_digests),
            ));
        }
    }
    assert!(mutants >= 500, "27 cells x 2 modes: {mutants} mutants");
    assert!(overrides >= 500, "{overrides} of {mutants} mutants overridden");
    assert!(checked >= 10_000, "{checked} nodes checked");
    assert_pinned(&computed, PINNED_CATALOG);
}

#[test]
fn every_case_study_override_is_fully_prepared() {
    let mut computed = Vec::new();
    for campaign in [campaign_a(), campaign_b(), campaign_c()] {
        let workflow = &campaign.workflow;
        let points = workflow.scan();
        let plan = workflow.plan(&points, &campaign.filter);
        assert!(!plan.entries.is_empty(), "{}: a planned point", campaign.name);
        let mut digests = Vec::new();
        for point in &plan.entries {
            let mutant = workflow.render_mutant(point).expect("renders");
            let prepared = mutant.prepared.expect("a planned window lies under a def");
            assert_override(&format!("{} point {}", campaign.name, point.id), &prepared);
            digests.push(prepared_digest(&prepared));
        }
        computed.push((
            format!("overrides {}", campaign.name),
            jsonlite::combine_hash64(&digests),
        ));
    }
    assert_pinned(&computed, PINNED_CASE_STUDY);
}

/// Recorded at the parent commit of the one-walk `ScopeFacts` pass.
const PINNED_CATALOG: &[(&str, u64)] = &[
    ("source kvstore/kvstore", 0x93e60c42decffbda),
    ("source kvstore/workload", 0x63aac40e85fa7a22),
    ("source broker/broker", 0x813be4c84d4b41f0),
    ("source broker/workload", 0x175462500296c76c),
    ("source microsvc/microsvc", 0xbe545db2631e67e6),
    ("source microsvc/workload", 0x7559de1506096685),
    ("source python-etcd/etcd", 0x7164a159af0914d1),
    ("source python-etcd/workload", 0xa1f897c6dbcd078b),
    ("source python-etcd", 0x7164a159af0914d1),
    ("source basic workload", 0xa1f897c6dbcd078b),
    ("source quickstart workload", 0x8644e23856318a2c),
    ("mutants kvstore/exception-storm Direct", 0x1c882c4a6db8ca2b),
    ("overrides kvstore/exception-storm Direct", 0x8e788952a89588f0),
    ("mutants kvstore/resource-hog Direct", 0xda7cf665f73e5d6e),
    ("overrides kvstore/resource-hog Direct", 0xf91ca9939488959f),
    ("mutants kvstore/latency-injection Direct", 0x52784a02f7a57a16),
    ("overrides kvstore/latency-injection Direct", 0x75ffd3cc3675d831),
    ("mutants kvstore/value-corruption Direct", 0xfd40755cfcf518af),
    ("overrides kvstore/value-corruption Direct", 0x4b3e267aba31e985),
    ("mutants kvstore/off-by-one Direct", 0x626890a11e7230e9),
    ("overrides kvstore/off-by-one Direct", 0x8cdbf3da1fa44c26),
    ("mutants kvstore/inverted-condition Direct", 0x61f10fa38d84f846),
    ("overrides kvstore/inverted-condition Direct", 0xd1d7ba414029304b),
    ("mutants kvstore/stale-read-amplifier Direct", 0x8f9d3dd698e0af93),
    ("overrides kvstore/stale-read-amplifier Direct", 0x56ba7a722e69cf77),
    ("mutants broker/exception-storm Direct", 0x40b6c2e932389897),
    ("overrides broker/exception-storm Direct", 0x1fa7c84152531229),
    ("mutants broker/resource-hog Direct", 0x6ea2adb12c1646d4),
    ("overrides broker/resource-hog Direct", 0xce86d5f393b7ec5f),
    ("mutants broker/latency-injection Direct", 0x63497e801683989f),
    ("overrides broker/latency-injection Direct", 0xf0f88158c6ca5433),
    ("mutants broker/value-corruption Direct", 0x9c4cb2a179c1baf0),
    ("overrides broker/value-corruption Direct", 0xc49eaeddc2a307e5),
    ("mutants broker/off-by-one Direct", 0xaf26b1a41fe633ee),
    ("overrides broker/off-by-one Direct", 0xec185989b547f8e5),
    ("mutants broker/inverted-condition Direct", 0x805ff709df5d7463),
    ("overrides broker/inverted-condition Direct", 0xe8596b80896676b8),
    ("mutants broker/redelivery-storm Direct", 0x4868588671500a00),
    ("overrides broker/redelivery-storm Direct", 0xcb7bf8ee61528a6c),
    ("mutants microsvc/exception-storm Direct", 0x14da0ba7d5462001),
    ("overrides microsvc/exception-storm Direct", 0x9588fe45aed375b1),
    ("mutants microsvc/resource-hog Direct", 0x0d55af77de3b53d2),
    ("overrides microsvc/resource-hog Direct", 0x8b07d64e8432776f),
    ("mutants microsvc/latency-injection Direct", 0xbfcb37b3538e815a),
    ("overrides microsvc/latency-injection Direct", 0x9d499558335ad549),
    ("mutants microsvc/value-corruption Direct", 0x9dab2611807c7471),
    ("overrides microsvc/value-corruption Direct", 0xa5e79a342974a2ac),
    ("mutants microsvc/off-by-one Direct", 0x2645dfab1f09c369),
    ("overrides microsvc/off-by-one Direct", 0xebade1d682ad8173),
    ("mutants microsvc/inverted-condition Direct", 0xee47553848502ccb),
    ("overrides microsvc/inverted-condition Direct", 0xb4dd88904582d10b),
    ("mutants microsvc/retry-starvation Direct", 0x7e0208641b6653fb),
    ("overrides microsvc/retry-starvation Direct", 0x6d14a79a727604c4),
    ("mutants python-etcd/exception-storm Direct", 0x5d0fcf796c033cdf),
    ("overrides python-etcd/exception-storm Direct", 0xfafca5aebf387d98),
    ("mutants python-etcd/resource-hog Direct", 0x1c29894e0c0e8e5f),
    ("overrides python-etcd/resource-hog Direct", 0xfb81b8106482f9bd),
    ("mutants python-etcd/latency-injection Direct", 0xa200615533e4a895),
    ("overrides python-etcd/latency-injection Direct", 0x6dce5b7c5d058fc6),
    ("mutants python-etcd/value-corruption Direct", 0x7775ad26050737e5),
    ("overrides python-etcd/value-corruption Direct", 0xd60d2bac856e5dfb),
    ("mutants python-etcd/off-by-one Direct", 0xcbf29ce484222325),
    ("overrides python-etcd/off-by-one Direct", 0xcbf29ce484222325),
    ("mutants python-etcd/inverted-condition Direct", 0x5f00bb1d37d0f78b),
    ("overrides python-etcd/inverted-condition Direct", 0x545455de95594252),
    ("mutants kvstore/exception-storm Triggered", 0xb40e0e76cecf59b0),
    ("overrides kvstore/exception-storm Triggered", 0xb95d619d8a8eb7d4),
    ("mutants kvstore/resource-hog Triggered", 0x081cbdcef7f8d0c5),
    ("overrides kvstore/resource-hog Triggered", 0xae93dd04f11bab35),
    ("mutants kvstore/latency-injection Triggered", 0x9b3b889a920c738d),
    ("overrides kvstore/latency-injection Triggered", 0x4c5900ff43e999ac),
    ("mutants kvstore/value-corruption Triggered", 0xeaa81d6caa663519),
    ("overrides kvstore/value-corruption Triggered", 0x3eeb02d7fb3b1c70),
    ("mutants kvstore/off-by-one Triggered", 0xe1a8a6cf9871862f),
    ("overrides kvstore/off-by-one Triggered", 0xb26732abdc1f5602),
    ("mutants kvstore/inverted-condition Triggered", 0x8220c5389d1733af),
    ("overrides kvstore/inverted-condition Triggered", 0xe3cb5382906288e4),
    ("mutants kvstore/stale-read-amplifier Triggered", 0xfa445b0ef4ca240b),
    ("overrides kvstore/stale-read-amplifier Triggered", 0xc734854723bcb4cf),
    ("mutants broker/exception-storm Triggered", 0x02f916167989ba58),
    ("overrides broker/exception-storm Triggered", 0x22f8bd4a6db0470d),
    ("mutants broker/resource-hog Triggered", 0x80cebca8fd729c80),
    ("overrides broker/resource-hog Triggered", 0xc9d20d0baaa3804a),
    ("mutants broker/latency-injection Triggered", 0xfb8f6b826d215df5),
    ("overrides broker/latency-injection Triggered", 0x33bfe141f167dcad),
    ("mutants broker/value-corruption Triggered", 0x5cce8d2833cfe80f),
    ("overrides broker/value-corruption Triggered", 0x89646bf15d9cf760),
    ("mutants broker/off-by-one Triggered", 0xdd1a9b610a0352b9),
    ("overrides broker/off-by-one Triggered", 0x6b90a294ceb19fa2),
    ("mutants broker/inverted-condition Triggered", 0x1a872a310acfcfed),
    ("overrides broker/inverted-condition Triggered", 0x420a18c953d2adce),
    ("mutants broker/redelivery-storm Triggered", 0xb96594fe85fa2e00),
    ("overrides broker/redelivery-storm Triggered", 0x2439669fb514ac7f),
    ("mutants microsvc/exception-storm Triggered", 0x2783200b7d0800dd),
    ("overrides microsvc/exception-storm Triggered", 0x64056451451ae9e1),
    ("mutants microsvc/resource-hog Triggered", 0x5bdf738a21ede144),
    ("overrides microsvc/resource-hog Triggered", 0x22a7384d0ef4e698),
    ("mutants microsvc/latency-injection Triggered", 0xb7309b164dac4cfe),
    ("overrides microsvc/latency-injection Triggered", 0x6be2aaee26cd1415),
    ("mutants microsvc/value-corruption Triggered", 0x2c616d48661b8b2e),
    ("overrides microsvc/value-corruption Triggered", 0xa5fd07601a28fc78),
    ("mutants microsvc/off-by-one Triggered", 0xafbc3553043893be),
    ("overrides microsvc/off-by-one Triggered", 0x736f54b0b453e6be),
    ("mutants microsvc/inverted-condition Triggered", 0x31622d3ec646d8cf),
    ("overrides microsvc/inverted-condition Triggered", 0x2ee77919e9ee9033),
    ("mutants microsvc/retry-starvation Triggered", 0x754f996598841c4c),
    ("overrides microsvc/retry-starvation Triggered", 0xe6093765d2782b63),
    ("mutants python-etcd/exception-storm Triggered", 0x693f5279e247f82d),
    ("overrides python-etcd/exception-storm Triggered", 0xff0f619590739634),
    ("mutants python-etcd/resource-hog Triggered", 0x025c896d69ca2d84),
    ("overrides python-etcd/resource-hog Triggered", 0xdd2da98ede62eb3e),
    ("mutants python-etcd/latency-injection Triggered", 0xdfcd6acbf3f25406),
    ("overrides python-etcd/latency-injection Triggered", 0x195aec5d4f27af0b),
    ("mutants python-etcd/value-corruption Triggered", 0x3c96b190b68afc05),
    ("overrides python-etcd/value-corruption Triggered", 0x91a958df7d5c840b),
    ("mutants python-etcd/off-by-one Triggered", 0xcbf29ce484222325),
    ("overrides python-etcd/off-by-one Triggered", 0xcbf29ce484222325),
    ("mutants python-etcd/inverted-condition Triggered", 0x7d09e104cc4e2b15),
    ("overrides python-etcd/inverted-condition Triggered", 0x373504dbc86b31c7),
];

/// Recorded at the same commit as [`PINNED_CATALOG`].
const PINNED_CASE_STUDY: &[(&str, u64)] = &[
    ("overrides campaign-A-external-apis", 0xa957280c75eca092),
    ("overrides campaign-B-wrong-inputs", 0xa511fb5189600a2c),
    ("overrides campaign-C-resource-hogs", 0xe3d5aeb8bef4863e),
];
