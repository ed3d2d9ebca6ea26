//! A tour of the fault-injection DSL (paper §III, Fig. 1).
//!
//! Parses the three specifications of Fig. 1 (MFC, MIFS, WPF), matches
//! them against OpenStack-flavoured snippets, and prints the mutated
//! code side by side — including the EDFI-style trigger-switchable
//! variant. Also demonstrates fault-model persistence (JSON, §IV-A).
//!
//! Run with: `cargo run --example dsl_tour`

use injector::{ModuleText, MutationMode, Mutator, Scanner};

const FIG1A_MFC: &str = r#"
change {
    $BLOCK{tag=b1; stmts=1,*}
    $CALL{name=delete_*}(...)
    $BLOCK{tag=b2; stmts=1,*}
} into {
    $BLOCK{tag=b1}
    $BLOCK{tag=b2}
}"#;

const FIG1B_MIFS: &str = r#"
change {
    if $EXPR{var=node}:
        $BLOCK{stmts=1,4}
        continue
} into {
}"#;

const FIG1C_WPF: &str = r#"
change {
    $CALL#c{name=utils.execute}(..., $STRING#s{val=*-*}, ...)
} into {
    $CALL#c(..., $CORRUPT($STRING#s), ...)
}"#;

const NEUTRON_SNIPPET: &str = r#"def release_port(context, port):
    subnet = context.lookup(port)
    delete_port(context, port)
    context.commit()
"#;

const NOVA_SNIPPET: &str = r#"def sync_nodes(nodes):
    for node in nodes:
        if not node:
            log_skip(node)
            continue
        provision(node)
"#;

const EXECVP_SNIPPET: &str = r#"def setup_firewall(table):
    utils.execute('iptables', '--append-rule', table)
    return True
"#;

fn demo(title: &str, dsl: &str, snippet: &str) {
    println!("=== {title} ===");
    println!("--- specification ---{dsl}\n");
    println!("--- target ---\n{snippet}");
    let spec = faultdsl::parse_spec(dsl, title).expect("Fig. 1 specs are valid");
    let module = pysrc::parse_module(snippet, "snippet.py").expect("snippets are valid");
    let scanner = Scanner::new(vec![spec.clone()]);
    let points = scanner.scan(std::slice::from_ref(&module));
    println!("--- {} injection point(s) found ---", points.len());
    for (mode, label) in [
        (MutationMode::Direct, "direct mutation"),
        (MutationMode::Triggered, "trigger-switchable mutation (EDFI-style, §IV-B)"),
    ] {
        let mutated = Mutator::new(mode)
            .render(&module, &ModuleText::of(&module), &spec, &points[0])
            .expect("point located");
        println!("--- {label} ---\n{}", mutated.text);
    }
}

fn main() {
    demo("Fig. 1a — Missing Function Call (MFC)", FIG1A_MFC, NEUTRON_SNIPPET);
    demo("Fig. 1b — Missing IF construct + statements (MIFS)", FIG1B_MIFS, NOVA_SNIPPET);
    demo("Fig. 1c — Wrong Parameter in Function Call (WPF)", FIG1C_WPF, EXECVP_SNIPPET);

    // Fault-model persistence (§IV-A).
    let model = faultdsl::predefined_models();
    let json = model.to_json();
    println!("=== predefined fault model ({} specs, {} bytes of JSON) ===", model.specs.len(), json.len());
    let restored = faultdsl::FaultModel::from_json(&json).expect("roundtrip");
    for s in &restored.specs {
        println!("  {:10} {}", s.name, s.description.lines().next().unwrap_or(""));
    }
}
