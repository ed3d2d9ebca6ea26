//! P-2 (§V-D): large-project scan scaling.
//!
//! Paper: "ProFIPy takes about 20 min to identify 17488 injectable
//! locations using 120 different DSL patterns" on ~400 kLoC of
//! OpenStack. We scan synthetic corpora (DESIGN.md substitution) with
//! a ~120-pattern model and report how the injectable-location count
//! and scan time scale with corpus size — the claim being *linear*
//! scaling in LoC × patterns ("embarrassingly parallel" per §V-D).
//!
//! Output to compare with the paper: the one-shot table printed before
//! the timed scans (points found and wall time per corpus size, plus the
//! projected 400 kLoC time).
//!
//! Run: `cargo bench -p bench --bench scan_scaling`.

use bench::{corpus_loc, large_pattern_model};
use injector::Scanner;
use std::time::Instant;

fn one_shot_table(scanner: &Scanner) {
    eprintln!("P-2 scan-scaling table (paper: 400 kLoC / 120 patterns -> 17488 points, ~20 min):");
    let mut last_rate = None;
    for target_loc in [5_000usize, 20_000, 60_000] {
        let corpus = targets::generate_corpus(42, target_loc);
        let loc = corpus_loc(&corpus);
        let modules: Vec<pysrc::Module> = corpus
            .iter()
            .map(|(name, text)| pysrc::parse_module(text, name).expect("synth parses"))
            .collect();
        let t0 = Instant::now();
        let points = scanner.scan(&modules);
        let elapsed = t0.elapsed().as_secs_f64();
        let rate = elapsed / loc as f64;
        eprintln!(
            "  {loc:>7} LoC -> {:>6} points in {elapsed:>7.2}s ({:.1} us/LoC){}",
            points.len(),
            rate * 1e6,
            match last_rate {
                Some(prev) => format!(
                    "  [rate ratio vs previous: {:.2} — ~1.0 = linear]",
                    rate / prev
                ),
                None => String::new(),
            }
        );
        last_rate = Some(rate);
        if loc >= 60_000 {
            eprintln!(
                "  projected 400 kLoC scan: ~{:.1} min (paper: ~20 min on an 8-core Xeon)",
                rate * 400_000.0 / 60.0
            );
        }
    }
}

fn main() {
    let model = large_pattern_model();
    let specs = model.compile().expect("model compiles");
    eprintln!("P-2: {} DSL patterns (paper: 120)", specs.len());
    let scanner = Scanner::new(specs.clone());
    one_shot_table(&scanner);

    for target_loc in [2_000usize, 6_000] {
        let corpus = targets::generate_corpus(42, target_loc);
        let loc = corpus_loc(&corpus);
        let modules: Vec<pysrc::Module> = corpus
            .iter()
            .map(|(name, text)| pysrc::parse_module(text, name).expect("synth parses"))
            .collect();
        bench::time(&format!("scan_scaling/{loc}"), 10, || {
            scanner.scan(&modules)
        });
    }

    // Parse time feeds the same pipeline (the AST box of Fig. 2).
    let corpus = targets::generate_corpus(7, 20_000);
    bench::time("parse_corpus/20k_loc", 10, || {
        corpus
            .iter()
            .map(|(name, text)| pysrc::parse_module(text, name).expect("parses"))
            .collect::<Vec<_>>()
    });
}
