//! Golden regression test for the paper's case-study numbers.
//!
//! Snapshots the 23 × 14 evaluation table (Fig 6 min/avg/max per
//! alternative), the weight stability intervals (Fig 8, best-alternative
//! mode), and the non-dominated set (Section V) against
//! the checked-in fixture `tests/fixtures/paper_tables.txt`, so a future
//! refactor of the evaluation kernels cannot silently shift the paper's
//! numbers. Everything is rounded to six decimals — real regressions move
//! far more than rounding noise.
//!
//! To regenerate after an *intentional* numeric change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test paper_tables
//! ```

use maut::EvalContext;
use maut_sense::{dominance, stability, StabilityMode};
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/paper_tables.txt"
);

fn render_tables() -> String {
    let mut ctx = EvalContext::new(neon_reuse::paper_model().model).expect("paper model is valid");
    let mut out = String::new();

    out.push_str("# evaluation (Fig 6): alternative min avg max\n");
    let eval = ctx.evaluate();
    for (name, b) in eval.names().iter().zip(&eval.bounds) {
        writeln!(out, "{name}\t{:.6}\t{:.6}\t{:.6}", b.min, b.avg, b.max).expect("write");
    }

    out.push_str("\n# stability intervals (Fig 8): objective lo hi current\n");
    for r in stability::all_stability_intervals_ctx(&ctx, StabilityMode::BestAlternative) {
        let key = &ctx.model().tree.get(r.objective).key;
        writeln!(out, "{key}\t{:.6}\t{:.6}\t{:.6}", r.lo, r.hi, r.current).expect("write");
    }

    out.push_str("\n# non-dominated set (Section V)\n");
    for i in dominance::non_dominated_ctx(&ctx) {
        writeln!(out, "{}", ctx.model().alternatives[i]).expect("write");
    }
    out
}

#[test]
fn paper_tables_match_golden_fixture() {
    let rendered = render_tables();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &rendered).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run with UPDATE_GOLDEN=1 to create it");
    if rendered != golden {
        let first_diff = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map(|n| {
                format!(
                    "first differing line {}:\n  got:    {}\n  golden: {}",
                    n + 1,
                    rendered.lines().nth(n).unwrap_or(""),
                    golden.lines().nth(n).unwrap_or("")
                )
            })
            .unwrap_or_else(|| "line counts differ".to_string());
        panic!(
            "paper tables drifted from the golden fixture ({first_diff})\n\
             If the change is intentional, regenerate with UPDATE_GOLDEN=1."
        );
    }
}
