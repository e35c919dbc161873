//! Byte-level pin of the Section V discard cycle.
//!
//! Every `gmaa-gen` family at three sizes (17, 40 and 120 alternatives,
//! so the rival blocks of the pairwise sweep are crossed) runs a seeded
//! edit history — `set_perf` edits with one `set_weight` in the middle,
//! which forces the incremental cycle onto its full-recompute fallback —
//! and after every step both the stateless `discard_cycle()` and the
//! cached `discard_cycle_incremental()` are serialized to JSON and
//! hashed with 64-bit FNV-1a. The digests are compared with the checked-in
//! fixture `tests/fixtures/discard_cycle_digests.txt`, so any change to
//! the interval sweep, the greedy kernel, the derivation passes or the LP
//! certification that moves a single bit of a verdict, slack or intensity
//! fails here.
//!
//! To regenerate after an *intentional* numeric change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test discard_cycle_digest
//! ```

use gmaa::{AnalysisEngine, DiscardCycle};
use gmaa_gen::{Family, GenConfig};
use maut::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/discard_cycle_digests.txt"
);

/// Sizes on both sides of, and well past, the 16-rival sweep block.
const SIZES: [usize; 3] = [17, 40, 120];
/// Edit steps per history: step `WEIGHT_STEP` is a `set_weight`, every
/// other step after the initial cycle a `set_perf`.
const STEPS: usize = 4;
const WEIGHT_STEP: usize = 3;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(cycle: &DiscardCycle) -> u64 {
    fnv1a(
        serde_json::to_string(cycle)
            .expect("cycle serializes")
            .as_bytes(),
    )
}

fn set_random_perf(rng: &mut StdRng, engine: &mut AnalysisEngine) {
    let alt = rng.random_range(0..engine.model().num_alternatives());
    let j = rng.random_range(0..engine.model().num_attributes());
    let perf = match &engine.model().attributes[j].scale {
        Scale::Discrete(s) => Perf::level(rng.random_range(0..s.len())),
        Scale::Continuous(c) => Perf::value(rng.random_range(c.min..=c.max)),
    };
    engine
        .set_perf(alt, AttributeId::from_index(j), perf)
        .expect("scale-valid edit");
}

/// Widen the first root child's weight interval — always feasible (the
/// sibling lows only fall and the highs only rise), and it invalidates
/// every pair at once.
fn set_weight(engine: &mut AnalysisEngine) {
    let model = engine.model();
    let objective = model.tree.get(model.tree.root()).children[0];
    let w = model.resolved_local_weights()[objective.index()];
    engine
        .set_weight(objective, Interval::new(w.lo() / 2.0, (w.hi() + 1.0) / 2.0))
        .expect("widening a feasible weight interval keeps it feasible");
}

fn render_digests() -> String {
    let mut out = String::from("# model step full incremental (FNV-1a of the DiscardCycle JSON)\n");
    for family in Family::ALL {
        for n in SIZES {
            let cfg = GenConfig::preset(family, n, 6, 11);
            let label = cfg.label();
            let mut engine = AnalysisEngine::new(gmaa_gen::generate(&cfg)).expect("valid");
            let mut rng = StdRng::seed_from_u64(n as u64 ^ 0xD16E);
            for step in 0..=STEPS {
                if step == WEIGHT_STEP {
                    set_weight(&mut engine);
                } else if step > 0 {
                    set_random_perf(&mut rng, &mut engine);
                }
                let full = digest(&engine.discard_cycle().expect("solver healthy"));
                let incr = digest(&engine.discard_cycle_incremental().expect("solver healthy"));
                writeln!(out, "{label}\t{step}\t{full:016x}\t{incr:016x}").expect("write");
            }
        }
    }
    out
}

#[test]
fn discard_cycles_match_digest_fixture() {
    let rendered = render_digests();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &rendered).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run with UPDATE_GOLDEN=1 to create it");
    for (got, want) in rendered.lines().zip(golden.lines()) {
        assert_eq!(got, want, "discard cycle digest drifted");
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "digest fixture has a different number of entries"
    );
}
