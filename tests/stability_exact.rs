//! Differential test of the closed-form weight-stability intervals
//! (Fig 8) against a brute-force reference: a fine outward scan of the
//! target weight over `[0, 1]` plus bisection of both boundaries, built
//! only on the public `EvalContext` API.
//!
//! The reference probes the scores with the same rescaling rule and the
//! same floating-point operations as the kernel's reference ranking, so
//! the two agree on tie order. They can differ only by the scan's
//! bisection error, `step / 2^20 ≈ 1e-10` at resolution 10 000.

use maut::{EvalContext, ObjectiveId, ORDERING_EPS};
use maut_sense::{stability, StabilityMode};

/// Scan steps over `[0, 1]`.
const RESOLUTION: usize = 10_000;
/// Bisection rounds per boundary.
const BISECTIONS: usize = 20;
/// Largest tolerated gap between the exact and the scanned endpoints.
const TOL: f64 = 1e-6;

const MODES: [StabilityMode; 2] = [StabilityMode::BestAlternative, StabilityMode::FullRanking];

/// Average scores when `target`'s normalized average weight is forced to
/// `w`, its siblings rescaled proportionally (evenly when the target held
/// all of the group's mass).
struct Probe<'a> {
    ctx: &'a EvalContext,
    target: ObjectiveId,
    /// `(attribute index, root-exclusive path from the root down)`.
    leaves: Vec<(usize, Vec<usize>)>,
    /// Band midpoints, alternatives × attributes, read off the model so
    /// the reference shares no storage with the kernel.
    avg: Vec<Vec<f64>>,
}

impl<'a> Probe<'a> {
    fn new(ctx: &'a EvalContext, target: ObjectiveId) -> Probe<'a> {
        let tree = &ctx.model().tree;
        let leaves = tree
            .leaves_under(tree.root())
            .into_iter()
            .map(|leaf| {
                let attr = tree.get(leaf).attribute.expect("leaf").index();
                let path = tree.path_to(leaf)[1..]
                    .iter()
                    .map(|id| id.index())
                    .collect();
                (attr, path)
            })
            .collect();
        Probe {
            ctx,
            target,
            leaves,
            avg: ctx.model().avg_utility_matrix(),
        }
    }

    fn scores(&self, w: f64) -> Vec<f64> {
        let tree = &self.ctx.model().tree;
        let base = self.ctx.node_averages();
        let mut node = base.to_vec();
        node[self.target.index()] = w;
        let sibs = tree.siblings(self.target);
        let rest: f64 = sibs
            .iter()
            .filter(|s| **s != self.target)
            .map(|s| base[s.index()])
            .sum();
        for s in sibs.iter().filter(|s| **s != self.target) {
            node[s.index()] = if rest > 1e-12 {
                base[s.index()] * (1.0 - w) / rest
            } else {
                (1.0 - w) / (sibs.len() - 1).max(1) as f64
            };
        }
        let mut flat = vec![0.0; self.ctx.model().num_attributes()];
        for (attr, path) in &self.leaves {
            let mut p = 1.0;
            for &n in path {
                p *= node[n];
            }
            flat[*attr] = p;
        }
        self.avg
            .iter()
            .map(|row| row.iter().zip(&flat).map(|(u, w)| u * w).sum())
            .collect()
    }
}

fn ranking_of(scores: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    idx
}

fn criterion_holds(reference: &[usize], scores: &[f64], mode: StabilityMode) -> bool {
    match mode {
        StabilityMode::BestAlternative => {
            let best = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            scores[reference[0]] >= best - ORDERING_EPS
        }
        StabilityMode::FullRanking => reference
            .windows(2)
            .all(|p| scores[p[0]] >= scores[p[1]] - ORDERING_EPS),
    }
}

/// The reference interval: scan outward from the current weight, then
/// bisect each boundary that stopped short of the range's edge.
fn scanned_interval(ctx: &EvalContext, target: ObjectiveId, mode: StabilityMode) -> (f64, f64) {
    let probe = Probe::new(ctx, target);
    let current = ctx.node_averages()[target.index()];
    let reference = ranking_of(&probe.scores(current));
    let holds = |w: f64| criterion_holds(&reference, &probe.scores(w), mode);

    let step = 1.0 / RESOLUTION as f64;
    let mut lo = current;
    while lo - step >= -1e-12 && holds((lo - step).max(0.0)) {
        lo = (lo - step).max(0.0);
    }
    let mut hi = current;
    while hi + step <= 1.0 + 1e-12 && holds((hi + step).min(1.0)) {
        hi = (hi + step).min(1.0);
    }
    if lo > 0.0 {
        let mut bad = (lo - step).max(0.0);
        for _ in 0..BISECTIONS {
            let mid = (bad + lo) / 2.0;
            if holds(mid) {
                lo = mid;
            } else {
                bad = mid;
            }
        }
    }
    if hi < 1.0 {
        let mut bad = (hi + step).min(1.0);
        for _ in 0..BISECTIONS {
            let mid = (bad + hi) / 2.0;
            if holds(mid) {
                hi = mid;
            } else {
                bad = mid;
            }
        }
    }
    (lo, hi)
}

/// Check every non-root objective of `ctx` in both modes; returns the
/// number of intervals compared.
fn check_against_scan(label: &str, ctx: &EvalContext) -> usize {
    let mut checked = 0;
    for mode in MODES {
        for r in stability::all_stability_intervals_ctx(ctx, mode) {
            let key = &ctx.model().tree.get(r.objective).key;
            let (lo, hi) = scanned_interval(ctx, r.objective, mode);
            assert!(
                (r.lo - lo).abs() <= TOL && (r.hi - hi).abs() <= TOL,
                "{label} {key} {mode:?}: exact [{}, {}] vs scan [{lo}, {hi}] (current {})",
                r.lo,
                r.hi,
                r.current
            );
            assert!(0.0 <= r.lo && r.lo <= r.current && r.current <= r.hi && r.hi <= 1.0);
            checked += 1;
        }
    }
    checked
}

#[test]
fn exact_intervals_match_scan_on_the_paper_model() {
    let ctx = EvalContext::new(neon_reuse::paper_model().model).expect("paper model is valid");
    assert_eq!(
        check_against_scan("paper", &ctx),
        2 * (ctx.model().tree.len() - 1)
    );
}

/// Two sizes × three seeds of one generator family.
fn check_family(family: gmaa_gen::Family) {
    let mut checked = 0;
    for (alternatives, attributes) in [(6, 4), (12, 6)] {
        for seed in 1..=3 {
            let cfg = gmaa_gen::GenConfig::preset(family, alternatives, attributes, seed);
            let ctx = EvalContext::new(gmaa_gen::generate(&cfg)).expect("generated model");
            checked += check_against_scan(&cfg.label(), &ctx);
        }
    }
    assert!(checked >= 2 * 3 * 2 * 4, "only {checked} intervals");
}

#[test]
fn exact_intervals_match_scan_flat() {
    check_family(gmaa_gen::Family::Flat);
}

#[test]
fn exact_intervals_match_scan_deep() {
    check_family(gmaa_gen::Family::Deep);
}

#[test]
fn exact_intervals_match_scan_mixed() {
    check_family(gmaa_gen::Family::Mixed);
}

#[test]
fn exact_intervals_match_scan_near_degenerate() {
    check_family(gmaa_gen::Family::NearDegenerate);
}

#[test]
fn exact_intervals_match_scan_frontrunner_heavy() {
    check_family(gmaa_gen::Family::FrontrunnerHeavy);
}

#[test]
fn tie_at_current_weight_in_full_ranking_mode() {
    use maut::prelude::*;
    // Three equally weighted attributes, so every current weight is 1/3.
    // The twins are identical; `flat` ties with them exactly at 1/3 on x.
    let mut b = DecisionModelBuilder::new("ties");
    let x = b.discrete_attribute("x", "X", &["l", "m", "h"]);
    let y = b.discrete_attribute("y", "Y", &["l", "m", "h"]);
    let z = b.discrete_attribute("z", "Z", &["l", "m", "h"]);
    let third = Interval::point(1.0 / 3.0);
    b.attach_attributes_to_root(&[(x, third), (y, third), (z, third)]);
    let twin = vec![Perf::level(2), Perf::level(0), Perf::level(1)];
    b.alternative("twin-a", twin.clone());
    b.alternative("twin-b", twin);
    b.alternative("flat", vec![Perf::level(1); 3]);
    let ctx = EvalContext::new(b.build().expect("valid model")).expect("valid model");

    check_against_scan("ties", &ctx);
    let x_id = ctx.model().tree.find("x").expect("x");
    let r = stability::stability_interval_ctx(&ctx, x_id, StabilityMode::FullRanking);
    assert!((r.current - 1.0 / 3.0).abs() < 1e-12, "{r:?}");
    // The crossing sits at the current weight, so the stable side ends
    // there (up to the ordering tolerance) and the other reaches an edge.
    let pinned_below = r.current - r.lo < 1e-6 && r.hi == 1.0;
    let pinned_above = r.hi - r.current < 1e-6 && r.lo == 0.0;
    assert!(pinned_below || pinned_above, "{r:?}");
}
