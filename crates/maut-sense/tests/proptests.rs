//! Property-based tests for the sensitivity analyses.

use maut::prelude::*;
use maut::utility::{DiscreteUtility, UtilityFunction};
use maut_sense::{
    dominance_intervals_ctx, IntervalMatrix, MonteCarlo, MonteCarloConfig, StabilityMode,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn ctx(m: &DecisionModel) -> EvalContext {
    EvalContext::new(m.clone()).expect("valid model")
}

fn model_strategy() -> impl Strategy<Value = DecisionModel> {
    (2usize..5, 2usize..7, 0u64..500).prop_map(|(n_attrs, n_alts, seed)| {
        let mut b = DecisionModelBuilder::new("prop");
        let base = 1.0 / n_attrs as f64;
        let mut pairs = Vec::new();
        for j in 0..n_attrs {
            let a = b.discrete_attribute(format!("a{j}"), format!("A{j}"), &["0", "1", "2", "3"]);
            b.set_utility(
                a,
                UtilityFunction::Discrete(DiscreteUtility::banded(4, 0.1)),
            );
            pairs.push((a, Interval::new(base * 0.6, (base * 1.4).min(1.0))));
        }
        b.attach_attributes_to_root(&pairs);
        let mut state = seed.wrapping_add(0x2545F4914F6CDD1D);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n_alts {
            let perfs: Vec<Perf> = (0..n_attrs)
                .map(|_| Perf::level((next() % 4) as usize))
                .collect();
            b.alternative(format!("alt{i}"), perfs);
        }
        b.build().expect("valid")
    })
}

proptest! {
    /// The stability interval always contains the current weight, lies in
    /// [0,1], and the full-ranking interval is nested in the best-alternative
    /// interval.
    #[test]
    fn stability_nesting(model in model_strategy()) {
        let target = model.tree.get(model.tree.root()).children[0];
        let c = ctx(&model);
        let best = maut_sense::stability_interval_ctx(&c, target, StabilityMode::BestAlternative);
        let full = maut_sense::stability_interval_ctx(&c, target, StabilityMode::FullRanking);
        prop_assert!(best.lo >= -1e-9 && best.hi <= 1.0 + 1e-9);
        prop_assert!(best.lo <= best.current + 1e-9 && best.current <= best.hi + 1e-9);
        prop_assert!(full.lo >= best.lo - 1e-6);
        prop_assert!(full.hi <= best.hi + 1e-6);
    }

    /// Dominance is irreflexive and antisymmetric; the non-dominated set is
    /// never empty and contains the avg-utility winner.
    #[test]
    fn dominance_structure(model in model_strategy()) {
        let mut c = ctx(&model);
        let m = maut_sense::dominance_matrix_ctx(&c);
        let _n = model.num_alternatives();
        for (i, row) in m.iter().enumerate() {
            prop_assert_eq!(row[i], maut_sense::DominanceOutcome::None);
            for (k, outcome) in row.iter().enumerate() {
                if *outcome == maut_sense::DominanceOutcome::Dominates {
                    prop_assert_eq!(m[k][i], maut_sense::DominanceOutcome::None,
                        "antisymmetry violated at ({}, {})", i, k);
                }
            }
        }
        let nd = maut_sense::non_dominated_ctx(&c);
        prop_assert!(!nd.is_empty());
        prop_assert!(nd.contains(&c.evaluate().best()));
    }

    /// Potential optimality: the set is non-empty, the avg winner is in it,
    /// and every potentially optimal alternative is non-dominated.
    #[test]
    fn potential_optimality_structure(model in model_strategy()) {
        let mut c = ctx(&model);
        let po = maut_sense::potentially_optimal_ctx(&c).expect("solver healthy");
        let nd: std::collections::BTreeSet<usize> =
            maut_sense::non_dominated_ctx(&c).into_iter().collect();
        prop_assert!(po.iter().any(|o| o.potentially_optimal));
        let best = c.evaluate().best();
        prop_assert!(po[best].potentially_optimal, "avg winner must be potentially optimal");
        // An alternative that can be best with strictly positive slack is
        // never dominated. (Slack ~0 means it can only *tie* for best, which
        // weak dominance permits.)
        for o in &po {
            if o.potentially_optimal && o.slack > 1e-6 {
                prop_assert!(
                    nd.contains(&o.alternative),
                    "{} strictly potentially optimal but dominated",
                    model.alternatives[o.alternative]
                );
            }
        }
    }

    /// Monte Carlo rank statistics are internally consistent.
    #[test]
    fn montecarlo_consistency(model in model_strategy(), seed in 0u64..100) {
        let result = MonteCarlo::new(MonteCarloConfig::Random, 200, seed).run_ctx(&ctx(&model));
        let n = model.num_alternatives() as f64;
        let mut mean_sum = 0.0;
        for s in &result.stats {
            prop_assert!(s.min >= 1 && s.max as usize <= model.num_alternatives());
            prop_assert!(s.min as f64 <= s.mean && s.mean <= s.max as f64);
            prop_assert!(s.times_best <= result.trials);
            mean_sum += s.mean;
        }
        // Mean ranks over all alternatives sum to n(n+1)/2 when no ties;
        // Min-tie ranking only lowers the sum.
        prop_assert!(mean_sum <= n * (n + 1.0) / 2.0 + 1e-6);
    }

    /// With degenerate (point) weight intervals, the elicited-intervals MC
    /// collapses to the deterministic average ranking.
    #[test]
    fn degenerate_intervals_are_deterministic(seed in 0u64..50) {
        let mut b = DecisionModelBuilder::new("degenerate");
        let x = b.discrete_attribute("x", "X", &["0", "1", "2", "3"]);
        let y = b.discrete_attribute("y", "Y", &["0", "1", "2", "3"]);
        b.attach_attributes_to_root(&[
            (x, Interval::point(0.5)),
            (y, Interval::point(0.5)),
        ]);
        b.alternative("hi", vec![Perf::level(3), Perf::level(2)]);
        b.alternative("lo", vec![Perf::level(1), Perf::level(0)]);
        let model = b.build().expect("valid");
        let mc = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 50, seed).run_ctx(&ctx(&model));
        prop_assert_eq!(mc.stats[0].min, 1);
        prop_assert_eq!(mc.stats[0].max, 1);
        prop_assert_eq!(mc.stats[1].min, 2);
    }
}

/// A model for the Monte Carlo kernel differential: `n_alts` alternatives
/// over `n_attrs` discrete attributes with `levels` of the level utilities
/// `0, 1, 0.95, ½, ½`. Duplicate rows and equal midpoints are common, and
/// from three levels on some certified pairs (`(1, 0)` over `(0, 0.95)`)
/// flip order just outside the box. One of six weight boxes:
///
/// - `0`: moderate intervals around the uniform weights;
/// - `1`: `1e-10`-wide intervals, just below the uniform weights;
/// - `2`: a box no normalized draw fits, so every draw takes the sampler's
///   clamp-and-renormalize fallback and leaves the box;
/// - `3`: every weight in `[0, 1]`;
/// - `4`: random intervals around the uniform weights;
/// - `5`: the first weight in `0.5 ± 0.005` and the others in
///   `[0, 1 / (n_attrs − 1)]`, a box that accepts about 1 sampler attempt
///   in 10–45 and keeps every draw inside it.
fn kernel_model(
    n_attrs: usize,
    n_alts: usize,
    levels: usize,
    box_kind: usize,
    seed: u64,
) -> DecisionModel {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
    let base = 1.0 / n_attrs as f64;
    let mut b = DecisionModelBuilder::new("kernel");
    let mut pairs = Vec::new();
    for j in 0..n_attrs {
        let names: Vec<String> = (0..levels).map(|l| l.to_string()).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let a = b.discrete_attribute(format!("a{j}"), format!("A{j}"), &names);
        let per_level = [0.0, 1.0, 0.95, 0.5, 0.5][..levels]
            .iter()
            .map(|&u| Interval::point(u))
            .collect();
        b.set_utility(
            a,
            UtilityFunction::Discrete(DiscreteUtility::new(per_level)),
        );
        let weight = match box_kind {
            0 => Interval::new(base * 0.6, (base * 1.4).min(1.0)),
            1 => Interval::new(base - 1e-10, base),
            2 if n_attrs == 1 => Interval::point(1.0),
            2 if j == 0 => Interval::point(0.5),
            2 => {
                let share = 1.0 / (n_attrs - 1) as f64;
                Interval::new(0.5 * share, 0.6 * share)
            }
            3 => Interval::new(0.0, 1.0),
            5 if n_attrs == 1 => Interval::point(1.0),
            5 if j == 0 => Interval::new(0.495, 0.505),
            5 => Interval::new(0.0, 1.0 / (n_attrs - 1) as f64),
            _ => {
                let lo = base * unit(next());
                Interval::new(lo, (base * (1.0 + 2.0 * unit(next()))).min(1.0))
            }
        };
        pairs.push((a, weight));
    }
    b.attach_attributes_to_root(&pairs);
    for i in 0..n_alts {
        let perfs: Vec<Perf> = (0..n_attrs)
            .map(|_| Perf::level((next() % levels as u64) as usize))
            .collect();
        b.alternative(format!("alt{i}"), perfs);
    }
    b.build().expect("valid")
}

fn kernel_config(kind: usize, n_attrs: usize, seed: u64) -> MonteCarloConfig {
    match kind {
        0 => MonteCarloConfig::Random,
        1 => {
            let shift = seed as usize % n_attrs;
            MonteCarloConfig::RankOrder((0..n_attrs).map(|j| (j + shift) % n_attrs).collect())
        }
        2 => {
            let split = 1 + seed as usize % n_attrs;
            let groups = vec![(0..split).collect(), (split..n_attrs).collect::<Vec<_>>()];
            MonteCarloConfig::PartialRankOrder(
                groups.into_iter().filter(|g| !g.is_empty()).collect(),
            )
        }
        _ => MonteCarloConfig::ElicitedIntervals,
    }
}

proptest! {
    /// The batched Monte Carlo kernel, which fixes the order of the pairs
    /// the weight polytope decides and compares only the rest, counts
    /// exactly the ranks of the scalar reference: on tie-heavy models,
    /// under every weight box of [`kernel_model`] (including `1e-10`-wide
    /// boxes and boxes whose every draw is a fallback outside the box),
    /// under all four simulation classes, with 1–80 alternatives and
    /// trial counts that are not a multiple of the 16-trial block.
    #[test]
    fn windowed_kernel_matches_scalar_reference(
        shape in (1usize..6, 1usize..81, 2usize..6),
        run in (1usize..300, 0u64..1_000_000),
    ) {
        let ((n_attrs, n_alts, levels), (trials, seed)) = (shape, run);
        // Every box under the elicited-interval class, which samples it;
        // the other three classes sample the whole simplex, so one box
        // serves them.
        let runs = (0..6).map(|b| (b, 3)).chain((0..3).map(|c| (0, c)));
        for (box_kind, config_kind) in runs {
            let model = kernel_model(n_attrs, n_alts, levels, box_kind, seed);
            let c = ctx(&model);
            let config = kernel_config(config_kind, n_attrs, seed);
            let mc = MonteCarlo::new(config, trials, seed);
            let reference = mc.run_scalar_ctx(&c);
            let batched = mc.run_ctx(&c);
            prop_assert_eq!(
                reference.rank_counts(),
                batched.rank_counts(),
                "box {} class {}",
                box_kind,
                config_kind
            );
        }
    }
}

/// The whole state of an interval matrix by bits: minima, intensity block
/// sums and dominator counts.
fn matrix_bits(m: &IntervalMatrix) -> (Vec<u64>, Vec<u64>, Vec<u32>) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
    (
        bits(m.minima()),
        bits(m.block_sums()),
        m.dominator_counts().to_vec(),
    )
}

/// A ranking by bits: alternative, rank and intensity bits.
fn ranking_bits(r: &[maut_sense::IntensityRank]) -> Vec<(usize, usize, u64)> {
    r.iter()
        .map(|x| (x.alternative, x.rank, x.intensity.to_bits()))
        .collect()
}

proptest! {
    /// The interval matrix's in-place update patches its derivation state
    /// (intensity block sums and dominator counts) to exactly what a fresh
    /// sweep fills: on tie-heavy models of 1, 15, 16, 17, 33 and 40
    /// alternatives (both sides of one and two 16-rival blocks), under
    /// every weight box of [`kernel_model`], after each step of a random
    /// edit sequence whose dirty sets also name alternatives that were not
    /// edited, the minima, block sums, dominator counts and both `derive`
    /// outputs equal a fresh `recompute` by `to_bits`, and the
    /// non-dominated set equals the standalone dominance entry point's.
    #[test]
    fn incremental_derivation_matches_recompute(
        shape in (0usize..6, 1usize..5, 2usize..6),
        run in (1usize..6, 0u64..1_000_000),
    ) {
        let ((size, n_attrs, levels), (steps, seed)) = (shape, run);
        let n = [1, 15, 16, 17, 33, 40][size];
        let model = kernel_model(n_attrs, n, levels, seed as usize % 5, seed);
        let mut c = ctx(&model);
        let mut matrix = dominance_intervals_ctx(&c);
        let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for step in 0..steps {
            let mut dirty = BTreeSet::new();
            for _ in 0..1 + next(4) {
                let d = next(n);
                dirty.insert(d);
                if next(3) != 0 {
                    let attr = AttributeId::from_index(next(n_attrs));
                    c.set_perf(d, attr, Perf::level(next(levels)))
                        .expect("level on the scale");
                }
            }
            matrix.update(&c, &dirty);
            let fresh = dominance_intervals_ctx(&c);
            prop_assert_eq!(
                matrix_bits(&matrix),
                matrix_bits(&fresh),
                "step {} dirty {:?}",
                step,
                &dirty
            );
            let names = &c.model().alternatives;
            let (non_dominated, ranking) = matrix.derive(names);
            let (fresh_non_dominated, fresh_ranking) = fresh.derive(names);
            prop_assert_eq!(&non_dominated, &fresh_non_dominated);
            prop_assert_eq!(ranking_bits(&ranking), ranking_bits(&fresh_ranking));
            prop_assert_eq!(non_dominated, maut_sense::non_dominated_ctx(&c));
        }
    }
}

/// Stats of a Monte Carlo result by bits, in model order.
fn stats_bits(r: &maut_sense::MonteCarloResult) -> Vec<(String, [u64; 5], [u32; 3], usize)> {
    r.stats
        .iter()
        .map(|s| {
            let bits = [s.p25, s.median, s.p75, s.mean, s.std_dev].map(f64::to_bits);
            (s.label.clone(), bits, [s.mode, s.min, s.max], s.times_best)
        })
        .collect()
}

/// A model for the incremental Monte Carlo property: the paper's, the
/// assessment corpus's, a generated Flat, Deep or NearDegenerate model
/// of `n_alts` alternatives, or a tie-heavy [`kernel_model`] under any of
/// its first five weight boxes (`5`), under the box whose every draw is a
/// fallback (`6`), or under the narrow box whose runs outgrow the attempt
/// log's one byte per trial (`7`).
fn rerun_model(kind: usize, n_alts: usize, n_attrs: usize, seed: u64) -> DecisionModel {
    use gmaa_gen::{Family, GenConfig};
    let generated = |family| {
        gmaa_gen::generate(&GenConfig::preset(
            family,
            n_alts.max(2),
            n_attrs.max(2),
            seed,
        ))
    };
    match kind {
        0 => neon_reuse::paper_model().model,
        1 => neon_reuse::corpus::assessment_model(10, seed),
        2 => generated(Family::Flat),
        3 => generated(Family::Deep),
        4 => generated(Family::NearDegenerate),
        5 => kernel_model(
            n_attrs,
            n_alts,
            2 + seed as usize % 4,
            seed as usize % 5,
            seed,
        ),
        6 => kernel_model(n_attrs, n_alts, 2 + seed as usize % 4, 2, seed),
        _ => kernel_model(n_attrs, n_alts, 2 + seed as usize % 4, 5, seed),
    }
}

proptest! {
    /// `MonteCarlo::rerun_ctx`, which after an edit recounts only the
    /// alternatives whose pair order the edit can change and copies every
    /// other row of the counts, returns exactly what a fresh `run_ctx`
    /// returns on the same context: rank counts and stats by bits, over
    /// sequences of reruns with zero to three `set_perf` edits before
    /// each (no-op edits and edits back to an earlier level among them),
    /// a `set_weight` in mid-sequence, on the paper, assessment, Flat,
    /// Deep and NearDegenerate models and tie-heavy models of 2–96
    /// alternatives (fallback-forcing boxes, and narrow boxes whose
    /// attempt log outgrows its bound, included), for 1–299 and 10 000
    /// trials and all four simulation classes. Reruns of a kept run replay
    /// its draws from the attempt log, and a kept log never takes more
    /// than one byte per trial. The 10 000-trial cases run only in
    /// optimized builds (`cargo test --release`); unoptimized, those cases
    /// keep their 1–299 trials.
    #[test]
    fn incremental_monte_carlo_matches_fresh_run(
        shape in (0usize..8, 2usize..97, 1usize..11),
        run in (1usize..300, 0usize..5, 0usize..4),
        plan in (1usize..7, 0usize..8, 0u64..1_000_000),
    ) {
        let ((kind, n_alts, n_attrs), (trials, long, class)) = (shape, run);
        let (steps, weight_step, seed) = plan;
        let trials = if long == 0 && !cfg!(debug_assertions) { 10_000 } else { trials };
        // The fallback and narrow boxes only shape the draws under the
        // class that samples them.
        let class = if kind >= 6 { 3 } else { class };
        let model = rerun_model(kind, n_alts, n_attrs, seed);
        let n = model.num_alternatives();
        let m = model.num_attributes();
        let cells: Vec<(AttributeId, usize)> = model
            .attributes
            .iter()
            .enumerate()
            .filter_map(|(j, a)| match &a.scale {
                Scale::Discrete(d) if d.len() > 1 => Some((AttributeId::from_index(j), d.len())),
                _ => None,
            })
            .collect();
        let mut c = ctx(&model);
        let mc = MonteCarlo::new(kernel_config(class, m, seed), trials, seed);
        let mut cache = None;
        let mut state = seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut undo: Vec<(usize, AttributeId, Perf)> = Vec::new();
        for step in 0..steps {
            if step == weight_step {
                let root = c.model().tree.root();
                let children = c.model().tree.get(root).children.clone();
                let objective = children[next(children.len())];
                let w = c.model().resolved_local_weights()[objective.index()];
                let wider = Interval::new(w.lo() * 0.5, (w.hi() + 0.1).min(1.0));
                c.set_weight(objective, wider).expect("widening stays feasible");
            }
            for _ in 0..next(4) {
                if cells.is_empty() {
                    break;
                }
                let earlier = if next(3) == 0 { undo.pop() } else { None };
                let (alt, attr, perf) = earlier.unwrap_or_else(|| {
                    let (attr, levels) = cells[next(cells.len())];
                    (next(n), attr, Perf::level(next(levels)))
                });
                undo.push((alt, attr, c.model().perf.get(alt, attr.index())));
                c.set_perf(alt, attr, perf).expect("level on the scale");
            }
            let rerun = mc.rerun_ctx(&c, &mut cache);
            let log_bytes = cache.as_ref().map_or(0, |c| c.attempt_log_bytes());
            prop_assert!(log_bytes <= trials, "{} log bytes for {} trials", log_bytes, trials);
            let fresh = mc.run_ctx(&c);
            prop_assert_eq!(rerun.trials, fresh.trials);
            prop_assert_eq!(rerun.rank_counts(), fresh.rank_counts(), "step {}", step);
            prop_assert_eq!(stats_bits(&rerun), stats_bits(&fresh), "step {}", step);
        }
    }
}
