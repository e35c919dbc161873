//! Property-based tests for the sensitivity analyses.

use maut::prelude::*;
use maut::utility::{DiscreteUtility, UtilityFunction};
use maut_sense::{MonteCarlo, MonteCarloConfig, StabilityMode};
use proptest::prelude::*;

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
                    o.name
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
