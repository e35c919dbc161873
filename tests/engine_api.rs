//! End-to-end integration of the `AnalysisEngine` API on the paper's case
//! study: all five analyses (Fig 6 evaluation, Fig 7 subtree re-ranking,
//! Fig 8 weight stability, Section V dominance / potential optimality,
//! Figs 9–10 Monte Carlo) run through one engine against one shared
//! `EvalContext`, and incremental mutation (`set_perf` / `set_weight`)
//! reproduces a from-scratch evaluation exactly.

use gmaa::AnalysisEngine;
use maut::{Interval, Perf};
use maut_sense::{MonteCarloConfig, StabilityMode};
use neon_reuse::paper_model;

fn engine() -> AnalysisEngine {
    let mut e = AnalysisEngine::new(paper_model().model).expect("paper model is valid");
    e.set_mc_trials(1_000).unwrap();
    e
}

#[test]
fn all_five_analyses_share_one_context() {
    let mut e = engine();

    // Fig 6 — evaluation: all 23 candidates ranked, Media Ontology first.
    let eval = e.evaluate();
    assert_eq!(eval.bounds.len(), 23);
    let ranking = eval.ranking();
    assert_eq!(ranking.len(), 23);
    assert_eq!(ranking[0].name, "Media Ontology");

    // Fig 7 — subtree re-ranking for every top-level objective.
    for key in [
        "reuse_cost",
        "understandability",
        "integration",
        "reliability",
    ] {
        let sub = e.rank_by(key).expect("objective exists");
        assert_eq!(sub.bounds.len(), 23);
        for b in &sub.bounds {
            assert!(b.is_ordered(), "{key}: {b:?}");
        }
    }

    // Fig 8 — weight stability: the paper's two sensitive criteria.
    let funct = e.model().tree.find("funct_requir").expect("exists");
    let naming = e.model().tree.find("naming_conv").expect("exists");
    assert!(!e
        .stability_of(funct, StabilityMode::BestAlternative)
        .is_fully_stable(1e-4));
    assert!(!e
        .stability_of(naming, StabilityMode::BestAlternative)
        .is_fully_stable(1e-4));

    // Section V — dominance and potential optimality. The paper discards
    // 3 of 23 (20 survivors); our reconstructed utility matrix has
    // narrower bands than the original experts' (see the band-width
    // ablation), so it discards more — but every candidate the paper
    // names as discarded is discarded here too, and the paper's top five
    // all survive.
    let analysis = e.analyze().expect("solver healthy");
    let discarded: Vec<&str> = analysis
        .discarded()
        .iter()
        .map(|&i| e.model().alternatives[i].as_str())
        .collect();
    for name in ["Kanzaki Music", "Photography Ontology", "MPEG7 Ontology"] {
        assert!(
            discarded.contains(&name),
            "{name} should be discarded, got {discarded:?}"
        );
    }
    let survivors: Vec<&str> = analysis
        .survivors()
        .iter()
        .map(|&i| e.model().alternatives[i].as_str())
        .collect();
    assert!(survivors.len() >= 10, "{}", survivors.len());
    for name in ["Media Ontology", "Boemie VDO", "COMM", "SAPO", "DIG35"] {
        assert!(survivors.contains(&name), "{name} should survive");
    }
    assert!(analysis.non_dominated.len() >= survivors.len());

    // Figs 9–10 — Monte Carlo: only the paper's two leaders ever rank
    // first over the elicited intervals.
    let ever: Vec<&str> = analysis
        .monte_carlo
        .ever_rank_one()
        .into_iter()
        .map(|i| e.model().alternatives[i].as_str())
        .collect();
    assert_eq!(ever, ["Boemie VDO", "Media Ontology"]);

    // The whole pipeline ran against one shared context: each scope
    // (root + the four Fig 7 subtrees) was computed cold exactly once;
    // every repeated read was a cache hit.
    assert_eq!(e.stats().cold_evaluations, 5);
    assert!(e.stats().cache_hits >= 1);
    assert_eq!(e.stats().rows_recomputed, 0);
}

#[test]
fn incremental_set_perf_matches_from_scratch_exactly() {
    let mut e = engine();
    e.evaluate(); // warm the cache so mutations exercise the refresh path

    // Fill in three of the dataset's missing cells and bump a level.
    let financ = e.model().find_attribute("financ_cost").expect("exists");
    let tests = e.model().find_attribute("availab_test").expect("exists");
    let doc = e.model().find_attribute("doc_quality").expect("exists");
    e.set_perf(17, financ, Perf::level(2)).expect("valid"); // Nokia Ontology
    e.set_perf(11, tests, Perf::level(1)).expect("valid"); // Kanzaki Music
    e.set_perf(20, doc, Perf::level(3)).expect("valid"); // MPEG7 Ontology
    let incremental = e.evaluate();

    // A fresh engine over the mutated model must agree bit-for-bit.
    let mut fresh = AnalysisEngine::new(e.model().clone()).expect("valid");
    fresh.set_mc_trials(e.mc_trials()).unwrap();
    assert_eq!(incremental, fresh.evaluate());

    // Only the three touched rows were re-scored.
    assert_eq!(e.stats().rows_recomputed, 3);

    // Downstream analyses agree too (they read the same patched matrices).
    assert_eq!(e.non_dominated(), fresh.non_dominated());
    assert_eq!(
        e.potentially_optimal().expect("solver healthy"),
        fresh.potentially_optimal().expect("solver healthy")
    );
    assert_eq!(
        e.monte_carlo(MonteCarloConfig::ElicitedIntervals)
            .mean_ranks(),
        fresh
            .monte_carlo(MonteCarloConfig::ElicitedIntervals)
            .mean_ranks()
    );
}

#[test]
fn incremental_set_weight_matches_from_scratch_exactly() {
    let mut e = engine();
    e.evaluate();

    // Re-elicit the Understandability branch a little heavier.
    let under = e.model().tree.find("understandability").expect("exists");
    e.set_weight(under, Interval::new(0.20, 0.32))
        .expect("feasible");
    let incremental = e.evaluate();

    let mut fresh = AnalysisEngine::new(e.model().clone()).expect("valid");
    fresh.set_mc_trials(e.mc_trials()).unwrap();
    assert_eq!(incremental, fresh.evaluate());
    assert_eq!(
        e.monte_carlo(MonteCarloConfig::ElicitedIntervals)
            .mean_ranks(),
        fresh
            .monte_carlo(MonteCarloConfig::ElicitedIntervals)
            .mean_ranks()
    );
}

#[test]
fn batch_evaluate_agrees_with_full_evaluation() {
    let mut e = engine();
    let full = e.evaluate();
    let order: Vec<usize> = (0..23).rev().collect();
    let batch = e.batch_evaluate(&order);
    for (pos, &alt) in order.iter().enumerate() {
        assert_eq!(batch[pos], full.bounds[alt]);
    }
}

#[test]
fn engine_rejects_invalid_mutations_without_corrupting_state() {
    let mut e = engine();
    let before = e.evaluate();
    let financ = e.model().find_attribute("financ_cost").expect("exists");
    assert!(e.set_perf(0, financ, Perf::level(9)).is_err());
    assert!(e.set_perf(99, financ, Perf::level(1)).is_err());
    let root = e.model().tree.root();
    assert!(e.set_weight(root, Interval::point(1.0)).is_err());
    assert_eq!(e.evaluate(), before);
}
