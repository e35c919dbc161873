//! The paper's complete case study: selecting multimedia ontologies for
//! reuse in the development of the M3 ontology.
//!
//! Walks the Decision Analysis cycle exactly as Sections II–V do and prints
//! each figure's counterpart:
//!
//! * Fig 1 — objective hierarchy
//! * Fig 2 — MM ontology performances
//! * Figs 3–4 — component utilities
//! * Fig 5 — attribute weights (low / avg / upp)
//! * Fig 6 — ranking with min/avg/max overall utilities
//! * Fig 7 — ranking by Understandability
//! * Fig 8 — weight stability intervals
//! * Fig 9 — Monte Carlo multiple boxplot
//! * Fig 10 — Monte Carlo rank statistics
//! * plus the Section V dominance / potential-optimality counts and the
//!   final NeOn selection rule (> 70 % CQ coverage).
//!
//! Run with: `cargo run --example multimedia_selection`

use gmaa::{report, AnalysisEngine};
use maut_sense::{MonteCarloConfig, StabilityMode};
use neon_reuse::{activities, dataset};

fn header(title: &str) {
    println!("\n{}\n{}", title, "=".repeat(title.len()));
}

fn main() {
    let data = dataset::paper_model();
    let mut engine = AnalysisEngine::new(data.model.clone()).expect("paper model is valid");
    engine.set_mc_trials(10_000).expect("nonzero"); // the paper's simulation size

    header("Fig 1 - Objective hierarchy");
    print!("{}", report::hierarchy(engine.model()));

    header("Fig 2 - MM ontology performances ('?' = missing)");
    print!("{}", report::consequences(engine.model()));

    header("Fig 3 - Component utility for number of functional requirements covered");
    print!(
        "{}",
        report::component_utility(engine.model(), "funct_requir")
    );

    header("Fig 4 - Imprecise component utilities for Purpose reliability");
    print!(
        "{}",
        report::component_utility(engine.model(), "purpose_rel")
    );

    header("Fig 5 - Attribute weights in the additive model");
    print!("{}", report::weight_table_ctx(engine.context()));

    header("Fig 6 - Ranking of MM ontologies");
    let eval = engine.evaluate();
    print!("{}", report::ranking(engine.model(), &eval));
    println!(
        "\nAverage-utility gap across the best eight: {:.4} (paper: < 0.1)",
        eval.avg_gap(7)
    );
    println!(
        "Alternatives whose utility interval overlaps the best: {} of 22",
        eval.overlap_with_best()
    );

    header("Fig 7 - Ranking for Understandability");
    let under = engine
        .rank_by("understandability")
        .expect("objective exists");
    print!("{}", report::ranking(engine.model(), &under));

    header("Fig 8 - Weight stability intervals (best-alternative mode)");
    let stab = engine.stability_all(StabilityMode::BestAlternative);
    print!("{}", report::stability(engine.model(), &stab));
    let sensitive: Vec<&str> = stab
        .iter()
        .filter(|r| !r.is_fully_stable(1e-4))
        .map(|r| engine.model().tree.get(r.objective).name.as_str())
        .collect();
    println!("\nObjectives the best-ranked candidate is sensitive to: {sensitive:?}");
    println!("(paper: all stable except Funct Requir and Naming Conv)");

    header("Section V - Dominance and potential optimality");
    let nd = engine.non_dominated();
    println!("Non-dominated alternatives: {} of 23", nd.len());
    let po = engine.potentially_optimal().expect("solver healthy");
    let discarded: Vec<&str> = po
        .iter()
        .filter(|o| !o.potentially_optimal)
        .map(|o| engine.model().alternatives[o.alternative].as_str())
        .collect();
    println!(
        "Potentially optimal: {} of 23; discarded: {discarded:?}",
        23 - discarded.len()
    );

    header("Fig 9 - Monte Carlo multiple boxplot (10 000 trials, elicited intervals)");
    let mc = engine.monte_carlo(MonteCarloConfig::ElicitedIntervals);
    print!("{}", report::boxplot(&mc, 72));

    header("Fig 10 - Monte Carlo rank statistics");
    print!("{}", report::rank_statistics(&mc.stats));
    let always_best: Vec<&str> = mc
        .always_rank_one()
        .into_iter()
        .map(|i| engine.model().alternatives[i].as_str())
        .collect();
    let ever_best: Vec<&str> = mc
        .ever_rank_one()
        .into_iter()
        .map(|i| engine.model().alternatives[i].as_str())
        .collect();
    println!("\nEver ranked best: {ever_best:?} (paper: Media Ontology, Boemie VDO)");
    println!("Always ranked best: {always_best:?}");
    println!(
        "Max rank fluctuation among the top five: {} positions (paper: at most two)",
        mc.fluctuation_of_top(5)
    );

    header("NeOn selection rule - cover > 70 % of the competency questions");
    // The selection pipeline runs against the engine's own context, so
    // the evaluation it walks is the cached one from Fig 6.
    let selection = activities::select_by_ranking_ctx(
        engine.context_mut(),
        &data.cq_sets,
        dataset::TOTAL_CQS,
        0.70,
    );
    println!(
        "Selected {} ontologies: {:?}",
        selection.selected_names.len(),
        selection.selected_names
    );
    println!(
        "Union CQ coverage: {:.1} % (target {:.0} %) - {}",
        selection.coverage * 100.0,
        selection.target * 100.0,
        if selection.target_reached {
            "no more ontologies necessary (paper's conclusion)"
        } else {
            "target not reached"
        }
    );
}
