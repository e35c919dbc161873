//! Quickstart: build a small imprecise multi-attribute decision model,
//! hand it to the analysis engine, run every analysis against the shared
//! evaluation context, then explore a what-if with incremental
//! re-evaluation.
//!
//! Run with: `cargo run --example quickstart`

use gmaa::AnalysisEngine;
use maut::prelude::*;
use maut_sense::{MonteCarloConfig, StabilityMode};

fn main() {
    // 1. A laptop-purchase decision: two objectives, four attributes.
    let mut b = DecisionModelBuilder::new("Buy a laptop");

    let practical = b.objective_under_root("practical", "Practicality", Interval::new(0.4, 0.6));
    let price =
        b.continuous_attribute("price", "Price (EUR)", 400.0, 2500.0, Direction::Decreasing);
    let weight = b.continuous_attribute("weight", "Weight (kg)", 0.8, 3.5, Direction::Decreasing);
    b.attach_attribute(practical, price, Interval::new(0.5, 0.7));
    b.attach_attribute(practical, weight, Interval::new(0.3, 0.5));

    let power = b.objective_under_root("power", "Power", Interval::new(0.4, 0.6));
    let cpu = b.discrete_attribute("cpu", "CPU tier", &["entry", "mid", "high", "workstation"]);
    let battery = b.discrete_attribute("battery", "Battery life", &["poor", "ok", "good", "great"]);
    b.attach_attribute(power, cpu, Interval::new(0.5, 0.7));
    b.attach_attribute(power, battery, Interval::new(0.3, 0.5));

    // 2. Alternatives — one entry is missing a measurement, which the model
    //    handles natively (utility interval [0, 1]).
    b.alternative(
        "UltraBook X",
        vec![
            Perf::value(1800.0),
            Perf::value(1.1),
            Perf::level(2),
            Perf::level(3),
        ],
    );
    b.alternative(
        "Workhorse Pro",
        vec![
            Perf::value(2200.0),
            Perf::value(2.8),
            Perf::level(3),
            Perf::level(1),
        ],
    );
    b.alternative(
        "Budget Basic",
        vec![
            Perf::value(600.0),
            Perf::value(2.2),
            Perf::level(0),
            Perf::level(2),
        ],
    );
    b.alternative(
        "Mystery Deal",
        vec![
            Perf::value(900.0),
            Perf::Missing,
            Perf::level(1),
            Perf::level(2),
        ],
    );

    let model = b.build().expect("model is consistent");

    // 3. One engine, one shared evaluation context: the component-utility
    //    matrix and weight bounds below are computed exactly once and every
    //    analysis reads from them.
    let mut engine = AnalysisEngine::new(model).expect("model validated");
    engine.set_mc_trials(5000).expect("nonzero");
    engine.mc_seed = 42;

    // 4. Evaluate: min / avg / max overall utilities, ranked by average.
    let eval = engine.evaluate();
    println!("=== Ranking ===");
    for r in eval.ranking() {
        println!(
            "{}. {:<14} min {:.3}  avg {:.3}  max {:.3}",
            r.rank, r.name, r.bounds.min, r.bounds.avg, r.bounds.max
        );
    }

    // 5. How robust is the winner to the weight of "Power"?
    let power_id = engine.model().tree.find("power").expect("objective exists");
    let stab = engine.stability_of(power_id, StabilityMode::BestAlternative);
    println!(
        "\nBest choice unchanged while Power's weight stays in [{:.2}, {:.2}] (current {:.2})",
        stab.lo, stab.hi, stab.current
    );

    // 6. Which alternatives could *ever* be the best?
    println!("\n=== Potential optimality ===");
    for o in engine.potentially_optimal().expect("solver healthy") {
        println!(
            "{:<14} potentially optimal: {:>5} (slack {:+.3})",
            engine.model().alternatives[o.alternative],
            o.potentially_optimal,
            o.slack
        );
    }

    // 7. Monte Carlo over completely random weights, same cached matrix.
    let mc = engine.monte_carlo(MonteCarloConfig::Random);
    println!("\n=== Rank statistics over 5000 random-weight trials ===");
    for s in &mc.stats {
        println!(
            "{:<14} mode {:>2}  mean {:.2}  [{} .. {}]",
            s.label, s.mode, s.mean, s.min, s.max
        );
    }

    // 8. What-if: the Mystery Deal's weight gets measured at 1.4 kg. One
    //    cell changes, so the engine re-scores just that alternative.
    let kg = engine.model().find_attribute("weight").expect("exists");
    let mystery = 3;
    engine
        .set_perf(mystery, kg, Perf::value(1.4))
        .expect("in range");
    let eval2 = engine.evaluate();
    println!(
        "\n=== After measuring Mystery Deal at 1.4 kg (rows re-scored: {}) ===",
        engine.stats().rows_recomputed
    );
    for r in eval2.ranking() {
        println!("{}. {:<14} avg {:.3}", r.rank, r.name, r.bounds.avg);
    }
}
