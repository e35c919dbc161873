//! Benches regenerating the paper's Monte Carlo artifacts:
//!
//! * `fig09_montecarlo` — the 10 000-trial simulation within elicited
//!   intervals and its multiple boxplot
//! * `fig10_rank_stats` — the per-alternative rank statistics table
//! * `exp14_robustness` — the Section V robustness conclusions
//! * `abl13_mc_classes` — the three weight-generation classes compared
//! * `abl15_mc_soa_pipeline` — the hot-loop ablation: scalar reference vs
//!   batched SoA
//! * Monte Carlo scaling over trial counts, on both pipelines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maut::EvalContext;
use maut_sense::{MonteCarlo, MonteCarloConfig};
use std::hint::black_box;

fn fig09_montecarlo(c: &mut Criterion) {
    let ctx = EvalContext::new(bench::paper()).expect("valid");
    let result = MonteCarlo::paper_default().run_ctx(&ctx);
    assert_eq!(result.trials, 10_000);
    // Fig 9's headline: the five best-ranked candidates match the
    // average-utility ranking, and their boxplots sit at the left edge.
    let plots = result.boxplots();
    assert_eq!(plots.plots.len(), 23);

    c.bench_function("fig09_montecarlo_10k_elicited", |b| {
        b.iter(|| {
            let mc = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 10_000, 1);
            black_box(mc.run_ctx(&ctx))
        });
    });
}

fn fig10_rank_stats(c: &mut Criterion) {
    let model = bench::paper();
    let ctx = EvalContext::new(model.clone()).expect("valid");
    let result = MonteCarlo::paper_default().run_ctx(&ctx);
    let stats = &result.stats;
    // Published Fig 10 anchors (mean ranks): SAPO 4.0, DIG35 5.0,
    // AceMedia 9.041, MPEG7 Ontology 23.0, Photography 22.0.
    let mean_of = |name: &str| {
        let i = model
            .alternatives
            .iter()
            .position(|n| n == name)
            .expect("known");
        stats[i].mean
    };
    assert!((mean_of("SAPO") - 4.0).abs() < 0.3);
    assert!((mean_of("DIG35") - 5.0).abs() < 0.3);
    assert!((mean_of("AceMedia VDO") - 9.041).abs() < 0.5);
    assert!((mean_of("MPEG7 Ontology") - 23.0).abs() < 0.2);
    assert!((mean_of("Photography Ontology") - 22.0).abs() < 0.2);

    c.bench_function("fig10_rank_statistics", |b| {
        let result = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 2_000, 3).run_ctx(&ctx);
        b.iter(|| black_box(gmaa::report::rank_statistics(&result.stats)));
    });
}

fn exp14_robustness(c: &mut Criterion) {
    let model = bench::paper();
    let ctx = EvalContext::new(model.clone()).expect("valid");
    let result = MonteCarlo::paper_default().run_ctx(&ctx);
    // Paper: only Media Ontology and Boemie VDO are ever ranked best, and
    // the top five fluctuate by at most two positions => ranking is robust.
    let ever: Vec<&str> = result
        .ever_rank_one()
        .into_iter()
        .map(|i| model.alternatives[i].as_str())
        .collect();
    assert_eq!(ever, ["Boemie VDO", "Media Ontology"]);
    assert!(result.fluctuation_of_top(5) <= 2);

    c.bench_function("exp14_robustness_checks", |b| {
        let result = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 2_000, 5).run_ctx(&ctx);
        b.iter(|| {
            black_box((
                result.ever_rank_one(),
                result.always_rank_one(),
                result.fluctuation_of_top(5),
            ))
        });
    });
}

fn abl13_mc_classes(c: &mut Criterion) {
    let model = bench::paper();
    let ctx = EvalContext::new(model.clone()).expect("valid");
    // Class 1 (uniform) admits more rank-1 candidates than class 3
    // (elicited intervals): extra preference structure sharpens the
    // recommendation — the mechanism Section V relies on.
    let uniform = MonteCarlo::new(MonteCarloConfig::Random, 4_000, 11).run_ctx(&ctx);
    let intervals = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 4_000, 11).run_ctx(&ctx);
    assert!(
        uniform.ever_rank_one().len() >= intervals.ever_rank_one().len(),
        "uniform {:?} vs intervals {:?}",
        uniform.ever_rank_one(),
        intervals.ever_rank_one()
    );

    let mut group = c.benchmark_group("abl13_mc_classes");
    let classes: Vec<(&str, MonteCarloConfig)> = vec![
        ("random", MonteCarloConfig::Random),
        (
            "rank_order",
            MonteCarloConfig::RankOrder((0..model.num_attributes()).collect()),
        ),
        ("intervals", MonteCarloConfig::ElicitedIntervals),
    ];
    for (label, config) in classes {
        group.bench_with_input(BenchmarkId::from_parameter(label), &config, |b, cfg| {
            b.iter(|| black_box(MonteCarlo::new(cfg.clone(), 2_000, 17).run_ctx(&ctx)));
        });
    }
    group.finish();
}

fn abl15_mc_soa_pipeline(c: &mut Criterion) {
    let ctx = EvalContext::new(bench::paper()).expect("valid");
    let mc = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 10_000, 20120402);
    // The ablation only means something if the pipelines agree exactly.
    assert_eq!(
        mc.run_scalar_ctx(&ctx).rank_counts(),
        mc.run_ctx(&ctx).rank_counts()
    );

    let mut group = c.benchmark_group("abl15_mc_soa_pipeline");
    group.bench_function("scalar_reference", |b| {
        b.iter(|| black_box(mc.run_scalar_ctx(&ctx)));
    });
    group.bench_function("soa_batch", |b| {
        b.iter(|| black_box(mc.run_ctx(&ctx)));
    });
    group.finish();
}

fn montecarlo_scaling(c: &mut Criterion) {
    let model = bench::paper();
    let ctx = EvalContext::new(model.clone()).expect("valid");
    let mut group = c.benchmark_group("montecarlo_trials_scaling");
    for trials in [1_000usize, 5_000, 10_000, 20_000] {
        group.bench_with_input(BenchmarkId::new("scalar_ref", trials), &trials, |b, &t| {
            let mc = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, t, 23);
            b.iter(|| black_box(mc.run_scalar_ctx(&ctx)));
        });
        group.bench_with_input(BenchmarkId::new("soa_batch", trials), &trials, |b, &t| {
            let mc = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, t, 23);
            b.iter(|| black_box(mc.run_ctx(&ctx)));
        });
    }
    group.finish();
}

criterion_group!(
    figures_montecarlo,
    fig09_montecarlo,
    fig10_rank_stats,
    exp14_robustness,
    abl13_mc_classes,
    abl15_mc_soa_pipeline,
    montecarlo_scaling
);
criterion_main!(figures_montecarlo);
