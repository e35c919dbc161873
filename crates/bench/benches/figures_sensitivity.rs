//! Benches regenerating the paper's Section V sensitivity analyses:
//!
//! * `fig08_stability`             — weight stability intervals
//! * `exp11_dominance`             — non-dominated set
//! * `exp11_potential_optimality`  — max-slack LPs per alternative
//! * dominance / potential-optimality scaling on synthetic problems.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maut::EvalContext;
use maut_sense::StabilityMode;
use std::hint::black_box;

fn fig08_stability(c: &mut Criterion) {
    let model = bench::paper();
    let ctx = EvalContext::new(model.clone()).expect("valid");
    let funct = model.tree.find("funct_requir").expect("exists");
    let naming = model.tree.find("naming_conv").expect("exists");
    let under = model.tree.find("understandability").expect("exists");

    // The paper's finding: the best-ranked candidate is sensitive to the
    // *number of functional requirements covered* and *adequacy of naming
    // conventions*; Understandability is fully stable.
    let rf = maut_sense::stability_interval_ctx(&ctx, funct, StabilityMode::BestAlternative);
    assert!(
        !rf.is_fully_stable(1e-4),
        "funct requir must be sensitive: {rf:?}"
    );
    let rn = maut_sense::stability_interval_ctx(&ctx, naming, StabilityMode::BestAlternative);
    assert!(
        !rn.is_fully_stable(1e-4),
        "naming conv must be sensitive: {rn:?}"
    );
    let ru = maut_sense::stability_interval_ctx(&ctx, under, StabilityMode::BestAlternative);
    assert!(
        ru.is_fully_stable(1e-4),
        "understandability must be stable: {ru:?}"
    );

    c.bench_function("fig08_stability_one_objective", |b| {
        b.iter(|| {
            black_box(maut_sense::stability_interval_ctx(
                &ctx,
                funct,
                StabilityMode::BestAlternative,
            ))
        });
    });

    c.bench_function("fig08_stability_all_objectives", |b| {
        b.iter(|| {
            black_box(maut_sense::stability::all_stability_intervals_ctx(
                &ctx,
                StabilityMode::BestAlternative,
            ))
        });
    });
}

fn exp11_dominance(c: &mut Criterion) {
    let ctx = EvalContext::new(bench::paper()).expect("valid");
    let nd = maut_sense::non_dominated_ctx(&ctx);
    // The imprecision keeps a solid share of the 23 in play (paper: 20).
    assert!(nd.len() >= 10, "non-dominated count {}", nd.len());

    c.bench_function("exp11_dominance_matrix_23", |b| {
        b.iter(|| black_box(maut_sense::dominance_matrix_ctx(&ctx)));
    });
}

fn exp11_potential_optimality(c: &mut Criterion) {
    let ctx = EvalContext::new(bench::paper()).expect("valid");
    let po = maut_sense::potentially_optimal_ctx(&ctx).expect("solver healthy");
    let discarded: Vec<&str> = po
        .iter()
        .filter(|o| !o.potentially_optimal)
        .map(|o| ctx.model().alternatives[o.alternative].as_str())
        .collect();
    // The paper discards Kanzaki Music, Photography Ontology (+1); our
    // reconstruction discards those plus the rest of the bottom tier.
    assert!(discarded.contains(&"Kanzaki Music"));
    assert!(discarded.contains(&"Photography Ontology"));

    c.bench_function("exp11_potential_optimality_23_lps", |b| {
        b.iter(|| black_box(maut_sense::potentially_optimal_ctx(&ctx)));
    });
}

fn sensitivity_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("potential_optimality_scaling");
    for n_alts in [10usize, 25, 50] {
        let ctx = EvalContext::new(bench::synthetic(n_alts, 10, 7)).expect("valid");
        group.bench_with_input(BenchmarkId::from_parameter(n_alts), &ctx, |b, ctx| {
            b.iter(|| black_box(maut_sense::potentially_optimal_ctx(ctx)));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("dominance_scaling");
    for n_alts in [10usize, 50, 100] {
        let ctx = EvalContext::new(bench::synthetic(n_alts, 10, 7)).expect("valid");
        group.bench_with_input(BenchmarkId::from_parameter(n_alts), &ctx, |b, ctx| {
            b.iter(|| black_box(maut_sense::non_dominated_ctx(ctx)));
        });
    }
    group.finish();
}

criterion_group!(
    figures_sensitivity,
    fig08_stability,
    exp11_dominance,
    exp11_potential_optimality,
    sensitivity_scaling
);
criterion_main!(figures_sensitivity);
