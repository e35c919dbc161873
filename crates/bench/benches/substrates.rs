//! Substrate micro-benchmarks: the building blocks the reproduction stands
//! on — Turtle parsing/serialization, the simplex LP solver, the constrained
//! simplex samplers, and ontology assessment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ontolib::{parse_turtle, write_turtle, GeneratorConfig, OntologyGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simplex_lp::{LinearProgram, Objective, Relation, SolverWorkspace, WeightPolytope};
use statlab::{SimplexSampler, WeightScheme};
use std::hint::black_box;

fn turtle_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("turtle");
    for n_classes in [50usize, 200, 1000] {
        let graph = OntologyGenerator::new(GeneratorConfig {
            num_classes: n_classes,
            num_object_properties: n_classes / 4,
            num_datatype_properties: n_classes / 5,
            seed: 5,
            ..GeneratorConfig::default()
        })
        .generate_graph();
        let text = write_turtle(&graph);
        // sanity: parse back to the same number of triples
        assert_eq!(parse_turtle(&text).expect("valid").len(), graph.len());

        group.bench_with_input(BenchmarkId::new("parse", n_classes), &text, |b, t| {
            b.iter(|| black_box(parse_turtle(t).expect("valid")));
        });
        group.bench_with_input(BenchmarkId::new("write", n_classes), &graph, |b, g| {
            b.iter(|| black_box(write_turtle(g)));
        });
    }
    group.finish();
}

/// A potential-optimality-shaped LP: n weights + slack, n constraints,
/// difference rows perturbed by `shift`.
fn max_slack_lp(n: usize, shift: f64) -> LinearProgram {
    let mut lp = LinearProgram::new(n + 1, Objective::Maximize);
    let mut obj = vec![0.0; n + 1];
    obj[n] = 1.0;
    lp.set_objective(&obj);
    let mut norm = vec![1.0; n + 1];
    norm[n] = 0.0;
    lp.add_constraint(&norm, Relation::Eq, 1.0);
    for k in 0..n {
        let mut row = vec![0.0; n + 1];
        for (j, r) in row.iter_mut().enumerate().take(n) {
            *r = ((j * 7 + k * 13) % 11) as f64 / 11.0 - 0.4 + shift;
        }
        row[n] = -1.0;
        lp.add_constraint(&row, Relation::Ge, 0.0);
    }
    lp
}

fn simplex_lp_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_lp");
    for n in [10usize, 25, 50] {
        group.bench_with_input(BenchmarkId::new("max_slack_cold", n), &n, |b, &n| {
            b.iter(|| black_box(max_slack_lp(n, 0.0).solve().expect("solvable")));
        });
        // The same rows through the bounded-variable solver of the
        // potential-optimality loop: closed-form start over the simplex,
        // then half the rows appended warm.
        group.bench_with_input(BenchmarkId::new("max_slack_bounded", n), &n, |b, &n| {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|k| {
                    (0..n)
                        .map(|j| ((j * 7 + k * 13) % 11) as f64 / 11.0 - 0.4)
                        .collect()
                })
                .collect();
            let polytope = WeightPolytope::full_simplex(n);
            let key = vec![0.0; n];
            let mut ws = SolverWorkspace::new();
            b.iter(|| {
                ws.start(&polytope, &key);
                for row in &rows[..n / 2] {
                    ws.push_row(row);
                }
                ws.solve().expect("solvable");
                for row in &rows[n / 2..] {
                    ws.push_row(row);
                }
                black_box(ws.solve().expect("solvable"))
            });
        });
    }
    group.finish();
}

fn polytope_optimization(c: &mut Criterion) {
    let model = bench::paper();
    let w = model.attribute_weights();
    let polytope = WeightPolytope::new(&w.lows(), &w.upps()).expect("feasible");
    let coeffs: Vec<f64> = (0..14).map(|j| (j as f64 * 0.37).sin()).collect();

    c.bench_function("polytope_greedy_minimize_14", |b| {
        b.iter(|| black_box(polytope.minimize(&coeffs)));
    });
}

fn samplers(c: &mut Criterion) {
    let model = bench::paper();
    let w = model.attribute_weights();
    let mut group = c.benchmark_group("weight_samplers");

    let schemes: Vec<(&str, WeightScheme)> = vec![
        ("uniform", WeightScheme::Uniform),
        (
            "rank_order",
            WeightScheme::RankOrder {
                order: (0..14).collect(),
            },
        ),
        (
            "intervals",
            WeightScheme::Intervals {
                lower: w.lows(),
                upper: w.upps(),
            },
        ),
    ];
    for (label, scheme) in schemes {
        let sampler = SimplexSampler::new(14, scheme);
        group.bench_with_input(BenchmarkId::from_parameter(label), &sampler, |b, s| {
            let mut rng = StdRng::seed_from_u64(9);
            b.iter(|| black_box(s.sample(&mut rng)));
        });
    }
    group.finish();
}

fn ontology_assessment(c: &mut Criterion) {
    use neon_reuse::{AssessmentInput, OntologyAssessor};
    use ontolib::CompetencyQuestion;

    let ontology = OntologyGenerator::new(GeneratorConfig {
        num_classes: 200,
        num_object_properties: 60,
        num_datatype_properties: 40,
        seed: 77,
        ..GeneratorConfig::default()
    })
    .generate();
    let questions: Vec<CompetencyQuestion> = (0..20)
        .map(|i| CompetencyQuestion::new(format!("What is the duration of video segment {i}?")))
        .collect();
    let assessor = OntologyAssessor::new(questions);

    c.bench_function("assess_200_class_ontology", |b| {
        b.iter(|| black_box(assessor.assess(&ontology, &AssessmentInput::default())));
    });
}

criterion_group!(
    substrates,
    turtle_roundtrip,
    simplex_lp_solve,
    polytope_optimization,
    samplers,
    ontology_assessment
);
criterion_main!(substrates);
