//! Differential suite for the columnar (SoA) batch pipeline.
//!
//! The `BandMatrixSoA` rewrite moved the Monte Carlo hot loop, dominance
//! and potential optimality, and `batch_evaluate` onto column-major
//! kernels. These tests pin the new paths to the scalar references on
//! randomized models (3–30 alternatives × 2–12 attributes, flat and
//! hierarchical, with missing cells):
//!
//! * SoA batch evaluation vs the scalar per-row evaluation;
//! * Monte Carlo rank counts and acceptance fractions under a fixed seed,
//!   scalar loop vs batched SoA;
//! * dominance matrices, dominance intervals and potential-optimality
//!   verdicts vs in-test row-major reference implementations (the
//!   pre-blocked-sweep logic, rebuilt here so they share no code with the
//!   columnar kernels under test);
//! * the bounded-variable max-slack solver: rows appended warm to one
//!   `SolverWorkspace` vs a cold two-phase `LinearProgram::solve` of the
//!   grown program, across random max-slack families and the
//!   potential-optimality skeleton;
//! * the incremental what-if loop: random `set_perf` / `set_weight` edit
//!   sequences against one `AnalysisEngine`, with
//!   `discard_cycle_incremental` / `analyze_incremental` (pair-level
//!   interval updates, selective re-certification) compared after every
//!   edit against a cold engine's full
//!   recompute on the mutated model.
//!
//! All comparisons hold to `ORDERING_EPS`; in practice the pipelines agree
//! bit-for-bit because every kernel accumulates in the same index order.
//! The default suite runs 64 random cases; the `#[ignore]`d suites (run in
//! CI via `cargo test -- --include-ignored`) cover 256 plus the LP-heavy
//! potential-optimality sweep, the long warm row-growth differential, and the
//! long edit-sequence histories.

use maut::prelude::*;
use maut_sense::{dominance, intensity, potential, DominanceOutcome, MonteCarlo, MonteCarloConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simplex_lp::{max_slack_lp, SolverWorkspace, Status, WeightPolytope};

/// A random, always-valid decision model: mixed discrete / continuous
/// attributes, occasional missing performances, and (for even seeds) a
/// two-level objective hierarchy with interval weights that always
/// intersect the simplex.
fn random_model(seed: u64, max_alts: usize, max_attrs: usize) -> DecisionModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_alts = rng.random_range(3..=max_alts);
    let n_attrs = rng.random_range(2..=max_attrs);
    let mut b = DecisionModelBuilder::new(format!("random-{seed}"));

    let mut attrs = Vec::with_capacity(n_attrs);
    // Levels per attribute; `None` marks a continuous one.
    let mut levels: Vec<Option<usize>> = Vec::with_capacity(n_attrs);
    for j in 0..n_attrs {
        if rng.random_range(0..4) == 0 {
            let dir = if rng.random::<bool>() {
                Direction::Increasing
            } else {
                Direction::Decreasing
            };
            attrs.push(b.continuous_attribute(format!("c{j}"), format!("C{j}"), 0.0, 100.0, dir));
            levels.push(None);
        } else {
            let k = rng.random_range(2..=5);
            let names: Vec<String> = (0..k).map(|l| format!("l{l}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            attrs.push(b.discrete_attribute(format!("d{j}"), format!("D{j}"), &refs));
            levels.push(Some(k));
        }
    }

    // Sibling weight intervals spread symmetrically around the uniform
    // share, so lows sum to ≤ 1 and upps to ≥ 1 in every group.
    let spread_interval = |rng: &mut StdRng, siblings: usize| {
        let base = 1.0 / siblings as f64;
        let d: f64 = rng.random_range(0.05..0.9);
        Interval::new(base * (1.0 - d), (base * (1.0 + d)).min(1.0))
    };

    if seed.is_multiple_of(2) && n_attrs >= 4 {
        // Two-level hierarchy: split attributes into 2–3 groups.
        let n_groups = rng.random_range(2..=3.min(n_attrs / 2));
        let mut group_ids = Vec::new();
        for g in 0..n_groups {
            let w = spread_interval(&mut rng, n_groups);
            group_ids.push(b.objective_under_root(format!("g{g}"), format!("G{g}"), w));
        }
        for (g, &group) in group_ids.iter().enumerate() {
            let members: Vec<usize> = (0..n_attrs).filter(|j| j % n_groups == g).collect();
            for &j in &members {
                let w = spread_interval(&mut rng, members.len());
                b.attach_attribute(group, attrs[j], w);
            }
        }
    } else {
        let pairs: Vec<(AttributeId, Interval)> = attrs
            .iter()
            .map(|&a| (a, spread_interval(&mut rng, n_attrs)))
            .collect();
        b.attach_attributes_to_root(&pairs);
    }

    for i in 0..n_alts {
        let perfs: Vec<Perf> = levels
            .iter()
            .map(|&k| {
                if rng.random_range(0..20) == 0 {
                    Perf::Missing
                } else {
                    match k {
                        None => Perf::value(rng.random_range(0.0..=100.0)),
                        Some(k) => Perf::level(rng.random_range(0..k)),
                    }
                }
            })
            .collect();
        b.alternative(format!("alt{i:02}"), perfs);
    }
    b.build().expect("random model is valid")
}

/// Row-major dominance reference — the pre-blocked-sweep logic over the
/// model's `bound_utility_matrices()`, sharing no code or storage with the
/// columnar kernels.
fn reference_dominance(ctx: &EvalContext) -> Vec<Vec<DominanceOutcome>> {
    let (u_lo, u_hi) = ctx.model().bound_utility_matrices();
    let polytope = dominance::weight_polytope_ctx(ctx);
    let n = u_lo.len();
    (0..n)
        .map(|i| {
            (0..n)
                .map(|k| {
                    if i == k {
                        return DominanceOutcome::None;
                    }
                    let d: Vec<f64> = u_lo[i].iter().zip(&u_hi[k]).map(|(a, b)| a - b).collect();
                    if polytope.minimize(&d).0 < -1e-9 {
                        return DominanceOutcome::None;
                    }
                    let dbest: Vec<f64> =
                        u_hi[i].iter().zip(&u_lo[k]).map(|(a, b)| a - b).collect();
                    if polytope.maximize(&dbest).0 > 1e-9 {
                        DominanceOutcome::Dominates
                    } else {
                        DominanceOutcome::None
                    }
                })
                .collect()
        })
        .collect()
}

/// Row-major potential-optimality reference — the pre-SoA max-slack LP
/// built straight from the model's `bound_utility_matrices()`.
fn reference_potential(ctx: &EvalContext) -> Vec<(bool, f64)> {
    let (u_lo, u_hi) = ctx.model().bound_utility_matrices();
    let polytope = dominance::weight_polytope_ctx(ctx);
    let n = u_lo.len();
    (0..n)
        .map(|i| {
            let rows: Vec<Vec<f64>> = (0..n)
                .filter(|&k| k != i)
                .map(|k| {
                    u_hi[i]
                        .iter()
                        .zip(&u_lo[k])
                        .map(|(hi, lo)| hi - lo)
                        .collect()
                })
                .collect();
            let lp = max_slack_lp(&polytope, &rows);
            let sol = lp.solve().expect("well-formed LP");
            match sol.status {
                Status::Optimal => (sol.objective >= -1e-9, sol.objective),
                _ => (false, f64::NEG_INFINITY),
            }
        })
        .collect()
}

/// Row-major dominance-interval reference — per-pair allocating polytope
/// optimization, the pre-blocked-sweep formulation.
fn reference_intervals(ctx: &EvalContext) -> Vec<Vec<(f64, f64)>> {
    let (u_lo, u_hi) = ctx.model().bound_utility_matrices();
    let polytope = dominance::weight_polytope_ctx(ctx);
    let n = u_lo.len();
    (0..n)
        .map(|i| {
            (0..n)
                .map(|k| {
                    if i == k {
                        return (0.0, 0.0);
                    }
                    let worst: Vec<f64> =
                        u_lo[i].iter().zip(&u_hi[k]).map(|(a, b)| a - b).collect();
                    let best: Vec<f64> = u_hi[i].iter().zip(&u_lo[k]).map(|(a, b)| a - b).collect();
                    (polytope.minimize(&worst).0, polytope.maximize(&best).0)
                })
                .collect()
        })
        .collect()
}

fn assert_bounds_close(a: &UtilityBounds, b: &UtilityBounds, what: &str) {
    assert!(
        (a.min - b.min).abs() <= ORDERING_EPS
            && (a.avg - b.avg).abs() <= ORDERING_EPS
            && (a.max - b.max).abs() <= ORDERING_EPS,
        "{what}: {a:?} vs {b:?}"
    );
}

/// One differential case: every SoA path against its scalar reference.
fn check_case(seed: u64, max_alts: usize, max_attrs: usize, trials: usize, with_lp: bool) {
    let model = random_model(seed, max_alts, max_attrs);
    let mut ctx = EvalContext::new(model.clone()).expect("valid");
    let n = model.num_alternatives();

    // SoA batch evaluation vs the scalar per-row evaluation.
    let full = ctx.evaluate();
    let order: Vec<usize> = (0..n).rev().collect();
    let batch = ctx.batch_evaluate(model.tree.root(), &order);
    for (pos, &alt) in order.iter().enumerate() {
        assert_bounds_close(&batch[pos], &full.bounds[alt], "batch vs evaluate");
    }

    // Monte Carlo: scalar loop vs batched SoA.
    let config = match seed % 3 {
        0 => MonteCarloConfig::Random,
        1 => MonteCarloConfig::ElicitedIntervals,
        _ => MonteCarloConfig::RankOrder((0..model.num_attributes()).collect()),
    };
    let mc = MonteCarlo::new(config, trials, seed ^ 0xD1FF);
    let scalar = mc.run_scalar_ctx(&ctx);
    let batched = mc.run_ctx(&ctx);
    assert_eq!(
        scalar.rank_counts(),
        batched.rank_counts(),
        "rank counts, seed {seed}"
    );
    for alt in 0..n {
        for rank in 1..=n {
            assert!(
                (scalar.acceptability(alt, rank) - batched.acceptability(alt, rank)).abs()
                    <= ORDERING_EPS,
                "acceptance fraction, seed {seed}"
            );
        }
    }

    // Dominance: blocked column sweep vs the independent row-major
    // per-pair reference.
    let reference = reference_dominance(&ctx);
    assert_eq!(
        dominance::dominance_matrix_ctx(&ctx),
        reference,
        "dominance matrix, seed {seed}"
    );

    // Dominance intervals: blocked sweep + antisymmetry vs the per-pair
    // min/max reference — bit-identical by the sweep's construction.
    let blocked = intensity::dominance_intervals_ctx(&ctx);
    for (i, ri) in reference_intervals(&ctx).into_iter().enumerate() {
        for (k, (min, max)) in ri.into_iter().enumerate() {
            assert_eq!(blocked.get(i, k).min, min, "interval min, seed {seed}");
            assert_eq!(blocked.get(i, k).max, max, "interval max, seed {seed}");
        }
    }

    // Potential optimality (LP-per-alternative; slow suite only):
    // constraint generation with warm row growth vs one cold two-phase LP
    // over every rival per alternative.
    if with_lp {
        let warm_out = potential::potentially_optimal_ctx(&ctx).expect("solver healthy");
        let reference = reference_potential(&ctx);
        for (a, &(optimal, slack)) in warm_out.iter().zip(&reference) {
            assert_eq!(a.potentially_optimal, optimal, "seed {seed}");
            assert!((a.slack - slack).abs() <= 1e-7, "slack, seed {seed}");
        }
    }
}

/// A random weight polytope of dimension 2..8; some weights fixed.
fn random_polytope(rng: &mut StdRng) -> WeightPolytope {
    let n_attr = rng.random_range(2..8);
    let lows: Vec<f64> = (0..n_attr)
        .map(|_| rng.random_range(0.0..0.6 / n_attr as f64))
        .collect();
    let upps: Vec<f64> = lows
        .iter()
        .map(|&l| match rng.random_range(0..4) {
            0 => l,
            _ => (l + rng.random_range(0.2..0.8)).min(1.0),
        })
        .collect();
    WeightPolytope::new(&lows, &upps).unwrap_or_else(|| WeightPolytope::full_simplex(n_attr))
}

/// One warm row-growth differential case: rival rows in `[−1, 1]` (some
/// repeated) appended to one workspace in `chain` batches, each re-solve
/// warm and compared with a cold two-phase solve of the grown program.
fn check_warm_start_case(seed: u64, chain: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let polytope = random_polytope(&mut rng);
    let n_attr = polytope.dim();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut ws = SolverWorkspace::new();
    ws.start(&polytope, &vec![0.0; n_attr]);
    for step in 0..=chain {
        for _ in 0..rng.random_range(1..4) {
            let row = match rows.len() {
                n if n > 0 && rng.random_range(0..4) == 0 => rows[rng.random_range(0..n)].clone(),
                _ => (0..n_attr).map(|_| rng.random_range(-1.0..1.0)).collect(),
            };
            ws.push_row(&row);
            rows.push(row);
        }
        let warm = ws.solve().expect("warm solve healthy");
        let cold = max_slack_lp(&polytope, &rows)
            .solve()
            .expect("cold solve healthy");
        assert_eq!(cold.status, Status::Optimal, "seed {seed} step {step}");
        assert!(
            (cold.objective - warm).abs() <= 1e-7,
            "objective {} vs {warm}, seed {seed} step {step}",
            cold.objective
        );
    }
    let stats = ws.stats();
    assert_eq!((stats.solves, stats.warm_solves), (chain + 1, chain));
    assert_eq!(stats.pivots, stats.warm_pivots + stats.cold_pivots);
}

/// The potential-optimality LP skeleton specifically: per-member
/// difference rows perturbing a shared base, solved over two rows and
/// then grown by the rest in one warm append, against one cold solve of
/// the whole member. Returns how many solves ran warm.
fn check_warm_start_skeleton(seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
    let n_attr = rng.random_range(3..10);
    let lows: Vec<f64> = (0..n_attr)
        .map(|_| rng.random_range(0.0..0.6 / n_attr as f64))
        .collect();
    let upps: Vec<f64> = lows
        .iter()
        .map(|l| (l + rng.random_range(0.2..0.8)).min(1.0))
        .collect();
    let polytope = WeightPolytope::new(&lows, &upps).expect("feasible box");
    // Base difference rows shared by the family; each member perturbs
    // them slightly, like consecutive alternatives' LPs do.
    let base: Vec<Vec<f64>> = (0..n_attr)
        .map(|_| (0..n_attr).map(|_| rng.random_range(-0.6..0.6)).collect())
        .collect();
    let mut ws = SolverWorkspace::new();
    for _ in 0..8 {
        let rows: Vec<Vec<f64>> = base
            .iter()
            .map(|b| {
                b.iter()
                    .map(|v| v + rng.random_range(-0.05..0.05))
                    .collect()
            })
            .collect();
        ws.start(&polytope, &vec![0.0; n_attr]);
        ws.push_row(&rows[0]);
        ws.push_row(&rows[1]);
        ws.solve().expect("cold solve healthy");
        for row in &rows[2..] {
            ws.push_row(row);
        }
        let warm = ws.solve().expect("warm solve healthy");
        let cold = max_slack_lp(&polytope, &rows)
            .solve()
            .expect("cold solve healthy");
        assert_eq!(cold.status, Status::Optimal, "max-slack LPs are feasible");
        assert!(
            (cold.objective - warm).abs() <= 1e-7,
            "{} vs {warm}, seed {seed}",
            cold.objective
        );
    }
    ws.stats().warm_solves
}

/// One random edit applied to an engine and its description: `set_perf`
/// with a scale-valid performance most of the time, `set_weight` with a
/// (possibly infeasible — then skipped) sibling interval occasionally.
fn apply_random_edit(rng: &mut StdRng, engine: &mut gmaa::AnalysisEngine) {
    let n_alts = engine.model().num_alternatives();
    let n_attrs = engine.model().num_attributes();
    if rng.random_range(0..4) < 3 {
        let alt = rng.random_range(0..n_alts);
        let j = rng.random_range(0..n_attrs);
        let attr = AttributeId::from_index(j);
        let perf = match &engine.model().attributes[j].scale {
            Scale::Discrete(s) => Perf::level(rng.random_range(0..s.len())),
            Scale::Continuous(c) => Perf::value(rng.random_range(c.min..=c.max)),
        };
        engine.set_perf(alt, attr, perf).expect("scale-valid edit");
    } else {
        let tree = &engine.model().tree;
        let non_root: Vec<_> = tree
            .descendants(tree.root())
            .into_iter()
            .filter(|&o| o != tree.root())
            .collect();
        if non_root.is_empty() {
            return;
        }
        let objective = non_root[rng.random_range(0..non_root.len())];
        let mid: f64 = rng.random_range(0.1..0.6);
        let d: f64 = rng.random_range(0.05..0.3);
        // Infeasible sibling combinations are legitimately rejected and
        // must leave the engine state (and its caches) untouched.
        let _ = engine.set_weight(
            objective,
            Interval::new(mid - d.min(mid), (mid + d).min(1.0)),
        );
    }
}

/// One edit-sequence differential case: `edits` random `set_perf` /
/// `set_weight` edits against one engine, asserting after every edit that
/// the incremental discard cycle (pair-level interval update + selective
/// LP re-certification) equals a cold
/// engine's full recompute on the mutated model — dominance verdicts and
/// intensity ranking bit-for-bit, potential-optimality verdicts exactly,
/// slacks to the certification tolerance. Every `check_every` edits (and
/// once at the end) the full `analyze_incremental()` bundle is compared
/// against a cold `analyze()` too.
fn check_edit_sequence_case(seed: u64, edits: usize, check_every: usize) {
    check_edit_sequence_on(random_model(seed, 14, 8), seed, edits, check_every);
}

/// The edit-sequence differential against an arbitrary starting model
/// (hand-rolled random or generator family).
fn check_edit_sequence_on(model: DecisionModel, seed: u64, edits: usize, check_every: usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xED17);
    let mut engine = gmaa::AnalysisEngine::new(model).expect("valid");
    engine.set_mc_trials(60).unwrap();
    // Prime the incremental cache mid-history (not at a clean start) for
    // odd seeds, so both "cache exists" and "no cache yet" first-calls run.
    if seed % 2 == 1 {
        engine.discard_cycle_incremental().expect("solver healthy");
    }

    for step in 0..edits {
        apply_random_edit(&mut rng, &mut engine);
        let incr = engine.discard_cycle_incremental().expect("solver healthy");

        let cold_engine = gmaa::AnalysisEngine::new(engine.model().clone()).expect("valid");
        let full = cold_engine.discard_cycle().expect("solver healthy");
        assert_eq!(
            incr.non_dominated, full.non_dominated,
            "dominance, seed {seed} step {step}"
        );
        assert_eq!(
            incr.intensity, full.intensity,
            "intensity ranking, seed {seed} step {step}"
        );
        assert_eq!(incr.potential.len(), full.potential.len());
        for (a, b) in incr.potential.iter().zip(&full.potential) {
            assert_eq!(
                a.potentially_optimal, b.potentially_optimal,
                "potential set, seed {seed} step {step}: {a:?} vs {b:?}"
            );
            assert!(
                (a.slack - b.slack).abs() <= 1e-7,
                "slack, seed {seed} step {step}: {a:?} vs {b:?}"
            );
        }

        if (step + 1) % check_every == 0 || step + 1 == edits {
            let analysis = engine.analyze_incremental().expect("solver healthy");
            let mut cold = gmaa::AnalysisEngine::new(engine.model().clone()).expect("valid");
            cold.set_mc_trials(engine.mc_trials()).unwrap();
            let reference = cold.analyze().expect("solver healthy");
            assert_eq!(
                analysis.evaluation, reference.evaluation,
                "evaluation, seed {seed} step {step}"
            );
            assert_eq!(analysis.non_dominated, reference.non_dominated);
            assert_eq!(analysis.intensity, reference.intensity);
            assert_eq!(
                analysis.monte_carlo.rank_counts(),
                reference.monte_carlo.rank_counts(),
                "monte carlo, seed {seed} step {step}"
            );
        }
    }
}

/// Warm ≡ cold differential on one generator family member: the
/// blocked-sweep dominance matrix and the constraint-generation potential
/// optimality pass against the row-major / cold-LP references, plus
/// batch evaluation vs the scalar path. The generator families sweep the
/// difficulty surface (size, depth, band width, weight tightness) that
/// `random_model` only samples accidentally, including the adversarial
/// presets.
fn check_generated_family_case(cfg: &gmaa_gen::GenConfig, with_lp: bool) {
    let label = cfg.label();
    let model = gmaa_gen::generate(cfg);
    let mut ctx = EvalContext::new(model.clone()).expect("valid");
    let n = model.num_alternatives();

    let full = ctx.evaluate();
    let order: Vec<usize> = (0..n).rev().collect();
    let batch = ctx.batch_evaluate(model.tree.root(), &order);
    for (pos, &alt) in order.iter().enumerate() {
        assert_bounds_close(&batch[pos], &full.bounds[alt], &format!("batch, {label}"));
    }

    let reference = reference_dominance(&ctx);
    assert_eq!(
        dominance::dominance_matrix_ctx(&ctx),
        reference,
        "dominance matrix, {label}"
    );

    if with_lp {
        // Warm ≡ cold: constraint generation with warm row growth vs one
        // cold two-phase LP over every rival per alternative.
        let warm_out = potential::potentially_optimal_ctx(&ctx).expect("solver healthy");
        let reference = reference_potential(&ctx);
        for (a, &(optimal, slack)) in warm_out.iter().zip(&reference) {
            assert_eq!(a.potentially_optimal, optimal, "potential set, {label}");
            assert!(
                (a.slack - slack).abs() <= 1e-7,
                "slack, {label}: {} vs {slack}",
                a.slack
            );
        }
    }
}

/// Incremental ≡ full over a generator family member: random edit
/// sequence with per-edit comparison against a cold full recompute.
fn check_generated_family_edits(cfg: &gmaa_gen::GenConfig, edits: usize, check_every: usize) {
    check_edit_sequence_on(
        gmaa_gen::generate(cfg),
        cfg.seed ^ 0x6E9,
        edits,
        check_every,
    );
}

#[test]
fn generated_families_warm_cold_and_incremental_fast() {
    for family in gmaa_gen::Family::ALL {
        for seed in 1..=2 {
            let cfg = gmaa_gen::GenConfig::preset(family, 18, 7, seed);
            check_generated_family_case(&cfg, true);
            check_generated_family_edits(&cfg, 4, 2);
        }
    }
}

#[test]
#[ignore = "slow generator-family differential; CI runs it via --include-ignored"]
fn generated_families_warm_cold_large_sweep() {
    for family in gmaa_gen::Family::ALL {
        for seed in 0..4 {
            check_generated_family_case(&gmaa_gen::GenConfig::preset(family, 80, 10, seed), true);
        }
    }
}

#[test]
#[ignore = "slow generator-family edit histories; CI runs it via --include-ignored"]
fn generated_families_incremental_long_histories() {
    for family in gmaa_gen::Family::ALL {
        for seed in 0..2 {
            check_generated_family_edits(&gmaa_gen::GenConfig::preset(family, 40, 9, seed), 10, 5);
        }
    }
}

#[test]
fn full_certification_does_not_depend_on_solve_history() {
    // Every alternative's LP starts from the closed form and keeps no
    // state for the next one, so a second pass on the same context and a
    // pass on a fresh context agree with the first bit for bit.
    for family in [
        gmaa_gen::Family::Mixed,
        gmaa_gen::Family::Flat,
        gmaa_gen::Family::NearDegenerate,
    ] {
        let cfg = gmaa_gen::GenConfig::preset(family, 72, 8, 5);
        let label = cfg.label();
        let ctx = EvalContext::new(gmaa_gen::generate(&cfg)).expect("valid");
        let first = potential::certify_ctx(&ctx).expect("solver healthy");
        let again = potential::certify_ctx(&ctx).expect("solver healthy");
        let fresh = EvalContext::new(ctx.model().clone()).expect("valid");
        let cold = potential::certify_ctx(&fresh).expect("solver healthy");
        assert!(first == again && first == cold, "{label}");
    }
}

#[test]
fn edit_sequence_differential_16_models() {
    for seed in 0..16 {
        check_edit_sequence_case(seed, 6, 3);
    }
}

#[test]
#[ignore = "slow edit-sequence differential; CI runs it via --include-ignored"]
fn edit_sequence_differential_64_models_long_histories() {
    for seed in 0..64 {
        check_edit_sequence_case(seed, 14, 7);
    }
}

#[test]
fn warm_start_lp_differential_64_families() {
    for seed in 0..64 {
        check_warm_start_case(seed, 6);
    }
}

#[test]
fn warm_start_skeleton_families_engage_and_agree() {
    let warm: usize = (0..32).map(check_warm_start_skeleton).sum();
    // 32 families × 8 members: every grown member re-solves warm.
    assert_eq!(warm, 256);
}

#[test]
#[ignore = "slow warm row-growth differential; CI runs it via --include-ignored"]
fn warm_start_lp_differential_256_families() {
    for seed in 0..256 {
        check_warm_start_case(seed, 12);
    }
}

#[test]
fn differential_suite_64_random_models() {
    for seed in 0..64 {
        check_case(seed, 18, 9, 120, false);
    }
}

#[test]
fn paper_model_scalar_and_batched_agree_across_threads() {
    let ctx = EvalContext::new(neon_reuse::paper_model().model).expect("valid");
    let mc = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 2_000, 20120402);
    let scalar = mc.run_scalar_ctx(&ctx);
    let run = mc.run_ctx(&ctx);
    assert_eq!(scalar.rank_counts(), run.rank_counts());
    assert_eq!(scalar.mean_ranks(), run.mean_ranks());
}

#[test]
fn set_perf_reaches_the_soa_columns_before_batch_evaluate() {
    // The dirty-column regression: a stale SoA would serve pre-mutation
    // utilities to every batch path.
    let mut ctx = EvalContext::new(neon_reuse::paper_model().model).expect("valid");
    let root = ctx.model().tree.root();
    let all: Vec<usize> = (0..23).collect();
    let attr = ctx.model().find_attribute("doc_quality").expect("exists");
    ctx.set_perf(3, attr, Perf::level(3)).expect("valid");
    let batch = ctx.batch_evaluate(root, &all);
    let fresh = EvalContext::new(ctx.model().clone()).expect("valid");
    let fresh_soa = fresh.soa();
    assert_eq!(
        ctx.soa(),
        fresh_soa,
        "SoA columns out of sync after set_perf"
    );
    let mut fresh = fresh;
    let fresh_batch = fresh.batch_evaluate(root, &all);
    assert_eq!(batch, fresh_batch);
}

#[test]
fn soa_columns_equal_the_model_bands_after_set_perf_histories() {
    // Every cell of the only band matrix against the model's own
    // `utility_band`, bit for bit: at construction and after a seeded
    // `set_perf` history. Comparing against a second context would share
    // the constructor under test.
    let assert_cells = |ctx: &EvalContext, what: &str| {
        let (model, soa) = (ctx.model(), ctx.soa());
        for i in 0..model.num_alternatives() {
            for j in 0..model.num_attributes() {
                let band = model.utility_band(i, AttributeId::from_index(j));
                let cell = [soa.lo(i, j), soa.mid(i, j), soa.hi(i, j)];
                assert_eq!(
                    cell.map(f64::to_bits),
                    [band.lo(), band.mid(), band.hi()].map(f64::to_bits),
                    "cell ({i}, {j}), {what}"
                );
            }
        }
    };
    for family in gmaa_gen::Family::ALL {
        let cfg = gmaa_gen::GenConfig::preset(family, 24, 9, 7);
        let mut ctx = EvalContext::new(gmaa_gen::generate(&cfg)).expect("valid");
        assert_cells(&ctx, &format!("{} as built", cfg.label()));
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x50A);
        for _ in 0..60 {
            let alt = rng.random_range(0..ctx.model().num_alternatives());
            let j = rng.random_range(0..ctx.model().num_attributes());
            let perf = match &ctx.model().attributes[j].scale {
                _ if rng.random_range(0..10) == 0 => Perf::Missing,
                Scale::Discrete(s) => Perf::level(rng.random_range(0..s.len())),
                Scale::Continuous(c) => Perf::value(rng.random_range(c.min..=c.max)),
            };
            ctx.set_perf(alt, AttributeId::from_index(j), perf)
                .expect("scale-valid edit");
        }
        assert_cells(&ctx, &format!("{} after edits", cfg.label()));
    }
}

#[test]
#[ignore = "slow differential suite; CI runs it via --include-ignored"]
fn differential_suite_256_random_models_with_lp() {
    for seed in 0..256 {
        let with_lp = seed % 4 == 0;
        check_case(seed, 30, 12, 400, with_lp);
    }
}
