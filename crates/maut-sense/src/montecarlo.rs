//! Monte Carlo simulation over attribute weights (paper Section V,
//! Figs 9–10).
//!
//! GMAA offers three classes of simulation:
//!
//! 1. weights generated **completely at random** (uniform on the simplex);
//! 2. weights preserving a **total or partial rank order** of importance;
//! 3. weights drawn inside the **elicited weight intervals**.
//!
//! Component utilities stay at their band midpoints ("simultaneous changes
//! can be made to the weights", the utilities' imprecision being explored by
//! the other analyses). Each trial ranks all alternatives; per-alternative
//! rank statistics (mode, min, max, mean, std, quartiles — Fig 10) and the
//! multiple boxplot (Fig 9) summarize the runs.
//!
//! ## The hot loop
//!
//! [`MonteCarlo::run_ctx`] is the batched path: weight vectors are drawn
//! *sequentially* from the single seeded RNG into a flat sample buffer
//! (identical stream to the scalar path, draw for draw), then each batch is
//! scored against the columnar [`maut::BandMatrixSoA`] and ranked with
//! reused scratch buffers — optionally fanned out over
//! [`MonteCarlo::threads`] scoped workers whose integer rank counts merge
//! order-independently. The result is therefore **identical** for the
//! scalar reference ([`MonteCarlo::run_scalar_ctx`]), one thread, or N
//! threads; `tests/soa_equivalence.rs` locks that down differentially.

use maut::weights::AttributeWeights;
use maut::{par, EvalContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use statlab::{
    Boxplot, MultipleBoxplot, RankAccumulator, RankScratch, RankStats, SimplexSampler, WeightScheme,
};

/// Trials per sample batch: bounds buffer memory (a batch holds
/// `BATCH_TRIALS × n_attrs` weights) while amortizing per-batch setup.
const BATCH_TRIALS: usize = 4096;

/// Minimum trials each scoped worker must receive before the fan-out pays
/// for the spawns.
const PAR_MIN_TRIALS: usize = 512;

/// Up to this many alternatives, scoring and ranking run on the blocked
/// transposed kernels (trials in the SIMD lanes, O(n²)-per-trial rank
/// counting); beyond it the per-trial sorting path wins. Both produce
/// identical rank counts.
const DENSE_RANK_MAX: usize = 64;

/// Trials per transposed sub-block — exactly the width of the
/// register-blocked kernels ([`maut::soa::SCORE_LANES`] /
/// [`statlab::RANK_LANES`]); trailing partial blocks fall back to the
/// dynamic kernels with identical results.
const BLOCK_TRIALS: usize = maut::soa::SCORE_LANES;
const _: () = assert!(BLOCK_TRIALS == statlab::RANK_LANES, "kernel widths agree");

/// Which of the three GMAA simulation classes to run.
#[derive(Debug, Clone, PartialEq)]
pub enum MonteCarloConfig {
    /// Class 1: uniform over the whole simplex.
    Random,
    /// Class 2a: total rank order of attribute importance (attribute ids,
    /// most important first).
    RankOrder(Vec<usize>),
    /// Class 2b: partial rank order (groups of equally-important
    /// attributes, most important group first).
    PartialRankOrder(Vec<Vec<usize>>),
    /// Class 3: within the model's elicited (flattened) weight intervals.
    ElicitedIntervals,
}

/// Result of a simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonteCarloResult {
    /// Trials simulated.
    pub trials: usize,
    /// Per-alternative rank statistics, in model order.
    pub stats: Vec<RankStats>,
    accumulator: RankAccumulator,
}

impl MonteCarloResult {
    /// Rank-acceptability index: share of trials where `alt` took `rank`
    /// (1-based).
    pub fn acceptability(&self, alt: usize, rank: usize) -> f64 {
        self.accumulator.acceptability(alt, rank)
    }

    /// Alternatives that ranked first in *every* trial (the paper finds two:
    /// Media Ontology and Boemie VDO are the only candidates ever ranked
    /// best across all 10 000 simulations).
    pub fn always_rank_one(&self) -> Vec<usize> {
        self.stats
            .iter()
            .enumerate()
            .filter(|(_, s)| s.max == 1)
            .map(|(i, _)| i)
            .collect()
    }

    /// Alternatives that ranked first in at least one trial.
    pub fn ever_rank_one(&self) -> Vec<usize> {
        self.stats
            .iter()
            .enumerate()
            .filter(|(_, s)| s.min == 1)
            .map(|(i, _)| i)
            .collect()
    }

    /// Largest rank fluctuation (max − min) among the `k` best alternatives
    /// by mean rank — the paper: *"the rankings for the best five MM
    /// ontologies fluctuate by at most two positions"*.
    pub fn fluctuation_of_top(&self, k: usize) -> u32 {
        let mut order: Vec<usize> = (0..self.stats.len()).collect();
        // total_cmp: a NaN mean (empty/corrupt stats) must sort last and
        // be ignored rather than panic — or, as a masking comparator
        // would, silently rank the NaN alternative among the best.
        order.sort_by(|&a, &b| self.stats[a].mean.total_cmp(&self.stats[b].mean));
        order
            .into_iter()
            .take(k)
            .map(|i| self.stats[i].max - self.stats[i].min)
            .max()
            .unwrap_or(0)
    }

    /// The Fig 9 multiple boxplot over rank samples.
    pub fn boxplots(&self) -> MultipleBoxplot {
        let mut m = MultipleBoxplot::new();
        for (i, s) in self.stats.iter().enumerate() {
            let sample = self.accumulator.rank_sample(i);
            m.push(Boxplot::new(s.label.clone(), &sample).expect("non-empty sample"));
        }
        m
    }

    /// Mean rank per alternative, model order.
    pub fn mean_ranks(&self) -> Vec<f64> {
        self.stats.iter().map(|s| s.mean).collect()
    }

    /// The raw ranking-frequency matrix: `rank_counts()[alt][rank-1]` =
    /// number of trials where `alt` took `rank`. The differential tests
    /// compare this exactly across the scalar / batched / threaded paths.
    pub fn rank_counts(&self) -> &[Vec<usize>] {
        self.accumulator.counts()
    }
}

/// The simulation driver.
///
/// # Example
///
/// ```
/// use maut::prelude::*;
/// use maut_sense::{MonteCarlo, MonteCarloConfig};
///
/// let mut b = DecisionModelBuilder::new("demo");
/// let x = b.discrete_attribute("x", "X", &["bad", "good"]);
/// let y = b.discrete_attribute("y", "Y", &["bad", "good"]);
/// b.attach_attributes_to_root(&[(x, Interval::new(0.3, 0.7)), (y, Interval::new(0.3, 0.7))]);
/// b.alternative("winner", vec![Perf::level(1), Perf::level(1)]);
/// b.alternative("loser", vec![Perf::level(0), Perf::level(0)]);
/// let ctx = EvalContext::new(b.build().unwrap()).unwrap();
/// let result = MonteCarlo::new(MonteCarloConfig::Random, 500, 42).run_ctx(&ctx);
/// assert_eq!(result.stats[0].times_best, 500);
/// ```
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    /// Which weight-generation class to simulate.
    pub config: MonteCarloConfig,
    /// Number of weight-sampling trials.
    pub trials: usize,
    /// RNG seed (results are a pure function of config + trials + seed).
    pub seed: u64,
    /// Scoring workers for [`MonteCarlo::run_ctx`]: `0` = one per core,
    /// `1` = single-threaded. Any value yields identical results — weight
    /// generation stays on one sequential RNG stream and the per-worker
    /// rank counts merge order-independently.
    pub threads: usize,
}

impl MonteCarlo {
    /// A simulation with one scoring worker per core (`threads: 0`; see
    /// [`MonteCarlo::with_threads`]); panics on zero trials.
    pub fn new(config: MonteCarloConfig, trials: usize, seed: u64) -> MonteCarlo {
        assert!(trials > 0, "need at least one trial");
        MonteCarlo {
            config,
            trials,
            seed,
            threads: 0,
        }
    }

    /// Builder-style worker-count override (see the `threads` field).
    pub fn with_threads(mut self, threads: usize) -> MonteCarlo {
        self.threads = threads;
        self
    }

    /// The paper's headline run: 10 000 trials within elicited intervals.
    pub fn paper_default() -> MonteCarlo {
        MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 10_000, 20120402)
    }

    fn sampler(&self, n: usize, weights: &AttributeWeights) -> SimplexSampler {
        match &self.config {
            MonteCarloConfig::Random => SimplexSampler::new(n, WeightScheme::Uniform),
            MonteCarloConfig::RankOrder(order) => SimplexSampler::new(
                n,
                WeightScheme::RankOrder {
                    order: order.clone(),
                },
            ),
            MonteCarloConfig::PartialRankOrder(groups) => SimplexSampler::new(
                n,
                WeightScheme::PartialRankOrder {
                    groups: groups.clone(),
                },
            ),
            MonteCarloConfig::ElicitedIntervals => SimplexSampler::new(
                n,
                WeightScheme::Intervals {
                    lower: weights.lows(),
                    upper: weights.upps(),
                },
            ),
        }
    }

    /// Run the simulation against a shared evaluation context — the batched
    /// hot path: sequential weight generation into a flat sample buffer,
    /// columnar scoring against [`EvalContext::soa`], scratch-reusing rank
    /// accumulation, and an optional scoped-thread fan-out (see
    /// [`MonteCarlo::threads`]). Produces exactly the same result as
    /// [`MonteCarlo::run_scalar_ctx`] for any worker count.
    pub fn run_ctx(&self, ctx: &EvalContext) -> MonteCarloResult {
        let n_attrs = ctx.model().num_attributes();
        let sampler = self.sampler(n_attrs, ctx.weights());
        let soa = ctx.soa();
        let names = &ctx.model().alternatives;
        let n_alts = soa.n_alternatives();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut acc = RankAccumulator::new(names.clone());
        let mut samples = vec![0.0; BATCH_TRIALS.min(self.trials) * n_attrs];
        let mut done = 0usize;
        while done < self.trials {
            let batch = BATCH_TRIALS.min(self.trials - done);
            for chunk in samples[..batch * n_attrs].chunks_exact_mut(n_attrs) {
                sampler.sample_into(&mut rng, chunk);
            }
            let samples = &samples[..batch * n_attrs];
            let parts = par::map_ranges(batch, self.threads, PAR_MIN_TRIALS, |range| {
                let mut local = RankAccumulator::new(names.clone());
                let worker = &samples[range.start * n_attrs..range.end * n_attrs];
                if n_alts <= DENSE_RANK_MAX {
                    // Blocked transposed pipeline: put trials in the SIMD
                    // lanes. Per sub-block, flip the samples to
                    // attribute-major, score all alternatives with one
                    // broadcast-axpy per (alternative, attribute) cell,
                    // and count ranks pair-major — bit-identical to the
                    // per-trial path (same per-trial accumulation order).
                    let mut samples_t = vec![0.0; BLOCK_TRIALS * n_attrs];
                    let mut scores_t = vec![0.0; BLOCK_TRIALS * n_alts];
                    for chunk in worker.chunks(BLOCK_TRIALS * n_attrs) {
                        let block = chunk.len() / n_attrs;
                        for (t, sample) in chunk.chunks_exact(n_attrs).enumerate() {
                            for (j, &w) in sample.iter().enumerate() {
                                samples_t[j * block + t] = w;
                            }
                        }
                        soa.score_block_transposed(
                            &samples_t[..block * n_attrs],
                            block,
                            &mut scores_t[..block * n_alts],
                        );
                        local.record_scores_transposed(&scores_t[..block * n_alts], block);
                    }
                } else {
                    let mut scores = vec![0.0; n_alts];
                    let mut scratch = RankScratch::default();
                    for sample in worker.chunks_exact(n_attrs) {
                        soa.score_into(sample, &mut scores);
                        local.record_scores_with(&scores, &mut scratch);
                    }
                }
                local
            });
            for part in &parts {
                acc.merge(part);
            }
            done += batch;
        }
        MonteCarloResult {
            trials: self.trials,
            stats: acc.stats(),
            accumulator: acc,
        }
    }

    /// The scalar reference path: one weight vector drawn and scored at a
    /// time against a row-major midpoint matrix rebuilt from the model
    /// ([`maut::DecisionModel::avg_utility_matrix`]), so it shares no
    /// storage with the context's columns. Kept (and exercised by the
    /// differential suite) as the ground truth the batched path must
    /// reproduce; prefer [`MonteCarlo::run_ctx`] everywhere else.
    pub fn run_scalar_ctx(&self, ctx: &EvalContext) -> MonteCarloResult {
        self.run_core(
            ctx.model().num_attributes(),
            ctx.weights(),
            &ctx.model().avg_utility_matrix(),
            &ctx.model().alternatives,
        )
    }

    fn run_core(
        &self,
        n_attrs: usize,
        weights: &AttributeWeights,
        matrix: &[Vec<f64>],
        names: &[String],
    ) -> MonteCarloResult {
        let sampler = self.sampler(n_attrs, weights);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut acc = RankAccumulator::new(names.to_vec());
        for _ in 0..self.trials {
            let w = sampler.sample(&mut rng);
            let scores: Vec<f64> = matrix
                .iter()
                .map(|row| row.iter().zip(&w).map(|(u, wi)| u * wi).sum())
                .collect();
            acc.record_scores(&scores);
        }
        MonteCarloResult {
            trials: self.trials,
            stats: acc.stats(),
            accumulator: acc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maut::prelude::*;

    fn ctx(m: &DecisionModel) -> EvalContext {
        EvalContext::new(m.clone()).expect("valid model")
    }

    fn model() -> DecisionModel {
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["0", "1", "2", "3"]);
        let y = b.discrete_attribute("y", "Y", &["0", "1", "2", "3"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.3, 0.6)), (y, Interval::new(0.4, 0.7))]);
        b.alternative("top", vec![Perf::level(3), Perf::level(3)]);
        b.alternative("spiky-x", vec![Perf::level(3), Perf::level(0)]);
        b.alternative("spiky-y", vec![Perf::level(0), Perf::level(3)]);
        b.alternative("bottom", vec![Perf::level(0), Perf::level(0)]);
        b.build().unwrap()
    }

    #[test]
    fn dominant_alternative_always_first() {
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 500, 7);
        let r = mc.run_ctx(&ctx(&model()));
        assert_eq!(r.always_rank_one(), vec![0]);
        assert_eq!(r.stats[0].times_best, 500);
        assert_eq!(r.stats[3].mode, 4);
    }

    #[test]
    fn acceptability_indices_sum_to_one() {
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 200, 3);
        let r = mc.run_ctx(&ctx(&model()));
        for alt in 0..4 {
            let total: f64 = (1..=4).map(|rank| r.acceptability(alt, rank)).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn spiky_alternatives_swap_under_random_weights() {
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 2000, 11);
        let r = mc.run_ctx(&ctx(&model()));
        // Both spiky alternatives take rank 2 sometimes and rank 3 others.
        assert!(r.acceptability(1, 2) > 0.1);
        assert!(r.acceptability(1, 3) > 0.1);
        assert!(r.acceptability(2, 2) > 0.1);
        assert!(r.acceptability(2, 3) > 0.1);
    }

    #[test]
    fn rank_order_scheme_biases_results() {
        // Force x most important: spiky-x should sit at rank 2 nearly always.
        let mc = MonteCarlo::new(MonteCarloConfig::RankOrder(vec![0, 1]), 1000, 13);
        let r = mc.run_ctx(&ctx(&model()));
        assert!(r.acceptability(1, 2) > 0.95, "{}", r.acceptability(1, 2));
    }

    #[test]
    fn interval_scheme_respects_elicited_bounds() {
        let m = model();
        let mc = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 500, 17);
        let r = mc.run_ctx(&ctx(&m));
        // y's weight never drops below 0.4, so spiky-y beats spiky-x in the
        // worst case only when w_y < 0.5 — possible but the mean rank of
        // spiky-y must be no worse than spiky-x's.
        assert!(r.stats[2].mean <= r.stats[1].mean + 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let c = ctx(&model());
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 100, 99);
        let a = mc.run_ctx(&c);
        let b = mc.run_ctx(&c);
        assert_eq!(a.mean_ranks(), b.mean_ranks());
    }

    #[test]
    fn boxplots_cover_all_alternatives() {
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 100, 5);
        let r = mc.run_ctx(&ctx(&model()));
        let plots = r.boxplots();
        assert_eq!(plots.plots.len(), 4);
        assert!(!plots.render(60).is_empty());
    }

    #[test]
    fn fluctuation_of_top_is_bounded_by_n() {
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 300, 23);
        let r = mc.run_ctx(&ctx(&model()));
        assert!(r.fluctuation_of_top(2) <= 3);
        // top alternative never moves
        let mut order: Vec<usize> = (0..4).collect();
        order.sort_by(|&a, &b| r.stats[a].mean.total_cmp(&r.stats[b].mean));
        assert_eq!(order[0], 0);
    }

    #[test]
    fn partial_rank_order_runs() {
        let mc = MonteCarlo::new(MonteCarloConfig::PartialRankOrder(vec![vec![0, 1]]), 50, 31);
        let r = mc.run_ctx(&ctx(&model()));
        assert_eq!(r.trials, 50);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        MonteCarlo::new(MonteCarloConfig::Random, 0, 1);
    }

    #[test]
    fn batched_path_matches_scalar_reference_exactly() {
        let c = ctx(&model());
        for config in [
            MonteCarloConfig::Random,
            MonteCarloConfig::RankOrder(vec![1, 0]),
            MonteCarloConfig::PartialRankOrder(vec![vec![0, 1]]),
            MonteCarloConfig::ElicitedIntervals,
        ] {
            let mc = MonteCarlo::new(config, 700, 42).with_threads(1);
            let scalar = mc.run_scalar_ctx(&c);
            let batched = mc.run_ctx(&c);
            assert_eq!(scalar.rank_counts(), batched.rank_counts());
            assert_eq!(scalar.mean_ranks(), batched.mean_ranks());
        }
    }

    #[test]
    fn same_seed_same_ranking_frequency_matrix_across_thread_counts() {
        // The deterministic-RNG guarantee: one sequential sample stream,
        // order-independent count merges — so 1, 2, 8 or auto workers (and
        // batch boundaries in between) all reproduce the same matrix.
        let c = ctx(&model());
        let mc = MonteCarlo::new(MonteCarloConfig::ElicitedIntervals, 1500, 77);
        let reference = mc.clone().with_threads(1).run_ctx(&c);
        assert_eq!(reference.rank_counts(), mc.run_scalar_ctx(&c).rank_counts());
        for threads in [0, 2, 3, 8] {
            let run = mc.clone().with_threads(threads).run_ctx(&c);
            assert_eq!(
                reference.rank_counts(),
                run.rank_counts(),
                "{threads} threads"
            );
            assert_eq!(reference.mean_ranks(), run.mean_ranks());
        }
    }

    #[test]
    fn rank_counts_rows_sum_to_trials() {
        let r = MonteCarlo::new(MonteCarloConfig::Random, 250, 1).run_ctx(&ctx(&model()));
        for row in r.rank_counts() {
            assert_eq!(row.iter().sum::<usize>(), 250);
        }
    }

    #[test]
    fn wide_models_take_the_sorting_branch_and_still_agree() {
        // More alternatives than DENSE_RANK_MAX: run_ctx switches to the
        // per-trial sorting path, which must match the scalar reference
        // exactly too (and across thread counts).
        let mut b = DecisionModelBuilder::new("wide");
        let x = b.discrete_attribute("x", "X", &["0", "1", "2", "3"]);
        let y = b.discrete_attribute("y", "Y", &["0", "1", "2", "3"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.3, 0.7)), (y, Interval::new(0.3, 0.7))]);
        for i in 0..(DENSE_RANK_MAX + 6) {
            b.alternative(
                format!("a{i:03}"),
                vec![Perf::level(i % 4), Perf::level((i / 4) % 4)],
            );
        }
        let c = EvalContext::new(b.build().unwrap()).unwrap();
        // Enough trials that a multi-worker request actually fans out
        // (PAR_MIN_TRIALS per worker) on the sorting branch.
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 2 * PAR_MIN_TRIALS + 100, 5);
        let scalar = mc.run_scalar_ctx(&c);
        for threads in [1usize, 4] {
            let batched = mc.clone().with_threads(threads).run_ctx(&c);
            assert_eq!(
                scalar.rank_counts(),
                batched.rank_counts(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn batch_boundaries_do_not_change_results() {
        // More trials than one sample batch holds: the scalar reference
        // and the multi-batch path must still agree exactly.
        let c = ctx(&model());
        let mc = MonteCarlo::new(MonteCarloConfig::Random, 5000, 3);
        assert_eq!(
            mc.run_scalar_ctx(&c).rank_counts(),
            mc.run_ctx(&c).rank_counts()
        );
    }
}
