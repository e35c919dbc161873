//! # maut-sense
//!
//! Sensitivity analyses for imprecise additive MAUT models — the Section V
//! toolbox of *"A MAUT Approach for Reusing Ontologies"*:
//!
//! * [`stability`] — **weight stability intervals**: how far an objective's
//!   average normalized weight can move (siblings rescaled) without changing
//!   the best alternative / the whole ranking (paper Fig 8);
//! * [`dominance`] — pairwise **dominance** under imprecise weights and
//!   utilities, via exact optimization over the weight polytope
//!   (refs \[23\]–\[25\]), read off the shared interval matrix;
//! * [`potential`] — **potentially optimal** alternatives: those that are
//!   best for at least one admissible combination of weights and component
//!   utilities (the paper discards 3 of its 23 candidates this way), solved
//!   as one max-slack linear program per alternative on the context's
//!   shared [`simplex_lp::SolverWorkspace`], grown warm by constraint
//!   generation;
//! * [`intensity`] — the pairwise **dominance intervals** as one flat
//!   matrix (a blocked sweep over the columnar band matrix, updated in
//!   place after edits) and the **dominance intensity** ranking of
//!   ref \[25\] derived from it;
//! * [`montecarlo`] — **Monte Carlo simulation** over weights with the three
//!   GMAA generation classes (random / rank-order / elicited intervals),
//!   producing the rank statistics and multiple boxplot of Figs 9–10.
//!
//! All analyses consume a shared [`maut::EvalContext`] (the `*_ctx` entry
//! points) so the component-utility matrices, weight bounds, polytope and
//! LP workspace are derived once per model instead of once per analysis.
//! Everything is deterministic given a caller-provided seed. The
//! LP-backed analyses return `Result<_, LpError>`: infeasibility and
//! unboundedness are legitimate outcomes folded into the verdicts, so the
//! error arm only fires on solver breakdown (the pivot iteration cap).

#![warn(missing_docs)]

pub mod dominance;
pub mod intensity;
pub mod montecarlo;
pub mod potential;
pub mod stability;

pub use dominance::{dominance_matrix_ctx, non_dominated_ctx, DominanceOutcome};
pub use intensity::{
    dominance_intervals_ctx, intensity_ranking_ctx, DominanceInterval, IntensityRank,
    IntervalMatrix,
};
pub use montecarlo::{MonteCarlo, MonteCarloCache, MonteCarloConfig, MonteCarloResult};
pub use potential::{
    certify_ctx, certify_incremental_ctx, discarded_ctx, potentially_optimal_ctx, PotentialCert,
    PotentialOutcome,
};
pub use simplex_lp;
pub use simplex_lp::{LpError, SolveStats};
pub use stability::{stability_interval_ctx, StabilityMode, StabilityReport};
