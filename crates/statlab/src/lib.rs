//! # statlab
//!
//! Statistics substrate for Monte Carlo sensitivity analysis:
//!
//! * [`describe`] — descriptive statistics (mean, std, mode, percentiles,
//!   five-number summaries) matching the columns of the paper's Fig 10;
//! * [`boxplot`] — boxplot construction (quartiles, whiskers, outliers) and a
//!   text renderer for the "multiple boxplot" display of Fig 9;
//! * [`sampling`] — the three weight-generation schemes offered by the GMAA
//!   system (Section V): uniform on the simplex, rank-order preserving, and
//!   elicited-interval constrained;
//! * [`rank`] — ranking with ties, rank-frequency accumulators, and rank
//!   correlation (Spearman / Kendall) used by the calibration tests.
//!
//! Everything is deterministic given a seeded RNG; no global RNG state is
//! used anywhere.

pub mod boxplot;
pub mod convergence;
pub mod describe;
pub mod rank;
pub mod sampling;

pub use boxplot::{Boxplot, MultipleBoxplot};
pub use convergence::ConvergenceTracker;
pub use describe::{describe_counts, percentile, Describe};
pub use rank::{
    kendall_tau, rank_vector, spearman_rho, PairOrder, RankAccumulator, RankStats, RankWindows,
    TieBreak, RANK_LANES,
};
pub use sampling::{
    uniform_simplex, uniform_simplex_into, AttemptLog, SimplexSampler, WeightScheme,
};
