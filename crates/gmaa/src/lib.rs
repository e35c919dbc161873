//! # gmaa
//!
//! The user-facing facade of the reproduction — the counterpart of the
//! **GMAA** (Generic Multi-Attribute Analysis) PC-based decision support
//! system the paper applies to ontology selection.
//!
//! Where the original is a Windows GUI, this crate exposes the same
//! capabilities as a library:
//!
//! * [`engine::AnalysisEngine`] — **the single entry point**: one handle
//!   bundling a decision model with every evaluation and sensitivity
//!   analysis of the paper (Figs 6–10), all sharing one precomputed
//!   [`maut::EvalContext`], plus incremental `set_perf` / `set_weight`
//!   what-if mutation;
//! * [`report`] — text renderers that regenerate each figure as an ASCII
//!   artifact (hierarchy, consequences, utilities, weights, rankings,
//!   stability intervals, Monte Carlo boxplots and statistics);
//! * [`workspace`] — save/load of decision models as JSON ("Current
//!   Workspace: Multimedia" in the paper's Fig 1 screenshot).
//!
//! ## Quick start
//!
//! ```
//! use gmaa::AnalysisEngine;
//! use maut::Perf;
//!
//! // The paper's 23-ontology case study, ready to analyze.
//! let mut engine = AnalysisEngine::new(neon_reuse::paper_model().model).unwrap();
//! engine.set_mc_trials(200).unwrap(); // keep the doctest quick
//!
//! // Figs 6–10 in one call: evaluation, stability, the Section V discard
//! // cycle, Monte Carlo. The incremental entry point primes the cycle
//! // cache (this first call is a full recompute).
//! let analysis = engine.analyze_incremental().unwrap();
//! assert_eq!(analysis.evaluation.ranking()[0].name, "Media Ontology");
//! assert!(analysis.survivors().len() >= 10);
//!
//! // Fig 7: re-rank within one objective subtree.
//! let by_cost = engine.rank_by("reuse_cost").unwrap();
//! assert_eq!(by_cost.bounds.len(), 23);
//!
//! // What-if: fill in a missing cell and re-analyze *incrementally* —
//! // one row is re-scored, the touched dominance pairs re-optimized, the
//! // touched potential-optimality certificates re-solved from their
//! // previous working sets; everything else is served from the engine's
//! // caches.
//! let nokia = 17;
//! let financ = engine.model().find_attribute("financ_cost").unwrap();
//! engine.set_perf(nokia, financ, Perf::level(2)).unwrap();
//! let whatif = engine.analyze_incremental().unwrap();
//! assert!(whatif.evaluation.bounds[nokia].max <= analysis.evaluation.bounds[nokia].max);
//! assert_eq!(engine.cycle_stats().incremental, 1);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod report;
pub mod workspace;

pub use engine::{Analysis, AnalysisEngine, CycleStats, DiscardCycle, ZeroTrials};
pub use workspace::{
    load_model, model_from_json, model_to_json, save_model, Workspace, WorkspaceError,
};
