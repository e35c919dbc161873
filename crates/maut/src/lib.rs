//! # maut
//!
//! Core library for **multi-attribute utility theory with imprecise
//! information**, reimplementing the decision model of the GMAA system
//! (Jiménez, Ríos-Insua & Mateos; applied to ontology reuse in *"A MAUT
//! Approach for Reusing Ontologies"*, ICDE 2012 Workshops).
//!
//! The model is an **additive multi-attribute utility function**
//!
//! ```text
//! u(Oᵢ) = Σⱼ wⱼ · uⱼ(xᵢⱼ)
//! ```
//!
//! where the paper's twist is *imprecision everywhere*:
//!
//! * component utilities `uⱼ` are **classes of utility functions** — each
//!   discrete level or piecewise-linear vertex carries a utility *interval*
//!   ([`utility`]);
//! * weights are elicited as **intervals** along the branches of an
//!   objective hierarchy and multiplied down to attribute level
//!   ([`hierarchy`], [`weights`]);
//! * alternative performances may be **missing**, in which case the
//!   component utility is the whole interval `[0, 1]` (ref \[18\] of the
//!   paper; [`perf`]).
//!
//! Evaluation yields *minimum, average and maximum overall utilities* per
//! alternative — exactly the three columns of the paper's Fig 6 — and
//! rankings by average utility, for the whole hierarchy or any objective
//! subtree (Fig 7). The canonical way to evaluate is through an
//! [`engine::EvalContext`], which precomputes the component-utility band
//! matrix, the multiplied-down weight bounds, and the objective-subtree
//! index once, caches evaluations per scope, and re-scores only the
//! affected alternatives after an incremental [`engine::EvalContext::set_perf`]
//! / [`engine::EvalContext::set_weight`] mutation. Sensitivity analyses
//! (weight stability, dominance, potential optimality, Monte Carlo) live
//! in the companion `maut-sense` crate and consume the same context.
//!
//! ## Quick start
//!
//! ```
//! use maut::prelude::*;
//!
//! let mut b = DecisionModelBuilder::new("Buy a laptop");
//! let price =
//!     b.continuous_attribute("price", "Price", 500.0, 2000.0, Direction::Decreasing);
//! let battery = b.discrete_attribute("battery", "Battery life", &["poor", "ok", "great"]);
//! b.attach_attributes_to_root(&[
//!     (price, Interval::new(0.4, 0.6)),
//!     (battery, Interval::new(0.4, 0.6)),
//! ]);
//! b.alternative("A", vec![Perf::value(900.0), Perf::level(2)]);
//! b.alternative("B", vec![Perf::value(1500.0), Perf::level(1)]);
//!
//! // One context, computed once, shared by every analysis.
//! let mut ctx = EvalContext::new(b.build().unwrap()).unwrap();
//! let before = ctx.evaluate();
//! assert_eq!(before.ranking()[0].alternative, 0); // A wins
//!
//! // What-if: B drops to 700 EUR — one cell changes, one row re-scores.
//! let price = ctx.model().find_attribute("price").unwrap();
//! ctx.set_perf(1, price, Perf::value(700.0)).unwrap();
//! let after = ctx.evaluate();
//! assert!(after.bounds[1].avg > before.bounds[1].avg); // B improved
//! assert_eq!(after.bounds[0], before.bounds[0]); // A untouched
//! assert_eq!(ctx.stats().rows_recomputed, 1);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod elicit;
pub mod engine;
pub mod error;
pub mod evaluate;
pub mod group;
pub mod hierarchy;
pub mod interval;
pub mod model;
pub mod perf;
pub mod scale;
pub mod soa;
pub mod utility;
pub mod weights;

pub use builder::DecisionModelBuilder;
pub use elicit::{ElicitError, ProbabilityAnswer, RatioAnswer};
pub use engine::{EngineStats, EvalContext};
pub use error::ModelError;
pub use evaluate::{Evaluation, RankedAlternative, UtilityBounds, ORDERING_EPS};
pub use group::{aggregate, apply_group_weights, Aggregation, Disagreement, MemberWeights};
pub use hierarchy::{Objective, ObjectiveId, ObjectiveTree};
pub use interval::Interval;
pub use model::{AttributeId, DecisionModel};
pub use perf::{Perf, PerformanceTable};
pub use scale::{Attribute, ContinuousScale, Direction, DiscreteScale, Scale};
pub use soa::BandMatrixSoA;
pub use utility::{DiscreteUtility, PiecewiseLinearUtility, UtilityFunction};
pub use weights::{AttributeWeights, WeightTriple};

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::builder::DecisionModelBuilder;
    pub use crate::engine::{EngineStats, EvalContext};
    pub use crate::error::ModelError;
    pub use crate::evaluate::{Evaluation, RankedAlternative, UtilityBounds, ORDERING_EPS};
    pub use crate::hierarchy::{Objective, ObjectiveId, ObjectiveTree};
    pub use crate::interval::Interval;
    pub use crate::model::{AttributeId, DecisionModel};
    pub use crate::perf::{Perf, PerformanceTable};
    pub use crate::scale::{Attribute, ContinuousScale, Direction, DiscreteScale, Scale};
    pub use crate::soa::BandMatrixSoA;
    pub use crate::utility::{DiscreteUtility, PiecewiseLinearUtility, UtilityFunction};
    pub use crate::weights::{AttributeWeights, WeightTriple};
}
