//! Shared fixtures for the benchmark harness: the paper's case-study model,
//! synthetic scaling workloads, and variants used by the ablations.

use maut::prelude::*;
use maut::utility::{DiscreteUtility, UtilityFunction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's 23 × 14 case-study model.
pub fn paper() -> DecisionModel {
    neon_reuse::paper_model().model
}

/// The paper model with every discrete component utility replaced by a
/// banded utility of the given half-width (the E11 band-width ablation).
pub fn paper_with_band(half_width: f64) -> DecisionModel {
    let mut model = paper();
    for u in model.utilities.iter_mut() {
        if let UtilityFunction::Discrete(d) = u {
            *d = DiscreteUtility::banded(d.num_levels(), half_width);
        }
    }
    model.validate().expect("band variant stays valid");
    model
}

/// The paper model under the `\[15\]`-style missing-value policy (E12).
pub fn paper_with_missing_as_worst() -> DecisionModel {
    let mut model = paper();
    model.missing_policy = maut::perf::MissingPolicy::Worst;
    model
}

/// A synthetic flat decision problem: `n_alts` alternatives × `n_attrs`
/// four-level discrete attributes with interval weights, seeded and
/// deterministic. Used by the scaling benches.
pub fn synthetic(n_alts: usize, n_attrs: usize, seed: u64) -> DecisionModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DecisionModelBuilder::new(format!("synthetic-{n_alts}x{n_attrs}"));
    let mut attrs = Vec::with_capacity(n_attrs);
    for j in 0..n_attrs {
        let a = b.discrete_attribute(
            format!("attr{j}"),
            format!("Attribute {j}"),
            &["none", "low", "medium", "high"],
        );
        b.set_utility(
            a,
            UtilityFunction::Discrete(DiscreteUtility::banded(4, 0.1)),
        );
        attrs.push(a);
    }
    let base = 1.0 / n_attrs as f64;
    let spread = base * 0.4;
    let pairs: Vec<(AttributeId, Interval)> = attrs
        .iter()
        .map(|&a| (a, Interval::new((base - spread).max(0.0), base + spread)))
        .collect();
    b.attach_attributes_to_root(&pairs);
    for i in 0..n_alts {
        let perfs: Vec<Perf> = (0..n_attrs)
            .map(|_| {
                if rng.random::<f64>() < 0.03 {
                    Perf::Missing
                } else {
                    Perf::level(rng.random_range(0..4))
                }
            })
            .collect();
        b.alternative(format!("alt{i}"), perfs);
    }
    b.build().expect("synthetic model is consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert_eq!(paper().num_alternatives(), 23);
        let wide = paper_with_band(0.3);
        assert_eq!(wide.num_attributes(), 14);
        let worst = paper_with_missing_as_worst();
        assert_eq!(worst.missing_policy, maut::perf::MissingPolicy::Worst);
        let s = synthetic(10, 6, 1);
        assert_eq!(s.num_alternatives(), 10);
        assert_eq!(s.num_attributes(), 6);
    }

    #[test]
    fn synthetic_is_deterministic() {
        assert_eq!(synthetic(5, 4, 9), synthetic(5, 4, 9));
        assert_ne!(synthetic(5, 4, 9), synthetic(5, 4, 10));
    }
}
