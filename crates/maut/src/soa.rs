//! The component-utility band matrix, stored column by column — the only
//! copy of it in [`crate::engine::EvalContext`].
//!
//! Every analysis re-scores alternatives against weight vectors, which
//! under the additive model
//!
//! ```text
//! score[i] = Σⱼ wⱼ · u[i][j]
//! ```
//!
//! is a loop over attributes `j` with a contiguous streak over alternatives
//! `i` inside. [`BandMatrixSoA`] stores each projection (`lo` / `mid` /
//! `hi`) as per-attribute contiguous columns of length `n_alternatives`, so
//! that inner streak is a unit-stride read-modify-write the compiler can
//! vectorize, and a whole batch of weight samples re-reads the same small
//! resident columns instead of striding across rows. The incremental paths
//! read the same columns: `set_perf` patches one cell with
//! [`BandMatrixSoA::set_cell`], and re-scoring a dirty alternative gathers
//! its cells with [`BandMatrixSoA::bounds_into`].
//!
//! Numerical contract: every scoring method accumulates over attributes in
//! ascending index order from `0.0`, exactly like the row-at-a-time
//! reference [`crate::evaluate::evaluate_scope`], so the bounds are
//! **bit-identical** to it; the differential suite in
//! `tests/soa_equivalence.rs` holds the two to that.

use crate::evaluate::UtilityBounds;
use crate::model::{AttributeId, DecisionModel};
use crate::weights::AttributeWeights;

/// Trial count of the register-blocked transposed scoring kernel (16
/// doubles = two cache lines; the batch drivers slice their trials into
/// sub-blocks of exactly this size).
pub const SCORE_LANES: usize = 16;

/// Column-major band matrix: for each of the three projections, attribute
/// `j`'s column occupies `data[j * n_alternatives ..][.. n_alternatives]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BandMatrixSoA {
    n_alts: usize,
    n_attrs: usize,
    lo: Vec<f64>,
    mid: Vec<f64>,
    hi: Vec<f64>,
}

impl BandMatrixSoA {
    /// Build every cell's three projections from
    /// [`DecisionModel::utility_band`], one attribute column at a time.
    pub fn new(model: &DecisionModel) -> BandMatrixSoA {
        let (n_alts, n_attrs) = (model.num_alternatives(), model.num_attributes());
        let len = n_alts * n_attrs;
        let mut soa = BandMatrixSoA {
            n_alts,
            n_attrs,
            lo: Vec::with_capacity(len),
            mid: Vec::with_capacity(len),
            hi: Vec::with_capacity(len),
        };
        for j in 0..n_attrs {
            for i in 0..n_alts {
                let band = model.utility_band(i, AttributeId(j));
                soa.lo.push(band.lo());
                soa.mid.push(band.mid());
                soa.hi.push(band.hi());
            }
        }
        soa
    }

    /// Number of alternatives (rows of the logical matrix).
    pub fn n_alternatives(&self) -> usize {
        self.n_alts
    }

    /// Number of attributes (columns of the logical matrix).
    pub fn n_attributes(&self) -> usize {
        self.n_attrs
    }

    /// Lower-bound column of attribute `j` (one entry per alternative).
    pub fn lo_col(&self, j: usize) -> &[f64] {
        &self.lo[j * self.n_alts..][..self.n_alts]
    }

    /// Midpoint column of attribute `j`.
    pub fn mid_col(&self, j: usize) -> &[f64] {
        &self.mid[j * self.n_alts..][..self.n_alts]
    }

    /// Upper-bound column of attribute `j`.
    pub fn hi_col(&self, j: usize) -> &[f64] {
        &self.hi[j * self.n_alts..][..self.n_alts]
    }

    /// Single-cell accessors (gathers across columns; prefer the column
    /// sweeps in hot loops).
    pub fn lo(&self, i: usize, j: usize) -> f64 {
        self.lo[j * self.n_alts + i]
    }

    /// Midpoint of cell `(i, j)` (gather; prefer column sweeps when hot).
    pub fn mid(&self, i: usize, j: usize) -> f64 {
        self.mid[j * self.n_alts + i]
    }

    /// Upper bound of cell `(i, j)` (gather; prefer column sweeps when hot).
    pub fn hi(&self, i: usize, j: usize) -> f64 {
        self.hi[j * self.n_alts + i]
    }

    /// Patch one cell's three projections in place (the `set_perf` sync —
    /// keeps the columns warm instead of rebuilding the whole matrix).
    pub fn set_cell(&mut self, i: usize, j: usize, lo: f64, mid: f64, hi: f64) {
        let at = j * self.n_alts + i;
        self.lo[at] = lo;
        self.mid[at] = mid;
        self.hi[at] = hi;
    }

    /// Score every alternative against one flat weight vector over band
    /// midpoints: one unit-stride pass per attribute.
    pub fn score(&self, flat_weights: &[f64]) -> Vec<f64> {
        assert_eq!(flat_weights.len(), self.n_attrs, "weight vector arity");
        let mut out = vec![0.0; self.n_alts];
        for (j, &w) in flat_weights.iter().enumerate() {
            for (s, &u) in out.iter_mut().zip(self.mid_col(j)) {
                *s += w * u;
            }
        }
        out
    }

    /// Score a *transposed* block of weight samples: `samples_t` is
    /// attribute-major (`samples_t[j * block + t]` = weight of attribute
    /// `j` in trial `t`), `out_t` comes back alternative-major
    /// (`out_t[i * block + t]` = score of alternative `i` in trial `t`).
    ///
    /// This is the widest kernel in the crate: with trials in the SIMD
    /// lanes, each `(alternative, attribute)` cell is one broadcast
    /// multiply-accumulate over a contiguous run of trials — and because
    /// every trial's score still accumulates over attributes in ascending
    /// index order, the result is bit-identical to
    /// [`BandMatrixSoA::score`] per trial.
    pub fn score_block_transposed(&self, samples_t: &[f64], block: usize, out_t: &mut [f64]) {
        assert_eq!(samples_t.len(), block * self.n_attrs, "sample block arity");
        assert_eq!(out_t.len(), block * self.n_alts, "score block arity");
        if block == SCORE_LANES {
            return self.score_block_16(samples_t, out_t);
        }
        for (i, out) in out_t.chunks_exact_mut(block).enumerate() {
            out.fill(0.0);
            for (j, w_row) in samples_t.chunks_exact(block).enumerate() {
                let u = self.mid[j * self.n_alts + i];
                for (o, &w) in out.iter_mut().zip(w_row) {
                    *o += u * w;
                }
            }
        }
    }

    /// Fixed-width fast path of [`BandMatrixSoA::score_block_transposed`]:
    /// with the trial count a compile-time constant, the per-alternative
    /// accumulator is a stack array the compiler keeps entirely in vector
    /// registers across the attribute loop — each `(alternative,
    /// attribute)` cell costs one broadcast multiply-add with no
    /// accumulator memory traffic. Same accumulation order, identical
    /// results.
    fn score_block_16(&self, samples_t: &[f64], out_t: &mut [f64]) {
        const T: usize = SCORE_LANES;
        for (i, dst) in out_t.chunks_exact_mut(T).enumerate() {
            let mut acc = [0.0f64; T];
            for (j, w_row) in samples_t.chunks_exact(T).enumerate() {
                let u = self.mid[j * self.n_alts + i];
                for (a, &w) in acc.iter_mut().zip(w_row) {
                    *a += u * w;
                }
            }
            dst.copy_from_slice(&acc);
        }
    }

    /// Overall utility bounds of the requested alternatives against one
    /// scope's weight triples, written to `out` in request order — the
    /// kernel behind every `EvalContext` evaluation. Attributes outside
    /// the scope simply have no triple and contribute nothing, matching
    /// [`crate::evaluate::evaluate_scope`] exactly (same accumulation
    /// order).
    pub fn bounds_into(
        &self,
        weights: &AttributeWeights,
        alternatives: &[usize],
        out: &mut [UtilityBounds],
    ) {
        assert_eq!(alternatives.len(), out.len(), "bounds buffer arity");
        for b in out.iter_mut() {
            *b = UtilityBounds {
                min: 0.0,
                avg: 0.0,
                max: 0.0,
            };
        }
        for (attr, triple) in weights.attributes.iter().zip(&weights.triples) {
            let j = attr.index();
            let (lo, mid, hi) = (self.lo_col(j), self.mid_col(j), self.hi_col(j));
            for (&i, b) in alternatives.iter().zip(out.iter_mut()) {
                b.min += triple.low * lo[i];
                b.avg += triple.avg * mid[i];
                b.max += triple.upp * hi[i];
            }
        }
    }

    /// Allocating convenience wrapper over [`BandMatrixSoA::bounds_into`].
    pub fn bounds(&self, weights: &AttributeWeights, alternatives: &[usize]) -> Vec<UtilityBounds> {
        let zero = UtilityBounds {
            min: 0.0,
            avg: 0.0,
            max: 0.0,
        };
        let mut out = vec![zero; alternatives.len()];
        self.bounds_into(weights, alternatives, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DecisionModelBuilder;
    use crate::engine::EvalContext;
    use crate::interval::Interval;
    use crate::perf::Perf;

    fn ctx() -> EvalContext {
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["0", "1", "2", "3"]);
        let y = b.discrete_attribute("y", "Y", &["0", "1", "2", "3"]);
        let z = b.discrete_attribute("z", "Z", &["0", "1", "2", "3"]);
        b.attach_attributes_to_root(&[
            (x, Interval::new(0.2, 0.5)),
            (y, Interval::new(0.2, 0.5)),
            (z, Interval::new(0.2, 0.5)),
        ]);
        b.alternative("a", vec![Perf::level(3), Perf::level(1), Perf::level(0)]);
        b.alternative("b", vec![Perf::level(0), Perf::level(2), Perf::level(3)]);
        b.alternative("c", vec![Perf::level(1), Perf::Missing, Perf::level(2)]);
        EvalContext::new(b.build().unwrap()).unwrap()
    }

    #[test]
    fn columns_transpose_the_row_matrices() {
        let c = ctx();
        let soa = c.soa();
        assert_eq!(soa.n_alternatives(), 3);
        assert_eq!(soa.n_attributes(), 3);
        let (lo_rows, hi_rows) = c.model().bound_utility_matrices();
        let mid_rows = c.model().avg_utility_matrix();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(soa.lo(i, j).to_bits(), lo_rows[i][j].to_bits());
                assert_eq!(soa.mid(i, j).to_bits(), mid_rows[i][j].to_bits());
                assert_eq!(soa.hi(i, j).to_bits(), hi_rows[i][j].to_bits());
                assert_eq!(soa.lo_col(j)[i].to_bits(), lo_rows[i][j].to_bits());
            }
        }
    }

    #[test]
    fn score_matches_scalar_path_exactly() {
        let c = ctx();
        let w = c.weights().avgs();
        assert_eq!(c.soa().score(&w), c.score_with_weights(&w));
    }

    #[test]
    fn transposed_block_scoring_matches_per_sample_scoring() {
        // Both the register-blocked 16-lane path and the dynamic
        // remainder path must agree bit-for-bit with score.
        let c = ctx();
        let soa = c.soa();
        let (n_attrs, n_alts) = (soa.n_attributes(), soa.n_alternatives());
        for block in [SCORE_LANES, 5] {
            // Trial t's weight vector: varies per trial, sums near 1.
            let sample_of = |t: usize| -> Vec<f64> {
                let raw: Vec<f64> = (0..n_attrs)
                    .map(|j| 1.0 + ((t * 7 + j) % 5) as f64)
                    .collect();
                let sum: f64 = raw.iter().sum();
                raw.iter().map(|v| v / sum).collect()
            };
            let mut samples_t = vec![0.0; block * n_attrs];
            for t in 0..block {
                for (j, &w) in sample_of(t).iter().enumerate() {
                    samples_t[j * block + t] = w;
                }
            }
            let mut out_t = vec![0.0; block * n_alts];
            soa.score_block_transposed(&samples_t, block, &mut out_t);
            for t in 0..block {
                let expected = soa.score(&sample_of(t));
                for i in 0..n_alts {
                    assert_eq!(out_t[i * block + t], expected[i], "block {block}");
                }
            }
        }
    }

    #[test]
    fn bounds_match_evaluation() {
        // Against the from-scratch reference, which reads the model's
        // cells and shares no code with the columns.
        let c = ctx();
        let reference = crate::evaluate::evaluate_scope(c.model(), c.model().tree.root());
        let out = c.soa().bounds(c.weights(), &[2, 0, 1]);
        assert_eq!(out[0], reference.bounds[2]);
        assert_eq!(out[1], reference.bounds[0]);
        assert_eq!(out[2], reference.bounds[1]);
    }

    #[test]
    fn set_cell_patches_every_projection() {
        let c = ctx();
        let mut soa = c.soa().clone();
        soa.set_cell(1, 2, 0.1, 0.2, 0.3);
        assert_eq!(soa.lo(1, 2), 0.1);
        assert_eq!(soa.mid(1, 2), 0.2);
        assert_eq!(soa.hi(1, 2), 0.3);
        // Neighbors in the same column are untouched.
        assert_eq!(soa.lo(0, 2), c.soa().lo(0, 2));
        assert_eq!(soa.hi(2, 2), c.soa().hi(2, 2));
    }

    #[test]
    #[should_panic(expected = "weight vector arity")]
    fn score_rejects_wrong_arity() {
        ctx().soa().score(&[0.5, 0.5]);
    }
}
