//! **Dominance intensity** ranking — the follow-up analysis of the paper's
//! own reference line (Mateos, Ríos-Insua & Jiménez, *"Dominance, potential
//! optimality and alternative ranking in imprecise decision making"*,
//! ref \[25\]): when pairwise dominance discards too little (as in the case
//! study, where 20 of 23 candidates survive), the *degree* to which each
//! alternative outperforms the others still induces a complete ranking.
//!
//! For each ordered pair `(i, k)` the **dominance interval**
//! `D_ik = [d_ik^min, d_ik^max]` brackets the utility difference
//! `u(i) − u(k)` over every admissible weight vector and utility selection.
//! Reading `D_ik` uniformly, the *expected advantage* of `i` over `k` is its
//! midpoint, and the **dominance intensity** of `i` is the sum of expected
//! advantages over all rivals. Ranking by intensity refines the
//! average-utility ranking with the imprecision information that min/avg/max
//! evaluation discards.
//!
//! ## One flat matrix of minima
//!
//! [`IntervalMatrix`] is the only interval representation: one row-major
//! `n·n` buffer holding the adversarial minimum `d_ik^min` of every
//! ordered pair. The favorable extreme is never stored — it is the
//! negated adversarial extreme of the mirrored pair
//! (`d_ik^max = −d_ki^min`, since `uᵢᴴ − uₖᴸ = −(uₖᴸ − uᵢᴴ)` coordinate
//! by coordinate and IEEE negation is exact), so only the `n·(n−1)`
//! minima are optimized, half the greedy work of the per-pair
//! formulation, with bit-identical values.
//!
//! * **Full sweep** ([`IntervalMatrix::recompute`]): for each row `i`,
//!   blocks of [`POUR_LANES`] (16) rivals have their adversarial
//!   difference vectors gathered attribute-major (`worst[j·16 + t]`,
//!   unit-stride on both sides) from the [`maut::BandMatrixSoA`]
//!   columns, then one block pour
//!   ([`simplex_lp::WeightPolytope::minimize_block`]) takes the greedy
//!   minimum of all 16 rivals at once, one rival per SIMD lane, through
//!   one reused [`GreedyScratch`]. Each lane is bit-identical to a
//!   one-rival pour. The sweep writes into the matrix's existing
//!   allocation.
//! * **Incremental update** ([`IntervalMatrix::update`]): a pair `(i, k)`
//!   depends only on band rows `i` and `k`, so after edits to the `dirty`
//!   alternatives only their rows and columns are re-optimized, in place:
//!   a dirty row goes through the row gather and kernel, a dirty column
//!   gathers 16 rows against the edited alternative and pours them in
//!   one call — bit-identical to a full sweep.
//! * **Derivation** ([`IntervalMatrix::derive`]): reads the non-dominated
//!   set and every intensity off the derivation state below, without
//!   touching the `n²` minima, so the discard cycle pays for the pair
//!   optimizations once and every consumer sees the same bits.
//!
//! ## Derivation state
//!
//! Next to its minima the matrix keeps what the discard cycle derives
//! from them, so an incremental cycle never rereads all `n²` pairs:
//!
//! * **Block sums.** For every row `i` and every block `b` of 16
//!   rivals `k ∈ 16b .. 16b + 16`, the sum of the
//!   expected advantages `(d_ik^min + d_ik^max) / 2`, added in rival index
//!   order from `−0.0` with the diagonal skipped. The intensity of `i` is
//!   its block sums folded in block order from `−0.0`. Full and
//!   incremental cycles use this one summation order, so they agree bit
//!   for bit; with at most 16 alternatives it is the plain index-order
//!   sum.
//! * **Dominator counts.** For every alternative `k`, the number of rivals
//!   `i` whose interval `D_ik` certifies dominance over `k`; `k` is
//!   non-dominated when its count is zero.
//!
//! [`IntervalMatrix::recompute`] fills both in one blocked pass after the
//! sweep. [`IntervalMatrix::update`] first removes the dominance verdicts
//! of every pair that touches a dirty alternative (reading the old
//! minima), re-optimizes those pairs, adds their new verdicts, and
//! re-sums only the blocks that hold a changed term: every block of a
//! dirty row, and in every other row the blocks that hold a dirty
//! column. An incremental cycle therefore costs
//! `O(|dirty| · 16 · n + n² / 16 + n log n)` instead of `n²`.

use maut::{BandMatrixSoA, EvalContext};
use serde::{Deserialize, Serialize};
use simplex_lp::{GreedyScratch, POUR_LANES};
use std::collections::BTreeSet;
use std::ops::Range;

/// Pairs whose difference vectors are gathered and poured per kernel
/// call: one per lane of the block pour (the block stays L1-resident:
/// `PAIR_BLOCK` × n_attrs doubles).
pub(crate) const PAIR_BLOCK: usize = POUR_LANES;

/// Rivals per intensity block sum (see "Derivation state" in the module
/// docs). A block's mirrored minima span two cache lines of each rival
/// row, so a block re-sum down all rows reads each line once.
const SUM_BLOCK: usize = 16;

/// The dominance interval of one ordered pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DominanceInterval {
    /// `min u(i) − u(k)`: adversarial utilities, worst weights for `i`.
    pub min: f64,
    /// `max u(i) − u(k)`: favorable utilities, best weights for `i`.
    pub max: f64,
}

impl DominanceInterval {
    /// Expected advantage under a uniform reading of the interval.
    pub fn expected(&self) -> f64 {
        (self.min + self.max) / 2.0
    }

    /// Whether the interval certifies (weak) dominance.
    pub fn dominates(&self) -> bool {
        self.min >= -1e-9 && self.max > 1e-9
    }
}

/// Intensity summary of one alternative.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntensityRank {
    /// Index into the model's alternative list, which also names it.
    pub alternative: usize,
    /// Σ over rivals of the expected advantage.
    pub intensity: f64,
    /// 1-based rank by intensity (descending).
    pub rank: usize,
}

/// Every pairwise dominance interval of a model: one flat row-major
/// buffer of adversarial minima, maxima read through antisymmetry, plus
/// the intensity block sums and dominator counts derived from them (see
/// the [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntervalMatrix {
    /// Number of alternatives.
    n: usize,
    /// `mins[i·n + k] = min u(i) − u(k)`; the diagonal is `0.0`.
    mins: Vec<f64>,
    /// `block_sums[i·blocks + b]`: row `i`'s expected advantages over the
    /// rivals of block `b`, summed in index order from `−0.0`.
    block_sums: Vec<f64>,
    /// `dominators[k]`: the rivals whose interval dominates `k`.
    dominators: Vec<u32>,
}

/// Row `i`'s expected advantages over the rivals `ks` of one block, added
/// in index order from `−0.0` with the diagonal skipped — the one
/// summation every block sum goes through. `on_dominates(k)` runs for each
/// rival `k` over which `D_ik` certifies dominance.
fn sum_row_block(
    mins: &[f64],
    n: usize,
    i: usize,
    ks: Range<usize>,
    mut on_dominates: impl FnMut(usize),
) -> f64 {
    let mut sum = -0.0;
    for k in ks {
        if k != i {
            let d = DominanceInterval {
                min: mins[i * n + k],
                max: -mins[k * n + i],
            };
            sum += d.expected();
            if d.dominates() {
                on_dominates(k);
            }
        }
    }
    sum
}

/// All pairwise dominance intervals, against a shared evaluation context.
pub fn dominance_intervals_ctx(ctx: &EvalContext) -> IntervalMatrix {
    let mut intervals = IntervalMatrix::default();
    intervals.recompute(ctx);
    intervals
}

/// Rank all alternatives by dominance intensity, against a shared
/// evaluation context.
pub fn intensity_ranking_ctx(ctx: &EvalContext) -> Vec<IntensityRank> {
    dominance_intervals_ctx(ctx)
        .derive(&ctx.model().alternatives)
        .1
}

/// Gather one row block of adversarial difference vectors from the
/// columnar band matrix, attribute-major for the block pour: for rivals
/// `k ∈ kb .. kb + block`, `worst[j·PAIR_BLOCK + t] = lo(i, j) − hi(kb + t, j)`.
/// Each attribute column is read and written with unit stride; lanes from
/// `block` on are left as they are (the pour leaves them dead).
pub(crate) fn gather_diff_block(
    soa: &BandMatrixSoA,
    i: usize,
    kb: usize,
    block: usize,
    worst: &mut [f64],
) {
    for (j, lanes) in worst.chunks_exact_mut(PAIR_BLOCK).enumerate() {
        let lo_i = soa.lo_col(j)[i];
        for (w, &hi_k) in lanes.iter_mut().zip(&soa.hi_col(j)[kb..kb + block]) {
            *w = lo_i - hi_k;
        }
    }
}

/// Gather one column block: the adversarial difference vectors of rows
/// `i ∈ ib .. ib + block` against the fixed rival `k`,
/// `worst[j·PAIR_BLOCK + t] = lo(ib + t, j) − hi(k, j)`, laid out as in
/// [`gather_diff_block`].
fn gather_column_block(soa: &BandMatrixSoA, ib: usize, block: usize, k: usize, worst: &mut [f64]) {
    for (j, lanes) in worst.chunks_exact_mut(PAIR_BLOCK).enumerate() {
        let hi_k = soa.hi_col(j)[k];
        for (w, &lo_i) in lanes.iter_mut().zip(&soa.lo_col(j)[ib..ib + block]) {
            *w = lo_i - hi_k;
        }
    }
}

impl IntervalMatrix {
    /// Number of alternatives the matrix covers.
    pub fn alternatives(&self) -> usize {
        self.n
    }

    /// The row-major buffer of adversarial minima (`n·n`, zero diagonal).
    pub fn minima(&self) -> &[f64] {
        &self.mins
    }

    /// Row `i`'s intensity block sums, one per block of 16 rivals (see
    /// "Derivation state" in the [module docs](self)), rows concatenated.
    pub fn block_sums(&self) -> &[f64] {
        &self.block_sums
    }

    /// Per alternative, the number of rivals whose interval dominates it.
    pub fn dominator_counts(&self) -> &[u32] {
        &self.dominators
    }

    /// Capacity of the minima buffer — the allocation a
    /// [`IntervalMatrix::recompute`] reuses.
    pub fn capacity(&self) -> usize {
        self.mins.capacity()
    }

    /// The dominance interval of the ordered pair `(i, k)` (zero on the
    /// diagonal).
    pub fn get(&self, i: usize, k: usize) -> DominanceInterval {
        if i == k {
            return DominanceInterval { min: 0.0, max: 0.0 };
        }
        DominanceInterval {
            min: self.mins[i * self.n + k],
            max: -self.mins[k * self.n + i],
        }
    }

    /// Re-optimize every pair of the context and fill the derivation
    /// state, reusing this matrix's allocations when the alternative count
    /// is unchanged.
    pub fn recompute(&mut self, ctx: &EvalContext) {
        let n = ctx.soa().n_alternatives();
        self.n = n;
        self.mins.resize(n * n, 0.0);
        self.block_sums.resize(n * n.div_ceil(SUM_BLOCK), 0.0);
        self.dominators.resize(n, 0);
        let mut scratch = GreedyScratch::default();
        let mut worst = vec![0.0; PAIR_BLOCK * ctx.soa().n_attributes()];
        for i in 0..n {
            self.update_row(ctx, i, &mut scratch, &mut worst);
        }
        self.fill_derivation();
    }

    /// Bring the matrix up to date after band-row edits to the `dirty`
    /// alternatives: their rows and columns are re-optimized in place
    /// through the same gather and kernel as the full sweep, and the
    /// derivation state is patched through the same block sums, so the
    /// result is bit-identical to [`IntervalMatrix::recompute`] on the
    /// edited context.
    ///
    /// Cost: `O(|dirty| · n)` pair optimizations and writes plus
    /// `O(|dirty| · 16 · n)` block-sum terms; nothing else is touched,
    /// copied or reallocated.
    ///
    /// # Panics
    ///
    /// When the matrix's shape does not match the context's alternatives.
    pub fn update(&mut self, ctx: &EvalContext, dirty: &BTreeSet<usize>) {
        assert_eq!(
            self.n,
            ctx.soa().n_alternatives(),
            "interval matrix does not match the model"
        );
        self.tally_dirty(dirty, false);
        let mut scratch = GreedyScratch::default();
        let mut worst = vec![0.0; PAIR_BLOCK * ctx.soa().n_attributes()];
        for &d in dirty {
            self.update_row(ctx, d, &mut scratch, &mut worst);
            self.update_column(ctx, d, dirty, &mut scratch, &mut worst);
        }
        self.tally_dirty(dirty, true);
        self.resum_touched(dirty);
    }

    /// Row `i`: the minimum against every rival, one block pour per
    /// `PAIR_BLOCK` rivals.
    fn update_row(
        &mut self,
        ctx: &EvalContext,
        i: usize,
        scratch: &mut GreedyScratch,
        worst: &mut [f64],
    ) {
        let (soa, polytope) = (ctx.soa(), ctx.polytope());
        let n = self.n;
        let row = &mut self.mins[i * n..(i + 1) * n];
        for (kb, mins) in (0..n).step_by(PAIR_BLOCK).zip(row.chunks_mut(PAIR_BLOCK)) {
            gather_diff_block(soa, i, kb, mins.len(), worst);
            let values = polytope.minimize_block(worst, mins.len(), scratch);
            mins.copy_from_slice(&values[..mins.len()]);
        }
        row[i] = 0.0;
    }

    /// Column `d`: every non-dirty rival against `d`, one block pour per
    /// `PAIR_BLOCK` rows (dirty rows, `d`'s among them, are re-swept whole
    /// by [`IntervalMatrix::update_row`] and are not written here).
    fn update_column(
        &mut self,
        ctx: &EvalContext,
        d: usize,
        dirty: &BTreeSet<usize>,
        scratch: &mut GreedyScratch,
        worst: &mut [f64],
    ) {
        let (soa, polytope) = (ctx.soa(), ctx.polytope());
        let n = self.n;
        for ib in (0..n).step_by(PAIR_BLOCK) {
            let block = PAIR_BLOCK.min(n - ib);
            gather_column_block(soa, ib, block, d, worst);
            let values = polytope.minimize_block(worst, block, scratch);
            for (i, &min) in (ib..ib + block).zip(&values) {
                if i != d && !dirty.contains(&i) {
                    self.mins[i * n + d] = min;
                }
            }
        }
    }

    /// Every block sum and dominator count from the minima, in one pass
    /// per block of 16 rivals down all rows (each pair visited once).
    fn fill_derivation(&mut self) {
        let Self {
            n,
            mins,
            block_sums,
            dominators,
        } = self;
        let (n, blocks) = (*n, n.div_ceil(SUM_BLOCK));
        dominators.fill(0);
        for (b, kb) in (0..n).step_by(SUM_BLOCK).enumerate() {
            let end = (kb + SUM_BLOCK).min(n);
            for i in 0..n {
                block_sums[i * blocks + b] =
                    sum_row_block(mins, n, i, kb..end, |k| dominators[k] += 1);
            }
        }
    }

    /// Add (`add`) or remove the dominance verdict of every ordered pair
    /// that touches a `dirty` alternative, each pair once: `(d, k)` for
    /// every rival `k`, and `(k, d)` for every clean rival `k`.
    fn tally_dirty(&mut self, dirty: &BTreeSet<usize>, add: bool) {
        for &d in dirty {
            for k in (0..self.n).filter(|&k| k != d) {
                let d_over_k = self.get(d, k).dominates();
                let k_over_d = !dirty.contains(&k) && self.get(k, d).dominates();
                for (x, dominates) in [(k, d_over_k), (d, k_over_d)] {
                    if dominates {
                        let count = &mut self.dominators[x];
                        *count = if add { *count + 1 } else { *count - 1 };
                    }
                }
            }
        }
    }

    /// Re-sum the blocks whose terms an update to the `dirty` rows and
    /// columns changed: every block of a dirty row, and the blocks that
    /// hold a dirty column in every row.
    fn resum_touched(&mut self, dirty: &BTreeSet<usize>) {
        let Self {
            n,
            mins,
            block_sums,
            ..
        } = self;
        let (n, blocks) = (*n, n.div_ceil(SUM_BLOCK));
        let block = |b: usize| b * SUM_BLOCK..((b + 1) * SUM_BLOCK).min(n);
        for &d in dirty {
            for b in 0..blocks {
                block_sums[d * blocks + b] = sum_row_block(mins, n, d, block(b), |_| {});
            }
        }
        let mut last = None;
        for b in dirty.iter().map(|&d| d / SUM_BLOCK) {
            if last.replace(b) == Some(b) {
                continue;
            }
            for i in 0..n {
                block_sums[i * blocks + b] = sum_row_block(mins, n, i, block(b), |_| {});
            }
        }
    }

    /// The intensity of `i`: its block sums folded in block order from
    /// `−0.0`.
    fn intensity(&self, i: usize) -> f64 {
        let blocks = self.n.div_ceil(SUM_BLOCK);
        self.block_sums[i * blocks..(i + 1) * blocks]
            .iter()
            .fold(-0.0, |sum, &s| sum + s)
    }

    /// The discard cycle's derived outputs, read off the derivation state
    /// in `O(n² / 16 + n log n)`: the non-dominated alternatives
    /// (ascending, those no rival dominates) and the ranking of the
    /// alternatives by dominance intensity (descending; ties break by
    /// `names[alternative]`, one name per row).
    pub fn derive(&self, names: &[String]) -> (Vec<usize>, Vec<IntensityRank>) {
        // lint:allow(no-alloc-in-kernel) -- the cycle's non-dominated output
        let non_dominated = (0..self.n).filter(|&k| self.dominators[k] == 0).collect();
        let mut ranking: Vec<IntensityRank> = (0..self.n)
            .map(|i| IntensityRank {
                alternative: i,
                intensity: self.intensity(i),
                rank: 0,
            })
            // lint:allow(no-alloc-in-kernel) -- the cycle's ranking output
            .collect();
        // Finite intensities are guaranteed by model validation; if a NaN
        // slips through anyway it must neither abort the cycle (as
        // partial_cmp().expect() did) nor claim rank 1 (where a bare
        // descending total_cmp would place +NaN) — mapping NaN below every
        // finite value makes it sink to the bottom deterministically.
        let key = |x: f64| if x.is_nan() { f64::NEG_INFINITY } else { x };
        ranking.sort_by(|a, b| {
            key(b.intensity)
                .total_cmp(&key(a.intensity))
                .then_with(|| names[a.alternative].cmp(&names[b.alternative]))
        });
        for (pos, r) in ranking.iter_mut().enumerate() {
            r.rank = pos + 1;
        }
        (non_dominated, ranking)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maut::prelude::*;

    fn ctx(m: &DecisionModel) -> EvalContext {
        EvalContext::new(m.clone()).expect("valid model")
    }

    fn model(rows: &[(&str, usize, usize)]) -> DecisionModel {
        let mut b = DecisionModelBuilder::new("m");
        let x = b.discrete_attribute("x", "X", &["0", "1", "2", "3"]);
        let y = b.discrete_attribute("y", "Y", &["0", "1", "2", "3"]);
        b.attach_attributes_to_root(&[(x, Interval::new(0.3, 0.7)), (y, Interval::new(0.3, 0.7))]);
        for (name, px, py) in rows {
            b.alternative(*name, vec![Perf::level(*px), Perf::level(*py)]);
        }
        b.build().expect("valid")
    }

    #[test]
    fn intervals_are_antisymmetric() {
        let m = model(&[("a", 3, 1), ("b", 1, 3)]);
        let d = dominance_intervals_ctx(&ctx(&m));
        // Exact by construction since the max side reuses the mirrored min.
        assert_eq!(d.get(0, 1).min.to_bits(), (-d.get(1, 0).max).to_bits());
        assert_eq!(d.get(0, 1).max.to_bits(), (-d.get(1, 0).min).to_bits());
        assert_eq!(d.get(0, 0), DominanceInterval { min: 0.0, max: 0.0 });
    }

    #[test]
    fn pareto_better_has_positive_interval() {
        let m = model(&[("strong", 3, 3), ("weak", 1, 1)]);
        let d = dominance_intervals_ctx(&ctx(&m));
        assert!(d.get(0, 1).dominates(), "{:?}", d.get(0, 1));
        assert!(d.get(0, 1).expected() > 0.0);
        assert!(!d.get(1, 0).dominates());
        assert_eq!(d.derive(&["strong".into(), "weak".into()]).0, vec![0]);
    }

    #[test]
    fn intensity_ranking_matches_clear_order() {
        let m = model(&[("top", 3, 3), ("mid", 2, 2), ("low", 0, 0)]);
        let r = intensity_ranking_ctx(&ctx(&m));
        let names: Vec<&str> = r
            .iter()
            .map(|x| m.alternatives[x.alternative].as_str())
            .collect();
        assert_eq!(names, ["top", "mid", "low"]);
        assert!(r[0].intensity > r[1].intensity);
        assert!(r[2].intensity < 0.0);
        assert_eq!(r[0].rank, 1);
    }

    #[test]
    fn intensities_sum_to_zero() {
        // Σ_i Σ_k expected(i,k) = 0 by antisymmetry of the midpoints.
        let m = model(&[("a", 3, 0), ("b", 0, 3), ("c", 2, 2), ("d", 1, 1)]);
        let total: f64 = intensity_ranking_ctx(&ctx(&m))
            .iter()
            .map(|r| r.intensity)
            .sum();
        assert!(total.abs() < 1e-9, "total {total}");
    }

    #[test]
    fn blocked_intervals_match_per_pair_reference() {
        // Wide enough to cross a rival-block boundary.
        let rows: Vec<(String, usize, usize)> = (0..PAIR_BLOCK + 5)
            .map(|i| (format!("a{i:02}"), i % 4, (i / 3) % 4))
            .collect();
        let refs: Vec<(&str, usize, usize)> =
            rows.iter().map(|(n, x, y)| (n.as_str(), *x, *y)).collect();
        let m = model(&refs);
        let c = ctx(&m);
        let blocked = dominance_intervals_ctx(&c);
        let polytope = c.polytope();
        let (u_lo, u_hi) = c.model().bound_utility_matrices();
        for i in 0..refs.len() {
            for k in 0..refs.len() {
                if i == k {
                    continue;
                }
                let worst: Vec<f64> = u_lo[i].iter().zip(&u_hi[k]).map(|(a, b)| a - b).collect();
                let best: Vec<f64> = u_hi[i].iter().zip(&u_lo[k]).map(|(a, b)| a - b).collect();
                assert_eq!(
                    blocked.get(i, k).min,
                    polytope.minimize(&worst).0,
                    "({i},{k})"
                );
                assert_eq!(
                    blocked.get(i, k).max,
                    polytope.maximize(&best).0,
                    "({i},{k})"
                );
            }
        }
    }

    /// The matrix's whole state by bits: minima, block sums and dominator
    /// counts.
    fn bits(m: &IntervalMatrix) -> Vec<u64> {
        let floats = m.minima().iter().chain(m.block_sums());
        floats
            .map(|x| x.to_bits())
            .chain(m.dominator_counts().iter().map(|&c| u64::from(c)))
            .collect()
    }

    #[test]
    fn incremental_intervals_match_a_full_resweep_bit_for_bit() {
        // Wide enough to cross rival-block boundaries; edit several rows
        // (including two in the same block) and update in place.
        let rows: Vec<(String, usize, usize)> = (0..PAIR_BLOCK + 9)
            .map(|i| (format!("a{i:02}"), i % 4, (i / 3) % 4))
            .collect();
        let refs: Vec<(&str, usize, usize)> =
            rows.iter().map(|(n, x, y)| (n.as_str(), *x, *y)).collect();
        let mut c = ctx(&model(&refs));
        let mut intervals = dominance_intervals_ctx(&c);
        let buffer = intervals.minima().as_ptr();

        let x = c.model().find_attribute("x").unwrap();
        let y = c.model().find_attribute("y").unwrap();
        c.set_perf(0, x, Perf::level(3)).unwrap();
        c.set_perf(1, y, Perf::level(0)).unwrap();
        c.set_perf(PAIR_BLOCK + 2, x, Perf::level(2)).unwrap();
        let dirty: BTreeSet<usize> = [0, 1, PAIR_BLOCK + 2].into_iter().collect();

        intervals.update(&c, &dirty);
        let full = dominance_intervals_ctx(&c);
        assert_eq!(
            bits(&intervals),
            bits(&full),
            "in-place update must be exact"
        );
        assert_eq!(intervals.minima().as_ptr(), buffer, "updated in place");
        // And the verdicts derived from the updated matrix equal the
        // standalone dominance entry points.
        let (non_dominated, _) = intervals.derive(&c.model().alternatives);
        assert_eq!(non_dominated, crate::dominance::non_dominated_ctx(&c));
        let matrix = crate::dominance::dominance_matrix_ctx(&c);
        for (i, row) in matrix.iter().enumerate() {
            for (k, outcome) in row.iter().enumerate() {
                let dominates = i != k && intervals.get(i, k).dominates();
                assert_eq!(
                    *outcome == crate::dominance::DominanceOutcome::Dominates,
                    dominates,
                    "({i},{k})"
                );
            }
        }
    }

    #[test]
    fn block_update_matches_recompute_across_lane_boundaries() {
        // Sizes around one and two pour blocks; the dirty sets include
        // rows sharing a 16-row block, block edges and the last row.
        for n in [
            1,
            PAIR_BLOCK - 1,
            PAIR_BLOCK,
            PAIR_BLOCK + 1,
            2 * PAIR_BLOCK + 1,
        ] {
            let rows: Vec<(String, usize, usize)> = (0..n)
                .map(|i| (format!("a{i:02}"), i % 4, (i / 3) % 4))
                .collect();
            let refs: Vec<(&str, usize, usize)> =
                rows.iter().map(|(n, x, y)| (n.as_str(), *x, *y)).collect();
            let mut c = ctx(&model(&refs));
            let x = c.model().find_attribute("x").unwrap();
            let y = c.model().find_attribute("y").unwrap();
            let dirty_sets: [&[usize]; 5] = [
                &[0],
                &[n - 1],
                &[1, 2, 14],
                &[0, 15, 16],
                &[3, 9, 17, 31, 32],
            ];
            for (round, dirty) in dirty_sets.iter().enumerate() {
                let dirty: BTreeSet<usize> = dirty.iter().copied().filter(|&d| d < n).collect();
                let mut intervals = dominance_intervals_ctx(&c);
                for &d in &dirty {
                    c.set_perf(d, x, Perf::level((d + round + 1) % 4)).unwrap();
                    c.set_perf(d, y, Perf::level((d + 2 * round + 3) % 4))
                        .unwrap();
                }
                intervals.update(&c, &dirty);
                let full = dominance_intervals_ctx(&c);
                assert_eq!(bits(&intervals), bits(&full), "n={n} dirty={dirty:?}");
                for i in 0..n {
                    assert_eq!(
                        intervals.minima()[i * n + i].to_bits(),
                        0.0f64.to_bits(),
                        "diagonal ({i},{i}), n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn intensities_fold_block_sums_in_block_order() {
        // The summation order of the module docs, from the pair terms:
        // each block of 16 rivals in index order from −0.0, the blocks
        // folded in order from −0.0; up to 16 alternatives that is the
        // plain index-order sum.
        for n in [2, PAIR_BLOCK, PAIR_BLOCK + 1, 2 * PAIR_BLOCK + 8] {
            let rows: Vec<(String, usize, usize)> = (0..n)
                .map(|i| (format!("a{i:02}"), i % 4, (i / 3) % 4))
                .collect();
            let refs: Vec<(&str, usize, usize)> =
                rows.iter().map(|(n, x, y)| (n.as_str(), *x, *y)).collect();
            let c = ctx(&model(&refs));
            let intervals = dominance_intervals_ctx(&c);
            let (_, ranking) = intervals.derive(&c.model().alternatives);
            for r in &ranking {
                let i = r.alternative;
                let term = |k: usize| intervals.get(i, k).expected();
                let blocked = (0..n).step_by(SUM_BLOCK).fold(-0.0, |sum, kb| {
                    let ks = kb..(kb + SUM_BLOCK).min(n);
                    sum + ks.filter(|&k| k != i).fold(-0.0, |s, k| s + term(k))
                });
                assert_eq!(r.intensity.to_bits(), blocked.to_bits(), "n={n} i={i}");
                if n <= SUM_BLOCK {
                    let plain: f64 = (0..n).filter(|&k| k != i).map(term).sum();
                    assert_eq!(r.intensity.to_bits(), plain.to_bits(), "n={n} i={i}");
                }
            }
        }
    }

    #[test]
    fn incremental_intervals_with_empty_dirty_set_are_a_no_op() {
        let m = model(&[("a", 3, 0), ("b", 0, 3), ("c", 2, 2)]);
        let c = ctx(&m);
        let prev = dominance_intervals_ctx(&c);
        let mut same = prev.clone();
        same.update(&c, &BTreeSet::new());
        assert_eq!(bits(&same), bits(&prev));
    }

    #[test]
    fn intensity_refines_the_paper_case_study() {
        let m = neon_reuse::paper_model().model;
        let r = intensity_ranking_ctx(&ctx(&m));
        // A complete ranking of all 23, topped by the same two candidates.
        assert_eq!(r.len(), 23);
        let name = |x: &IntensityRank| m.alternatives[x.alternative].as_str();
        assert_eq!(name(&r[0]), "Media Ontology");
        assert_eq!(name(&r[1]), "Boemie VDO");
        assert_eq!(name(r.last().expect("non-empty")), "MPEG7 Ontology");
    }
}
