//! Reusable solver state: standard-form buffers, tableau storage, and the
//! warm-start basis shared across [`crate::LinearProgram::solve_with`]
//! calls.
//!
//! A [`SolverWorkspace`] exists so that a *sequence* of structurally
//! similar LPs — the potential-optimality loop solves one per alternative,
//! all with the same bounds and normalization row and only the pairwise
//! difference rows changing — pays for its buffers once and can restart
//! each solve from the previous optimal basis. See the crate docs for the
//! warm-start contract.

use crate::tableau::Tableau;
use std::collections::BTreeMap;

/// How a user variable maps into the non-negative internal space.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VarMap {
    /// `x = lower + x'[col]`, optionally with an upper-bound row added.
    Shifted { col: usize, lower: f64 },
    /// `x = upper - x'[col]` (only an upper bound is finite).
    Mirrored { col: usize, upper: f64 },
    /// `x = x'[pos] - x'[neg]` (free variable split).
    Split { pos: usize, neg: usize },
}

/// Relation tag of one standard-form row (mirrors
/// [`crate::Relation`] but lives here so the flattened row buffers stay
/// self-contained).
pub(crate) use crate::problem::Relation as RowRelation;

/// Cumulative work counters of a [`SolverWorkspace`].
///
/// `pivots` counts simplex pivots only (both phases plus artificial
/// drive-out); the O(m²) basis refactorization a warm start performs is
/// fixed work and not counted. `warm_pivots / warm_solves` vs
/// `cold_pivots / (solves − warm_solves)` is the headline warm-start
/// effectiveness ratio surfaced in `BENCH_engine.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Total solves driven through the workspace.
    pub solves: usize,
    /// Solves that successfully started from a reused basis.
    pub warm_solves: usize,
    /// Cumulative simplex pivots across all solves.
    pub pivots: usize,
    /// Pivots spent in warm-started solves.
    pub warm_pivots: usize,
    /// Pivots spent in cold (two-phase) solves.
    pub cold_pivots: usize,
}

impl SolveStats {
    /// Solves that ran the full two-phase method.
    pub fn cold_solves(&self) -> usize {
        self.solves - self.warm_solves
    }

    /// Fold another counter set into this one (a serving shard sums its
    /// sessions' counters this way).
    pub fn merge(&mut self, other: &SolveStats) {
        self.solves += other.solves;
        self.warm_solves += other.warm_solves;
        self.pivots += other.pivots;
        self.warm_pivots += other.warm_pivots;
        self.cold_pivots += other.cold_pivots;
    }

    /// Mean pivots per warm-started solve (`None` when none ran).
    pub fn pivots_per_warm_solve(&self) -> Option<f64> {
        (self.warm_solves > 0).then(|| self.warm_pivots as f64 / self.warm_solves as f64)
    }

    /// Mean pivots per cold solve (`None` when none ran).
    pub fn pivots_per_cold_solve(&self) -> Option<f64> {
        (self.cold_solves() > 0).then(|| self.cold_pivots as f64 / self.cold_solves() as f64)
    }
}

/// A persisted pool of warm-start bases keyed by an arbitrary caller id
/// (the potential-optimality loop keys by alternative index).
///
/// The plain chained warm start always restarts from *whatever solved
/// last*; when a caller revisits the same family member repeatedly — the
/// incremental what-if loop re-certifies one alternative after every
/// edit — the best starting point is that member's *own* last optimal
/// basis. [`SolverWorkspace::stash_basis`] snapshots the active saved
/// basis under a key and [`SolverWorkspace::restore_basis`] installs it
/// back as the active warm-start candidate. A restored basis is still
/// only a hint: shape mismatches, singularity and infeasibility all fall
/// back to the cold path exactly as for the chained basis, so the cache
/// never changes a status; an optimum reached from it agrees with a cold
/// solve's to floating-point roundoff, not bit for bit.
///
/// Invariants: entries survive the internal post-solve basis save (only an
/// explicit stash overwrites a key) and the whole cache is dropped by
/// [`SolverWorkspace::invalidate`] — after a structural change (a new
/// weight polytope) every stored basis is a stale guess not worth a
/// refactorization attempt.
#[derive(Debug, Clone, Default)]
pub struct BasisCache {
    /// Key → (basis column set, standard-form shape it belongs to).
    entries: BTreeMap<usize, (Vec<usize>, (usize, usize))>,
}

impl BasisCache {
    /// Number of stashed bases.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no basis is stashed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every stashed basis.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Whether a basis is stashed under `key`.
    pub fn contains(&self, key: usize) -> bool {
        self.entries.contains_key(&key)
    }
}

/// Reusable buffers + warm-start state for
/// [`crate::LinearProgram::solve_with`].
///
/// After the first solve of a given shape, subsequent solves perform no
/// allocation: the standard-form scratch, the tableau storage and the
/// solution vector are all kept and resized in place. The workspace also
/// remembers the optimal basis of the last successful solve; when the next
/// problem has the same standard-form shape (same row count and structural
/// column count), the solver refactorizes that basis against the new
/// coefficients and — if it is still primal feasible — skips phase 1
/// entirely, typically converging in a handful of pivots.
///
/// A workspace never affects *what* is computed, only how fast: any saved
/// basis that turns out singular, infeasible or degenerate-stalled for
/// the next problem makes the solver fall back to the cold two-phase
/// path. One known gap: when phase 1 drops redundant rows, the saved
/// basis belongs to the reduced system and its shape never matches the
/// family's standard form again, so such families simply keep solving
/// cold (correct, just never warm).
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    /// The simplex tableau (flat storage, reused across solves).
    pub(crate) t: Tableau,
    /// Standard-form rows, flattened `m × n_internal`.
    pub(crate) sf_coeffs: Vec<f64>,
    pub(crate) sf_rel: Vec<RowRelation>,
    pub(crate) sf_rhs: Vec<f64>,
    /// Internal minimization objective over structural variables.
    pub(crate) cost: Vec<f64>,
    /// User-variable → internal-variable maps.
    pub(crate) maps: Vec<VarMap>,
    /// Optimal basis of the last successful solve, plus the
    /// `(rows, structural columns)` shape it belongs to.
    pub(crate) saved_basis: Vec<usize>,
    pub(crate) saved_shape: Option<(usize, usize)>,
    /// Per-key snapshots of optimal bases (see [`BasisCache`]).
    basis_cache: BasisCache,
    /// Scratch: rows still basic in an artificial column after phase 1.
    pub(crate) drop_rows: Vec<usize>,
    /// Scratch: rows already claimed during warm-start refactorization.
    pub(crate) row_used: Vec<bool>,
    /// Scratch: which rows need an artificial column (cold path).
    pub(crate) artificial_rows: Vec<bool>,
    /// Scratch: internal primal solution during extraction.
    pub(crate) xi: Vec<f64>,
    stats: SolveStats,
}

impl SolverWorkspace {
    /// A fresh workspace: empty buffers, no saved basis, zeroed counters.
    pub fn new() -> SolverWorkspace {
        SolverWorkspace::default()
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Zero the counters (the saved basis is kept).
    pub fn reset_stats(&mut self) {
        self.stats = SolveStats::default();
    }

    /// Forget the saved basis *and* every stashed per-key basis: the next
    /// solve runs cold. Call after a structural change that makes the old
    /// bases useless guesses (the solver would detect and recover anyway —
    /// this just skips the refactorization attempts).
    pub fn invalidate(&mut self) {
        self.saved_shape = None;
        self.saved_basis.clear();
        self.basis_cache.clear();
    }

    /// Snapshot the active saved basis (the last optimal solve's) into the
    /// per-key cache under `key`, overwriting any previous stash. No-op
    /// when no basis is saved.
    pub fn stash_basis(&mut self, key: usize) {
        if let Some(shape) = self.saved_shape {
            self.basis_cache
                .entries
                .insert(key, (self.saved_basis.clone(), shape));
        }
    }

    /// Install the basis stashed under `key` as the active warm-start
    /// candidate for the next solve. Returns whether an entry existed;
    /// when it does not, the currently saved basis (the chained one) is
    /// left in place.
    pub fn restore_basis(&mut self, key: usize) -> bool {
        match self.basis_cache.entries.get(&key) {
            Some((basis, shape)) => {
                self.saved_basis.clear();
                self.saved_basis.extend_from_slice(basis);
                self.saved_shape = Some(*shape);
                true
            }
            None => false,
        }
    }

    /// The per-key warm-basis cache (read-only view).
    pub fn basis_cache(&self) -> &BasisCache {
        &self.basis_cache
    }

    /// Whether a warm-start basis is available for the given shape.
    pub(crate) fn has_saved(&self, rows: usize, cols: usize) -> bool {
        self.saved_shape == Some((rows, cols)) && self.saved_basis.len() == rows
    }

    pub(crate) fn record(&mut self, warm: bool, pivots: usize) {
        self.stats.solves += 1;
        self.stats.pivots += pivots;
        if warm {
            self.stats.warm_solves += 1;
            self.stats.warm_pivots += pivots;
        } else {
            self.stats.cold_pivots += pivots;
        }
    }

    pub(crate) fn save_basis(&mut self, rows: usize, cols: usize) {
        self.saved_basis.clear();
        self.saved_basis.extend_from_slice(&self.t.basis);
        // The basis is a column *set*; store it highest-index first so the
        // next warm start refactorizes slack columns (still unit columns,
        // free to pivot) before the structural ones introduce fill-in.
        self.saved_basis.sort_unstable_by(|a, b| b.cmp(a));
        self.saved_shape = Some((rows, cols));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_ratios() {
        let mut a = SolveStats {
            solves: 3,
            warm_solves: 2,
            pivots: 10,
            warm_pivots: 4,
            cold_pivots: 6,
        };
        let b = SolveStats {
            solves: 1,
            warm_solves: 0,
            pivots: 5,
            warm_pivots: 0,
            cold_pivots: 5,
        };
        a.merge(&b);
        assert_eq!(a.solves, 4);
        assert_eq!(a.cold_solves(), 2);
        assert_eq!(a.pivots, 15);
        assert_eq!(a.pivots_per_warm_solve(), Some(2.0));
        assert_eq!(a.pivots_per_cold_solve(), Some(5.5));
        assert_eq!(SolveStats::default().pivots_per_warm_solve(), None);
    }

    #[test]
    fn invalidate_clears_saved_basis() {
        let mut ws = SolverWorkspace::new();
        ws.saved_basis = vec![0, 1];
        ws.saved_shape = Some((2, 4));
        assert!(ws.has_saved(2, 4));
        ws.invalidate();
        assert!(!ws.has_saved(2, 4));
    }

    #[test]
    fn stash_and_restore_round_trip_a_basis() {
        let mut ws = SolverWorkspace::new();
        ws.saved_basis = vec![3, 1];
        ws.saved_shape = Some((2, 4));
        ws.stash_basis(7);
        assert!(ws.basis_cache().contains(7));
        assert_eq!(ws.basis_cache().len(), 1);

        // Another solve overwrites the active slot...
        ws.saved_basis = vec![5, 0];
        ws.saved_shape = Some((2, 6));
        // ...but restoring brings back the stashed basis verbatim.
        assert!(ws.restore_basis(7));
        assert_eq!(ws.saved_basis, vec![3, 1]);
        assert!(ws.has_saved(2, 4));
        // A miss leaves the active slot untouched.
        assert!(!ws.restore_basis(99));
        assert_eq!(ws.saved_basis, vec![3, 1]);
    }

    #[test]
    fn stash_without_a_saved_basis_is_a_no_op() {
        let mut ws = SolverWorkspace::new();
        ws.stash_basis(1);
        assert!(ws.basis_cache().is_empty());
    }

    #[test]
    fn invalidate_drops_the_basis_cache() {
        let mut ws = SolverWorkspace::new();
        ws.saved_basis = vec![0];
        ws.saved_shape = Some((1, 2));
        ws.stash_basis(0);
        ws.invalidate();
        assert!(ws.basis_cache().is_empty());
        assert!(!ws.restore_basis(0));
        assert!(!ws.has_saved(1, 2));
    }
}
