//! Dense simplex tableau with primitive row operations.
//!
//! The tableau stores the constraint matrix in canonical form
//! `A x = b, x ≥ 0, b ≥ 0` together with an objective row (phase-1
//! artificial objective or phase-2 true objective). Storage is a single
//! flat row-major buffer (`rows × (cols + 1)`, right-hand side last in
//! each row). Pivoting is plain Gauss-Jordan elimination; it serves the
//! cold two-phase solver of [`crate::LinearProgram`], whose programs are
//! tiny (≤ ~60 columns), so no sparse or revised-simplex machinery is
//! warranted.

use crate::EPS;

/// A dense simplex tableau over reusable flat storage.
///
/// Layout: row `r` occupies `a[r * (cols + 1) .. (r + 1) * (cols + 1)]`,
/// with the right-hand side at local index `cols`. `basis[r]` records
/// which column is basic in row `r`.
#[derive(Debug, Clone, Default)]
pub struct Tableau {
    /// Constraint rows, flattened; each logical row has `cols + 1` entries.
    a: Vec<f64>,
    /// Objective row (reduced costs), length `cols + 1`; entry `cols` is
    /// the negated objective value.
    pub z: Vec<f64>,
    /// Basic column index per row.
    pub basis: Vec<usize>,
    cols: usize,
    rows: usize,
    /// Copy of the pivot row, reused across pivots (no per-pivot clone).
    scratch: Vec<f64>,
}

impl Tableau {
    /// A fresh `rows × cols` tableau, zero-filled (including the objective
    /// row), reusing whatever storage is already allocated.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.cols = cols;
        self.rows = rows;
        let width = cols + 1;
        self.a.clear();
        self.a.resize(rows * width, 0.0);
        self.z.clear();
        self.z.resize(width, 0.0);
        self.basis.clear();
        self.basis.resize(rows, usize::MAX);
        self.scratch.clear();
        self.scratch.resize(width, 0.0);
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    fn width(&self) -> usize {
        self.cols + 1
    }

    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let w = self.width();
        &mut self.a[r * w..(r + 1) * w]
    }

    /// Row `r` together with mutable access to the objective row — the
    /// split borrow the pricing loops need (`z -= c_B · row`).
    pub fn row_and_z_mut(&mut self, r: usize) -> (&[f64], &mut [f64]) {
        let w = self.width();
        (&self.a[r * w..(r + 1) * w], &mut self.z)
    }

    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.width() + c]
    }

    /// Right-hand side of row `r`.
    pub fn rhs(&self, r: usize) -> f64 {
        self.get(r, self.cols)
    }

    /// Current objective value (phase objective).
    pub fn objective_value(&self) -> f64 {
        -self.z[self.cols]
    }

    /// Choose the entering column.
    ///
    /// `bland` selects the lowest-index column with a negative reduced cost
    /// (guaranteed finite termination); otherwise the most negative reduced
    /// cost (Dantzig) is used. Returns `None` when optimal.
    pub fn entering(&self, bland: bool) -> Option<usize> {
        if bland {
            (0..self.cols).find(|&j| self.z[j] < -EPS)
        } else {
            let mut best = None;
            let mut best_val = -EPS;
            for j in 0..self.cols {
                if self.z[j] < best_val {
                    best_val = self.z[j];
                    best = Some(j);
                }
            }
            best
        }
    }

    /// Minimum-ratio test for the leaving row given entering column `j`.
    /// Ties are broken by the lowest basis index (lexicographic safeguard).
    /// Returns `None` when the column is unbounded below.
    pub fn leaving(&self, j: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for r in 0..self.rows {
            let coef = self.get(r, j);
            if coef > EPS {
                let ratio = self.rhs(r) / coef;
                match best {
                    None => best = Some((r, ratio)),
                    Some((br, bratio)) => {
                        if ratio < bratio - EPS
                            || (ratio < bratio + EPS && self.basis[r] < self.basis[br])
                        {
                            best = Some((r, ratio));
                        }
                    }
                }
            }
        }
        best.map(|(r, _)| r)
    }

    /// Pivot on `(row, col)`: scale the pivot row and eliminate the column
    /// from every other row and the objective row.
    pub fn pivot(&mut self, row: usize, col: usize) {
        let w = self.width();
        let piv = self.a[row * w + col];
        debug_assert!(piv.abs() > EPS, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        for v in &mut self.a[row * w..(row + 1) * w] {
            *v *= inv;
        }
        // Defensive exactness: the pivot entry is 1 by construction.
        self.a[row * w + col] = 1.0;

        self.scratch
            .copy_from_slice(&self.a[row * w..(row + 1) * w]);
        for r in 0..self.rows {
            if r == row {
                continue;
            }
            let factor = self.a[r * w + col];
            if factor.abs() > EPS {
                let target = &mut self.a[r * w..(r + 1) * w];
                for (t, p) in target.iter_mut().zip(&self.scratch) {
                    *t -= factor * p;
                }
                target[col] = 0.0;
            }
        }
        let factor = self.z[col];
        if factor.abs() > EPS {
            for (t, p) in self.z.iter_mut().zip(&self.scratch) {
                *t -= factor * p;
            }
            self.z[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// Delete the given rows (indices must be sorted ascending).
    pub fn remove_rows(&mut self, drop: &[usize]) {
        if drop.is_empty() {
            return;
        }
        let w = self.width();
        for &r in drop.iter().rev() {
            self.a.copy_within((r + 1) * w.., r * w);
            self.a.truncate(self.a.len() - w);
            self.basis.remove(r);
            self.rows -= 1;
        }
    }

    /// Narrow the tableau to its first `new_cols` columns, keeping the
    /// right-hand side (used to drop artificial columns between phases).
    /// The objective row is reset to zero at the new width.
    pub fn shrink_cols(&mut self, new_cols: usize) {
        debug_assert!(new_cols <= self.cols);
        let old_w = self.width();
        let new_w = new_cols + 1;
        for r in 0..self.rows {
            let rhs = self.a[r * old_w + self.cols];
            // Row r's destination starts at or before its source, and all
            // previously moved rows ended before this source: in-place
            // forward compaction is safe.
            self.a
                .copy_within(r * old_w..r * old_w + new_cols, r * new_w);
            self.a[r * new_w + new_cols] = rhs;
        }
        self.a.truncate(self.rows * new_w);
        self.cols = new_cols;
        self.z.clear();
        self.z.resize(new_w, 0.0);
        self.scratch.clear();
        self.scratch.resize(new_w, 0.0);
    }

    /// Read the primal solution for the first `n` columns into `x`
    /// (`x.len() == n`, cleared to zero first).
    pub fn primal_into(&self, x: &mut [f64]) {
        x.fill(0.0);
        for (r, &b) in self.basis.iter().enumerate() {
            if b < x.len() {
                x[b] = self.rhs(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test helper: row `r` (with rhs) gathered through the cell accessor.
    fn row_of(t: &Tableau, r: usize) -> Vec<f64> {
        (0..=t.cols).map(|c| t.get(r, c)).collect()
    }

    /// Test helper: allocating wrapper over `primal_into`.
    fn primal(t: &Tableau, n: usize) -> Vec<f64> {
        let mut x = vec![0.0; n];
        t.primal_into(&mut x);
        x
    }

    fn from_rows(rows: &[&[f64]], z: &[f64], basis: &[usize], cols: usize) -> Tableau {
        let mut t = Tableau::default();
        t.reset(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            t.row_mut(r).copy_from_slice(row);
        }
        t.z.copy_from_slice(z);
        t.basis.copy_from_slice(basis);
        t
    }

    fn tiny() -> Tableau {
        // x + y <= 4  ->  x + y + s1 = 4
        // x + 3y <= 6 ->  x + 3y + s2 = 6
        // maximize 3x + 2y -> minimize -3x - 2y; reduced costs start at c.
        from_rows(
            &[&[1.0, 1.0, 1.0, 0.0, 4.0], &[1.0, 3.0, 0.0, 1.0, 6.0]],
            &[-3.0, -2.0, 0.0, 0.0, 0.0],
            &[2, 3],
            4,
        )
    }

    #[test]
    fn entering_dantzig_picks_most_negative() {
        let t = tiny();
        assert_eq!(t.entering(false), Some(0));
    }

    #[test]
    fn entering_bland_picks_first_negative() {
        let mut t = tiny();
        t.z[0] = -1.0;
        t.z[1] = -5.0;
        assert_eq!(t.entering(true), Some(0));
        assert_eq!(t.entering(false), Some(1));
    }

    #[test]
    fn entering_none_when_optimal() {
        let mut t = tiny();
        t.z = vec![0.5, 0.0, 0.1, 0.0, -12.0];
        assert_eq!(t.entering(false), None);
        assert_eq!(t.entering(true), None);
    }

    #[test]
    fn leaving_min_ratio() {
        let t = tiny();
        // column 0 ratios: 4/1 = 4, 6/1 = 6 -> row 0 leaves.
        assert_eq!(t.leaving(0), Some(0));
        // column 1 ratios: 4/1 = 4, 6/3 = 2 -> row 1 leaves.
        assert_eq!(t.leaving(1), Some(1));
    }

    #[test]
    fn leaving_none_when_unbounded() {
        let t = from_rows(&[&[-1.0, 1.0, 3.0]], &[-1.0, 0.0, 0.0], &[1], 2);
        assert_eq!(t.leaving(0), None);
    }

    #[test]
    fn pivot_solves_tiny_problem() {
        let mut t = tiny();
        while let Some(j) = t.entering(false) {
            let r = t.leaving(j).expect("bounded");
            t.pivot(r, j);
        }
        // optimum: x=4, y=0, objective (min form) = -12.
        let x = primal(&t, 2);
        assert!((x[0] - 4.0).abs() < 1e-9);
        assert!(x[1].abs() < 1e-9);
        assert!((t.objective_value() + 12.0).abs() < 1e-9);
    }

    #[test]
    fn primal_reads_only_decision_columns() {
        let t = tiny();
        let x = primal(&t, 2);
        assert_eq!(x, vec![0.0, 0.0]); // slacks basic initially
    }

    #[test]
    fn remove_rows_compacts_storage() {
        let mut t = from_rows(
            &[&[1.0, 0.0, 10.0], &[0.0, 1.0, 20.0], &[1.0, 1.0, 30.0]],
            &[0.0, 0.0, 0.0],
            &[0, 1, 9],
            2,
        );
        t.remove_rows(&[1]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(row_of(&t, 0), vec![1.0, 0.0, 10.0]);
        assert_eq!(row_of(&t, 1), vec![1.0, 1.0, 30.0]);
        assert_eq!(t.basis, vec![0, 9]);
    }

    #[test]
    fn shrink_cols_keeps_structural_part_and_rhs() {
        let mut t = from_rows(
            &[&[1.0, 2.0, 3.0, 4.0, 40.0], &[5.0, 6.0, 7.0, 8.0, 80.0]],
            &[0.0; 5],
            &[0, 1],
            4,
        );
        t.shrink_cols(2);
        assert_eq!(row_of(&t, 0), vec![1.0, 2.0, 40.0]);
        assert_eq!(row_of(&t, 1), vec![5.0, 6.0, 80.0]);
        assert_eq!(t.rhs(1), 80.0);
    }

    #[test]
    fn reset_reuses_storage_for_a_new_shape() {
        let mut t = tiny();
        t.reset(1, 2);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(row_of(&t, 0), vec![0.0, 0.0, 0.0]);
        assert_eq!(t.basis, vec![usize::MAX]);
    }
}
