//! The reference simplex: the original `Vec<Vec<f64>>` two-phase solver
//! that [`SimplexWorkspace`](super::SimplexWorkspace) replaced, kept
//! verbatim as a test oracle. It converts the program to standard form
//! (free variables split as `x = x⁺ − x⁻`, one slack per row, rows flipped
//! to a non-negative right-hand side) and runs Phase-1 over one artificial
//! per row on a fresh tableau per solve. Compiled only for tests.

use super::{Program, Solution, PHASE1_TOL, TOL};
use crate::LpError;

impl Program {
    /// Solves the program on the reference path (see the module docs); the
    /// `equivalence` proptest suite compares [`Program::solve`] against it.
    ///
    /// # Errors
    ///
    /// Same contract as [`Program::solve`].
    pub(crate) fn solve_reference(&self) -> Result<Solution, LpError> {
        if self.c.is_empty() {
            return Err(LpError::BadProblem);
        }
        let finite = self.c.iter().all(|v| v.is_finite())
            && self.b.iter().all(|v| v.is_finite())
            && self.a.iter().flatten().all(|v| v.is_finite());
        if !finite {
            return Err(LpError::BadProblem);
        }

        // --- Convert to standard form: min c̃ᵀy, Ãy = b̃, y ≥ 0. ---
        // Column map: for each original variable, either one column
        // (non-negative) or a (+,−) pair (free); then one slack per row.
        let n = self.c.len();
        let m = self.a.len();
        let mut col_of_var: Vec<(usize, Option<usize>)> = Vec::with_capacity(n);
        let mut c_std: Vec<f64> = Vec::new();
        for j in 0..n {
            if self.nonneg[j] {
                col_of_var.push((c_std.len(), None));
                c_std.push(self.c[j]);
            } else {
                col_of_var.push((c_std.len(), Some(c_std.len() + 1)));
                c_std.push(self.c[j]);
                c_std.push(-self.c[j]);
            }
        }
        let slack_base = c_std.len();
        c_std.resize(c_std.len() + m, 0.0);
        let total_cols = c_std.len();

        // Rows: Ãy + s = b̃, with each row flipped if b < 0 so b̃ ≥ 0.
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut rhs: Vec<f64> = Vec::with_capacity(m);
        for i in 0..m {
            let mut row = vec![0.0; total_cols];
            for (j, &(pos, neg)) in col_of_var.iter().enumerate() {
                row[pos] = self.a[i][j];
                if let Some(neg) = neg {
                    row[neg] = -self.a[i][j];
                }
            }
            row[slack_base + i] = 1.0;
            let mut b = self.b[i];
            if b < 0.0 {
                for v in &mut row {
                    *v = -*v;
                }
                b = -b;
            }
            rows.push(row);
            rhs.push(b);
        }

        let (y, iterations) = solve_standard(&c_std, &rows, &rhs)?;

        // Map back to the caller's variables.
        let mut x = vec![0.0; n];
        for j in 0..n {
            let (pos, neg) = col_of_var[j];
            x[j] = y[pos] - neg.map_or(0.0, |k| y[k]);
        }
        let objective = self.c.iter().zip(&x).map(|(c, x)| c * x).sum();
        Ok(Solution {
            x,
            objective,
            iterations,
        })
    }
}

/// Solves `min cᵀy s.t. Ry = rhs, y ≥ 0` with `rhs ≥ 0` by two-phase
/// simplex (reference path). Returns the optimal `y` and the total
/// pivot-loop iterations.
fn solve_standard(c: &[f64], rows: &[Vec<f64>], rhs: &[f64]) -> Result<(Vec<f64>, u64), LpError> {
    let m = rows.len();
    let n = c.len();
    if m == 0 {
        // No constraints: optimum is 0 unless some cost is negative
        // (unbounded) — any variable with negative cost can grow forever.
        if c.iter().any(|&ci| ci < -TOL) {
            return Err(LpError::Unbounded);
        }
        return Ok((vec![0.0; n], 0));
    }

    // Tableau with artificial variables appended: columns
    // [0..n) original+slack, [n..n+m) artificial, last column rhs.
    let width = n + m + 1;
    let mut t = vec![vec![0.0; width]; m];
    let mut basis = vec![0usize; m];
    for i in 0..m {
        t[i][..n].copy_from_slice(&rows[i]);
        t[i][n + i] = 1.0;
        t[i][width - 1] = rhs[i];
        basis[i] = n + i;
    }

    // Phase 1: minimize the sum of artificials.
    let mut phase1_cost = vec![0.0; width];
    for c in &mut phase1_cost[n..n + m] {
        *c = 1.0;
    }
    let (opt1, iters1) = run_simplex(&mut t, &mut basis, &phase1_cost, n + m)?;
    if opt1 > PHASE1_TOL {
        return Err(LpError::Infeasible);
    }
    // Drive any artificial still in the basis out (degenerate rows).
    for i in 0..m {
        if basis[i] >= n {
            // Find a non-artificial column with a non-zero entry.
            if let Some(j) = (0..n).find(|&j| t[i][j].abs() > TOL) {
                pivot_ref(&mut t, &mut basis, i, j);
            }
            // If none exists, the row is all-zero (redundant) — harmless.
        }
    }

    // Phase 2: original costs; artificial columns are frozen out by
    // restricting the entering-variable scan to the first n columns.
    let mut phase2_cost = vec![0.0; width];
    phase2_cost[..n].copy_from_slice(c);
    let (_, iters2) = run_simplex(&mut t, &mut basis, &phase2_cost, n)?;

    let mut y = vec![0.0; n];
    for i in 0..m {
        if basis[i] < n {
            y[basis[i]] = t[i][width - 1];
        }
    }
    Ok((y, iters1 + iters2))
}

/// Runs the reference simplex pivot loop. `scan_cols` limits which columns
/// may enter the basis. Returns the optimal objective for `cost` and the
/// number of loop iterations spent reaching it.
fn run_simplex(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &[f64],
    scan_cols: usize,
) -> Result<(f64, u64), LpError> {
    let m = t.len();
    let width = t[0].len();
    let max_iters = 2000 + 50 * (m + scan_cols);
    let bland_after = max_iters / 2;

    for iter in 0..max_iters {
        // Reduced costs: c_j − c_Bᵀ B⁻¹ A_j, computed from the tableau.
        let mut entering: Option<usize> = None;
        let mut best = -TOL;
        for j in 0..scan_cols {
            if basis.contains(&j) {
                continue;
            }
            let mut red = cost[j];
            for i in 0..m {
                red -= cost[basis[i]] * t[i][j];
            }
            if iter >= bland_after {
                // Bland: first improving column.
                if red < -TOL {
                    entering = Some(j);
                    break;
                }
            } else if red < best {
                best = red;
                entering = Some(j);
            }
        }
        let Some(e) = entering else {
            // Optimal: compute objective.
            let obj = (0..m)
                .map(|i| cost[basis[i]] * t[i][width - 1])
                .sum::<f64>();
            return Ok((obj, iter as u64));
        };

        // Ratio test (Bland ties: smallest basis index).
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            if t[i][e] > TOL {
                let ratio = t[i][width - 1] / t[i][e];
                if ratio < best_ratio - TOL
                    || (ratio < best_ratio + TOL && leaving.is_some_and(|l| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        let Some(l) = leaving else {
            return Err(LpError::Unbounded);
        };
        pivot_ref(t, basis, l, e);
    }
    Err(LpError::Numerical)
}

/// Pivots the reference tableau on `(row, col)`.
fn pivot_ref(t: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize) {
    let p = t[row][col];
    debug_assert!(p.abs() > 1e-14, "pivot on (near-)zero element");
    for v in &mut t[row] {
        *v /= p;
    }
    let pivot_row = t[row].clone();
    for (i, r) in t.iter_mut().enumerate() {
        if i != row {
            let factor = r[col];
            if factor != 0.0 {
                for (v, &pv) in r.iter_mut().zip(&pivot_row) {
                    *v -= factor * pv;
                }
            }
        }
    }
    basis[row] = col;
}
