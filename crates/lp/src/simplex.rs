//! A two-phase dense simplex solver built around a reusable workspace.
//!
//! Solves LPs in *inequality form*
//!
//! ```text
//! minimize  cᵀx
//! s.t.      Ax ≤ b
//!           xⱼ ≥ 0  for j ∈ nonneg
//! ```
//!
//! where variables not marked non-negative are free.
//!
//! The solver is [`SimplexWorkspace`]: a single contiguous row-major
//! tableau that is reused across solves (no per-solve allocation once
//! warmed up), direct handling of free variables by on-demand column
//! negation (no `x = x⁺ − x⁻` column doubling), Phase-1 artificials only
//! for rows whose right-hand side is negative, and a warm-start entry
//! point ([`SimplexWorkspace::solve_from`]) that shifts free variables by a
//! known feasible point so the all-slack basis is immediately feasible and
//! Phase-1 is skipped entirely. The previous `Vec<Vec<f64>>` implementation
//! it replaced is compiled only for tests (`simplex/reference.rs`), as the
//! oracle of the `equivalence` proptests.
//!
//! [`Program::solve`] is a thin wrapper that runs the program through a
//! thread-local [`SimplexWorkspace`], so existing callers keep working and
//! automatically benefit from allocation reuse. Pivoting (Dantzig's rule
//! with an automatic switch to Bland's rule after a stall, Bland tie-breaks
//! in the ratio test) is deterministic: identical inputs take bit-identical
//! pivot sequences and produce bit-identical solutions.
//!
//! The paper relies on the fact that the relaxed SP program (Eq. 19) "can be
//! solved ... within weakly polynomial time"; the simplex here is
//! exponential in the worst case but in practice solves the small, dense
//! programs of NomLoc (tens of rows, 2 + N variables) in microseconds — the
//! `lp_scaling` bench quantifies this.

use crate::LpError;
use std::cell::RefCell;

#[cfg(test)]
mod reference;

/// Tolerance for reduced-cost and ratio tests.
const TOL: f64 = 1e-9;

/// A warm-start point is accepted when every shifted right-hand side is at
/// least `−WARM_TOL`; the tiny negatives are clamped to zero, perturbing
/// the program by at most this much (well inside the 1e-6 tolerance
/// contract documented in DESIGN.md).
const WARM_TOL: f64 = 1e-7;

/// Phase-1 declares infeasibility when the artificial objective exceeds
/// this (same threshold as the reference solver).
const PHASE1_TOL: f64 = 1e-7;

/// An LP in inequality form. See the [module docs](self) for conventions.
///
/// # Example
///
/// ```
/// use nomloc_lp::simplex::Program;
///
/// // max x + y over the triangle x,y ≥ 0, x + y ≤ 4  ⇒  minimize −x − y.
/// let mut p = Program::new(2);
/// p.set_objective(0, -1.0).set_objective(1, -1.0);
/// p.set_nonneg(0).set_nonneg(1);
/// p.add_le(vec![1.0, 1.0], 4.0);
/// let s = p.solve()?;
/// assert!((s.objective + 4.0).abs() < 1e-6);
/// # Ok::<(), nomloc_lp::LpError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Objective coefficients (length = number of variables).
    c: Vec<f64>,
    /// Constraint matrix rows.
    a: Vec<Vec<f64>>,
    /// Right-hand sides (length = number of rows).
    b: Vec<f64>,
    /// `true` for variables constrained to be non-negative.
    nonneg: Vec<bool>,
}

/// An optimal solution returned by [`Program::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal variable values, in the caller's variable order.
    pub x: Vec<f64>,
    /// Optimal objective value `cᵀx`.
    pub objective: f64,
    /// Simplex pivot-loop iterations spent across both phases — the
    /// solver-effort figure surfaced by the serving stats layer.
    pub iterations: u64,
}

impl Program {
    /// Creates a program with `n_vars` free variables and no constraints.
    pub fn new(n_vars: usize) -> Self {
        Program {
            c: vec![0.0; n_vars],
            a: Vec::new(),
            b: Vec::new(),
            nonneg: vec![false; n_vars],
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.c.len()
    }

    /// Number of constraint rows.
    pub fn n_rows(&self) -> usize {
        self.a.len()
    }

    /// Sets the objective coefficient of variable `j`.
    ///
    /// # Panics
    ///
    /// Panics when `j` is out of range.
    pub fn set_objective(&mut self, j: usize, coeff: f64) -> &mut Self {
        self.c[j] = coeff;
        self
    }

    /// Marks variable `j` as non-negative.
    ///
    /// # Panics
    ///
    /// Panics when `j` is out of range.
    pub fn set_nonneg(&mut self, j: usize) -> &mut Self {
        self.nonneg[j] = true;
        self
    }

    /// Adds the constraint `row · x ≤ rhs`.
    ///
    /// # Panics
    ///
    /// Panics when `row.len()` differs from the variable count.
    pub fn add_le(&mut self, row: Vec<f64>, rhs: f64) -> &mut Self {
        assert_eq!(row.len(), self.c.len(), "row length mismatch");
        self.a.push(row);
        self.b.push(rhs);
        self
    }

    /// Adds the constraint `row · x ≥ rhs` (stored as `−row · x ≤ −rhs`).
    ///
    /// # Panics
    ///
    /// Panics when `row.len()` differs from the variable count.
    pub fn add_ge(&mut self, row: Vec<f64>, rhs: f64) -> &mut Self {
        let neg: Vec<f64> = row.iter().map(|v| -v).collect();
        self.add_le(neg, -rhs)
    }

    /// Adds the equality `row · x = rhs` as a pair of inequalities.
    ///
    /// # Panics
    ///
    /// Panics when `row.len()` differs from the variable count.
    pub fn add_eq(&mut self, row: Vec<f64>, rhs: f64) -> &mut Self {
        self.add_le(row.clone(), rhs);
        self.add_ge(row, rhs)
    }

    /// Solves the program on a thread-local [`SimplexWorkspace`].
    ///
    /// # Errors
    ///
    /// * [`LpError::BadProblem`] — zero variables or non-finite data.
    /// * [`LpError::Infeasible`] — no point satisfies the constraints.
    /// * [`LpError::Unbounded`] — the objective decreases without bound.
    /// * [`LpError::Numerical`] — the pivot loop exceeded its iteration
    ///   budget (pathological degeneracy).
    pub fn solve(&self) -> Result<Solution, LpError> {
        SimplexWorkspace::with(|ws| ws.solve_program(self))
    }
}

thread_local! {
    static WORKSPACE_POOL: RefCell<SimplexWorkspace> = RefCell::new(SimplexWorkspace::new());
}

/// A reusable dense-simplex workspace: builder and solver in one.
///
/// The workspace owns every buffer the solver needs — the staged problem
/// (`c`, `A`, `b`, sign restrictions) and the flat row-major tableau with
/// its basis bookkeeping — and reuses them across solves, so after the
/// first call on a thread, solving a same-sized program performs no heap
/// allocation beyond the returned [`Solution`].
///
/// # Usage
///
/// ```
/// use nomloc_lp::simplex::SimplexWorkspace;
///
/// let mut ws = SimplexWorkspace::new();
/// // min −x − y over x,y ≥ 0, x + y ≤ 4.
/// ws.begin(2);
/// ws.set_objective(0, -1.0);
/// ws.set_objective(1, -1.0);
/// ws.set_nonneg(0);
/// ws.set_nonneg(1);
/// ws.push_row(4.0);
/// ws.set_coeff(0, 1.0);
/// ws.set_coeff(1, 1.0);
/// let s = ws.solve()?;
/// assert!((s.objective + 4.0).abs() < 1e-6);
/// # Ok::<(), nomloc_lp::LpError>(())
/// ```
///
/// # Free variables without column splitting
///
/// Free variables occupy a single column. A nonbasic free column may enter
/// the basis with a reduced cost of either sign: when the profitable
/// direction is negative the column is negated in place (recorded in a
/// per-column sign flag that is undone at extraction). A row whose basic
/// variable is free is *pinned* — free variables have no lower bound to
/// block at, so they never leave the basis once entered, and pinned rows
/// are excluded from the ratio test.
///
/// # Warm starting
///
/// [`SimplexWorkspace::solve_from`] accepts a point for the free variables
/// (a crash basis "seed"). The program is solved in shifted coordinates
/// `x' = x − x₀`; when the shifted origin is feasible (`b − A·x₀ ≥ 0`, up
/// to [`WARM_TOL`](self)) the all-slack basis is immediately feasible and
/// Phase-1 is skipped outright. When it is not, the shift is discarded and
/// the solve proceeds exactly like a cold [`SimplexWorkspace::solve`] —
/// warm starting never changes the result, only the work needed to reach
/// it.
#[derive(Debug, Default)]
pub struct SimplexWorkspace {
    // --- staged problem ---
    /// Variable count of the staged program.
    n: usize,
    /// Objective coefficients, length `n`.
    c: Vec<f64>,
    /// Sign restriction per variable.
    nonneg: Vec<bool>,
    /// Constraint matrix, row-major with stride `n`.
    a: Vec<f64>,
    /// Right-hand sides.
    b: Vec<f64>,

    // --- solver state, reused across solves ---
    /// Tableau width: `n` structural + `m` slack + `m` artificial + rhs.
    width: usize,
    /// Flat row-major tableau, `m × width`.
    t: Vec<f64>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Membership flags mirroring `basis`.
    in_basis: Vec<bool>,
    /// Rows whose basic variable is free (pinned: excluded from ratio test).
    row_free: Vec<bool>,
    /// Maintained reduced-cost row, updated O(width) per pivot.
    obj: Vec<f64>,
    /// Scratch copy of the normalized pivot row.
    pivot_copy: Vec<f64>,
    /// Column sign flags for free variables entered "downhill".
    negated: Vec<bool>,
    /// Free-variable shift applied by the active warm start (all zeros on
    /// cold solves).
    shift: Vec<f64>,

    // --- instrumentation ---
    warm_hits: u64,
    warm_misses: u64,
    phase1_pivots_saved: u64,
    last_warm_hit: bool,
    last_phase1_pivots_saved: u64,
}

impl SimplexWorkspace {
    /// Creates an empty workspace; buffers grow on first use and are
    /// retained afterwards.
    pub fn new() -> Self {
        SimplexWorkspace::default()
    }

    /// Runs `f` with this thread's pooled workspace.
    ///
    /// Every thread owns one lazily-created workspace; nested calls (e.g.
    /// a callback that itself solves an LP) fall back to a fresh temporary
    /// workspace, so reentrancy is safe and — because workspace state never
    /// influences results — deterministic.
    pub fn with<R>(f: impl FnOnce(&mut SimplexWorkspace) -> R) -> R {
        WORKSPACE_POOL.with(|cell| match cell.try_borrow_mut() {
            Ok(mut ws) => f(&mut ws),
            Err(_) => f(&mut SimplexWorkspace::new()),
        })
    }

    /// Starts staging a new program with `n_vars` free variables and no
    /// rows. Previous staged data is cleared; allocations are kept.
    pub fn begin(&mut self, n_vars: usize) {
        self.n = n_vars;
        self.c.clear();
        self.c.resize(n_vars, 0.0);
        self.nonneg.clear();
        self.nonneg.resize(n_vars, false);
        self.a.clear();
        self.b.clear();
    }

    /// Sets the objective coefficient of variable `j`.
    ///
    /// # Panics
    ///
    /// Panics when `j` is out of range.
    pub fn set_objective(&mut self, j: usize, coeff: f64) {
        self.c[j] = coeff;
    }

    /// Marks variable `j` as non-negative.
    ///
    /// # Panics
    ///
    /// Panics when `j` is out of range.
    pub fn set_nonneg(&mut self, j: usize) {
        self.nonneg[j] = true;
    }

    /// Appends a constraint row `row · x ≤ rhs` with all-zero coefficients;
    /// fill them with [`SimplexWorkspace::set_coeff`].
    pub fn push_row(&mut self, rhs: f64) {
        self.a.resize(self.a.len() + self.n, 0.0);
        self.b.push(rhs);
    }

    /// Sets coefficient `j` of the most recently pushed row.
    ///
    /// # Panics
    ///
    /// Panics when no row has been pushed or `j` is out of range.
    pub fn set_coeff(&mut self, j: usize, v: f64) {
        assert!(!self.b.is_empty(), "set_coeff before any push_row");
        assert!(j < self.n, "coefficient index out of range");
        let base = self.a.len() - self.n;
        self.a[base + j] = v;
    }

    /// Solves the staged program from a cold start.
    ///
    /// # Errors
    ///
    /// Same contract as [`Program::solve`].
    pub fn solve(&mut self) -> Result<Solution, LpError> {
        self.solve_inner(None)
    }

    /// Solves the staged program warm-started from `start`, a candidate
    /// feasible point. Entries for non-negative variables must be zero
    /// (only free variables can be shifted). See the
    /// [type docs](SimplexWorkspace) for the feasibility rule; an
    /// infeasible `start` silently degrades to a cold solve with an
    /// identical result.
    ///
    /// # Errors
    ///
    /// Same contract as [`Program::solve`].
    pub fn solve_from(&mut self, start: &[f64]) -> Result<Solution, LpError> {
        let usable = start.len() == self.n && start.iter().all(|v| v.is_finite());
        self.solve_inner(if usable { Some(start) } else { None })
    }

    /// Stages `p` into the workspace and solves it (cold).
    ///
    /// # Errors
    ///
    /// Same contract as [`Program::solve`].
    pub fn solve_program(&mut self, p: &Program) -> Result<Solution, LpError> {
        self.begin(p.n_vars());
        self.c.copy_from_slice(&p.c);
        self.nonneg.copy_from_slice(&p.nonneg);
        for (row, &rhs) in p.a.iter().zip(&p.b) {
            self.push_row(rhs);
            let base = self.a.len() - self.n;
            self.a[base..].copy_from_slice(row);
        }
        self.solve_inner(None)
    }

    /// Warm starts accepted since creation (Phase-1 skipped).
    pub fn warm_start_hits(&self) -> u64 {
        self.warm_hits
    }

    /// Warm starts rejected since creation (fell back to a cold solve).
    pub fn warm_start_misses(&self) -> u64 {
        self.warm_misses
    }

    /// Lower-bound estimate of Phase-1 pivots avoided by accepted warm
    /// starts: one per negative-rhs row of each warm-hit solve (the rows a
    /// cold solve would have covered with artificials, each needing at
    /// least one pivot to drive out of the basis).
    pub fn phase1_pivots_saved(&self) -> u64 {
        self.phase1_pivots_saved
    }

    /// Whether the most recent solve accepted its warm start.
    pub fn last_warm_start_hit(&self) -> bool {
        self.last_warm_hit
    }

    /// Phase-1 pivots the most recent solve avoided via warm start.
    pub fn last_phase1_pivots_saved(&self) -> u64 {
        self.last_phase1_pivots_saved
    }

    fn solve_inner(&mut self, warm: Option<&[f64]>) -> Result<Solution, LpError> {
        self.last_warm_hit = false;
        self.last_phase1_pivots_saved = 0;

        let n = self.n;
        let m = self.b.len();
        if n == 0 {
            return Err(LpError::BadProblem);
        }
        let finite = self.c.iter().all(|v| v.is_finite())
            && self.b.iter().all(|v| v.is_finite())
            && self.a.iter().all(|v| v.is_finite());
        if !finite {
            return Err(LpError::BadProblem);
        }
        if m == 0 {
            // No constraints: optimum 0 unless some variable can decrease
            // the objective forever — a free variable with any non-zero
            // cost, or a non-negative one with negative cost.
            let unbounded =
                self.c
                    .iter()
                    .zip(&self.nonneg)
                    .any(|(&c, &nn)| if nn { c < -TOL } else { c.abs() > TOL });
            if unbounded {
                return Err(LpError::Unbounded);
            }
            return Ok(Solution {
                x: vec![0.0; n],
                objective: 0.0,
                iterations: 0,
            });
        }

        // --- Warm-start check: is the shifted origin feasible? ---
        self.shift.clear();
        self.shift.resize(n, 0.0);
        let mut warm_ok = false;
        if let Some(start) = warm {
            debug_assert!(
                start
                    .iter()
                    .zip(&self.nonneg)
                    .all(|(&s, &nn)| !nn || s == 0.0),
                "warm start may only shift free variables"
            );
            warm_ok = self.a.chunks_exact(n).zip(&self.b).all(|(row, &b)| {
                let dot: f64 = row.iter().zip(start).map(|(a, s)| a * s).sum();
                b - dot >= -WARM_TOL
            });
            if warm_ok {
                self.shift.copy_from_slice(start);
                self.warm_hits += 1;
                self.last_warm_hit = true;
                // A cold solve runs Phase-1 only over negative-rhs rows,
                // needing at least one pivot per artificial driven out.
                let saved = self.b.iter().filter(|&&b| b < 0.0).count() as u64;
                self.last_phase1_pivots_saved = saved;
                self.phase1_pivots_saved += saved;
            } else {
                self.warm_misses += 1;
            }
        }

        // --- Build the tableau: [structural | slack | artificial | rhs]. ---
        let width = n + 2 * m + 1;
        self.width = width;
        self.t.clear();
        self.t.resize(m * width, 0.0);
        self.basis.clear();
        self.basis.resize(m, 0);
        self.in_basis.clear();
        self.in_basis.resize(n + 2 * m, false);
        self.row_free.clear();
        self.row_free.resize(m, false);
        self.obj.clear();
        self.obj.resize(width, 0.0);
        self.pivot_copy.clear();
        self.pivot_copy.resize(width, 0.0);
        self.negated.clear();
        self.negated.resize(n, false);

        for (i, row) in self.t.chunks_exact_mut(width).enumerate() {
            let a_row = &self.a[i * n..(i + 1) * n];
            row[..n].copy_from_slice(a_row);
            row[n + i] = 1.0;
            let dot: f64 = a_row.iter().zip(&self.shift).map(|(a, s)| a * s).sum();
            let rhs = self.b[i] - dot;
            // On a warm hit the shifted rhs is ≥ −WARM_TOL by construction;
            // clamp the tolerated tiny negatives so the slack basis is
            // exactly feasible.
            row[width - 1] = if warm_ok { rhs.max(0.0) } else { rhs };
            self.basis[i] = n + i;
            self.in_basis[n + i] = true;
        }

        let mut iterations: u64 = 0;

        // --- Phase 1, only for rows with negative rhs. ---
        let mut need_phase1 = false;
        for (i, row) in self.t.chunks_exact_mut(width).enumerate() {
            if row[width - 1] < 0.0 {
                for v in row.iter_mut() {
                    *v = -*v;
                }
                self.in_basis[n + i] = false;
                let art = n + m + i;
                row[art] = 1.0;
                self.basis[i] = art;
                self.in_basis[art] = true;
                need_phase1 = true;
            }
        }
        if need_phase1 {
            self.build_phase1_obj();
            iterations += self.pivot_loop(n + m)?;
            let art_base = n + m;
            let infeas: f64 = self
                .basis
                .iter()
                .enumerate()
                .filter(|&(_, &bj)| bj >= art_base)
                .map(|(i, _)| self.t[i * width + width - 1])
                .sum();
            if infeas > PHASE1_TOL {
                return Err(LpError::Infeasible);
            }
            // Drive leftover artificial basics out (degenerate rows); a row
            // with no usable column is all-zero (redundant) — harmless.
            for i in 0..m {
                if self.basis[i] >= art_base {
                    let row = &self.t[i * width..i * width + art_base];
                    if let Some(j) = row.iter().position(|v| v.abs() > TOL) {
                        self.pivot(i, j);
                    }
                }
            }
        }

        // --- Phase 2 over structural + slack columns. ---
        self.build_phase2_obj();
        iterations += self.pivot_loop(n + m)?;

        // --- Extract in caller coordinates: undo negation, re-add shift. ---
        let mut x = self.shift.clone();
        for (i, &bj) in self.basis.iter().enumerate() {
            if bj < n {
                let v = self.t[i * width + width - 1];
                x[bj] += if self.negated[bj] { -v } else { v };
            }
        }
        let objective = self.c.iter().zip(&x).map(|(c, x)| c * x).sum();
        Ok(Solution {
            x,
            objective,
            iterations,
        })
    }

    /// Reduced costs for Phase-1 (unit cost on artificials): since every
    /// artificial starts basic, `obj[j] = −Σ_{i: basis[i] artificial} t[i][j]`
    /// plus 1 on the artificial columns themselves.
    fn build_phase1_obj(&mut self) {
        let width = self.width;
        let art_base = self.n + self.b.len();
        self.obj.iter_mut().for_each(|v| *v = 0.0);
        for (i, &bj) in self.basis.iter().enumerate() {
            if bj >= art_base {
                let row = &self.t[i * width..(i + 1) * width];
                for (o, &v) in self.obj.iter_mut().zip(row) {
                    *o -= v;
                }
            }
        }
        for o in &mut self.obj[art_base..art_base + self.b.len()] {
            *o += 1.0;
        }
    }

    /// Reduced costs for Phase-2 from the (sign-adjusted) staged objective.
    fn build_phase2_obj(&mut self) {
        let width = self.width;
        let n = self.n;
        self.obj.iter_mut().for_each(|v| *v = 0.0);
        for j in 0..n {
            self.obj[j] = if self.negated[j] {
                -self.c[j]
            } else {
                self.c[j]
            };
        }
        for (i, &bj) in self.basis.iter().enumerate() {
            if bj < n {
                let cb = if self.negated[bj] {
                    -self.c[bj]
                } else {
                    self.c[bj]
                };
                if cb != 0.0 {
                    let row = &self.t[i * width..(i + 1) * width];
                    for (o, &v) in self.obj.iter_mut().zip(row) {
                        *o -= cb * v;
                    }
                }
            }
        }
    }

    /// Runs the pivot loop until optimality for the maintained reduced-cost
    /// row, scanning columns `0..scan` for entering candidates. Returns the
    /// pivot count.
    fn pivot_loop(&mut self, scan: usize) -> Result<u64, LpError> {
        let m = self.b.len();
        let n = self.n;
        let width = self.width;
        let max_iters = 2000 + 50 * (m + scan);
        let bland_after = max_iters / 2;

        for iter in 0..max_iters {
            // Entering column: Dantzig on the maintained reduced costs,
            // scoring free columns by −|red| (they may enter either way),
            // switching to Bland's first-improving rule after a stall.
            let mut entering: Option<usize> = None;
            let mut best = -TOL;
            for (j, (&red, &nn)) in self
                .obj
                .iter()
                .zip(self.nonneg.iter().chain(std::iter::repeat(&true)))
                .take(scan)
                .enumerate()
            {
                if self.in_basis[j] {
                    continue;
                }
                let score = if nn { red } else { -red.abs() };
                if iter >= bland_after {
                    if score < -TOL {
                        entering = Some(j);
                        break;
                    }
                } else if score < best {
                    best = score;
                    entering = Some(j);
                }
            }
            let Some(e) = entering else {
                return Ok(iter as u64);
            };
            if e < n && !self.nonneg[e] && self.obj[e] > TOL {
                self.negate_column(e);
            }

            // Ratio test over non-pinned rows (Bland ties: smallest basis
            // index). No blocking row ⇒ unbounded: pinned rows never block
            // because their free basic variable can absorb any amount.
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                if self.row_free[i] {
                    continue;
                }
                let te = self.t[i * width + e];
                if te > TOL {
                    let ratio = self.t[i * width + width - 1] / te;
                    if ratio < best_ratio - TOL
                        || (ratio < best_ratio + TOL
                            && leaving.is_some_and(|l| self.basis[i] < self.basis[l]))
                    {
                        best_ratio = ratio;
                        leaving = Some(i);
                    }
                }
            }
            let Some(l) = leaving else {
                return Err(LpError::Unbounded);
            };
            self.pivot(l, e);
        }
        Err(LpError::Numerical)
    }

    /// Flips the sign of structural column `e` (free variables entering
    /// with positive reduced cost walk the negated column instead).
    fn negate_column(&mut self, e: usize) {
        let width = self.width;
        for row in self.t.chunks_exact_mut(width) {
            row[e] = -row[e];
        }
        self.obj[e] = -self.obj[e];
        self.negated[e] = !self.negated[e];
    }

    /// Pivots the tableau on `(row, col)`, updating the maintained
    /// reduced-cost row and the basis bookkeeping.
    fn pivot(&mut self, row: usize, col: usize) {
        let width = self.width;
        let start = row * width;
        let p = self.t[start + col];
        debug_assert!(p.abs() > 1e-14, "pivot on (near-)zero element");
        for v in &mut self.t[start..start + width] {
            *v /= p;
        }
        self.pivot_copy
            .copy_from_slice(&self.t[start..start + width]);
        for (i, r) in self.t.chunks_exact_mut(width).enumerate() {
            if i == row {
                continue;
            }
            let factor = r[col];
            if factor != 0.0 {
                for (v, &pv) in r.iter_mut().zip(&self.pivot_copy) {
                    *v -= factor * pv;
                }
            }
        }
        let factor = self.obj[col];
        if factor != 0.0 {
            for (o, &pv) in self.obj.iter_mut().zip(&self.pivot_copy) {
                *o -= factor * pv;
            }
        }
        self.in_basis[self.basis[row]] = false;
        self.basis[row] = col;
        self.in_basis[col] = true;
        self.row_free[row] = col < self.n && !self.nonneg[col];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0.
        // Optimum (2, 6) with value 36 → minimize the negation.
        let mut p = Program::new(2);
        p.set_objective(0, -3.0).set_objective(1, -5.0);
        p.set_nonneg(0).set_nonneg(1);
        p.add_le(vec![1.0, 0.0], 4.0);
        p.add_le(vec![0.0, 2.0], 12.0);
        p.add_le(vec![3.0, 2.0], 18.0);
        let s = p.solve().unwrap();
        assert_near(s.x[0], 2.0);
        assert_near(s.x[1], 6.0);
        assert_near(s.objective, -36.0);
    }

    #[test]
    fn minimization_with_ge_rows() {
        // min 2x + 3y s.t. x + y ≥ 4, x ≥ 1, y ≥ 0 → (4, 0), value 8?
        // Check: objective 2·4 = 8 at (4,0); (1,3) gives 11. Yes, (4,0).
        let mut p = Program::new(2);
        p.set_objective(0, 2.0).set_objective(1, 3.0);
        p.set_nonneg(0).set_nonneg(1);
        p.add_ge(vec![1.0, 1.0], 4.0);
        p.add_ge(vec![1.0, 0.0], 1.0);
        let s = p.solve().unwrap();
        assert_near(s.objective, 8.0);
        assert_near(s.x[0], 4.0);
        assert_near(s.x[1], 0.0);
    }

    #[test]
    fn free_variables() {
        // min x s.t. x ≥ −5 (free x) → x = −5.
        let mut p = Program::new(1);
        p.set_objective(0, 1.0);
        p.add_ge(vec![1.0], -5.0);
        let s = p.solve().unwrap();
        assert_near(s.x[0], -5.0);
    }

    #[test]
    fn equality_constraint() {
        // min x + y s.t. x + y = 3, x − y ≤ 1, x, y ≥ 0.
        let mut p = Program::new(2);
        p.set_objective(0, 1.0).set_objective(1, 1.0);
        p.set_nonneg(0).set_nonneg(1);
        p.add_eq(vec![1.0, 1.0], 3.0);
        p.add_le(vec![1.0, -1.0], 1.0);
        let s = p.solve().unwrap();
        assert_near(s.objective, 3.0);
        assert_near(s.x[0] + s.x[1], 3.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Program::new(1);
        p.set_nonneg(0);
        p.add_le(vec![1.0], 1.0);
        p.add_ge(vec![1.0], 3.0);
        assert_eq!(p.solve(), Err(LpError::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Program::new(1);
        p.set_objective(0, -1.0); // min −x, x ≥ 0, no upper bound.
        p.set_nonneg(0);
        p.add_ge(vec![1.0], 0.0);
        assert_eq!(p.solve(), Err(LpError::Unbounded));
    }

    #[test]
    fn unbounded_free_variable_no_rows() {
        let mut p = Program::new(1);
        p.set_objective(0, 1.0);
        assert_eq!(p.solve(), Err(LpError::Unbounded));
    }

    #[test]
    fn zero_objective_feasibility_check() {
        // Pure feasibility: minimize 0 over a triangle.
        let mut p = Program::new(2);
        p.add_le(vec![1.0, 0.0], 2.0);
        p.add_le(vec![0.0, 1.0], 2.0);
        p.add_ge(vec![1.0, 1.0], 1.0);
        let s = p.solve().unwrap();
        assert_near(s.objective, 0.0);
        // The returned point must satisfy all constraints.
        assert!(s.x[0] <= 2.0 + 1e-9);
        assert!(s.x[1] <= 2.0 + 1e-9);
        assert!(s.x[0] + s.x[1] >= 1.0 - 1e-9);
    }

    #[test]
    fn bad_problem_rejected() {
        let p = Program::new(0);
        assert_eq!(p.solve(), Err(LpError::BadProblem));
        let mut p = Program::new(1);
        p.add_le(vec![f64::NAN], 1.0);
        assert_eq!(p.solve(), Err(LpError::BadProblem));
    }

    #[test]
    fn negative_rhs_handled() {
        // min y s.t. −x ≤ −2 (x ≥ 2), y ≥ x − 10, y free, x ≥ 0.
        let mut p = Program::new(2);
        p.set_objective(1, 1.0);
        p.set_nonneg(0);
        p.add_le(vec![-1.0, 0.0], -2.0);
        p.add_le(vec![1.0, -1.0], 10.0);
        let s = p.solve().unwrap();
        assert!(s.x[0] >= 2.0 - 1e-9);
        assert_near(s.objective, s.x[0] - 10.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: many redundant constraints through one vertex.
        let mut p = Program::new(2);
        p.set_objective(0, -1.0).set_objective(1, -1.0);
        p.set_nonneg(0).set_nonneg(1);
        for k in 1..=12 {
            let k = k as f64;
            p.add_le(vec![1.0, k], k); // all pass through (0, 1)… varied slopes
        }
        p.add_le(vec![1.0, 0.0], 1.0);
        let s = p.solve().unwrap();
        // Optimal point satisfies every constraint.
        for k in 1..=12 {
            let k = k as f64;
            assert!(s.x[0] + k * s.x[1] <= k + 1e-6);
        }
        assert!(s.x[0] <= 1.0 + 1e-6);
    }

    #[test]
    fn diet_problem() {
        // min 0.6a + 0.35b s.t. 5a + 7b ≥ 8 (protein), 4a + 2b ≥ 15
        // (iron), a, b ≥ 0. Known optimum at b = 0 intersection region.
        let mut p = Program::new(2);
        p.set_objective(0, 0.6).set_objective(1, 0.35);
        p.set_nonneg(0).set_nonneg(1);
        p.add_ge(vec![5.0, 7.0], 8.0);
        p.add_ge(vec![4.0, 2.0], 15.0);
        let s = p.solve().unwrap();
        // Verify feasibility and optimality against a fine grid search.
        assert!(5.0 * s.x[0] + 7.0 * s.x[1] >= 8.0 - 1e-6);
        assert!(4.0 * s.x[0] + 2.0 * s.x[1] >= 15.0 - 1e-6);
        let mut best = f64::INFINITY;
        let mut i = 0.0;
        while i <= 10.0 {
            let mut j = 0.0;
            while j <= 10.0 {
                if 5.0 * i + 7.0 * j >= 8.0 && 4.0 * i + 2.0 * j >= 15.0 {
                    best = best.min(0.6 * i + 0.35 * j);
                }
                j += 0.01;
            }
            i += 0.01;
        }
        assert!(
            s.objective <= best + 1e-3,
            "{} vs grid {}",
            s.objective,
            best
        );
    }

    #[test]
    fn iterations_reported() {
        let mut p = Program::new(2);
        p.set_objective(0, -3.0).set_objective(1, -5.0);
        p.set_nonneg(0).set_nonneg(1);
        p.add_le(vec![1.0, 0.0], 4.0);
        p.add_le(vec![0.0, 2.0], 12.0);
        p.add_le(vec![3.0, 2.0], 18.0);
        let s = p.solve().unwrap();
        // Reaching (2, 6) needs real pivot work in at least one phase.
        assert!(s.iterations > 0, "iterations = {}", s.iterations);
    }

    #[test]
    fn builder_accessors() {
        let mut p = Program::new(3);
        p.add_le(vec![1.0, 0.0, 0.0], 1.0);
        assert_eq!(p.n_vars(), 3);
        assert_eq!(p.n_rows(), 1);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn row_length_checked() {
        let mut p = Program::new(2);
        p.add_le(vec![1.0], 1.0);
    }

    // --- SimplexWorkspace-specific tests ---

    /// The textbook LP staged directly on a workspace.
    fn stage_textbook(ws: &mut SimplexWorkspace) {
        ws.begin(2);
        ws.set_objective(0, -3.0);
        ws.set_objective(1, -5.0);
        ws.set_nonneg(0);
        ws.set_nonneg(1);
        ws.push_row(4.0);
        ws.set_coeff(0, 1.0);
        ws.push_row(12.0);
        ws.set_coeff(1, 2.0);
        ws.push_row(18.0);
        ws.set_coeff(0, 3.0);
        ws.set_coeff(1, 2.0);
    }

    #[test]
    fn workspace_builder_matches_program() {
        let mut ws = SimplexWorkspace::new();
        stage_textbook(&mut ws);
        let s = ws.solve().unwrap();
        assert_near(s.x[0], 2.0);
        assert_near(s.x[1], 6.0);
        assert_near(s.objective, -36.0);
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let mut ws = SimplexWorkspace::new();
        stage_textbook(&mut ws);
        let first = ws.solve().unwrap();
        // Solve a differently-shaped program in between to dirty buffers.
        ws.begin(1);
        ws.set_objective(0, 1.0);
        ws.push_row(-3.0);
        ws.set_coeff(0, -1.0);
        ws.solve().unwrap();
        stage_textbook(&mut ws);
        let second = ws.solve().unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn warm_start_hit_skips_phase1_and_matches_cold() {
        // min x + y over the shifted box −7 ≤ x ≤ −3, 2 ≤ y ≤ 6 (free
        // vars, negative rhs everywhere) → cold solve needs Phase-1.
        let stage = |ws: &mut SimplexWorkspace| {
            ws.begin(2);
            ws.set_objective(0, 1.0);
            ws.set_objective(1, 1.0);
            for (ax, ay, b) in [
                (1.0, 0.0, -3.0),
                (-1.0, 0.0, 7.0),
                (0.0, 1.0, 6.0),
                (0.0, -1.0, -2.0),
            ] {
                ws.push_row(b);
                ws.set_coeff(0, ax);
                ws.set_coeff(1, ay);
            }
        };
        let mut ws = SimplexWorkspace::new();
        stage(&mut ws);
        let cold = ws.solve().unwrap();
        assert!(!ws.last_warm_start_hit());
        assert_near(cold.x[0], -7.0);
        assert_near(cold.x[1], 2.0);

        stage(&mut ws);
        let warm = ws.solve_from(&[-5.0, 4.0]).unwrap();
        assert!(ws.last_warm_start_hit());
        // Two rows have negative rhs — the ones cold Phase-1 covers.
        assert_eq!(ws.last_phase1_pivots_saved(), 2);
        assert_eq!(ws.warm_start_hits(), 1);
        assert_near(warm.x[0], cold.x[0]);
        assert_near(warm.x[1], cold.x[1]);
        assert_near(warm.objective, cold.objective);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn warm_start_miss_falls_back_to_cold_result() {
        let stage = |ws: &mut SimplexWorkspace| {
            ws.begin(1);
            ws.set_objective(0, 1.0);
            ws.push_row(-5.0); // x ≥ 5
            ws.set_coeff(0, -1.0);
            ws.push_row(9.0); // x ≤ 9
            ws.set_coeff(0, 1.0);
        };
        let mut ws = SimplexWorkspace::new();
        stage(&mut ws);
        let cold = ws.solve().unwrap();
        stage(&mut ws);
        let warm = ws.solve_from(&[0.0]).unwrap(); // 0 violates x ≥ 5
        assert!(!ws.last_warm_start_hit());
        assert_eq!(ws.warm_start_misses(), 1);
        assert_eq!(cold, warm, "a missed warm start must not change results");
    }

    #[test]
    fn workspace_matches_reference_on_unit_tests() {
        // Spot-check both paths agree on a mixed free/nonneg program with
        // negative rhs (the shapes the pipeline produces).
        let mut p = Program::new(3);
        p.set_objective(0, 0.3).set_objective(1, -0.2);
        p.set_objective(2, 1.0);
        p.set_nonneg(2);
        p.add_le(vec![1.0, 1.0, -1.0], 4.0);
        p.add_le(vec![-1.0, 2.0, 0.0], -1.0);
        p.add_le(vec![0.0, -1.0, 0.0], 2.0);
        p.add_le(vec![1.0, 0.0, 0.0], 6.0);
        p.add_le(vec![0.0, 1.0, 0.0], 5.0);
        p.add_le(vec![-1.0, 0.0, 0.0], 6.0);
        let a = p.solve().unwrap();
        let b = p.solve_reference().unwrap();
        assert!((a.objective - b.objective).abs() < 1e-6);
    }

    #[test]
    fn thread_local_pool_runs_nested() {
        let outer = SimplexWorkspace::with(|ws| {
            stage_textbook(ws);
            let s = ws.solve().unwrap();
            // Nested use while the pooled workspace is borrowed must still
            // work (falls back to a temporary).
            let inner = SimplexWorkspace::with(|ws2| {
                stage_textbook(ws2);
                ws2.solve().unwrap()
            });
            assert_eq!(s, inner);
            s
        });
        assert_near(outer.objective, -36.0);
    }
}
