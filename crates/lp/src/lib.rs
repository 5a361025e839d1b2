//! Dense linear-programming solvers for the NomLoc localization pipeline.
//!
//! NomLoc casts location estimation as linear programming (§IV-B of the
//! paper): every relative-proximity judgement is a half-plane constraint,
//! the area boundary contributes virtual-AP half-planes, and nomadic-AP
//! measurements add more. Because judgements can be wrong, the system is
//! often over-constrained, so the paper solves the *weighted relaxation*
//!
//! ```text
//! minimize  wᵀt
//! s.t.      Āz − t ≤ b̄,   t ≥ 0        (Eq. 19)
//! ```
//!
//! and reports "the center of the feasible region" as the position estimate
//! (computed by CVX's interior-point/log-barrier machinery in the original).
//! This crate supplies the equivalent, self-contained machinery:
//!
//! * [`simplex`] — a two-phase dense simplex for general LPs in inequality
//!   form with free and non-negative variables.
//! * [`relax`] — the weighted ℓ₁ constraint relaxation of Eq. 19.
//! * [`center`] — three notions of "center of the feasible region":
//!   Chebyshev center (LP), analytic center (damped Newton on the
//!   log-barrier, matching CVX's behaviour), and exact polygon centroid
//!   (2-D half-plane clipping).
//!
//! # Example
//!
//! ```
//! use nomloc_geometry::{HalfPlane, Vec2};
//! use nomloc_lp::relax::{relax_constraints, WeightedConstraint};
//!
//! // Two contradictory judgements: x ≤ 1 (confident) and −x ≤ −3, i.e.
//! // x ≥ 3 (doubtful). Relaxation sacrifices the low-weight one.
//! let constraints = vec![
//!     WeightedConstraint::new(HalfPlane::new(Vec2::new(1.0, 0.0), 1.0), 0.9),
//!     WeightedConstraint::new(HalfPlane::new(Vec2::new(-1.0, 0.0), -3.0), 0.6),
//!     // Keep the region bounded.
//!     WeightedConstraint::new(HalfPlane::new(Vec2::new(0.0, 1.0), 10.0), 100.0),
//!     WeightedConstraint::new(HalfPlane::new(Vec2::new(0.0, -1.0), 0.0), 100.0),
//!     WeightedConstraint::new(HalfPlane::new(Vec2::new(-1.0, 0.0), 0.0), 100.0),
//! ];
//! let relaxed = relax_constraints(&constraints)?;
//! let slacks = relaxed.slacks();
//! assert!(slacks[0] < 1e-6);        // high-weight constraint kept
//! assert!(slacks[1] > 1.0);         // low-weight constraint relaxed
//! # Ok::<(), nomloc_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod center;
pub mod relax;
pub mod simplex;

#[cfg(test)]
mod equivalence;

use std::fmt;

/// Errors produced by the LP solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// The constraint set admits no solution.
    Infeasible,
    /// The objective is unbounded below over the feasible set.
    Unbounded,
    /// The solver failed to make progress (degenerate numerics).
    Numerical,
    /// The problem dimensions are inconsistent or empty.
    BadProblem,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::Numerical => write!(f, "linear program solver failed numerically"),
            LpError::BadProblem => write!(f, "linear program is malformed"),
        }
    }
}

impl std::error::Error for LpError {}
