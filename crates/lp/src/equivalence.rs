//! Property-based equivalence: workspace simplex vs the dense reference.
//!
//! The flat-tableau [`SimplexWorkspace`] replaces the old standard-form
//! solver (free variables split as `x = x⁺ − x⁻`, fresh `Vec<Vec<f64>>`
//! tableau per solve), which is kept verbatim, for tests only, as
//! `Program::solve_reference`. These properties pin the contract of the
//! rewrite: on random programs with mixed free/non-negative variables the
//! two paths must agree on feasibility classification, on the optimal
//! objective to within solver tolerance, and — through the ℓ₁ relaxation —
//! on which constraints get sacrificed.
//!
//! Coefficients for the feasibility tests are drawn from coarse integer
//! grids so that feasible/infeasible is decisively one or the other rather
//! than a 1e-9 coin flip at the Phase-1 tolerance.

use crate::relax::{relax_constraints, WeightedConstraint, KEPT_SLACK_TOL};
use crate::simplex::{Program, SimplexWorkspace};
use nomloc_geometry::{HalfPlane, Point, Polygon, Vec2};
use proptest::prelude::*;

const OBJ_TOL: f64 = 1e-6;

/// A random program on a coarse integer grid: `n_vars` in 1..=4 with a
/// random free/non-negative split, constraint coefficients in −3..=3 and
/// right-hand sides in −8..=8.
fn coarse_program(
    n_vars: usize,
    free_mask: u8,
    objective: &[i32],
    rows: &[(Vec<i32>, i32)],
    boxed: bool,
) -> Program {
    let mut p = Program::new(n_vars);
    for (j, &c) in objective.iter().take(n_vars).enumerate() {
        p.set_objective(j, c as f64);
        if free_mask & (1 << j) == 0 {
            p.set_nonneg(j);
        }
    }
    for (row, rhs) in rows {
        let coeffs: Vec<f64> = row.iter().take(n_vars).map(|&v| v as f64).collect();
        p.add_le(coeffs, *rhs as f64);
    }
    if boxed {
        // |x_j| ≤ 16 keeps every program bounded, so each case resolves
        // to Ok or Infeasible — never Unbounded.
        for j in 0..n_vars {
            let mut lo = vec![0.0; n_vars];
            let mut hi = vec![0.0; n_vars];
            lo[j] = -1.0;
            hi[j] = 1.0;
            p.add_le(hi, 16.0);
            p.add_le(lo, 16.0);
        }
    }
    p
}

fn prop_same_outcome(p: &Program) -> Result<(), TestCaseError> {
    let new = p.solve();
    let old = p.solve_reference();
    match (&new, &old) {
        (Ok(a), Ok(b)) => {
            prop_assert!(
                (a.objective - b.objective).abs() <= OBJ_TOL,
                "objective mismatch: workspace {} vs reference {}",
                a.objective,
                b.objective
            );
        }
        (Err(ea), Err(eb)) => {
            prop_assert_eq!(
                std::mem::discriminant(ea),
                std::mem::discriminant(eb),
                "error variant mismatch: workspace {:?} vs reference {:?}",
                ea,
                eb
            );
        }
        _ => {
            return Err(TestCaseError::Fail(format!(
                "outcome mismatch: workspace {new:?} vs reference {old:?}"
            )));
        }
    }
    Ok(())
}

proptest! {
    // Bounded programs: every case resolves to Ok or Infeasible, and the
    // two solvers must agree on which — and on the optimum when Ok.
    #[test]
    fn bounded_grid_programs_agree(
        n_vars in 1usize..5,
        free_mask in 0u8..16,
        objective in prop::collection::vec(-3i32..4, 4..5),
        rows in prop::collection::vec(
            (prop::collection::vec(-3i32..4, 4..5), -8i32..9),
            1..9,
        ),
    ) {
        let p = coarse_program(n_vars, free_mask, &objective, &rows, true);
        prop_same_outcome(&p)?;
    }

    // Unboxed programs additionally exercise the Unbounded classification
    // (a mathematical property of the grid data, not a tolerance call).
    #[test]
    fn unboxed_grid_programs_agree(
        n_vars in 1usize..4,
        free_mask in 0u8..8,
        objective in prop::collection::vec(-2i32..3, 3..4),
        rows in prop::collection::vec(
            (prop::collection::vec(-2i32..3, 3..4), -5i32..6),
            1..6,
        ),
    ) {
        let p = coarse_program(n_vars, free_mask, &objective, &rows, false);
        prop_same_outcome(&p)?;
    }

    // The ℓ₁ relaxation (free x,y plus one non-negative slack per
    // constraint) through the workspace must sacrifice exactly the same
    // constraints as the same LP solved by the reference path, with
    // matching total cost. Weights are distinct so the optimal slack
    // vector is (generically) unique.
    #[test]
    fn relaxation_slack_pattern_matches_reference(
        hps in prop::collection::vec(
            (-1.0..1.0f64, -1.0..1.0f64, -6.0..6.0f64),
            1..9,
        ),
    ) {
        let halfplanes: Vec<HalfPlane> = hps
            .iter()
            .filter(|(ax, ay, _)| ax.abs() + ay.abs() > 0.05)
            .map(|&(ax, ay, b)| HalfPlane::new(Vec2::new(ax, ay), b))
            .collect();
        prop_assume!(!halfplanes.is_empty());
        let bounds = Polygon::rectangle(Point::new(-10.0, -10.0), Point::new(10.0, 10.0));
        let mut cs: Vec<WeightedConstraint> = halfplanes
            .iter()
            .enumerate()
            .map(|(i, h)| WeightedConstraint::new(*h, 1.0 + 0.37 * i as f64))
            .collect();
        for h in crate::center::polygon_halfplanes(&bounds) {
            cs.push(WeightedConstraint::new(h, 1000.0));
        }

        let relaxation = relax_constraints(&cs).unwrap();

        // Reference: the same Eq. 19 LP, built as a Program and solved by
        // the retained dense path. Variables: x, y free; t_i ≥ 0.
        let n = 2 + cs.len();
        let mut p = Program::new(n);
        for (i, c) in cs.iter().enumerate() {
            p.set_objective(2 + i, c.weight);
            p.set_nonneg(2 + i);
            let mut row = vec![0.0; n];
            row[0] = c.halfplane.a.x;
            row[1] = c.halfplane.a.y;
            row[2 + i] = -1.0;
            p.add_le(row, c.halfplane.b);
        }
        let reference = p.solve_reference().unwrap();

        prop_assert!(
            (relaxation.cost() - reference.objective).abs() <= OBJ_TOL,
            "relaxation cost {} vs reference objective {}",
            relaxation.cost(),
            reference.objective
        );
        for (i, &slack) in relaxation.slacks().iter().enumerate() {
            let ref_slack = reference.x[2 + i].max(0.0);
            prop_assert_eq!(
                slack > KEPT_SLACK_TOL,
                ref_slack > KEPT_SLACK_TOL,
                "constraint {} slack pattern: workspace {} vs reference {}",
                i,
                slack,
                ref_slack
            );
        }
    }

    // Warm-started solves never change the answer: a hit must reproduce
    // the cold objective, and a miss must reproduce the cold solve
    // bit-for-bit.
    #[test]
    fn warm_start_never_changes_the_answer(
        rows in prop::collection::vec(
            (prop::collection::vec(-3i32..4, 2..3), -8i32..9),
            1..7,
        ),
        sx in -4i32..5,
        sy in -4i32..5,
    ) {
        let stage = |ws: &mut SimplexWorkspace| {
            ws.begin(2);
            ws.set_objective(0, 1.0);
            ws.set_objective(1, 1.0);
            for (row, rhs) in &rows {
                ws.push_row(*rhs as f64 + 16.0); // keep origin-shifted box feasible
                ws.set_coeff(0, row[0] as f64);
                ws.set_coeff(1, row[1] as f64);
            }
            // Bounding box.
            for (j, s) in [(0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0)] {
                ws.push_row(32.0);
                ws.set_coeff(j, s);
            }
        };
        let mut ws = SimplexWorkspace::new();
        stage(&mut ws);
        let cold = ws.solve();
        stage(&mut ws);
        let warm = ws.solve_from(&[sx as f64, sy as f64]);
        match (&cold, &warm) {
            (Ok(a), Ok(b)) => prop_assert!(
                (a.objective - b.objective).abs() <= OBJ_TOL,
                "warm objective {} vs cold {} (hit: {})",
                b.objective,
                a.objective,
                ws.last_warm_start_hit()
            ),
            _ => prop_assert_eq!(&cold, &warm, "cold/warm outcome mismatch"),
        }
        if !ws.last_warm_start_hit() {
            prop_assert_eq!(cold, warm, "a warm miss must equal the cold solve");
        }
    }
}
