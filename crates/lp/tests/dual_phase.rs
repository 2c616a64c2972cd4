//! Dual simplex repair phase: a validated-but-primal-infeasible warm
//! basis that is still dual feasible must be repaired in place (counted
//! as a warm-start hit), not discarded for a cold re-solve.
//!
//! Each test records under its own fresh `obs::Recorder` and turns
//! metrics on only for the warm solve, so the counters it asserts are
//! that solve's alone.

use nwdp_lp::model::{Cmp, Problem, Sense};
use nwdp_lp::simplex::{solve_warm, SolverOpts, WarmStart};
use nwdp_lp::Status;
use nwdp_obs as obs;

fn ctr(name: &str) -> u64 {
    obs::snapshot()
        .iter()
        .find_map(|(n, v)| match v {
            obs::SnapshotValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
        .unwrap_or(0)
}

/// min x1 + x2  s.t.  x1 + x2 ≥ rhs, with `ub1` capping x1.
fn cover_lp(rhs: f64, ub1: f64) -> Problem {
    let mut p = Problem::new(Sense::Min);
    let x1 = p.add_var("x1", 0.0, ub1, 1.0);
    let x2 = p.add_var("x2", 0.0, 10.0, 1.0);
    p.add_con("cover", &[(x1, 1.0), (x2, 1.0)], Cmp::Ge, rhs);
    p
}

/// A hand-built basis that is dual feasible but primal infeasible for the
/// target problem: `{x1}` basic was optimal for `cover_lp(2.0, 10.0)`
/// (x1 = 2, x2 at lower, Ge-slack at its upper bound 0), but against
/// `cover_lp(5.0, 3.0)` it puts x1 = 5 > 3. The costs are unchanged, so
/// the reduced costs keep their signs — exactly the case the dual phase
/// repairs with one pivot (x2 enters, x1 leaves to its upper bound).
fn stale_optimal_basis() -> WarmStart {
    WarmStart::from_parts(2, 1, vec![3, 0, 1], vec![2.0, 0.0, 0.0])
}

#[test]
fn dual_feasible_primal_infeasible_basis_repaired_without_fallback() {
    obs::scoped(&obs::Recorder::new(), || {
        let p = cover_lp(5.0, 3.0);
        let cold = solve_warm(&p, &SolverOpts::default(), None).0;
        assert_eq!(cold.status, Status::Optimal);

        obs::set_enabled(true);
        let warm = stale_optimal_basis();
        let (sol, snap) = solve_warm(&p, &SolverOpts::default(), Some(&warm));

        assert_eq!(sol.status, Status::Optimal);
        assert!(
            (sol.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
            "repaired warm solve diverged: {} vs cold {}",
            sol.objective,
            cold.objective
        );
        assert!(snap.is_some(), "optimal solve must produce a snapshot");
        assert_eq!(ctr("simplex.warmstart_hits"), 1, "repair must count as a hit");
        assert_eq!(ctr("simplex.warmstart_fallbacks"), 0, "no cold fallback");
        assert_eq!(ctr("simplex.dual_phase_runs"), 1);
        assert_eq!(ctr("simplex.dual_repairs"), 1);
        assert!(ctr("simplex.dual_pivots") >= 1, "repair must pivot");
    });
}

/// min x1 + x2/2  s.t.  x1 + x2 ≥ 5, x1 ≤ 3, x2 ≥ 0 unbounded above.
/// Against it the stale `{x1}` basis is primal infeasible (x1 = 5 > 3)
/// *and* dual infeasible: x2 is now the cheaper cover, so its reduced
/// cost at the lower bound has the wrong sign, and without an upper
/// bound there is nothing to flip it to.
fn cheap_unbounded_cover_lp() -> Problem {
    let mut p = Problem::new(Sense::Min);
    let x1 = p.add_var("x1", 0.0, 3.0, 1.0);
    let x2 = p.add_var("x2", 0.0, f64::INFINITY, 0.5);
    p.add_con("cover", &[(x1, 1.0), (x2, 1.0)], Cmp::Ge, 5.0);
    p
}

#[test]
fn basis_infeasible_in_both_senses_is_rejected_and_solved_cold() {
    obs::scoped(&obs::Recorder::new(), || {
        let p = cheap_unbounded_cover_lp();
        let cold = solve_warm(&p, &SolverOpts::default(), None).0;

        obs::set_enabled(true);
        let (sol, _) = solve_warm(&p, &SolverOpts::default(), Some(&stale_optimal_basis()));

        // Same answer as cold, via the reject-and-restart path.
        assert_eq!(sol.status, Status::Optimal);
        assert!(
            (sol.objective - cold.objective).abs() <= 1e-9,
            "{} vs cold {}",
            sol.objective,
            cold.objective
        );
        assert_eq!(ctr("simplex.warmstart_hits"), 0);
        assert_eq!(ctr("simplex.warmstart_fallbacks"), 1);
        assert_eq!(ctr("simplex.warmstart_rejected"), 1);
        // The dual phase looked at the basis and turned it down unpivoted.
        assert_eq!(ctr("simplex.dual_phase_runs"), 1);
        assert_eq!(ctr("simplex.dual_repairs"), 0);
        assert_eq!(ctr("simplex.dual_pivots"), 0);
    });
}

#[test]
fn dimension_mismatch_attributed_as_rejected() {
    obs::scoped(&obs::Recorder::new(), || {
        obs::set_enabled(true);
        // Snapshot for a 3-variable problem against a 2-variable one.
        let wrong = WarmStart::from_parts(3, 1, vec![3, 0, 0, 1], vec![2.0, 0.0, 0.0, 0.0]);
        let (sol, _) = solve_warm(&cover_lp(5.0, 3.0), &SolverOpts::default(), Some(&wrong));

        assert_eq!(sol.status, Status::Optimal, "cold retry still solves");
        // The legacy fallback counter is the sum of the cause split.
        assert_eq!(ctr("simplex.warmstart_fallbacks"), 1);
        assert_eq!(ctr("simplex.warmstart_rejected"), 1);
        assert_eq!(ctr("simplex.warmstart_singular"), 0);
    });
}
