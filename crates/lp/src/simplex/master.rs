//! A restricted master LP that grows column by column in place.
//!
//! Column generation re-solves its master after every pricing round, with
//! the same rows and a few more columns. [`RestrictedMaster`] keeps what
//! the simplex built between those solves: the row scaling, the sparse
//! factorization of the basis, the basis itself and the maintained duals.
//! A new column enters nonbasic at its bound nearest zero, which is 0 for
//! a master's `λ ≥ 0` weights, so the last optimal basis stays primal
//! feasible and phase 2 resumes from it. Only the new columns' reduced
//! costs are unknown; the resumed phase recomputes them before it prices.
//!
//! The row scales are fixed by the columns present at the first solve and
//! applied to every later column, so the kept factorization stays valid.
//! A master has few rows and dense columns, and its backend is built for
//! that ([`SparseFactors::for_master`]). A refactorization costs about as
//! much as a few FTRANs through a long eta file, so the kept
//! factorization is rebuilt after [`UPDATES`] pivots rather than the 96
//! of a one-shot solve. FTRAN results fill most of the rows, so FTRAN
//! visits every refactorization eta instead of walking a heap. And each
//! pivot leaves every reduced cost stale, so pricing works through
//! sections of [`SECTION`] columns rather than rebuilding all of them.
//!
//! A resumed solve whose basis goes singular, or whose new columns start
//! at a nonzero bound that leaves the kept basis infeasible, restarts
//! cold, as [`solve_warm`](super::solve_warm) does when its snapshot
//! fails. A solve that ends without an optimum drops the kept state, so
//! the next one starts cold.

use super::sparse::SparseFactors;
use super::{cold_core, default_max_iters, numerical_failure, Core, SolverOpts};
use crate::model::{Cmp, Problem, Sense, VarId};
use crate::solution::{Solution, Status};
use nwdp_obs as obs;

/// Basis updates between refactorizations of a master's basis.
const UPDATES: usize = 32;

/// Columns per pricing section of a master. Its duals move with every
/// pivot and its columns are dense, so each pivot leaves every reduced
/// cost stale; partial pricing rebuilds one section at a time instead of
/// all of them.
const SECTION: usize = 64;

/// A minimization LP with fixed rows and a growing set of columns, each
/// solve resuming from the optimal basis of the previous one.
pub struct RestrictedMaster {
    p: Problem,
    opts: SolverOpts,
    live: Option<Live>,
}

/// The simplex state kept between solves.
struct Live {
    core: Core<SparseFactors>,
    /// `at[k]`: the simplex column of master column `k`. Master columns
    /// past its end were added since the last solve.
    at: Vec<usize>,
}

impl RestrictedMaster {
    /// A master with rows `rows`, each `(cmp, rhs)`, and no columns yet.
    pub fn new(rows: &[(Cmp, f64)], opts: &SolverOpts) -> Self {
        let mut p = Problem::new(Sense::Min);
        for &(cmp, rhs) in rows {
            p.add_con("", &[], cmp, rhs);
        }
        RestrictedMaster { p, opts: opts.clone(), live: None }
    }

    /// Append a column with cost `cost`, bounds `[lb, ub]` and the
    /// coefficients `entries`, `(row, value)` with distinct rows. Zero
    /// values are dropped. The column takes part from the next solve.
    pub fn add_column(&mut self, cost: f64, lb: f64, ub: f64, entries: &[(usize, f64)]) -> VarId {
        let rows = self.p.num_cons();
        let v = self.p.add_var("", lb, ub, cost);
        let col = &mut self.p.cols[v.0];
        for &(i, a) in entries {
            assert!(i < rows, "column entry in row {i} of a {rows}-row master");
            assert!(!a.is_nan(), "NaN coefficient in a master column");
            if a != 0.0 {
                col.push((i, a));
            }
        }
        v
    }

    /// The master as a [`Problem`], for checks against a one-shot solve.
    pub fn problem(&self) -> &Problem {
        &self.p
    }

    /// Solve over every column added so far. The solution's `iterations`
    /// are this solve's pivots.
    pub fn solve(&mut self) -> Solution {
        if let Some(live) = self.live.as_mut() {
            if let Some(sol) = live.resume(&self.p, &self.opts) {
                if sol.status != Status::Optimal {
                    self.live = None;
                }
                return sol;
            }
        }
        self.cold()
    }

    /// Two-phase solve from the slack basis, retried under Bland's rule
    /// when the basis goes singular; an optimum keeps its state.
    fn cold(&mut self) -> Solution {
        self.live = None;
        let t0 = obs::now_if_enabled();
        let n = self.p.num_vars();
        let max_iters = default_max_iters(&self.opts, self.p.num_cons(), n);
        for start_bland in [false, true] {
            let mut core = cold_core(&self.p, SparseFactors::for_master(UPDATES), start_bland);
            core.set_section(SECTION);
            let Some(status) = core.run_phases(max_iters, t0) else {
                if !start_bland && obs::enabled() {
                    obs::counter("simplex.singular_restarts").inc();
                }
                continue;
            };
            let x = (0..n).map(|j| core.var_value(j)).collect();
            let sol = core.solution(&self.p, status, x);
            if sol.status == Status::Optimal {
                self.live = Some(Live { core, at: (0..n).collect() });
            }
            return sol;
        }
        numerical_failure(&self.p)
    }
}

impl Live {
    /// Append the columns added since the last solve and resume phase 2.
    /// `None` when the kept basis cannot serve: it went singular, or a
    /// new column's starting value left it infeasible.
    fn resume(&mut self, p: &Problem, opts: &SolverOpts) -> Option<Solution> {
        let t0 = obs::now_if_enabled();
        let core = &mut self.core;
        core.begin_solve();
        let added = self.at.len()..p.num_vars();
        let mut moved = false;
        for k in added.clone() {
            let v = &p.vars[k];
            let j = core.push_column(&p.cols[k], v.lb, v.ub, v.obj);
            moved |= core.var_value(j) != 0.0;
            self.at.push(j);
        }
        if !added.is_empty() {
            core.columns_added();
        }
        if moved {
            core.refresh();
            if core.singular || !core.primal_feasible() {
                return None;
            }
        }
        let max_iters = default_max_iters(opts, p.num_cons(), p.num_vars());
        let status = core.phase2(max_iters, 0, t0)?;
        let x = self.at.iter().map(|&j| core.var_value(j)).collect();
        Some(core.solution(p, status, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{verify_kkt, KktTol};
    use crate::simplex::solve;

    #[test]
    fn resumes_where_the_last_solve_stopped() {
        // min L over two columns, then a third that lowers the optimum.
        let mut lp = RestrictedMaster::new(
            &[(Cmp::Le, 0.0), (Cmp::Le, 0.0), (Cmp::Eq, 1.0)],
            &SolverOpts::default(),
        );
        lp.add_column(1.0, 0.0, f64::INFINITY, &[(0, -1.0), (1, -1.0)]);
        lp.add_column(0.0, 0.0, f64::INFINITY, &[(0, 3.0), (1, 1.0), (2, 1.0)]);
        lp.add_column(0.0, 0.0, f64::INFINITY, &[(0, 1.0), (1, 3.0), (2, 1.0)]);
        let first = lp.solve();
        assert_eq!(first.status, Status::Optimal);
        assert!((first.objective - 2.0).abs() < 1e-12, "{}", first.objective);
        lp.add_column(0.0, 0.0, f64::INFINITY, &[(0, 1.5), (1, 1.5), (2, 1.0)]);
        let second = lp.solve();
        assert_eq!(second.status, Status::Optimal);
        assert!((second.objective - 1.5).abs() < 1e-12, "{}", second.objective);
        assert!(lp.live.is_some(), "the optimum keeps its state");
        assert_eq!(lp.live.as_ref().map(|l| l.at.len()), Some(4));
        verify_kkt(lp.problem(), &second, KktTol::default()).unwrap();
        let cold = solve(lp.problem(), &SolverOpts::default());
        assert!((cold.objective - second.objective).abs() < 1e-12);
    }

    #[test]
    fn a_column_starting_off_zero_that_breaks_the_basis_restarts_cold() {
        // min −x0 + x2 with x0 ≤ 1 and x0 + x2 ≥ 0.5 stops at x0 = 1. A
        // new column starting at its lower bound 1 on the first row
        // pushes x0 to 0 and the basic slack of the second row out of
        // its bounds; the solve must still reach x2 = 0.5.
        let mut lp =
            RestrictedMaster::new(&[(Cmp::Le, 1.0), (Cmp::Ge, 0.5)], &SolverOpts::default());
        lp.add_column(-1.0, 0.0, 5.0, &[(0, 1.0), (1, 1.0)]);
        lp.add_column(1.0, 0.0, 5.0, &[(1, 1.0)]);
        let first = lp.solve();
        assert_eq!(first.status, Status::Optimal);
        assert!((first.objective + 1.0).abs() < 1e-12, "{}", first.objective);
        lp.add_column(0.0, 1.0, 2.0, &[(0, 1.0)]);
        let sol = lp.solve();
        assert_eq!(sol.status, Status::Optimal);
        verify_kkt(lp.problem(), &sol, KktTol::default()).unwrap();
        assert!((sol.objective - 0.5).abs() < 1e-9, "{}", sol.objective);
    }

    #[test]
    fn maintained_reduced_costs_track_a_recompute_across_rounds() {
        // A max-load master grown past two pricing sections: after every
        // pivot of every resumed solve, `π` and the reduced costs kept
        // from round to round must equal a full recompute.
        use crate::simplex::{DriftProbe, DJ_DRIFT};
        let rows = 12;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut kinds = vec![(Cmp::Le, 0.0); rows];
        kinds.push((Cmp::Eq, 1.0));
        let mut lp = RestrictedMaster::new(&kinds, &SolverOpts::default());
        let load: Vec<_> = (0..rows).map(|i| (i, -1.0)).collect();
        lp.add_column(1.0, 0.0, f64::INFINITY, &load);
        DJ_DRIFT.with(|c| c.set(Some(DriftProbe::default())));
        for round in 0..50 {
            for _ in 0..3 {
                let mut col: Vec<_> = (0..rows).map(|i| (i, 2.0 * unit())).collect();
                col.push((rows, 1.0));
                lp.add_column(0.0, 0.0, f64::INFINITY, &col);
            }
            let sol = lp.solve();
            assert_eq!(sol.status, Status::Optimal, "round {round}");
            verify_kkt(lp.problem(), &sol, KktTol::default()).unwrap();
        }
        let probe = DJ_DRIFT.with(|c| c.replace(None)).unwrap_or_default();
        assert!(lp.problem().num_vars() > 2 * SECTION);
        assert!(probe.primal >= 50, "only {} pivots checked", probe.primal);
        assert!(probe.worst <= 1e-9, "reduced costs drifted by {:e}", probe.worst);
    }

    #[test]
    fn a_failed_solve_drops_the_kept_state() {
        let opts = SolverOpts { max_iters: Some(0), ..SolverOpts::default() };
        let mut lp = RestrictedMaster::new(&[(Cmp::Eq, 1.0)], &opts);
        lp.add_column(1.0, 0.0, f64::INFINITY, &[(0, 1.0)]);
        assert_eq!(lp.solve().status, Status::IterLimit);
        assert!(lp.live.is_none());
    }
}
