//! Lazy-constraint (row generation) solving.
//!
//! The NIPS LP relaxation has one coverage row per (rule, path) pair and
//! one variable-upper-bound row per (rule, path, node) triple — hundreds of
//! thousands of rows, of which only a small fraction bind at the optimum.
//! Rather than materializing all of them, [`solve_with_lazy_rows`] solves a
//! restricted LP, scans the lazy pool for violated rows, adds the worst
//! offenders, and repeats. At termination no lazy row is violated, so the
//! restricted optimum is optimal for the full LP (cutting-plane argument:
//! the restricted problem is a relaxation of the full one).

use crate::model::{Cmp, Problem, VarId};
#[cfg(test)]
use crate::simplex::solve;
use crate::simplex::{solve_warm, SolverOpts, WarmStart};
use crate::solution::{Solution, Status};
use nwdp_obs as obs;

/// A constraint kept out of the LP until it becomes violated.
#[derive(Debug, Clone)]
pub struct LazyRow {
    pub name: String,
    pub terms: Vec<(VarId, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

impl LazyRow {
    pub fn new(name: impl Into<String>, terms: Vec<(VarId, f64)>, cmp: Cmp, rhs: f64) -> Self {
        LazyRow { name: name.into(), terms, cmp, rhs }
    }

    fn violation(&self, x: &[f64]) -> f64 {
        let act: f64 = self.terms.iter().map(|&(v, c)| c * x[v.index()]).sum();
        match self.cmp {
            Cmp::Le => act - self.rhs,
            Cmp::Ge => self.rhs - act,
            Cmp::Eq => (act - self.rhs).abs(),
        }
    }
}

/// Row-generation report.
#[derive(Debug, Clone)]
pub struct RowGenResult {
    pub solution: Solution,
    /// Number of lazy rows that ended up in the LP.
    pub rows_added: usize,
    /// Cutting-plane rounds performed.
    pub rounds: usize,
    /// True when the final solution violates no lazy row (i.e. it is
    /// optimal for the *full* problem).
    pub converged: bool,
}

/// Violation tolerance for activating a lazy row.
const TOL: f64 = 1e-7;
/// Give up after this many rounds.
const MAX_ROUNDS: usize = 60;

/// Options for [`solve_with_lazy_rows`].
#[derive(Debug, Clone)]
pub struct RowGenOpts {
    pub lp: SolverOpts,
    /// Predictive margin: when any row is violated, also activate rows
    /// within this distance of binding (they are very likely to be cut
    /// next round; activating them now saves whole re-solve rounds).
    pub near_margin: f64,
}

impl Default for RowGenOpts {
    fn default() -> Self {
        RowGenOpts { lp: SolverOpts::default(), near_margin: 0.0 }
    }
}

/// Cross-call solver cache for repeated [`solve_with_lazy_rows`] runs
/// over the *same problem shape* (same variable count, same eager-row
/// count, same lazy pool size). It carries two things from one call to
/// the next:
///
/// 1. the set of lazy rows that ended up active at the previous optimum
///    (pre-materialized before the first LP of the next call, skipping
///    the cutting-plane rounds that would rediscover them), and
/// 2. the final simplex basis ([`WarmStart`]), so the first LP restarts
///    from the previous optimum instead of from the slack basis.
///
/// Coefficients, costs, bounds and right-hand sides of both the base
/// problem and the pooled rows may change freely between calls — rows are
/// re-read from the pool on every call and the basis is re-validated by
/// the simplex. A basis the changes pushed out of primal feasibility is
/// first offered to the dual repair phase and only falls back to a cold
/// start when it is feasible in neither sense (see the `simplex` module
/// docs). A shape change resets the context (`rowgen.ctx_resets`) rather
/// than erroring.
#[derive(Debug, Clone, Default)]
pub struct SolveContext {
    warm: Option<WarmStart>,
    /// Lazy-pool indices active at the previous optimum, in activation
    /// order (the order determines row ids, which the basis snapshot
    /// depends on).
    active: Vec<usize>,
    /// `(num_vars, base rows, lazy pool len)` of the problem that filled
    /// this context.
    shape: Option<(usize, usize, usize)>,
    /// Total simplex iterations of the most recent cold pass through this
    /// context — the baseline for the `rowgen.iterations_saved` estimate.
    baseline_iters: Option<usize>,
}

impl SolveContext {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop all cached state (basis and active rows).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Does the context hold a reusable basis?
    pub fn is_primed(&self) -> bool {
        self.warm.is_some()
    }
}

/// Solve `base` plus the lazy pool to optimality by row generation.
pub fn solve_with_lazy_rows(base: &Problem, lazy: &[LazyRow], opts: &RowGenOpts) -> RowGenResult {
    solve_with_lazy_rows_ctx(base, lazy, opts, &mut SolveContext::new())
}

/// [`solve_with_lazy_rows`] with a cross-call [`SolveContext`]: repeated
/// solves of near-identical problems (what-if sweeps, rounding re-solves,
/// online epochs) skip both the rediscovery of binding lazy rows and the
/// cold phase-1 of the first LP.
pub fn solve_with_lazy_rows_ctx(
    base: &Problem,
    lazy: &[LazyRow],
    opts: &RowGenOpts,
    ctx: &mut SolveContext,
) -> RowGenResult {
    let t0 = obs::now_if_enabled();
    let shape = (base.num_vars(), base.num_cons(), lazy.len());
    let _span = obs::span!(
        "rowgen.solve",
        vars = shape.0,
        base_rows = shape.1,
        lazy_pool = shape.2,
        primed = ctx.is_primed()
    );
    if ctx.shape.is_some_and(|s| s != shape) {
        if obs::enabled() {
            obs::counter("rowgen.ctx_resets").inc();
        }
        ctx.reset();
    }
    let ctx_hit = ctx.is_primed();
    let preloaded = ctx.active.len();

    let mut p = base.clone();
    let mut active = vec![false; lazy.len()];
    // Re-materialize the previously binding rows up front, in the stored
    // activation order (row ids must match the basis snapshot).
    let mut activation: Vec<usize> = std::mem::take(&mut ctx.active);
    for &i in &activation {
        let r = &lazy[i];
        p.add_con(r.name.clone(), &r.terms, r.cmp, r.rhs);
        active[i] = true;
    }
    let mut warm: Option<WarmStart> = ctx.warm.take();
    let mut rows_added = 0usize;
    let mut rounds = 0usize;
    let mut total_iters = 0usize;

    let (solution, converged) = loop {
        rounds += 1;
        let (sol, snapshot) = solve_warm(&p, &opts.lp, warm.as_ref());
        warm = snapshot;
        total_iters += sol.iterations;
        if sol.status != Status::Optimal {
            break (sol, false);
        }
        // Scan for violated lazy rows (and, when predictive activation is
        // on, near-binding ones).
        let mut violated: Vec<(usize, f64)> = Vec::new();
        let mut near: Vec<usize> = Vec::new();
        for (i, r) in lazy.iter().enumerate() {
            if active[i] {
                continue;
            }
            let v = r.violation(&sol.x);
            if v > TOL {
                violated.push((i, v));
            } else if v > -opts.near_margin {
                near.push(i);
            }
        }
        if violated.is_empty() {
            break (sol, true);
        }
        if rounds >= MAX_ROUNDS {
            break (sol, false);
        }
        // Worst violations first: the activation order fixes the row ids
        // the warm basis is keyed on.
        violated.sort_by(|a, b| b.1.total_cmp(&a.1));
        for i in violated.into_iter().map(|(i, _)| i).chain(near) {
            let r = &lazy[i];
            p.add_con(r.name.clone(), &r.terms, r.cmp, r.rhs);
            active[i] = true;
            activation.push(i);
            rows_added += 1;
        }
    };

    if obs::enabled() {
        // Per-re-solve iteration trajectory, keyed on the recorder's solve
        // index (ordering across threads is best-effort; the series is for
        // eyeballing warm-start decay, not for equivalence checks).
        obs::series("simplex.resolve_iterations").record_next(total_iters as f64);
        let s = obs::Scope::new("rowgen");
        s.counter("solves").inc();
        s.counter("rounds").add(rounds as u64);
        s.counter("rows_added").add(rows_added as u64);
        if ctx_hit {
            s.counter("ctx_hits").inc();
            s.counter("ctx_rows_preloaded").add(preloaded as u64);
            if let Some(base_iters) = ctx.baseline_iters {
                s.counter("iterations_saved").add(base_iters.saturating_sub(total_iters) as u64);
            }
        }
        if !converged {
            s.counter("not_converged").inc();
        }
        s.timer("solve_ns").observe_since(t0);
    }
    if !ctx_hit {
        ctx.baseline_iters = Some(total_iters);
    }
    ctx.warm = warm;
    ctx.active = activation;
    ctx.shape = Some(shape);
    RowGenResult { solution, rows_added, rounds, converged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    #[test]
    fn matches_full_solve() {
        // max sum x_j, x_j in [0,1], plus 20 lazy rows x_a + x_b <= 1.
        let mut base = Problem::new(Sense::Max);
        let vars: Vec<_> = (0..10).map(|j| base.add_var(format!("x{j}"), 0.0, 1.0, 1.0)).collect();
        let mut lazy = Vec::new();
        let mut full = base.clone();
        for a in 0..10usize {
            let b = (a + 1) % 10;
            let terms = vec![(vars[a], 1.0), (vars[b], 1.0)];
            lazy.push(LazyRow::new(format!("l{a}"), terms.clone(), Cmp::Le, 1.0));
            full.add_con(format!("l{a}"), &terms, Cmp::Le, 1.0);
        }
        let lazy_sol = solve_with_lazy_rows(&base, &lazy, &RowGenOpts::default());
        let full_sol = solve(&full, &SolverOpts::default());
        assert!(lazy_sol.converged);
        assert!(
            (lazy_sol.solution.objective - full_sol.objective).abs() < 1e-6,
            "{} vs {}",
            lazy_sol.solution.objective,
            full_sol.objective
        );
        // Odd cycle of length 10 pairwise caps → optimum 5.
        assert!((full_sol.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn no_violations_single_round() {
        let mut base = Problem::new(Sense::Max);
        let x = base.add_var("x", 0.0, 1.0, 1.0);
        let lazy = vec![LazyRow::new("loose", vec![(x, 1.0)], Cmp::Le, 5.0)];
        let r = solve_with_lazy_rows(&base, &lazy, &RowGenOpts::default());
        assert!(r.converged);
        assert_eq!(r.rows_added, 0);
        assert_eq!(r.rounds, 1);
    }

    /// Each run's re-solve series starts at its own solve 0, however many
    /// solves earlier runs in the process recorded.
    #[test]
    fn resolve_series_counts_per_recorder() {
        let mut base = Problem::new(Sense::Max);
        let x = base.add_var("x", 0.0, 1.0, 1.0);
        let lazy = vec![LazyRow::new("cap", vec![(x, 1.0)], Cmp::Le, 0.5)];
        let run = || {
            obs::scoped(&obs::Recorder::new(), || {
                obs::set_enabled(true);
                solve_with_lazy_rows(&base, &lazy, &RowGenOpts::default());
                solve_with_lazy_rows(&base, &lazy, &RowGenOpts::default());
                obs::series("simplex.resolve_iterations").points()
            })
        };
        for points in [run(), run()] {
            let t: Vec<f64> = points.iter().map(|&(t, _)| t).collect();
            assert_eq!(t, vec![0.0, 1.0]);
        }
    }
}
