//! Bounded-variable two-phase revised simplex.
//!
//! The driver is generic over a [`BasisBackend`] that maintains the basis
//! factorization. [`sparse::SparseFactors`] keeps a sparse LU with eta
//! updates and is the backend [`solve`] / [`solve_warm`] build for every
//! LP: it beats the dense inverse on every standalone LP the workspace
//! solves, from 15-row packing LPs to the 814-row NIDS LP.
//! [`dense::DenseInverse`] keeps an explicit dense `B⁻¹`; it runs only
//! when a caller opts in via [`SolverOpts::dense_row_limit`], which no
//! production code does, and it is the independent oracle the sparse
//! backend is cross-checked against. [`RestrictedMaster`] keeps a
//! `Core` on its own sparse backend between solves, for column
//! generation masters that grow in place.
//!
//! Design notes:
//! - **Standard form.** Every row gets a slack with bounds encoding the
//!   comparison (`≤` → `[0, ∞)`, `≥` → `(-∞, 0]`, `=` → `[0, 0]`).
//! - **Crash basis.** Rows whose initial residual fits in the slack's
//!   bounds start with the slack basic; only the remaining rows receive
//!   phase-1 artificials, keeping phase 1 short.
//! - **Bounded ratio test** with bound flips, tie-breaking on pivot
//!   magnitude, and Bland's rule engaged after a run of degenerate pivots
//!   (anti-cycling).
//! - **Self-checking.** Basic values are recomputed periodically; a
//!   residual alarm triggers refactorization.
//!
//! # Warm starts
//!
//! Every optimal solve emits a [`WarmStart`] snapshot — the final basis
//! (variable states plus values). A later solve can restart from it via
//! [`solve_warm`] when the variable count is unchanged
//! and rows were only appended (`w.n == n`, `w.m <= m`); a problem that
//! grows by columns, as column generation's master LPs do, is a
//! [`RestrictedMaster`] instead. Within that shape, *anything else may
//! change*: objective costs (the FPL oracle's
//! perturbed weights), variable bounds (rules rounded on/off), right-hand
//! sides (capacity what-ifs) and even matrix coefficients (hardware
//! upgrades) — the snapshot is only a starting-basis guess, re-validated
//! against the new problem before any pivoting happens.
//!
//! ## Fallback semantics
//!
//! A warm start is **never trusted blindly**; it falls back to a cold
//! solve (and bumps `simplex.warmstart_fallbacks`, attributed to
//! `simplex.warmstart_rejected` or `simplex.warmstart_singular`) when
//!
//! 1. the dimensions changed (`n` differs, or rows were removed),
//! 2. the snapshot is internally inconsistent (basic-variable count does
//!    not match the basis size),
//! 3. the restored basis matrix is singular under the new coefficients,
//! 4. the recomputed basic values are non-finite or violate the new
//!    bounds beyond tolerance **and** the basis is not dual feasible
//!    either (see below) — feasible in neither sense, nothing to repair.
//!
//! Case 4 used to cover every primal-infeasible restart; since the dual
//! phase landed it is the last resort only. A validated basis that is
//! primal infeasible under the new bounds/rhs/coefficients but *dual
//! feasible* under the new costs (possibly after flipping boxed nonbasic
//! variables to the bound their reduced cost points at) is **repaired in
//! place by dual simplex pivots**: leaving-variable pricing picks the
//! most-violating basic variable, a BTRAN row extraction
//! ([`BasisBackend::btran_unit_sparse`]) prices the pivot row, and the dual
//! ratio test picks the entering column that preserves dual feasibility.
//! A bounded anti-cycling rule mirrors the primal one (Bland-style
//! smallest-index selection after a run of degenerate dual pivots). The
//! repair is observable as `simplex.dual_phase_runs` / `dual_repairs` /
//! `dual_pivots` / `dual_flips`; a dual phase that stalls (iteration
//! limit, no admissible pivot, singular basis) falls back cold like any
//! other rejection.
//!
//! Accepted restarts bump `simplex.warmstart_hits` and report their
//! pivot count under `simplex.warmstart_iterations`, so the
//! iteration-savings of a warm-started loop are directly readable from a
//! metrics snapshot (`simplex.iterations` minus the warm share). When
//! only costs changed the old basis is still primal feasible, phase 1 is
//! skipped entirely, and the solve resumes as if the objective had been
//! swapped mid-run; when only new rows arrived the extended basis is
//! block-triangular and phase 1 repairs just the new rows; when
//! bounds/rhs/coefficients shifted the optimum away from the old vertex,
//! the dual phase walks there without ever discarding the basis.

pub mod dense;
mod master;
pub mod sparse;

pub use master::RestrictedMaster;

use crate::model::{Cmp, Problem, Sense};
use crate::solution::{Solution, Status};
use nwdp_obs as obs;
use std::time::Instant;

/// The basis matrix handed to [`BasisBackend::refactor`] was singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularBasis;

/// Abstraction over the basis factorization.
pub trait BasisBackend {
    /// Reset to the identity basis of size `m`.
    fn reset_identity(&mut self, m: usize);
    /// Rebuild the factorization from the given basis columns (sparse, in
    /// basis-position order). `Err` means the matrix is singular.
    fn refactor(&mut self, m: usize, basis_cols: &[&[(usize, f64)]]) -> Result<(), SingularBasis>;
    /// `out = B⁻¹ a` for a sparse column `a`.
    fn ftran(&self, col: &[(usize, f64)], out: &mut [f64]);
    /// `out = B⁻ᵀ c` for a dense vector `c`.
    fn btran(&self, c: &[f64], out: &mut [f64]);
    /// Rank-one replace: basis position `pivot_row` is replaced by the
    /// entering column whose FTRAN image is `y`.
    fn update(&mut self, pivot_row: usize, y: &[f64]);
    /// Sparse FTRAN: `out` must be all zeros on entry; on return `touched`
    /// lists (a superset of) the indices of `out`'s nonzeros. The default
    /// delegates to the dense [`Self::ftran`] and scans.
    fn ftran_sparse(&self, col: &[(usize, f64)], out: &mut [f64], touched: &mut Vec<usize>) {
        self.ftran(col, out);
        touched.clear();
        for (i, &v) in out.iter().enumerate() {
            if v != 0.0 {
                touched.push(i);
            }
        }
    }
    /// [`Self::update`] with the nonzero support of `y` known.
    fn update_sparse(&mut self, pivot_row: usize, y: &[f64], _touched: &[usize]) {
        self.update(pivot_row, y);
    }
    /// `out = B⁻ᵀ eᵣ` — row `r` of `B⁻¹`, from which the pivot row of the
    /// tableau follows (`αⱼ = out · aⱼ`). `out` must be all zeros on
    /// entry; on return `support` lists `out`'s nonzeros, without
    /// duplicates. The pricing update builds the pivot row from it, so its
    /// cost follows the size of `support`, not `m`. The default BTRANs a
    /// materialized unit vector and scans; backends override it with a
    /// direct extraction.
    fn btran_unit_sparse(&self, r: usize, out: &mut [f64], support: &mut Vec<usize>) {
        let mut e = vec![0.0; out.len()];
        e[r] = 1.0;
        self.btran(&e, out);
        support.clear();
        support.extend((0..out.len()).filter(|&i| out[i] != 0.0));
    }
    /// Backend suggests a refactorization would be worthwhile (e.g. the
    /// eta file grew past its budget).
    fn hint_refactor(&self) -> bool {
        false
    }
}

/// A borrowed backend: a one-shot solve runs on the caller's backend, a
/// [`RestrictedMaster`] owns its own.
impl<B: BasisBackend + ?Sized> BasisBackend for &mut B {
    fn reset_identity(&mut self, m: usize) {
        (**self).reset_identity(m)
    }
    fn refactor(&mut self, m: usize, basis_cols: &[&[(usize, f64)]]) -> Result<(), SingularBasis> {
        (**self).refactor(m, basis_cols)
    }
    fn ftran(&self, col: &[(usize, f64)], out: &mut [f64]) {
        (**self).ftran(col, out)
    }
    fn btran(&self, c: &[f64], out: &mut [f64]) {
        (**self).btran(c, out)
    }
    fn update(&mut self, pivot_row: usize, y: &[f64]) {
        (**self).update(pivot_row, y)
    }
    fn ftran_sparse(&self, col: &[(usize, f64)], out: &mut [f64], touched: &mut Vec<usize>) {
        (**self).ftran_sparse(col, out, touched)
    }
    fn update_sparse(&mut self, pivot_row: usize, y: &[f64], touched: &[usize]) {
        (**self).update_sparse(pivot_row, y, touched)
    }
    fn btran_unit_sparse(&self, r: usize, out: &mut [f64], support: &mut Vec<usize>) {
        (**self).btran_unit_sparse(r, out, support)
    }
    fn hint_refactor(&self) -> bool {
        (**self).hint_refactor()
    }
}

/// Feasibility tolerance.
const TOL_FEAS: f64 = 1e-7;
/// Reduced-cost (optimality) tolerance.
const TOL_DJ: f64 = 1e-9;
/// Consecutive degenerate pivots before switching to Bland's rule.
const BLAND_TRIGGER: usize = 80;
/// Recompute basic values every this many iterations.
const REFRESH_EVERY: usize = 500;

/// Pivot budget for the dual repair phase on an `m`-row LP: `4m + 100`.
/// Worthwhile repairs land well under it (measured worst case ~2.6m
/// pivots on the NIDS upgrade sweep, most need a handful), while a
/// degenerate crawl that would run past it costs more than the cold solve
/// it falls back to — and without a budget such a crawl burns the full
/// `max_iters` cap, which is sized for complete cold solves and can be two
/// orders of magnitude larger (a ~100 s stall observed in the reload
/// loop's re-solves).
const fn dual_budget(m: usize) -> usize {
    4 * m + 100
}

/// Solver options.
#[derive(Debug, Clone, Default)]
pub struct SolverOpts {
    /// Hard iteration cap (per phase). `None` derives one from problem size.
    pub max_iters: Option<usize>,
    /// Use the dense backend when the row count is at most this. The
    /// default `0` sends every LP with rows to the sparse backend, which
    /// wins at every size the workspace solves (DESIGN.md, "Basis
    /// backends"); raise it only to opt in to the dense inverse.
    pub dense_row_limit: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum VState {
    Basic(usize),
    AtLower,
    AtUpper,
    FreeZero,
}

/// Row-wise copy of the scaled constraint matrix in flat arrays with
/// `u32` column indices, so the pivot row `αᵣ = ρᵀA` walks only the rows
/// in `ρ`'s support. Slack columns are left out: slack `n + i` is the unit
/// column of row `i`, so its pivot-row entry is `ρᵢ` itself.
struct RowMatrix {
    /// Row `i` is `col/val[start[i]..start[i + 1]]`.
    start: Vec<u32>,
    col: Vec<u32>,
    val: Vec<f64>,
}

impl RowMatrix {
    fn new(m: usize, cols: &[Vec<(usize, f64)>], slacks: std::ops::Range<usize>) -> Self {
        let kept = || cols.iter().enumerate().filter(|(j, _)| !slacks.contains(j));
        let mut start = vec![0u32; m + 1];
        for (_, c) in kept() {
            for &(i, _) in c {
                start[i + 1] += 1;
            }
        }
        for i in 0..m {
            start[i + 1] += start[i];
        }
        let nnz = start[m] as usize;
        let mut col = vec![0u32; nnz];
        let mut val = vec![0.0f64; nnz];
        let mut next = start.clone();
        for (j, c) in kept() {
            for &(i, a) in c {
                let k = next[i] as usize;
                col[k] = j as u32;
                val[k] = a;
                next[i] += 1;
            }
        }
        RowMatrix { start, col, val }
    }

    #[inline]
    fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (a, b) = (self.start[i] as usize, self.start[i + 1] as usize);
        (&self.col[a..b], &self.val[a..b])
    }

    /// Matrix entries a row-wise pivot row visits for `support`.
    fn entries(&self, support: &[usize]) -> usize {
        support.iter().map(|&i| (self.start[i + 1] - self.start[i]) as usize + 1).sum()
    }
}

/// Columns per pricing section.
const SECTION: usize = 16 * 1024;

/// Whether the pivot element taken from the pivot row (`ρ·a_q`) and from
/// the FTRAN column (`y_r`) agree. Both come from the same factorization;
/// a larger gap means it has lost accuracy and must be rebuilt.
fn pivots_agree(from_row: f64, from_col: f64) -> bool {
    (from_row - from_col).abs() <= 1e-7 * (1.0 + from_col.abs())
}

/// What the reduced-cost test probe saw on one thread.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
struct DriftProbe {
    /// Largest gap between a maintained and a recomputed reduced cost.
    worst: f64,
    /// Primal and dual pivots checked.
    primal: usize,
    dual: usize,
}

#[cfg(test)]
thread_local! {
    /// The running probe on this thread (`None`: no probe).
    static DJ_DRIFT: std::cell::Cell<Option<DriftProbe>> = const { std::cell::Cell::new(None) };
}

struct Core<B: BasisBackend> {
    m: usize,
    ncols: usize,
    n_struct: usize,
    cols: Vec<Vec<(usize, f64)>>,
    rows: RowMatrix,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Costs of the running phase: the phase-1 infeasibility costs, then
    /// the phase-2 ones.
    cost: Vec<f64>,
    /// Phase-2 costs, negated for a maximization, until phase 2 moves
    /// them into `cost`.
    obj: Vec<f64>,
    /// Row `i` of the matrix and right-hand side is scaled by
    /// `row_scale[i]` (see [`Standard::of`]).
    row_scale: Vec<f64>,
    /// Reduced costs `d_j = c_j − πᵀa_j`, kept current across pivots from
    /// the pivot row (entries at basic and fixed columns are meaningless).
    d: Vec<f64>,
    /// `d` was recomputed in full and neither the basis nor the costs
    /// changed since. Only a fresh `d` may declare a phase optimal.
    d_fresh: bool,
    /// `prices_in[j]`: column `j` is nonbasic, not fixed, and `d_j` points
    /// into its feasible direction by more than `TOL_DJ`. Kept in step with
    /// `d` and `state`, so pricing scans one byte per column.
    prices_in: Vec<bool>,
    /// `stale[s]`: the `d` and flags of pricing section `s` lag `π` (a
    /// pivot row was too dense to walk); pricing rebuilds the section from
    /// `π` before reading it.
    stale: Vec<bool>,
    /// Columns per pricing section: [`SECTION`], or fewer for a master
    /// that re-prices all of its dense columns after every pivot.
    section: usize,
    state: Vec<VState>,
    basis: Vec<usize>,
    xb: Vec<f64>,
    rhs: Vec<f64>,
    backend: B,
    iterations: usize,
    // scratch
    y: Vec<f64>,
    y_touched: Vec<usize>,
    /// `π = B⁻ᵀc_B`, kept current across pivots like `d` (`π += θ·ρ`).
    pi: Vec<f64>,
    cb: Vec<f64>,
    /// `ρ = B⁻ᵀeᵣ` of the current pivot (zero outside `rho_support`).
    rho: Vec<f64>,
    rho_support: Vec<usize>,
    /// Pivot-row accumulator `α_j = ρ·a_j` (zero outside `alpha_cols`).
    alpha: Vec<f64>,
    alpha_cols: Vec<usize>,
    degen_run: usize,
    bland: bool,
    /// Keep Bland's rule on for the whole solve (singular-restart mode).
    force_bland: bool,
    /// Partial-pricing cursor (section index).
    price_section: usize,
    trace: bool,
    /// A refactorization failed mid-solve; the factorization is stale and
    /// the phase must abort (the driver restarts from the slack basis).
    singular: bool,
    // Plain-local metric tallies, flushed once per solve when the obs
    // gate is on (never an atomic op per pivot).
    n_pivots: u64,
    n_bound_flips: u64,
    n_degen: u64,
    n_refactor: u64,
    n_dual_pivots: u64,
    n_dual_flips: u64,
    n_pivot_row_nnz: u64,
    /// Primal pivots whose row was too dense to walk ([`Self::row_wise`]
    /// false), leaving `d` to be rebuilt section by section from `π`.
    n_dense_pivot_rows: u64,
    n_dj_resets: u64,
    dual_attempted: bool,
    dual_repaired: bool,
}

enum PhaseEnd {
    Optimal,
    Unbounded,
    IterLimit,
    /// Basis factorization went singular; restart from the slack basis.
    Singular,
}

/// Outcome of the dual repair phase.
enum DualEnd {
    /// Every basic value is back inside its bounds; hand off to phase 2.
    PrimalFeasible,
    /// Pivot budget exhausted before feasibility was restored.
    IterLimit,
    /// A violated row admits no entering column (dual unbounded — the
    /// problem is primal infeasible, or the numerics drifted). The cold
    /// retry delivers the authoritative verdict either way.
    NoPivot,
    /// Basis factorization went singular; restart from the slack basis.
    Singular,
}

impl<B: BasisBackend> Core<B> {
    fn var_value(&self, j: usize) -> f64 {
        match self.state[j] {
            VState::Basic(r) => self.xb[r],
            VState::AtLower => self.lb[j],
            VState::AtUpper => self.ub[j],
            VState::FreeZero => 0.0,
        }
    }

    /// Recompute all basic values from nonbasic values (error flush), and
    /// refactorize on residual alarm. Leaves `π` and `d` alone: neither
    /// depends on the basic values, and a pivot loop that keeps them
    /// follows up with [`Self::resync`].
    fn refresh(&mut self) {
        let mut v = self.rhs.clone();
        for j in 0..self.ncols {
            let xj = match self.state[j] {
                VState::Basic(_) => continue,
                VState::AtLower => self.lb[j],
                VState::AtUpper => self.ub[j],
                VState::FreeZero => 0.0,
            };
            if xj != 0.0 {
                for &(row, a) in &self.cols[j] {
                    v[row] -= a * xj;
                }
            }
        }
        // xb = B^{-1} v
        let vcol: Vec<(usize, f64)> =
            v.iter().enumerate().filter(|(_, x)| **x != 0.0).map(|(i, x)| (i, *x)).collect();
        let mut newxb = vec![0.0; self.m];
        self.backend.ftran(&vcol, &mut newxb);
        // Residual alarm: || B newxb - v || should be tiny.
        let mut resid = vec![0.0; self.m];
        for (pos, &bj) in self.basis.iter().enumerate() {
            let xv = newxb[pos];
            if xv != 0.0 {
                for &(row, a) in &self.cols[bj] {
                    resid[row] += a * xv;
                }
            }
        }
        let mut worst = 0.0f64;
        for i in 0..self.m {
            worst = worst.max((resid[i] - v[i]).abs());
        }
        if (worst > 1e-6 || self.backend.hint_refactor()) && self.refactor() {
            self.backend.ftran(&vcol, &mut newxb);
        }
        self.xb = newxb;
    }

    /// [`Self::refresh`] inside a pivot loop, followed by the full
    /// recompute of `π` and `d` that bounds the drift of their updates.
    fn resync(&mut self) {
        self.refresh();
        if !self.singular {
            self.reset_duals();
        }
    }

    /// Refactorize the current basis. On a singular basis matrix any
    /// further pivoting on the stale factorization would only drift, so
    /// this flags `singular` and the phase driver aborts and restarts from
    /// the (always nonsingular) slack basis.
    fn refactor(&mut self) -> bool {
        let basis_cols: Vec<&[(usize, f64)]> =
            self.basis.iter().map(|&j| self.cols[j].as_slice()).collect();
        self.n_refactor += 1;
        let ok = self.backend.refactor(self.m, &basis_cols).is_ok();
        self.singular |= !ok;
        ok
    }

    /// Recompute `π = B⁻ᵀc_B` by a full BTRAN and every reduced cost from
    /// it. This is the only place they are built in full: at every
    /// refresh inside a pivot loop, at each phase start, and before any
    /// optimality or unboundedness verdict.
    fn reset_duals(&mut self) {
        for (pos, &j) in self.basis.iter().enumerate() {
            self.cb[pos] = self.cost[j];
        }
        self.backend.btran(&self.cb, &mut self.pi);
        for s in 0..self.stale.len() {
            self.rebuild_section(s);
        }
        self.d_fresh = true;
        self.n_dj_resets += 1;
    }

    /// Recompute `d_j = c_j − πᵀa_j` and the pricing flags of pricing
    /// section `s` from the current `π`.
    fn rebuild_section(&mut self, s: usize) {
        for j in s * self.section..((s + 1) * self.section).min(self.ncols) {
            self.d[j] = if matches!(self.state[j], VState::Basic(_)) {
                0.0
            } else {
                let mut dj = self.cost[j];
                for &(row, a) in &self.cols[j] {
                    dj -= self.pi[row] * a;
                }
                dj
            };
            self.prices_in[j] = self.improving(j);
        }
        self.stale[s] = false;
    }

    /// Whether moving nonbasic column `j` off its bound improves the
    /// objective by more than `TOL_DJ` per unit, judged by the current
    /// `d_j`.
    #[inline]
    fn improving(&self, j: usize) -> bool {
        if self.lb[j] == self.ub[j] {
            return false; // fixed: can never move
        }
        let dj = self.d[j];
        match self.state[j] {
            VState::Basic(_) => false,
            VState::AtLower => dj < -TOL_DJ,
            VState::AtUpper => dj > TOL_DJ,
            VState::FreeZero => dj.abs() > TOL_DJ,
        }
    }

    /// Load `ρ = B⁻ᵀeᵣ` of the current basis into `rho` / `rho_support`.
    fn load_rho(&mut self, r: usize) {
        for &i in &self.rho_support {
            self.rho[i] = 0.0;
        }
        self.backend.btran_unit_sparse(r, &mut self.rho, &mut self.rho_support);
        self.n_pivot_row_nnz += self.rho_support.len() as u64;
    }

    /// `α_rj = ρ·a_j` for one column.
    #[inline]
    fn rho_dot(&self, j: usize) -> f64 {
        self.cols[j].iter().map(|&(i, a)| self.rho[i] * a).sum()
    }

    /// Whether a primal pivot should update `d` along the pivot row of the
    /// loaded `ρ` rather than leave it to pricing: true when the row-wise
    /// walk over `ρ`'s support costs less than a third of the dot products
    /// against `π` that rebuild one pricing section. A hyper-sparse `ρ`
    /// (the NIPS relaxation's has ~6 nonzeros in 38.7 k) meets a sliver of
    /// the matrix; a dense one (the 50-node NIDS LP's covers ~22 % of the
    /// rows) meets most of it, and updating every `d_j` would then cost
    /// more than the partial pricing it serves. DESIGN.md ("Pricing")
    /// gives the measurement behind the factor of 3.
    fn row_wise(&self) -> bool {
        let section = self.ncols.min(self.section);
        let walk = self.rows.entries(&self.rho_support) * self.ncols;
        3 * walk < (self.rows.col.len() + self.ncols) * section
    }

    /// Build the pivot row `α_j = ρ·a_j` of the loaded `ρ` into `alpha`
    /// (zero outside `alpha_cols`, which lists its columns in no order and
    /// possibly twice), row-wise over `ρ`'s support. Slack `n + i` is the
    /// unit column of row `i`, so its entry is `ρᵢ`.
    fn load_pivot_row(&mut self) {
        if self.alpha.len() < self.ncols {
            self.alpha.resize(self.ncols, 0.0);
        }
        let (alpha, cols) = (&mut self.alpha, &mut self.alpha_cols);
        cols.clear();
        for &i in &self.rho_support {
            let ri = self.rho[i];
            alpha[self.n_struct + i] = ri;
            cols.push(self.n_struct + i);
            let (rcols, vals) = self.rows.row(i);
            for (&j, &a) in rcols.iter().zip(vals) {
                let j = j as usize;
                if alpha[j] == 0.0 {
                    cols.push(j);
                }
                alpha[j] += ri * a;
            }
        }
    }

    /// Apply `d_j −= θ·α_j` along the loaded pivot row and clear it; move
    /// `π` by `θ·ρ` to match.
    fn update_duals(&mut self, theta: f64) {
        for idx in 0..self.alpha_cols.len() {
            let j = self.alpha_cols[idx];
            let a = self.alpha[j];
            if a != 0.0 {
                self.alpha[j] = 0.0;
                self.d[j] -= theta * a;
                self.prices_in[j] = self.improving(j);
            }
        }
        self.alpha_cols.clear();
        self.shift_pi(theta);
    }

    /// `π += θ·ρ`, the dual step of a basis change (`d = c − Aᵀπ` drops by
    /// `θ·α`).
    fn shift_pi(&mut self, theta: f64) {
        for &i in &self.rho_support {
            self.pi[i] += theta * self.rho[i];
        }
    }

    /// Reduced-cost side of a primal basis change (`q` enters at position
    /// `r`), run before the factorization is updated: with the pivot row
    /// `α_rj = ρ·a_j`, every `d_j` drops by `θ·α_rj`, `θ = d_q / α_rq`, and
    /// `π` moves by `θ·ρ`. A pivot row too dense to walk leaves `d` to the
    /// pricing sections, which rebuild from `π` when next scanned. Returns
    /// `false`, leaving `d` stale, when `α_rq` disagrees with FTRAN's
    /// `y_r`: the caller must refactorize (which recomputes `d`).
    fn pivot_duals(&mut self, q: usize, r: usize) -> bool {
        self.load_rho(r);
        self.d_fresh = false;
        let alpha_q = self.rho_dot(q);
        if !pivots_agree(alpha_q, self.y[r]) {
            return false;
        }
        let theta = self.d[q] / alpha_q;
        self.shift_pi(theta);
        if self.row_wise() {
            // Straight into `d`, row by row: unlike the dual ratio test,
            // the primal needs no `α_j` before it updates.
            for &i in &self.rho_support {
                let t = theta * self.rho[i];
                let slack = self.n_struct + i;
                self.d[slack] -= t;
                self.prices_in[slack] = self.improving(slack);
                let (cols, vals) = self.rows.row(i);
                for (&j, &a) in cols.iter().zip(vals) {
                    let j = j as usize;
                    self.d[j] -= t * a;
                    self.prices_in[j] = self.improving(j);
                }
            }
        } else {
            self.stale.fill(true);
            self.n_dense_pivot_rows += 1;
        }
        self.d[q] = 0.0;
        self.d[self.basis[r]] = -theta;
        true
    }

    /// Record that column `j` changed state (entered or left the basis,
    /// or flipped bounds).
    fn state_changed(&mut self, j: usize) {
        self.prices_in[j] = self.improving(j);
    }

    /// Zero the pivot-row accumulator.
    fn clear_pivot_row(&mut self) {
        for &j in &self.alpha_cols {
            self.alpha[j] = 0.0;
        }
        self.alpha_cols.clear();
    }

    /// Test probe: record how far the maintained `π` and `d` are from a
    /// recomputed `B⁻ᵀc_B` and `c − Aᵀπ` (at the nonbasic, non-fixed
    /// columns of sections that are not waiting for a rebuild). Reads
    /// only; the solve takes the same path with or without a probe.
    #[cfg(test)]
    fn probe_drift(&self, dual: bool) {
        if self.singular || DJ_DRIFT.with(|c| c.get()).is_none() {
            return;
        }
        let cb: Vec<f64> = self.basis.iter().map(|&j| self.cost[j]).collect();
        let mut pi = vec![0.0; self.m];
        self.backend.btran(&cb, &mut pi);
        let mut worst = (0..self.m).map(|i| (self.pi[i] - pi[i]).abs()).fold(0.0, f64::max);
        for j in 0..self.ncols {
            if self.stale[j / self.section] {
                continue;
            }
            if !matches!(self.state[j], VState::Basic(_)) && self.lb[j] != self.ub[j] {
                let fresh =
                    self.cost[j] - self.cols[j].iter().map(|&(i, a)| pi[i] * a).sum::<f64>();
                worst = worst.max((self.d[j] - fresh).abs());
            }
            assert_eq!(self.prices_in[j], self.improving(j), "stale pricing flag at column {j}");
        }
        DJ_DRIFT.with(|c| {
            c.set(c.get().map(|p| DriftProbe {
                worst: p.worst.max(worst),
                primal: p.primal + usize::from(!dual),
                dual: p.dual + usize::from(dual),
            }))
        });
    }

    /// Choose an entering variable from the maintained reduced costs, using
    /// rotating-section partial pricing: scan sections of columns until
    /// one yields an improving candidate (Dantzig within the section);
    /// `None` after a full rotation finds nothing. Bland mode falls back to
    /// a full smallest-index scan (anti-cycling needs it).
    fn price(&mut self, banned: &[usize]) -> Option<(usize, f64)> {
        let nsec = self.stale.len();
        for o in 0..nsec {
            // Bland: full scan in index order.
            let s = if self.bland { o } else { (self.price_section + o) % nsec };
            if self.stale[s] {
                self.rebuild_section(s);
            }
            let lo = s * self.section;
            let hi = ((s + 1) * self.section).min(self.ncols);
            let mut best: Option<(usize, f64, f64)> = None; // (var, dj, score)
            for j in lo..hi {
                if !self.prices_in[j] {
                    continue;
                }
                if !banned.is_empty() && banned.contains(&j) {
                    continue;
                }
                let dj = self.d[j];
                if self.bland {
                    return Some((j, dj));
                }
                let score = dj.abs();
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((j, dj, score));
                }
            }
            if let Some((j, dj, _)) = best {
                self.price_section = s;
                return Some((j, dj));
            }
        }
        None
    }

    /// One simplex phase with the current `cost` vector.
    fn iterate(&mut self, max_iters: usize, allow_unbounded: bool) -> PhaseEnd {
        if !self.d_fresh {
            self.reset_duals();
        }
        let mut banned: Vec<usize> = Vec::new();
        let mut local_iters = 0usize;
        loop {
            if local_iters >= max_iters {
                return PhaseEnd::IterLimit;
            }
            let Some((q, dj)) = self.price(&banned) else {
                // The maintained `d` only nominates candidates; the
                // optimality verdict needs a full recompute.
                if self.d_fresh {
                    return PhaseEnd::Optimal;
                }
                self.reset_duals();
                continue;
            };
            let dir = match self.state[q] {
                VState::AtLower => 1.0,
                VState::AtUpper => -1.0,
                VState::FreeZero => {
                    if dj < 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                VState::Basic(_) => unreachable!(),
            };
            // Zero the previous iteration's support, then sparse FTRAN.
            for &i in &self.y_touched {
                self.y[i] = 0.0;
            }
            let mut touched = std::mem::take(&mut self.y_touched);
            self.backend.ftran_sparse(&self.cols[q], &mut self.y, &mut touched);
            self.y_touched = touched;

            // Ratio test (over the FTRAN support only).
            let gap = self.ub[q] - self.lb[q]; // inf for free/one-sided vars
            let mut best_t = if gap.is_finite() { gap } else { f64::INFINITY };
            let mut leaving: Option<(usize, VState)> = None; // (row, state var takes)
            let mut best_pivot_abs = 0.0f64;
            for ti_idx in 0..self.y_touched.len() {
                let i = self.y_touched[ti_idx];
                let yi = self.y[i];
                if yi.abs() <= 1e-11 {
                    continue;
                }
                let bi = self.basis[i];
                let delta = -dir * yi; // d x_B[i] / d t
                let (ti, hits) = if delta > 0.0 {
                    if self.ub[bi].is_finite() {
                        (((self.ub[bi] - self.xb[i]) / delta).max(0.0), VState::AtUpper)
                    } else {
                        continue;
                    }
                } else {
                    if self.lb[bi].is_finite() {
                        (((self.xb[i] - self.lb[bi]) / -delta).max(0.0), VState::AtLower)
                    } else {
                        continue;
                    }
                };
                let better = if self.bland {
                    // Bland: among blocking rows (ti <= best_t), smallest var index.
                    ti < best_t - 1e-12
                        || (ti <= best_t + 1e-12 && leaving.is_none_or(|(r, _)| bi < self.basis[r]))
                } else {
                    ti < best_t - 1e-9 || (ti <= best_t + 1e-9 && yi.abs() > best_pivot_abs)
                };
                if better {
                    best_t = best_t.min(ti);
                    leaving = Some((i, hits));
                    best_pivot_abs = yi.abs();
                }
            }

            if best_t.is_infinite() {
                if !self.d_fresh {
                    // A drifted d_q can fake an improving ray: confirm the
                    // verdict on recomputed reduced costs.
                    self.reset_duals();
                    continue;
                }
                return if allow_unbounded {
                    PhaseEnd::Unbounded
                } else {
                    // Phase 1 objective is bounded below by 0; this signals
                    // numerical trouble. Treat as iteration failure.
                    PhaseEnd::IterLimit
                };
            }

            // Reject numerically bad pivots and retry pricing without q.
            if let Some((r, _)) = leaving {
                if self.y[r].abs() < 1e-9 && banned.len() < 16 {
                    banned.push(q);
                    continue;
                }
            }
            banned.clear();

            let t = best_t;
            // Move basics (support only).
            if t != 0.0 {
                for idx in 0..self.y_touched.len() {
                    let i = self.y_touched[idx];
                    let yi = self.y[i];
                    if yi != 0.0 {
                        self.xb[i] -= dir * t * yi;
                    }
                }
            }

            let mut drifted = false;
            match leaving {
                None => {
                    // Bound flip: q jumps to its other bound.
                    self.n_bound_flips += 1;
                    self.state[q] = match self.state[q] {
                        VState::AtLower => VState::AtUpper,
                        VState::AtUpper => VState::AtLower,
                        s => s, // free vars have infinite gap; unreachable
                    };
                    self.state_changed(q);
                }
                Some((r, hit)) if t < gap - 1e-12 || !gap.is_finite() => {
                    drifted = !self.pivot_duals(q, r);
                    let old = self.basis[r];
                    self.state[old] =
                        if self.lb[old] == self.ub[old] { VState::AtLower } else { hit };
                    let start = match self.state[q] {
                        VState::AtLower => self.lb[q],
                        VState::AtUpper => self.ub[q],
                        VState::FreeZero => 0.0,
                        VState::Basic(_) => unreachable!(),
                    };
                    self.xb[r] = start + dir * t;
                    self.basis[r] = q;
                    self.state[q] = VState::Basic(r);
                    self.state_changed(q);
                    self.state_changed(old);
                    self.n_pivots += 1;
                    self.backend.update_sparse(r, &self.y, &self.y_touched);
                }
                Some(_) => {
                    // t == gap exactly: prefer the bound flip (no basis change).
                    self.n_bound_flips += 1;
                    self.state[q] = match self.state[q] {
                        VState::AtLower => VState::AtUpper,
                        VState::AtUpper => VState::AtLower,
                        s => s,
                    };
                    self.state_changed(q);
                }
            }

            self.iterations += 1;
            local_iters += 1;
            if t <= 1e-10 {
                self.degen_run += 1;
                self.n_degen += 1;
                if self.degen_run >= BLAND_TRIGGER {
                    self.bland = true;
                }
            } else {
                self.degen_run = 0;
                self.bland = self.force_bland;
            }
            // Refactorize when the pivot row and column disagreed, refresh
            // basic values periodically, and refactor eagerly when the
            // backend's update file has grown past its budget (critical
            // for the sparse PFI backend: FTRAN/BTRAN cost scales with the
            // eta file length).
            if drifted {
                if self.refactor() {
                    self.resync();
                }
            } else if self.iterations.is_multiple_of(REFRESH_EVERY) || self.backend.hint_refactor()
            {
                self.resync();
            }
            if self.singular {
                return PhaseEnd::Singular;
            }
            #[cfg(test)]
            self.probe_drift(false);
            if self.trace && self.iterations.is_multiple_of(1000) {
                obs::trace_event!(
                    "simplex.progress",
                    iter = self.iterations,
                    m = self.m,
                    ncols = self.ncols,
                    degen_run = self.degen_run,
                    bland = self.bland
                );
            }
        }
    }

    /// Classify the current basis for dual feasibility under `self.cost`
    /// (which must already hold the phase-2 objective). Boxed nonbasic
    /// variables whose reduced cost points at their other bound are
    /// *flipped* there — a legal dual-simplex move that restores their
    /// sign condition exactly. Returns `false` when an unflippable
    /// variable (one finite bound, or free) violates its sign condition
    /// beyond a small absolute slack: that basis is dual infeasible and
    /// not worth a dual phase. Flipped variables change the primal point,
    /// so the caller must `refresh()` before pivoting when this reports
    /// any flips.
    fn dual_classify_and_flip(&mut self) -> bool {
        if !self.d_fresh {
            self.reset_duals();
        }
        for j in 0..self.ncols {
            if matches!(self.state[j], VState::Basic(_)) || self.lb[j] == self.ub[j] {
                continue; // basic rows price themselves; fixed vars never move
            }
            let dj = self.d[j];
            // Tolerated drift for violations nothing can fix: the primal
            // phase 2 after the repair mops up reduced costs this small.
            let slack = 1e-6 * (1.0 + self.cost[j].abs());
            match self.state[j] {
                VState::AtLower if dj < -TOL_DJ => {
                    if self.ub[j].is_finite() {
                        self.state[j] = VState::AtUpper;
                        self.state_changed(j);
                        self.n_dual_flips += 1;
                    } else if dj < -slack {
                        return false;
                    }
                }
                VState::AtUpper if dj > TOL_DJ => {
                    if self.lb[j].is_finite() {
                        self.state[j] = VState::AtLower;
                        self.state_changed(j);
                        self.n_dual_flips += 1;
                    } else if dj > slack {
                        return false;
                    }
                }
                VState::FreeZero if dj.abs() > slack => return false,
                _ => {}
            }
        }
        true
    }

    /// Dual simplex phase: restore primal feasibility while preserving
    /// dual feasibility. Each pivot picks the most-violating basic
    /// variable (leaving-variable pricing; Bland mode switches to the
    /// smallest-index violated row), extracts that row's `ρ = B⁻ᵀeᵣ`
    /// ([`BasisBackend::btran_unit_sparse`]) and from it the pivot row
    /// over the rows in `ρ`'s support, and runs the bounded dual ratio
    /// test over the nonbasic columns in that row: among columns whose
    /// tableau entry moves the leaving variable toward its violated
    /// bound, the one with the smallest |d_j|/|α_j| keeps every other
    /// reduced cost on the right side of zero. The same row then updates
    /// the maintained `d`. Degenerate dual steps (ratio ≈ 0) trip the
    /// same bounded anti-cycling rule as the primal phase: after
    /// `BLAND_TRIGGER` of them in a row, both the row choice and the
    /// ratio-test tie-break turn into smallest-index (Bland) selection,
    /// which cannot cycle.
    fn iterate_dual(&mut self, max_iters: usize) -> DualEnd {
        let mut local_iters = 0usize;
        let mut degen_run = 0usize;
        let mut bland = self.force_bland;
        let mut stale_retry = false;
        loop {
            if local_iters >= max_iters {
                return DualEnd::IterLimit;
            }
            // ---- Leaving-variable pricing. ----
            let mut r = usize::MAX;
            let mut worst = TOL_FEAS;
            for pos in 0..self.m {
                let bi = self.basis[pos];
                let x = self.xb[pos];
                if !x.is_finite() {
                    return DualEnd::NoPivot; // poisoned values: bail cold
                }
                let v = (self.lb[bi] - x).max(x - self.ub[bi]);
                if bland {
                    if v > TOL_FEAS && (r == usize::MAX || bi < self.basis[r]) {
                        r = pos;
                    }
                } else if v > worst {
                    worst = v;
                    r = pos;
                }
            }
            if r == usize::MAX {
                return DualEnd::PrimalFeasible;
            }
            let bi = self.basis[r];
            let below = self.xb[r] < self.lb[bi];
            let target = if below { self.lb[bi] } else { self.ub[bi] };

            // ---- Price the pivot row from ρ = B⁻ᵀ eᵣ. ----
            self.load_rho(r);
            self.load_pivot_row();
            self.alpha_cols.sort_unstable();
            self.alpha_cols.dedup();

            // ---- Dual ratio test over the pivot row's columns. ----
            let mut q = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            let mut best_mag = 0.0f64;
            for &j in &self.alpha_cols {
                let (can_inc, can_dec) = match self.state[j] {
                    VState::Basic(_) => continue,
                    VState::AtLower => (true, false),
                    VState::AtUpper => (false, true),
                    VState::FreeZero => (true, true),
                };
                if self.lb[j] == self.ub[j] {
                    continue;
                }
                let alpha = self.alpha[j];
                if alpha.abs() <= 1e-9 {
                    continue;
                }
                // dx_B[r]/dx_j = -α_j: to move x_B[r] up (below) we need
                // α < 0 on an increasing x_j or α > 0 on a decreasing
                // one; the mirror for moving down.
                let admissible = if below {
                    (can_inc && alpha < 0.0) || (can_dec && alpha > 0.0)
                } else {
                    (can_inc && alpha > 0.0) || (can_dec && alpha < 0.0)
                };
                if !admissible {
                    continue;
                }
                // |d_j| measured in the feasible direction, clamped at 0
                // so tolerated drift never yields a negative ratio.
                let dj = self.d[j];
                let num = match self.state[j] {
                    VState::AtLower => dj.max(0.0),
                    VState::AtUpper => (-dj).max(0.0),
                    VState::FreeZero => dj.abs(),
                    VState::Basic(_) => unreachable!(),
                };
                let ratio = num / alpha.abs();
                let better = if bland {
                    ratio < best_ratio - 1e-12
                        || (ratio <= best_ratio + 1e-12 && (q == usize::MAX || j < q))
                } else {
                    ratio < best_ratio - 1e-9
                        || (ratio <= best_ratio + 1e-9 && alpha.abs() > best_mag)
                };
                if better {
                    best_ratio = best_ratio.min(ratio);
                    best_mag = alpha.abs();
                    q = j;
                }
            }
            if q == usize::MAX {
                self.clear_pivot_row();
                return DualEnd::NoPivot;
            }

            // ---- Pivot: FTRAN the entering column, step, update. ----
            for &i in &self.y_touched {
                self.y[i] = 0.0;
            }
            let mut touched = std::mem::take(&mut self.y_touched);
            self.backend.ftran_sparse(&self.cols[q], &mut self.y, &mut touched);
            self.y_touched = touched;
            let yr = self.y[r];
            if yr.abs() < 1e-9 {
                // BTRAN said the entry was usable, FTRAN disagrees: the
                // factorization is stale. Refactorize once and re-price;
                // a second disagreement gives up on the repair.
                self.clear_pivot_row();
                if stale_retry {
                    return DualEnd::NoPivot;
                }
                stale_retry = true;
                self.resync();
                if self.singular {
                    return DualEnd::Singular;
                }
                continue;
            }
            stale_retry = false;
            // Reduced costs: d_j −= (d_q / α_q)·α_j along the pivot row,
            // unless row and column disagree on the pivot (then refactor).
            let alpha_q = self.alpha[q];
            let drifted = !pivots_agree(alpha_q, yr);
            if drifted {
                self.clear_pivot_row();
            } else {
                let theta = self.d[q] / alpha_q;
                self.update_duals(theta);
                self.d[q] = 0.0;
                self.d[bi] = -theta;
            }
            self.d_fresh = false;
            let dxq = (self.xb[r] - target) / yr;
            for idx in 0..self.y_touched.len() {
                let i = self.y_touched[idx];
                let yi = self.y[i];
                if yi != 0.0 {
                    self.xb[i] -= dxq * yi;
                }
            }
            let xq_new = self.var_value(q) + dxq;
            self.state[bi] =
                if self.lb[bi] == self.ub[bi] || below { VState::AtLower } else { VState::AtUpper };
            self.basis[r] = q;
            self.state[q] = VState::Basic(r);
            self.state_changed(q);
            self.state_changed(bi);
            self.xb[r] = xq_new;
            self.n_pivots += 1;
            self.n_dual_pivots += 1;
            self.backend.update_sparse(r, &self.y, &self.y_touched);

            self.iterations += 1;
            local_iters += 1;
            if best_ratio <= 1e-10 {
                degen_run += 1;
                self.n_degen += 1;
                if degen_run >= BLAND_TRIGGER {
                    bland = true;
                }
            } else {
                degen_run = 0;
                bland = self.force_bland;
            }
            if drifted {
                if self.refactor() {
                    self.resync();
                }
            } else if self.iterations.is_multiple_of(REFRESH_EVERY) || self.backend.hint_refactor()
            {
                self.resync();
            }
            if self.singular {
                return DualEnd::Singular;
            }
            #[cfg(test)]
            self.probe_drift(true);
            if self.trace && self.n_dual_pivots.is_multiple_of(100) {
                obs::trace_event!(
                    "simplex.dual_progress",
                    pivots = self.n_dual_pivots,
                    m = self.m,
                    bland = bland
                );
            }
        }
    }

    /// Flush the dual-phase tallies alone. The fallback paths (dual phase
    /// failed → cold retry builds a fresh `Core`) call this so failed
    /// repairs still show up in the metrics; successful solves get the
    /// same numbers through [`Self::flush_metrics`].
    fn flush_dual_metrics(&self) {
        if !obs::enabled() || !self.dual_attempted {
            return;
        }
        let s = obs::Scope::new("simplex");
        s.counter("dual_phase_runs").inc();
        if self.dual_repaired {
            s.counter("dual_repairs").inc();
        }
        s.counter("dual_pivots").add(self.n_dual_pivots);
        s.counter("dual_flips").add(self.n_dual_flips);
    }

    /// Flush the solve's locally-tallied metrics to the global registry.
    /// Called once per terminal solve; the hot loop itself never touches
    /// an atomic.
    fn flush_metrics(&self, phase1_iters: usize, t0: Option<Instant>) {
        if !obs::enabled() {
            return;
        }
        let s = obs::Scope::new("simplex");
        s.counter("solves").inc();
        s.counter("iterations").add(self.iterations as u64);
        s.counter("phase1_iterations").add(phase1_iters as u64);
        s.counter("phase2_iterations").add((self.iterations - phase1_iters) as u64);
        s.counter("pivots").add(self.n_pivots);
        s.counter("bound_flips").add(self.n_bound_flips);
        s.counter("degenerate_steps").add(self.n_degen);
        s.counter("refactorizations").add(self.n_refactor);
        s.counter("pivot_row_nnz").add(self.n_pivot_row_nnz);
        s.counter("dense_pivot_rows").add(self.n_dense_pivot_rows);
        s.counter("dj_resets").add(self.n_dj_resets);
        s.timer("solve_ns").observe_since(t0);
        self.flush_dual_metrics();
    }

    /// Phase 1 when the crash basis holds artificials (the columns past
    /// the slacks), then phase 2 under `obj`. `None` when the basis went
    /// singular; else the final status, with the metrics flushed.
    fn run_phases(&mut self, max_iters: usize, t0: Option<Instant>) -> Option<Status> {
        let artificials = self.n_struct + self.m..self.ncols;
        if !artificials.is_empty() {
            match self.iterate(max_iters, false) {
                PhaseEnd::Optimal => {}
                PhaseEnd::Singular => return None,
                PhaseEnd::Unbounded | PhaseEnd::IterLimit => {
                    self.flush_metrics(self.iterations, t0);
                    return Some(Status::IterLimit);
                }
            }
            let infeas: f64 = artificials.clone().map(|j| self.var_value(j).abs()).sum();
            if infeas > TOL_FEAS * 10.0 {
                self.flush_metrics(self.iterations, t0);
                return Some(Status::Infeasible);
            }
            // Freeze artificials at zero.
            for j in artificials {
                self.lb[j] = 0.0;
                self.ub[j] = 0.0;
                if !matches!(self.state[j], VState::Basic(_)) {
                    self.state[j] = VState::AtLower;
                }
            }
        }
        let phase1_iters = self.iterations;
        self.cost = std::mem::take(&mut self.obj);
        self.d_fresh = false;
        self.refresh();
        if self.singular {
            return None;
        }
        self.phase2(max_iters, phase1_iters, t0)
    }

    /// Phase 2 from the current, primal feasible basis, then a refresh of
    /// the basic values. `None` when the basis went singular.
    fn phase2(
        &mut self,
        max_iters: usize,
        phase1_iters: usize,
        t0: Option<Instant>,
    ) -> Option<Status> {
        let status = match self.iterate(max_iters, true) {
            PhaseEnd::Optimal => Status::Optimal,
            PhaseEnd::Unbounded => Status::Unbounded,
            PhaseEnd::IterLimit => Status::IterLimit,
            PhaseEnd::Singular => return None,
        };
        self.refresh();
        if self.singular {
            return None;
        }
        self.flush_metrics(phase1_iters, t0);
        Some(status)
    }

    /// The solution of `p` at the end of a solve, whose structural values
    /// are `x`. An optimal one gets the duals of the final basis; an
    /// optimal point that violates `p` is reported as `IterLimit`, never as
    /// a silently wrong answer.
    fn solution(&mut self, p: &Problem, status: Status, x: Vec<f64>) -> Solution {
        if status != Status::Optimal {
            return self.failed(status, x);
        }
        if p.max_violation(&x) > TOL_FEAS.max(1e-6) * 100.0 {
            return self.failed(Status::IterLimit, x);
        }
        for (pos, &bj) in self.basis.iter().enumerate() {
            self.cb[pos] = self.cost[bj];
        }
        let mut pi = vec![0.0; self.m];
        self.backend.btran(&self.cb, &mut pi);
        for (i, d) in pi.iter_mut().enumerate() {
            // Dual of the original row = dual of the scaled row x scale.
            *d *= self.row_scale[i];
            if p.sense == Sense::Max {
                *d = -*d;
            }
        }
        Solution {
            status,
            objective: p.objective_value(&x),
            x,
            duals: pi,
            iterations: self.iterations,
        }
    }

    /// A solve that ended without an optimum: the point it stopped at, no
    /// duals.
    fn failed(&self, status: Status, x: Vec<f64>) -> Solution {
        Solution {
            status,
            objective: f64::NAN,
            x,
            duals: vec![0.0; self.m],
            iterations: self.iterations,
        }
    }

    /// Start another solve on the kept basis: zero the per-solve tallies
    /// and leave any anti-cycling mode of the last one.
    fn begin_solve(&mut self) {
        self.iterations = 0;
        self.n_pivots = 0;
        self.n_bound_flips = 0;
        self.n_degen = 0;
        self.n_refactor = 0;
        self.n_dual_pivots = 0;
        self.n_dual_flips = 0;
        self.n_pivot_row_nnz = 0;
        self.n_dense_pivot_rows = 0;
        self.n_dj_resets = 0;
        self.degen_run = 0;
        self.bland = false;
        self.force_bland = false;
    }

    /// Append a structural column (entries unscaled) nonbasic at the bound
    /// nearest zero, keeping the basis. The caller rebuilds the row-wise
    /// copy with [`Self::columns_added`] once the batch is in.
    fn push_column(&mut self, entries: &[(usize, f64)], lb: f64, ub: f64, cost: f64) -> usize {
        let j = self.ncols;
        self.cols.push(entries.iter().map(|&(i, a)| (i, a * self.row_scale[i])).collect());
        self.lb.push(lb);
        self.ub.push(ub);
        self.cost.push(cost);
        self.d.push(0.0);
        self.prices_in.push(false);
        self.state.push(bound_state(lb, ub));
        self.ncols += 1;
        j
    }

    /// Catch the row-wise copy and the pricing sections up with columns
    /// appended by [`Self::push_column`].
    fn columns_added(&mut self) {
        let slacks = self.n_struct..self.n_struct + self.m;
        self.rows = RowMatrix::new(self.m, &self.cols, slacks);
        self.stale = vec![true; self.ncols.div_ceil(self.section).max(1)];
        self.d_fresh = false;
    }

    /// Price in sections of `columns` columns.
    fn set_section(&mut self, columns: usize) {
        self.section = columns.max(1);
        self.stale = vec![true; self.ncols.div_ceil(self.section).max(1)];
        self.d_fresh = false;
    }

    /// Whether every basic value lies within its bounds.
    fn primal_feasible(&self) -> bool {
        self.basis.iter().zip(&self.xb).all(|(&j, &x)| {
            x.is_finite() && x >= self.lb[j] - TOL_FEAS && x <= self.ub[j] + TOL_FEAS
        })
    }
}

/// The nonbasic state a column starts in: at its lower bound when that is
/// finite, else at its upper bound, else free at zero.
fn bound_state(lb: f64, ub: f64) -> VState {
    if lb.is_finite() {
        VState::AtLower
    } else if ub.is_finite() {
        VState::AtUpper
    } else {
        VState::FreeZero
    }
}

/// A reusable starting basis, produced by an optimal solve and consumed by
/// a later solve of the *same problem with extra rows* (the row-generation
/// loop). Structural variables keep their states; each old row's slack
/// keeps its state; new rows start with their slack (or a phase-1
/// artificial) basic — the extended basis matrix is block-triangular, so
/// it is always nonsingular and phase 1 only has to repair the new rows.
#[derive(Debug, Clone)]
pub struct WarmStart {
    n: usize,
    m: usize,
    /// `0` AtLower, `1` AtUpper, `2` FreeZero, `3` Basic; indexed
    /// structural-then-slack.
    states: Vec<u8>,
    /// Variable values at save time (same indexing).
    values: Vec<f64>,
}

impl WarmStart {
    /// Build a snapshot from raw parts. Test hook: lets equivalence tests
    /// hand-craft a dual-feasible/primal-infeasible basis without running
    /// a solve first. `states` and `values` are indexed
    /// structural-then-slack and must have length `n + m`.
    #[doc(hidden)]
    pub fn from_parts(n: usize, m: usize, states: Vec<u8>, values: Vec<f64>) -> Self {
        assert_eq!(states.len(), n + m, "states must cover n + m variables");
        assert_eq!(values.len(), n + m, "values must cover n + m variables");
        WarmStart { n, m, states, values }
    }
}

/// Solve `p` with the given backend.
pub fn solve_with_backend<B: BasisBackend>(
    p: &Problem,
    opts: &SolverOpts,
    backend: &mut B,
) -> Solution {
    solve_warm_with_backend(p, opts, backend, None).0
}

/// Outcome of one [`try_solve`] attempt.
enum SolveAttempt {
    /// The solve ran to a terminal [`Status`].
    Done(Solution, Option<WarmStart>),
    /// The supplied warm start failed numerical validation; retry cold.
    WarmRejected,
    /// The basis factorization went singular mid-solve; retry from the
    /// slack basis (with Bland pricing, so the restart takes a different
    /// pivot trajectory than the one that produced the singular basis).
    Singular,
}

/// Record a warm-start fallback plus its cause. `warmstart_fallbacks`
/// stays the sum of the two cause counters so existing dashboards keep
/// their totals; `warmstart_rejected` (basis failed validation, dual
/// repair included) and `warmstart_singular` (factorization died) split
/// the blame.
fn count_fallback(cause: &'static str) {
    if obs::enabled() {
        obs::counter("simplex.warmstart_fallbacks").inc();
        obs::counter(cause).inc();
    }
}

/// [`solve_with_backend`] with warm-start support. Returns the solution
/// plus a [`WarmStart`] snapshot when the solve ended `Optimal`.
///
/// Infallible by construction: a failed warm start retries cold, a
/// singular basis retries cold from the slack basis under Bland's rule,
/// and if even that attempt degrades the result is an explicit
/// [`Status::NumericalFailure`] solution with a finite payload — never a
/// panic, never a NaN.
pub fn solve_warm_with_backend<B: BasisBackend>(
    p: &Problem,
    opts: &SolverOpts,
    backend: &mut B,
    warm: Option<&WarmStart>,
) -> (Solution, Option<WarmStart>) {
    // Dimension gate: the snapshot must describe this problem minus some
    // appended rows. A mismatch is a fallback, not an error.
    let attempted = warm.is_some();
    let warm = warm.filter(|w| w.n == p.num_vars() && w.m <= p.num_cons());
    if attempted && warm.is_none() {
        count_fallback("simplex.warmstart_rejected");
    }
    if warm.is_some() {
        match try_solve(p, opts, backend, warm, false) {
            SolveAttempt::Done(sol, snap) => {
                if obs::enabled() {
                    obs::counter("simplex.warmstart_hits").inc();
                    obs::counter("simplex.warmstart_iterations").add(sol.iterations as u64);
                }
                return (sol, snap);
            }
            // The warm basis failed validation (and the dual phase could
            // not repair it), or went singular; redo cold.
            SolveAttempt::WarmRejected => count_fallback("simplex.warmstart_rejected"),
            SolveAttempt::Singular => count_fallback("simplex.warmstart_singular"),
        }
    }
    match try_solve(p, opts, backend, None, false) {
        SolveAttempt::Done(sol, snap) => (sol, snap),
        _ => {
            if obs::enabled() {
                obs::counter("simplex.singular_restarts").inc();
            }
            match try_solve(p, opts, backend, None, true) {
                SolveAttempt::Done(sol, snap) => (sol, snap),
                _ => (numerical_failure(p), None),
            }
        }
    }
}

/// The result of a solve whose Bland restart also hit a singular basis:
/// the origin point with its true (finite) objective, so callers that
/// compare objectives never ingest a NaN.
fn numerical_failure(p: &Problem) -> Solution {
    if obs::enabled() {
        obs::counter("simplex.numerical_failures").inc();
    }
    let x = vec![0.0; p.num_vars()];
    let objective = p.objective_value(&x);
    Solution {
        status: Status::NumericalFailure,
        objective,
        x,
        duals: vec![0.0; p.num_cons()],
        iterations: 0,
    }
}

/// Default pivot cap per phase of an LP with `m` rows and `n` structural
/// columns.
fn default_max_iters(opts: &SolverOpts, m: usize, n: usize) -> usize {
    opts.max_iters.unwrap_or(200 * (m + n) + 20_000)
}

/// An LP in the simplex's standard form: structural columns `0..n` with
/// every row equilibrated, then one slack per row, then the phase-1
/// artificials a starting basis adds.
struct Standard {
    n: usize,
    m: usize,
    cols: Vec<Vec<(usize, f64)>>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Phase-2 costs, negated for a maximization.
    obj: Vec<f64>,
    rhs: Vec<f64>,
    row_scale: Vec<f64>,
}

/// A starting basis: the state of every column, the basic column and
/// value of every row, the phase-1 costs and the artificial count.
struct Start {
    state: Vec<VState>,
    basis: Vec<usize>,
    xb: Vec<f64>,
    phase1: Vec<f64>,
    n_art: usize,
}

impl Standard {
    fn of(p: &Problem) -> Standard {
        let m = p.num_cons();
        let n = p.num_vars();
        let mut cols: Vec<Vec<(usize, f64)>> = p.cols.clone();
        let mut lb: Vec<f64> = p.vars.iter().map(|v| v.lb).collect();
        let mut ub: Vec<f64> = p.vars.iter().map(|v| v.ub).collect();
        let sign = match p.sense {
            Sense::Min => 1.0,
            Sense::Max => -1.0,
        };
        let mut obj: Vec<f64> = p.vars.iter().map(|v| sign * v.obj).collect();

        // Row equilibration: scale every row so its largest structural
        // coefficient has magnitude ~1. Deployment LPs mix O(1) rule-count
        // rows with O(1e6) volume rows; without scaling the factorization
        // conditioning degrades enough to silently lose primal feasibility.
        // Scales are a deterministic function of the row's contents, so warm
        // starts across row-generation rounds stay consistent. Duals are
        // un-scaled on the way out.
        let mut row_scale = vec![1.0f64; m];
        for col in cols.iter() {
            for &(row, a) in col {
                let aa = a.abs();
                if aa > row_scale[row] {
                    row_scale[row] = aa;
                }
            }
        }
        for s in row_scale.iter_mut() {
            // row_scale currently holds max |a| (>= 1.0 floor): divide by it.
            *s = 1.0 / *s;
        }
        for col in cols.iter_mut() {
            for e in col.iter_mut() {
                e.1 *= row_scale[e.0];
            }
        }
        let rhs: Vec<f64> = p.cons.iter().enumerate().map(|(i, c)| c.rhs * row_scale[i]).collect();

        for (i, con) in p.cons.iter().enumerate() {
            cols.push(vec![(i, 1.0)]);
            let (slo, shi) = match con.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lb.push(slo);
            ub.push(shi);
            obj.push(0.0);
        }
        Standard { n, m, cols, lb, ub, obj, rhs, row_scale }
    }

    /// Crash `rows` of a starting basis whose rows have residuals `resid`:
    /// the slack is basic where the residual fits its bounds; else the
    /// slack stays nonbasic at 0 (both slack kinds have 0 as a bound) and
    /// an artificial column takes the row.
    fn crash(&mut self, rows: std::ops::Range<usize>, resid: &[f64], start: &mut Start) {
        for i in rows {
            let sj = self.n + i;
            let v = resid[i];
            let fits = v >= self.lb[sj] - TOL_FEAS && v <= self.ub[sj] + TOL_FEAS;
            if fits {
                start.basis[i] = sj;
                start.xb[i] = v;
                start.state[sj] = VState::Basic(i);
            } else {
                start.state[sj] =
                    if self.lb[sj] == 0.0 { VState::AtLower } else { VState::AtUpper };
                let aj = self.cols.len();
                self.cols.push(vec![(i, 1.0)]);
                if v > 0.0 {
                    self.lb.push(0.0);
                    self.ub.push(f64::INFINITY);
                    start.phase1.push(1.0);
                } else {
                    self.lb.push(f64::NEG_INFINITY);
                    self.ub.push(0.0);
                    start.phase1.push(-1.0);
                }
                self.obj.push(0.0);
                start.basis[i] = aj;
                start.xb[i] = v;
                start.state.push(VState::Basic(i));
                start.n_art += 1;
            }
        }
    }
}

impl<B: BasisBackend> Core<B> {
    /// The solver state over `s` from `start`, whose basis `backend` has
    /// factorized.
    fn new(s: Standard, mut start: Start, backend: B, start_bland: bool) -> Self {
        let Standard { n, m, cols, lb, ub, obj, rhs, row_scale } = s;
        let ncols = cols.len();
        start.phase1.resize(ncols, 0.0);
        let rows = RowMatrix::new(m, &cols, n..n + m);
        Core {
            m,
            ncols,
            n_struct: n,
            cols,
            rows,
            lb,
            ub,
            cost: start.phase1,
            obj,
            row_scale,
            d: vec![0.0; ncols],
            d_fresh: false,
            prices_in: vec![false; ncols],
            stale: vec![true; ncols.div_ceil(SECTION).max(1)],
            section: SECTION,
            state: start.state,
            basis: start.basis,
            xb: start.xb,
            rhs,
            backend,
            iterations: 0,
            y: vec![0.0; m],
            y_touched: Vec::new(),
            pi: vec![0.0; m],
            cb: vec![0.0; m],
            rho: vec![0.0; m],
            rho_support: Vec::new(),
            alpha: Vec::new(),
            alpha_cols: Vec::new(),
            degen_run: 0,
            bland: start_bland,
            force_bland: start_bland,
            price_section: 0,
            trace: obs::trace_enabled(),
            singular: false,
            n_pivots: 0,
            n_bound_flips: 0,
            n_degen: 0,
            n_refactor: 0,
            n_dual_pivots: 0,
            n_dual_flips: 0,
            n_pivot_row_nnz: 0,
            n_dense_pivot_rows: 0,
            n_dj_resets: 0,
            dual_attempted: false,
            dual_repaired: false,
        }
    }
}

/// `p` on the cold crash basis: every column nonbasic at the bound
/// nearest zero, each row's slack basic where the residual fits and an
/// artificial where it does not.
fn cold_core<B: BasisBackend>(p: &Problem, mut backend: B, start_bland: bool) -> Core<B> {
    let mut s = Standard::of(p);
    let (n, m) = (s.n, s.m);
    let state: Vec<VState> = (0..n + m).map(|j| bound_state(s.lb[j], s.ub[j])).collect();
    let mut resid = s.rhs.clone();
    for (j, st) in state.iter().enumerate().take(n) {
        let xj = match st {
            VState::AtLower => s.lb[j],
            VState::AtUpper => s.ub[j],
            VState::FreeZero | VState::Basic(_) => 0.0,
        };
        if xj != 0.0 {
            for &(row, a) in &s.cols[j] {
                resid[row] -= a * xj;
            }
        }
    }
    let mut start = Start {
        state,
        basis: vec![usize::MAX; m],
        xb: vec![0.0; m],
        phase1: vec![0.0; n + m],
        n_art: 0,
    };
    s.crash(0..m, &resid, &mut start);
    backend.reset_identity(m);
    Core::new(s, start, backend, start_bland)
}

/// `p` on the basis of `w`, an optimal basis of `p` minus its rows past
/// `w.m`: structural columns and old-row slacks keep their states, new
/// rows get their slack or an artificial. The extended basis is
/// block-triangular, so factorizing it fails only when the snapshot is
/// inconsistent or the coefficients changed enough to make it singular;
/// then `None`.
fn warm_core<B: BasisBackend>(
    p: &Problem,
    mut backend: B,
    w: &WarmStart,
    start_bland: bool,
) -> Option<Core<B>> {
    let mut s = Standard::of(p);
    let (n, m) = (s.n, s.m);
    // Structural vars and old-row slacks restore their state; Basic is
    // resolved to a position below.
    let mut state: Vec<VState> = (0..n + m)
        .map(|j| {
            if j < n + w.m {
                match w.states[j] {
                    0 => VState::AtLower,
                    1 => VState::AtUpper,
                    2 => VState::FreeZero,
                    _ => VState::Basic(usize::MAX), // placeholder
                }
            } else {
                bound_state(s.lb[j], s.ub[j])
            }
        })
        .collect();

    // Residuals at the starting point: nonbasic at bounds, basic vars at
    // their saved values.
    let mut resid = s.rhs.clone();
    for (j, st) in state.iter().enumerate().take(n) {
        let xj = match st {
            VState::AtLower => s.lb[j],
            VState::AtUpper => s.ub[j],
            VState::FreeZero => 0.0,
            VState::Basic(_) => w.values[j],
        };
        if xj != 0.0 {
            for &(row, a) in &s.cols[j] {
                resid[row] -= a * xj;
            }
        }
    }
    // Old-row slacks contribute too (each touches only its own row).
    for (i, r) in resid.iter_mut().enumerate().take(w.m) {
        let sj = n + i;
        let xj = match state[sj] {
            VState::AtLower => s.lb[sj],
            VState::AtUpper => s.ub[sj],
            VState::FreeZero => 0.0,
            VState::Basic(_) => w.values[sj],
        };
        *r -= xj;
    }

    // Positions: old-row slacks that were basic sit on their own row;
    // structural basics fill the remaining old positions; new rows get
    // their slack or an artificial.
    let mut basis = vec![usize::MAX; m];
    let mut free_pos: Vec<usize> = Vec::new();
    for (i, b) in basis.iter_mut().enumerate().take(w.m) {
        let sj = n + i;
        if matches!(state[sj], VState::Basic(_)) {
            *b = sj;
            state[sj] = VState::Basic(i);
        } else {
            free_pos.push(i);
        }
    }
    let struct_basics: Vec<usize> =
        (0..n).filter(|&j| matches!(state[j], VState::Basic(_))).collect();
    if struct_basics.len() != free_pos.len() {
        return None; // inconsistent snapshot; fall back
    }
    for (&j, &pos) in struct_basics.iter().zip(&free_pos) {
        basis[pos] = j;
        state[j] = VState::Basic(pos);
    }
    let mut start = Start { state, basis, xb: vec![0.0; m], phase1: vec![0.0; n + m], n_art: 0 };
    s.crash(w.m..m, &resid, &mut start);
    let basis_cols: Vec<&[(usize, f64)]> =
        start.basis.iter().map(|&j| s.cols[j].as_slice()).collect();
    if backend.refactor(m, &basis_cols).is_err() {
        return None;
    }
    Some(Core::new(s, start, backend, start_bland))
}

fn try_solve<B: BasisBackend>(
    p: &Problem,
    opts: &SolverOpts,
    backend: &mut B,
    warm: Option<&WarmStart>,
    start_bland: bool,
) -> SolveAttempt {
    let t0 = obs::now_if_enabled();
    let m = p.num_cons();
    let n = p.num_vars();
    // A usable warm start must describe this problem minus some new rows.
    let warm = warm.filter(|w| w.n == n && w.m <= m);
    let m_old = warm.map_or(0, |w| w.m);
    let max_iters = default_max_iters(opts, m, n);
    let mut core = match warm {
        // Inconsistent snapshot or singular warm basis: the caller
        // retries cold (and records the fallback).
        Some(w) => match warm_core(p, backend, w, start_bland) {
            Some(core) => core,
            None => return SolveAttempt::WarmRejected,
        },
        None => cold_core(p, backend, start_bland),
    };
    let n_art = core.ncols - (n + m);

    if let Some(w) = warm {
        // Compute exact basic values under the warm factorization.
        core.refresh();
        if core.singular {
            return SolveAttempt::Singular;
        }
        // Sanity: old basics must still be feasible (they were optimal for
        // the old rows, which are untouched). A violation means the
        // snapshot didn't match; phase 1 would misbehave, so bail to a
        // cold solve.
        let mut worst = 0.0f64;
        let mut worst_pos = usize::MAX;
        for pos in 0..core.m {
            let j = core.basis[pos];
            if j >= n + m {
                continue; // artificials repair themselves in phase 1
            }
            // Changed bounds can leave a restored nonbasic state pointing
            // at an infinite bound; the resulting residual poisons the
            // basic values with non-finite garbage. NaN compares false
            // with `>`, so guard explicitly instead of relying on `worst`.
            if !core.xb[pos].is_finite() {
                worst = f64::INFINITY;
                worst_pos = pos;
                break;
            }
            let v = (core.lb[j] - core.xb[pos]).max(core.xb[pos] - core.ub[j]);
            if v > worst {
                worst = v;
                worst_pos = pos;
            }
        }
        if core.trace {
            // How many old basics drifted from their snapshot values?
            let mut drifted = 0;
            let mut maxdrift = 0.0f64;
            for pos in 0..core.m {
                let j = core.basis[pos];
                if j < n + w.m {
                    let dv = (core.xb[pos] - w.values[j]).abs();
                    if dv > 1e-7 {
                        drifted += 1;
                        maxdrift = maxdrift.max(dv);
                    }
                }
            }
            obs::trace_event!("simplex.warm_diag", drifted = drifted, max_drift = maxdrift);
        }
        let broken = worst > 1e-6;
        let mut repaired = false;
        // Primal-infeasible warm basis: before discarding it, try a dual
        // simplex repair. The old basis was optimal for the previous
        // instance, so its reduced costs under the *phase-2* objective are
        // usually still sign-correct (dual feasible) even after the
        // coefficient or bound change knocked the basic values out of
        // range — exactly the case the dual ratio test fixes in a handful
        // of pivots. Only meaningful when the warm build needed no
        // artificials (artificial columns carry phase-1 costs, which would
        // poison the classification).
        if broken && worst.is_finite() && n_art == 0 {
            core.dual_attempted = true;
            core.cost.clone_from(&core.obj);
            core.d_fresh = false;
            if core.dual_classify_and_flip() {
                if core.n_dual_flips > 0 {
                    // Bound flips moved nonbasic values; recompute x_B.
                    core.refresh();
                }
                if core.singular {
                    core.flush_dual_metrics();
                    return SolveAttempt::Singular;
                }
                if core.trace {
                    obs::trace_event!(
                        "simplex.dual_start",
                        m = m,
                        viol = worst,
                        flips = core.n_dual_flips
                    );
                }
                // A bounded budget, not `max_iters`: a repair still
                // crawling past ~4m pivots is slower than redoing the
                // solve cold, and a stalled (degenerate-crawling) repair
                // would otherwise burn the whole cold-solve-sized cap
                // before falling back.
                let dual_budget = dual_budget(m).min(max_iters);
                match core.iterate_dual(dual_budget) {
                    DualEnd::PrimalFeasible => {
                        repaired = true;
                        core.dual_repaired = true;
                        if core.trace {
                            obs::trace_event!(
                                "simplex.dual_repaired",
                                pivots = core.n_dual_pivots,
                                flips = core.n_dual_flips
                            );
                        }
                    }
                    DualEnd::Singular => {
                        core.flush_dual_metrics();
                        return SolveAttempt::Singular;
                    }
                    DualEnd::IterLimit | DualEnd::NoPivot => {
                        if core.trace {
                            obs::trace_event!("simplex.dual_failed", pivots = core.n_dual_pivots);
                        }
                    }
                }
            }
        }
        if broken && !repaired {
            if core.trace {
                let j = core.basis[worst_pos];
                obs::trace_event!(
                    "simplex.warm_rejected",
                    m = m,
                    m_old = m_old,
                    pos = worst_pos,
                    var = j,
                    n = n,
                    xb = core.xb[worst_pos],
                    lb = core.lb[j],
                    ub = core.ub[j]
                );
            }
            core.flush_dual_metrics();
            return SolveAttempt::WarmRejected;
        }
        if core.trace && !repaired {
            obs::trace_event!("simplex.warm_accepted", m = m, m_old = m_old, n_art = n_art);
        }
    }

    let Some(status) = core.run_phases(max_iters, t0) else {
        return SolveAttempt::Singular;
    };
    let x: Vec<f64> = (0..n).map(|j| core.var_value(j)).collect();
    let sol = core.solution(p, status, x);
    if sol.status != Status::Optimal {
        return SolveAttempt::Done(sol, None);
    }

    // ---- Snapshot for future warm starts. ----
    let mut wstates = vec![0u8; n + m];
    let mut wvalues = vec![0.0f64; n + m];
    for j in 0..n + m {
        wstates[j] = match core.state[j] {
            VState::Basic(_) => 3,
            VState::AtLower => 0,
            VState::AtUpper => 1,
            VState::FreeZero => 2,
        };
        wvalues[j] = core.var_value(j);
    }
    // A basic artificial (degenerate, at zero) is replaced by the slack of
    // its row — an identical column, so the basis stays nonsingular.
    for pos in 0..m {
        let j = core.basis[pos];
        if j >= n + m {
            let row = core.cols[j][0].0;
            wstates[n + row] = 3;
            wvalues[n + row] = core.xb[pos];
        }
    }
    let snapshot = WarmStart { n, m, states: wstates, values: wvalues };
    SolveAttempt::Done(sol, Some(snapshot))
}

/// Solve `p` as a pure LP on the backend [`SolverOpts::dense_row_limit`]
/// selects, sparse by default (integer markers are ignored; use
/// [`crate::milp`] to enforce integrality).
pub fn solve(p: &Problem, opts: &SolverOpts) -> Solution {
    solve_warm(p, opts, None).0
}

/// [`solve`] with warm-start support (see [`WarmStart`]).
pub fn solve_warm(
    p: &Problem,
    opts: &SolverOpts,
    warm: Option<&WarmStart>,
) -> (Solution, Option<WarmStart>) {
    if p.num_cons() <= opts.dense_row_limit {
        let mut b = dense::DenseInverse::new();
        solve_warm_with_backend(p, opts, &mut b, warm)
    } else {
        let mut b = sparse::SparseFactors::new();
        solve_warm_with_backend(p, opts, &mut b, warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{verify_kkt, KktTol};
    use crate::model::VarId;

    /// Run `f` with the reduced-cost probe on and return what it saw.
    fn probed(f: impl FnOnce()) -> DriftProbe {
        DJ_DRIFT.with(|c| c.set(Some(DriftProbe::default())));
        f();
        DJ_DRIFT.with(|c| c.replace(None)).unwrap_or_default()
    }

    /// The 62-row GUB packing LP: 50 choose-one rows over 4 variables
    /// each, 12 weighted capacity rows across them.
    fn gub_lp(cap: f64) -> Problem {
        let mut p = Problem::new(Sense::Max);
        let vars: Vec<_> = (0..200)
            .map(|j| p.add_var(format!("x{j}"), 0.0, 1.0, 1.0 + (j % 7) as f64 * 0.3))
            .collect();
        for g in 0..50 {
            let terms: Vec<_> = (0..4).map(|t| (vars[g * 4 + t], 1.0)).collect();
            p.add_con(format!("g{g}"), &terms, Cmp::Le, 1.0);
        }
        for c in 0..12 {
            let terms: Vec<_> =
                (0..200).filter(|j| j % 12 == c).map(|j| (vars[j], 1.0 + (j % 3) as f64)).collect();
            p.add_con(format!("cap{c}"), &terms, Cmp::Le, cap);
        }
        p
    }

    /// A packing LP whose rows are all dense, so `ρ` meets most of the
    /// matrix: the primal leaves `d` to the section rebuild from `π`, and
    /// the dual's pivot row spans every column.
    fn dense_lp(rows: usize, vars: usize, cap: f64) -> Problem {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut p = Problem::new(Sense::Max);
        let x: Vec<VarId> =
            (0..vars).map(|j| p.add_var(format!("x{j}"), 0.0, 5.0, 1.0 + unit())).collect();
        for i in 0..rows {
            let terms: Vec<_> = x.iter().map(|&v| (v, 0.1 + unit())).collect();
            p.add_con(format!("r{i}"), &terms, Cmp::Le, cap * (1.0 + unit()));
        }
        p
    }

    /// A small NIPS relaxation in the shape `nips::relax` builds, with
    /// every lazy row materialized: enables `e_ij` and sampling fractions
    /// `d_ikj` in `[0, 1]`, a drop benefit that favours early nodes, one
    /// coverage row per (rule, path), one `d ≤ e` row per on-path node, and
    /// a TCAM and a load row per node. Paths run forward on a ring, 1 to 3
    /// hops long.
    fn nips_like_lp(rules: usize, nodes: usize) -> Problem {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut p = Problem::new(Sense::Max);
        let e: Vec<Vec<VarId>> = (0..rules)
            .map(|i| (0..nodes).map(|j| p.add_var(format!("e{i}_{j}"), 0.0, 1.0, 0.0)).collect())
            .collect();
        let mut load: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); nodes];
        for (i, enables) in e.iter().enumerate() {
            for s in 0..nodes {
                for hops in 1..=3 {
                    let vol = 1.0 + 9.0 * unit();
                    let mut cover = Vec::new();
                    for pos in 0..=hops {
                        let j = (s + pos) % nodes;
                        let benefit = vol * (hops + 1 - pos) as f64;
                        let d = p.add_var(format!("d{i}_{s}_{hops}_{pos}"), 0.0, 1.0, benefit);
                        p.add_con(
                            format!("vub{i}_{s}_{hops}_{pos}"),
                            &[(d, 1.0), (enables[j], -1.0)],
                            Cmp::Le,
                            0.0,
                        );
                        load[j].push((d, vol * (0.5 + unit())));
                        cover.push((d, 1.0));
                    }
                    p.add_con(format!("cov{i}_{s}_{hops}"), &cover, Cmp::Le, 1.0);
                }
            }
        }
        for (j, terms) in load.iter().enumerate() {
            let cam: Vec<_> = (0..rules).map(|i| (e[i][j], 1.0)).collect();
            p.add_con(format!("cam{j}"), &cam, Cmp::Le, (rules / 3) as f64);
            p.add_con(format!("load{j}"), terms, Cmp::Le, 4.0 * rules as f64);
        }
        p
    }

    #[test]
    fn maintained_reduced_costs_track_a_fresh_recompute() {
        // After every pivot, `π` and the reduced costs updated from the
        // pivot row must equal `B⁻ᵀc_B` and `c − Aᵀπ` recomputed in full
        // (in the scaled LP).
        let lps = [
            ("gub", gub_lp(50.0 / 8.0)),
            ("nips", nips_like_lp(6, 8)),
            ("dense", dense_lp(20, 60, 10.0)),
        ];
        for (name, p) in lps {
            let mut sol = None;
            let probe = probed(|| sol = Some(solve(&p, &SolverOpts::default())));
            let sol = sol.unwrap();
            assert_eq!(sol.status, Status::Optimal, "{name}");
            verify_kkt(&p, &sol, KktTol::default()).unwrap();
            assert!(probe.primal >= 15, "{name}: only {} pivots checked", probe.primal);
            assert!(probe.worst <= 1e-9, "{name}: reduced costs drifted by {:e}", probe.worst);
        }
    }

    #[test]
    fn dual_repair_keeps_reduced_costs_in_step() {
        // Halving the capacities leaves the old optimum primal infeasible
        // but dual feasible: the warm re-solve repairs it with dual pivots,
        // which update `d` from the same pivot row (a sparse one on the
        // GUB LP, one that spans every column on the dense LP).
        let opts = SolverOpts::default();
        let pairs = [
            ("gub", gub_lp(50.0 / 8.0), gub_lp(50.0 / 16.0)),
            ("dense", dense_lp(20, 60, 10.0), dense_lp(20, 60, 3.0)),
        ];
        for (name, loose, tight) in pairs {
            let (first, warm) = solve_warm(&loose, &opts, None);
            assert_eq!(first.status, Status::Optimal, "{name}");
            let mut sol = None;
            let probe = probed(|| sol = Some(solve_warm(&tight, &opts, warm.as_ref()).0));
            let sol = sol.unwrap();
            assert_eq!(sol.status, Status::Optimal, "{name}");
            verify_kkt(&tight, &sol, KktTol::default()).unwrap();
            assert!(probe.dual >= 5, "{name}: only {} dual pivots checked", probe.dual);
            assert!(probe.worst <= 1e-9, "{name}: reduced costs drifted by {:e}", probe.worst);
        }
    }
}
