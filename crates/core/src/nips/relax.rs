//! LP relaxation of the NIPS MILP (Fig 9, steps 1–2).
//!
//! Replacing `e_ij ∈ {0,1}` with `e_ij ∈ [0,1]` yields a (large) linear
//! program. Only the 3·N resource rows are materialized eagerly; the
//! `L × P` coverage rows (Eq 11) and the `L × Σ|P_k|` variable-upper-bound
//! rows (Eq 12) go through the lazy-row generator — at the optimum only a
//! small fraction of them bind, and the cutting-plane loop terminates with
//! a certified optimum of the *full* relaxation.

use super::model::NipsInstance;
use nwdp_lp::rowgen::{solve_with_lazy_rows_ctx, LazyRow, RowGenOpts, SolveContext};
use nwdp_lp::{Cmp, Problem, Sense, Status, VarId};

/// Index layout for the relaxation's variables.
#[derive(Debug, Clone)]
pub struct Layout {
    pub n_rules: usize,
    pub n_nodes: usize,
    /// `path_off[k]` = flat position offset of path `k`'s first node.
    pub path_off: Vec<usize>,
    /// Total on-path positions (`Σ_k |P_k|`).
    pub total_pos: usize,
}

impl Layout {
    pub fn new(inst: &NipsInstance) -> Self {
        let mut path_off = Vec::with_capacity(inst.paths.len());
        let mut acc = 0;
        for p in &inst.paths {
            path_off.push(acc);
            acc += p.nodes.len();
        }
        Layout { n_rules: inst.rules.len(), n_nodes: inst.num_nodes, path_off, total_pos: acc }
    }

    /// Flat index of `e_ij` among the e-variables.
    pub fn e(&self, rule: usize, node: usize) -> usize {
        rule * self.n_nodes + node
    }

    /// Flat index of `d_ikj` among the d-variables.
    pub fn d(&self, rule: usize, path: usize, pos: usize) -> usize {
        rule * self.total_pos + self.path_off[path] + pos
    }

    pub fn num_e(&self) -> usize {
        self.n_rules * self.n_nodes
    }

    pub fn num_d(&self) -> usize {
        self.n_rules * self.total_pos
    }
}

/// Solution of the LP relaxation.
#[derive(Debug, Clone)]
pub struct RelaxSolution {
    /// `OptLP`: the LP upper bound on any integral deployment.
    pub objective: f64,
    /// Fractional enables, indexed by [`Layout::e`].
    pub e: Vec<f64>,
    /// Fractional sampling, indexed by [`Layout::d`].
    pub d: Vec<f64>,
    pub layout: Layout,
    /// Row-generation statistics: (rows added, rounds).
    pub rowgen: (usize, usize),
}

/// Errors from the relaxation solve.
#[derive(Debug, Clone)]
pub enum RelaxError {
    NotConverged,
    SolverFailed(Status),
}

impl std::fmt::Display for RelaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelaxError::NotConverged => write!(f, "row generation did not converge"),
            RelaxError::SolverFailed(s) => write!(f, "LP solver failed: {s:?}"),
        }
    }
}

impl std::error::Error for RelaxError {}

/// Solve the LP relaxation to optimality.
pub fn solve_relaxation(
    inst: &NipsInstance,
    opts: &RowGenOpts,
) -> Result<RelaxSolution, RelaxError> {
    solve_relaxation_ctx(inst, opts, &mut SolveContext::new())
}

/// [`solve_relaxation`] with a cross-call [`SolveContext`]: repeated
/// relaxation solves over the same topology (capacity/parameter sweeps,
/// what-if provisioning) warm-start from the previous optimum's basis and
/// pre-materialize the lazy rows that were binding there. The relaxation
/// always runs with a `near_margin` of 0.25, whatever `opts` carries.
pub fn solve_relaxation_ctx(
    inst: &NipsInstance,
    opts: &RowGenOpts,
    ctx: &mut SolveContext,
) -> Result<RelaxSolution, RelaxError> {
    // Predictive activation: coverage/VUB rows within 0.25 of binding get
    // materialized as soon as any violation appears, collapsing the
    // cutting-plane loop to a handful of rounds.
    let opts = &RowGenOpts { near_margin: 0.25, ..opts.clone() };
    let layout = Layout::new(inst);
    let RelaxLp { problem: p, lazy, evars, dvars } = build_lp(inst, &layout);

    let res = solve_with_lazy_rows_ctx(&p, &lazy, opts, ctx);
    if res.solution.status != Status::Optimal {
        return Err(RelaxError::SolverFailed(res.solution.status));
    }
    if !res.converged {
        return Err(RelaxError::NotConverged);
    }
    let sol = res.solution;
    let e: Vec<f64> = evars.iter().map(|&v| sol.value(v).clamp(0.0, 1.0)).collect();
    let d: Vec<f64> = dvars.iter().map(|&v| sol.value(v).clamp(0.0, 1.0)).collect();
    Ok(RelaxSolution {
        objective: sol.objective,
        e,
        d,
        layout,
        rowgen: (res.rows_added, res.rounds),
    })
}

/// The relaxation before row generation: the eager resource rows in
/// `problem`, the coverage and VUB rows in the `lazy` pool.
struct RelaxLp {
    problem: Problem,
    lazy: Vec<LazyRow>,
    /// `e` and `d` variables, indexed by [`Layout::e`] / [`Layout::d`].
    evars: Vec<VarId>,
    dvars: Vec<VarId>,
}

fn build_lp(inst: &NipsInstance, layout: &Layout) -> RelaxLp {
    let mut p = Problem::new(Sense::Max);

    // e variables (objective 0).
    let mut evars: Vec<VarId> = Vec::with_capacity(layout.num_e());
    for i in 0..layout.n_rules {
        for j in 0..layout.n_nodes {
            evars.push(p.add_var(format!("e_{i}_{j}"), 0.0, 1.0, 0.0));
        }
    }
    // d variables with drop-benefit objective coefficients.
    let mut dvars: Vec<VarId> = Vec::with_capacity(layout.num_d());
    for i in 0..layout.n_rules {
        for (k, path) in inst.paths.iter().enumerate() {
            for pos in 0..path.nodes.len() {
                dvars.push(p.add_var(format!("d_{i}_{k}_{pos}"), 0.0, 1.0, inst.weight(i, k, pos)));
            }
        }
    }

    // Eager resource rows (Eq 8, 9, 10). Infinite capacities mean the
    // constraint is absent (used by §3.5's TCAM-free setting).
    for j in 0..layout.n_nodes {
        if !inst.cam_cap[j].is_finite() {
            continue;
        }
        let cam: Vec<_> =
            (0..layout.n_rules).map(|i| (evars[layout.e(i, j)], inst.rules[i].cam_req)).collect();
        p.add_con(format!("cam_{j}"), &cam, Cmp::Le, inst.cam_cap[j]);
    }
    let mut mem_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); layout.n_nodes];
    let mut cpu_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); layout.n_nodes];
    for i in 0..layout.n_rules {
        for (k, path) in inst.paths.iter().enumerate() {
            for (pos, &node) in path.nodes.iter().enumerate() {
                let v = dvars[layout.d(i, k, pos)];
                mem_terms[node.index()].push((v, path.items * inst.rules[i].mem_per_item));
                cpu_terms[node.index()].push((v, path.pkts * inst.rules[i].cpu_per_pkt));
            }
        }
    }
    for j in 0..layout.n_nodes {
        if inst.mem_cap[j].is_finite() {
            p.add_con(format!("mem_{j}"), &mem_terms[j], Cmp::Le, inst.mem_cap[j]);
        }
        if inst.cpu_cap[j].is_finite() {
            p.add_con(format!("cpu_{j}"), &cpu_terms[j], Cmp::Le, inst.cpu_cap[j]);
        }
    }

    // Lazy rows: coverage (Eq 11) and VUB (Eq 12).
    let mut lazy = Vec::with_capacity(layout.n_rules * inst.paths.len() + layout.num_d());
    for i in 0..layout.n_rules {
        for (k, path) in inst.paths.iter().enumerate() {
            let cover: Vec<_> =
                (0..path.nodes.len()).map(|pos| (dvars[layout.d(i, k, pos)], 1.0)).collect();
            lazy.push(LazyRow::new(format!("cov_{i}_{k}"), cover, Cmp::Le, 1.0));
            for (pos, &node) in path.nodes.iter().enumerate() {
                lazy.push(LazyRow::new(
                    format!("vub_{i}_{k}_{pos}"),
                    vec![
                        (dvars[layout.d(i, k, pos)], 1.0),
                        (evars[layout.e(i, node.index())], -1.0),
                    ],
                    Cmp::Le,
                    0.0,
                ));
            }
        }
    }

    RelaxLp { problem: p, lazy, evars, dvars }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwdp_topo::{internet2, PathDb};
    use nwdp_traffic::{MatchRates, TrafficMatrix, VolumeModel};

    fn small_instance(n_rules: usize, cap_frac: f64, seed: u64) -> NipsInstance {
        let t = internet2();
        let paths = PathDb::shortest_paths(&t);
        let tm = TrafficMatrix::gravity(&t);
        let vol = VolumeModel::internet2_baseline();
        let rates = MatchRates::uniform_001(n_rules, paths.all_pairs().count(), seed);
        NipsInstance::evaluation_setup(&t, &paths, &tm, &vol, n_rules, cap_frac, rates)
    }

    #[test]
    fn relaxation_solves_and_bounds() {
        let inst = small_instance(8, 0.25, 11);
        let sol = solve_relaxation(&inst, &RowGenOpts::default()).unwrap();
        assert!(sol.objective > 0.0);
        assert!(sol.objective <= inst.drop_everything_bound() + 1e-6);
        // e respects TCAM fractionally.
        for j in 0..inst.num_nodes {
            let used: f64 = (0..inst.rules.len()).map(|i| sol.e[sol.layout.e(i, j)]).sum();
            assert!(used <= inst.cam_cap[j] + 1e-6, "node {j}: {used}");
        }
        // d ≤ e everywhere (the lazy VUB rows must have been enforced).
        for i in 0..inst.rules.len() {
            for (k, path) in inst.paths.iter().enumerate() {
                for (pos, &node) in path.nodes.iter().enumerate() {
                    let dv = sol.d[sol.layout.d(i, k, pos)];
                    let ev = sol.e[sol.layout.e(i, node.index())];
                    assert!(dv <= ev + 1e-6, "d {dv} > e {ev}");
                }
            }
        }
        // Coverage ≤ 1.
        for i in 0..inst.rules.len() {
            for (k, path) in inst.paths.iter().enumerate() {
                let cov: f64 =
                    (0..path.nodes.len()).map(|pos| sol.d[sol.layout.d(i, k, pos)]).sum();
                assert!(cov <= 1.0 + 1e-6);
            }
        }
    }

    #[test]
    fn unconstrained_tcam_drops_everything() {
        // With cam_cap = all rules and huge mem/cpu, the relaxation should
        // achieve the drop-everything bound (drop at the ingress).
        let mut inst = small_instance(5, 1.0, 3);
        inst.mem_cap = vec![f64::INFINITY; inst.num_nodes];
        inst.cpu_cap = vec![f64::INFINITY; inst.num_nodes];
        let sol = solve_relaxation(&inst, &RowGenOpts::default()).unwrap();
        let bound = inst.drop_everything_bound();
        assert!((sol.objective - bound).abs() < 1e-6 * bound, "{} vs {bound}", sol.objective);
    }

    #[test]
    fn row_generation_matches_the_materialized_relaxation() {
        // Solve the full relaxation of a 12-rule Internet2 instance with
        // every coverage and VUB row materialized, certify it with the
        // independent KKT check, and require the row-generated optimum to
        // agree with it.
        let inst = small_instance(12, 0.15, 21);
        let rowgen = solve_relaxation(&inst, &RowGenOpts::default()).unwrap();
        let RelaxLp { problem: mut full, lazy, .. } = build_lp(&inst, &Layout::new(&inst));
        for row in &lazy {
            full.add_con(row.name.clone(), &row.terms, row.cmp, row.rhs);
        }
        let sol = nwdp_lp::solve(&full, &nwdp_lp::SolverOpts::default());
        assert_eq!(sol.status, Status::Optimal);
        nwdp_lp::verify_kkt(&full, &sol, nwdp_lp::KktTol::default()).unwrap();
        let rel = (rowgen.objective - sol.objective).abs() / sol.objective.abs();
        assert!(
            rel <= 1e-7,
            "row generation {} vs full LP {} ({rel:e})",
            rowgen.objective,
            sol.objective
        );
    }

    #[test]
    fn tighter_tcam_means_lower_bound() {
        let loose = small_instance(10, 0.3, 5);
        let tight = small_instance(10, 0.1, 5);
        let lo = solve_relaxation(&loose, &RowGenOpts::default()).unwrap();
        let ti = solve_relaxation(&tight, &RowGenOpts::default()).unwrap();
        assert!(ti.objective <= lo.objective + 1e-6);
    }
}
