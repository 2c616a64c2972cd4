//! The NIDS assignment linear program (paper §2.2, Eqs 1–6).
//!
//! Decision variables `d_ikj` give the fraction of coordination unit
//! `P_ik`'s traffic analyzed at node `R_j`. The LP minimizes
//! `max(CpuLoad, MemLoad)` over all nodes subject to complete coverage:
//!
//! - Eq (1): `Σ_j d_ikj = 1` for every unit (generalized to `= r` for the
//!   §2.5 redundancy extension, with `d_ikj ≤ 1` preserving node
//!   distinctness),
//! - Eqs (2)–(3): per-node memory/CPU load as capacity fractions,
//! - Eqs (4)–(6): the min–max objective and variable bounds.
//!
//! [`solve_nids_lp`] and its warm and excluding variants solve it by
//! Dantzig–Wolfe decomposition (see the `dw` module), each solve ending
//! with a certified optimality gap. [`simplex_oracle`] solves the same LP
//! in one piece with the simplex; it is the test oracle the decomposition
//! is checked against.

use super::dw::coverage_targets;
pub use super::dw::{solve_nids_lp_excluding, ColumnPool, GAP_TOL};
use crate::units::NidsDeployment;
use nwdp_lp::{solve_warm, Cmp, Problem, Sense, SolverOpts, Status, VarId, WarmStart};
use nwdp_topo::NodeId;

/// Per-node resource capacities (per measurement interval).
#[derive(Debug, Clone, Copy)]
pub struct NodeCaps {
    /// CPU budget: abstract CPU-µs per interval.
    pub cpu: f64,
    /// Memory budget: bytes.
    pub mem: f64,
}

/// Configuration of the NIDS LP.
#[derive(Debug, Clone)]
pub struct NidsLpConfig {
    /// Capacity per node (length = number of nodes). The paper's §2.4
    /// setup uses homogeneous capabilities; heterogeneous values model
    /// mixed hardware (§2.2: "a general model where network elements have
    /// heterogeneous capabilities").
    pub caps: Vec<NodeCaps>,
    /// Coverage multiplicity `r` (§2.5): each point of the hash space must
    /// be analyzed by `r` distinct nodes, so `r` is a whole number.
    /// Default 1.
    pub redundancy: f64,
    /// Options of every simplex solve: the decomposition's master LPs and
    /// the [`simplex_oracle`].
    pub solver: SolverOpts,
}

impl NidsLpConfig {
    pub fn homogeneous(num_nodes: usize, caps: NodeCaps) -> Self {
        NidsLpConfig { caps: vec![caps; num_nodes], redundancy: 1.0, solver: SolverOpts::default() }
    }
}

/// Errors from the NIDS optimization.
#[derive(Debug, Clone, PartialEq)]
pub enum NidsError {
    /// LP infeasible: some unit cannot reach coverage `r` (e.g. `r`
    /// exceeds the unit's eligible node count).
    Infeasible,
    /// Solver failure: a simplex solve did not end optimal, or the
    /// decomposition could not certify its gap.
    SolverFailed,
}

impl std::fmt::Display for NidsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NidsError::Infeasible => write!(f, "coverage constraints are infeasible"),
            NidsError::SolverFailed => write!(f, "LP solver failed to converge"),
        }
    }
}

impl std::error::Error for NidsError {}

/// Result of the NIDS LP: the fractional responsibilities plus load stats.
#[derive(Debug, Clone)]
pub struct NidsAssignment {
    /// `d[u]` lists `(node, fraction)` for unit `u`, in the unit's
    /// eligible-node order (fractions sum to the unit's coverage level).
    pub d: Vec<Vec<(NodeId, f64)>>,
    /// Optimal `max(CpuLoad, MemLoad)` (fraction of capacity).
    pub max_load: f64,
    pub cpu_load: Vec<f64>,
    pub mem_load: Vec<f64>,
    /// Simplex iterations: summed over the Dantzig–Wolfe master solves,
    /// or of the one solve of the [`simplex_oracle`].
    pub lp_iterations: usize,
    /// Dantzig–Wolfe rounds (master solve plus pricing); 0 from the
    /// oracle.
    pub dw_rounds: usize,
    /// Certified relative gap between `max_load` and the best Lagrangian
    /// lower bound, at most [`GAP_TOL`]; 0 from the oracle.
    pub gap: f64,
}

/// Solve the NIDS deployment LP.
pub fn solve_nids_lp(
    dep: &NidsDeployment,
    cfg: &NidsLpConfig,
) -> Result<NidsAssignment, NidsError> {
    solve_nids_lp_warm(dep, cfg, None).map(|(a, _)| a)
}

/// [`solve_nids_lp`] seeded with the column pool of an earlier solve,
/// returning the pool for the next one. What-if sweeps (capacity
/// upgrades) and reload epochs (blended volumes) change only coefficients,
/// so the previous optimum's columns, re-costed, leave the master a few
/// rounds from the new optimum. Of the optimal points, the solve returns
/// one that keeps the most of the pool's point, so a re-solve after a
/// small change moves little of the assignment.
pub fn solve_nids_lp_warm(
    dep: &NidsDeployment,
    cfg: &NidsLpConfig,
    pool: Option<&ColumnPool>,
) -> Result<(NidsAssignment, ColumnPool), NidsError> {
    super::dw::solve(dep, cfg, &[], pool).map(|(a, p, degraded)| {
        debug_assert!(degraded.is_empty(), "no exclusions, no degraded units");
        (a, p)
    })
}

/// The NIDS LP solved in one piece by the simplex: the test oracle of the
/// decomposition, with no production caller. Excluded nodes get no `d`
/// variable; degraded units follow [`solve_nids_lp_excluding`]. `warm` is
/// a basis of an earlier oracle solve of the same shape, which the
/// simplex dual phase repairs after a coefficient change; the final basis
/// is returned for chaining.
pub fn simplex_oracle(
    dep: &NidsDeployment,
    cfg: &NidsLpConfig,
    excluded: &[NodeId],
    warm: Option<&WarmStart>,
) -> Result<(NidsAssignment, Option<WarmStart>, Vec<usize>), NidsError> {
    assert_eq!(cfg.caps.len(), dep.num_nodes, "capacity vector size mismatch");
    let (targets, degraded) = coverage_targets(dep, cfg.redundancy, excluded)?;

    let mut p = Problem::new(Sense::Min);
    let load = p.add_var("L", 0.0, f64::INFINITY, 1.0);

    // d variables, coverage rows, and per-node load terms.
    let mut dvars: Vec<Vec<Option<VarId>>> = Vec::with_capacity(dep.units.len());
    let mut cpu_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); dep.num_nodes];
    let mut mem_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); dep.num_nodes];
    for (u, unit) in dep.units.iter().enumerate() {
        let class = &dep.classes[unit.class];
        let mut vars = Vec::with_capacity(unit.nodes.len());
        let mut cover = Vec::with_capacity(unit.nodes.len());
        for &j in &unit.nodes {
            if excluded.contains(&j) {
                vars.push(None);
                continue;
            }
            let v = p.add_var(format!("d_{u}_{}", j.index()), 0.0, 1.0, 0.0);
            cpu_terms[j.index()].push((v, class.cpu_per_pkt * unit.pkts / cfg.caps[j.index()].cpu));
            mem_terms[j.index()]
                .push((v, class.mem_per_item * unit.items / cfg.caps[j.index()].mem));
            vars.push(Some(v));
            cover.push((v, 1.0));
        }
        // A unit left with no surviving node has target 0 and no row.
        if !cover.is_empty() {
            p.add_con(format!("cover_{u}"), &cover, Cmp::Eq, targets[u] as f64);
        }
        dvars.push(vars);
    }
    for j in 0..dep.num_nodes {
        let mut t = cpu_terms[j].clone();
        t.push((load, -1.0));
        p.add_con(format!("cpu_{j}"), &t, Cmp::Le, 0.0);
        let mut t = mem_terms[j].clone();
        t.push((load, -1.0));
        p.add_con(format!("mem_{j}"), &t, Cmp::Le, 0.0);
    }

    let (sol, snapshot) = solve_warm(&p, &cfg.solver, warm);
    match sol.status {
        Status::Optimal => {}
        Status::Infeasible => return Err(NidsError::Infeasible),
        _ => return Err(NidsError::SolverFailed),
    }

    let d: Vec<Vec<(NodeId, f64)>> = dep
        .units
        .iter()
        .zip(&dvars)
        .map(|(unit, vars)| {
            let value = |v: &Option<VarId>| v.map_or(0.0, |v| sol.value(v).clamp(0.0, 1.0));
            unit.nodes.iter().zip(vars).map(|(&j, v)| (j, value(v))).collect()
        })
        .collect();
    let (cpu_load, mem_load) = loads_from_assignment(dep, &cfg.caps, &d);
    let assignment = NidsAssignment {
        d,
        max_load: sol.objective,
        cpu_load,
        mem_load,
        lp_iterations: sol.iterations,
        dw_rounds: 0,
        gap: 0.0,
    };
    Ok((assignment, snapshot, degraded))
}

/// Per-node loads induced by a fractional assignment.
pub fn loads_from_assignment(
    dep: &NidsDeployment,
    caps: &[NodeCaps],
    d: &[Vec<(NodeId, f64)>],
) -> (Vec<f64>, Vec<f64>) {
    let mut cpu = vec![0.0; dep.num_nodes];
    let mut mem = vec![0.0; dep.num_nodes];
    for (u, fracs) in d.iter().enumerate() {
        let (c, m) = dep.unit_demand(u);
        for &(j, f) in fracs {
            cpu[j.index()] += c * f / caps[j.index()].cpu;
            mem[j.index()] += m * f / caps[j.index()].mem;
        }
    }
    (cpu, mem)
}

/// Loads of the single-vantage-point baseline: every location independently
/// analyzes all traffic it originates or terminates (the paper's
/// "edge-only" deployment). Per-path units are processed **twice** — once
/// at each endpoint — because neither edge knows the other covers it.
pub fn edge_only_loads(dep: &NidsDeployment, caps: &[NodeCaps]) -> (Vec<f64>, Vec<f64>) {
    let d: Vec<Vec<(NodeId, f64)>> = dep
        .units
        .iter()
        .map(|unit| match unit.key {
            crate::units::UnitKey::Path(s, dst) => vec![(s, 1.0), (dst, 1.0)],
            crate::units::UnitKey::Ingress(n) | crate::units::UnitKey::Egress(n) => {
                vec![(n, 1.0)]
            }
        })
        .collect();
    loads_from_assignment(dep, caps, &d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AnalysisClass;
    use crate::units::build_units;
    use nwdp_topo::{internet2, PathDb};
    use nwdp_traffic::{TrafficMatrix, VolumeModel};

    fn setup() -> (NidsDeployment, NidsLpConfig) {
        let t = internet2();
        let paths = PathDb::shortest_paths(&t);
        let tm = TrafficMatrix::gravity(&t);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&t, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let caps = NodeCaps { cpu: 2.0e8, mem: 4.0e9 };
        let cfg = NidsLpConfig::homogeneous(dep.num_nodes, caps);
        (dep, cfg)
    }

    #[test]
    fn lp_solves_and_covers() {
        let (dep, cfg) = setup();
        let a = solve_nids_lp(&dep, &cfg).unwrap();
        assert_eq!(a.d.len(), dep.units.len());
        assert_covered(&a, "default");
        assert!(a.gap <= GAP_TOL, "uncertified gap {}", a.gap);
        // Load definition consistency: reported loads equal recomputed.
        let worst = a.cpu_load.iter().chain(&a.mem_load).fold(0.0f64, |m, &x| m.max(x));
        assert!((worst - a.max_load).abs() < 1e-5, "{} vs {}", worst, a.max_load);
    }

    /// `cfg` with the dense inverse forced for every one-piece solve. The
    /// decomposition's masters run on their own sparse backend whatever
    /// the option says, so the tests below run it on `cfg` only.
    fn dense(cfg: &NidsLpConfig) -> NidsLpConfig {
        let mut c = cfg.clone();
        c.solver.dense_row_limit = usize::MAX;
        c
    }

    fn oracle(dep: &NidsDeployment, cfg: &NidsLpConfig) -> NidsAssignment {
        simplex_oracle(dep, cfg, &[], None).unwrap().0
    }

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!((a - b).abs() <= 1e-9 * a.abs().max(b.abs()), "{what}: {a} vs {b}");
    }

    fn assert_covered(a: &NidsAssignment, what: &str) {
        for (u, fr) in a.d.iter().enumerate() {
            let sum: f64 = fr.iter().map(|&(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-6, "{what}: unit {u} covered {sum}");
        }
    }

    /// The `ReloadController` blend: each unit's volume moves halfway
    /// toward its class's uniform share.
    fn blend_toward_uniform(dep: &NidsDeployment) -> NidsDeployment {
        let mut totals = vec![(0.0, 0.0, 0.0); dep.classes.len()];
        for u in &dep.units {
            let t = &mut totals[u.class];
            *t = (t.0 + u.pkts, t.1 + u.items, t.2 + 1.0);
        }
        let mut next = dep.clone();
        for u in &mut next.units {
            let (p, i, n) = totals[u.class];
            u.pkts = 0.5 * u.pkts + 0.5 * p / n;
            u.items = 0.5 * u.items + 0.5 * i / n;
        }
        next
    }

    #[test]
    fn sparse_default_agrees_with_dense_oracle() {
        // The decomposition and the one-piece simplex on both backends
        // reach one optimal value.
        let (dep, cfg) = setup();
        let s = oracle(&dep, &cfg);
        let d = oracle(&dep, &dense(&cfg));
        assert_close(s.max_load, d.max_load, "oracle sparse vs dense");
        let a = solve_nids_lp(&dep, &cfg).unwrap();
        assert_close(a.max_load, s.max_load, "DW vs oracle");
        assert_covered(&a, "DW");
        assert_covered(&s, "oracle sparse");
        assert_covered(&d, "oracle dense");
    }

    #[test]
    fn warm_blended_chain_agrees_across_backends() {
        // Two re-solves over blended volumes: the DW pool chain and the
        // oracle's basis chain (coefficient changes its dual phase
        // repairs), the latter on both simplex backends, reach one optimal
        // value.
        let (dep, cfg) = setup();
        let dw = |cfg: &NidsLpConfig, what: &str| {
            let (cold, mut pool) = solve_nids_lp_warm(&dep, cfg, None).unwrap();
            let mut step = dep.clone();
            let mut loads = Vec::new();
            for k in 0..2 {
                step = blend_toward_uniform(&step);
                let (a, next) = solve_nids_lp_warm(&step, cfg, Some(&pool)).unwrap();
                assert_covered(&a, &format!("{what} step {k}"));
                assert!(a.dw_rounds < cold.dw_rounds, "{what} step {k} fell back cold");
                assert!(a.gap <= GAP_TOL);
                loads.push(a.max_load);
                pool = next;
            }
            loads
        };
        let simplex = |cfg: &NidsLpConfig, what: &str| {
            let (cold, mut basis, _) = simplex_oracle(&dep, cfg, &[], None).unwrap();
            let mut step = dep.clone();
            let mut loads = Vec::new();
            for k in 0..2 {
                step = blend_toward_uniform(&step);
                let (a, b, _) = simplex_oracle(&step, cfg, &[], basis.as_ref()).unwrap();
                assert!(a.lp_iterations < cold.lp_iterations, "{what} step {k} fell back cold");
                loads.push(a.max_load);
                basis = b;
            }
            loads
        };
        let reference = simplex(&cfg, "oracle sparse");
        let runs = [dw(&cfg, "DW"), simplex(&dense(&cfg), "oracle dense")];
        for run in &runs {
            for (k, (r, x)) in reference.iter().zip(run).enumerate() {
                assert_close(*r, *x, &format!("step {k}"));
            }
        }
    }

    #[test]
    fn pool_keeps_only_weighted_columns() {
        let (dep, cfg) = setup();
        let (_, pool) = solve_nids_lp_warm(&dep, &cfg, None).unwrap();
        assert!(!pool.is_empty() && pool.len() <= 2 * dep.num_nodes + 1, "{} columns", pool.len());
        // A pool for another unit list is ignored: a cold start, same optimum.
        let fewer = NidsDeployment { units: dep.units[1..].to_vec(), ..dep.clone() };
        let cold = solve_nids_lp(&fewer, &cfg).unwrap();
        let (warm, _) = solve_nids_lp_warm(&fewer, &cfg, Some(&pool)).unwrap();
        assert_eq!(warm.dw_rounds, cold.dw_rounds, "mismatched pool must be ignored");
        assert_eq!(warm.max_load, cold.max_load);
    }

    /// Units whose coverage is spread over two or more nodes.
    fn split_units(a: &NidsAssignment) -> usize {
        a.d.iter().filter(|fr| fr.iter().filter(|&&(_, f)| f > 0.0 && f < 1.0).count() >= 2).count()
    }

    /// Distinct split placements: split units on the same nodes with the
    /// same fractions count once (the vertex walk moves them together).
    fn split_groups(a: &NidsAssignment) -> usize {
        let mut groups: Vec<Vec<(NodeId, u64)>> = (a.d.iter())
            .filter(|fr| fr.iter().filter(|&&(_, f)| f > 0.0 && f < 1.0).count() >= 2)
            .map(|fr| fr.iter().map(|&(j, f)| (j, f.to_bits())).collect())
            .collect();
        groups.sort();
        groups.dedup();
        groups.len()
    }

    /// `Σ prev·x` over every (unit, node) fraction.
    fn overlap(a: &NidsAssignment, prev: &NidsAssignment) -> f64 {
        let pairs = a.d.iter().zip(&prev.d).flat_map(|(x, p)| x.iter().zip(p));
        pairs.map(|(&(_, x), &(_, p))| x * p).sum()
    }

    #[test]
    fn optimum_is_a_vertex() {
        // At the walk's end at most one placement per load row is split
        // (the simplex oracle's vertex splits 9 of 792 units); the master
        // optimum it starts from splits about 700.
        let (dep, cfg) = setup();
        let a = solve_nids_lp(&dep, &cfg).unwrap();
        let groups = split_groups(&a);
        assert!(groups <= 2 * dep.num_nodes, "{groups} split placements");
        assert!(split_units(&a) < 100, "{} split units", split_units(&a));
        assert_eq!(split_units(&oracle(&dep, &cfg)), 9);
    }

    #[test]
    fn warm_resolve_keeps_most_of_the_previous_point() {
        // Of the many optima after a volume blend, the pool-seeded solve
        // takes one that overlaps the previous optimum at least as much as
        // the cold solve's does, and stays a vertex.
        let (dep, cfg) = setup();
        let (prev, pool) = solve_nids_lp_warm(&dep, &cfg, None).unwrap();
        let next = blend_toward_uniform(&dep);
        let (warm, _) = solve_nids_lp_warm(&next, &cfg, Some(&pool)).unwrap();
        let cold = solve_nids_lp(&next, &cfg).unwrap();
        assert_close(warm.max_load, cold.max_load, "warm vs cold");
        let (kept, cold_kept) = (overlap(&warm, &prev), overlap(&cold, &prev));
        assert!(kept >= cold_kept - 1e-6, "warm keeps {kept}, cold {cold_kept}");
        assert!(kept > cold_kept + 50.0, "warm keeps {kept}, cold {cold_kept}");
        assert!(split_groups(&warm) <= 2 * dep.num_nodes + 1, "{} split", split_groups(&warm));
        // A pool anchored at the previous optimum's fractions keeps as much.
        let shares =
            |u: usize, j: NodeId| prev.d[u].iter().find(|&&(k, _)| k == j).map_or(0.0, |&(_, f)| f);
        let anchored = ColumnPool::anchored(&dep, cfg.redundancy, shares);
        let (a, _) = solve_nids_lp_warm(&next, &cfg, Some(&anchored)).unwrap();
        assert_close(a.max_load, cold.max_load, "anchored vs cold");
        assert!(overlap(&a, &prev) >= cold_kept - 1e-6);
    }

    #[test]
    fn excluded_node_gets_nothing_and_matches_oracle() {
        let (dep, cfg) = setup();
        let failed = NodeId(3);
        let (a, degraded) = solve_nids_lp_excluding(&dep, &cfg, &[failed]).unwrap();
        let (o, _, o_degraded) = simplex_oracle(&dep, &cfg, &[failed], None).unwrap();
        assert_eq!(degraded, o_degraded);
        assert_close(a.max_load, o.max_load, "excluded node 3");
        for (u, fr) in a.d.iter().enumerate() {
            let sum: f64 = fr.iter().map(|&(_, f)| f).sum();
            let want = if degraded.contains(&u) { 0.0 } else { 1.0 };
            assert!((sum - want).abs() < 1e-9, "unit {u} covered {sum}");
            assert!(
                fr.iter().all(|&(j, f)| j != failed || f == 0.0),
                "unit {u} on the failed node"
            );
        }
    }

    #[test]
    fn coordinated_beats_edge_only_max_load() {
        let (dep, cfg) = setup();
        let a = solve_nids_lp(&dep, &cfg).unwrap();
        let (ecpu, emem) = edge_only_loads(&dep, &cfg.caps);
        let edge_max = ecpu.iter().chain(&emem).fold(0.0f64, |m, &x| m.max(x));
        assert!(
            a.max_load < edge_max * 0.8,
            "coordination should cut the max load: {} vs {edge_max}",
            a.max_load
        );
    }

    #[test]
    fn single_node_units_stay_at_their_node() {
        let (dep, cfg) = setup();
        let a = solve_nids_lp(&dep, &cfg).unwrap();
        for (u, unit) in dep.units.iter().enumerate() {
            if unit.nodes.len() == 1 {
                assert_eq!(a.d[u].len(), 1);
                assert!((a.d[u][0].1 - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn heterogeneous_capacity_shifts_load() {
        let (dep, mut cfg) = setup();
        // Give node 0 10x capacity: it should absorb more work than under
        // homogeneous capacities.
        let base = solve_nids_lp(&dep, &cfg).unwrap();
        cfg.caps[0].cpu *= 10.0;
        cfg.caps[0].mem *= 10.0;
        let boosted = solve_nids_lp(&dep, &cfg).unwrap();
        assert!(boosted.max_load <= base.max_load + 1e-9);
    }

    #[test]
    fn redundancy_two_feasible_on_paths() {
        let (dep, mut cfg) = setup();
        // r = 2 requires ≥ 2 eligible nodes per unit; ingress/egress units
        // have only one, so restrict to per-path classes.
        let dep2 = NidsDeployment {
            classes: dep.classes.clone(),
            units: dep.units.iter().filter(|u| u.nodes.len() >= 2).cloned().collect(),
            num_nodes: dep.num_nodes,
        };
        cfg.redundancy = 2.0;
        let a = solve_nids_lp(&dep2, &cfg).unwrap();
        for fr in &a.d {
            let sum: f64 = fr.iter().map(|&(_, f)| f).sum();
            assert!((sum - 2.0).abs() < 1e-6);
            for &(_, f) in fr {
                assert!(f <= 1.0 + 1e-9, "single node over-covers: {f}");
            }
        }
    }

    #[test]
    fn infeasible_redundancy_detected() {
        let (dep, mut cfg) = setup();
        // r = 5 but two-hop paths have only 2 eligible nodes.
        cfg.redundancy = 5.0;
        assert!(matches!(solve_nids_lp(&dep, &cfg), Err(NidsError::Infeasible)));
    }
}
