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
    /// be analyzed by `r` distinct nodes. Default 1.
    pub redundancy: f64,
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
    /// Solver failure (iteration limit / numerical trouble).
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
    /// eligible-node order (fractions sum to the redundancy level).
    pub d: Vec<Vec<(NodeId, f64)>>,
    /// Optimal `max(CpuLoad, MemLoad)` (fraction of capacity).
    pub max_load: f64,
    pub cpu_load: Vec<f64>,
    pub mem_load: Vec<f64>,
    pub lp_iterations: usize,
}

/// Solve the NIDS deployment LP.
pub fn solve_nids_lp(
    dep: &NidsDeployment,
    cfg: &NidsLpConfig,
) -> Result<NidsAssignment, NidsError> {
    solve_nids_lp_warm(dep, cfg, None).map(|(a, _)| a)
}

/// [`solve_nids_lp`] with an optional warm-start basis, returning the
/// final basis for the next solve. What-if sweeps (capacity upgrades,
/// redundancy scans) change only LP coefficients, not the problem shape,
/// so chaining the returned snapshot re-solves in a handful of iterations.
/// Coefficient changes that push the old basis out of primal feasibility
/// (a capacity rescale does) are repaired by the simplex dual phase
/// rather than falling back to a cold solve.
pub fn solve_nids_lp_warm(
    dep: &NidsDeployment,
    cfg: &NidsLpConfig,
    warm: Option<&WarmStart>,
) -> Result<(NidsAssignment, Option<WarmStart>), NidsError> {
    solve_nids_lp_excluding(dep, cfg, &[], warm).map(|(a, w, degraded)| {
        debug_assert!(degraded.is_empty(), "no exclusions, no degraded units");
        (a, w)
    })
}

/// [`solve_nids_lp_warm`] with a set of **excluded** (failed) nodes.
///
/// The failure repair slow path re-optimizes on the surviving node set.
/// Rather than rebuilding a structurally smaller LP — which would
/// invalidate the pre-failure warm basis (the simplex warm-start gate
/// requires an identical variable count) — the full-shape LP is kept and
/// failures are expressed as *data*: excluded nodes' `d` variables are
/// clamped to `[0, 0]`, and a unit whose surviving eligible set is too
/// small for redundancy `r` has its coverage right-hand side relaxed to
/// the surviving count (down to 0 for fully orphaned units) instead of
/// going infeasible. The problem shape is therefore identical across
/// *every* failure what-if on the same deployment, so one basis chains
/// through a whole `N × failure` sweep.
///
/// Returns the assignment, the final basis, and the indices of *degraded*
/// units — those whose coverage RHS was relaxed below `r` and which the
/// caller must account as (partially) uncovered.
pub fn solve_nids_lp_excluding(
    dep: &NidsDeployment,
    cfg: &NidsLpConfig,
    excluded: &[NodeId],
    warm: Option<&WarmStart>,
) -> Result<(NidsAssignment, Option<WarmStart>, Vec<usize>), NidsError> {
    assert_eq!(cfg.caps.len(), dep.num_nodes, "capacity vector size mismatch");
    assert!(cfg.redundancy >= 1.0, "redundancy below 1 abandons coverage");
    let is_excluded = |j: NodeId| excluded.contains(&j);

    let mut p = Problem::new(Sense::Min);
    let load = p.add_var("L", 0.0, f64::INFINITY, 1.0);

    // d variables, coverage rows, and per-node load terms.
    let mut dvars: Vec<Vec<VarId>> = Vec::with_capacity(dep.units.len());
    let mut cpu_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); dep.num_nodes];
    let mut mem_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); dep.num_nodes];
    let mut degraded: Vec<usize> = Vec::new();
    for (u, unit) in dep.units.iter().enumerate() {
        let class = &dep.classes[unit.class];
        let mut vars = Vec::with_capacity(unit.nodes.len());
        for &j in &unit.nodes {
            let hi = if is_excluded(j) { 0.0 } else { 1.0 };
            let v = p.add_var(format!("d_{u}_{}", j.index()), 0.0, hi, 0.0);
            cpu_terms[j.index()].push((v, class.cpu_per_pkt * unit.pkts / cfg.caps[j.index()].cpu));
            mem_terms[j.index()]
                .push((v, class.mem_per_item * unit.items / cfg.caps[j.index()].mem));
            vars.push(v);
        }
        // A unit touched by the exclusion keeps as much coverage as its
        // survivors allow; untouched units keep the strict `= r` row so
        // genuine infeasibility (r beyond the eligible set) still errors.
        let survivors = unit.nodes.iter().filter(|&&j| !is_excluded(j)).count() as f64;
        let rhs = if survivors < (unit.nodes.len() as f64) && survivors < cfg.redundancy {
            degraded.push(u);
            survivors
        } else {
            cfg.redundancy
        };
        let cover: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        p.add_con(format!("cover_{u}"), &cover, Cmp::Eq, rhs);
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

    let mut d = Vec::with_capacity(dep.units.len());
    for (u, unit) in dep.units.iter().enumerate() {
        let fr: Vec<(NodeId, f64)> = unit
            .nodes
            .iter()
            .zip(&dvars[u])
            .map(|(&j, &v)| (j, sol.value(v).clamp(0.0, 1.0)))
            .collect();
        d.push(fr);
    }
    let (cpu_load, mem_load) = loads_from_assignment(dep, &cfg.caps, &d);
    let assignment = NidsAssignment {
        d,
        max_load: sol.objective,
        cpu_load,
        mem_load,
        lp_iterations: sol.iterations,
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
    for (u, unit) in dep.units.iter().enumerate() {
        let class = &dep.classes[unit.class];
        for &(j, f) in &d[u] {
            cpu[j.index()] += class.cpu_per_pkt * unit.pkts * f / caps[j.index()].cpu;
            mem[j.index()] += class.mem_per_item * unit.items * f / caps[j.index()].mem;
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
        // Load definition consistency: reported loads equal recomputed.
        let worst = a.cpu_load.iter().chain(&a.mem_load).fold(0.0f64, |m, &x| m.max(x));
        assert!((worst - a.max_load).abs() < 1e-5, "{} vs {}", worst, a.max_load);
    }

    /// `cfg` with the dense inverse forced for every solve.
    fn dense(cfg: &NidsLpConfig) -> NidsLpConfig {
        let mut c = cfg.clone();
        c.solver.dense_row_limit = usize::MAX;
        c
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
        let (dep, cfg) = setup();
        let s = solve_nids_lp(&dep, &cfg).unwrap();
        let d = solve_nids_lp(&dep, &dense(&cfg)).unwrap();
        assert!((s.max_load - d.max_load).abs() < 1e-9, "{} vs {}", s.max_load, d.max_load);
        assert_covered(&s, "sparse");
        assert_covered(&d, "dense");
    }

    #[test]
    fn warm_blended_chain_agrees_across_backends() {
        // Two warm re-solves over blended volumes: coefficient changes that
        // the dual phase repairs, on both backends.
        let (dep, cfg) = setup();
        let chain = |cfg: &NidsLpConfig, what: &str| {
            let (cold, mut basis) = solve_nids_lp_warm(&dep, cfg, None).unwrap();
            let mut step = dep.clone();
            let mut loads = Vec::new();
            for k in 0..2 {
                step = blend_toward_uniform(&step);
                let (a, b) = solve_nids_lp_warm(&step, cfg, basis.as_ref()).unwrap();
                assert_covered(&a, &format!("{what} step {k}"));
                assert!(a.lp_iterations < cold.lp_iterations, "{what} step {k} fell back cold");
                loads.push(a.max_load);
                basis = b;
            }
            loads
        };
        let s = chain(&cfg, "sparse");
        let d = chain(&dense(&cfg), "dense");
        for (k, (s, d)) in s.iter().zip(&d).enumerate() {
            assert!((s - d).abs() < 1e-9, "step {k}: {s} vs {d}");
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
