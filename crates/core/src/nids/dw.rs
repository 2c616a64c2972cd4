//! Dantzig–Wolfe solve of the NIDS LP (Dantzig & Wolfe, "Decomposition
//! principle for linear programs", 1960).
//!
//! Each unit's coverage row and `0 ≤ d ≤ 1` bounds touch only that unit's
//! own variables; only the 2N per-node cpu/mem load rows couple units. So
//! the LP is `min L` over the product of the per-unit polytopes
//! `X_u = {d_u : Σ_j d_uj = r_u, 0 ≤ d_uj ≤ 1}` subject to `load(d) ≤ L`.
//! The vertices of `X_u` put the unit on `r_u` distinct eligible nodes.
//!
//! - **Master.** `L`, one `λ_k` per column, one convexity row and the 2N
//!   load rows `Σ_k λ_k g_k − L ≤ 0`. A column `k` is one whole
//!   assignment (every unit on `r_u` nodes), kept as a flat choice vector
//!   plus its 2N-entry load vector `g_k`.
//! - **Pricing.** At load weights `w ≥ 0` (the master duals), the column
//!   of least `w·g` sends each unit to its `r_u` nodes of least
//!   `w_cpu·cpu + w_mem·mem`, ties to the lower node index. One pass is
//!   O(variables).
//! - **Certificate.** For any `w ≥ 0`, `L ≥ max_i g_i ≥ w·g / Σw` at every
//!   feasible point, so `min_x w·g(x) / Σw` is a Lagrangian lower bound.
//!   The master optimum is a feasible point, an upper bound. A solve
//!   stops once the relative gap between the two is at most [`GAP_TOL`],
//!   and fails rather than return an uncertified point.
//! - **Stabilization.** Each round also prices at `α·c + (1 − α)·w`,
//!   where `c` is the best-bound weight vector so far (Wentges, "Weighted
//!   Dantzig–Wolfe decomposition", ITOR 1997), which damps the dual
//!   oscillation of plain column generation.
//!
//! The master optimum is a convex combination of up to 2N + 1 columns, which
//! splits most units across nodes. Two steps turn it into the point a
//! solve returns; neither changes the max load:
//!
//! - **Overlap** (after an earlier solve only). The LP has many optimal
//!   points; a second column generation picks the one that keeps the most
//!   of the previous solve's point `p`: it maximizes `p·x` over the
//!   columns with every load at most the optimal `L`. Pricing sends each
//!   unit to its nodes of least `w`-cost minus `p`, and
//!   `L·Σw + max_x (p·x − w·g(x))` bounds the overlap from above. A
//!   reload that re-solves after a small volume shift then moves little
//!   hash space.
//! - **Vertex walk** ([`Instance::purify`]). Moving along null
//!   combinations of per-unit transfers leads to a vertex, where at most
//!   2N + 1 groups of units are split, so manifests stay as small as the
//!   one-piece simplex's.
//!
//! Coverage and load rows hold exactly.

use super::lp::{NidsAssignment, NidsError, NidsLpConfig};
use crate::units::NidsDeployment;
use nwdp_lp::{solve_warm, Cmp, Problem, Sense, SolverOpts, Status, WarmStart};
use nwdp_obs as obs;
use nwdp_topo::NodeId;

/// Relative gap between the master optimum and the best Lagrangian bound
/// at which a solve is certified optimal.
pub const GAP_TOL: f64 = 1e-9;

/// Wentges smoothing weight `α` of the best-bound weights.
const SMOOTHING: f64 = 0.7;

/// Smoothing weights of the overlap phase (see [`Instance::closest`]),
/// which prices at each; 0 is the master duals themselves.
const OVERLAP_SMOOTHING: [f64; 4] = [0.0, 0.5, 0.8, 0.95];

/// The overlap phase stops once its master is within this many units of
/// coverage of the overlap bound.
const OVERLAP_TOL: f64 = 0.5;

/// Rounds after which a solve that has not certified its gap fails.
const MAX_ROUNDS: usize = 1000;

/// Master weights below this are rounding noise of the simplex, not
/// columns of the optimum.
const LAMBDA_EPS: f64 = 1e-12;

/// Fractions within this of 0 or 1 count as at the bound.
const BOUND_EPS: f64 = 1e-12;

/// Pivots below this, in a matrix whose columns have unit max-norm, count
/// as zero: the column depends on the earlier ones.
const PIVOT_TOL: f64 = 1e-9;

/// Warm state of the NIDS solve: the columns that carried weight at the
/// last optimum (at most 2N + 1), as per-unit node choices, and the point
/// the solve returned.
///
/// On reuse the columns' loads are recomputed from the new volumes and
/// capacities and seed the master, and the solve returns the optimum
/// that keeps the most of the point. A pool built for other units, other
/// eligible-node lists or another per-unit coverage level is ignored,
/// which is a cold start.
#[derive(Debug, Clone)]
pub struct ColumnPool {
    /// The eligible-node lists and choice-vector slot layout of the solve
    /// that built the pool; a solve reuses it only when its own match.
    nodes: Vec<u32>,
    start: Vec<u32>,
    slots: Vec<u32>,
    columns: Vec<Vec<u16>>,
    /// The solve's optimum, fractions indexed like `nodes`.
    point: Vec<f64>,
}

impl ColumnPool {
    /// A pool with no columns whose point is `share(u, j)` — unit `u`'s
    /// fraction at node `j`, such as a live manifest's hash shares. The
    /// next solve starts cold but keeps as much of that point as the
    /// optimum allows.
    pub fn anchored(
        dep: &NidsDeployment,
        redundancy: f64,
        share: impl Fn(usize, NodeId) -> f64,
    ) -> ColumnPool {
        let targets = vec![redundancy as usize; dep.units.len()];
        let (nodes, start, slots) = layout(dep, &targets);
        let point = dep
            .units
            .iter()
            .enumerate()
            .flat_map(|(u, unit)| unit.nodes.iter().map(move |&j| (u, j)))
            .map(|(u, j)| share(u, j))
            .collect();
        ColumnPool { nodes, start, slots, columns: Vec::new(), point }
    }

    /// Number of columns in the pool.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// Per-unit coverage targets: `r`, or the surviving eligible count for a
/// unit the exclusion leaves below `r` (a *degraded* unit). Returns the
/// targets and the degraded units, or `Infeasible` when an untouched unit
/// has fewer than `r` eligible nodes.
pub(crate) fn coverage_targets(
    dep: &NidsDeployment,
    redundancy: f64,
    excluded: &[NodeId],
) -> Result<(Vec<usize>, Vec<usize>), NidsError> {
    assert!(redundancy >= 1.0, "redundancy below 1 abandons coverage");
    assert!(redundancy.fract() == 0.0, "redundancy counts distinct nodes: {redundancy}");
    let r = redundancy as usize;
    let mut targets = Vec::with_capacity(dep.units.len());
    let mut degraded = Vec::new();
    for (u, unit) in dep.units.iter().enumerate() {
        let survivors = unit.nodes.iter().filter(|j| !excluded.contains(j)).count();
        // A unit touched by the exclusion keeps as much coverage as its
        // survivors allow; untouched units keep the strict `= r` row so
        // genuine infeasibility (r beyond the eligible set) still errors.
        if survivors < unit.nodes.len() && survivors < r {
            degraded.push(u);
            targets.push(survivors);
        } else if unit.nodes.len() < r {
            return Err(NidsError::Infeasible);
        } else {
            targets.push(r);
        }
    }
    Ok((targets, degraded))
}

/// The flat layout of a solve: every unit's eligible node indices, where
/// each unit's start in that list, and where each unit's slots start in
/// a choice vector (one slot per unit of coverage `targets[u]`).
fn layout(dep: &NidsDeployment, targets: &[usize]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let mut slots = Vec::with_capacity(targets.len() + 1);
    let mut start = Vec::with_capacity(targets.len() + 1);
    let mut nodes = Vec::new();
    slots.push(0u32);
    start.push(0u32);
    for (unit, &t) in dep.units.iter().zip(targets) {
        assert!(unit.nodes.len() <= usize::from(u16::MAX), "unit with too many eligible nodes");
        slots.push(slots[slots.len() - 1] + t as u32);
        nodes.extend(unit.nodes.iter().map(|j| j.index() as u32));
        start.push(nodes.len() as u32);
    }
    (nodes, start, slots)
}

/// One master column: a whole assignment and the loads it puts on nodes.
struct Column {
    /// Unit `u` sits on positions `choice[slots[u]..slots[u + 1]]` of
    /// `dep.units[u].nodes`, ascending.
    choice: Vec<u16>,
    /// CPU loads of nodes `0..N`, then memory loads (capacity fractions).
    loads: Vec<f64>,
}

/// The optimum of one master solve.
struct Master {
    objective: f64,
    lambda: Vec<f64>,
    /// Load-row weights `w_i = −π_i ≥ 0`.
    weights: Vec<f64>,
    iterations: usize,
    /// Final basis, with the number of columns it covers.
    basis: Option<(WarmStart, usize)>,
}

/// The decomposed instance: per-unit demands and eligible nodes, per-node
/// inverse capacities and the slot layout of choice vectors.
struct Instance<'a> {
    dep: &'a NidsDeployment,
    excluded: Vec<bool>,
    /// Unit `u`'s eligible node indices are `nodes[start[u]..start[u + 1]]`.
    nodes: Vec<u32>,
    start: Vec<u32>,
    /// Unit `u`'s slots are `slots[u]..slots[u + 1]` of a choice vector.
    slots: Vec<u32>,
    /// [`NidsDeployment::unit_demand`] per unit.
    demand: Vec<(f64, f64)>,
    /// `(1 / cpu, 1 / mem)` per node.
    inv_cap: Vec<(f64, f64)>,
}

impl<'a> Instance<'a> {
    fn new(
        dep: &'a NidsDeployment,
        cfg: &NidsLpConfig,
        excluded: &[NodeId],
        targets: &[usize],
    ) -> Self {
        let (nodes, start, slots) = layout(dep, targets);
        let mut is_excluded = vec![false; dep.num_nodes];
        for j in excluded {
            is_excluded[j.index()] = true;
        }
        Instance {
            dep,
            excluded: is_excluded,
            nodes,
            start,
            slots,
            demand: (0..dep.units.len()).map(|u| dep.unit_demand(u)).collect(),
            inv_cap: cfg.caps.iter().map(|c| (1.0 / c.cpu, 1.0 / c.mem)).collect(),
        }
    }

    fn unit_slots(&self, u: usize) -> std::ops::Range<usize> {
        self.slots[u] as usize..self.slots[u + 1] as usize
    }

    fn unit_nodes(&self, u: usize) -> &[u32] {
        &self.nodes[self.start[u] as usize..self.start[u + 1] as usize]
    }

    /// The column of `choice`, its loads computed from this instance.
    fn column(&self, choice: Vec<u16>) -> Column {
        let n = self.dep.num_nodes;
        let mut loads = vec![0.0; 2 * n];
        for u in 0..self.demand.len() {
            let (cpu, mem) = self.demand[u];
            let nodes = self.unit_nodes(u);
            for &pos in &choice[self.unit_slots(u)] {
                let j = nodes[usize::from(pos)] as usize;
                loads[j] += cpu * self.inv_cap[j].0;
                loads[n + j] += mem * self.inv_cap[j].1;
            }
        }
        Column { choice, loads }
    }

    /// The column of least `w·g − bonus·x` (`x` its choices as
    /// fractions, indexed like `nodes`) and that least value.
    fn price(&self, w: &[f64], bonus: Option<&[f64]>) -> (Column, f64) {
        let n = self.dep.num_nodes;
        let scaled: Vec<(f64, f64)> =
            (0..n).map(|j| (w[j] * self.inv_cap[j].0, w[n + j] * self.inv_cap[j].1)).collect();
        let mut choice = Vec::with_capacity(self.slots[self.demand.len()] as usize);
        let mut value = 0.0;
        // (cost, node, position) of a unit's candidate nodes; lower cost,
        // then lower node index, is cheaper.
        let cheaper = |a: &(f64, u32, u16), b: &(f64, u32, u16)| {
            a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt()
        };
        let mut cand: Vec<(f64, u32, u16)> = Vec::new();
        for u in 0..self.demand.len() {
            let k = self.unit_slots(u).len();
            if k == 0 {
                continue;
            }
            let (cpu, mem) = self.demand[u];
            let base = self.start[u] as usize;
            let candidates = self.unit_nodes(u).iter().enumerate().filter_map(|(pos, &j)| {
                let (wc, wm) = scaled[j as usize];
                let cost = cpu * wc + mem * wm - bonus.map_or(0.0, |b| b[base + pos]);
                (!self.excluded[j as usize]).then_some((cost, j, pos as u16))
            });
            if k == 1 {
                let best = candidates.reduce(|a, b| if cheaper(&b, &a) { b } else { a });
                if let Some((c, _, pos)) = best {
                    value += c;
                    choice.push(pos);
                }
            } else {
                cand.clear();
                cand.extend(candidates);
                cand.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let first = choice.len();
                for &(c, _, pos) in &cand[..k] {
                    value += c;
                    choice.push(pos);
                }
                choice[first..].sort_unstable();
            }
        }
        (self.column(choice), value)
    }

    /// Solve the restricted master over `cols`, from the basis of an
    /// earlier master over a prefix of them when there is one.
    ///
    /// Without `overlap` the master minimizes the max load `L`. With
    /// `overlap = (scores, level)` it maximizes `Σ_k score_k λ_k` with
    /// every load at most `level`, and its objective is that maximum.
    fn master(
        &self,
        cols: &[Column],
        opts: &SolverOpts,
        prev: Option<&(WarmStart, usize)>,
        overlap: Option<(&[f64], f64)>,
    ) -> Result<Master, NidsError> {
        let rows = 2 * self.dep.num_nodes;
        let mut p = Problem::new(Sense::Min);
        let load = overlap.is_none().then(|| p.add_var("L", 0.0, f64::INFINITY, 1.0));
        let score = |k: usize| overlap.map_or(0.0, |(s, _)| -s[k]);
        let lambda: Vec<_> = (0..cols.len())
            .map(|k| p.add_var(format!("lambda_{k}"), 0.0, f64::INFINITY, score(k)))
            .collect();
        let rhs = overlap.map_or(0.0, |(_, level)| level);
        let mut terms = Vec::with_capacity(cols.len() + 1);
        for i in 0..rows {
            terms.clear();
            terms.extend(cols.iter().zip(&lambda).map(|(c, &v)| (v, c.loads[i])));
            terms.extend(load.map(|l| (l, -1.0)));
            p.add_con(format!("load_{i}"), &terms, Cmp::Le, rhs);
        }
        let convex: Vec<_> = lambda.iter().map(|&v| (v, 1.0)).collect();
        p.add_con("convexity", &convex, Cmp::Eq, 1.0);
        let warm = prev.map(|(basis, k)| basis.with_new_columns(cols.len() - k));
        let (sol, basis) = solve_warm(&p, opts, warm.as_ref());
        if sol.status != Status::Optimal {
            return Err(NidsError::SolverFailed);
        }
        Ok(Master {
            objective: if overlap.is_some() { -sol.objective } else { sol.objective },
            lambda: lambda.iter().map(|&v| sol.value(v)).collect(),
            weights: sol.duals[..rows].iter().map(|&pi| (-pi).max(0.0)).collect(),
            iterations: sol.iterations,
            basis: basis.map(|b| (b, cols.len())),
        })
    }

    /// The fractions (indexed like `nodes`) of the combination `lambda` of
    /// `cols`; weights up to [`LAMBDA_EPS`] are dropped and the rest
    /// normalized.
    fn point(&self, cols: &[Column], lambda: &[f64]) -> Vec<f64> {
        let kept = || cols.iter().zip(lambda).filter(|(_, &l)| l > LAMBDA_EPS);
        let total: f64 = kept().map(|(_, l)| l).sum();
        let mut x = vec![0.0; self.nodes.len()];
        for (col, &l) in kept() {
            for u in 0..self.demand.len() {
                let base = self.start[u] as usize;
                for &pos in &col.choice[self.unit_slots(u)] {
                    x[base + usize::from(pos)] += l / total;
                }
            }
        }
        x
    }

    /// Of the points with every load at most `level`, one that keeps the
    /// most of `prev` (fractions indexed like `nodes`): it maximizes
    /// `prev·x` by column generation from `cols`, whose combination at
    /// the max-load optimum is feasible. Pricing counts `prev` as a bonus
    /// per choice; `level·Σw + max_x (prev·x − w·g(x))` bounds the overlap
    /// from above, and the loop ends once the master is within
    /// [`GAP_TOL`] of it, pricing repeats a column, or after
    /// [`MAX_ROUNDS`]. Returns the point and the master pivots, or `None`
    /// when a master solve fails.
    fn closest(
        &self,
        mut cols: Vec<Column>,
        prev: &[f64],
        level: f64,
        opts: &SolverOpts,
    ) -> Option<(Vec<f64>, usize)> {
        let overlap = |c: &Column| -> f64 {
            (0..self.demand.len())
                .map(|u| {
                    let base = self.start[u] as usize;
                    c.choice[self.unit_slots(u)]
                        .iter()
                        .map(|&p| prev[base + usize::from(p)])
                        .sum::<f64>()
                })
                .sum()
        };
        let mut scores: Vec<f64> = cols.iter().map(overlap).collect();
        // This master has only 2N + 1 rows, where the dense inverse is the
        // cheaper backend.
        let opts = SolverOpts { dense_row_limit: usize::MAX, ..opts.clone() };
        let mut basis = None;
        let mut iterations = 0;
        let mut round = 0;
        // Least upper bound so far and the weights that gave it.
        let mut best = f64::INFINITY;
        let mut center: Vec<f64> = Vec::new();
        loop {
            round += 1;
            let mut m = self.master(&cols, &opts, basis.as_ref(), Some((&scores, level))).ok()?;
            basis = m.basis.take();
            iterations += m.iterations;
            let mut priced = Vec::with_capacity(OVERLAP_SMOOTHING.len());
            for alpha in OVERLAP_SMOOTHING {
                // Before the first bound there is no center to smooth to.
                if alpha > 0.0 && center.is_empty() {
                    continue;
                }
                let mix = |(c, w): (&f64, &f64)| alpha * c + (1.0 - alpha) * w;
                let w: Vec<f64> = if alpha > 0.0 {
                    center.iter().zip(&m.weights).map(mix).collect()
                } else {
                    m.weights.clone()
                };
                let (col, value) = self.price(&w, Some(prev));
                let upper = level * w.iter().sum::<f64>() - value;
                if upper < best {
                    best = upper;
                    center = w;
                }
                priced.push(col);
            }
            let before = cols.len();
            if best - m.objective > OVERLAP_TOL && round < MAX_ROUNDS {
                for col in priced {
                    if !cols.iter().any(|c| c.choice == col.choice) {
                        scores.push(overlap(&col));
                        cols.push(col);
                    }
                }
            }
            if cols.len() == before {
                return Some((self.point(&cols, &m.lambda), iterations));
            }
        }
    }

    /// The node of flat position `p` (an index into `nodes`) and the cpu
    /// and memory load that all of unit `u` puts on it.
    fn load_rows(&self, u: usize, p: usize) -> (usize, f64, f64) {
        let j = self.nodes[p] as usize;
        let (cpu, mem) = self.demand[u];
        (j, cpu * self.inv_cap[j].0, mem * self.inv_cap[j].1)
    }

    /// Move the optimum `x` (fractions indexed like `nodes`, every load at
    /// most `level`) to a vertex of the optimal face, keeping `bonus·x`
    /// when a bonus is given.
    ///
    /// Shifting `t` of a unit from one of its nodes to another keeps the
    /// unit's coverage and changes the loads of those two nodes only. Any
    /// `R + 1` such *transfers* that touch `R` tight rows (load rows at
    /// `level`, and `bonus·x`) are linearly dependent there, and moving
    /// along their null combination keeps every tight row until a
    /// fraction reaches 0 or 1 or a slack row becomes tight. Each step
    /// fixes a fraction or tightens a row, so the walk ends within
    /// `x.len() + 2N` steps, at a point whose transfers are independent on
    /// the tight rows: a vertex, where at most 2N + 1 units are split.
    ///
    /// Units on the same eligible nodes with the same fractions (the
    /// classes of one path that every column places alike) move as one
    /// bundle, so a path's classes stay on the same nodes and a session
    /// meets as few analyzing nodes as the starting point had. Each step
    /// goes the way that raises the starting point's larger fractions;
    /// bundles are taken in a fixed order, so the walk is deterministic.
    fn purify(&self, x: &mut [f64], level: f64, bonus: Option<&[f64]>) {
        let n = self.dep.num_nodes;
        x.iter_mut().for_each(snap);
        let mut g = vec![0.0; 2 * n];
        for u in 0..self.demand.len() {
            for p in self.span(u) {
                let (j, cpu, mem) = self.load_rows(u, p);
                g[j] += x[p] * cpu;
                g[n + j] += x[p] * mem;
            }
        }
        let fractions = |u: usize| &x[self.span(u)];
        let mut split: Vec<usize> = (0..self.demand.len())
            .filter(|&u| fractions(u).iter().filter(|&&v| v > 0.0 && v < 1.0).count() >= 2)
            .collect();
        let same =
            |a: &[f64], b: &[f64]| a.iter().map(|v| v.to_bits()).eq(b.iter().map(|v| v.to_bits()));
        split.sort_by(|&a, &b| {
            let bits = |u: usize| fractions(u).iter().map(|v| v.to_bits());
            (self.unit_nodes(a).cmp(self.unit_nodes(b)))
                .then_with(|| bits(a).cmp(bits(b)))
                .then(a.cmp(&b))
        });
        let bundles: Vec<Bundle> = split
            .chunk_by(|&a, &b| {
                self.unit_nodes(a) == self.unit_nodes(b) && same(fractions(a), fractions(b))
            })
            .map(|members| Bundle {
                members: members.to_vec(),
                cpu: members.iter().map(|&u| self.demand[u].0).sum(),
                mem: members.iter().map(|&u| self.demand[u].1).sum(),
            })
            .collect();
        let mut order: Vec<usize> = (0..bundles.len()).collect();
        let steps = x.len() + 2 * n + 1;
        let mut walk = Walk {
            inst: self,
            start: x.to_vec(),
            x,
            g,
            level,
            tight_at: level * (1.0 - GAP_TOL),
            bonus,
            bundles,
            steps,
            frac: Vec::new(),
            dirs: Vec::new(),
            rows: Vec::new(),
            row_of: vec![usize::MAX; 2 * n + 1],
            m: Vec::new(),
            delta: vec![0.0; self.nodes.len()],
            touched: Vec::new(),
            dg: vec![0.0; 2 * n],
        };
        walk.settle(&mut order);
    }

    /// Unit `u`'s flat positions (indices into `nodes`).
    fn span(&self, u: usize) -> std::ops::Range<usize> {
        self.start[u] as usize..self.start[u + 1] as usize
    }
}

/// Snap a fraction within [`BOUND_EPS`] of 0 or 1 to the bound.
fn snap(v: &mut f64) {
    if *v <= BOUND_EPS {
        *v = 0.0;
    } else if *v >= 1.0 - BOUND_EPS {
        *v = 1.0;
    }
}

/// Split units on the same eligible nodes with the same fractions, which
/// the walk of [`Instance::purify`] moves together, and their summed
/// demand.
struct Bundle {
    members: Vec<usize>,
    cpu: f64,
    mem: f64,
}

/// The walk of [`Instance::purify`]: the point, its loads and scratch.
struct Walk<'a> {
    inst: &'a Instance<'a>,
    x: &'a mut [f64],
    /// The point the walk started from.
    start: Vec<f64>,
    /// Loads of `x`: cpu rows `0..N`, then memory rows.
    g: Vec<f64>,
    level: f64,
    /// Rows loaded at least this much are tight.
    tight_at: f64,
    /// Weights of a linear objective `bonus·x` the walk keeps constant,
    /// as one more tight row (index 2N).
    bonus: Option<&'a [f64]>,
    bundles: Vec<Bundle>,
    /// Steps left before the walk stops wherever it is.
    steps: usize,
    /// A bundle's fractional offsets in its eligible-node list.
    frac: Vec<usize>,
    /// Transfers `(bundle, from, to)` of one step, offsets as in `frac`,
    /// the tight rows they touch, and each row's index among those
    /// (`usize::MAX` if none).
    dirs: Vec<(usize, usize, usize)>,
    rows: Vec<usize>,
    row_of: Vec<usize>,
    /// The transfers' effects on `rows`, row-major.
    m: Vec<f64>,
    /// The step, at each bundle's first member's positions; the
    /// `(bundle, offset)`s it moves; its load change.
    delta: Vec<f64>,
    touched: Vec<(usize, usize)>,
    dg: Vec<f64>,
}

impl Walk<'_> {
    /// Collect bundle `k`'s fractional offsets in `frac`; their count.
    fn fractional(&mut self, k: usize) -> usize {
        let span = self.inst.span(self.bundles[k].members[0]);
        let x = &self.x[span];
        self.frac.clear();
        self.frac.extend((0..x.len()).filter(|&i| x[i] > 0.0 && x[i] < 1.0));
        self.frac.len()
    }

    /// Position of bundle `k`'s offset `off` in its first member.
    fn pos(&self, k: usize, off: usize) -> usize {
        self.inst.start[self.bundles[k].members[0]] as usize + off
    }

    /// Node of bundle `k`'s offset `off`, and the bundle's whole cpu and
    /// memory load there.
    fn load_rows(&self, k: usize, off: usize) -> (usize, f64, f64) {
        let j = self.inst.nodes[self.pos(k, off)] as usize;
        let (cpu, mem) = self.inst.inv_cap[j];
        (j, self.bundles[k].cpu * cpu, self.bundles[k].mem * mem)
    }

    /// `Σ w·x` weights of bundle `k`'s offset `off` over its members.
    fn weight(&self, w: &[f64], k: usize, off: usize) -> f64 {
        let members = &self.bundles[k].members;
        members.iter().map(|&u| w[self.inst.start[u] as usize + off]).sum()
    }

    /// Step until the transfers of the split bundles in `list` are
    /// independent on the tight rows. Whole bundles collect at the front;
    /// returns where the still-split ones start.
    fn settle(&mut self, list: &mut [usize]) -> usize {
        let mut head = 0;
        while self.steps > 0 {
            self.steps -= 1;
            let scanned = self.gather(&list[head..]);
            if !self.step() {
                break;
            }
            // Keep the window's still-split bundles, in order, at its end.
            let window = head..head + scanned;
            let mut keep = window.end;
            for i in window.rev() {
                if self.fractional(list[i]) >= 2 {
                    keep -= 1;
                    list[keep] = list[i];
                }
            }
            head = keep;
        }
        head
    }

    /// Gather the transfers of the front bundles of `list` until they
    /// outnumber the tight rows they touch, which makes them dependent,
    /// or the list ends. Returns how many bundles it read.
    fn gather(&mut self, list: &[usize]) -> usize {
        let n = self.inst.dep.num_nodes;
        self.dirs.clear();
        for &r in &self.rows {
            self.row_of[r] = usize::MAX;
        }
        self.rows.clear();
        for (i, &k) in list.iter().enumerate() {
            if self.fractional(k) < 2 {
                continue;
            }
            let from = self.frac[0];
            for t in 1..self.frac.len() {
                let to = self.frac[t];
                self.dirs.push((k, from, to));
                let (a, _, _) = self.load_rows(k, from);
                let (b, _, _) = self.load_rows(k, to);
                let moves_bonus =
                    self.bonus.is_some_and(|w| self.weight(w, k, from) != self.weight(w, k, to));
                for r in [a, n + a, b, n + b, 2 * n] {
                    let tight = if r == 2 * n { moves_bonus } else { self.g[r] >= self.tight_at };
                    if tight && self.row_of[r] == usize::MAX {
                        self.row_of[r] = self.rows.len();
                        self.rows.push(r);
                    }
                }
                if self.dirs.len() > self.rows.len() {
                    return i + 1;
                }
            }
        }
        list.len()
    }

    /// Move along a null combination of the gathered transfers as far as
    /// the bounds and slack rows allow; false when they are independent.
    fn step(&mut self) -> bool {
        let n = self.inst.dep.num_nodes;
        // Effects on the touched tight rows, each column scaled to unit
        // max-norm.
        let (nr, nc) = (self.rows.len(), self.dirs.len());
        let mut m = std::mem::take(&mut self.m);
        m.clear();
        m.resize(nr * nc, 0.0);
        let mut scale = vec![1.0; nc];
        for (c, &(k, a, b)) in self.dirs.iter().enumerate() {
            for (off, sign) in [(a, -1.0), (b, 1.0)] {
                let (j, cpu, mem) = self.load_rows(k, off);
                let bonus = self.bonus.map_or(0.0, |w| self.weight(w, k, off));
                for (r, e) in [(j, cpu), (n + j, mem), (2 * n, bonus)] {
                    if self.row_of[r] != usize::MAX {
                        m[self.row_of[r] * nc + c] += sign * e;
                    }
                }
            }
            let norm = (0..nr).map(|r| m[r * nc + c].abs()).fold(0.0, f64::max);
            if norm > 0.0 {
                scale[c] = norm;
                (0..nr).for_each(|r| m[r * nc + c] /= norm);
            }
        }
        let y = null_vector(&mut m, nr, nc);
        self.m = m;
        let Some(y) = y else { return false };

        self.touched.clear();
        for c in 0..nc {
            let (k, a, b) = self.dirs[c];
            let t = y[c] / scale[c];
            // A bundle's transfers share their `from` offset.
            if c == 0 || self.dirs[c - 1].0 != k {
                self.touched.push((k, a));
            }
            self.touched.push((k, b));
            let (pa, pb) = (self.pos(k, a), self.pos(k, b));
            self.delta[pa] -= t;
            self.delta[pb] += t;
        }
        // Go the way that raises the starting point's larger fractions.
        let pull: f64 = (self.touched.iter())
            .map(|&(k, off)| self.weight(&self.start, k, off) * self.delta[self.pos(k, off)])
            .sum();
        self.dg.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..self.touched.len() {
            let (k, off) = self.touched[i];
            let p = self.pos(k, off);
            if pull < 0.0 {
                self.delta[p] = -self.delta[p];
            }
            let (j, cpu, mem) = self.load_rows(k, off);
            self.dg[j] += self.delta[p] * cpu;
            self.dg[n + j] += self.delta[p] * mem;
        }
        // Longest step that keeps fractions in [0, 1] and slack rows at
        // most `level`.
        let mut theta = f64::INFINITY;
        for &(k, off) in &self.touched {
            let p = self.pos(k, off);
            let (xp, dp) = (self.x[p], self.delta[p]);
            if dp > 0.0 {
                theta = theta.min((1.0 - xp) / dp);
            } else if dp < 0.0 {
                theta = theta.min(xp / -dp);
            }
        }
        for (&gr, &dr) in self.g.iter().zip(&self.dg) {
            if gr < self.tight_at && dr > 0.0 {
                theta = theta.min((self.level - gr) / dr);
            }
        }
        for &(k, off) in &self.touched {
            let p = self.pos(k, off);
            let d = theta * self.delta[p];
            self.delta[p] = 0.0;
            for &u in &self.bundles[k].members {
                let q = self.inst.start[u] as usize + off;
                self.x[q] += d;
                snap(&mut self.x[q]);
            }
        }
        for (gr, dr) in self.g.iter_mut().zip(&self.dg) {
            *gr += theta * dr;
        }
        true
    }
}

/// A nonzero `y` with `M y = 0` for the row-major `nr × nc` matrix `m`
/// (reduced in place), or `None` when its columns are independent.
fn null_vector(m: &mut [f64], nr: usize, nc: usize) -> Option<Vec<f64>> {
    let mut pivots = Vec::with_capacity(nr.min(nc));
    let mut free = None;
    for c in 0..nc {
        let r = pivots.len();
        let best = (r..nr).max_by(|&a, &b| m[a * nc + c].abs().total_cmp(&m[b * nc + c].abs()));
        let Some(best) = best.filter(|&i| m[i * nc + c].abs() > PIVOT_TOL) else {
            free = Some(c);
            break;
        };
        for k in c..nc {
            m.swap(r * nc + k, best * nc + k);
        }
        let inv = 1.0 / m[r * nc + c];
        for k in c..nc {
            m[r * nc + k] *= inv;
        }
        for i in (0..nr).filter(|&i| i != r) {
            let f = m[i * nc + c];
            if f != 0.0 {
                for k in c..nc {
                    m[i * nc + k] -= f * m[r * nc + k];
                }
            }
        }
        pivots.push(c);
    }
    let free = free?;
    let mut y = vec![0.0; nc];
    y[free] = 1.0;
    for (i, &c) in pivots.iter().enumerate() {
        y[c] = -m[i * nc + free];
    }
    Some(y)
}

/// The Lagrangian lower bound `w·g / Σw` on the max load, from the least
/// `w·g` over all assignments.
fn lagrangian_bound(value: f64, w: &[f64]) -> f64 {
    let total: f64 = w.iter().sum();
    if total > 0.0 {
        value / total
    } else {
        0.0
    }
}

/// Relative gap between an upper and a lower bound on a nonnegative
/// optimum.
fn relative_gap(upper: f64, lower: f64) -> f64 {
    if upper > 0.0 {
        ((upper - lower) / upper).max(0.0)
    } else {
        0.0
    }
}

/// [`solve_nids_lp`](super::lp::solve_nids_lp) with a set of
/// **excluded** (failed) nodes, solved cold.
///
/// The failure repair slow path re-optimizes on the surviving node set:
/// no column puts a unit on an excluded node. A unit whose surviving
/// eligible set is too small for redundancy `r` has its coverage relaxed
/// to the surviving count (down to 0 for fully orphaned units) instead of
/// going infeasible.
///
/// Returns the assignment and the indices of *degraded* units — those
/// whose coverage was relaxed below `r` and which the caller must account
/// as (partially) uncovered.
pub fn solve_nids_lp_excluding(
    dep: &NidsDeployment,
    cfg: &NidsLpConfig,
    excluded: &[NodeId],
) -> Result<(NidsAssignment, Vec<usize>), NidsError> {
    solve(dep, cfg, excluded, None).map(|(a, _, degraded)| (a, degraded))
}

/// The decomposition proper: the assignment, its column pool and the
/// degraded units. A `pool` whose layout matches this solve's seeds the
/// master, and its point is the one the overlap phase keeps; any other
/// pool is ignored, a cold start.
pub(super) fn solve(
    dep: &NidsDeployment,
    cfg: &NidsLpConfig,
    excluded: &[NodeId],
    pool: Option<&ColumnPool>,
) -> Result<(NidsAssignment, ColumnPool, Vec<usize>), NidsError> {
    assert_eq!(cfg.caps.len(), dep.num_nodes, "capacity vector size mismatch");
    let (targets, degraded) = coverage_targets(dep, cfg.redundancy, excluded)?;
    let inst = Instance::new(dep, cfg, excluded, &targets);
    let rows = 2 * dep.num_nodes;

    let same_shape =
        |p: &&ColumnPool| p.slots == inst.slots && p.start == inst.start && p.nodes == inst.nodes;
    let pool = pool.filter(same_shape);
    let mut cols: Vec<Column> = pool
        .map(|p| p.columns.iter().map(|c| inst.column(c.clone())).collect())
        .unwrap_or_default();
    // Best Lagrangian bound so far and the weights that gave it.
    let mut best = f64::NEG_INFINITY;
    let mut center = Vec::new();
    if cols.is_empty() {
        let uniform = vec![1.0 / rows.max(1) as f64; rows];
        let (col, value) = inst.price(&uniform, None);
        cols.push(col);
        best = lagrangian_bound(value, &uniform);
        center = uniform;
    }

    let mut rounds = 0;
    let mut iterations = 0;
    let mut basis = None;
    let (master, gap) = loop {
        rounds += 1;
        let mut master = inst.master(&cols, &cfg.solver, basis.as_ref(), None)?;
        basis = master.basis.take();
        iterations += master.iterations;
        // Price at the master duals, then at their Wentges-smoothed copy
        // around the weights of the best bound so far.
        let mut priced = Vec::with_capacity(2);
        for smooth in [false, true] {
            let w: Vec<f64> = if smooth {
                let mix = |(c, w): (&f64, &f64)| SMOOTHING * c + (1.0 - SMOOTHING) * w;
                center.iter().zip(&master.weights).map(mix).collect()
            } else {
                master.weights.clone()
            };
            let (col, value) = inst.price(&w, None);
            let bound = lagrangian_bound(value, &w);
            if bound > best {
                best = bound;
                center = w;
            }
            priced.push(col);
        }
        let gap = relative_gap(master.objective, best);
        if gap <= GAP_TOL {
            break (master, gap);
        }
        let before = cols.len();
        for col in priced {
            if !cols.iter().any(|c| c.choice == col.choice) {
                cols.push(col);
            }
        }
        // No new column means pricing cannot improve the master, yet the
        // bounds disagree: numerical trouble, not an optimum.
        if cols.len() == before || rounds >= MAX_ROUNDS {
            return Err(NidsError::SolverFailed);
        }
    };
    if obs::enabled() {
        let s = obs::Scope::new("nids");
        s.counter("dw_rounds").add(rounds as u64);
        s.gauge("gap").set_max(gap);
    }

    let columns: Vec<Vec<u16>> = cols
        .iter()
        .zip(&master.lambda)
        .filter(|(_, &l)| l > LAMBDA_EPS)
        .map(|(c, _)| c.choice.clone())
        .collect();
    let mut x = inst.point(&cols, &master.lambda);
    // Many points reach the optimal max load; after an earlier solve,
    // take the one that keeps the most of its point.
    let previous = pool.map(|p| p.point.as_slice());
    if let Some(prev) = previous {
        if let Some((y, pivots)) = inst.closest(cols, prev, master.objective, &cfg.solver) {
            x = y;
            iterations += pivots;
        }
    }
    inst.purify(&mut x, master.objective, previous);
    let d: Vec<Vec<(NodeId, f64)>> = dep
        .units
        .iter()
        .enumerate()
        .map(|(u, unit)| {
            let base = inst.start[u] as usize;
            unit.nodes.iter().enumerate().map(|(pos, &j)| (j, x[base + pos])).collect()
        })
        .collect();
    let (cpu_load, mem_load) = super::lp::loads_from_assignment(dep, &cfg.caps, &d);
    let assignment = NidsAssignment {
        d,
        max_load: master.objective,
        cpu_load,
        mem_load,
        lp_iterations: iterations,
        dw_rounds: rounds,
        gap,
    };
    let pool =
        ColumnPool { nodes: inst.nodes, start: inst.start, slots: inst.slots, columns, point: x };
    Ok((assignment, pool, degraded))
}
