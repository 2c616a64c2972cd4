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
use nwdp_lp::{Cmp, RestrictedMaster, SolverOpts, Status};
use nwdp_obs as obs;
use nwdp_topo::NodeId;
use std::time::Instant;

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
#[derive(Clone, Default)]
struct Column {
    /// Unit `u` sits on positions `choice[slots[u]..slots[u + 1]]` of
    /// `dep.units[u].nodes`, ascending.
    choice: Vec<u16>,
    /// [`choice_hash`] of `choice`, which screens the duplicate check.
    hash: u64,
    /// CPU loads of nodes `0..N`, then memory loads (capacity fractions).
    loads: Vec<f64>,
}

/// An integer that orders like [`f64::total_cmp`].
fn order_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// FNV-1a over a choice vector.
fn choice_hash(choice: &[u16]) -> u64 {
    choice
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &p| (h ^ u64::from(p)).wrapping_mul(0x100_0000_01b3))
}

/// Whether `cols` holds a column with the choices of `col`.
fn contains(cols: &[Column], col: &Column) -> bool {
    cols.iter().any(|c| c.hash == col.hash && c.choice == col.choice)
}

/// The rows of a master: the 2N load rows, each `≤ rhs`, then the
/// convexity row.
fn master_rows(loads: usize, rhs: f64) -> Vec<(Cmp, f64)> {
    let mut rows = vec![(Cmp::Le, rhs); loads];
    rows.push((Cmp::Eq, 1.0));
    rows
}

/// Add `col` to `lp` with cost `cost`: its loads on the load rows and 1 on
/// the convexity row. `entries` is scratch.
fn add_column(lp: &mut RestrictedMaster, col: &Column, cost: f64, entries: &mut Vec<(usize, f64)>) {
    entries.clear();
    entries.extend(col.loads.iter().copied().enumerate());
    entries.push((col.loads.len(), 1.0));
    lp.add_column(cost, 0.0, f64::INFINITY, entries);
}

/// Load-row weights `w_i = −π_i ≥ 0` from a master's duals.
fn load_weights(duals: &[f64], rows: usize) -> Vec<f64> {
    duals[..rows].iter().map(|&pi| (-pi).max(0.0)).collect()
}

/// Nanoseconds since `t`, 0 when the clock was not read.
fn since(t: Option<Instant>) -> u64 {
    t.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Master and pricing time of one decomposition phase, counted only
/// while metrics are on.
#[derive(Default)]
struct PhaseTime {
    master_ns: u64,
    pricing_ns: u64,
}

/// What the overlap phase ([`Instance::closest`]) returns.
struct Overlap {
    /// The point it found, `None` when a master solve failed.
    point: Option<Vec<f64>>,
    pivots: usize,
    rounds: usize,
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
    /// The cpu and memory load, as capacity fractions, that all of a unit
    /// puts on a node; indexed like `nodes`.
    coef: Vec<(f64, f64)>,
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
        let demand: Vec<(f64, f64)> = (0..dep.units.len()).map(|u| dep.unit_demand(u)).collect();
        let inv_cap: Vec<(f64, f64)> =
            cfg.caps.iter().map(|c| (1.0 / c.cpu, 1.0 / c.mem)).collect();
        let mut coef = Vec::with_capacity(nodes.len());
        for (u, &(cpu, mem)) in demand.iter().enumerate() {
            for &j in &nodes[start[u] as usize..start[u + 1] as usize] {
                let (ic, im) = inv_cap[j as usize];
                coef.push((cpu * ic, mem * im));
            }
        }
        Instance { dep, excluded: is_excluded, nodes, start, slots, demand, inv_cap, coef }
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
            let base = self.start[u] as usize;
            for &pos in &choice[self.unit_slots(u)] {
                let p = base + usize::from(pos);
                let j = self.nodes[p] as usize;
                loads[j] += self.coef[p].0;
                loads[n + j] += self.coef[p].1;
            }
        }
        Column { hash: choice_hash(&choice), choice, loads }
    }

    /// `prev·x` of `col`'s choices `x` (fractions indexed like `nodes`).
    fn overlap(&self, col: &Column, prev: &[f64]) -> f64 {
        let mut kept = 0.0;
        for u in 0..self.demand.len() {
            let base = self.start[u] as usize;
            for &pos in &col.choice[self.unit_slots(u)] {
                kept += prev[base + usize::from(pos)];
            }
        }
        kept
    }

    /// Price at the `NW` weight vectors `ws` in one pass: write into
    /// `out[k]` the column of least `ws[k]·g − bonus·x` (`x` its choices
    /// as fractions, indexed like `nodes`), and return for each `k` that
    /// least value and the column's `bonus·x`.
    ///
    /// Each unit takes its `r_u` eligible nodes of least `w`-cost minus
    /// bonus, ties to the lower node index, and the loads of its choices
    /// are added to each column as the pass goes, in the order
    /// [`Self::column`] adds them. At r = 1, the common case, a unit's
    /// candidates are read once for all weight vectors; at larger r each
    /// weight vector sorts its own list in `cand` (scratch).
    fn price<const NW: usize>(
        &self,
        ws: [&[f64]; NW],
        bonus: Option<&[f64]>,
        out: &mut [Column; NW],
        cand: &mut Vec<(f64, u32, u16)>,
    ) -> [(f64, f64); NW] {
        let n = self.dep.num_nodes;
        // The cpu and memory weights of node `j` under each weight vector.
        let wc: Vec<[f64; NW]> = (0..n).map(|j| ws.map(|w| w[j])).collect();
        let wm: Vec<[f64; NW]> = (0..n).map(|j| ws.map(|w| w[n + j])).collect();
        for col in out.iter_mut() {
            col.choice.clear();
            col.loads.clear();
            col.loads.resize(2 * n, 0.0);
        }
        let mut found = [(0.0, 0.0); NW];
        let bonus_at = |p: usize| bonus.map_or(0.0, |v| v[p]);
        let cost_at = |p: usize, j: usize, kk: usize| {
            let (a, b) = self.coef[p];
            wc[j][kk] * a + wm[j][kk] * b - bonus_at(p)
        };
        for u in 0..self.demand.len() {
            let k = self.unit_slots(u).len();
            if k == 0 {
                continue;
            }
            let span = self.span(u);
            let base = span.start;
            if k == 1 {
                // Per weight vector, the cheapest candidate so far. Costs
                // compare as integer keys that order like `total_cmp`,
                // without a branch per term: costs tie often (most load
                // weights are zero), and mispredicted tie-breaks made a
                // pass about 1.7 times slower.
                let mut key = [order_key(f64::INFINITY); NW];
                let mut node = [u32::MAX; NW];
                let mut at = [usize::MAX; NW];
                for p in span {
                    let j = self.nodes[p];
                    let live = !self.excluded[j as usize];
                    for kk in 0..NW {
                        let c = order_key(cost_at(p, j as usize, kk));
                        if live & ((c < key[kk]) | ((c == key[kk]) & (j < node[kk]))) {
                            (key[kk], node[kk], at[kk]) = (c, j, p);
                        }
                    }
                }
                for (kk, (col, f)) in out.iter_mut().zip(&mut found).enumerate() {
                    let p = at[kk];
                    // A unit with a target keeps a surviving candidate.
                    if p == usize::MAX {
                        continue;
                    }
                    let j = node[kk] as usize;
                    f.0 += cost_at(p, j, kk);
                    f.1 += bonus_at(p);
                    col.choice.push((p - base) as u16);
                    col.loads[j] += self.coef[p].0;
                    col.loads[n + j] += self.coef[p].1;
                }
            } else {
                for (kk, (col, f)) in out.iter_mut().zip(&mut found).enumerate() {
                    cand.clear();
                    for p in span.clone() {
                        let j = self.nodes[p];
                        if !self.excluded[j as usize] {
                            cand.push((cost_at(p, j as usize, kk), j, (p - base) as u16));
                        }
                    }
                    cand.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    let first = col.choice.len();
                    for &(c, _, pos) in &cand[..k] {
                        f.0 += c;
                        col.choice.push(pos);
                    }
                    col.choice[first..].sort_unstable();
                    for &pos in &col.choice[first..] {
                        let p = base + usize::from(pos);
                        let j = self.nodes[p] as usize;
                        col.loads[j] += self.coef[p].0;
                        col.loads[n + j] += self.coef[p].1;
                        f.1 += bonus_at(p);
                    }
                }
            }
        }
        for col in out.iter_mut() {
            col.hash = choice_hash(&col.choice);
        }
        found
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
    /// the max-load optimum is feasible. The master maximizes
    /// `Σ_k score_k λ_k` with `score_k = prev·x_k`, every load at most
    /// `level`, and grows in place. Pricing counts `prev` as a bonus per
    /// choice; `level·Σw + max_x (prev·x − w·g(x))` bounds the overlap
    /// from above, and the loop ends once the master is within
    /// [`OVERLAP_TOL`] of it, pricing repeats a column, or after
    /// [`MAX_ROUNDS`]. A failed master solve ends it without a point.
    fn closest(
        &self,
        mut cols: Vec<Column>,
        prev: &[f64],
        level: f64,
        opts: &SolverOpts,
        time: &mut PhaseTime,
    ) -> Overlap {
        let rows = 2 * self.dep.num_nodes;
        let mut lp = RestrictedMaster::new(&master_rows(rows, level), opts);
        let mut entries = Vec::new();
        for col in &cols {
            add_column(&mut lp, col, -self.overlap(col, prev), &mut entries);
        }
        let mut priced: [Column; OVERLAP_SMOOTHING.len()] = Default::default();
        let mut cand = Vec::new();
        let (mut pivots, mut rounds) = (0, 0);
        // Least upper bound so far and the weights that gave it.
        let mut best = f64::INFINITY;
        let mut center: Vec<f64> = Vec::new();
        loop {
            rounds += 1;
            let t = obs::now_if_enabled();
            let sol = lp.solve();
            time.master_ns += since(t);
            pivots += sol.iterations;
            if sol.status != Status::Optimal {
                return Overlap { point: None, pivots, rounds };
            }
            let weights = load_weights(&sol.duals, rows);
            let t = obs::now_if_enabled();
            // Every smoothed copy is taken around the center at the
            // round's start, so one pass prices them all; a better bound
            // moves the center for the next round. Before the first bound
            // there is no center, and every copy is the duals themselves
            // (the repeated columns are dropped below).
            let ws = OVERLAP_SMOOTHING.map(|alpha| {
                let mix = |(c, w): (&f64, &f64)| alpha * c + (1.0 - alpha) * w;
                if alpha > 0.0 && !center.is_empty() {
                    center.iter().zip(&weights).map(mix).collect()
                } else {
                    weights.clone()
                }
            });
            let found =
                self.price(ws.each_ref().map(Vec::as_slice), Some(prev), &mut priced, &mut cand);
            for (w, &(value, _)) in ws.into_iter().zip(&found) {
                let upper = level * w.iter().sum::<f64>() - value;
                if upper < best {
                    best = upper;
                    center = w;
                }
            }
            time.pricing_ns += since(t);
            let overlap = -sol.objective;
            let before = cols.len();
            if best - overlap > OVERLAP_TOL && rounds < MAX_ROUNDS {
                for (col, &(_, score)) in priced.iter().zip(&found) {
                    if !contains(&cols, col) {
                        add_column(&mut lp, col, -score, &mut entries);
                        cols.push(col.clone());
                    }
                }
            }
            if cols.len() == before {
                return Overlap { point: Some(self.point(&cols, &sol.x)), pivots, rounds };
            }
        }
    }

    /// The node of flat position `p` (an index into `nodes`) and the cpu
    /// and memory load that all of the position's unit puts on it.
    fn load_rows(&self, p: usize) -> (usize, f64, f64) {
        let (cpu, mem) = self.coef[p];
        (self.nodes[p] as usize, cpu, mem)
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
                let (j, cpu, mem) = self.load_rows(p);
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
    solve_with(dep, cfg, excluded, pool, &cfg.solver)
}

/// [`solve`] with the overlap phase's masters on `overlap_opts`.
fn solve_with(
    dep: &NidsDeployment,
    cfg: &NidsLpConfig,
    excluded: &[NodeId],
    pool: Option<&ColumnPool>,
    overlap_opts: &SolverOpts,
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
    let mut cand = Vec::new();
    // Best Lagrangian bound so far and the weights that gave it.
    let mut best = f64::NEG_INFINITY;
    let mut center = Vec::new();
    if cols.is_empty() {
        let uniform = vec![1.0 / rows.max(1) as f64; rows];
        let mut first = [Column::default()];
        let [(value, _)] = inst.price([&uniform], None, &mut first, &mut cand);
        best = lagrangian_bound(value, &uniform);
        cols.extend(first);
        center = uniform;
    }

    // The max-load master: `L` first, then one `λ` per column.
    let mut lp = RestrictedMaster::new(&master_rows(rows, 0.0), &cfg.solver);
    let load: Vec<(usize, f64)> = (0..rows).map(|i| (i, -1.0)).collect();
    lp.add_column(1.0, 0.0, f64::INFINITY, &load);
    let mut entries = Vec::new();
    for col in &cols {
        add_column(&mut lp, col, 0.0, &mut entries);
    }
    let mut max_load_time = PhaseTime::default();
    let mut rounds = 0;
    let mut iterations = 0;
    let mut priced = vec![Column::default(); 2];
    let span = obs::span!("nids.dw.max_load");
    let (master, gap) = loop {
        rounds += 1;
        let t = obs::now_if_enabled();
        let sol = lp.solve();
        max_load_time.master_ns += since(t);
        if sol.status != Status::Optimal {
            return Err(NidsError::SolverFailed);
        }
        iterations += sol.iterations;
        let weights = load_weights(&sol.duals, rows);
        // Price at the master duals, then at their Wentges-smoothed copy
        // around the weights of the best bound so far.
        let t = obs::now_if_enabled();
        for (smooth, col) in [false, true].into_iter().zip(&mut priced) {
            let w: Vec<f64> = if smooth {
                let mix = |(c, w): (&f64, &f64)| SMOOTHING * c + (1.0 - SMOOTHING) * w;
                center.iter().zip(&weights).map(mix).collect()
            } else {
                weights.clone()
            };
            let [(value, _)] = inst.price([&w], None, std::array::from_mut(col), &mut cand);
            let bound = lagrangian_bound(value, &w);
            if bound > best {
                best = bound;
                center = w;
            }
        }
        max_load_time.pricing_ns += since(t);
        let gap = relative_gap(sol.objective, best);
        if gap <= GAP_TOL {
            break (sol, gap);
        }
        let before = cols.len();
        for col in &priced {
            if !contains(&cols, col) {
                add_column(&mut lp, col, 0.0, &mut entries);
                cols.push(col.clone());
            }
        }
        // No new column means pricing cannot improve the master, yet the
        // bounds disagree: numerical trouble, not an optimum.
        if cols.len() == before || rounds >= MAX_ROUNDS {
            return Err(NidsError::SolverFailed);
        }
    };
    drop(span);
    let level = master.objective;
    let lambda = &master.x[1..];

    let columns: Vec<Vec<u16>> = cols
        .iter()
        .zip(lambda)
        .filter(|(_, &l)| l > LAMBDA_EPS)
        .map(|(c, _)| c.choice.clone())
        .collect();
    let mut x = inst.point(&cols, lambda);
    // Many points reach the optimal max load; after an earlier solve,
    // take the one that keeps the most of its point.
    let previous = pool.map(|p| p.point.as_slice());
    let mut overlap_time = PhaseTime::default();
    let (mut overlap_rounds, mut fallback) = (0, false);
    if let Some(prev) = previous {
        let _span = obs::span!("nids.dw.overlap");
        let o = inst.closest(cols, prev, level, overlap_opts, &mut overlap_time);
        iterations += o.pivots;
        overlap_rounds = o.rounds;
        match o.point {
            Some(y) => x = y,
            // The max-load point is optimal too, but it may move much more
            // of the hash space than the overlap optimum would.
            None => {
                fallback = true;
                obs::trace_event!("nids.overlap_fallback", round = o.rounds, pivots = o.pivots);
            }
        }
    }
    {
        let _span = obs::span!("nids.dw.vertex_walk");
        inst.purify(&mut x, level, previous);
    }
    if obs::enabled() {
        let s = obs::Scope::new("nids");
        s.counter("dw_rounds").add(rounds as u64);
        s.gauge("gap").set_max(gap);
        if fallback {
            s.counter("overlap_fallbacks").inc();
        }
        let dw = s.scope("dw");
        dw.counter("master_pivots").add(iterations as u64);
        dw.counter("overlap_rounds").add(overlap_rounds as u64);
        for (phase, time) in [("max_load", &max_load_time), ("overlap", &overlap_time)] {
            let p = dw.scope(phase);
            p.timer("master_ns").observe_ns(time.master_ns);
            p.timer("pricing_ns").observe_ns(time.pricing_ns);
        }
    }
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
        max_load: level,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AnalysisClass;
    use crate::units::build_units;
    use nwdp_topo::{internet2, PathDb};
    use nwdp_traffic::{TrafficMatrix, VolumeModel};
    use std::sync::{Arc, Mutex};

    fn setup() -> (NidsDeployment, NidsLpConfig) {
        let t = internet2();
        let paths = PathDb::shortest_paths(&t);
        let tm = TrafficMatrix::gravity(&t);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&t, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let cfg = NidsLpConfig::homogeneous(
            dep.num_nodes,
            super::super::NodeCaps { cpu: 2.0e8, mem: 4.0e9 },
        );
        (dep, cfg)
    }

    /// Each unit's volume moved halfway toward its class's uniform share.
    fn blend(dep: &NidsDeployment) -> NidsDeployment {
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

    /// The pricing the one-pass pricer replaced: unit costs from per-node
    /// scaled weights, then the column's loads in a second pass
    /// ([`Instance::column`]).
    fn two_pass_price(inst: &Instance, w: &[f64], bonus: Option<&[f64]>) -> (Column, f64) {
        let n = inst.dep.num_nodes;
        let scaled: Vec<(f64, f64)> =
            (0..n).map(|j| (w[j] * inst.inv_cap[j].0, w[n + j] * inst.inv_cap[j].1)).collect();
        let mut choice = Vec::new();
        let mut value = 0.0;
        let mut cand: Vec<(f64, u32, u16)> = Vec::new();
        for u in 0..inst.demand.len() {
            let k = inst.unit_slots(u).len();
            if k == 0 {
                continue;
            }
            let (cpu, mem) = inst.demand[u];
            let base = inst.start[u] as usize;
            cand.clear();
            for (pos, &j) in inst.unit_nodes(u).iter().enumerate() {
                let (wc, wm) = scaled[j as usize];
                let cost = cpu * wc + mem * wm - bonus.map_or(0.0, |b| b[base + pos]);
                if !inst.excluded[j as usize] {
                    cand.push((cost, j, pos as u16));
                }
            }
            cand.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let first = choice.len();
            for &(c, _, pos) in &cand[..k] {
                value += c;
                choice.push(pos);
            }
            choice[first..].sort_unstable();
        }
        (inst.column(choice), value)
    }

    /// xorshift64 in `[0, 1)`.
    fn uniform(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn one_pass_pricer_matches_the_two_pass_oracle() {
        let (dep, cfg) = setup();
        // r = 1 on every unit; r = 2 and 3 on the units with that many
        // eligible nodes; r = 2 with a node excluded, which degrades the
        // units it leaves short.
        let wide = |r: usize| NidsDeployment {
            units: dep.units.iter().filter(|u| u.nodes.len() >= r).cloned().collect(),
            ..dep.clone()
        };
        let cases = [
            (dep.clone(), 1.0, vec![]),
            (wide(2), 2.0, vec![]),
            (wide(3), 3.0, vec![]),
            (wide(2), 2.0, vec![NodeId(4)]),
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for (case, (dep, r, excluded)) in cases.iter().enumerate() {
            let cfg = NidsLpConfig { redundancy: *r, ..cfg.clone() };
            let (targets, _) = coverage_targets(dep, *r, excluded).unwrap();
            let inst = Instance::new(dep, &cfg, excluded, &targets);
            let rows = 2 * dep.num_nodes;
            let mut cand = Vec::new();
            // Reused across trials, as the solve reuses its buffers.
            let mut out: [Column; 4] = Default::default();
            let mut single = [Column::default()];
            for trial in 0..24 {
                // Random weights; every third trial quantized to a few
                // levels, and one in four all equal, so costs tie.
                let mut ws: [Vec<f64>; 4] =
                    std::array::from_fn(|_| (0..rows).map(|_| uniform(&mut state)).collect());
                if trial % 3 == 0 {
                    ws.iter_mut().flatten().for_each(|v| *v = (*v * 3.0).floor());
                }
                if trial % 4 == 0 {
                    ws[0].iter_mut().for_each(|v| *v = 0.25);
                }
                let bonus: Vec<f64> = (0..inst.nodes.len())
                    .map(|_| (uniform(&mut state) * 2.0).floor() * 0.5)
                    .collect();
                let bonus = (trial % 2 == 1).then_some(bonus.as_slice());
                let found =
                    inst.price(ws.each_ref().map(Vec::as_slice), bonus, &mut out, &mut cand);
                for (k, w) in ws.iter().enumerate() {
                    let what = format!("case {case} trial {trial} weights {k}");
                    let (_, least) = two_pass_price(&inst, w, bonus);
                    let (value, kept) = found[k];
                    assert!(
                        (value - least).abs() <= 1e-12 * least.abs().max(1.0),
                        "{what}: value {value} vs {least}"
                    );
                    let col = &out[k];
                    let again = inst.column(col.choice.clone());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&col.loads), bits(&again.loads), "{what}: loads");
                    assert_eq!(col.hash, again.hash, "{what}: hash");
                    let overlap = bonus.map_or(0.0, |b| inst.overlap(col, b));
                    assert!((kept - overlap).abs() <= 1e-12 * overlap.max(1.0), "{what}: bonus");
                    // One weight vector alone prices the same column and value.
                    let [alone] = inst.price([w], bonus, &mut single, &mut cand);
                    assert_eq!(single[0].choice, col.choice, "{what}: priced alone");
                    assert_eq!(alone.0.to_bits(), value.to_bits(), "{what}: value alone");
                }
            }
        }
    }

    /// Solve the cold Internet2 LP, then re-solve a blended copy from its
    /// pool with the overlap masters on `overlap`, under a fresh recorder
    /// with metrics on; return the re-solve and the recorder's counters
    /// `names`.
    fn warm_resolve(overlap: &SolverOpts, names: &[&str]) -> (NidsAssignment, Vec<u64>) {
        let (dep, cfg) = setup();
        let (_, pool, _) = solve(&dep, &cfg, &[], None).unwrap();
        let next = blend(&dep);
        obs::scoped(&obs::Recorder::new(), || {
            obs::set_enabled(true);
            let (a, _, _) = solve_with(&next, &cfg, &[], Some(&pool), overlap).unwrap();
            (a, names.iter().map(|n| obs::counter(n).get()).collect())
        })
    }

    #[test]
    fn a_failed_overlap_master_is_counted_and_keeps_a_certified_point() {
        let stop = SolverOpts { max_iters: Some(0), ..SolverOpts::default() };
        let (a, counts) = warm_resolve(&stop, &["nids.overlap_fallbacks"]);
        assert_eq!(counts, [1], "the failed overlap phase was not counted");
        let (b, counts) = warm_resolve(&SolverOpts::default(), &["nids.overlap_fallbacks"]);
        assert_eq!(counts, [0]);
        assert!(a.gap <= GAP_TOL, "uncertified gap {}", a.gap);
        assert!((a.max_load - b.max_load).abs() <= 1e-9 * b.max_load, "{}", a.max_load);
        for (u, fr) in a.d.iter().enumerate() {
            let sum: f64 = fr.iter().map(|&(_, f)| f).sum();
            assert!((sum - 1.0).abs() < 1e-9, "unit {u} covered {sum}");
        }
    }

    /// A trace journal in memory.
    #[derive(Clone)]
    struct Journal(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for Journal {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn phases_are_traced_and_counted() {
        let (dep, cfg) = setup();
        let next = blend(&dep);
        let journal = Journal(Arc::new(Mutex::new(Vec::new())));
        let names = ["nids.dw_rounds", "nids.dw.master_pivots", "nids.dw.overlap_rounds"];
        let (cold, warm, counts, outer) = obs::scoped(&obs::Recorder::new(), || {
            obs::set_enabled(true);
            obs::set_trace_writer(Box::new(journal.clone()));
            obs::set_trace_enabled(true);
            let (cold, pool, _) = solve(&dep, &cfg, &[], None).unwrap();
            let span = obs::span!("test.resolve");
            let outer = span.id();
            let (warm, _, _) = solve(&next, &cfg, &[], Some(&pool)).unwrap();
            drop(span);
            obs::flush_trace();
            let counts: Vec<u64> = names.iter().map(|n| obs::counter(n).get()).collect();
            (cold, warm, counts, outer)
        });
        assert_eq!(counts[0], (cold.dw_rounds + warm.dw_rounds) as u64, "dw rounds");
        assert_eq!(counts[1], (cold.lp_iterations + warm.lp_iterations) as u64, "master pivots");
        assert!(counts[2] > 0, "the warm solve ran no overlap round");

        let text = String::from_utf8(journal.0.lock().unwrap().clone()).unwrap();
        let mut open = Vec::new();
        let mut closed = 0;
        for line in text.lines() {
            let rec = obs::parse_json(line).unwrap();
            let field = |k: &str| rec.get(k).cloned();
            match field("ev").and_then(|v| v.as_str().map(str::to_owned)).as_deref() {
                Some("B") => {
                    let name = field("name").unwrap().as_str().unwrap().to_owned();
                    let parent = field("parent").and_then(|p| p.as_f64()).map(|p| p as u64);
                    open.push((name, parent));
                }
                Some("E") => closed += 1,
                _ => {}
            }
        }
        assert_eq!(open.len(), closed, "unbalanced spans");
        let phases = ["nids.dw.max_load", "nids.dw.overlap", "nids.dw.vertex_walk"];
        for phase in phases {
            let under: Vec<_> = open.iter().filter(|(n, _)| n == phase).map(|(_, p)| *p).collect();
            // The cold solve has no overlap phase; the warm one has each
            // phase once, under the span around it.
            let want = if phase == "nids.dw.overlap" { 1 } else { 2 };
            assert_eq!(under.len(), want, "{phase} spans");
            assert_eq!(under.last(), Some(&Some(outer)), "{phase} is not under its caller");
        }
    }
}
