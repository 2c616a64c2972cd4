//! Randomized rounding for NIPS deployment (paper Fig 9 and §3.3).
//!
//! The MILP (Eqs 7–14) is NP-hard, so the paper rounds the LP relaxation:
//! each `ê_ij` is set to 1 independently with probability `e*_ij / α`; the
//! sampling fractions are carried over proportionally and the trial is
//! rejected if any resource constraint is violated by more than a factor
//! `β·log N` (then everything is rescaled into feasibility). Two practical
//! refinements from §3.3/§3.4 replace the conservative rescaling:
//!
//! - [`Strategy::LpResolve`] — fix the rounded placement and re-solve the
//!   LP over the sampling fractions exactly;
//! - [`Strategy::GreedyLpResolve`] — additionally fill leftover TCAM slots
//!   greedily before the re-solve (the variant that reaches ≥92% of
//!   `OptLP` in Fig 10(b)).
//!
//! The inner sampling LP is solved by an exact min-cost-flow fast path
//! when the instance has proportional requirements (the paper's
//! evaluation setting), and by the simplex with lazy coverage rows
//! otherwise. Both paths are cross-checked in tests.

use super::model::{NipsInstance, SolutionD};
use super::relax::RelaxSolution;
use nwdp_lp::flow::{ArcId, MinCostFlow};
use nwdp_lp::rowgen::{solve_with_lazy_rows_ctx, LazyRow, RowGenOpts, SolveContext};
use nwdp_lp::{Cmp, Problem, Sense, Status, VarId};
use nwdp_obs as obs;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Typed failure of the rounding pipeline. Degenerate instances (NaN
/// gains from zero-volume rules, negative TCAM budgets, inner LPs that
/// hit their iteration limit) surface here instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundError {
    /// A node is over its TCAM capacity with no enabled rule left to
    /// disable (only possible with a negative capacity).
    TcamInfeasible { node: usize },
    /// The inner sampling LP did not reach a converged optimum.
    InnerLpFailed { status: Status, converged: bool },
}

impl std::fmt::Display for RoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundError::TcamInfeasible { node } => {
                write!(f, "node {node} exceeds its TCAM capacity with no enabled rules")
            }
            RoundError::InnerLpFailed { status, converged } => {
                write!(f, "inner sampling LP failed: status {status:?}, converged {converged}")
            }
        }
    }
}

impl std::error::Error for RoundError {}

/// Rounding refinement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Fig 9 verbatim: scale `d` down by `β·log N` after rounding.
    ScaledFig9,
    /// Fig 10(a): rounding + exact LP re-solve over `d`.
    LpResolve,
    /// Fig 10(b): rounding + greedy TCAM fill + LP re-solve.
    GreedyLpResolve,
}

/// Probability divisor `α` (Fig 9 line 5).
const ALPHA: f64 = 2.0;
/// Violation budget factor `β` (Fig 9 line 7).
const BETA: f64 = 2.0;
/// Retries of the randomized trial before giving up on the check.
const MAX_TRIES: usize = 60;

/// Options for the rounding pipeline.
#[derive(Debug, Clone)]
pub struct RoundingOpts {
    /// Independent rounding runs; the best solution is kept (§3.4 runs 10).
    pub iterations: usize,
    pub strategy: Strategy,
    pub seed: u64,
    /// Warm-start the inner simplex re-solves from a shared baseline
    /// basis (solved once before the trial fan-out). Every trial starts
    /// from the *same* snapshot, so results stay bit-identical across
    /// `NWDP_THREADS`; set to `false` for cold-solve comparisons.
    pub warm_start: bool,
}

impl Default for RoundingOpts {
    fn default() -> Self {
        RoundingOpts {
            iterations: 10,
            strategy: Strategy::GreedyLpResolve,
            seed: 0,
            warm_start: true,
        }
    }
}

/// An integral NIPS deployment.
#[derive(Debug, Clone)]
pub struct NipsSolution {
    /// `e[rule][node]`.
    pub e: Vec<Vec<bool>>,
    pub d: SolutionD,
    pub objective: f64,
}

/// Run the full pipeline: `iterations` independent rounding runs, keep the
/// best. Requires the relaxation solution (Fig 9 steps 1–2 output).
///
/// The trials are independent (§3.4) and fan out across scoped threads
/// (see [`crate::parallel`]); each trial derives its own seed from the
/// trial index and the winner is selected in trial order, so the result
/// is bit-identical to a serial run for any `NWDP_THREADS`.
///
/// `Err` only when *every* trial fails; the error of the earliest trial
/// is returned (deterministic across thread counts).
pub fn round_best_of(
    inst: &NipsInstance,
    relax: &RelaxSolution,
    opts: &RoundingOpts,
) -> Result<NipsSolution, RoundError> {
    let t0 = obs::now_if_enabled();
    // Shared warm-start baseline: with the inner-simplex path in play,
    // solve the all-enabled sampling LP once and seed every trial with its
    // basis and active lazy rows. Each trial's LP differs from the
    // baseline only in variable bounds (which rules got rounded off), so
    // the basis is usually a near-optimal starting guess. Every trial
    // clones the *same* context, keeping the fan-out bit-identical to a
    // serial run for any `NWDP_THREADS`.
    let baseline: Option<SolveContext> = if opts.warm_start
        && matches!(opts.strategy, Strategy::LpResolve | Strategy::GreedyLpResolve)
        && !inst.is_proportional()
    {
        let all = vec![vec![true; inst.num_nodes]; inst.rules.len()];
        let mut ctx = SolveContext::new();
        solve_inner_simplex_ctx(inst, &all, &mut ctx).ok().map(|_| ctx)
    } else {
        None
    };
    let _span = obs::span!(
        "rounding.best_of",
        trials = opts.iterations.max(1),
        rules = inst.rules.len(),
        nodes = inst.num_nodes
    );
    let trials = crate::parallel::par_map_n(opts.iterations.max(1), |it| {
        let _span = obs::span!("rounding.trial", trial = it);
        let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(it as u64 * 7919));
        let mut ctx = baseline.clone().unwrap_or_default();
        round_once_ctx(inst, relax, opts, &mut rng, &mut ctx)
    });
    let n_trials = trials.len();
    let mut best: Option<NipsSolution> = None;
    let mut first_err: Option<RoundError> = None;
    let mut n_failed = 0u64;
    let mut trial_ratios: Vec<f64> = Vec::new();
    for trial in trials {
        match trial {
            Ok(sol) => {
                if obs::enabled() && relax.objective > 0.0 {
                    trial_ratios.push(sol.objective / relax.objective);
                }
                if best.as_ref().is_none_or(|b| sol.objective > b.objective) {
                    best = Some(sol);
                }
            }
            Err(e) => {
                n_failed += 1;
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    if obs::enabled() {
        let s = obs::Scope::new("round");
        s.counter("calls").inc();
        s.counter("trials").add(n_trials as u64);
        s.counter("trials_failed").add(n_failed);
        // Trial quality vs. the LP bound (Fig 10's y-axis): how much of
        // OptLP each trial recovers, and the best run's trajectory.
        let h = s.histogram(
            "trial_ratio_vs_lp",
            &[0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.925, 0.95, 0.975, 1.0],
        );
        for r in &trial_ratios {
            h.observe(*r);
        }
        if let Some(b) = &best {
            s.gauge("best_objective").set(b.objective);
            s.gauge("lp_bound").set(relax.objective);
            if relax.objective > 0.0 {
                s.gauge("best_ratio_vs_lp").set_max(b.objective / relax.objective);
            }
        }
        s.timer("best_of_ns").observe_since(t0);
    }
    match best {
        Some(sol) => Ok(sol),
        // par_map_n returns one entry per trial and iterations >= 1, so
        // an empty `best` implies at least one recorded error.
        None => Err(first_err.unwrap_or(RoundError::TcamInfeasible { node: 0 })),
    }
}

/// One randomized-rounding run (Fig 9 plus the selected refinement). The
/// simplex re-solve warm-starts from `ctx` (a prior basis over the same
/// instance, or an empty context for a cold slack basis).
pub fn round_once_ctx(
    inst: &NipsInstance,
    relax: &RelaxSolution,
    opts: &RoundingOpts,
    rng: &mut StdRng,
    ctx: &mut SolveContext,
) -> Result<NipsSolution, RoundError> {
    let lay = &relax.layout;
    let (nr, nn) = (lay.n_rules, lay.n_nodes);
    let n_big = nn.max(nr) as f64;
    let budget = (BETA * n_big.ln()).max(1.0);
    // Local tallies, flushed once at the end (trials run on worker
    // threads; the registry handles are atomic).
    let mut n_retries = 0u64;
    let mut n_greedy_adds = 0u64;

    // Fig 9 line 3: epsilon_ikj = d*/e*.
    let eps = |i: usize, k: usize, pos: usize, node: usize| -> f64 {
        let ev = relax.e[lay.e(i, node)];
        if ev <= 1e-9 {
            0.0
        } else {
            (relax.d[lay.d(i, k, pos)] / ev).min(1.0)
        }
    };

    // Fig 9 lines 4–9: randomized trial with violation check.
    let mut ehat = vec![vec![false; nn]; nr];
    for trial in 0..MAX_TRIES {
        for (i, row) in ehat.iter_mut().enumerate().take(nr) {
            for (j, cell) in row.iter_mut().enumerate().take(nn) {
                let p = (relax.e[lay.e(i, j)] / ALPHA).clamp(0.0, 1.0);
                *cell = rng.random_bool(p);
            }
        }
        if trial + 1 == MAX_TRIES || !violates_budget(inst, lay, &ehat, &eps, budget) {
            break;
        }
        n_retries += 1;
    }

    // Fig 9 line 10: enforce the TCAM constraint by disabling rules. We
    // drop the enabled rule with the smallest potential contribution at
    // the node ("arbitrarily" per the paper).
    let n_tcam_drops = enforce_tcam(inst, &mut ehat, /*node_gain=*/ &node_gains(inst, lay))?;

    let result = match opts.strategy {
        Strategy::ScaledFig9 => {
            // Fig 9 lines 11–12: scale epsilon down by the budget.
            let mut d: SolutionD = SolutionD::new();
            for (i, ehat_i) in ehat.iter().enumerate().take(nr) {
                for (k, path) in inst.paths.iter().enumerate() {
                    let mut shares = Vec::new();
                    for (pos, &node) in path.nodes.iter().enumerate() {
                        if ehat_i[node.index()] {
                            let v = eps(i, k, pos, node.index()) / budget;
                            if v > 1e-12 {
                                shares.push((pos, v));
                            }
                        }
                    }
                    if !shares.is_empty() {
                        d.insert((i, k), shares);
                    }
                }
            }
            let objective = inst.objective(&d);
            Ok(NipsSolution { e: ehat, d, objective })
        }
        Strategy::LpResolve => finish_with_inner_lp(inst, ehat, ctx),
        Strategy::GreedyLpResolve => {
            n_greedy_adds = greedy_fill(inst, lay, &mut ehat, &node_gains(inst, lay));
            finish_with_inner_lp(inst, ehat, ctx)
        }
    };
    if obs::enabled() {
        let s = obs::Scope::new("round");
        s.counter("reject_retries").add(n_retries);
        s.counter("tcam_drops").add(n_tcam_drops);
        s.counter("greedy_fills").add(n_greedy_adds);
        if matches!(opts.strategy, Strategy::LpResolve | Strategy::GreedyLpResolve) {
            s.counter("lp_resolves").inc();
        }
    }
    result
}

/// Check Eqs (9)–(11) against the `β·log N` violation budget (Fig 9 line 7).
fn violates_budget(
    inst: &NipsInstance,
    lay: &super::relax::Layout,
    ehat: &[Vec<bool>],
    eps: &impl Fn(usize, usize, usize, usize) -> f64,
    budget: f64,
) -> bool {
    let nn = lay.n_nodes;
    let mut mem = vec![0.0; nn];
    let mut cpu = vec![0.0; nn];
    for (i, ehat_i) in ehat.iter().enumerate().take(lay.n_rules) {
        for (k, path) in inst.paths.iter().enumerate() {
            let mut cov = 0.0;
            for (pos, &node) in path.nodes.iter().enumerate() {
                let j = node.index();
                if ehat_i[j] {
                    let v = eps(i, k, pos, j);
                    mem[j] += inst.paths[k].items * inst.rules[i].mem_per_item * v;
                    cpu[j] += inst.paths[k].pkts * inst.rules[i].cpu_per_pkt * v;
                    cov += v;
                }
            }
            if cov > budget {
                return true;
            }
        }
    }
    (0..nn).any(|j| mem[j] > budget * inst.mem_cap[j] || cpu[j] > budget * inst.cpu_cap[j])
}

/// Static per-(rule, node) gain estimate: total droppable weight if the
/// rule were the only consumer at the node.
fn node_gains(inst: &NipsInstance, lay: &super::relax::Layout) -> Vec<Vec<f64>> {
    let mut g = vec![vec![0.0; lay.n_nodes]; lay.n_rules];
    for (i, gi) in g.iter_mut().enumerate().take(lay.n_rules) {
        for (k, path) in inst.paths.iter().enumerate() {
            for (pos, &node) in path.nodes.iter().enumerate() {
                gi[node.index()] += inst.weight(i, k, pos);
            }
        }
    }
    g
}

/// Disable lowest-gain rules until every node's TCAM constraint holds.
/// Non-finite gains (NaN from a zero-volume rule on a zero-traffic path)
/// compare as the smallest possible gain, so those rules are dropped
/// first. Returns the number of rules disabled.
fn enforce_tcam(
    inst: &NipsInstance,
    ehat: &mut [Vec<bool>],
    gains: &[Vec<f64>],
) -> Result<u64, RoundError> {
    let finite_or_min = |g: f64| if g.is_finite() { g } else { f64::NEG_INFINITY };
    let mut drops = 0u64;
    for j in 0..inst.num_nodes {
        loop {
            let used: f64 =
                (0..inst.rules.len()).filter(|&i| ehat[i][j]).map(|i| inst.rules[i].cam_req).sum();
            if used <= inst.cam_cap[j] + 1e-9 {
                break;
            }
            let worst = (0..inst.rules.len())
                .filter(|&i| ehat[i][j])
                .min_by(|&a, &b| finite_or_min(gains[a][j]).total_cmp(&finite_or_min(gains[b][j])));
            match worst {
                Some(i) => {
                    ehat[i][j] = false;
                    drops += 1;
                }
                // Nothing enabled yet still over budget: the node's TCAM
                // capacity is negative — the instance is unroundable.
                None => return Err(RoundError::TcamInfeasible { node: j }),
            }
        }
    }
    Ok(drops)
}

/// Greedily enable extra rules into leftover TCAM space, best static gain
/// first (§3.3: "greedily try to set ê_ij to 1 until no more can be set").
/// Non-finite gains are skipped. Returns the number of rules enabled.
fn greedy_fill(
    inst: &NipsInstance,
    lay: &super::relax::Layout,
    ehat: &mut [Vec<bool>],
    gains: &[Vec<f64>],
) -> u64 {
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for i in 0..lay.n_rules {
        for j in 0..lay.n_nodes {
            if !ehat[i][j] && gains[i][j].is_finite() && gains[i][j] > 0.0 {
                candidates.push((i, j));
            }
        }
    }
    candidates.sort_by(|&(ia, ja), &(ib, jb)| gains[ib][jb].total_cmp(&gains[ia][ja]));
    let mut used: Vec<f64> = (0..inst.num_nodes)
        .map(|j| (0..inst.rules.len()).filter(|&i| ehat[i][j]).map(|i| inst.rules[i].cam_req).sum())
        .collect();
    let mut fills = 0u64;
    for (i, j) in candidates {
        if used[j] + inst.rules[i].cam_req <= inst.cam_cap[j] + 1e-9 {
            ehat[i][j] = true;
            used[j] += inst.rules[i].cam_req;
            fills += 1;
        }
    }
    fills
}

/// Fix the placement and solve the sampling LP exactly.
fn finish_with_inner_lp(
    inst: &NipsInstance,
    ehat: Vec<Vec<bool>>,
    ctx: &mut SolveContext,
) -> Result<NipsSolution, RoundError> {
    let d = if inst.is_proportional() {
        solve_inner_flow(inst, &ehat)
    } else {
        solve_inner_simplex_ctx(inst, &ehat, ctx)?
    };
    let objective = inst.objective(&d);
    Ok(NipsSolution { e: ehat, d, objective })
}

/// LP solutions satisfy the resource rows only to solver tolerance; scale
/// every sampling fraction down by the worst relative overshoot so the
/// returned solution is *exactly* feasible (the objective loss is at the
/// tolerance level). Applied by both inner solvers before returning.
fn rescale_into_feasibility(inst: &NipsInstance, d: &mut SolutionD) {
    let nn = inst.num_nodes;
    let mut mem = vec![0.0; nn];
    let mut cpu = vec![0.0; nn];
    let mut worst: f64 = 1.0;
    for ((i, k), shares) in d.iter() {
        let path = &inst.paths[*k];
        let mut cov = 0.0;
        for &(pos, frac) in shares {
            let j = path.nodes[pos].index();
            mem[j] += path.items * inst.rules[*i].mem_per_item * frac;
            cpu[j] += path.pkts * inst.rules[*i].cpu_per_pkt * frac;
            cov += frac;
        }
        worst = worst.max(cov);
    }
    for j in 0..nn {
        if inst.mem_cap[j].is_finite() && inst.mem_cap[j] > 0.0 {
            worst = worst.max(mem[j] / inst.mem_cap[j]);
        }
        if inst.cpu_cap[j].is_finite() && inst.cpu_cap[j] > 0.0 {
            worst = worst.max(cpu[j] / inst.cpu_cap[j]);
        }
    }
    if worst > 1.0 {
        let s = 1.0 / worst;
        for shares in d.values_mut() {
            for e in shares.iter_mut() {
                e.1 *= s;
            }
        }
    }
}

/// Exact inner solve via min-cost flow (proportional instances).
///
/// Variables are rescaled to shipped items `x = d · T_items`; the coverage
/// row becomes a supply arc, the two node resource rows collapse into one
/// node capacity, and the objective becomes per-item profit
/// `M_ik · Dist_ikj`. Volumes are rounded down to integers — for the
/// paper-scale volumes (≥10³ flows per path) the discretization error is
/// negligible and always on the conservative side.
pub fn solve_inner_flow(inst: &NipsInstance, ehat: &[Vec<bool>]) -> SolutionD {
    solve_inner_flow_weighted(inst, ehat, |i, k, pos| inst.weight(i, k, pos))
}

/// [`solve_inner_flow`] with a custom objective-weight function (used by
/// the online-adaptation oracle, whose weights come from perturbed
/// historical match rates rather than the instance's own).
///
/// `weight(i, k, pos)` must be expressible as `profit_per_item × T_items`
/// for the reduction to stay exact, which holds for any per-(i,k,pos)
/// linear objective.
pub fn solve_inner_flow_weighted(
    inst: &NipsInstance,
    ehat: &[Vec<bool>],
    weight: impl Fn(usize, usize, usize) -> f64,
) -> SolutionD {
    InnerFlowOracle::build(inst, ehat).solve_feasible(inst, weight)
}

/// A reusable min-cost-flow network for the inner sampling LP.
///
/// Building the transportation network (nodes, commodities, arcs, and all
/// their allocations) dominates a single flow solve once the instance has
/// thousands of (rule, path) commodities. Repeated-solve loops — the FPL
/// online game re-solves this network every epoch with only the objective
/// weights changed — build the oracle **once** and call [`Self::solve`]
/// per epoch: flows are reset, arcs are re-priced (and zero/negative-
/// weight arcs throttled to zero capacity), and the augmentation runs on
/// the recycled structure. The post-reset network state is exactly what a
/// fresh build with the same weights would produce, so reused and
/// fresh-built solves are bit-identical.
pub struct InnerFlowOracle {
    g: MinCostFlow,
    source: usize,
    sink: usize,
    /// `(rule, path, pos, arc, supply, items)` per candidate arc.
    arcs: Vec<(usize, usize, usize, ArcId, i64, f64)>,
}

impl InnerFlowOracle {
    /// Build the network for a fixed placement `ehat` (arc costs are set
    /// per solve). Every enabled on-path position gets an arc, so any
    /// weight function over `(rule, path, pos)` can be priced later.
    pub fn build(inst: &NipsInstance, ehat: &[Vec<bool>]) -> Self {
        let r0 = &inst.rules[0];
        let ratio = inst.paths[0].pkts / inst.paths[0].items.max(1e-12);
        let mut g = MinCostFlow::new();
        let source = g.add_node();
        let sink = g.add_node();
        let node_ids: Vec<usize> = (0..inst.num_nodes).map(|_| g.add_node()).collect();
        for (j, &nid) in node_ids.iter().enumerate().take(inst.num_nodes) {
            let cap_items = (inst.mem_cap[j] / r0.mem_per_item.max(1e-12))
                .min(inst.cpu_cap[j] / (r0.cpu_per_pkt * ratio).max(1e-12));
            let cap = cap_items.min(9e17).floor() as i64;
            g.add_arc(nid, sink, cap.max(0), 0.0);
        }
        // Commodity per (rule, path) with at least one enabled on-path
        // node and a positive volume.
        let mut arcs = Vec::new();
        for (i, ehat_i) in ehat.iter().enumerate().take(inst.rules.len()) {
            for (k, path) in inst.paths.iter().enumerate() {
                let enabled: Vec<usize> = path
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|&(_, n)| ehat_i[n.index()])
                    .map(|(pos, _)| pos)
                    .collect();
                if enabled.is_empty() {
                    continue;
                }
                let supply = path.items.floor().max(0.0) as i64;
                if supply == 0 {
                    continue;
                }
                let c = g.add_node();
                g.add_arc(source, c, supply, 0.0);
                for pos in enabled {
                    let node = path.nodes[pos].index();
                    let a = g.add_arc(c, node_ids[node], supply, 0.0);
                    arcs.push((i, k, pos, a, supply, path.items));
                }
            }
        }
        if obs::enabled() {
            obs::counter("flow.oracle_builds").inc();
        }
        InnerFlowOracle { g, source, sink, arcs }
    }

    /// Solve the sampling LP under `weight`, reusing the built network.
    pub fn solve(&mut self, weight: impl Fn(usize, usize, usize) -> f64) -> SolutionD {
        self.g.reset_flows();
        for &(i, k, pos, a, _, items) in &self.arcs {
            let w = weight(i, k, pos);
            if w > 0.0 {
                // Per-item profit: the objective coefficient divided by
                // the commodity volume.
                self.g.set_cost(a, -(w / items.max(1e-12)));
            } else {
                // Unprofitable this round: price at zero and close the
                // arc (the next reset re-opens it).
                self.g.set_cost(a, 0.0);
                self.g.throttle(a, 0);
            }
        }
        self.g.solve_profitable(self.source, self.sink);
        if obs::enabled() {
            obs::counter("flow.oracle_solves").inc();
        }
        self.extract()
    }

    fn extract(&self) -> SolutionD {
        let mut d: SolutionD = SolutionD::new();
        for &(i, k, pos, a, supply, _) in &self.arcs {
            let f = self.g.flow(a);
            if f > 0 {
                let frac = (f as f64 / supply as f64).min(1.0);
                d.entry((i, k)).or_default().push((pos, frac));
            }
        }
        d
    }

    /// [`Self::solve`] followed by the exact-feasibility rescaling that
    /// the rounding pipeline applies.
    pub fn solve_feasible(
        &mut self,
        inst: &NipsInstance,
        weight: impl Fn(usize, usize, usize) -> f64,
    ) -> SolutionD {
        let mut d = self.solve(weight);
        rescale_into_feasibility(inst, &mut d);
        d
    }
}

/// Exact inner solve via the simplex with lazy coverage rows (general
/// instances; also the cross-check oracle for the flow path).
pub fn solve_inner_simplex(
    inst: &NipsInstance,
    ehat: &[Vec<bool>],
) -> Result<SolutionD, RoundError> {
    solve_inner_simplex_ctx(inst, ehat, &mut SolveContext::new())
}

/// [`solve_inner_simplex`] with a cross-call [`SolveContext`].
///
/// The LP is built over the *full* variable space — one `d_ikj` per
/// (rule, path, pos) with a positive match rate — and the placement is
/// encoded purely in the bounds (`ub = 0` for disabled triples). The
/// problem shape is therefore identical for every placement over the same
/// instance, which is what lets a shared context warm-start the re-solves
/// across rounding trials; the pricing loop skips fixed variables, so the
/// extra columns cost little.
pub fn solve_inner_simplex_ctx(
    inst: &NipsInstance,
    ehat: &[Vec<bool>],
    ctx: &mut SolveContext,
) -> Result<SolutionD, RoundError> {
    let mut p = Problem::new(Sense::Max);
    let mut vars: Vec<(usize, usize, usize, VarId)> = Vec::new();
    let mut mem_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); inst.num_nodes];
    let mut cpu_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); inst.num_nodes];
    let mut cover: std::collections::BTreeMap<(usize, usize), Vec<(VarId, f64)>> =
        std::collections::BTreeMap::new();
    for (i, ehat_i) in ehat.iter().enumerate().take(inst.rules.len()) {
        for (k, path) in inst.paths.iter().enumerate() {
            if inst.match_rates.rate(i, k) <= 0.0 {
                continue;
            }
            for (pos, &node) in path.nodes.iter().enumerate() {
                let ub = if ehat_i[node.index()] { 1.0 } else { 0.0 };
                let v = p.add_var(format!("d_{i}_{k}_{pos}"), 0.0, ub, inst.weight(i, k, pos));
                mem_terms[node.index()].push((v, path.items * inst.rules[i].mem_per_item));
                cpu_terms[node.index()].push((v, path.pkts * inst.rules[i].cpu_per_pkt));
                cover.entry((i, k)).or_default().push((v, 1.0));
                vars.push((i, k, pos, v));
            }
        }
    }
    for j in 0..inst.num_nodes {
        if !mem_terms[j].is_empty() {
            p.add_con(format!("mem_{j}"), &mem_terms[j], Cmp::Le, inst.mem_cap[j]);
            p.add_con(format!("cpu_{j}"), &cpu_terms[j], Cmp::Le, inst.cpu_cap[j]);
        }
    }
    let lazy: Vec<LazyRow> = cover
        .into_iter()
        .map(|((i, k), terms)| LazyRow::new(format!("cov_{i}_{k}"), terms, Cmp::Le, 1.0))
        .collect();
    let res = solve_with_lazy_rows_ctx(&p, &lazy, &RowGenOpts::default(), ctx);
    if res.solution.status != Status::Optimal || !res.converged {
        return Err(RoundError::InnerLpFailed {
            status: res.solution.status,
            converged: res.converged,
        });
    }
    let mut d: SolutionD = SolutionD::new();
    for (i, k, pos, v) in vars {
        let f = res.solution.value(v);
        if f > 1e-9 {
            d.entry((i, k)).or_default().push((pos, f.min(1.0)));
        }
    }
    rescale_into_feasibility(inst, &mut d);
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nips::relax::solve_relaxation;
    use nwdp_topo::{internet2, PathDb};
    use nwdp_traffic::{MatchRates, TrafficMatrix, VolumeModel};

    fn instance(n_rules: usize, cap_frac: f64, seed: u64) -> NipsInstance {
        let t = internet2();
        let paths = PathDb::shortest_paths(&t);
        let tm = TrafficMatrix::gravity(&t);
        let vol = VolumeModel::internet2_baseline();
        let rates = MatchRates::uniform_001(n_rules, paths.all_pairs().count(), seed);
        NipsInstance::evaluation_setup(&t, &paths, &tm, &vol, n_rules, cap_frac, rates)
    }

    #[test]
    fn rounding_produces_feasible_solutions_all_strategies() {
        let inst = instance(10, 0.2, 21);
        let relax = solve_relaxation(&inst, &RowGenOpts::default()).unwrap();
        for strategy in [Strategy::ScaledFig9, Strategy::LpResolve, Strategy::GreedyLpResolve] {
            let opts = RoundingOpts { strategy, iterations: 3, seed: 5, ..Default::default() };
            let sol = round_best_of(&inst, &relax, &opts).unwrap();
            inst.check_feasible(&sol.e, &sol.d, 1e-6)
                .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            assert!(sol.objective >= 0.0);
            assert!(
                sol.objective <= relax.objective * (1.0 + 1e-6),
                "{strategy:?}: rounded {} exceeds OptLP {}",
                sol.objective,
                relax.objective
            );
        }
    }

    #[test]
    fn refinements_dominate_plain_scaling() {
        let inst = instance(10, 0.15, 33);
        let relax = solve_relaxation(&inst, &RowGenOpts::default()).unwrap();
        let run = |strategy| {
            let opts = RoundingOpts { strategy, iterations: 5, seed: 9, ..Default::default() };
            round_best_of(&inst, &relax, &opts).unwrap().objective
        };
        let scaled = run(Strategy::ScaledFig9);
        let resolve = run(Strategy::LpResolve);
        let greedy = run(Strategy::GreedyLpResolve);
        assert!(resolve >= scaled * 0.99, "LP re-solve should beat scaling");
        assert!(greedy >= resolve * 0.999, "greedy should not hurt");
        // Fig 10(b): greedy + LP re-solve lands close to the LP bound.
        assert!(
            greedy >= 0.80 * relax.objective,
            "greedy at {} of OptLP",
            greedy / relax.objective
        );
    }

    #[test]
    fn inner_flow_matches_inner_simplex() {
        // Full TCAM budget: the hand-built placement below is then legal
        // (this test compares the two inner solvers, not the placement).
        let inst = instance(6, 1.0, 77);
        assert!(inst.is_proportional());
        // A deterministic placement: enable rule i on nodes with
        // (i + node) % 3 == 0.
        let ehat: Vec<Vec<bool>> =
            (0..6).map(|i| (0..inst.num_nodes).map(|j| (i + j) % 3 == 0).collect()).collect();
        let df = solve_inner_flow(&inst, &ehat);
        let ds = solve_inner_simplex(&inst, &ehat).unwrap();
        let of = inst.objective(&df);
        let os = inst.objective(&ds);
        // Flow discretizes volumes to integers; allow a small relative gap.
        assert!((of - os).abs() <= 1e-3 * (1.0 + os.abs()), "flow {of} vs simplex {os}");
        inst.check_feasible(&ehat, &df, 1e-6).unwrap();
        inst.check_feasible(&ehat, &ds, 1e-6).unwrap();
    }

    #[test]
    fn empty_placement_drops_nothing() {
        let inst = instance(4, 0.25, 1);
        let ehat = vec![vec![false; inst.num_nodes]; 4];
        let d = solve_inner_flow(&inst, &ehat);
        assert!(d.is_empty());
        assert_eq!(inst.objective(&d), 0.0);
    }

    /// Minimal hand-built instance: `n_rules` unit rules, one node, one
    /// single-node path. `cam_cap` is the node's TCAM budget.
    fn tiny_instance(n_rules: usize, cam_cap: f64) -> NipsInstance {
        use super::super::model::{DistanceModel, NipsRule};
        use nwdp_traffic::MatchRates;
        NipsInstance {
            rules: (0..n_rules)
                .map(|i| NipsRule {
                    name: format!("r{i}"),
                    cam_req: 1.0,
                    cpu_per_pkt: 1.0,
                    mem_per_item: 1.0,
                })
                .collect(),
            paths: vec![super::super::model::NipsPath {
                nodes: vec![nwdp_topo::NodeId(0)],
                items: 1.0,
                pkts: 1.0,
            }],
            num_nodes: 1,
            cam_cap: vec![cam_cap],
            mem_cap: vec![f64::INFINITY],
            cpu_cap: vec![f64::INFINITY],
            dist: DistanceModel::Hops,
            match_rates: MatchRates::zeros(n_rules, 1),
        }
    }

    /// Regression: a NaN gain (zero-volume rule on a zero-traffic path)
    /// used to trip `partial_cmp(..).expect("NaN gain")`; NaN gains now
    /// compare lowest and those rules are dropped first.
    #[test]
    fn enforce_tcam_handles_nan_gains() {
        let inst = tiny_instance(2, 1.0);
        let mut ehat = vec![vec![true], vec![true]];
        let gains = vec![vec![f64::NAN], vec![1.0]];
        let drops = enforce_tcam(&inst, &mut ehat, &gains).unwrap();
        assert_eq!(drops, 1);
        assert!(!ehat[0][0], "the NaN-gain rule must be dropped first");
        assert!(ehat[1][0]);
    }

    /// Regression: NaN gains in the greedy-fill sort also panicked; they
    /// are now filtered out of the candidate list entirely.
    #[test]
    fn greedy_fill_skips_non_finite_gains() {
        let inst = tiny_instance(2, 1.0);
        let lay = crate::nips::relax::Layout::new(&inst);
        let mut ehat = vec![vec![false], vec![false]];
        let gains = vec![vec![f64::NAN], vec![2.0]];
        let fills = greedy_fill(&inst, &lay, &mut ehat, &gains);
        assert_eq!(fills, 1);
        assert!(!ehat[0][0], "non-finite gains are never filled");
        assert!(ehat[1][0]);
    }

    /// Regression: a node over TCAM with nothing left to disable used to
    /// trip `expect("over TCAM with no enabled rules")`.
    #[test]
    fn negative_tcam_yields_typed_error() {
        let inst = tiny_instance(2, -1.0);
        let mut ehat = vec![vec![false], vec![false]];
        let err = enforce_tcam(&inst, &mut ehat, &[vec![1.0], vec![1.0]]).unwrap_err();
        assert_eq!(err, RoundError::TcamInfeasible { node: 0 });
    }

    /// The typed error propagates through the full `round_best_of` fan-out
    /// instead of aborting the process.
    #[test]
    fn round_best_of_propagates_tcam_error() {
        let mut inst = instance(4, 0.25, 1);
        let relax = solve_relaxation(&inst, &RowGenOpts::default()).unwrap();
        inst.cam_cap = vec![-1.0; inst.num_nodes];
        let opts = RoundingOpts { iterations: 3, seed: 7, ..Default::default() };
        let err = round_best_of(&inst, &relax, &opts).unwrap_err();
        assert!(matches!(err, RoundError::TcamInfeasible { .. }));
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = instance(8, 0.2, 4);
        let relax = solve_relaxation(&inst, &RowGenOpts::default()).unwrap();
        let opts = RoundingOpts { iterations: 2, seed: 123, ..Default::default() };
        let a = round_best_of(&inst, &relax, &opts).unwrap();
        let b = round_best_of(&inst, &relax, &opts).unwrap();
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.e, b.e);
    }
}
