//! `nips`: the NIPS planning pipeline (paper §3.4, one Fig 10 cell).
//!
//! Internet2 with 100 rules at rule capacity 0.15 and match rates drawn
//! from U[0, 0.01]. Each scenario solves the LP relaxation by row
//! generation (`solve_relaxation`), then rounds it (`round_best_of`,
//! greedy + LP re-solve, best of 10) at 2 threads. There is no data
//! plane. Every scenario's rounded placement must be feasible, reach 92 %
//! of OptLP, and the relaxation's OptLP is certified independently: the
//! benchmark rebuilds the full LP, re-solves it by its own cutting-plane
//! loop, checks that optimum with `nwdp-lp`'s KKT checker, and requires
//! the relaxation's point to be feasible for every row at that objective.

use crate::report::{self, Report};
use crate::spans::Recorder;
use crate::{timed_passes, Args};
use nwdp_core::nips::{
    round_best_of, solve_relaxation, NipsInstance, NipsSolution, RelaxSolution, RoundingOpts,
    Strategy,
};
use nwdp_core::parallel;
use nwdp_lp::rowgen::RowGenOpts;
use nwdp_lp::{solve_warm, verify_kkt, Cmp, KktTol, Problem, Sense, SolverOpts, Status, VarId};
use nwdp_obs as obs;
use nwdp_topo::{internet2, PathDb};
use nwdp_traffic::{MatchRates, TrafficMatrix, VolumeModel};
use std::time::Instant;

pub const RULES: usize = 100;
pub const RULE_CAP: f64 = 0.15;
pub const ROUNDING_ITERATIONS: usize = 10;
pub const THREADS: usize = 2;
/// The paper's quality floor: rounding reaches ≥ 92 % of OptLP.
pub const MIN_LP_FRAC: f64 = 0.92;
/// Scenario instances built in set-up; a run plans them in order.
const POOL: usize = 32;
/// Set-ups per run: building the pool takes only milliseconds, so many
/// repetitions keep its median clear of scheduling noise.
const SETUP_REPS: usize = 15;

pub fn params() -> Vec<(&'static str, String)> {
    vec![
        ("topology", "internet2".into()),
        ("rules", RULES.to_string()),
        ("rule_cap", RULE_CAP.to_string()),
        ("match_rates", "uniform [0, 0.01]".into()),
        ("strategy", "greedy + LP re-solve".into()),
        ("rounding_iterations", ROUNDING_ITERATIONS.to_string()),
        ("threads", THREADS.to_string()),
    ]
}

/// Seed of scenario `k` of a run with seed `seed`.
fn scenario_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k as u64)
}

fn instance(rates_seed: u64) -> NipsInstance {
    let topo = internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::scaled_for(&topo);
    let rates = MatchRates::uniform_001(RULES, paths.all_pairs().count(), rates_seed);
    NipsInstance::evaluation_setup(&topo, &paths, &tm, &vol, RULES, RULE_CAP, rates)
}

fn rounding(rates_seed: u64) -> RoundingOpts {
    RoundingOpts {
        strategy: Strategy::GreedyLpResolve,
        iterations: ROUNDING_ITERATIONS,
        seed: rates_seed.wrapping_mul(31).wrapping_add(1),
        ..Default::default()
    }
}

struct Plan {
    relax: RelaxSolution,
    rounded: NipsSolution,
}

/// Relaxation then rounding, each optionally inside a span.
fn plan(
    inst: &NipsInstance,
    rates_seed: u64,
    rec: Option<(&Recorder, Option<u32>)>,
) -> Result<Plan, String> {
    let span = |name, f: &mut dyn FnMut()| match rec {
        Some((r, p)) => r.time(name, p, f),
        None => f(),
    };
    parallel::with_threads(THREADS, || {
        let mut relax = None;
        span("nips.solve_relaxation", &mut || {
            relax = Some(solve_relaxation(inst, &RowGenOpts::default()));
        });
        let relax = relax.expect("ran").map_err(|e| format!("relaxation: {e}"))?;
        let mut rounded = None;
        span("nips.round_best_of", &mut || {
            rounded = Some(round_best_of(inst, &relax, &rounding(rates_seed)));
        });
        let rounded = rounded.expect("ran").map_err(|e| format!("rounding: {e:?}"))?;
        Ok(Plan { relax, rounded })
    })
}

fn lp_frac(p: &Plan) -> f64 {
    p.rounded.objective / p.relax.objective
}

/// A `≤` row kept out of the LP until it binds: `(terms, rhs)`.
type LazyRow = (Vec<(VarId, f64)>, f64);

/// The full relaxation LP: eager resource rows plus the lazy pool of
/// coverage and VUB rows, variables in the relaxation's layout order
/// (e by rule × node, then d by rule × path position).
fn relaxation_lp(inst: &NipsInstance) -> (Problem, Vec<LazyRow>) {
    let n = inst.num_nodes;
    let mut p = Problem::new(Sense::Max);
    let e: Vec<_> =
        (0..inst.rules.len() * n).map(|v| p.add_var(format!("e{v}"), 0.0, 1.0, 0.0)).collect();
    let mut d = Vec::new();
    for i in 0..inst.rules.len() {
        for (k, path) in inst.paths.iter().enumerate() {
            for pos in 0..path.nodes.len() {
                d.push(p.add_var(format!("d{i}_{k}_{pos}"), 0.0, 1.0, inst.weight(i, k, pos)));
            }
        }
    }
    let mut mem = vec![Vec::new(); n];
    let mut cpu = vec![Vec::new(); n];
    let mut lazy = Vec::new();
    let mut at = 0;
    for (i, rule) in inst.rules.iter().enumerate() {
        for path in &inst.paths {
            let cover: Vec<_> = (0..path.nodes.len()).map(|pos| (d[at + pos], 1.0)).collect();
            lazy.push((cover, 1.0));
            for (pos, node) in path.nodes.iter().enumerate() {
                let v = d[at + pos];
                mem[node.index()].push((v, path.items * rule.mem_per_item));
                cpu[node.index()].push((v, path.pkts * rule.cpu_per_pkt));
                lazy.push((vec![(v, 1.0), (e[i * n + node.index()], -1.0)], 0.0));
            }
            at += path.nodes.len();
        }
    }
    for j in 0..n {
        let cam: Vec<_> =
            (0..inst.rules.len()).map(|i| (e[i * n + j], inst.rules[i].cam_req)).collect();
        for (terms, cap) in [
            (cam, inst.cam_cap[j]),
            (mem[j].clone(), inst.mem_cap[j]),
            (cpu[j].clone(), inst.cpu_cap[j]),
        ] {
            if cap.is_finite() {
                p.add_con(format!("cap{j}"), &terms, Cmp::Le, cap);
            }
        }
    }
    (p, lazy)
}

fn activity(terms: &[(VarId, f64)], x: &[f64]) -> f64 {
    terms.iter().map(|&(v, c)| c * x[v.index()]).sum()
}

/// Certify the relaxation's OptLP (see the module docs).
fn certify(inst: &NipsInstance, relax: &RelaxSolution) -> Result<(), String> {
    let (mut p, lazy) = relaxation_lp(inst);
    let x: Vec<f64> = relax.e.iter().chain(&relax.d).copied().collect();
    let scale = inst
        .mem_cap
        .iter()
        .chain(&inst.cpu_cap)
        .filter(|c| c.is_finite())
        .fold(1.0, |a: f64, &c| a.max(c));
    if p.max_violation(&x) > 1e-6 * scale {
        return Err(format!("relaxation point violates a resource row by {}", p.max_violation(&x)));
    }
    if lazy.iter().any(|(t, rhs)| activity(t, &x) > rhs + 1e-6) {
        return Err("relaxation point violates a coverage or VUB row".into());
    }
    let opts = SolverOpts { dense_row_limit: 0, ..SolverOpts::default() };
    let mut active = vec![false; lazy.len()];
    let mut warm = None;
    for _ in 0..200 {
        let (sol, snap) = solve_warm(&p, &opts, warm.as_ref());
        if sol.status != Status::Optimal {
            return Err(format!("certifying LP ended {:?}", sol.status));
        }
        let near: Vec<usize> = (0..lazy.len())
            .filter(|&r| !active[r] && activity(&lazy[r].0, &sol.x) > lazy[r].1 - 0.25)
            .collect();
        if near.iter().all(|&r| activity(&lazy[r].0, &sol.x) <= lazy[r].1 + 1e-7) {
            verify_kkt(&p, &sol, KktTol::default()).map_err(|e| format!("KKT: {e}"))?;
            let gap = (sol.objective - relax.objective).abs();
            if gap > 1e-6 * relax.objective.abs().max(1.0) {
                return Err(format!(
                    "certified OptLP {} vs relaxation {}",
                    sol.objective, relax.objective
                ));
            }
            return Ok(());
        }
        for r in near {
            active[r] = true;
            p.add_con(format!("lazy{r}"), &lazy[r].0, Cmp::Le, lazy[r].1);
        }
        warm = snap;
    }
    Err("certifying cutting-plane loop did not converge".into())
}

fn check(inst: &NipsInstance, plan: &Plan) -> Result<(), String> {
    inst.check_feasible(&plan.rounded.e, &plan.rounded.d, 1e-6)
        .map_err(|e| format!("rounded placement infeasible: {e}"))?;
    if lp_frac(plan) < MIN_LP_FRAC {
        return Err(format!("rounding reached {:.4} of OptLP (< {MIN_LP_FRAC})", lp_frac(plan)));
    }
    certify(inst, &plan.relax)
}

pub fn run(args: &Args, rep: &mut Report) {
    // Set-up builds the run's scenario instances; the timed loop plans
    // them in order until its time is up.
    let pool = crate::setup_median(rep, SETUP_REPS, || {
        (0..POOL).map(|k| scenario_seed(args.seed, k)).map(|s| (s, instance(s))).collect::<Vec<_>>()
    });

    let mut fracs = Vec::new();
    let mut first: Option<(u64, f64, f64, f64)> = None;
    let walls = timed_passes(args.untraced_seconds(), |k| {
        let (seed, inst) = &pool[k % POOL];
        let t0 = Instant::now();
        let result = plan(inst, *seed, None);
        let wall = t0.elapsed().as_secs_f64();
        match result {
            Ok(p) => {
                rep.check("nips scenario", check(inst, &p));
                fracs.push(lp_frac(&p));
                first.get_or_insert((*seed, p.relax.objective, p.rounded.objective, wall));
            }
            Err(e) => rep.check("nips scenario", Err(e)),
        }
        wall
    });
    // Scenarios differ in difficulty: the rate is scenarios over the
    // total time spent planning them.
    rep.metric("work_per_s", walls.len() as f64 / walls.iter().sum::<f64>(), "1/s");
    rep.median("plan_quality", &fracs, "ratio");
    if !args.trace {
        return;
    }
    let Some((seed, relax_obj, round_obj, untraced_wall)) = first else { return };

    // Traced: the first scenario again, instance build and both stages
    // inside spans, with the metrics registry on.
    let rec = Recorder::new(args.seed as u32);
    obs::set_enabled(true);
    let before = report::counters();
    let root = rec.start("bench.traced", None);
    let rid = Some(root.id());
    let inst = rec.time("nips.instance", rid, || instance(seed));
    let t0 = Instant::now();
    let traced = plan(&inst, seed, Some((&rec, rid)));
    let traced_wall = t0.elapsed().as_secs_f64();
    rec.end(root);
    let after = report::counters();
    obs::set_enabled(false);
    rep.check(
        "nips traced scenario",
        traced.and_then(|p| {
            if p.relax.objective == relax_obj && p.rounded.objective == round_obj {
                Ok(())
            } else {
                Err(format!(
                    "traced objectives {} / {} vs {relax_obj} / {round_obj}",
                    p.relax.objective, p.rounded.objective
                ))
            }
        }),
    );
    let spans = rec.take();
    crate::write_spans(args, &spans);
    rep.layers(&spans, "bench.traced");
    report::counter_metrics(
        rep,
        &before,
        &after,
        &[
            "rowgen.rounds",
            "rowgen.rows_added",
            "round.trials",
            "round.lp_resolves",
            "flow.oracle_solves",
        ],
    );
    report::counter_metrics(rep, &before, &after, crate::SIMPLEX_COUNTERS);
    rep.metric("trace.overhead_share", traced_wall / untraced_wall - 1.0, "ratio");
}
