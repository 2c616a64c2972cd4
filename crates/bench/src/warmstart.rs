//! Cold-vs-warm comparison for the repeated-solve loops (ISSUE 3).
//!
//! Three hot loops re-solve near-identical LPs:
//!
//! - the FPL online game (one oracle solve per epoch, weights change),
//! - the `GreedyLpResolve` rounding refinement (one inner LP per trial,
//!   bounds change),
//! - the what-if provisioning sweeps (one LP per node, coefficients
//!   change).
//!
//! Each comparison runs the loop cold (every solve from scratch) and warm
//! (basis / network / context reuse), asserts the objectives agree to
//! 1e-9, and reports the wall-clock and simplex-iteration delta.

use crate::output::{f2, Table};
use nwdp_core::nids::{simplex_oracle, NidsLpConfig, NodeCaps};
use nwdp_core::nips::{round_best_of, solve_relaxation, NipsInstance, RoundingOpts, Strategy};
use nwdp_core::provision::nids_upgrade_plan;
use nwdp_core::{build_units, AnalysisClass};
use nwdp_lp::rowgen::RowGenOpts;
use nwdp_lp::WarmStart;
use nwdp_obs as obs;
use nwdp_online::adversary::StochasticUniform;
use nwdp_online::fpl::{run_fpl, FplConfig};
use nwdp_topo::{internet2, PathDb};
use nwdp_traffic::{MatchRates, TrafficMatrix, VolumeModel};
use std::time::Instant;

/// One cold-vs-warm measurement.
#[derive(Debug, Clone)]
pub struct WarmComparison {
    pub what: String,
    pub cold_secs: f64,
    pub warm_secs: f64,
    /// Total simplex iterations (0 when the loop uses the flow oracle).
    pub cold_iters: u64,
    pub warm_iters: u64,
    /// Absolute objective difference between the two runs (must be ≤1e-9
    /// relative; asserted before returning).
    pub objective_delta: f64,
    /// Warm-basis attempts accepted / fallen back during the warm run
    /// (both 0 for loops that reuse something other than a basis).
    pub warm_hits: u64,
    pub warm_fallbacks: u64,
    /// Dual-repair pivots spent during the warm run.
    pub dual_pivots: u64,
    pub detail: String,
}

impl WarmComparison {
    pub fn speedup(&self) -> f64 {
        self.cold_secs / self.warm_secs.max(1e-12)
    }
}

fn counter_snapshot(prefix: &str) -> u64 {
    obs::snapshot()
        .iter()
        .filter_map(|(name, v)| match v {
            obs::SnapshotValue::Counter(c) if name.starts_with(prefix) => Some(*c),
            _ => None,
        })
        .sum()
}

fn simplex_iterations_snapshot() -> u64 {
    counter_snapshot("simplex.iterations")
}

/// Run `f` with metrics on, returning (value, seconds, simplex iterations).
fn measured<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let was = obs::enabled();
    obs::set_enabled(true);
    let before = simplex_iterations_snapshot();
    let start = Instant::now();
    let v = f();
    let secs = start.elapsed().as_secs_f64();
    let iters = simplex_iterations_snapshot() - before;
    obs::set_enabled(was);
    (v, secs, iters)
}

fn eval_instance(n_rules: usize, cap_frac: f64, seed: u64) -> NipsInstance {
    let t = internet2();
    let paths = PathDb::shortest_paths(&t);
    let tm = TrafficMatrix::gravity(&t);
    let vol = VolumeModel::internet2_baseline();
    let rates = MatchRates::uniform_001(n_rules, paths.all_pairs().count(), seed);
    NipsInstance::evaluation_setup(&t, &paths, &tm, &vol, n_rules, cap_frac, rates)
}

/// FPL online game, `epochs` epochs: fresh flow network per oracle solve
/// (cold) vs one network re-priced per epoch (warm). Results are
/// bit-identical by construction; the assert pins that.
pub fn fpl_cold_vs_warm(epochs: usize, n_rules: usize, seed: u64) -> WarmComparison {
    let mut inst = eval_instance(n_rules, 1.0, seed);
    inst.cam_cap = vec![f64::INFINITY; inst.num_nodes];
    let run = |reuse: bool| {
        let mut adv = StochasticUniform::new(n_rules, inst.paths.len(), 0.01, seed ^ 0x5eed);
        let cfg = FplConfig { epochs, seed, reuse_oracle: reuse, ..Default::default() };
        run_fpl(&inst, &mut adv, &cfg).expect("valid config")
    };
    let (cold, cold_secs, cold_iters) = measured(|| run(false));
    let (warm, warm_secs, warm_iters) = measured(|| run(true));
    let cold_total: f64 = cold.fpl_value.iter().sum();
    let warm_total: f64 = warm.fpl_value.iter().sum();
    let delta = (cold_total - warm_total).abs();
    assert!(
        delta <= 1e-9 * (1.0 + cold_total.abs()),
        "FPL warm/cold objectives diverged: {cold_total} vs {warm_total}"
    );
    WarmComparison {
        what: format!("FPL {epochs} epochs ({n_rules} rules)"),
        cold_secs,
        warm_secs,
        cold_iters,
        warm_iters,
        objective_delta: delta,
        warm_hits: 0,
        warm_fallbacks: 0,
        dual_pivots: 0,
        detail: format!("flow-oracle reuse, total value {warm_total:.1}"),
    }
}

/// GreedyLpResolve rounding, `iterations` trials, on a NON-proportional
/// instance (so the inner LP goes through the simplex, not the flow fast
/// path): cold slack-basis solves vs shared-baseline warm starts.
pub fn rounding_cold_vs_warm(iterations: usize, n_rules: usize, seed: u64) -> WarmComparison {
    let mut inst = eval_instance(n_rules, 0.4, seed);
    // Heterogeneous per-rule requirements defeat `is_proportional`,
    // forcing the simplex inner path the warm starts target.
    for (i, r) in inst.rules.iter_mut().enumerate() {
        r.cpu_per_pkt *= 1.0 + 0.15 * i as f64;
        r.mem_per_item *= 1.0 + 0.10 * i as f64;
    }
    assert!(!inst.is_proportional());
    let relax = solve_relaxation(&inst, &RowGenOpts::default()).expect("relaxation solves");
    let run = |warm: bool| {
        let opts = RoundingOpts {
            strategy: Strategy::GreedyLpResolve,
            iterations,
            seed,
            warm_start: warm,
        };
        round_best_of(&inst, &relax, &opts).expect("rounding solves")
    };
    let (cold, cold_secs, cold_iters) = measured(|| run(false));
    let hits0 = counter_snapshot("simplex.warmstart_hits");
    let falls0 = counter_snapshot("simplex.warmstart_fallbacks");
    let duals0 = counter_snapshot("simplex.dual_pivots");
    let (warm, warm_secs, warm_iters) = measured(|| run(true));
    let warm_hits = counter_snapshot("simplex.warmstart_hits") - hits0;
    let warm_fallbacks = counter_snapshot("simplex.warmstart_fallbacks") - falls0;
    let dual_pivots = counter_snapshot("simplex.dual_pivots") - duals0;
    let delta = (cold.objective - warm.objective).abs();
    assert!(
        delta <= 1e-9 * (1.0 + cold.objective.abs()),
        "rounding warm/cold objectives diverged: {} vs {}",
        cold.objective,
        warm.objective
    );
    WarmComparison {
        what: format!("GreedyLpResolve x{iterations} ({n_rules} rules)"),
        cold_secs,
        warm_secs,
        cold_iters,
        warm_iters,
        objective_delta: delta,
        warm_hits,
        warm_fallbacks,
        dual_pivots,
        detail: format!("shared-baseline basis, best {:.1}", warm.objective),
    }
}

/// NIDS what-if upgrade sweep (one LP re-solve per node) on the
/// [`simplex_oracle`]: cold solves vs the basis chained through the sweep.
///
/// Production solves the NIDS LP by decomposition (`nids_upgrade_plan`
/// chains a column pool); this comparison keeps the one-piece simplex
/// formulation because it is the dual-phase showcase. Upgrading a node
/// rescales that node's constraint coefficients, which perturbs the basic
/// values far past primal feasibility; the old basis stays dual feasible
/// under the rescaled columns, and the dual simplex phase repairs it in
/// place, so every step of the sweep is a warm-start hit.
/// `warm_hits` / `warm_fallbacks` / `dual_pivots` report the repair
/// economics, and the chained sweep must match cold objectives exactly,
/// as must the production plan's baseline.
pub fn provisioning_cold_vs_warm(factor: f64) -> WarmComparison {
    let t = internet2();
    let paths = PathDb::shortest_paths(&t);
    let tm = TrafficMatrix::gravity(&t);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&t, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let upgraded = |j: usize| {
        let mut c = cfg.clone();
        c.caps[j].cpu *= factor;
        c.caps[j].mem *= factor;
        c
    };
    let oracle = |c: &NidsLpConfig, warm: Option<&WarmStart>| {
        let (a, basis, _) = simplex_oracle(&dep, c, &[], warm).expect("solves");
        (a.max_load, basis)
    };
    // One sweep: the baseline, then each node upgraded in turn, with or
    // without the basis chained. Returns (baseline, best gain).
    let sweep = |chain: bool| {
        let (base, mut basis) = oracle(&cfg, None);
        let mut best = 0.0f64;
        for j in 0..dep.num_nodes {
            let warm = if chain { basis.as_ref() } else { None };
            let (up, next) = oracle(&upgraded(j), warm);
            basis = next;
            best = best.max(base - up);
        }
        (base, best)
    };
    let (cold, cold_secs, cold_iters) = measured(|| sweep(false));
    let hits0 = counter_snapshot("simplex.warmstart_hits");
    let falls0 = counter_snapshot("simplex.warmstart_fallbacks");
    let duals0 = counter_snapshot("simplex.dual_pivots");
    let (warm, warm_secs, warm_iters) = measured(|| sweep(true));
    let hits = counter_snapshot("simplex.warmstart_hits") - hits0;
    let fallbacks = counter_snapshot("simplex.warmstart_fallbacks") - falls0;
    let dual_pivots = counter_snapshot("simplex.dual_pivots") - duals0;
    let delta = (cold.0 - warm.0).abs().max((cold.1 - warm.1).abs());
    assert!(
        delta <= 1e-9 * (1.0 + cold.0.abs()),
        "provisioning warm/cold sweeps diverged: {cold:?} vs {warm:?}"
    );
    let plan = nids_upgrade_plan(&dep, &cfg, factor).expect("solves");
    let plan_best = plan.gain[plan.best_node];
    assert!(
        (plan.base_max_load - cold.0).abs().max((plan_best - cold.1).abs()) <= 1e-9 * cold.0,
        "decomposition plan ({}, {plan_best}) vs simplex {cold:?}",
        plan.base_max_load
    );
    WarmComparison {
        what: format!("NIDS upgrade sweep ({} nodes, simplex oracle)", dep.num_nodes),
        cold_secs,
        warm_secs,
        cold_iters,
        warm_iters,
        objective_delta: delta,
        warm_hits: hits,
        warm_fallbacks: fallbacks,
        dual_pivots,
        detail: format!(
            "basis chained across {} re-solves ({hits} warm hits, {fallbacks} fallbacks)",
            dep.num_nodes
        ),
    }
}

pub fn table(results: &[WarmComparison]) -> Table {
    let mut t = Table::new(
        "Warm-start: cold vs warm repeated solves (objectives equal to 1e-9)",
        &[
            "what",
            "cold s",
            "warm s",
            "speedup",
            "cold iters",
            "warm iters",
            "hits",
            "fallbacks",
            "dual pivots",
            "detail",
        ],
    );
    for r in results {
        t.row(vec![
            r.what.clone(),
            f2(r.cold_secs),
            f2(r.warm_secs),
            format!("{:.2}x", r.speedup()),
            r.cold_iters.to_string(),
            r.warm_iters.to_string(),
            r.warm_hits.to_string(),
            r.warm_fallbacks.to_string(),
            r.dual_pivots.to_string(),
            r.detail.clone(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpl_comparison_objectives_agree() {
        let c = obs::scoped(&obs::Recorder::new(), || fpl_cold_vs_warm(10, 3, 5));
        assert!(c.objective_delta <= 1e-9);
    }

    #[test]
    fn rounding_comparison_objectives_agree() {
        let c = obs::scoped(&obs::Recorder::new(), || rounding_cold_vs_warm(3, 5, 9));
        assert_eq!(c.objective_delta, 0.0, "same trials, same optima");
        assert!(c.cold_iters > 0, "simplex path must be exercised");
    }
}
