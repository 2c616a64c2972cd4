//! What-if provisioning analysis (paper §5, "Provisioning and Upgrades").
//!
//! "We can also extend the formulations to describe what-if provisioning
//! scenarios: where should an administrator add more resources or augment
//! existing deployments with more powerful hardware." This module answers
//! that question by finite differences on the optimization: re-solve with
//! one node's capacity scaled up and report the reduction in the bottleneck
//! load (NIDS) or the gain in dropped-traffic footprint (NIPS TCAM slots).

use crate::nids::lp::{solve_nids_lp_warm, NidsLpConfig};
use crate::nips::model::NipsInstance;
use crate::nips::relax::{solve_relaxation_ctx, RelaxSolution};
use crate::units::NidsDeployment;
use nwdp_lp::rowgen::{RowGenOpts, SolveContext};

/// Index of the largest finite gain (ties resolved as `Iterator::max_by`:
/// last maximal element; NaN/∞ gains compare lowest, so a sweep poisoned
/// by a degenerate re-solve still picks the best well-defined node
/// instead of panicking).
fn best_gain_node(gains: &[f64]) -> usize {
    let finite_or_min = |g: f64| if g.is_finite() { g } else { f64::NEG_INFINITY };
    gains
        .iter()
        .enumerate()
        .max_by(|a, b| finite_or_min(*a.1).total_cmp(&finite_or_min(*b.1)))
        .map(|(j, _)| j)
        .unwrap_or(0)
}

/// Marginal value of upgrading each node's NIDS hardware.
#[derive(Debug, Clone)]
pub struct NidsUpgradePlan {
    /// Baseline optimal max-load.
    pub base_max_load: f64,
    /// `gain[j]` = reduction in optimal max-load when node `j`'s CPU and
    /// memory are both scaled by the upgrade factor.
    pub gain: Vec<f64>,
    /// Node index with the largest gain (ties → lowest index).
    pub best_node: usize,
}

/// Evaluate upgrading each node in turn by `factor` (e.g. 2.0 = double
/// capacity) and re-solving the NIDS LP.
pub fn nids_upgrade_plan(
    dep: &NidsDeployment,
    cfg: &NidsLpConfig,
    factor: f64,
) -> Result<NidsUpgradePlan, crate::nids::lp::NidsError> {
    assert!(factor > 1.0, "an upgrade must increase capacity");
    // Chain the column pool through the sweep: each re-solve changes only
    // one node's capacities, so the previous optimum's assignments,
    // re-costed, seed the master close to the new optimum.
    let (base, mut pool) = solve_nids_lp_warm(dep, cfg, None)?;
    let mut gain = Vec::with_capacity(dep.num_nodes);
    for j in 0..dep.num_nodes {
        let mut c = cfg.clone();
        c.caps[j].cpu *= factor;
        c.caps[j].mem *= factor;
        let (up, next) = solve_nids_lp_warm(dep, &c, Some(&pool))?;
        pool = next;
        gain.push((base.max_load - up.max_load).max(0.0));
    }
    let best_node = best_gain_node(&gain);
    Ok(NidsUpgradePlan { base_max_load: base.max_load, gain, best_node })
}

/// Marginal value (in LP-bound units) of adding TCAM slots per node.
#[derive(Debug, Clone)]
pub struct NipsUpgradePlan {
    pub base_objective: f64,
    /// `gain[j]` = increase in `OptLP` when node `j` gets `extra_slots`
    /// more TCAM entries.
    pub gain: Vec<f64>,
    pub best_node: usize,
}

/// Evaluate adding `extra_slots` TCAM entries to each node in turn.
///
/// Uses the LP relaxation as the (tight, per Fig 10) proxy for deployment
/// value, keeping the what-if sweep fast.
pub fn nips_tcam_plan(
    inst: &NipsInstance,
    base: &RelaxSolution,
    extra_slots: f64,
    opts: &RowGenOpts,
) -> NipsUpgradePlan {
    let mut gain = Vec::with_capacity(inst.num_nodes);
    // The per-node what-if instances differ only in one TCAM row's
    // right-hand side, so the relaxation context (basis + binding lazy
    // rows) carries across the whole sweep.
    let mut ctx = SolveContext::new();
    for j in 0..inst.num_nodes {
        let mut inst2 = inst.clone();
        inst2.cam_cap[j] += extra_slots;
        let up = solve_relaxation_ctx(&inst2, opts, &mut ctx)
            .map(|s| s.objective)
            .unwrap_or(base.objective);
        gain.push((up - base.objective).max(0.0));
    }
    let best_node = best_gain_node(&gain);
    NipsUpgradePlan { base_objective: base.objective, gain, best_node }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AnalysisClass;
    use crate::nids::lp::NodeCaps;
    use crate::nips::solve_relaxation;
    use crate::units::build_units;
    use nwdp_topo::{internet2, PathDb};
    use nwdp_traffic::{MatchRates, TrafficMatrix, VolumeModel};

    #[test]
    fn nids_upgrade_prefers_a_bottleneck_node() {
        let t = internet2();
        let paths = PathDb::shortest_paths(&t);
        let tm = TrafficMatrix::gravity(&t);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&t, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let plan = nids_upgrade_plan(&dep, &cfg, 2.0).unwrap();
        assert_eq!(plan.gain.len(), 11);
        assert!(plan.gain.iter().all(|&g| g >= 0.0));
        // Upgrading SOME node must help (the LP is capacity-bound).
        assert!(plan.gain[plan.best_node] > 0.0);
    }

    /// Regression: a NaN gain (degenerate what-if re-solve) used to trip
    /// `partial_cmp(..).expect("NaN gain")`; NaN now compares lowest.
    #[test]
    fn best_gain_node_tolerates_nan() {
        assert_eq!(best_gain_node(&[f64::NAN, 2.0, 1.0]), 1);
        assert_eq!(best_gain_node(&[f64::NAN, f64::NAN]), 1);
        assert_eq!(best_gain_node(&[]), 0);
        assert_eq!(best_gain_node(&[f64::INFINITY, 3.0]), 1, "non-finite compares lowest");
    }

    #[test]
    fn nips_tcam_upgrade_monotone() {
        let t = internet2();
        let paths = PathDb::shortest_paths(&t);
        let tm = TrafficMatrix::gravity(&t);
        let vol = VolumeModel::internet2_baseline();
        let rates = MatchRates::uniform_001(6, paths.all_pairs().count(), 2);
        let inst = NipsInstance::evaluation_setup(&t, &paths, &tm, &vol, 6, 0.17, rates);
        let opts = RowGenOpts::default();
        let base = solve_relaxation(&inst, &opts).unwrap();
        let plan = nips_tcam_plan(&inst, &base, 1.0, &opts);
        assert!(plan.gain.iter().all(|&g| g >= 0.0));
        assert!(plan.base_objective > 0.0);
    }
}
