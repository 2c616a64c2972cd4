//! Node-failure resilience: detection, manifest repair, and graceful
//! degradation under overload.
//!
//! The paper's architecture compiles all coordination into static
//! per-node sampling manifests — powerful precisely because nodes never
//! talk to each other at runtime, but brittle for the same reason: a
//! crashed node leaves its hash ranges silently unobserved until an
//! out-of-band mechanism notices and reacts. This subsystem supplies that
//! mechanism:
//!
//! - [`scenario`] — failure modes and deterministic seeded injection
//!   schedules on the replay-fraction clock,
//! - [`health`] — heartbeat detection windows and coverage-over-time
//!   accounting,
//! - [`repair`] — the greedy fast path (exact range arithmetic with a
//!   provable load bound) and the warm-started LP slow path,
//! - [`degrade`] — deterministic value-ordered load shedding when
//!   capacity, not coverage, is what ran out.
//!
//! [`simulate_node_failure`] strings them together for tests and the
//! `repro resilience` harness, exporting `resilience.*` metrics through
//! `nwdp-obs` when collection is enabled.

pub mod degrade;
pub mod faultplan;
pub mod health;
pub mod repair;
pub mod scenario;

pub use degrade::{distance_weighted_values, shed_overload, DegradeOutcome, ShedAction};
pub use faultplan::{FaultPlan, LinkFault, Partition};
pub use health::{FailureTimeline, HealthConfig, HealthConfigError, HeartbeatMonitor};
pub use repair::{greedy_repair, lp_repair, manifest_loads, LpRepair, RepairOutcome};
pub use scenario::{FailureKind, FailureScenario, FailureSchedule};

use crate::nids::lp::NodeCaps;
use crate::nids::manifest::SamplingManifest;
use crate::units::NidsDeployment;
use nwdp_obs as obs;
use nwdp_topo::NodeId;

/// Traffic-weighted fraction of coverage lost when `blind` nodes observe
/// nothing: for every unit, the exact measure of hash space covered by
/// **no** sighted node, weighted by the unit's packet rate. Computed by
/// the same elementary-interval sweep as `verify_coverage`, so a
/// gap narrower than a grid cell cannot hide.
pub fn manifest_gap_fraction(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    blind: &[NodeId],
) -> f64 {
    let mut lost = 0.0;
    let mut total = 0.0;
    for (u, unit) in dep.units.iter().enumerate() {
        total += unit.pkts;
        let mut gap = 0.0;
        for (a, b) in manifest.elementary_intervals(dep, u) {
            let h = 0.5 * (a + b);
            let sighted =
                unit.nodes.iter().any(|&j| !blind.contains(&j) && manifest.should_analyze(u, j, h));
            if !sighted {
                gap += b - a;
            }
        }
        lost += gap.min(1.0) * unit.pkts;
    }
    if total > 0.0 {
        lost / total
    } else {
        0.0
    }
}

/// Convenience: `1 - manifest_gap_fraction`.
pub fn covered_fraction(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    blind: &[NodeId],
) -> f64 {
    1.0 - manifest_gap_fraction(dep, manifest, blind)
}

/// One simulated failure end to end: detect, repair, account.
#[derive(Debug, Clone)]
pub struct FailureReport {
    pub node: NodeId,
    pub timeline: FailureTimeline,
    pub repair: RepairOutcome,
}

/// Simulate a crash of `node` at replay fraction `at`: the health check
/// detects it after its configured window, the greedy fast path repairs
/// the manifest, and the timeline records the exact traffic-weighted
/// coverage gap during the blind window and the residual gap after
/// repair.
///
/// Exports (when `obs` collection is on): `resilience.repairs`,
/// `resilience.repair_ns`, `resilience.units_repaired`,
/// `resilience.units_unrecoverable`, `resilience.moved_measure`,
/// `resilience.coverage_gap`, `resilience.residual_gap`.
pub fn simulate_node_failure(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    caps: &[NodeCaps],
    node: NodeId,
    at: f64,
    health: &HealthConfig,
) -> FailureReport {
    let detected_at = health.detect_at(at);
    let blind_gap = manifest_gap_fraction(dep, manifest, &[node]);
    let _span = obs::span!("resilience.repair", node = node.0, fail_at = at);
    let t0 = obs::now_if_enabled();
    let repair = greedy_repair(dep, manifest, caps, &[node]);
    let residual_gap = manifest_gap_fraction(dep, &repair.manifest, &[node]);
    obs::trace_event!(
        "resilience.repaired",
        node = node.0,
        detected_at = detected_at,
        blind_gap = blind_gap,
        residual_gap = residual_gap,
        units_repaired = repair.repaired_units,
        unrecoverable = repair.unrecoverable.len()
    );
    if obs::enabled() {
        let s = obs::Scope::new("resilience");
        s.counter("repairs").inc();
        s.timer("repair_ns").observe_since(t0);
        s.counter("units_repaired").add(repair.repaired_units as u64);
        s.counter("units_unrecoverable").add(repair.unrecoverable.len() as u64);
        s.gauge("moved_measure").set(repair.moved_measure);
        s.gauge("coverage_gap").set_max(blind_gap);
        s.gauge("residual_gap").set_max(residual_gap);
    }
    FailureReport {
        node,
        timeline: FailureTimeline {
            fail_at: at,
            detected_at,
            repaired_at: detected_at,
            blind_gap,
            residual_gap,
        },
        repair,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AnalysisClass;
    use crate::nids::lp::{solve_nids_lp, NidsLpConfig};
    use crate::nids::manifest::generate_manifests;
    use crate::units::build_units;
    use nwdp_topo::{internet2, PathDb};
    use nwdp_traffic::{TrafficMatrix, VolumeModel};

    fn setup() -> (NidsDeployment, NidsLpConfig, SamplingManifest) {
        let t = internet2();
        let paths = PathDb::shortest_paths(&t);
        let tm = TrafficMatrix::gravity(&t);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&t, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let a = solve_nids_lp(&dep, &cfg).unwrap();
        let m = generate_manifests(&dep, &a.d);
        (dep, cfg, m)
    }

    #[test]
    fn blind_gap_equals_traffic_weighted_share() {
        let (dep, _, m) = setup();
        let node = NodeId(5);
        let gap = manifest_gap_fraction(&dep, &m, &[node]);
        // At redundancy 1 the gap is exactly the node's traffic-weighted
        // manifest share.
        let total: f64 = dep.units.iter().map(|u| u.pkts).sum();
        let share: f64 =
            dep.units.iter().enumerate().map(|(u, unit)| m.share(u, node) * unit.pkts).sum::<f64>()
                / total;
        assert!((gap - share).abs() < 1e-9, "gap {gap} vs share {share}");
        assert!(gap > 0.0, "an Internet2 node always carries something");
        assert!((covered_fraction(&dep, &m, &[node]) - (1.0 - gap)).abs() < 1e-12);
        // No blindness, no gap.
        assert_eq!(manifest_gap_fraction(&dep, &m, &[]), 0.0);
    }

    #[test]
    fn simulated_crash_recovers_all_but_single_node_units() {
        let (dep, cfg, m) = setup();
        let health = HealthConfig::default();
        let report = simulate_node_failure(&dep, &m, &cfg.caps, NodeId(3), 0.37, &health);
        let tl = &report.timeline;
        assert!((tl.detected_at - health.detect_at(0.37)).abs() < 1e-12);
        assert!(tl.blind_gap > 0.0);
        // The residual gap is exactly the unrecoverable traffic fraction
        // (the crashed node's ingress/egress units).
        assert!(
            (tl.residual_gap - report.repair.unrecoverable_traffic_fraction).abs() < 1e-9,
            "residual {} vs unrecoverable {}",
            tl.residual_gap,
            report.repair.unrecoverable_traffic_fraction
        );
        assert!(tl.residual_gap < tl.blind_gap, "repair must recover something");
        // Coverage steps: full → blind → repaired.
        assert_eq!(tl.coverage_at(0.1), 1.0);
        assert!(tl.coverage_at(0.38) < 1.0 - 1e-6);
        assert!(tl.coverage_at(0.9) > tl.coverage_at(0.38));
    }
}
