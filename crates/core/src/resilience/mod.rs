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
//! - [`faultplan`] — seeded message-level faults (loss, delay,
//!   partitions, crashes) for the distributed control plane,
//! - [`health`] — heartbeat detection windows,
//! - [`repair`] — the greedy fast path (exact range arithmetic with a
//!   provable load bound) and the warm-started LP slow path,
//! - [`degrade`] — deterministic value-ordered load shedding when
//!   capacity, not coverage, is what ran out.
//!
//! The engine strings them together: `nwdp_engine::plan_manifest_epochs`
//! compiles a [`FailureSchedule`] into a timeline of repaired manifests,
//! `nwdp_engine::coverage_timeline` turns that timeline into the exact
//! coverage step function, and `run_coordinated_resilient` replays it.

pub mod degrade;
pub mod faultplan;
pub mod health;
pub mod repair;
pub mod scenario;

pub use degrade::{distance_weighted_values, shed_overload, DegradeOutcome, ShedAction};
pub use faultplan::{FaultPlan, LinkFault, Partition};
pub use health::{HealthConfig, HealthConfigError, HeartbeatMonitor};
pub use repair::{greedy_repair, lp_repair, LpRepair, RepairOutcome};
pub use scenario::{FailureKind, FailureScenario, FailureSchedule};

use crate::nids::manifest::{coverage_sweep, SamplingManifest};
use crate::units::NidsDeployment;
use nwdp_topo::NodeId;

/// Traffic-weighted fraction of coverage lost when `blind` nodes observe
/// nothing: for every unit, the exact measure of hash space covered by
/// **no** sighted node, weighted by the unit's packet rate. Computed by
/// the same [`coverage_sweep`] as `verify_coverage`, so a gap narrower
/// than a grid cell cannot hide. `1 - manifest_gap_fraction(.., &[])` is
/// the covered fraction of a live manifest.
pub fn manifest_gap_fraction(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    blind: &[NodeId],
) -> f64 {
    let mut lost = 0.0;
    let mut total = 0.0;
    for (u, unit) in dep.units.iter().enumerate() {
        total += unit.pkts;
        let slots = manifest.unit_slots(u, &unit.nodes);
        let gap = coverage_sweep(&slots)
            .filter(|(_, _, covering)| {
                !unit.nodes.iter().enumerate().any(|(i, j)| !blind.contains(j) && covering(i))
            })
            .fold(0.0, |gap, (a, b, _)| gap + (b - a));
        lost += gap.min(1.0) * unit.pkts;
    }
    if total > 0.0 {
        lost / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AnalysisClass;
    use crate::nids::lp::{solve_nids_lp, NidsLpConfig, NodeCaps};
    use crate::nids::manifest::generate_manifests;
    use crate::units::build_units;
    use nwdp_topo::{internet2, PathDb};
    use nwdp_traffic::{TrafficMatrix, VolumeModel};

    fn setup() -> (NidsDeployment, SamplingManifest) {
        let t = internet2();
        let paths = PathDb::shortest_paths(&t);
        let tm = TrafficMatrix::gravity(&t);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&t, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let a = solve_nids_lp(&dep, &cfg).unwrap();
        let m = generate_manifests(&dep, &a.d);
        (dep, m)
    }

    #[test]
    fn blind_gap_equals_traffic_weighted_share() {
        let (dep, m) = setup();
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
        // No blindness, no gap.
        assert_eq!(manifest_gap_fraction(&dep, &m, &[]), 0.0);
    }
}
