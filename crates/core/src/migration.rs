//! Routing-change transitions (paper §5, "Routing changes").
//!
//! When routes change and the optimization is re-run, a node that holds
//! connection state may stop being responsible for (or even stop seeing)
//! those connections. The paper's prescription: "nodes temporarily retain
//! the old responsibilities until existing connections in these
//! assignments expire … each node picks up new assignments immediately but
//! takes on no new connections in the old assignments", transferring state
//! only when the old node is no longer on the new path.
//!
//! [`plan_transition`] compares two compiled deployments and produces the
//! per-unit migration actions plus the transition-period cost: the
//! fraction of hash space whose owner changes (duplicated work while old
//! connections drain) and the set of owners that require explicit state
//! transfer (Sommer/Paxson-style \[34\]) because the new routes bypass them.

use crate::nids::{coverage_sweep, SamplingManifest};
use crate::units::{NidsDeployment, UnitKey};
use nwdp_hash::HASH_SPACE;
use nwdp_topo::NodeId;
use std::collections::HashMap;

/// What happens to one coordination unit across a reconfiguration.
#[derive(Debug, Clone)]
pub struct UnitTransition {
    /// Unit index in the *new* deployment.
    pub new_unit: usize,
    pub key: UnitKey,
    /// Fraction of this unit's hash space whose owner changed.
    pub moved_fraction: f64,
    /// Old owners that keep draining connections (still on the new path).
    pub drain_at: Vec<NodeId>,
    /// Old owners that are no longer on the unit's path: their live
    /// connection state must be transferred to a new owner.
    pub transfer_from: Vec<NodeId>,
}

/// A full reconfiguration plan.
#[derive(Debug, Clone)]
pub struct TransitionPlan {
    pub units: Vec<UnitTransition>,
    /// Mean moved fraction over matched units (the expected duplicated
    /// work during the drain period, relative to steady state).
    pub mean_moved_fraction: f64,
    /// Units present only in the new deployment (e.g. new routes).
    pub new_units: usize,
    /// Units that disappeared (their state simply expires).
    pub retired_units: usize,
}

/// Compare two compiled deployments (same class list, possibly different
/// routing) and plan the transition. Moved fractions are computed by the
/// exact [`coverage_sweep`].
pub fn plan_transition(
    old_dep: &NidsDeployment,
    old_manifest: &SamplingManifest,
    new_dep: &NidsDeployment,
    new_manifest: &SamplingManifest,
) -> TransitionPlan {
    assert_eq!(
        old_dep.classes.len(),
        new_dep.classes.len(),
        "transitions assume an unchanged class list"
    );
    let old_index: HashMap<(usize, UnitKey), usize> =
        old_dep.units.iter().enumerate().map(|(u, unit)| ((unit.class, unit.key), u)).collect();

    let mut units = Vec::new();
    let mut matched = 0usize;
    let mut new_units = 0usize;
    let mut moved_total = 0.0;
    for (nu, unit) in new_dep.units.iter().enumerate() {
        let Some(&ou) = old_index.get(&(unit.class, unit.key)) else {
            new_units += 1;
            continue;
        };
        matched += 1;
        let old_unit = &old_dep.units[ou];
        // The moved fraction: the share of the hash lattice where the owner
        // differs, swept over the old unit's slots followed by the new
        // unit's. A point's owner on each side is its first covering node
        // in that unit's node order (the unique owner at redundancy 1; the
        // same deterministic representative at higher redundancy).
        let k = old_unit.nodes.len();
        let mut slots = old_manifest.unit_slots(ou, &old_unit.nodes);
        slots.extend(new_manifest.unit_slots(nu, &unit.nodes));
        let moved = coverage_sweep(&slots)
            .filter(|(_, _, covering)| {
                let old_owner = (0..k).find(|&i| covering(i)).map(|i| old_unit.nodes[i]);
                let new_owner = (k..slots.len()).find(|&i| covering(i)).map(|i| unit.nodes[i - k]);
                old_owner != new_owner
            })
            .fold(0, |moved, (a, b, _)| moved + (b - a));
        if moved == 0 {
            continue;
        }
        let moved = moved as f64 / HASH_SPACE as f64;
        moved_total += moved;
        // Old owners with any responsibility: drain in place if still on
        // the new path, otherwise transfer state.
        let mut drain_at = Vec::new();
        let mut transfer_from = Vec::new();
        for &n in &old_unit.nodes {
            if old_manifest.share(ou, n) <= 0.0 {
                continue;
            }
            if unit.nodes.contains(&n) {
                drain_at.push(n);
            } else {
                transfer_from.push(n);
            }
        }
        units.push(UnitTransition {
            new_unit: nu,
            key: unit.key,
            moved_fraction: moved,
            drain_at,
            transfer_from,
        });
    }
    let retired_units = old_dep.units.len() - matched;
    TransitionPlan {
        units,
        mean_moved_fraction: if matched > 0 { moved_total / matched as f64 } else { 0.0 },
        new_units,
        retired_units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AnalysisClass;
    use crate::nids::{generate_manifests, solve_nids_lp, NidsLpConfig, NodeCaps};
    use crate::units::build_units;
    use nwdp_topo::{internet2, PathDb, Topology};
    use nwdp_traffic::{TrafficMatrix, VolumeModel};

    fn compile(topo: &Topology) -> (NidsDeployment, SamplingManifest) {
        let paths = PathDb::shortest_paths(topo);
        let tm = TrafficMatrix::gravity(topo);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let a = solve_nids_lp(&dep, &cfg).unwrap();
        let m = generate_manifests(&dep, &a.d);
        (dep, m)
    }

    /// The lattice point at fraction `x` of the hash space.
    fn lattice(x: f64) -> u64 {
        (x * HASH_SPACE as f64) as u64
    }

    /// A one-unit deployment over a 3-node line with an explicit split.
    fn line_unit_manifest(
        nodes: &[usize],
        ranges: &[(usize, f64, f64)],
    ) -> (NidsDeployment, SamplingManifest) {
        use crate::nids::ManifestEntry;
        use nwdp_hash::RangeSet;
        let topo = nwdp_topo::line(3);
        let paths = PathDb::shortest_paths(&topo);
        let tm = nwdp_traffic::TrafficMatrix::uniform(&topo);
        let vol = VolumeModel::internet2_baseline();
        let classes = vec![AnalysisClass::standard_set().remove(0)];
        let mut dep = build_units(&topo, &paths, &tm, &vol, &classes);
        dep.units.truncate(1);
        dep.units[0].nodes = nodes.iter().map(|&j| NodeId(j)).collect();
        let entries: Vec<_> = ranges
            .iter()
            .map(|&(j, lo, hi)| {
                (
                    NodeId(j),
                    ManifestEntry {
                        class: dep.units[0].class,
                        unit: 0,
                        key: dep.units[0].key,
                        ranges: RangeSet::interval(lattice(lo), lattice(hi)),
                    },
                )
            })
            .collect();
        let m = SamplingManifest::from_entries(dep.num_nodes, entries);
        (dep, m)
    }

    #[test]
    fn handcrafted_swap_moves_exact_fraction_and_classifies_owners() {
        // Old: node 0 owns [0, 0.25), node 1 owns [0.25, 1).
        let (old_dep, old_man) = line_unit_manifest(&[0, 1, 2], &[(0, 0.0, 0.25), (1, 0.25, 1.0)]);
        // New: node 0 dropped off the path; node 1 owns [0, 0.75),
        // node 2 owns [0.75, 1).
        let (new_dep, new_man) = line_unit_manifest(&[1, 2], &[(1, 0.0, 0.75), (2, 0.75, 1.0)]);
        let plan = plan_transition(&old_dep, &old_man, &new_dep, &new_man);
        assert_eq!(plan.units.len(), 1);
        let t = &plan.units[0];
        // Owner changes exactly on [0, 0.25) (0 → 1) and [0.75, 1) (1 → 2).
        assert_eq!(t.moved_fraction, 0.5);
        assert_eq!(plan.mean_moved_fraction, 0.5);
        // Node 1 is still on the new path: it drains in place. Node 0 is
        // not: its live state must be transferred.
        assert_eq!(t.drain_at, vec![NodeId(1)]);
        assert_eq!(t.transfer_from, vec![NodeId(0)]);
    }

    #[test]
    fn moved_fraction_is_a_fraction() {
        // Per-unit and mean moved fractions live in [0, 1] by construction;
        // pin it on a real reroute (the exact sweep must not double-count
        // elementary intervals).
        let topo = internet2();
        let (old_dep, old_man) = compile(&topo);
        let mut rerouted = Topology::new("Internet2-rerouted");
        for n in topo.nodes() {
            rerouted.add_node(topo.node(n).name.clone(), topo.population(n));
        }
        let chi = topo.find("Chicago").unwrap();
        let nyc = topo.find("NewYork").unwrap();
        for l in topo.links() {
            let w = if (l.a == chi && l.b == nyc) || (l.a == nyc && l.b == chi) {
                l.weight * 10.0
            } else {
                l.weight
            };
            rerouted.add_link(l.a, l.b, w);
        }
        let (new_dep, new_man) = compile(&rerouted);
        let plan = plan_transition(&old_dep, &old_man, &new_dep, &new_man);
        for t in &plan.units {
            assert!(
                (0.0..=1.0).contains(&t.moved_fraction),
                "unit {}: moved {}",
                t.new_unit,
                t.moved_fraction
            );
            // A listed transition really moved something.
            assert!(t.moved_fraction > 0.0);
        }
        assert!((0.0..=1.0).contains(&plan.mean_moved_fraction));
    }

    #[test]
    fn same_assignment_different_manifest_objects_is_all_zero() {
        // The degenerate case at the unit level: byte-identical splits
        // compiled into two distinct manifest objects plan an all-zero
        // transition (no drains, no transfers, nothing moved).
        let (dep, man_a) = line_unit_manifest(&[0, 1], &[(0, 0.0, 0.5), (1, 0.5, 1.0)]);
        let (_, man_b) = line_unit_manifest(&[0, 1], &[(0, 0.0, 0.5), (1, 0.5, 1.0)]);
        let plan = plan_transition(&dep, &man_a, &dep, &man_b);
        assert_eq!(plan.mean_moved_fraction, 0.0);
        assert!(plan.units.is_empty(), "zero-move units are elided from the plan");
        assert_eq!((plan.new_units, plan.retired_units), (0, 0));
    }

    #[test]
    fn identical_deployments_need_no_transition() {
        let topo = internet2();
        let (dep, man) = compile(&topo);
        let plan = plan_transition(&dep, &man, &dep, &man);
        assert_eq!(plan.mean_moved_fraction, 0.0);
        assert!(plan.units.is_empty());
        assert_eq!(plan.new_units, 0);
        assert_eq!(plan.retired_units, 0);
    }

    #[test]
    fn link_weight_change_triggers_bounded_migration() {
        let topo = internet2();
        let (old_dep, old_man) = compile(&topo);
        // Reroute: make the Chicago–NewYork link very expensive, shifting
        // the NYC-bound transit paths south through Washington.
        let mut rerouted = Topology::new("Internet2-rerouted");
        for n in topo.nodes() {
            rerouted.add_node(topo.node(n).name.clone(), topo.population(n));
        }
        let chi = topo.find("Chicago").unwrap();
        let nyc = topo.find("NewYork").unwrap();
        for l in topo.links() {
            let w = if (l.a == chi && l.b == nyc) || (l.a == nyc && l.b == chi) {
                l.weight * 10.0
            } else {
                l.weight
            };
            rerouted.add_link(l.a, l.b, w);
        }
        let (new_dep, new_man) = compile(&rerouted);
        let plan = plan_transition(&old_dep, &old_man, &new_dep, &new_man);
        // Something moved, but most of the network's assignments survive.
        assert!(plan.mean_moved_fraction > 0.0);
        assert!(plan.mean_moved_fraction < 0.9, "{}", plan.mean_moved_fraction);
        assert_eq!(plan.new_units + plan.retired_units, 0, "same unit keys either way");
        // Any old owner dropped from a rerouted path must be flagged for
        // state transfer.
        for t in &plan.units {
            for n in &t.transfer_from {
                let unit = &new_dep.units[t.new_unit];
                assert!(!unit.nodes.contains(n));
            }
        }
    }

    #[test]
    fn capacity_change_moves_work_without_transfers() {
        // Same routing, different capacities: owners shift but every old
        // owner is still on-path, so draining suffices (no transfers).
        let topo = internet2();
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::gravity(&topo);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let cfg1 = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let mut cfg2 = cfg1.clone();
        cfg2.caps[0].cpu *= 4.0;
        cfg2.caps[0].mem *= 4.0;
        let a1 = solve_nids_lp(&dep, &cfg1).unwrap();
        let a2 = solve_nids_lp(&dep, &cfg2).unwrap();
        let m1 = generate_manifests(&dep, &a1.d);
        let m2 = generate_manifests(&dep, &a2.d);
        let plan = plan_transition(&dep, &m1, &dep, &m2);
        for t in &plan.units {
            assert!(t.transfer_from.is_empty(), "same paths ⇒ no transfers: {t:?}");
        }
    }
}
