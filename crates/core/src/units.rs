//! Coordination units (§2.1).
//!
//! For each class `C_i`, its traffic `T_i` is partitioned into components
//! `T_ik` such that a nonempty node set `P_ik` observes all of `T_ik`. A
//! [`CoordUnit`] is one such `(i, k)` pair: its eligible nodes, and the
//! packet/item volumes used by the optimization (`T_ik^pkts`,
//! `T_ik^items`). [`build_units`] derives the units for a class list from
//! the topology, routing, traffic matrix, and volume model.

use crate::class::{AnalysisClass, ClassScope};
use nwdp_topo::{NodeId, PathDb, Topology};
use nwdp_traffic::{TrafficMatrix, VolumeModel};

/// Identity of a coordination unit's traffic component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitKey {
    /// Traffic on the ingress–egress path `(src, dst)`.
    Path(NodeId, NodeId),
    /// Traffic initiated by hosts homed at this ingress.
    Ingress(NodeId),
    /// Traffic terminating at hosts homed at this egress.
    Egress(NodeId),
}

/// One coordination unit `P_ik` with its traffic volumes.
#[derive(Debug, Clone)]
pub struct CoordUnit {
    /// Index of the class in the deployment's class list.
    pub class: usize,
    pub key: UnitKey,
    /// Nodes eligible to analyze this unit's traffic (all observe it).
    pub nodes: Vec<NodeId>,
    /// `T_ik^pkts`: packet volume per measurement interval.
    pub pkts: f64,
    /// `T_ik^items`: item volume (connections / sources / destinations).
    pub items: f64,
}

/// A full NIDS deployment description: classes plus their units.
#[derive(Debug, Clone)]
pub struct NidsDeployment {
    pub classes: Vec<AnalysisClass>,
    pub units: Vec<CoordUnit>,
    pub num_nodes: usize,
}

impl NidsDeployment {
    /// Unit `u`'s whole-unit demand `(cpu_per_pkt · pkts, mem_per_item ·
    /// items)`. A node's load from the unit is this pair times its share
    /// of the unit's hash space, divided by the node's capacity.
    pub fn unit_demand(&self, u: usize) -> (f64, f64) {
        let unit = &self.units[u];
        let class = &self.classes[unit.class];
        (class.cpu_per_pkt * unit.pkts, class.mem_per_item * unit.items)
    }
}

/// Derive coordination units for `classes` under the given network model.
pub fn build_units(
    topo: &Topology,
    paths: &PathDb,
    tm: &TrafficMatrix,
    vol: &VolumeModel,
    classes: &[AnalysisClass],
) -> NidsDeployment {
    let mut units = Vec::new();
    for (ci, class) in classes.iter().enumerate() {
        match class.scope {
            ClassScope::PerPath => {
                for p in paths.all_pairs() {
                    let pkts = vol.pair_pkts(tm, p.src, p.dst);
                    let flows = vol.pair_flows(tm, p.src, p.dst);
                    if pkts <= 0.0 {
                        continue;
                    }
                    units.push(CoordUnit {
                        class: ci,
                        key: UnitKey::Path(p.src, p.dst),
                        nodes: p.nodes.clone(),
                        pkts,
                        items: flows * class.items_per_flow,
                    });
                }
            }
            ClassScope::PerIngress => {
                for s in topo.nodes() {
                    let pkts: f64 = topo.nodes().map(|d| vol.pair_pkts(tm, s, d)).sum();
                    let flows: f64 = topo.nodes().map(|d| vol.pair_flows(tm, s, d)).sum();
                    if pkts <= 0.0 {
                        continue;
                    }
                    units.push(CoordUnit {
                        class: ci,
                        key: UnitKey::Ingress(s),
                        nodes: vec![s],
                        pkts,
                        items: flows * class.items_per_flow,
                    });
                }
            }
            ClassScope::PerEgress => {
                for d in topo.nodes() {
                    let pkts: f64 = topo.nodes().map(|s| vol.pair_pkts(tm, s, d)).sum();
                    let flows: f64 = topo.nodes().map(|s| vol.pair_flows(tm, s, d)).sum();
                    if pkts <= 0.0 {
                        continue;
                    }
                    units.push(CoordUnit {
                        class: ci,
                        key: UnitKey::Egress(d),
                        nodes: vec![d],
                        pkts,
                        items: flows * class.items_per_flow,
                    });
                }
            }
        }
    }
    NidsDeployment { classes: classes.to_vec(), units, num_nodes: topo.num_nodes() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AnalysisClass;
    use nwdp_topo::internet2;
    use nwdp_traffic::TrafficMatrix;

    fn deployment() -> NidsDeployment {
        let t = internet2();
        let paths = PathDb::shortest_paths(&t);
        let tm = TrafficMatrix::gravity(&t);
        let vol = VolumeModel::internet2_baseline();
        build_units(&t, &paths, &tm, &vol, &AnalysisClass::standard_set())
    }

    #[test]
    fn unit_counts_match_scopes() {
        let d = deployment();
        // 7 per-path classes × 110 pairs + Scan (11) + SYNFlood (11).
        let per_path = d.units.iter().filter(|u| matches!(u.key, UnitKey::Path(..))).count();
        let ingress = d.units.iter().filter(|u| matches!(u.key, UnitKey::Ingress(_))).count();
        let egress = d.units.iter().filter(|u| matches!(u.key, UnitKey::Egress(_))).count();
        assert_eq!(per_path, 7 * 110);
        assert_eq!(ingress, 11);
        assert_eq!(egress, 11);
    }

    #[test]
    fn per_class_volume_conserved() {
        let d = deployment();
        let vol = VolumeModel::internet2_baseline();
        // For each per-path class, unit packet volumes must sum to the
        // network total (complete coverage of T_i).
        for (ci, class) in d.classes.iter().enumerate() {
            if class.scope != ClassScope::PerPath {
                continue;
            }
            let sum: f64 = d.units.iter().filter(|u| u.class == ci).map(|u| u.pkts).sum();
            assert!((sum - vol.pkts).abs() < 1e-3, "{}: {sum} vs {}", class.name, vol.pkts);
        }
        // Same for ingress-scoped classes.
        for (ci, class) in d.classes.iter().enumerate() {
            if class.scope != ClassScope::PerIngress {
                continue;
            }
            let sum: f64 = d.units.iter().filter(|u| u.class == ci).map(|u| u.pkts).sum();
            assert!((sum - vol.pkts).abs() < 1e-3, "{}", class.name);
        }
    }

    #[test]
    fn ingress_units_are_single_node() {
        let d = deployment();
        for u in &d.units {
            match u.key {
                UnitKey::Ingress(n) | UnitKey::Egress(n) => {
                    assert_eq!(u.nodes, vec![n]);
                }
                UnitKey::Path(s, dst) => {
                    assert_eq!(u.nodes.first(), Some(&s));
                    assert_eq!(u.nodes.last(), Some(&dst));
                    assert!(u.nodes.len() >= 2);
                }
            }
        }
    }

    #[test]
    fn items_respect_aggregation_level() {
        let d = deployment();
        let scan_items: f64 =
            d.units.iter().filter(|u| matches!(u.key, UnitKey::Ingress(_))).map(|u| u.items).sum();
        let baseline_items: f64 = d.units.iter().filter(|u| u.class == 0).map(|u| u.items).sum();
        // Per-source tracking has far fewer items than per-connection.
        assert!(scan_items < baseline_items / 10.0);
    }
}
