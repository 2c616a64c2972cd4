//! Graceful degradation under overload.
//!
//! When replayed load exceeds a node's capacity (traffic surge, or a
//! capacity-degraded failure mode), the node cannot analyze everything it
//! is responsible for. Rather than dropping packets arbitrarily — which
//! loses coverage *unpredictably* — the node sheds whole hash ranges in a
//! deterministic priority order, lowest **distance-weighted value** first.
//! This mirrors the NIPS objective (paper Eq 7: value of dropping attack
//! traffic scales with the traffic volume and how much downstream
//! footprint it would consume): analysis responsibilities that watch a
//! lot of traffic across a long path are the last to go.
//!
//! Shedding is *exact*: the boundary entry is trimmed to whole lattice
//! points ([`nwdp_hash::RangeSet::take_points`]), so the post-shed load
//! lands on the capacity ceiling (within one hash value) instead of far
//! below it, and the accounted coverage loss is the manifest's.

use crate::nids::lp::NodeCaps;
use crate::nids::manifest::{ManifestEntry, SamplingManifest};
use crate::units::NidsDeployment;
use nwdp_hash::HASH_SPACE;
use nwdp_topo::NodeId;
use std::collections::HashMap;

/// Priority of each unit: distance-weighted traffic value **per unit of
/// hash measure**. A unit observed along an `h`-hop path weighs
/// `pkts · h` — shedding it forfeits more observed traffic (and more
/// downstream benefit, NIPS-style) than an edge-local unit of equal rate.
pub fn distance_weighted_values(dep: &NidsDeployment) -> Vec<f64> {
    dep.units.iter().map(|u| u.pkts * u.nodes.len() as f64).collect()
}

/// One shedding decision.
#[derive(Debug, Clone)]
pub struct ShedAction {
    pub unit: usize,
    pub node: NodeId,
    /// Hash measure this node stopped covering for the unit.
    pub shed_measure: f64,
    /// The unit's distance-weighted value (per measure).
    pub value: f64,
}

/// Result of [`shed_overload`].
#[derive(Debug, Clone)]
pub struct DegradeOutcome {
    /// Manifest with shed ranges removed.
    pub manifest: SamplingManifest,
    /// Every shed, in the order it was decided (per node, ascending
    /// value).
    pub actions: Vec<ShedAction>,
    /// Nodes that had to shed, ascending.
    pub overloaded_nodes: Vec<NodeId>,
    /// Shed hash measure / total assigned hash measure.
    pub shed_fraction: f64,
    /// Traffic-weighted coverage lost: `Σ shed·pkts / Σ_units pkts`.
    pub traffic_fraction_lost: f64,
    /// Total distance-weighted value forfeited.
    pub value_lost: f64,
}

/// Shed responsibilities on every node whose projected load under a
/// traffic surge of `surge`× exceeds capacity, in ascending
/// distance-weighted-value order, until the node fits again.
///
/// `values` comes from [`distance_weighted_values`] (or any caller-chosen
/// priority; ties break on the unit index, so the order is deterministic).
/// The surge scales both CPU and memory load; capacities are the `caps`
/// the manifest was provisioned for.
pub fn shed_overload(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    caps: &[NodeCaps],
    surge: f64,
    values: &[f64],
) -> DegradeOutcome {
    assert_eq!(caps.len(), dep.num_nodes, "capacity vector size mismatch");
    assert_eq!(values.len(), dep.units.len(), "one value per unit");
    assert!(surge > 0.0, "surge must be a positive multiplier");

    let mut actions: Vec<ShedAction> = Vec::new();
    let mut overloaded_nodes: Vec<NodeId> = Vec::new();
    // (unit, node) → lattice points kept (only for trimmed/shed entries).
    let mut kept: HashMap<(usize, usize), u64> = HashMap::new();
    let mut total_measure = 0.0;
    let mut lost_traffic = 0.0;
    let total_traffic: f64 = dep.units.iter().map(|u| u.pkts).sum();
    let mut value_lost = 0.0;
    let mut shed_measure_total = 0.0;

    for (jn, cap) in caps.iter().enumerate().take(dep.num_nodes) {
        let node = NodeId(jn);
        // Per-entry surged load contributions.
        let mut load: Vec<(usize, f64, f64, u64)> = Vec::new(); // (unit, cpu, mem, points)
        let (mut cpu, mut mem) = (0.0f64, 0.0f64);
        for e in manifest.node_entries(node) {
            let (dc, dm) = dep.unit_demand(e.unit);
            let measure = e.ranges.measure();
            let c = dc * measure * surge / cap.cpu;
            let m = dm * measure * surge / cap.mem;
            cpu += c;
            mem += m;
            total_measure += measure;
            load.push((e.unit, c, m, e.ranges.points()));
        }
        if cpu.max(mem) <= 1.0 + 1e-12 {
            continue;
        }
        overloaded_nodes.push(node);
        // Cheapest responsibilities first; unit index breaks value ties.
        load.sort_by(|a, b| values[a.0].total_cmp(&values[b.0]).then(a.0.cmp(&b.0)));
        for &(u, c, m, points) in &load {
            if cpu.max(mem) <= 1.0 + 1e-12 {
                break;
            }
            // Fraction of this entry that must go to clear the excess on
            // every violated dimension; ≥ 1 means the whole entry goes.
            let need = |excess: f64, per: f64| {
                if excess <= 0.0 {
                    0.0
                } else if per > 0.0 {
                    excess / per
                } else {
                    f64::INFINITY
                }
            };
            let f = need(cpu - 1.0, c).max(need(mem - 1.0, m)).min(1.0);
            // Whole lattice points, rounded up so the excess clears.
            let shed_points = (f * points as f64).ceil() as u64;
            let f = shed_points as f64 / points.max(1) as f64;
            cpu -= f * c;
            mem -= f * m;
            let shed = shed_points as f64 / HASH_SPACE as f64;
            kept.insert((u, jn), points - shed_points);
            shed_measure_total += shed;
            lost_traffic += shed * dep.units[u].pkts;
            value_lost += shed * values[u];
            actions.push(ShedAction { unit: u, node, shed_measure: shed, value: values[u] });
        }
    }

    // Rebuild deterministically: walk units in order, trim or drop the
    // shed entries, keep the rest verbatim.
    let mut entries: Vec<(NodeId, ManifestEntry)> = Vec::new();
    for (u, unit) in dep.units.iter().enumerate() {
        for &j in &unit.nodes {
            let Some(old) = manifest.range(u, j) else { continue };
            let ranges = match kept.get(&(u, j.index())) {
                Some(&keep) => old.take_points(keep),
                None => old.clone(),
            };
            if ranges.is_empty() {
                continue;
            }
            entries.push((j, ManifestEntry { class: unit.class, unit: u, key: unit.key, ranges }));
        }
    }
    let manifest2 = SamplingManifest::from_entries(dep.num_nodes, entries);

    DegradeOutcome {
        manifest: manifest2,
        actions,
        overloaded_nodes,
        shed_fraction: if total_measure > 0.0 { shed_measure_total / total_measure } else { 0.0 },
        traffic_fraction_lost: if total_traffic > 0.0 { lost_traffic / total_traffic } else { 0.0 },
        value_lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AnalysisClass;
    use crate::nids::lp::{solve_nids_lp, NidsLpConfig};
    use crate::nids::manifest::{generate_manifests, manifest_loads};
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
    fn no_overload_no_shedding() {
        let (dep, cfg, m) = setup();
        let values = distance_weighted_values(&dep);
        // The LP provisioned for surge 1: nothing sheds.
        let out = shed_overload(&dep, &m, &cfg.caps, 1.0, &values);
        assert!(out.actions.is_empty());
        assert!(out.overloaded_nodes.is_empty());
        assert_eq!(out.shed_fraction, 0.0);
        assert_eq!(m.verify_coverage(&dep), out.manifest.verify_coverage(&dep));
    }

    #[test]
    fn surge_sheds_lowest_value_first_and_lands_on_the_ceiling() {
        let (dep, cfg, m) = setup();
        let values = distance_weighted_values(&dep);
        let (cpu0, mem0) = manifest_loads(&dep, &cfg.caps, &m);
        let base = cpu0.iter().zip(&mem0).map(|(c, m)| c.max(*m)).fold(0.0f64, f64::max);
        assert!(base > 0.0);
        // Push every node past its ceiling.
        let surge = 2.0 / base;
        let out = shed_overload(&dep, &m, &cfg.caps, surge, &values);
        assert!(!out.overloaded_nodes.is_empty());
        assert!(out.shed_fraction > 0.0 && out.shed_fraction < 1.0);
        assert!(out.traffic_fraction_lost > 0.0 && out.traffic_fraction_lost < 1.0);
        // Post-shed surged load fits on every node, and the bottleneck
        // sits exactly on the ceiling (exact trim, no overshoot).
        let (cpu1, mem1) = manifest_loads(&dep, &cfg.caps, &out.manifest);
        let worst = cpu1.iter().zip(&mem1).map(|(c, m)| c.max(*m) * surge).fold(0.0f64, f64::max);
        assert!(worst <= 1.0 + 1e-9, "still overloaded: {worst}");
        assert!(worst >= 1.0 - 1e-6, "shed too much: {worst}");
        // Within each overloaded node, everything cheaper than a kept
        // responsibility was shed before it: fully-shed values are ≤ the
        // node's kept values.
        for &node in &out.overloaded_nodes {
            let fully_shed: Vec<usize> = out
                .actions
                .iter()
                .filter(|a| a.node == node)
                .filter(|a| out.manifest.share(a.unit, node) == 0.0)
                .map(|a| a.unit)
                .collect();
            let max_shed = fully_shed.iter().map(|&u| values[u]).fold(f64::NEG_INFINITY, f64::max);
            let min_kept = out
                .manifest
                .node_entries(node)
                .iter()
                .map(|e| values[e.unit])
                .fold(f64::INFINITY, f64::min);
            if !fully_shed.is_empty() && min_kept.is_finite() {
                assert!(
                    max_shed <= min_kept + 1e-9,
                    "{node:?}: shed value {max_shed} above kept {min_kept}"
                );
            }
        }
        // Deterministic: same inputs, same decisions.
        let again = shed_overload(&dep, &m, &cfg.caps, surge, &values);
        assert_eq!(out.actions.len(), again.actions.len());
        for (a, b) in out.actions.iter().zip(&again.actions) {
            assert_eq!((a.unit, a.node), (b.unit, b.node));
            assert_eq!(a.shed_measure, b.shed_measure);
        }
    }

    #[test]
    fn values_prefer_long_paths() {
        let (dep, _, _) = setup();
        let values = distance_weighted_values(&dep);
        // Single-node (ingress/egress) units weigh less per packet than a
        // multi-hop path unit of the same rate would.
        for (u, unit) in dep.units.iter().enumerate() {
            assert!((values[u] - unit.pkts * unit.nodes.len() as f64).abs() < 1e-9);
        }
    }
}
