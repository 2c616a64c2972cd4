//! Manifest repair after node failures.
//!
//! Two paths, mirroring the paper's split between the offline optimization
//! and the zero-coordination runtime:
//!
//! - **Fast path** ([`greedy_repair`]): pure hash-range arithmetic. The
//!   failed nodes' ranges are decomposed into elementary pieces and handed
//!   to the least-loaded surviving on-path node piece by piece. No LP, no
//!   state outside the manifest; survivors only *gain* ranges, so live
//!   connection state never moves and repair can ship immediately upon
//!   detection. Comes with a provable load-blowup bound (below).
//! - **Slow path** ([`lp_repair`]): re-run the NIDS LP on the surviving
//!   node set via [`solve_nids_lp_excluding`] and plan the state
//!   migration with [`plan_transition`]. Optimal, but requires a solve
//!   and a drain/transfer period; the intended sequence is greedy now,
//!   LP repair at the next reconfiguration point.
//!
//! # The greedy load bound
//!
//! Let `φ_j = CpuLoad_j + MemLoad_j` (capacity fractions). The greedy
//! assigns each orphaned elementary piece to the eligible survivor with
//! minimum `φ` (restricted list scheduling). When a piece `p` of unit `u`
//! is placed on node `j`, `φ_j ≤ (Σ_{k ∈ S_u} φ_k(t)) / e_u` where `S_u`
//! is the unit's surviving eligible set and `e_u` the minimum number of
//! eligible targets over `u`'s pieces (eligibility is static — it is
//! computed against the *pre-repair* manifest). The running sum over
//! `S_u` can only have grown by pieces of units `v` sharing a survivor
//! with `u`, each contributing at most its worst-case repair cost
//! `c_v^max`. Hence every survivor ends with
//!
//! `φ_j ≤ max(φ^init_max, max_u [(Σ_{S_u} φ^init + Σ_{v ~ u} c_v^max) / e_u + c_u^max])`
//!
//! and since `max(CpuLoad, MemLoad) ≤ φ`, the post-repair max load is
//! bounded by the same quantity — computed a priori and returned as
//! [`RepairOutcome::load_bound`]. The workspace property suite checks the
//! achieved max load against it on random topologies and failure sets.

use crate::migration::{plan_transition, TransitionPlan};
use crate::nids::lp::{solve_nids_lp_excluding, NidsAssignment, NidsError, NidsLpConfig, NodeCaps};
use crate::nids::manifest::{
    coverage_sweep, generate_manifests, manifest_loads, ManifestEntry, SamplingManifest,
};
use crate::units::NidsDeployment;
use nwdp_hash::{RangeSet, Segment};
use nwdp_topo::NodeId;
use std::collections::HashMap;

/// Result of the greedy fast-path repair.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired manifest: failed nodes hold nothing, survivors keep
    /// their old ranges plus reassigned pieces.
    pub manifest: SamplingManifest,
    /// Units that had at least one orphaned piece reassigned.
    pub repaired_units: usize,
    /// Total hash measure moved to survivors (summed over units and,
    /// under redundancy, over multiplicity).
    pub moved_measure: f64,
    /// Units left with *some* coverage multiplicity permanently lost —
    /// e.g. the ingress/egress units of a crashed node, whose only
    /// eligible node is gone.
    pub unrecoverable: Vec<usize>,
    /// Traffic-weighted fraction of coverage lost to unrecoverable
    /// pieces: `Σ_u lost_measure(u)·pkts_u / Σ_u pkts_u`.
    pub unrecoverable_traffic_fraction: f64,
    /// Max `max(CpuLoad, MemLoad)` over survivors before repair.
    pub max_load_before: f64,
    /// Same, after repair.
    pub max_load_after: f64,
    /// The a-priori greedy bound (module docs); always ≥ `max_load_after`.
    pub load_bound: f64,
}

/// One orphaned elementary piece awaiting reassignment.
struct Piece {
    unit: usize,
    seg: Segment,
    /// How many replacement owners the piece needs (multiplicity of
    /// *failed* coverage — more than 1 only under redundancy when several
    /// covering nodes failed at once).
    replicas: usize,
    /// Survivors on the unit's path not already covering the piece
    /// (assigning to a coverer would collapse two of the `r` distinct
    /// owners into one). Static: judged against the pre-repair manifest.
    eligible: Vec<NodeId>,
}

/// Fast-path repair: redistribute the failed nodes' hash ranges to
/// surviving on-path nodes, least-loaded first.
///
/// The result is exact `RangeSet` arithmetic: every orphaned elementary
/// interval wider than [`SWEEP_EPS`](crate::nids::manifest::SWEEP_EPS) is
/// reassigned (or counted as unrecoverable when no eligible survivor
/// exists), so the repaired manifest passes `verify_coverage` on every
/// recoverable unit.
pub fn greedy_repair(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    caps: &[NodeCaps],
    failed: &[NodeId],
) -> RepairOutcome {
    assert_eq!(caps.len(), dep.num_nodes, "capacity vector size mismatch");
    let is_failed = |j: NodeId| failed.contains(&j);

    let (cpu0, mem0) = manifest_loads(dep, caps, manifest);
    let mut phi: Vec<f64> = cpu0.iter().zip(&mem0).map(|(c, m)| c + m).collect();
    let max_load_before = (0..dep.num_nodes)
        .filter(|&j| !is_failed(NodeId(j)))
        .map(|j| cpu0[j].max(mem0[j]))
        .fold(0.0, f64::max);

    // φ-cost per unit of hash measure when unit `u` lands on node `j`.
    let piece_cost = |u: usize, j: NodeId| -> f64 {
        let (cpu, mem) = dep.unit_demand(u);
        cpu / caps[j.index()].cpu + mem / caps[j.index()].mem
    };

    // ---- Pass 1: decompose orphaned ranges into elementary pieces. ----
    let mut pieces: Vec<Piece> = Vec::new();
    let mut unrecoverable: Vec<usize> = Vec::new();
    let mut lost_traffic = 0.0;
    let mut total_traffic = 0.0;
    // Per orphaned-unit bound inputs: (survivors, min effective eligible
    // count, worst-case total repair cost c_u^max).
    let mut bound_units: HashMap<usize, (Vec<NodeId>, usize, f64)> = HashMap::new();
    for (u, unit) in dep.units.iter().enumerate() {
        total_traffic += unit.pkts;
        if !unit.nodes.iter().any(|&j| is_failed(j) && manifest.share(u, j) > 0.0) {
            continue;
        }
        let slots = manifest.unit_slots(u, &unit.nodes);
        let survivors: Vec<NodeId> =
            unit.nodes.iter().copied().filter(|&j| !is_failed(j)).collect();
        let mut lost_measure = 0.0;
        let mut min_eff_elig = usize::MAX;
        let mut assignable_measure = 0.0;
        for (a, b, covering) in coverage_sweep(&slots) {
            let orphaned = unit
                .nodes
                .iter()
                .enumerate()
                .filter(|&(i, &j)| is_failed(j) && covering(i))
                .count();
            if orphaned == 0 {
                continue;
            }
            let eligible: Vec<NodeId> = unit
                .nodes
                .iter()
                .enumerate()
                .filter(|&(i, &j)| !is_failed(j) && !covering(i))
                .map(|(_, &j)| j)
                .collect();
            let replicas = orphaned.min(eligible.len());
            if orphaned > eligible.len() {
                lost_measure += (b - a) * (orphaned - eligible.len()) as f64;
            }
            if replicas > 0 {
                // When the i-th replica of a piece is placed, at least
                // `|eligible| - (replicas - 1)` targets remain.
                min_eff_elig = min_eff_elig.min(eligible.len() - (replicas - 1));
                assignable_measure += (b - a) * replicas as f64;
                pieces.push(Piece { unit: u, seg: Segment::new(a, b), replicas, eligible });
            }
        }
        if lost_measure > 0.0 {
            unrecoverable.push(u);
            lost_traffic += lost_measure * unit.pkts;
        }
        if assignable_measure > 0.0 {
            let c_max = assignable_measure
                * survivors.iter().map(|&j| piece_cost(u, j)).fold(0.0, f64::max);
            bound_units.insert(u, (survivors, min_eff_elig, c_max));
        }
    }

    // ---- A-priori load bound (see module docs). ----
    // Φ_add(u): worst-case cost every unit sharing a survivor with `u`
    // could pile onto S_u during the repair, including `u` itself.
    let mut node_units: Vec<Vec<usize>> = vec![Vec::new(); dep.num_nodes];
    for (&u, (survivors, _, _)) in &bound_units {
        for &j in survivors {
            node_units[j.index()].push(u);
        }
    }
    let survivor_phi_max =
        (0..dep.num_nodes).filter(|&j| !is_failed(NodeId(j))).map(|j| phi[j]).fold(0.0, f64::max);
    let mut load_bound = survivor_phi_max;
    let mut seen = vec![usize::MAX; dep.units.len()];
    for (&u, (survivors, min_eff_elig, c_max)) in &bound_units {
        let sum_phi: f64 = survivors.iter().map(|&j| phi[j.index()]).sum();
        let mut phi_add = 0.0;
        for &j in survivors {
            for &v in &node_units[j.index()] {
                if seen[v] != u {
                    seen[v] = u;
                    phi_add += bound_units[&v].2;
                }
            }
        }
        load_bound = load_bound.max((sum_phi + phi_add) / *min_eff_elig as f64 + c_max);
    }

    // ---- Pass 2: greedy least-loaded assignment, deterministic order. ----
    pieces.sort_by(|a, b| a.unit.cmp(&b.unit).then(a.seg.lo.total_cmp(&b.seg.lo)));
    let mut added: HashMap<(usize, usize), Vec<Segment>> = HashMap::new();
    let mut moved_measure = 0.0;
    let mut repaired: Vec<usize> = Vec::new();
    for p in &pieces {
        let mut taken: Vec<NodeId> = Vec::with_capacity(p.replicas);
        for _ in 0..p.replicas {
            // Min-φ eligible target not already holding this piece;
            // ties break to the smaller node id.
            let Some(&j) = p
                .eligible
                .iter()
                .filter(|j| !taken.contains(j))
                .min_by(|a, b| phi[a.index()].total_cmp(&phi[b.index()]).then(a.cmp(b)))
            else {
                break;
            };
            phi[j.index()] += p.seg.len() * piece_cost(p.unit, j);
            added.entry((p.unit, j.index())).or_default().push(p.seg);
            moved_measure += p.seg.len();
            taken.push(j);
        }
        repaired.push(p.unit);
    }
    repaired.dedup();

    // ---- Rebuild the manifest: survivors' old ranges + added pieces. ----
    let mut entries: Vec<(NodeId, ManifestEntry)> = Vec::new();
    for (u, unit) in dep.units.iter().enumerate() {
        for &j in &unit.nodes {
            if is_failed(j) {
                continue;
            }
            let old = manifest.range(u, j);
            let extra = added.get(&(u, j.index()));
            if old.is_none() && extra.is_none() {
                continue;
            }
            let mut segs: Vec<Segment> = old.map(|r| r.segments().to_vec()).unwrap_or_default();
            if let Some(extra) = extra {
                segs.extend_from_slice(extra);
            }
            entries.push((
                j,
                ManifestEntry {
                    class: unit.class,
                    unit: u,
                    key: unit.key,
                    ranges: RangeSet::from_segments(segs),
                },
            ));
        }
    }
    let manifest2 = SamplingManifest::from_entries(dep.num_nodes, entries);

    let (cpu1, mem1) = manifest_loads(dep, caps, &manifest2);
    let max_load_after = (0..dep.num_nodes)
        .filter(|&j| !is_failed(NodeId(j)))
        .map(|j| cpu1[j].max(mem1[j]))
        .fold(0.0, f64::max);
    debug_assert!(
        max_load_after <= load_bound + 1e-9,
        "greedy exceeded its bound: {max_load_after} > {load_bound}"
    );

    RepairOutcome {
        manifest: manifest2,
        repaired_units: repaired.len(),
        moved_measure,
        unrecoverable,
        unrecoverable_traffic_fraction: if total_traffic > 0.0 {
            lost_traffic / total_traffic
        } else {
            0.0
        },
        max_load_before,
        max_load_after,
        load_bound,
    }
}

/// Result of the slow-path LP repair.
#[derive(Debug, Clone)]
pub struct LpRepair {
    /// Re-optimized assignment over the surviving node set.
    pub assignment: NidsAssignment,
    /// Manifest compiled from the re-optimized assignment.
    pub manifest: SamplingManifest,
    /// Units whose coverage the reduced node set cannot fully provide
    /// (their LP coverage row was relaxed below the redundancy level).
    pub degraded_units: Vec<usize>,
    /// Migration plan from the pre-failure manifest. A failed node listed
    /// in `transfer_from` cannot actually ship its state — its live
    /// connections are lost, which is exactly the detection-window gap
    /// the timeline accounts for.
    pub plan: TransitionPlan,
}

/// Slow-path repair: re-solve the NIDS LP with the failed nodes excluded
/// and plan the migration from the old manifest.
pub fn lp_repair(
    dep: &NidsDeployment,
    old_manifest: &SamplingManifest,
    cfg: &NidsLpConfig,
    failed: &[NodeId],
) -> Result<LpRepair, NidsError> {
    let (assignment, degraded_units) = solve_nids_lp_excluding(dep, cfg, failed)?;
    let manifest = generate_manifests(dep, &assignment.d);
    // For drain/transfer classification the failed nodes are *off* every
    // unit's path: a crashed node can neither drain in place nor keep
    // analyzing, so any responsibility it held is a transfer (of which the
    // state part is lost — see `plan` docs).
    let mut reduced = dep.clone();
    for unit in &mut reduced.units {
        unit.nodes.retain(|j| !failed.contains(j));
    }
    let plan = plan_transition(dep, old_manifest, &reduced, &manifest);
    Ok(LpRepair { assignment, manifest, degraded_units, plan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AnalysisClass;
    use crate::nids::lp::solve_nids_lp;
    use crate::units::{build_units, UnitKey};
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

    /// Exact-sweep multiplicity over every unit except the listed ones
    /// (the units a failure makes unrecoverable).
    fn coverage_excluding(
        manifest: &SamplingManifest,
        dep: &NidsDeployment,
        skip: &[usize],
    ) -> (usize, usize) {
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for u in 0..dep.units.len() {
            if skip.contains(&u) {
                continue;
            }
            let (ulo, uhi) = manifest.unit_coverage_exact(dep, u);
            lo = lo.min(ulo);
            hi = hi.max(uhi);
        }
        (lo, hi)
    }

    #[test]
    fn greedy_repair_restores_exact_coverage_for_every_single_crash() {
        let (dep, cfg, m) = setup();
        for f in 0..dep.num_nodes {
            let failed = NodeId(f);
            let out = greedy_repair(&dep, &m, &cfg.caps, &[failed]);
            // Unrecoverable = exactly the units whose whole path is the
            // failed node (its ingress/egress classes).
            for &u in &out.unrecoverable {
                assert_eq!(dep.units[u].nodes, vec![failed], "unit {u} is single-node");
            }
            assert!(!out.unrecoverable.is_empty(), "ingress/egress of {failed:?} must be lost");
            // Every other unit is back to exact single coverage — the
            // sweep proves there is no gap and no overlap anywhere else.
            let cov = coverage_excluding(&out.manifest, &dep, &out.unrecoverable);
            assert_eq!(cov, (1, 1), "crash {failed:?}");
            // The failed node holds nothing afterwards.
            assert!(out.manifest.node_entries(failed).is_empty());
            // Moved measure equals the failed node's recoverable share.
            let share: f64 = (0..dep.units.len()).map(|u| m.share(u, failed)).sum::<f64>();
            let lost: f64 = out.unrecoverable.iter().map(|&u| m.share(u, failed)).sum::<f64>();
            assert!(
                (out.moved_measure - (share - lost)).abs() < 1e-6,
                "crash {failed:?}: moved {} vs share {share} - lost {lost}",
                out.moved_measure
            );
            assert!(out.repaired_units > 0);
            assert!(out.max_load_after <= out.load_bound + 1e-9);
            assert!(out.max_load_after >= out.max_load_before - 1e-9);
        }
    }

    #[test]
    fn greedy_repair_under_redundancy_keeps_distinct_owners() {
        let (dep0, mut cfg, _) = setup();
        // Redundancy 2 on the multi-node (per-path) units only.
        let dep = NidsDeployment {
            classes: dep0.classes.clone(),
            units: dep0.units.iter().filter(|u| u.nodes.len() >= 2).cloned().collect(),
            num_nodes: dep0.num_nodes,
        };
        cfg.redundancy = 2.0;
        let a = solve_nids_lp(&dep, &cfg).unwrap();
        let m = generate_manifests(&dep, &a.d);
        let failed = NodeId(4);
        let out = greedy_repair(&dep, &m, &cfg.caps, &[failed]);
        // Two-hop paths through the failed node drop to one surviving
        // owner: multiplicity 2 is unrecoverable there (a node may not
        // cover the same point twice).
        for &u in &out.unrecoverable {
            let survivors = dep.units[u].nodes.iter().filter(|&&j| j != failed).count();
            assert_eq!(survivors, 1, "unit {u} lost multiplicity with 1 survivor");
        }
        let (lo, hi) = coverage_excluding(&out.manifest, &dep, &out.unrecoverable);
        assert_eq!((lo, hi), (2, 2), "distinct double coverage restored");
    }

    #[test]
    fn lp_repair_reoptimizes_and_plans_migration() {
        let (dep, cfg, m) = setup();
        let failed = NodeId(2);
        let rep = lp_repair(&dep, &m, &cfg, &[failed]).unwrap();
        // Degraded = the failed node's single-node units.
        for &u in &rep.degraded_units {
            assert!(matches!(
                dep.units[u].key,
                UnitKey::Ingress(n) | UnitKey::Egress(n) if n == failed
            ));
        }
        assert!(!rep.degraded_units.is_empty());
        // The re-optimized manifest gives the failed node nothing and
        // covers everything else exactly once.
        assert!(rep.manifest.node_entries(failed).is_empty());
        assert_eq!(coverage_excluding(&rep.manifest, &dep, &rep.degraded_units), (1, 1));
        // Every unit the failed node served must flag it for transfer
        // (its state is lost, not drained).
        for t in &rep.plan.units {
            if m.share(t.new_unit, failed) > 0.0 {
                assert!(t.transfer_from.contains(&failed), "unit {}: {t:?}", t.new_unit);
                assert!(!t.drain_at.contains(&failed));
            }
        }
        // A second failure what-if re-solves with the same exclusion
        // semantics.
        let rep2 = lp_repair(&dep, &m, &cfg, &[NodeId(7)]).unwrap();
        assert!(rep2.manifest.node_entries(NodeId(7)).is_empty());
    }

    #[test]
    fn greedy_repair_of_nothing_is_identity() {
        let (dep, cfg, m) = setup();
        let out = greedy_repair(&dep, &m, &cfg.caps, &[]);
        assert_eq!(out.repaired_units, 0);
        assert_eq!(out.moved_measure, 0.0);
        assert!(out.unrecoverable.is_empty());
        assert_eq!(out.manifest.verify_coverage(&dep), (1, 1));
        assert!((out.max_load_after - out.max_load_before).abs() < 1e-12);
    }
}
