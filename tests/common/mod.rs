//! Brute-force reference for the coverage sweep, in test code only.
//!
//! The library decides every exact coverage question (validation,
//! `verify_coverage`, blind-node gaps, greedy repair, moved fractions) by
//! folding over `nwdp::core::nids::coverage_sweep`, which reads each
//! owner's ranges once per unit. The reference here is the older,
//! independent formulation: cut the unit's hash lattice at every segment
//! endpoint, then probe each piece's first hash value with
//! `SamplingManifest::should_analyze`, one index lookup per (piece, node).
//! The `check_*` helpers assert the two agree bit for bit.

#![allow(dead_code)]

use nwdp::core::migration::plan_transition;
use nwdp::prelude::*;

/// One side of a sweep: a manifest, a unit index in it, and the unit's
/// eligible nodes.
type Side<'a> = (&'a SamplingManifest, usize, &'a [NodeId]);

/// The non-empty pieces `[a, b)` of the lattice `[0, 2³²)` cut at every
/// segment endpoint of every side's ranges, in ascending order.
fn pieces(sides: &[Side<'_>]) -> Vec<(u64, u64)> {
    let mut cuts = vec![0, HASH_SPACE];
    for &(m, u, nodes) in sides {
        for &j in nodes {
            for seg in m.range(u, j).map(|r| r.segments()).unwrap_or_default() {
                cuts.extend([seg.lo, seg.hi]);
            }
        }
    }
    cuts.sort_unstable();
    cuts.windows(2).map(|w| (w[0], w[1])).filter(|&(a, b)| a < b).collect()
}

fn unit_pieces(dep: &NidsDeployment, m: &SamplingManifest, u: usize) -> Vec<(u64, u64)> {
    pieces(&[(m, u, &dep.units[u].nodes)])
}

/// The hash values that decide unit `u`'s coverage: `lo - 1`, `lo`,
/// `hi - 1` and `hi` of every segment, plus 0 and 2³² − 1.
pub fn seam_probes(m: &SamplingManifest, u: usize, nodes: &[NodeId]) -> Vec<u32> {
    let mut probes = vec![0, u32::MAX];
    for &j in nodes {
        for seg in m.range(u, j).map(RangeSet::segments).unwrap_or_default() {
            let around = [seg.lo.checked_sub(1), Some(seg.lo), seg.hi.checked_sub(1), Some(seg.hi)];
            probes
                .extend(around.into_iter().flatten().filter(|&p| p < HASH_SPACE).map(|p| p as u32));
        }
    }
    probes
}

/// Share of the hash space held by `points` lattice points.
fn measure(points: u64) -> f64 {
    points as f64 / HASH_SPACE as f64
}

/// Coverage multiplicity (min, max) of unit `u`.
pub fn unit_coverage(dep: &NidsDeployment, m: &SamplingManifest, u: usize) -> (usize, usize) {
    let nodes = &dep.units[u].nodes;
    let mut lo = usize::MAX;
    let mut hi = 0;
    for (a, _) in unit_pieces(dep, m, u) {
        let covers = nodes.iter().filter(|&&j| m.should_analyze(u, j, a as u32)).count();
        lo = lo.min(covers);
        hi = hi.max(covers);
    }
    (lo, hi)
}

/// Traffic-weighted measure covered by no node outside `blind`.
pub fn gap_fraction(dep: &NidsDeployment, m: &SamplingManifest, blind: &[NodeId]) -> f64 {
    let mut lost = 0.0;
    let mut total = 0.0;
    for (u, unit) in dep.units.iter().enumerate() {
        total += unit.pkts;
        let mut gap = 0;
        for (a, b) in unit_pieces(dep, m, u) {
            let h = a as u32;
            if !unit.nodes.iter().any(|&j| !blind.contains(&j) && m.should_analyze(u, j, h)) {
                gap += b - a;
            }
        }
        lost += measure(gap) * unit.pkts;
    }
    if total > 0.0 {
        lost / total
    } else {
        0.0
    }
}

/// What greedy repair's piece decomposition implies, independent of where
/// the pieces land: `(unrecoverable units, unrecoverable traffic
/// fraction, moved measure)`.
pub fn orphans(
    dep: &NidsDeployment,
    m: &SamplingManifest,
    failed: &[NodeId],
) -> (Vec<usize>, f64, f64) {
    let mut unrecoverable = Vec::new();
    let mut lost_traffic = 0.0;
    let mut total_traffic = 0.0;
    let mut moved = 0;
    for (u, unit) in dep.units.iter().enumerate() {
        total_traffic += unit.pkts;
        if !unit.nodes.iter().any(|&j| failed.contains(&j) && m.share(u, j) > 0.0) {
            continue;
        }
        let mut lost_points = 0;
        for (a, b) in unit_pieces(dep, m, u) {
            let covering = |j: &NodeId| m.should_analyze(u, *j, a as u32);
            let orphaned = unit.nodes.iter().filter(|j| failed.contains(j) && covering(j)).count();
            let eligible =
                unit.nodes.iter().filter(|j| !failed.contains(j) && !covering(j)).count();
            if orphaned > eligible {
                lost_points += (b - a) * (orphaned - eligible) as u64;
            }
            // Each placed replica adds the piece's width once.
            for _ in 0..orphaned.min(eligible) {
                moved += b - a;
            }
        }
        if lost_points > 0 {
            unrecoverable.push(u);
            lost_traffic += measure(lost_points) * unit.pkts;
        }
    }
    let fraction = if total_traffic > 0.0 { lost_traffic / total_traffic } else { 0.0 };
    (unrecoverable, fraction, measure(moved))
}

/// Moved fraction of every matched unit, keyed by its index in `new_dep`,
/// and their mean.
pub fn moved_fractions(
    old_dep: &NidsDeployment,
    old_m: &SamplingManifest,
    new_dep: &NidsDeployment,
    new_m: &SamplingManifest,
) -> (Vec<(usize, f64)>, f64) {
    let mut out = Vec::new();
    let mut total = 0.0;
    for (nu, unit) in new_dep.units.iter().enumerate() {
        let Some(ou) =
            old_dep.units.iter().position(|o| o.class == unit.class && o.key == unit.key)
        else {
            continue;
        };
        let old_nodes = &old_dep.units[ou].nodes;
        let mut moved = 0;
        for (a, b) in pieces(&[(old_m, ou, old_nodes), (new_m, nu, &unit.nodes)]) {
            let h = a as u32;
            let old_owner = old_nodes.iter().find(|&&j| old_m.should_analyze(ou, j, h));
            let new_owner = unit.nodes.iter().find(|&&j| new_m.should_analyze(nu, j, h));
            if old_owner != new_owner {
                moved += b - a;
            }
        }
        total += measure(moved);
        out.push((nu, measure(moved)));
    }
    let mean = if out.is_empty() { 0.0 } else { total / out.len() as f64 };
    (out, mean)
}

fn same_bits(lib: f64, reference: f64, what: &str) {
    assert_eq!(lib.to_bits(), reference.to_bits(), "{what}: sweep {lib} vs reference {reference}");
}

/// `verify_coverage`, every unit's `unit_coverage_exact` and
/// `manifest_gap_fraction` with 0, 1 and 2 blind nodes equal the
/// reference bit for bit.
pub fn check_coverage(dep: &NidsDeployment, m: &SamplingManifest) {
    let per_unit: Vec<(usize, usize)> =
        (0..dep.units.len()).map(|u| unit_coverage(dep, m, u)).collect();
    for (u, &want) in per_unit.iter().enumerate() {
        assert_eq!(m.unit_coverage_exact(dep, u), want, "unit {u} coverage");
    }
    let lo = per_unit.iter().map(|c| c.0).min().unwrap_or(usize::MAX);
    let hi = per_unit.iter().map(|c| c.1).max().unwrap_or(0);
    assert_eq!(m.verify_coverage(dep), (lo, hi));
    let last = NodeId(dep.num_nodes - 1);
    for blind in [vec![], vec![NodeId(0)], vec![NodeId(0), last]] {
        same_bits(
            manifest_gap_fraction(dep, m, &blind),
            gap_fraction(dep, m, &blind),
            &format!("gap with {blind:?} blind"),
        );
    }
}

/// `plan_transition` from `old_m` to `new_m` equals the reference moved
/// fractions bit for bit.
pub fn check_transition(
    old_dep: &NidsDeployment,
    old_m: &SamplingManifest,
    new_dep: &NidsDeployment,
    new_m: &SamplingManifest,
) {
    let plan = plan_transition(old_dep, old_m, new_dep, new_m);
    let (moved, mean) = moved_fractions(old_dep, old_m, new_dep, new_m);
    let nonzero: Vec<(usize, u64)> =
        moved.iter().filter(|m| m.1 != 0.0).map(|&(u, f)| (u, f.to_bits())).collect();
    let planned: Vec<(usize, u64)> =
        plan.units.iter().map(|t| (t.new_unit, t.moved_fraction.to_bits())).collect();
    assert_eq!(planned, nonzero, "per-unit moved fractions");
    same_bits(plan.mean_moved_fraction, mean, "mean moved fraction");
}

/// Greedy repair of `failed`: its unrecoverable units, unrecoverable
/// traffic and moved measure equal the reference bit for bit, the
/// repaired manifest passes [`check_coverage`], and the transition to it
/// passes [`check_transition`]. Returns the repaired manifest.
pub fn check_repair(
    dep: &NidsDeployment,
    m: &SamplingManifest,
    caps: &[NodeCaps],
    failed: &[NodeId],
) -> SamplingManifest {
    let out = greedy_repair(dep, m, caps, failed);
    let (unrecoverable, fraction, moved) = orphans(dep, m, failed);
    assert_eq!(out.unrecoverable, unrecoverable, "unrecoverable units");
    same_bits(out.unrecoverable_traffic_fraction, fraction, "unrecoverable traffic");
    same_bits(out.moved_measure, moved, "moved measure");
    check_coverage(dep, &out.manifest);
    check_transition(dep, m, dep, &out.manifest);
    out.manifest
}
