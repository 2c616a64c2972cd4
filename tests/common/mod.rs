//! Brute-force reference for the coverage sweep, in test code only.
//!
//! The library decides every exact coverage question (validation,
//! `verify_coverage`, blind-node gaps, greedy repair, moved fractions) by
//! folding over `nwdp::core::nids::coverage_sweep`, which reads each
//! owner's ranges once per unit. The reference here is the older,
//! independent formulation: cut the unit's hash space at every segment
//! endpoint, then probe each piece's midpoint with
//! `SamplingManifest::should_analyze`, one index lookup per (piece, node).
//! The `check_*` helpers assert the two agree bit for bit.

#![allow(dead_code)]

use nwdp::core::migration::plan_transition;
use nwdp::core::nids::manifest::SWEEP_EPS;
use nwdp::prelude::*;

/// One side of a sweep: a manifest, a unit index in it, and the unit's
/// eligible nodes.
type Side<'a> = (&'a SamplingManifest, usize, &'a [NodeId]);

/// The pieces `(a, b)` of `[0, 1]` cut at the clamped segment endpoints of
/// every side's ranges, in ascending order, pieces of width at most `eps`
/// dropped.
fn pieces(sides: &[Side<'_>], eps: f64) -> Vec<(f64, f64)> {
    let mut cuts = vec![0.0, 1.0];
    for &(m, u, nodes) in sides {
        for &j in nodes {
            for seg in m.range(u, j).map(|r| r.segments()).unwrap_or_default() {
                cuts.extend([seg.lo.clamp(0.0, 1.0), seg.hi.clamp(0.0, 1.0)]);
            }
        }
    }
    cuts.sort_by(f64::total_cmp);
    cuts.windows(2).map(|w| (w[0], w[1])).filter(|&(a, b)| b - a > eps).collect()
}

fn unit_pieces(dep: &NidsDeployment, m: &SamplingManifest, u: usize) -> Vec<(f64, f64)> {
    pieces(&[(m, u, &dep.units[u].nodes)], SWEEP_EPS)
}

/// Coverage multiplicity (min, max) of unit `u`.
pub fn unit_coverage(dep: &NidsDeployment, m: &SamplingManifest, u: usize) -> (usize, usize) {
    let nodes = &dep.units[u].nodes;
    let mut lo = usize::MAX;
    let mut hi = 0;
    for (a, b) in unit_pieces(dep, m, u) {
        let h = 0.5 * (a + b);
        let covers = nodes.iter().filter(|&&j| m.should_analyze(u, j, h)).count();
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
        let mut gap = 0.0;
        for (a, b) in unit_pieces(dep, m, u) {
            let h = 0.5 * (a + b);
            if !unit.nodes.iter().any(|&j| !blind.contains(&j) && m.should_analyze(u, j, h)) {
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
    let mut moved = 0.0;
    for (u, unit) in dep.units.iter().enumerate() {
        total_traffic += unit.pkts;
        if !unit.nodes.iter().any(|&j| failed.contains(&j) && m.share(u, j) > 0.0) {
            continue;
        }
        let mut lost_measure = 0.0;
        for (a, b) in unit_pieces(dep, m, u) {
            let h = 0.5 * (a + b);
            let covering = |j: &NodeId| m.should_analyze(u, *j, h);
            let orphaned = unit.nodes.iter().filter(|j| failed.contains(j) && covering(j)).count();
            let eligible =
                unit.nodes.iter().filter(|j| !failed.contains(j) && !covering(j)).count();
            if orphaned > eligible {
                lost_measure += (b - a) * (orphaned - eligible) as f64;
            }
            // Each placed replica adds the piece's width once.
            for _ in 0..orphaned.min(eligible) {
                moved += b - a;
            }
        }
        if lost_measure > 0.0 {
            unrecoverable.push(u);
            lost_traffic += lost_measure * unit.pkts;
        }
    }
    let fraction = if total_traffic > 0.0 { lost_traffic / total_traffic } else { 0.0 };
    (unrecoverable, fraction, moved)
}

/// Moved fraction of every matched unit, keyed by its index in `new_dep`,
/// and their mean; pieces of width at most `eps` are skipped.
pub fn moved_fractions(
    old_dep: &NidsDeployment,
    old_m: &SamplingManifest,
    new_dep: &NidsDeployment,
    new_m: &SamplingManifest,
    eps: f64,
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
        let mut moved = 0.0;
        for (a, b) in pieces(&[(old_m, ou, old_nodes), (new_m, nu, &unit.nodes)], eps) {
            let h = 0.5 * (a + b);
            let old_owner = old_nodes.iter().find(|&&j| old_m.should_analyze(ou, j, h));
            let new_owner = unit.nodes.iter().find(|&&j| new_m.should_analyze(nu, j, h));
            if old_owner != new_owner {
                moved += b - a;
            }
        }
        total += moved;
        out.push((nu, moved));
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
    let (moved, mean) = moved_fractions(old_dep, old_m, new_dep, new_m, SWEEP_EPS);
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
