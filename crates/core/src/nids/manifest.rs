//! Sampling manifests (paper Fig 2) and the per-node coordination check
//! (paper Fig 3).
//!
//! `GENERATE-NIDS-MANIFEST` converts the optimal fractional assignment
//! `d*` into **non-overlapping hash ranges** per coordination unit: walking
//! the unit's nodes in a fixed order, node `j` receives
//! `[Range, Range + d*_ikj)`. Because every node hashes packets with the
//! same keyed function, the ranges partition the hash space and each item
//! is analyzed exactly once network-wide — with zero runtime coordination.
//!
//! With the redundancy extension (§2.5) the covered space is `[0, r)`; the
//! running range wraps around the unit interval, so a node's share can be
//! a two-segment [`RangeSet`]. Since each `d ≤ 1`, a node never wraps onto
//! itself, guaranteeing `r` *distinct* nodes per point.

use crate::nids::lp::NodeCaps;
use crate::units::{NidsDeployment, UnitKey};
use nwdp_hash::RangeSet;
use nwdp_topo::NodeId;

/// One node's responsibility for one coordination unit.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Class index in the deployment.
    pub class: usize,
    /// Unit index in the deployment.
    pub unit: usize,
    pub key: UnitKey,
    pub ranges: RangeSet,
}

/// The network-wide set of sampling manifests.
#[derive(Debug, Clone)]
pub struct SamplingManifest {
    /// Entries grouped per node.
    per_node: Vec<Vec<ManifestEntry>>,
    /// Unit `u`'s entries, as `(node, position in per_node[node])`, are
    /// `by_unit[unit_start[u]..unit_start[u + 1]]`, ascending by node.
    unit_start: Vec<u32>,
    by_unit: Vec<(u32, u32)>,
}

/// Manifests are equal when their per-node entries are; the per-unit
/// index is derived from them.
impl PartialEq for SamplingManifest {
    fn eq(&self, other: &Self) -> bool {
        self.per_node == other.per_node
    }
}

/// Fig 2: translate the optimal solution into sampling manifests.
///
/// `d[u]` lists `(node, fraction)` in a fixed node order (the order of
/// `dep.units[u].nodes`; the paper notes the order does not matter as long
/// as it is consistent).
pub fn generate_manifests(dep: &NidsDeployment, d: &[Vec<(NodeId, f64)>]) -> SamplingManifest {
    assert_eq!(d.len(), dep.units.len(), "assignment/unit count mismatch");
    let mut per_node: Vec<Vec<ManifestEntry>> = vec![Vec::new(); dep.num_nodes];
    for (u, unit) in dep.units.iter().enumerate() {
        let mut range = 0.0f64;
        for &(j, frac) in &d[u] {
            debug_assert!((0.0..=1.0 + 1e-9).contains(&frac), "fraction {frac} out of range");
            if frac <= 1e-12 {
                continue;
            }
            let ranges = RangeSet::wrapped(range, range + frac);
            range += frac;
            let entry = ManifestEntry { class: unit.class, unit: u, key: unit.key, ranges };
            per_node[j.index()].push(entry);
        }
    }
    SamplingManifest::indexed(per_node)
}

/// Seam tolerance for the exact coverage sweep: ~4 ulps of the 2⁻³² hash
/// lattice the engine quantizes to. Endpoints closer than this are one
/// seam; intervals narrower than this carry no representable hash value.
pub const SWEEP_EPS: f64 = 1e-9;

impl SamplingManifest {
    /// Rebuild a manifest from explicit per-node entries (one entry per
    /// `(unit, node)` pair at most). This is how the resilience repair
    /// paths construct manifests: they move *specific hash segments*
    /// between nodes, which the fractional [`generate_manifests`] walk
    /// cannot express.
    pub fn from_entries(
        num_nodes: usize,
        entries: impl IntoIterator<Item = (NodeId, ManifestEntry)>,
    ) -> SamplingManifest {
        let mut per_node: Vec<Vec<ManifestEntry>> = vec![Vec::new(); num_nodes];
        for (node, entry) in entries {
            if entry.ranges.is_empty() {
                continue;
            }
            per_node[node.index()].push(entry);
        }
        SamplingManifest::indexed(per_node)
    }

    /// The manifest of `per_node`, with its per-unit index. Panics on two
    /// entries for one unit at one node.
    fn indexed(per_node: Vec<Vec<ManifestEntry>>) -> SamplingManifest {
        let units = per_node.iter().flatten().map(|e| e.unit + 1).max().unwrap_or(0);
        let mut unit_start = vec![0u32; units + 1];
        for e in per_node.iter().flatten() {
            unit_start[e.unit + 1] += 1;
        }
        for u in 0..units {
            unit_start[u + 1] += unit_start[u];
        }
        // Filling node by node leaves each unit's entries ascending by node.
        let mut by_unit = vec![(0, 0); unit_start[units] as usize];
        let mut next = unit_start.clone();
        for (j, entries) in per_node.iter().enumerate() {
            for (pos, e) in entries.iter().enumerate() {
                let slot = &mut next[e.unit];
                if *slot > unit_start[e.unit] {
                    let (prev, _) = by_unit[*slot as usize - 1];
                    assert!(
                        prev as usize != j,
                        "duplicate manifest entry for unit {} at {:?}",
                        e.unit,
                        NodeId(j)
                    );
                }
                by_unit[*slot as usize] = (j as u32, pos as u32);
                *slot += 1;
            }
        }
        SamplingManifest { per_node, unit_start, by_unit }
    }

    /// All of `node`'s responsibilities.
    pub fn node_entries(&self, node: NodeId) -> &[ManifestEntry] {
        &self.per_node[node.index()]
    }

    /// Number of nodes the manifest was compiled for.
    pub fn num_nodes(&self) -> usize {
        self.per_node.len()
    }

    /// The hash range `HashRange(i, k, j)` for unit `u` at `node`, if any.
    pub fn range(&self, unit: usize, node: NodeId) -> Option<&RangeSet> {
        let (Some(&a), Some(&b)) = (self.unit_start.get(unit), self.unit_start.get(unit + 1))
        else {
            return None;
        };
        let entries = &self.by_unit[a as usize..b as usize];
        let (j, pos) = *entries.iter().find(|&&(j, _)| j as usize == node.index())?;
        Some(&self.per_node[j as usize][pos as usize].ranges)
    }

    /// Fig 3 line 5: should `node` run the unit's class on a packet whose
    /// coordination hash is `h ∈ [0, 1)`?
    pub fn should_analyze(&self, unit: usize, node: NodeId, h: f64) -> bool {
        self.range(unit, node).is_some_and(|r| r.contains(h))
    }

    /// Fraction of the unit's hash space assigned to `node`.
    pub fn share(&self, unit: usize, node: NodeId) -> f64 {
        self.range(unit, node).map_or(0.0, |r| r.measure())
    }

    /// The unit's range at each of `nodes`, in order: the owner slots
    /// [`coverage_sweep`] takes.
    pub fn unit_slots(&self, unit: usize, nodes: &[NodeId]) -> Vec<Option<&RangeSet>> {
        nodes.iter().map(|&j| self.range(unit, j)).collect()
    }

    /// Verify the manifest invariants for every unit:
    /// 1. the ranges of distinct nodes are disjoint within each unit
    ///    (multiplicity never exceeds the redundancy level), and
    /// 2. every point of the hash space is covered exactly `r` times by
    ///    `r` distinct nodes.
    ///
    /// The check is exact: it probes one point per elementary interval of
    /// the [`coverage_sweep`], so no gap or overlap can hide between probe
    /// points.
    ///
    /// Returns the coverage multiplicity (min, max) over all units.
    pub fn verify_coverage(&self, dep: &NidsDeployment) -> (usize, usize) {
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for u in 0..dep.units.len() {
            let (ulo, uhi) = self.unit_coverage_exact(dep, u);
            lo = lo.min(ulo);
            hi = hi.max(uhi);
        }
        (lo, hi)
    }

    /// The exact-sweep coverage multiplicity (min, max) of one unit. The
    /// resilience layer uses this to verify repaired units individually
    /// while failed single-node units are accounted as shed rather than
    /// flagged as gaps.
    pub fn unit_coverage_exact(&self, dep: &NidsDeployment, u: usize) -> (usize, usize) {
        let slots = self.unit_slots(u, &dep.units[u].nodes);
        coverage_sweep(&slots).fold((usize::MAX, 0), |(lo, hi), (_, _, covering)| {
            let covers = (0..slots.len()).filter(|&i| covering(i)).count();
            (lo.min(covers), hi.max(covers))
        })
    }
}

/// The coverage sweep of one unit's hash space, given the unit's range at
/// each owner slot: `[0, 1]` cut at the clamped segment endpoints, yielded
/// as `(a, b, covering)` in ascending order. `covering(i)` says whether
/// slot `i`'s range contains the piece's midpoint, which is
/// [`SamplingManifest::should_analyze`]'s verdict there; coverage is
/// constant on each piece. Pieces of width at most [`SWEEP_EPS`] are
/// skipped: they are seams (FP drift from the running-range walk in
/// [`generate_manifests`] lives below the hash lattice and is not a real
/// gap). Validation, `verify_coverage`, blind-node gaps, greedy repair and
/// transition planning are all folds over this sweep.
pub fn coverage_sweep<'a>(
    slots: &'a [Option<&'a RangeSet>],
) -> impl Iterator<Item = (f64, f64, impl Fn(usize) -> bool + 'a)> + 'a {
    let mut cuts: Vec<f64> = vec![0.0, 1.0];
    for ranges in slots.iter().flatten() {
        for seg in ranges.segments() {
            cuts.push(seg.lo.clamp(0.0, 1.0));
            cuts.push(seg.hi.clamp(0.0, 1.0));
        }
    }
    cuts.sort_by(f64::total_cmp);
    (1..cuts.len()).filter_map(move |w| {
        let (a, b) = (cuts[w - 1], cuts[w]);
        let h = 0.5 * (a + b);
        (b - a > SWEEP_EPS)
            .then_some((a, b, move |i: usize| slots[i].is_some_and(|r| r.contains(h))))
    })
}

/// Per-node (CPU, memory) capacity fractions induced by a manifest: each
/// unit's [`NidsDeployment::unit_demand`] times the node's hash share,
/// which is what validation checks and repair manipulates.
pub fn manifest_loads(
    dep: &NidsDeployment,
    caps: &[NodeCaps],
    manifest: &SamplingManifest,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(caps.len(), dep.num_nodes, "capacity vector size mismatch");
    let mut cpu = vec![0.0; dep.num_nodes];
    let mut mem = vec![0.0; dep.num_nodes];
    for (u, unit) in dep.units.iter().enumerate() {
        let (c, m) = dep.unit_demand(u);
        for &j in &unit.nodes {
            let share = manifest.share(u, j);
            if share > 0.0 {
                cpu[j.index()] += c * share / caps[j.index()].cpu;
                mem[j.index()] += m * share / caps[j.index()].mem;
            }
        }
    }
    (cpu, mem)
}

/// Why the validation gate rejected a candidate manifest. Every variant
/// names the first offending unit/node in deterministic iteration order,
/// so a rejection is reproducible and debuggable from the error alone.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestValidationError {
    /// The manifest was compiled for a different node count.
    NodeCountMismatch { manifest: usize, deployment: usize },
    /// An entry references a unit index outside the deployment.
    UnknownUnit { node: usize, unit: usize },
    /// An entry references a class index with no registered analysis class.
    UnknownClass { unit: usize, class: usize },
    /// An entry's class disagrees with the unit's class in the deployment.
    ClassMismatch { unit: usize, entry: usize, expected: usize },
    /// An entry's coordination key disagrees with the unit's key.
    KeyMismatch { unit: usize },
    /// An entry assigns hash space to a node outside the unit's eligible
    /// set — traffic for the unit never transits that node, so the range
    /// would silently go unanalyzed.
    ForeignNode { unit: usize, node: usize },
    /// A range segment is non-finite or escapes the unit hash interval.
    MalformedRange { unit: usize, node: usize, lo: f64, hi: f64 },
    /// Some hash interval of the unit is covered by fewer than
    /// `redundancy` distinct nodes.
    CoverageGap { unit: usize, lo: f64, hi: f64, covers: usize, want: usize },
    /// Some hash interval of the unit is covered by more than
    /// `redundancy` distinct nodes (duplicate analysis).
    CoverageOverlap { unit: usize, lo: f64, hi: f64, covers: usize, want: usize },
    /// A node's manifest-implied load exceeds the capacity ceiling.
    CapacityExceeded { node: usize, resource: &'static str, load: f64, limit: f64 },
}

impl std::fmt::Display for ManifestValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ManifestValidationError::*;
        match self {
            NodeCountMismatch { manifest, deployment } => {
                write!(f, "manifest compiled for {manifest} nodes, deployment has {deployment}")
            }
            UnknownUnit { node, unit } => {
                write!(f, "node {node} references unknown unit {unit}")
            }
            UnknownClass { unit, class } => {
                write!(f, "unit {unit} references unknown analysis class {class}")
            }
            ClassMismatch { unit, entry, expected } => {
                write!(f, "unit {unit} entry carries class {entry}, deployment says {expected}")
            }
            KeyMismatch { unit } => {
                write!(f, "unit {unit} entry carries a different coordination key")
            }
            ForeignNode { unit, node } => {
                write!(f, "unit {unit} assigns hash space to off-path node {node}")
            }
            MalformedRange { unit, node, lo, hi } => {
                write!(f, "unit {unit} node {node} has malformed range [{lo}, {hi})")
            }
            CoverageGap { unit, lo, hi, covers, want } => {
                write!(
                    f,
                    "unit {unit}: [{lo:.6}, {hi:.6}) covered by {covers} distinct nodes, need {want}"
                )
            }
            CoverageOverlap { unit, lo, hi, covers, want } => {
                write!(
                    f,
                    "unit {unit}: [{lo:.6}, {hi:.6}) covered by {covers} distinct nodes, want {want}"
                )
            }
            CapacityExceeded { node, resource, load, limit } => {
                write!(f, "node {node} {resource} load {load:.3} exceeds ceiling {limit:.3}")
            }
        }
    }
}

impl std::error::Error for ManifestValidationError {}

/// Optional capacity check for [`validate_manifests`]: reject manifests
/// whose [`manifest_loads`] exceed `max_load` on some node.
#[derive(Debug, Clone)]
pub struct CapacityCeiling<'a> {
    pub caps: &'a [NodeCaps],
    /// Load ceiling as a fraction of capacity (1.0 = exactly at capacity).
    pub max_load: f64,
}

/// The validation gate in front of `Engine::set_manifest`: decide whether a
/// candidate manifest is safe to serve *before* any engine swaps to it.
///
/// Checks, in deterministic order:
/// 1. structural integrity — node count, unit/class/key indices resolve in
///    `dep`, ranges only on eligible nodes, segments finite inside `[0, 1]`;
/// 2. exact coverage — every unit's hash space covered by exactly
///    `round(redundancy)` *distinct* nodes (the [`coverage_sweep`], as in
///    [`SamplingManifest::unit_coverage_exact`], so no gap or overlap
///    wider than [`SWEEP_EPS`] can hide);
/// 3. capacity — when `ceiling` is given, the [`manifest_loads`] of every
///    node stay at or under `ceiling.max_load`.
///
/// Returns the first violation found; `Ok(())` means the manifest may go
/// live. Callers keep the previous manifest serving on `Err`.
pub fn validate_manifests(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    redundancy: f64,
    ceiling: Option<&CapacityCeiling<'_>>,
) -> Result<(), ManifestValidationError> {
    validate_manifests_excluding(dep, manifest, redundancy, ceiling, &[])
}

/// [`validate_manifests`] with an explicit allowance for *known* coverage
/// gaps: unit indices in `skip_units` are exempt from the exact-coverage
/// sweep (structural and capacity checks still apply everywhere).
///
/// This is the gate for post-repair manifests: `greedy_repair` /
/// `lp_repair` report units whose only eligible observer failed as
/// `unrecoverable` / `degraded_units` — those units legitimately have no
/// coverage, and a gate that rejected the otherwise-sound repair for them
/// would force the cluster to keep serving the *stale* manifest, which is
/// strictly worse. Everything **not** listed is still held to exact
/// coverage, so the allowance cannot mask an unrelated gap.
pub fn validate_manifests_excluding(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    redundancy: f64,
    ceiling: Option<&CapacityCeiling<'_>>,
    skip_units: &[usize],
) -> Result<(), ManifestValidationError> {
    use ManifestValidationError as E;
    if manifest.num_nodes() != dep.num_nodes {
        return Err(E::NodeCountMismatch {
            manifest: manifest.num_nodes(),
            deployment: dep.num_nodes,
        });
    }
    // 1. Structural integrity, per node in order.
    for j in 0..dep.num_nodes {
        for entry in manifest.node_entries(NodeId(j)) {
            let Some(unit) = dep.units.get(entry.unit) else {
                return Err(E::UnknownUnit { node: j, unit: entry.unit });
            };
            if entry.class >= dep.classes.len() {
                return Err(E::UnknownClass { unit: entry.unit, class: entry.class });
            }
            if entry.class != unit.class {
                return Err(E::ClassMismatch {
                    unit: entry.unit,
                    entry: entry.class,
                    expected: unit.class,
                });
            }
            if entry.key != unit.key {
                return Err(E::KeyMismatch { unit: entry.unit });
            }
            if !unit.nodes.contains(&NodeId(j)) {
                return Err(E::ForeignNode { unit: entry.unit, node: j });
            }
            for seg in entry.ranges.segments() {
                let bad = !seg.lo.is_finite()
                    || !seg.hi.is_finite()
                    || seg.lo < -SWEEP_EPS
                    || seg.hi > 1.0 + SWEEP_EPS
                    || seg.hi < seg.lo;
                if bad {
                    return Err(E::MalformedRange {
                        unit: entry.unit,
                        node: j,
                        lo: seg.lo,
                        hi: seg.hi,
                    });
                }
            }
        }
    }
    // 2. Exact per-unit coverage at the redundancy multiplicity.
    let want = (redundancy.round() as usize).max(1);
    for (u, unit) in dep.units.iter().enumerate() {
        if skip_units.contains(&u) {
            continue;
        }
        let slots = manifest.unit_slots(u, &unit.nodes);
        for (a, b, covering) in coverage_sweep(&slots) {
            let covers = (0..slots.len()).filter(|&i| covering(i)).count();
            if covers < want {
                return Err(E::CoverageGap { unit: u, lo: a, hi: b, covers, want });
            }
            if covers > want {
                return Err(E::CoverageOverlap { unit: u, lo: a, hi: b, covers, want });
            }
        }
    }
    // 3. Capacity ceiling from manifest-implied loads.
    if let Some(ceiling) = ceiling {
        let (cpu, mem) = manifest_loads(dep, ceiling.caps, manifest);
        for j in 0..dep.num_nodes {
            if cpu[j] > ceiling.max_load + 1e-9 {
                return Err(E::CapacityExceeded {
                    node: j,
                    resource: "cpu",
                    load: cpu[j],
                    limit: ceiling.max_load,
                });
            }
            if mem[j] > ceiling.max_load + 1e-9 {
                return Err(E::CapacityExceeded {
                    node: j,
                    resource: "mem",
                    load: mem[j],
                    limit: ceiling.max_load,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AnalysisClass;
    use crate::nids::lp::{solve_nids_lp, NidsLpConfig, NodeCaps};
    use crate::units::{build_units, NidsDeployment};
    use nwdp_topo::{internet2, PathDb};
    use nwdp_traffic::{TrafficMatrix, VolumeModel};

    fn dep() -> NidsDeployment {
        let t = internet2();
        let paths = PathDb::shortest_paths(&t);
        let tm = TrafficMatrix::gravity(&t);
        let vol = VolumeModel::internet2_baseline();
        build_units(&t, &paths, &tm, &vol, &AnalysisClass::standard_set())
    }

    #[test]
    fn optimal_assignment_yields_exact_single_coverage() {
        let d = dep();
        let cfg = NidsLpConfig::homogeneous(d.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let a = solve_nids_lp(&d, &cfg).unwrap();
        let m = generate_manifests(&d, &a.d);
        let (lo, hi) = m.verify_coverage(&d);
        assert_eq!((lo, hi), (1, 1), "every hash point covered exactly once");
    }

    #[test]
    fn shares_match_fractions() {
        let d = dep();
        let cfg = NidsLpConfig::homogeneous(d.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let a = solve_nids_lp(&d, &cfg).unwrap();
        let m = generate_manifests(&d, &a.d);
        for (u, fr) in a.d.iter().enumerate() {
            for &(j, f) in fr {
                assert!(
                    (m.share(u, j) - f).abs() < 1e-9,
                    "unit {u} node {j:?}: share {} vs fraction {f}",
                    m.share(u, j)
                );
            }
        }
    }

    #[test]
    fn redundancy_two_covers_twice_distinctly() {
        let d0 = dep();
        let d2 = NidsDeployment {
            classes: d0.classes.clone(),
            units: d0.units.iter().filter(|u| u.nodes.len() >= 2).cloned().collect(),
            num_nodes: d0.num_nodes,
        };
        let mut cfg = NidsLpConfig::homogeneous(d2.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        cfg.redundancy = 2.0;
        let a = solve_nids_lp(&d2, &cfg).unwrap();
        let m = generate_manifests(&d2, &a.d);
        let (lo, hi) = m.verify_coverage(&d2);
        assert_eq!((lo, hi), (2, 2), "every point covered exactly twice");
    }

    /// One-unit deployment over the first `n` nodes of a line topology,
    /// with explicit per-node range sets.
    fn manifest_of(ranges: Vec<RangeSet>) -> (NidsDeployment, SamplingManifest) {
        let d0 = dep();
        let mut d = d0.clone();
        d.units.truncate(1);
        d.units[0].nodes = (0..ranges.len()).map(NodeId).collect();
        let entries = ranges.into_iter().enumerate().map(|(j, r)| {
            (
                NodeId(j),
                ManifestEntry { class: d.units[0].class, unit: 0, key: d.units[0].key, ranges: r },
            )
        });
        let m = SamplingManifest::from_entries(d.num_nodes, entries);
        (d, m)
    }

    #[test]
    fn exact_sweep_catches_sub_grid_gap() {
        // A gap of width 2e-4 straddling no midpoint of a 101-point grid:
        // the old grid check reported (1, 1); the exact sweep must not.
        let (d, m) =
            manifest_of(vec![RangeSet::interval(0.0, 0.49505), RangeSet::interval(0.49525, 1.0)]);
        let mut grid_lo = usize::MAX;
        for g in 0..101 {
            let h = (g as f64 + 0.5) / 101.0;
            let covers = (0..2).filter(|&j| m.should_analyze(0, NodeId(j), h)).count();
            grid_lo = grid_lo.min(covers);
        }
        assert_eq!(grid_lo, 1, "the grid probe misses the gap");
        assert_eq!(m.verify_coverage(&d), (0, 1), "the sweep finds it");
    }

    #[test]
    fn exact_sweep_catches_sub_grid_overlap() {
        let (d, m) =
            manifest_of(vec![RangeSet::interval(0.0, 0.49535), RangeSet::interval(0.49515, 1.0)]);
        assert_eq!(m.verify_coverage(&d), (1, 2));
    }

    #[test]
    fn exact_sweep_tolerates_sub_lattice_drift() {
        // Endpoints 3e-10 apart (under the 2^-32 hash lattice) are one
        // seam, not a gap.
        let (d, m) =
            manifest_of(vec![RangeSet::interval(0.0, 0.5), RangeSet::interval(0.5 + 3e-10, 1.0)]);
        assert_eq!(m.verify_coverage(&d), (1, 1));
    }

    #[test]
    fn from_entries_round_trips_generated_manifest() {
        let d = dep();
        let cfg = NidsLpConfig::homogeneous(d.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let a = solve_nids_lp(&d, &cfg).unwrap();
        let m = generate_manifests(&d, &a.d);
        let entries = (0..d.num_nodes)
            .flat_map(|j| m.node_entries(NodeId(j)).iter().cloned().map(move |e| (NodeId(j), e)));
        let rebuilt = SamplingManifest::from_entries(d.num_nodes, entries.collect::<Vec<_>>());
        assert_eq!(rebuilt.verify_coverage(&d), (1, 1));
        for (u, _) in d.units.iter().enumerate() {
            for j in 0..d.num_nodes {
                assert_eq!(m.range(u, NodeId(j)), rebuilt.range(u, NodeId(j)));
            }
        }
    }

    #[test]
    fn hand_built_assignment_manifest() {
        // A unit split 0.25 / 0.75 across two nodes.
        let d0 = dep();
        let mut d: Vec<Vec<(NodeId, f64)>> = d0
            .units
            .iter()
            .map(|u| {
                let mut v: Vec<(NodeId, f64)> = u.nodes.iter().map(|&n| (n, 0.0)).collect();
                if v.len() >= 2 {
                    v[0].1 = 0.25;
                    v[1].1 = 0.75;
                } else {
                    v[0].1 = 1.0;
                }
                v
            })
            .collect();
        // Perturb one unit to check `share` on zero-fraction nodes.
        d[0][0].1 = 0.25;
        let m = generate_manifests(&d0, &d);
        let u0 = &d0.units[0];
        assert!((m.share(0, u0.nodes[0]) - 0.25).abs() < 1e-12);
        assert!((m.share(0, u0.nodes[1]) - 0.75).abs() < 1e-12);
        if u0.nodes.len() > 2 {
            assert_eq!(m.share(0, u0.nodes[2]), 0.0);
            assert!(m.range(0, u0.nodes[2]).is_none());
        }
        // Boundary semantics: 0.25 belongs to the second node.
        assert!(m.should_analyze(0, u0.nodes[0], 0.2499));
        assert!(!m.should_analyze(0, u0.nodes[0], 0.25));
        assert!(m.should_analyze(0, u0.nodes[1], 0.25));
    }

    fn lp_manifest() -> (NidsDeployment, SamplingManifest) {
        let d = dep();
        let cfg = NidsLpConfig::homogeneous(d.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let a = solve_nids_lp(&d, &cfg).unwrap();
        let m = generate_manifests(&d, &a.d);
        (d, m)
    }

    #[test]
    fn validation_accepts_lp_manifest_under_generous_ceiling() {
        let (d, m) = lp_manifest();
        assert_eq!(validate_manifests(&d, &m, 1.0, None), Ok(()));
        let caps = vec![NodeCaps { cpu: 2e8, mem: 4e9 }; d.num_nodes];
        let ceiling = CapacityCeiling { caps: &caps, max_load: 1.0 };
        assert_eq!(validate_manifests(&d, &m, 1.0, Some(&ceiling)), Ok(()));
    }

    #[test]
    fn validation_rejects_gap_and_overlap() {
        let (d, m) = manifest_of(vec![RangeSet::interval(0.0, 0.4), RangeSet::interval(0.5, 1.0)]);
        match validate_manifests(&d, &m, 1.0, None) {
            Err(ManifestValidationError::CoverageGap { unit: 0, covers: 0, want: 1, .. }) => {}
            other => panic!("expected a coverage gap, got {other:?}"),
        }
        let (d, m) = manifest_of(vec![RangeSet::interval(0.0, 0.6), RangeSet::interval(0.5, 1.0)]);
        match validate_manifests(&d, &m, 1.0, None) {
            Err(ManifestValidationError::CoverageOverlap {
                unit: 0, covers: 2, want: 1, ..
            }) => {}
            other => panic!("expected a coverage overlap, got {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_structural_corruption() {
        let (d, good) = lp_manifest();
        // Unknown unit index.
        let mut entries: Vec<(NodeId, ManifestEntry)> = (0..d.num_nodes)
            .flat_map(|j| good.node_entries(NodeId(j)).iter().cloned().map(move |e| (NodeId(j), e)))
            .collect();
        entries[0].1.unit = d.units.len() + 7;
        let m = SamplingManifest::from_entries(d.num_nodes, entries.clone());
        assert!(matches!(
            validate_manifests(&d, &m, 1.0, None),
            Err(ManifestValidationError::UnknownUnit { .. })
        ));
        // Unknown class / class mismatch on the same entry.
        entries[0].1.unit = good.node_entries(entries[0].0)[0].unit;
        entries[0].1.class = d.classes.len() + 3;
        let m = SamplingManifest::from_entries(d.num_nodes, entries.clone());
        assert!(matches!(
            validate_manifests(&d, &m, 1.0, None),
            Err(ManifestValidationError::UnknownClass { .. })
        ));
        // Node-count mismatch.
        entries[0].1.class = d.units[entries[0].1.unit].class;
        let m = SamplingManifest::from_entries(d.num_nodes + 1, entries);
        assert!(matches!(
            validate_manifests(&d, &m, 1.0, None),
            Err(ManifestValidationError::NodeCountMismatch { .. })
        ));
    }

    #[test]
    fn validation_rejects_foreign_node_ranges() {
        let (d, good) = lp_manifest();
        // Move some unsplit unit's whole range onto a node outside its
        // eligible set: structurally a ForeignNode violation.
        let (u, victim) = d
            .units
            .iter()
            .enumerate()
            .filter(|(u, unit)| {
                unit.nodes.iter().filter(|&&j| good.share(*u, j) > 0.0).count() == 1
            })
            .find_map(|(u, unit)| {
                let outsider = (0..d.num_nodes).map(NodeId).find(|n| !unit.nodes.contains(n))?;
                Some((u, outsider))
            })
            .expect("some unit excludes some node");
        let entries = (0..d.num_nodes).flat_map(|j| {
            good.node_entries(NodeId(j)).iter().cloned().map(move |e| {
                let to = if e.unit == u { victim } else { NodeId(j) };
                (to, e)
            })
        });
        let m = SamplingManifest::from_entries(d.num_nodes, entries.collect::<Vec<_>>());
        assert!(matches!(
            validate_manifests(&d, &m, 1.0, None),
            Err(ManifestValidationError::ForeignNode { node, .. }) if node == victim.index()
        ));
    }

    #[test]
    fn validation_rejects_capacity_ceiling_violation() {
        let (d, m) = lp_manifest();
        // Starve one node: its LP-assigned share now exceeds any ceiling.
        let mut caps = vec![NodeCaps { cpu: 2e8, mem: 4e9 }; d.num_nodes];
        let loaded = (0..d.num_nodes)
            .map(NodeId)
            .max_by(|a, b| {
                let sa: f64 = (0..d.units.len()).map(|u| m.share(u, *a)).sum();
                let sb: f64 = (0..d.units.len()).map(|u| m.share(u, *b)).sum();
                sa.total_cmp(&sb)
            })
            .unwrap();
        caps[loaded.index()] = NodeCaps { cpu: 1.0, mem: 1.0 };
        let ceiling = CapacityCeiling { caps: &caps, max_load: 1.0 };
        assert!(matches!(
            validate_manifests(&d, &m, 1.0, Some(&ceiling)),
            Err(ManifestValidationError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn excluding_allows_only_the_listed_gap_units() {
        // Unit 0 has a real gap: rejected plainly, accepted when unit 0 is
        // declared unrecoverable — but only that unit is exempt.
        let (d, m) = manifest_of(vec![RangeSet::interval(0.0, 0.4), RangeSet::interval(0.5, 1.0)]);
        assert!(matches!(
            validate_manifests(&d, &m, 1.0, None),
            Err(ManifestValidationError::CoverageGap { unit: 0, .. })
        ));
        assert_eq!(validate_manifests_excluding(&d, &m, 1.0, None, &[0]), Ok(()));
        // Exempting some other unit does not mask unit 0's gap.
        assert!(matches!(
            validate_manifests_excluding(&d, &m, 1.0, None, &[1]),
            Err(ManifestValidationError::CoverageGap { unit: 0, .. })
        ));
        // Structural checks still apply to exempted units.
        let mut entries: Vec<(NodeId, ManifestEntry)> =
            (0..d.num_nodes).flat_map(|j| good_entries(&m, j)).collect();
        entries[0].1.key = match entries[0].1.key {
            UnitKey::Ingress(n) => UnitKey::Egress(n),
            _ => UnitKey::Ingress(NodeId(0)),
        };
        let bad = SamplingManifest::from_entries(d.num_nodes, entries);
        assert!(matches!(
            validate_manifests_excluding(&d, &bad, 1.0, None, &[0]),
            Err(ManifestValidationError::KeyMismatch { .. })
        ));
    }

    fn good_entries(m: &SamplingManifest, j: usize) -> Vec<(NodeId, ManifestEntry)> {
        m.node_entries(NodeId(j)).iter().cloned().map(|e| (NodeId(j), e)).collect()
    }

    #[test]
    fn validation_checks_redundancy_multiplicity() {
        // Two nodes each covering everything: valid at r=2, overlap at r=1.
        let (d, m) = manifest_of(vec![RangeSet::interval(0.0, 1.0), RangeSet::interval(0.0, 1.0)]);
        assert_eq!(validate_manifests(&d, &m, 2.0, None), Ok(()));
        assert!(matches!(
            validate_manifests(&d, &m, 1.0, None),
            Err(ManifestValidationError::CoverageOverlap { covers: 2, want: 1, .. })
        ));
    }
}
