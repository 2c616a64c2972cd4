//! Cross-crate property tests on the system's core invariants.

mod common;

use nwdp::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// Random fractional assignments over random unit shapes must always
/// compile into manifests that partition the hash space exactly.
fn arb_unit_split() -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
    // 1..=5 positive shares, normalized to 1.
    proptest::collection::vec(0.01f64..1.0, 1..=5).prop_map(|mut v| {
        let s: f64 = v.iter().sum();
        for x in v.iter_mut() {
            *x /= s;
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn manifests_partition_unit_interval(splits in proptest::collection::vec(arb_unit_split(), 1..6)) {
        // Build a synthetic deployment: a line topology long enough for
        // the widest split AND with at least one path-unit per split
        // (a line of n nodes yields n(n-1) >= n path units).
        let max_nodes = splits.iter().map(|s| s.len()).max().unwrap();
        let topo = nwdp::topo::line(max_nodes.max(splits.len()).max(2));
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::uniform(&topo);
        let vol = VolumeModel::internet2_baseline();
        let classes = vec![AnalysisClass::standard_set().remove(0)];
        let dep0 = build_units(&topo, &paths, &tm, &vol, &classes);

        // Handcraft units: reuse the first `splits.len()` units, assigning
        // the generated fractional splits over the first nodes.
        let mut dep = dep0.clone();
        dep.units.truncate(splits.len());
        let d: Vec<Vec<(NodeId, f64)>> = splits
            .iter()
            .zip(&mut dep.units)
            .map(|(split, unit)| {
                unit.nodes = (0..split.len()).map(NodeId).collect();
                split.iter().enumerate().map(|(j, &f)| (NodeId(j), f)).collect()
            })
            .collect();
        let manifest = nwdp::core::nids::generate_manifests(&dep, &d);
        // Every probe point is covered exactly once.
        let (lo, hi) = manifest.verify_coverage(&dep);
        prop_assert_eq!((lo, hi), (1, 1));
        // Shares match the requested fractions.
        for (u, split) in splits.iter().enumerate() {
            for (j, &f) in split.iter().enumerate() {
                let got = manifest.share(u, NodeId(j));
                prop_assert!((got - f).abs() < 1e-9, "unit {} node {}: {} vs {}", u, j, got, f);
            }
        }
    }

    #[test]
    fn keyed_hash_consistent_across_directions(
        src in 1u32..0xffff, dst in 1u32..0xffff,
        sp in 1024u16..65000, dp in 1u16..1024, key in any::<u64>()
    ) {
        let t = FiveTuple::new(0x0a000000 | (src & 0xffff), 0x0a010000 | (dst & 0xffff), sp, dp, 6);
        let h = KeyedHasher::with_key(key);
        prop_assert_eq!(
            h.hash32(&t, FlowKeyKind::BiSession),
            h.hash32(&t.reversed(), FlowKeyKind::BiSession)
        );
    }

    #[test]
    fn rounding_always_feasible(cap_frac in 0.05f64..0.5, seed in 0u64..500) {
        let topo = nwdp::topo::line(4);
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::uniform(&topo);
        let vol = VolumeModel::internet2_baseline();
        let n_rules = 5;
        let rates = MatchRates::uniform_001(n_rules, paths.all_pairs().count(), seed);
        let inst = NipsInstance::evaluation_setup(&topo, &paths, &tm, &vol, n_rules, cap_frac, rates);
        let relax = solve_relaxation(&inst, &RowGenOpts::default()).unwrap();
        for strategy in [
            nwdp::core::nips::Strategy::ScaledFig9,
            nwdp::core::nips::Strategy::LpResolve,
            nwdp::core::nips::Strategy::GreedyLpResolve,
        ] {
            let sol = round_best_of(
                &inst,
                &relax,
                &RoundingOpts { strategy, iterations: 1, seed, ..Default::default() },
            );
            prop_assert!(sol.is_ok(), "{:?} failed to round: {:?}", strategy, sol.err());
            let sol = sol.unwrap();
            prop_assert!(inst.check_feasible(&sol.e, &sol.d, 1e-6).is_ok(),
                "{:?} produced infeasible solution", strategy);
            prop_assert!(sol.objective <= relax.objective * (1.0 + 1e-6));
        }
    }
}

/// Fractional splits summing to a redundancy level `r`, each share ≤ 1
/// (a node never wraps onto itself), carrying the FP drift of repeated
/// scaling — the exact shape `generate_manifests` consumes.
fn arb_redundant_split(r: usize) -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..1.0, (r + 1)..=6).prop_map(move |mut v| {
        // Scale the free (un-capped) shares until the total hits r; shares
        // that clip at 1.0 stay fixed. Terminates because the cap sum
        // (len > r) strictly exceeds the target.
        loop {
            let fixed: f64 = v.iter().filter(|&&x| x >= 1.0).sum();
            let free: f64 = v.iter().filter(|&&x| x < 1.0).sum();
            let target = r as f64 - fixed;
            if free <= 0.0 || target <= 0.0 {
                break;
            }
            let scale = target / free;
            let mut clipped = false;
            for x in v.iter_mut().filter(|x| **x < 1.0) {
                *x *= scale;
                if *x > 1.0 {
                    *x = 1.0;
                    clipped = true;
                }
            }
            if !clipped {
                break;
            }
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// §2.5 redundancy: the compiled hash ranges must tile `[0, r)` with
    /// no gap or overlap at hash-lattice resolution, for the wrapping
    /// r = 2 case as well as the plain partition, despite the FP drift
    /// accumulated by the running-range walk in `generate_manifests`.
    #[test]
    fn manifests_partition_under_redundancy(
        case in (1usize..=2).prop_flat_map(|r| {
            (Just(r), proptest::collection::vec(arb_redundant_split(r), 1..4))
        })
    ) {
        let (r, splits) = case;
        let max_nodes = splits.iter().map(|s| s.len()).max().unwrap();
        let topo = nwdp::topo::line(max_nodes.max(splits.len()).max(2));
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::uniform(&topo);
        let vol = VolumeModel::internet2_baseline();
        let classes = vec![AnalysisClass::standard_set().remove(0)];
        let dep0 = build_units(&topo, &paths, &tm, &vol, &classes);

        let mut dep = dep0.clone();
        dep.units.truncate(splits.len());
        let d: Vec<Vec<(NodeId, f64)>> = splits
            .iter()
            .zip(&mut dep.units)
            .map(|(split, unit)| {
                unit.nodes = (0..split.len()).map(NodeId).collect();
                split.iter().enumerate().map(|(j, &f)| (NodeId(j), f)).collect()
            })
            .collect();
        let manifest = nwdp::core::nids::generate_manifests(&dep, &d);

        // Exact multiplicity r on a mid-point grid.
        let (lo, hi) = manifest.verify_coverage(&dep);
        prop_assert_eq!((lo, hi), (r, r), "grid coverage must be exactly {}", r);

        // The coverage sweep agrees bit for bit with the brute-force probe
        // on these wrapped manifests, on greedy repairs of one and two
        // failed nodes, and on the manifest shed under tightened caps.
        common::check_coverage(&dep, &manifest);
        let caps = vec![NodeCaps { cpu: 2e8, mem: 4e9 }; dep.num_nodes];
        common::check_repair(&dep, &manifest, &caps, &[NodeId(0)]);
        common::check_repair(&dep, &manifest, &caps, &[NodeId(0), NodeId(1)]);
        let (cpu, mem) = manifest_loads(&dep, &caps, &manifest);
        let worst = cpu.iter().chain(&mem).fold(0.0f64, |a, &b| a.max(b));
        let tight: Vec<NodeCaps> = caps
            .iter()
            .map(|c| NodeCaps { cpu: c.cpu * worst * 0.5, mem: c.mem * worst * 0.5 })
            .collect();
        let shed = shed_overload(&dep, &manifest, &tight, 1.0, &distance_weighted_values(&dep));
        prop_assert!(shed.shed_fraction > 0.0);
        common::check_coverage(&dep, &shed.manifest);

        for (u, unit) in dep.units.iter().enumerate() {
            // The owners' lattice points sum to exactly r·2³².
            prop_assert_eq!(owned_points(&manifest, u, &unit.nodes), r as u64 * HASH_SPACE);

            // Probe the lattice points on both sides of every segment
            // boundary: gaps or overlaps produced by drift live at the
            // seams, between grid points.
            for p in common::seam_probes(&manifest, u, &unit.nodes) {
                let covers = unit
                    .nodes
                    .iter()
                    .filter(|&&j| manifest.should_analyze(u, j, p))
                    .count();
                prop_assert_eq!(covers, r, "unit {} point {} covered {} times", u, p, covers);
            }
        }
    }
}

/// Lattice points unit `u`'s owners hold in all.
fn owned_points(m: &SamplingManifest, u: usize, nodes: &[NodeId]) -> u64 {
    nodes.iter().map(|&j| m.range(u, j).map_or(0, RangeSet::points)).sum()
}

/// `r` blocks of 1–3 positive fractions, each block normalized to 1, then
/// its last fraction nudged by ulps until the `f64` running sum at the
/// block's end lies strictly above (`true`) or below (`false`) the whole
/// number of blocks so far: a running sum that should cross an owner
/// boundary exactly rounds to either side of it.
fn arb_drifting_split(r: usize) -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        (proptest::collection::vec(0.01f64..1.0, 1..=3), any::<bool>()),
        r..=r,
    )
    .prop_map(|blocks| {
        let mut v: Vec<f64> = Vec::new();
        for (k, (mut block, above)) in blocks.into_iter().enumerate() {
            let s: f64 = block.iter().sum();
            for x in block.iter_mut() {
                *x /= s;
            }
            v.extend(block);
            let target = (k + 1) as f64;
            let last = v.len() - 1;
            let ulp = if above { 1i64 } else { -1 };
            for _ in 0..1 << 16 {
                let sum = v.iter().fold(0.0, |a, b| a + b);
                if (above && sum > target) || (!above && sum < target) {
                    break;
                }
                v[last] = f64::from_bits((v[last].to_bits() as i64 + ulp) as u64);
            }
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fraction sums that round above and below each whole number of
    /// owners in `f64` still compile to manifests whose owners hold
    /// exactly r·2³² lattice points per unit, each point r times.
    #[test]
    fn drifting_fraction_sums_tile_the_lattice_exactly(
        case in (1usize..=3).prop_flat_map(|r| {
            (Just(r), proptest::collection::vec(arb_drifting_split(r), 1..4))
        })
    ) {
        let (r, splits) = case;
        let max_nodes = splits.iter().map(|s| s.len()).max().unwrap();
        let topo = nwdp::topo::line(max_nodes.max(splits.len()).max(2));
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::uniform(&topo);
        let vol = VolumeModel::internet2_baseline();
        let classes = vec![AnalysisClass::standard_set().remove(0)];
        let mut dep = build_units(&topo, &paths, &tm, &vol, &classes);
        dep.units.truncate(splits.len());
        let d: Vec<Vec<(NodeId, f64)>> = splits
            .iter()
            .zip(&mut dep.units)
            .map(|(split, unit)| {
                unit.nodes = (0..split.len()).map(NodeId).collect();
                split.iter().enumerate().map(|(j, &f)| (NodeId(j), f)).collect()
            })
            .collect();
        let manifest = generate_manifests(&dep, &d);
        for (u, unit) in dep.units.iter().enumerate() {
            prop_assert_eq!(owned_points(&manifest, u, &unit.nodes), r as u64 * HASH_SPACE);
            for p in common::seam_probes(&manifest, u, &unit.nodes) {
                let covers = unit.nodes.iter().filter(|&&j| manifest.should_analyze(u, j, p)).count();
                prop_assert_eq!(covers, r, "unit {} point {} covered {} times", u, p, covers);
            }
        }
        prop_assert_eq!(validate_manifests(&dep, &manifest, r as f64, None), Ok(()));
    }
}
