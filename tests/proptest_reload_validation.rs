//! Workspace property tests for the manifest validation gate (ISSUE 8):
//! over random topologies, every LP-produced manifest must pass
//! [`validate_manifests`], and every corruption a buggy reconfiguration
//! could introduce — coverage gaps, overlapping ownership, references to
//! unknown units or classes, ranges on nodes that never observe the
//! traffic — must be rejected with the matching typed error. The gate is
//! what keeps a hot reload from ever swapping a malformed manifest into a
//! live engine, so "mutation implies rejection" is the property that
//! matters, not any specific hand-picked example.

use nwdp::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// A random small topology: line, ring, or Waxman (connected by
/// construction in `nwdp::topo`).
fn arb_topology() -> impl proptest::strategy::Strategy<Value = Topology> {
    (0usize..3, 4usize..9, 0u64..1000).prop_map(|(kind, n, seed)| match kind {
        0 => nwdp::topo::line(n),
        1 => nwdp::topo::ring(n),
        _ => nwdp::topo::waxman("prop", n, 0.6, 0.5, seed),
    })
}

/// Returns the deployment, LP config, manifest, and the LP's optimal max
/// load — the natural acceptance ceiling (the LP *minimizes* the max
/// load but does not cap it at 1.0, so on tiny topologies the optimum
/// can exceed the homogeneous capacity).
fn deployment_for(topo: &Topology) -> (NidsDeployment, NidsLpConfig, SamplingManifest, f64) {
    let paths = PathDb::shortest_paths(topo);
    let tm = TrafficMatrix::uniform(topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let assignment = solve_nids_lp(&dep, &cfg).expect("generous caps always solve");
    let manifest = generate_manifests(&dep, &assignment.d);
    (dep, cfg, manifest, assignment.max_load)
}

/// Flatten a manifest into `(node, entry)` pairs for mutate-and-rebuild.
fn entries_of(m: &SamplingManifest) -> Vec<(NodeId, ManifestEntry)> {
    let mut out = Vec::new();
    for j in 0..m.num_nodes() {
        for e in m.node_entries(NodeId(j)) {
            out.push((NodeId(j), e.clone()));
        }
    }
    out
}

fn rebuild(num_nodes: usize, entries: Vec<(NodeId, ManifestEntry)>) -> SamplingManifest {
    SamplingManifest::from_entries(num_nodes, entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean LP manifests validate; every mutation class is rejected with
    /// its typed error. The victim entry is picked deterministically from
    /// the seed so failures minimize.
    #[test]
    fn lp_manifests_validate_and_every_corruption_is_rejected(
        case in (arb_topology(), 0usize..10_000)
    ) {
        let (topo, pick) = case;
        let (dep, cfg, manifest, opt_load) = deployment_for(&topo);
        let ceiling = CapacityCeiling { caps: &cfg.caps, max_load: opt_load + 1e-6 };

        // The gate accepts what the LP + manifest generator produce.
        prop_assert_eq!(
            validate_manifests(&dep, &manifest, cfg.redundancy, Some(&ceiling)),
            Ok(())
        );

        let entries = entries_of(&manifest);
        prop_assert!(!entries.is_empty());
        let victim = pick % entries.len();

        // Mutation 1: truncate the victim's range to half its points —
        // a coverage gap in that unit.
        {
            let mut mutated = entries.clone();
            let (_, e) = &mut mutated[victim];
            let unit = e.unit;
            e.ranges = e.ranges.take_points(e.ranges.points() / 2);
            let m = rebuild(dep.num_nodes, mutated);
            match validate_manifests(&dep, &m, cfg.redundancy, None) {
                Err(ManifestValidationError::CoverageGap { unit: u, .. }) =>
                    prop_assert_eq!(u, unit, "gap must be attributed to the mutated unit"),
                other => prop_assert!(false, "gap not caught: {:?}", other),
            }
        }

        // Mutation 2: hand the victim's unit *in full* to another
        // eligible node as well — multiplicity 2 where r = 1 demands 1.
        {
            let (owner, e) = &entries[victim];
            let unit = &dep.units[e.unit];
            if let Some(&other) = unit.nodes.iter().find(|j| *j != owner) {
                let mut dup = e.clone();
                dup.ranges = RangeSet::interval(0, HASH_SPACE);
                let mut mutated = entries.clone();
                // from_entries forbids duplicate (unit, node) pairs, so
                // drop any existing entry `other` holds for this unit.
                mutated.retain(|(j, me)| !(me.unit == e.unit && *j == other));
                mutated.push((other, dup));
                let m = rebuild(dep.num_nodes, mutated);
                match validate_manifests(&dep, &m, cfg.redundancy, None) {
                    Err(ManifestValidationError::CoverageOverlap { unit: u, .. }) =>
                        prop_assert_eq!(u, e.unit),
                    other => prop_assert!(false, "overlap not caught: {:?}", other),
                }
            }
        }

        // Mutation 3: point the victim at a unit index past the
        // deployment's unit list.
        {
            let mut mutated = entries.clone();
            mutated[victim].1.unit = dep.units.len() + 7;
            let m = rebuild(dep.num_nodes, mutated);
            prop_assert!(matches!(
                validate_manifests(&dep, &m, cfg.redundancy, None),
                Err(ManifestValidationError::UnknownUnit { .. })
            ));
        }

        // Mutation 4: point the victim at a class (module) the
        // deployment does not ship.
        {
            let mut mutated = entries.clone();
            mutated[victim].1.class = dep.classes.len();
            let m = rebuild(dep.num_nodes, mutated);
            prop_assert!(matches!(
                validate_manifests(&dep, &m, cfg.redundancy, None),
                Err(ManifestValidationError::UnknownClass { .. })
            ));
        }

        // Mutation 5: move the victim's responsibility onto a node that
        // never observes the unit's traffic.
        {
            let (owner, e) = &entries[victim];
            let unit = &dep.units[e.unit];
            if let Some(foreign) =
                (0..dep.num_nodes).map(NodeId).find(|j| !unit.nodes.contains(j))
            {
                let mut mutated = entries.clone();
                mutated.retain(|(j, me)| !(me.unit == e.unit && j == owner));
                mutated.push((foreign, e.clone()));
                let m = rebuild(dep.num_nodes, mutated);
                prop_assert!(matches!(
                    validate_manifests(&dep, &m, cfg.redundancy, None),
                    Err(ManifestValidationError::ForeignNode { .. })
                ));
            }
        }

        // Mutation 6: starve the busiest node's capacity — the ceiling
        // check must reject even a perfectly-covering manifest.
        {
            let mut caps = cfg.caps.clone();
            let busiest = (0..dep.num_nodes)
                .max_by(|&a, &b| {
                    let sa: f64 =
                        (0..dep.units.len()).map(|u| manifest.share(u, NodeId(a))).sum();
                    let sb: f64 =
                        (0..dep.units.len()).map(|u| manifest.share(u, NodeId(b))).sum();
                    sa.total_cmp(&sb)
                })
                .expect("non-empty");
            caps[busiest] = NodeCaps { cpu: 1.0, mem: 1.0 };
            let tight = CapacityCeiling { caps: &caps, max_load: 1.0 };
            prop_assert!(matches!(
                validate_manifests(&dep, &manifest, cfg.redundancy, Some(&tight)),
                Err(ManifestValidationError::CapacityExceeded { .. })
            ));
        }
    }
}
