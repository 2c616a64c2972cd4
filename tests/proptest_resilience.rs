//! Workspace property tests for the resilience subsystem: over random
//! topologies and random failure sets, greedy manifest repair must
//! produce exact-arithmetic manifests — zero coverage gap outside the
//! provably unrecoverable units, no overlap, failed nodes fully drained —
//! with the surviving maximum load inside the greedy bound, and identical
//! results under 1-thread and 4-thread execution.

mod common;

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

fn deployment_for(topo: &Topology) -> (NidsDeployment, NidsLpConfig, SamplingManifest) {
    let paths = PathDb::shortest_paths(topo);
    let tm = TrafficMatrix::uniform(topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let assignment = solve_nids_lp(&dep, &cfg).expect("generous caps always solve");
    let manifest = generate_manifests(&dep, &assignment.d);
    (dep, cfg, manifest)
}

/// Deterministic fingerprint of a manifest for cross-thread-count
/// comparison: every (unit, node) segment list, bit for bit.
fn fingerprint(dep: &NidsDeployment, m: &SamplingManifest) -> Vec<(usize, usize, u64, u64)> {
    let mut out = Vec::new();
    for (u, unit) in dep.units.iter().enumerate() {
        for &j in &unit.nodes {
            if let Some(ranges) = m.range(u, j) {
                for seg in ranges.segments() {
                    out.push((u, j.index(), seg.lo, seg.hi));
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn repaired_manifests_are_gap_free_bounded_and_thread_invariant(
        case in (arb_topology(), 0u64..10_000)
    ) {
        let (topo, fail_seed) = case;
        let (dep, cfg, manifest) = deployment_for(&topo);

        // 1–2 distinct failed nodes, derived deterministically from the seed.
        let n = dep.num_nodes;
        let a = NodeId((fail_seed as usize) % n);
        let b = NodeId((fail_seed as usize / n) % n);
        let mut failed = vec![a];
        if b != a && fail_seed % 3 == 0 {
            failed.push(b);
        }
        failed.sort();

        let repair = greedy_repair(&dep, &manifest, &cfg.caps, &failed);
        // The coverage sweep behind repair, gaps and transitions agrees
        // bit for bit with the brute-force probe.
        common::check_coverage(&dep, &manifest);
        common::check_repair(&dep, &manifest, &cfg.caps, &failed);

        // Exact sweep, every unit: zero gap and zero overlap wherever a
        // survivor exists; fully dark where none does (those units are
        // exactly the reported unrecoverable set).
        let mut dark = Vec::new();
        for (u, unit) in dep.units.iter().enumerate() {
            let survivors = unit.nodes.iter().filter(|j| !failed.contains(j)).count();
            let (lo, hi) = repair.manifest.unit_coverage_exact(&dep, u);
            if survivors == 0 {
                prop_assert_eq!((lo, hi), (0, 0), "unit {} has no survivors yet coverage", u);
                dark.push(u);
            } else {
                prop_assert_eq!((lo, hi), (1, 1), "unit {}: coverage [{}, {}]", u, lo, hi);
            }
            // Failed nodes are fully drained.
            for &j in &failed {
                prop_assert!(
                    repair.manifest.share(u, j) == 0.0,
                    "failed node {} still owns measure in unit {}", j.index(), u
                );
            }
        }
        prop_assert_eq!(&dark, &repair.unrecoverable);

        // The residual blind gap is exactly the unrecoverable traffic.
        let residual = manifest_gap_fraction(&dep, &repair.manifest, &failed);
        prop_assert!(
            (residual - repair.unrecoverable_traffic_fraction).abs() < 1e-9,
            "residual {} vs unrecoverable {}", residual, repair.unrecoverable_traffic_fraction
        );

        // Recompute surviving loads externally: the greedy bound holds.
        let (cpu, mem) = manifest_loads(&dep, &cfg.caps, &repair.manifest);
        let max_surviving = (0..n)
            .filter(|j| !failed.contains(&NodeId(*j)))
            .map(|j| cpu[j].max(mem[j]))
            .fold(0.0f64, f64::max);
        prop_assert!(
            max_surviving <= repair.load_bound + 1e-9,
            "surviving load {} exceeds the greedy bound {}", max_surviving, repair.load_bound
        );
        prop_assert!((max_surviving - repair.max_load_after).abs() < 1e-9);

        // Bit-identical repair under 1 and 4 threads.
        let (fp1, fp4) = common::threads::under_thread_counts(|| {
            fingerprint(&dep, &greedy_repair(&dep, &manifest, &cfg.caps, &failed).manifest)
        });
        prop_assert_eq!(&fp1, &fp4, "repair must not depend on thread count");
        prop_assert_eq!(&fp1, &fingerprint(&dep, &repair.manifest));
    }

    #[test]
    fn shedding_never_overloads_and_never_overshoots(
        case in (arb_topology(), 0.2f64..0.9, 1.5f64..4.0)
    ) {
        let (topo, factor, surge) = case;
        let (dep, cfg, manifest) = deployment_for(&topo);
        // Shrink capacities so the post-surge bottleneck overloads, then
        // shed: no node may stay above its ceiling, and the shed fraction
        // stays within [0, 1].
        let (cpu, mem) = manifest_loads(&dep, &cfg.caps, &manifest);
        let worst = cpu.iter().zip(&mem).map(|(c, m)| c.max(*m)).fold(0.0f64, f64::max);
        prop_assert!(worst > 0.0);
        let caps: Vec<NodeCaps> = cfg
            .caps
            .iter()
            .map(|c| NodeCaps { cpu: c.cpu * worst * factor, mem: c.mem * worst * factor })
            .collect();
        let values = distance_weighted_values(&dep);
        let out = shed_overload(&dep, &manifest, &caps, surge, &values);
        prop_assert!((0.0..=1.0).contains(&out.shed_fraction));
        common::check_coverage(&dep, &out.manifest);
        let (cpu2, mem2) = manifest_loads(&dep, &caps, &out.manifest);
        for j in 0..dep.num_nodes {
            let post = surge * cpu2[j].max(mem2[j]);
            prop_assert!(post <= 1.0 + 1e-6, "node {} still overloaded: {}", j, post);
        }
        // Determinism across thread counts.
        let (f1, f4) = common::threads::under_thread_counts(|| {
            fingerprint(&dep, &shed_overload(&dep, &manifest, &caps, surge, &values).manifest)
        });
        prop_assert_eq!(f1, f4);
    }
}
