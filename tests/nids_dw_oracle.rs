//! The Dantzig–Wolfe NIDS solve against the one-piece simplex oracle
//! (`simplex_oracle`): on every case the decomposition certifies its gap,
//! reaches the oracle's optimal value to 1e-9 relative, degrades the same
//! units, returns a vertex (at most one split placement per load row), and
//! compiles to a manifest `validate_manifests` accepts. The LP has many
//! optimal vertices, so the two solvers may place units differently; only
//! the value is unique.
//!
//! The decomposition must also be deterministic: the same manifest bit
//! for bit under any thread-count override. Its r = 2 manifests, and
//! their greedy repairs, must own every hash-lattice point exactly r
//! times.

mod common;

use nwdp::core::nids::{simplex_oracle, solve_nids_lp_excluding, GAP_TOL};
use nwdp::prelude::*;

fn internet2() -> (NidsDeployment, NidsLpConfig) {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    (dep, cfg)
}

/// Internet2's per-path units (two or more eligible nodes) at r = 2.
fn internet2_paths_r2() -> (NidsDeployment, NidsLpConfig) {
    let (dep, mut cfg) = internet2();
    let units = dep.units.iter().filter(|u| u.nodes.len() >= 2).cloned().collect();
    cfg.redundancy = 2.0;
    (NidsDeployment { units, ..dep }, cfg)
}

/// The `repro opt-time` instance family: Waxman, seed 50, 21 classes.
fn waxman(n: usize) -> (NidsDeployment, NidsLpConfig) {
    let topo = nwdp::topo::waxman(format!("synth{n}"), n, 0.25, 0.2, 50);
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::scaled_for(&topo);
    let classes = AnalysisClass::scaled_set(21).unwrap();
    let dep = build_units(&topo, &paths, &tm, &vol, &classes);
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    (dep, cfg)
}

/// Solve `dep` both ways with `excluded` failed and check the DW result
/// against the oracle.
fn check(what: &str, dep: &NidsDeployment, cfg: &NidsLpConfig, excluded: &[NodeId]) {
    let (a, degraded) = solve_nids_lp_excluding(dep, cfg, excluded).unwrap();
    let (o, _, o_degraded) = simplex_oracle(dep, cfg, excluded, None).unwrap();
    assert!(a.gap <= GAP_TOL, "{what}: gap {} not certified", a.gap);
    assert!(a.dw_rounds > 0, "{what}: no rounds counted");
    let scale = a.max_load.abs().max(o.max_load.abs());
    assert!(
        (a.max_load - o.max_load).abs() <= 1e-9 * scale,
        "{what}: DW {} vs oracle {}",
        a.max_load,
        o.max_load
    );
    assert_eq!(degraded, o_degraded, "{what}: degraded units differ");
    // Split units on the same nodes with the same fractions move together
    // in the vertex walk and count as one placement.
    let mut split: Vec<Vec<(NodeId, u64)>> = (a.d.iter())
        .filter(|fr| fr.iter().filter(|&&(_, f)| f > 0.0 && f < 1.0).count() >= 2)
        .map(|fr| fr.iter().map(|&(j, f)| (j, f.to_bits())).collect())
        .collect();
    split.sort();
    split.dedup();
    assert!(split.len() <= 2 * dep.num_nodes, "{what}: {} split placements", split.len());
    let manifest = generate_manifests(dep, &a.d);
    let ceiling = CapacityCeiling { caps: &cfg.caps, max_load: a.max_load };
    validate_manifests_excluding(dep, &manifest, cfg.redundancy, Some(&ceiling), &degraded)
        .unwrap_or_else(|e| panic!("{what}: DW manifest rejected: {e:?}"));
}

#[test]
fn internet2_matches_oracle_at_r1_and_r2() {
    let (dep, cfg) = internet2();
    check("internet2 r=1", &dep, &cfg, &[]);
    let (dep, cfg) = internet2_paths_r2();
    check("internet2 paths r=2", &dep, &cfg, &[]);
}

#[test]
fn every_single_node_exclusion_matches_oracle() {
    for (name, (dep, cfg)) in [("r=1", internet2()), ("paths r=2", internet2_paths_r2())] {
        for j in 0..dep.num_nodes {
            check(&format!("internet2 {name} without node {j}"), &dep, &cfg, &[NodeId(j)]);
        }
    }
}

#[test]
fn waxman_21_classes_matches_oracle_at_10_and_20_nodes() {
    for n in [10, 20] {
        let (dep, cfg) = waxman(n);
        check(&format!("waxman {n} nodes"), &dep, &cfg, &[]);
    }
}

/// Every probed hash value of every unit is owned by `min(r, survivors)`
/// distinct nodes according to `should_analyze`.
fn assert_owned(what: &str, dep: &NidsDeployment, m: &SamplingManifest, failed: &[NodeId]) {
    for (u, unit) in dep.units.iter().enumerate() {
        let want = unit.nodes.iter().filter(|j| !failed.contains(j)).count().min(2);
        for h in common::seam_probes(m, u, &unit.nodes) {
            let owners = unit.nodes.iter().filter(|&&j| m.should_analyze(u, j, h)).count();
            assert_eq!(owners, want, "{what}: unit {u} hash {h} owned {owners} times");
        }
    }
}

/// Regression: the f64 running sum of an r = 2 unit's fractions could
/// round to just above 1 (0.9783924928600511 + 0.021607507139949036 =
/// 1.0000000000000002), so the third owner started at 2.2e-16 and hash 0
/// was owned once in 7 units, in the LP manifest and in every single-node
/// greedy repair of it.
#[test]
fn r2_manifests_and_repairs_own_every_lattice_point_twice() {
    let (dep, cfg) = internet2_paths_r2();
    let (a, _) = solve_nids_lp_excluding(&dep, &cfg, &[]).unwrap();
    let manifest = generate_manifests(&dep, &a.d);
    assert_owned("LP manifest", &dep, &manifest, &[]);
    for j in (0..dep.num_nodes).map(NodeId) {
        let repaired = greedy_repair(&dep, &manifest, &cfg.caps, &[j]).manifest;
        assert_owned(&format!("repair of {j:?}"), &dep, &repaired, &[j]);
    }
}

#[test]
fn manifests_are_identical_at_any_thread_count() {
    let (dep, cfg) = internet2();
    let solve = || {
        let (a, _) = solve_nids_lp_excluding(&dep, &cfg, &[NodeId(4)]).unwrap();
        (generate_manifests(&dep, &a.d), solve_nids_lp(&dep, &cfg).unwrap())
    };
    let ((m1, a1), (m4, a4)) = common::threads::under_thread_counts(solve);
    assert_eq!(m1, m4, "excluding solve differs across thread counts");
    assert_eq!(generate_manifests(&dep, &a1.d), generate_manifests(&dep, &a4.d));
    assert_eq!(a1.max_load.to_bits(), a4.max_load.to_bits());
    assert_eq!((a1.dw_rounds, a1.lp_iterations), (a4.dw_rounds, a4.lp_iterations));
}
