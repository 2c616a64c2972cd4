//! Cross-crate integration tests through the public facade: the full NIDS
//! and NIPS pipelines end to end, exactly as a downstream user would drive
//! them.

use nwdp::prelude::*;

#[test]
fn nids_pipeline_end_to_end() {
    // Topology → routing → traffic model → units → LP → manifests →
    // engine runs → equivalence and load reduction. The load claim uses
    // the paper's 21-module configuration (Figs 7–8), where analysis work
    // clearly dominates base packet processing.
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::scaled_set(21).unwrap());

    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let assignment = solve_nids_lp(&dep, &cfg).unwrap();
    assert!(assignment.max_load > 0.0);
    let manifest = generate_manifests(&dep, &assignment.d);
    assert_eq!(manifest.verify_coverage(&dep), (1, 1));

    // Enough volume for coordination's balancing to dominate its (small)
    // per-connection overhead at the hotspot.
    let trace = generate_trace(&topo, &tm, &TraceConfig::new(8000, 3));
    let h = KeyedHasher::with_key(77);
    let reference = run_standalone_reference(&dep, &trace, h).unwrap();
    let coord =
        run_coordinated(&dep, &manifest, &paths, &trace, Placement::EventEngine, h).unwrap();
    assert_eq!(coord.alerts, reference.alerts);

    // The coordinated max engine load must beat edge-only.
    let edge = run_edge_only(&dep, &trace, h).unwrap();
    assert!(coord.max_cpu() < edge.max_cpu());
}

#[test]
fn nips_pipeline_end_to_end() {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let rates = MatchRates::uniform_001(8, paths.all_pairs().count(), 5);
    let inst = NipsInstance::evaluation_setup(&topo, &paths, &tm, &vol, 8, 0.25, rates);

    let relax = solve_relaxation(&inst, &RowGenOpts::default()).unwrap();
    let opts = RoundingOpts {
        strategy: Strategy::GreedyLpResolve,
        iterations: 4,
        seed: 9,
        ..Default::default()
    };
    let sol = round_best_of(&inst, &relax, &opts).unwrap();
    inst.check_feasible(&sol.e, &sol.d, 1e-6).unwrap();
    assert!(sol.objective > 0.5 * relax.objective, "rounding quality collapsed");
    assert!(sol.objective <= relax.objective * (1.0 + 1e-9), "OptLP must upper-bound");
}

#[test]
fn online_pipeline_end_to_end() {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let rates = MatchRates::zeros(5, paths.all_pairs().count());
    let mut inst = NipsInstance::evaluation_setup(&topo, &paths, &tm, &vol, 5, 1.0, rates);
    inst.cam_cap = vec![f64::INFINITY; inst.num_nodes];

    let mut adv = StochasticUniform::new(5, inst.paths.len(), 0.01, 4);
    let run = run_fpl(&inst, &mut adv, &FplConfig { epochs: 25, seed: 8, ..Default::default() })
        .expect("valid config");
    assert_eq!(run.normalized_regret.len(), 25);
    assert!(run.normalized_regret.iter().all(|r| r.is_finite()));
    assert!(run.fpl_value.iter().sum::<f64>() > 0.0);
}

#[test]
fn heterogeneous_hardware_respected_end_to_end() {
    // A site with crippled capacity must receive proportionally less work.
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());

    let mut cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let weak = topo.find("KansasCity").unwrap();
    cfg.caps[weak.index()] = NodeCaps { cpu: 2e6, mem: 4e7 }; // 1% of the others
    let a = solve_nids_lp(&dep, &cfg).unwrap();
    // Load expressed as a capacity fraction is balanced, so absolute work
    // at the weak node must be tiny. Compare its absolute CPU-work share
    // against the strongest node's.
    let weak_work = a.cpu_load[weak.index()] * cfg.caps[weak.index()].cpu;
    let max_work =
        (0..dep.num_nodes).map(|j| a.cpu_load[j] * cfg.caps[j].cpu).fold(0.0f64, f64::max);
    assert!(weak_work < max_work / 10.0, "weak node got {weak_work} work vs max {max_work}");
}

#[test]
fn redundancy_survives_single_node_failure() {
    // §2.5 motivation: with r = 2, knocking out any single node leaves
    // every hash point still covered at least once.
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let classes: Vec<AnalysisClass> = AnalysisClass::standard_set()
        .into_iter()
        .filter(|c| c.scope == ClassScope::PerPath)
        .collect();
    let dep = build_units(&topo, &paths, &tm, &vol, &classes);
    let mut cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    cfg.redundancy = 2.0;
    let a = solve_nids_lp(&dep, &cfg).unwrap();
    let manifest = generate_manifests(&dep, &a.d);

    for dead in topo.nodes() {
        for (u, unit) in dep.units.iter().enumerate() {
            for g in 0..21 {
                let h = (g as f64 + 0.5) / 21.0;
                let survivors = unit
                    .nodes
                    .iter()
                    .filter(|&&n| n != dead && manifest.should_analyze(u, n, h))
                    .count();
                assert!(survivors >= 1, "unit {u} hash {h} uncovered after losing node {dead:?}");
            }
        }
    }
}
