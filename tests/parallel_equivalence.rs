//! The parallel execution layer must be invisible in the results: every
//! fan-out (rounding trials, per-node engine replay, FPL oracle solves)
//! merges in input order with per-item derived seeds, so one thread and
//! many threads produce bit-identical alerts, objectives, and manifests.

mod common;

use common::threads::under_thread_counts;
use nwdp::core::parallel;
use nwdp::obs;
use nwdp::prelude::*;

#[test]
fn nids_replay_identical_across_thread_counts() {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());

    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let assignment = solve_nids_lp(&dep, &cfg).unwrap();
    let manifest = generate_manifests(&dep, &assignment.d);
    let trace = generate_trace(&topo, &tm, &TraceConfig::new(3000, 17));
    let h = KeyedHasher::with_key(5);

    let (s, p) = under_thread_counts(|| {
        run_coordinated(&dep, &manifest, &paths, &trace, Placement::EventEngine, h).unwrap()
    });
    assert_eq!(s.alerts, p.alerts, "coordinated alerts must not depend on thread count");
    for (a, b) in s.per_node.iter().zip(&p.per_node) {
        assert_eq!(a.cpu_cycles, b.cpu_cycles);
        assert_eq!(a.mem_peak, b.mem_peak);
        assert_eq!(a.alerts, b.alerts);
    }

    let (se, pe) = under_thread_counts(|| run_edge_only(&dep, &trace, h).unwrap());
    assert_eq!(se.alerts, pe.alerts, "edge-only alerts must not depend on thread count");
}

/// The streaming sharded data plane must be bit-identical to the batch
/// replay on the same seed: same alerts and the same full `RunStats` on
/// every node, at 1 and 4 threads and across shard counts (ISSUE 7).
#[test]
fn streaming_replay_identical_to_batch() {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());

    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let assignment = solve_nids_lp(&dep, &cfg).unwrap();
    let manifest = generate_manifests(&dep, &assignment.d);
    let trace_cfg = TraceConfig::new(3000, 17);
    let trace = generate_trace(&topo, &tm, &trace_cfg);
    let h = KeyedHasher::with_key(5);

    under_thread_counts(|| {
        let threads = parallel::num_threads();
        let batch =
            run_coordinated(&dep, &manifest, &paths, &trace, Placement::EventEngine, h).unwrap();
        for shards in [1usize, 3, 4] {
            let stream = run_coordinated_stream(
                &dep,
                &manifest,
                &paths,
                || SessionStream::new(&topo, &tm, &trace_cfg),
                Placement::EventEngine,
                h,
                shards,
            )
            .unwrap();
            let which = format!("{shards} shards, {threads} threads");
            assert_eq!(stream.alerts, batch.alerts, "stream alerts diverged from batch ({which})");
            assert_eq!(stream.per_node.len(), batch.per_node.len());
            for (a, b) in stream.per_node.iter().zip(&batch.per_node) {
                let ctx = format!("node {} ({which})", a.node.0);
                assert_eq!(a.packets, b.packets, "packets, {ctx}");
                assert_eq!(a.connections, b.connections, "connections, {ctx}");
                assert_eq!(a.cpu_cycles, b.cpu_cycles, "cpu_cycles, {ctx}");
                assert_eq!(a.mem_peak, b.mem_peak, "mem_peak, {ctx}");
                assert_eq!(a.fastpath_skipped, b.fastpath_skipped, "fastpath, {ctx}");
                assert_eq!(a.range_checks, b.range_checks, "range_checks, {ctx}");
                assert_eq!(a.range_hits, b.range_hits, "range_hits, {ctx}");
                assert_eq!(a.per_module_cpu, b.per_module_cpu, "per_module_cpu, {ctx}");
                assert_eq!(a.alerts, b.alerts, "alerts, {ctx}");
            }
        }
    });
}

/// Two streaming replays measured at once, each under its own
/// `obs::Recorder` with metrics and alerts on, record exactly what a
/// serial solo run records: the same `engine.*` counters and the same
/// alert accounting. The concurrent runs fan out over 4 threads, so
/// their alerts are emitted on `par_map` workers and must still land in
/// the recorder that spawned them; the process default sees none of it.
#[test]
fn concurrent_runs_record_into_their_own_recorders() {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let manifest = generate_manifests(&dep, &solve_nids_lp(&dep, &cfg).unwrap().d);
    let trace_cfg = TraceConfig::new(2500, 17);

    let measured = |threads: usize| {
        obs::scoped(&obs::Recorder::new(), || {
            obs::set_enabled(true);
            obs::set_alert_enabled(true);
            parallel::with_threads(threads, || {
                let source = || SessionStream::new(&topo, &tm, &trace_cfg);
                let h = KeyedHasher::with_key(5);
                run_coordinated_stream(
                    &dep,
                    &manifest,
                    &paths,
                    source,
                    Placement::EventEngine,
                    h,
                    3,
                )
                .unwrap()
            });
            let alerts = obs::flush_alerts().unwrap();
            let mut counters = obs::snapshot();
            counters.retain(|(n, v)| {
                n.starts_with("engine.") && matches!(v, obs::SnapshotValue::Counter(_))
            });
            (counters, alerts)
        })
    };

    let solo = measured(1);
    assert!(!solo.0.is_empty() && solo.1.emitted > 0, "the solo run recorded nothing");
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| measured(4));
        let b = s.spawn(|| measured(4));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, solo, "first concurrent run differs from the solo run");
    assert_eq!(b, solo, "second concurrent run differs from the solo run");
    assert!(obs::snapshot().iter().all(|(n, _)| !n.starts_with("engine.")));
    assert_eq!(obs::flush_alerts().unwrap(), obs::AlertStats::default());
}

/// The closed reconfiguration loop must be invisible when it never
/// swaps: with `Sabotage::Every` the validation gate rejects every
/// candidate, the original manifest serves end to end, and the run is
/// bit-identical to the plain streaming data plane — at 1 and 4 threads
/// and across shard counts (ISSUE 8). This pins the reload runner's
/// epoch-chunked fan-out (persistent workers, boundary pauses, observed-
/// mix counting) as pure plumbing with zero effect on results.
#[test]
fn reload_with_every_swap_rejected_identical_to_stream() {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());

    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let assignment = solve_nids_lp(&dep, &cfg).unwrap();
    let manifest = generate_manifests(&dep, &assignment.d);
    let trace_cfg = TraceConfig::new(2000, 17);
    let h = KeyedHasher::with_key(5);

    let reload_cfg = ReloadConfig {
        epochs: 4,
        total_sessions: 2000,
        caps: &cfg.caps,
        redundancy: 1.0,
        max_load: 1.0,
        blend: 0.5,
        sabotage: Sabotage::Every,
    };
    let source = || SessionStream::new(&topo, &tm, &trace_cfg);

    under_thread_counts(|| {
        let threads = parallel::num_threads();
        for shards in [1usize, 3] {
            let stream = run_coordinated_stream(
                &dep,
                &manifest,
                &paths,
                source,
                Placement::EventEngine,
                h,
                shards,
            )
            .unwrap();
            let reload = run_coordinated_stream_reload(
                &dep,
                &manifest,
                &paths,
                source,
                Placement::EventEngine,
                h,
                shards,
                &reload_cfg,
            )
            .unwrap();
            let which = format!("{shards} shards, {threads} threads");
            assert_eq!(reload.swaps(), 0, "Sabotage::Every must reject everything ({which})");
            assert_eq!(reload.rejected(), 3, "{which}");
            assert!(reload.coverage_floor() > 1.0 - 1e-9, "{which}");
            assert_eq!(reload.run.alerts, stream.alerts, "reload alerts diverged ({which})");
            for (a, b) in reload.run.per_node.iter().zip(&stream.per_node) {
                let ctx = format!("node {} ({which})", a.node.0);
                assert_eq!(a.packets, b.packets, "packets, {ctx}");
                assert_eq!(a.connections, b.connections, "connections, {ctx}");
                assert_eq!(a.cpu_cycles, b.cpu_cycles, "cpu_cycles, {ctx}");
                assert_eq!(a.mem_peak, b.mem_peak, "mem_peak, {ctx}");
                assert_eq!(a.fastpath_skipped, b.fastpath_skipped, "fastpath, {ctx}");
                assert_eq!(a.range_checks, b.range_checks, "range_checks, {ctx}");
                assert_eq!(a.range_hits, b.range_hits, "range_hits, {ctx}");
                assert_eq!(a.per_module_cpu, b.per_module_cpu, "per_module_cpu, {ctx}");
                assert_eq!(a.alerts, b.alerts, "alerts, {ctx}");
            }
        }
    });
}

/// The distributed control plane is a discrete-event replay: transport
/// drops, delays, retry jitter, and repair decisions all draw from
/// driver-serial RNG in event order, and node turns run in node order on
/// the driver thread — so a faulty, lossy, partitioned run is
/// bit-identical (full `ClusterRun` equality, including the
/// delivery-schedule fingerprint) under any thread-count override.
#[test]
fn cluster_convergence_identical_across_thread_counts() {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let assignment = solve_nids_lp(&dep, &cfg).unwrap();
    let manifest = generate_manifests(&dep, &assignment.d);

    let mut plan = FaultPlan::lossy(0.1, 0.001, 0.004, 19);
    plan.crashes.push((NodeId(3), 0.37));
    plan.partitions.push(Partition { nodes: vec![NodeId(7)], from: 0.5, until: 0.75 });
    let mut ccfg = ClusterConfig::default();
    ccfg.health.miss_threshold = 4;

    let (s, p) =
        under_thread_counts(|| run_cluster(&dep, &manifest, &cfg.caps, &plan, &ccfg).unwrap());
    assert_eq!(s, p, "cluster run must not depend on thread count");
    assert!(s.final_epoch >= 2, "the crash must force at least one repair epoch");
    assert!(s.stats.delivered > 0 && s.stats.drops_loss > 0);
}

#[test]
fn nips_rounding_identical_across_thread_counts() {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let rates = MatchRates::uniform_001(6, paths.all_pairs().count(), 23);
    let inst = NipsInstance::evaluation_setup(&topo, &paths, &tm, &vol, 6, 0.25, rates);
    let relax = solve_relaxation(&inst, &RowGenOpts::default()).unwrap();
    let opts = RoundingOpts {
        strategy: Strategy::GreedyLpResolve,
        iterations: 6,
        seed: 41,
        ..Default::default()
    };

    let (s, p) = under_thread_counts(|| round_best_of(&inst, &relax, &opts).unwrap());
    assert_eq!(s.objective.to_bits(), p.objective.to_bits(), "objective must be bit-identical");
    assert_eq!(s.e, p.e);
    assert_eq!(s.d, p.d);
}

#[test]
fn manifests_identical_across_thread_counts() {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });

    let (s, p) = under_thread_counts(|| {
        let a = solve_nids_lp(&dep, &cfg).unwrap();
        let manifest = generate_manifests(&dep, &a.d);
        (0..dep.num_nodes)
            .map(|j| nwdp::core::nids::node_manifest_to_text(&manifest, NodeId(j)))
            .collect::<Vec<String>>()
    });
    assert_eq!(s, p, "serialized manifests must not depend on thread count");
}

#[test]
fn fpl_identical_across_thread_counts() {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let rates = MatchRates::zeros(4, paths.all_pairs().count());
    let mut inst = NipsInstance::evaluation_setup(&topo, &paths, &tm, &vol, 4, 1.0, rates);
    inst.cam_cap = vec![f64::INFINITY; inst.num_nodes];
    let cfg = FplConfig { epochs: 12, seed: 6, track_ftl: true, ..Default::default() };

    let (s, p) = under_thread_counts(|| {
        let mut adv = StochasticUniform::new(4, inst.paths.len(), 0.01, 19);
        run_fpl(&inst, &mut adv, &cfg).expect("valid config")
    });
    assert_eq!(s.fpl_value, p.fpl_value);
    assert_eq!(s.ftl_value, p.ftl_value);
    assert_eq!(s.static_prefix_value, p.static_prefix_value);
    assert_eq!(s.normalized_regret, p.normalized_regret);
}
