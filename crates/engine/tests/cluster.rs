//! End-to-end tests for the distributed control plane: convergence under
//! clean, crashed, partitioned, lossy, and slow-link fault plans, plus
//! the typed-config and fencing contracts. A cluster run spawns no
//! threads and reads no thread count, so these tests run once.

use nwdp_core::nids::{
    generate_manifests, solve_nids_lp, NidsLpConfig, NodeCaps, SamplingManifest,
};
use nwdp_core::resilience::faultplan::{LinkFault, Partition};
use nwdp_core::resilience::{manifest_gap_fraction, FaultPlan, HealthConfig, HealthConfigError};
use nwdp_core::{build_units, AnalysisClass, NidsDeployment};
use nwdp_engine::cluster::run_cluster;
use nwdp_engine::{ClusterConfig, ClusterError, ClusterRun, DetectionCause, NetStats};
use nwdp_topo::{internet2, NodeId, PathDb};
use nwdp_traffic::{TrafficMatrix, VolumeModel};

fn setup() -> (NidsDeployment, SamplingManifest, Vec<NodeCaps>) {
    let topo = internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let caps = vec![NodeCaps { cpu: 2e8, mem: 4e9 }; dep.num_nodes];
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, caps[0]);
    let a = solve_nids_lp(&dep, &cfg).expect("NIDS LP solves");
    let m = generate_manifests(&dep, &a.d);
    (dep, m, caps)
}

/// Every install log must be strictly increasing in epoch: no node ever
/// (re)runs a stale epoch after a newer install.
fn assert_fenced(run: &ClusterRun) {
    for (j, installs) in run.node_installs.iter().enumerate() {
        for w in installs.windows(2) {
            assert!(w[0].1 < w[1].1, "node {j} install log not monotone: {installs:?}");
        }
    }
    assert_eq!(
        run.node_stale_rejects.iter().sum::<u64>(),
        run.stats.stale_epoch_rejects,
        "per-node fences must sum to the wire counter"
    );
}

#[test]
fn clean_run_stays_converged_with_zero_noise() {
    let (dep, m, caps) = setup();
    let run = run_cluster(&dep, &m, &caps, &FaultPlan::clean(7), &ClusterConfig::default())
        .expect("clean run");
    assert_eq!(run.stats.drops_loss, 0);
    assert_eq!(run.stats.drops_cut, 0);
    assert_eq!(run.stats.retries, 0);
    assert_eq!(run.stats.timeouts, 0);
    assert_eq!(run.stats.stale_epoch_rejects, 0);
    assert!(run.detections.is_empty(), "no faults, no detections: {:?}", run.detections);
    assert_eq!(run.final_epoch, 1);
    assert!(run.node_epochs.iter().all(|&e| e == 1));
    assert!(run.stats.heartbeats > 0, "beats must actually flow");
    // ~50 beats per node over the horizon.
    assert!(run.stats.heartbeats >= 45 * dep.num_nodes as u64);
    assert!((run.coverage_floor() - 1.0).abs() < 1e-12, "clean coverage never dips");
    assert_fenced(&run);
}

#[test]
fn crash_is_detected_near_the_grid_prediction_and_repaired() {
    let (dep, m, caps) = setup();
    let mut plan = FaultPlan::clean(11);
    let fail_at = 0.37;
    plan.crashes.push((NodeId(3), fail_at));
    let cfg = ClusterConfig::default();
    let run = run_cluster(&dep, &m, &caps, &plan, &cfg).expect("crash run");

    // Detection via actually missed heartbeats, near the closed-form grid
    // prediction (monitor needs strict excess past deadline + grace, so
    // up to ~max_detection_delay later than the arithmetic says).
    let d = run.detection_of(NodeId(3)).expect("crash must be detected");
    assert_eq!(d.cause, DetectionCause::MissedHeartbeats);
    let predicted = cfg.health.detect_at(fail_at);
    assert!(
        d.declared_at >= predicted - 1e-9,
        "declared {} before prediction {predicted}",
        d.declared_at
    );
    assert!(
        d.declared_at - predicted <= cfg.health.max_detection_delay() + 0.01 + 1e-9,
        "declared {} too long after prediction {predicted}",
        d.declared_at
    );

    // Repair epoch converged on the survivors; the dead node stays on its
    // last validated manifest (it can't receive anything).
    assert_eq!(run.stats.repairs, 1);
    assert_eq!(run.final_epoch, 2);
    let report = run.epochs.iter().find(|r| r.epoch == 2).expect("repair epoch");
    assert_eq!(report.targets, dep.num_nodes - 1);
    let latency = report.convergence_latency().expect("repair epoch converges");
    assert!(latency > 0.0 && latency < 0.1, "latency {latency}");
    for (j, &e) in run.node_epochs.iter().enumerate() {
        assert_eq!(e, if j == 3 { 1 } else { 2 }, "node {j}");
    }

    // Coverage: never below the no-repair worst case, and recovered above
    // the blind level after repair.
    let blind_gap = manifest_gap_fraction(&dep, &m, &[NodeId(3)]);
    assert!(run.coverage_floor() >= 1.0 - blind_gap - 1e-9);
    let last = run.coverage.last().unwrap().1;
    assert!(
        last > 1.0 - blind_gap + 1e-12,
        "repair must recover coverage: final {last}, blind {}",
        1.0 - blind_gap
    );
    assert_fenced(&run);
}

#[test]
fn partitioned_minority_keeps_last_manifest_and_rejoins_fenced() {
    let (dep, m, caps) = setup();
    let mut plan = FaultPlan::clean(13);
    plan.partitions.push(Partition { nodes: vec![NodeId(7)], from: 0.4, until: 0.7 });
    let run = run_cluster(&dep, &m, &caps, &plan, &ClusterConfig::default()).expect("run");

    let d = run.detection_of(NodeId(7)).expect("partition looks like a failure");
    assert_eq!(d.cause, DetectionCause::MissedHeartbeats);
    assert!(d.declared_at > 0.4 && d.declared_at < 0.5, "declared at {}", d.declared_at);

    // While cut, the minority keeps its last validated manifest: its only
    // install (the catch-up push) happens after the heal.
    let installs = &run.node_installs[7];
    assert_eq!(installs.len(), 1, "exactly one catch-up install: {installs:?}");
    assert!(installs[0].0 >= 0.7, "install at {} is inside the blind window", installs[0].0);
    assert_eq!(installs[0].1, run.final_epoch);
    assert_eq!(run.stats.recoveries, 1, "heal must be noticed");
    assert_eq!(run.node_epochs[7], run.final_epoch, "rejoined node catches up");

    // Coverage floor is the blind window of the partitioned node.
    let blind_gap = manifest_gap_fraction(&dep, &m, &[NodeId(7)]);
    assert!(run.coverage_floor() >= 1.0 - blind_gap - 1e-9);
    // After the heal + catch-up the node rejoins as a spare under the
    // repair epoch: everything except its own unrecoverable
    // (ingress/egress) units is covered again; giving those back is the
    // reload loop's job, not the failure path's.
    let residual = nwdp_core::resilience::greedy_repair(&dep, &m, &caps, &[NodeId(7)])
        .unrecoverable_traffic_fraction;
    let last = run.coverage.last().unwrap().1;
    assert!(
        (last - (1.0 - residual)).abs() < 1e-9,
        "healed coverage {last} should equal repair-bound {}",
        1.0 - residual
    );
    assert!(residual < blind_gap, "repair recovered most of the partitioned share");
    assert_fenced(&run);
}

#[test]
fn lossy_links_retry_and_still_converge() {
    let (dep, m, caps) = setup();
    let mut plan = FaultPlan::lossy(0.1, 0.001, 0.004, 19);
    plan.crashes.push((NodeId(3), 0.37));
    let mut cfg = ClusterConfig::default();
    // At 10% loss, 2 consecutive missed beats happen constantly; 4 make
    // false suspicion vanishingly rare.
    cfg.health.miss_threshold = 4;
    let run = run_cluster(&dep, &m, &caps, &plan, &cfg).expect("lossy run");

    assert!(run.stats.drops_loss > 0, "10% loss must drop something");
    let d = run.detection_of(NodeId(3)).expect("crash detected despite loss");
    let predicted = cfg.health.detect_at(0.37);
    // Loss can only delay arrivals (earlier silence start is bounded by
    // the beat grid), and the monitor waits deadline + grace.
    let slack = cfg.health.max_detection_delay() + 0.02;
    assert!(
        (d.declared_at - predicted).abs() <= slack + 1e-9,
        "declared {} vs predicted {predicted} (slack {slack})",
        d.declared_at
    );
    // The repair epoch must eventually converge on every live node even
    // though individual pushes and acks are dropped.
    assert_eq!(run.final_epoch, 2);
    for (j, &e) in run.node_epochs.iter().enumerate() {
        if j != 3 && !run.detections.iter().any(|x| x.node == NodeId(j)) {
            assert_eq!(e, 2, "live node {j} must converge");
        }
    }
    let blind_gap = manifest_gap_fraction(&dep, &m, &[NodeId(3)]);
    assert!(run.coverage_floor() >= 1.0 - blind_gap - 1e-9);
    assert_fenced(&run);
}

#[test]
fn false_suspicion_under_loss_recovers_and_stays_safe() {
    // Seed 17 is chosen because its draw sequence loses 4 consecutive
    // beats from node 9 early on: a genuine false detection. The property
    // under test: false suspicion is *safe* — the still-alive node keeps
    // analyzing (overlap, never a gap), recovery clears the declaration,
    // and the catch-up push re-fences it onto the live epoch.
    let (dep, m, caps) = setup();
    let mut plan = FaultPlan::lossy(0.1, 0.001, 0.004, 17);
    plan.crashes.push((NodeId(3), 0.37));
    let mut cfg = ClusterConfig::default();
    cfg.health.miss_threshold = 4;
    let run = run_cluster(&dep, &m, &caps, &plan, &cfg).expect("run");

    let false_d = run.detection_of(NodeId(9)).expect("seed 17 falsely suspects node 9");
    assert_eq!(false_d.cause, DetectionCause::MissedHeartbeats);
    assert!(false_d.declared_at < 0.37, "suspicion predates the real crash");
    assert!(run.stats.recoveries >= 1, "next heartbeat through proves liveness");
    assert_eq!(run.final_epoch, 3, "one repair per declaration");
    assert_eq!(run.node_epochs[9], 3, "recovered node re-fenced onto the live epoch");
    // Node 3 was alive for the false-suspicion repair (epoch 2) and died
    // before epoch 3: it keeps the last manifest it validated.
    assert_eq!(run.node_epochs[3], 2, "dead node keeps its last validated manifest");
    // Union bound: any uncovered point at any instant traces back to the
    // original ranges of one of the two declared nodes.
    let worst = manifest_gap_fraction(&dep, &m, &[NodeId(3)])
        + manifest_gap_fraction(&dep, &m, &[NodeId(9)]);
    assert!(run.coverage_floor() >= 1.0 - worst - 1e-9);
    assert_fenced(&run);
}

#[test]
fn slow_link_exhausts_the_retry_budget_and_is_declared_failed() {
    let (dep, m, caps) = setup();
    let mut plan = FaultPlan::clean(23);
    // Node 2's link is lossless but glacial: a push RTT (0.4) far beyond
    // the whole retry window, while heartbeats still arrive (late but
    // within the grace the monitor derives from max delay).
    plan.overrides.push((NodeId(2), LinkFault { drop_p: 0.0, delay_min: 0.2, delay_max: 0.2 }));
    plan.crashes.push((NodeId(3), 0.02));
    let mut cfg = ClusterConfig::default();
    cfg.health.miss_threshold = 4;
    cfg.backoff_base = 0.04;
    cfg.retry_budget = 2;
    let run = run_cluster(&dep, &m, &caps, &plan, &cfg).expect("slow-link run");

    // The crash repair's push to the slow node exhausts its budget.
    let d = run.detection_of(NodeId(2)).expect("slow node declared");
    assert_eq!(d.cause, DetectionCause::RetryExhausted);
    assert!(run.stats.timeouts >= 1);
    assert!(run.stats.retries >= 2, "budget spent before declaring");
    // Late heartbeats keep proving liveness, so it recovers (and may flap
    // — each recovery re-pushes, each push re-exhausts).
    assert!(run.stats.recoveries >= 1);
    assert!(run.stats.repairs >= 2, "slow-node declaration triggers its own repair");
    assert_fenced(&run);
}

#[test]
fn lp_followup_reoptimizes_after_the_greedy_epoch() {
    let (dep, m, caps) = setup();
    let mut plan = FaultPlan::clean(29);
    plan.crashes.push((NodeId(3), 0.3));
    let cfg = ClusterConfig { lp_followup: true, ..ClusterConfig::default() };
    let run = run_cluster(&dep, &m, &caps, &plan, &cfg).expect("lp run");

    assert_eq!(run.stats.repairs, 1, "greedy repair first");
    assert_eq!(run.stats.lp_followups, 1, "LP re-optimization follows");
    assert_eq!(run.final_epoch, 3, "greedy epoch 2, LP epoch 3");
    for (j, &e) in run.node_epochs.iter().enumerate() {
        if j != 3 {
            assert_eq!(e, 3, "node {j} runs the LP epoch");
        }
    }
    // Both post-repair epochs converged.
    assert_eq!(run.convergence_latencies().len(), 2);
    assert_fenced(&run);
}

#[test]
fn invalid_health_config_is_a_typed_error_not_a_panic() {
    let (dep, m, caps) = setup();
    let plan = FaultPlan::clean(1);
    let mut cfg = ClusterConfig::default();
    cfg.health.heartbeat_interval = 0.0;
    assert_eq!(
        run_cluster(&dep, &m, &caps, &plan, &cfg),
        Err(ClusterError::Health(HealthConfigError::NonPositiveInterval(0.0)))
    );
    cfg.health = HealthConfig { miss_threshold: 0, ..HealthConfig::default() };
    assert_eq!(
        run_cluster(&dep, &m, &caps, &plan, &cfg),
        Err(ClusterError::Health(HealthConfigError::ZeroMissThreshold))
    );
}

#[test]
fn same_seed_same_run() {
    let (dep, m, caps) = setup();
    let mut plan = FaultPlan::lossy(0.1, 0.001, 0.004, 31);
    plan.crashes.push((NodeId(5), 0.25));
    let mut cfg = ClusterConfig::default();
    cfg.health.miss_threshold = 4;
    let a = run_cluster(&dep, &m, &caps, &plan, &cfg).expect("run a");
    let b = run_cluster(&dep, &m, &caps, &plan, &cfg).expect("run b");
    assert_eq!(a, b, "identical inputs must reproduce the run bit for bit");
    // A different transport seed produces a different delivery schedule.
    plan.seed = 32;
    let c = run_cluster(&dep, &m, &caps, &plan, &cfg).expect("run c");
    assert_ne!(a.fingerprint, c.fingerprint);
}

/// One seeded run of the `repro cluster` fault script (10% loss, node 3
/// crashing at 0.37, node 7 partitioned over [0.5, 0.75)), pinned: the
/// delivery-schedule fingerprint, every wire counter, the final epoch
/// and every node's install log. Node turns, transport draws and
/// controller decisions all happen on the driver thread in event order,
/// so any change to that order shows up here.
#[test]
fn repro_cluster_script_matches_pinned_run() {
    let (dep, m, caps) = setup();
    let mut plan = FaultPlan::lossy(0.1, 0.001, 0.004, 19);
    plan.crashes.push((NodeId(3), 0.37));
    plan.partitions.push(Partition { nodes: vec![NodeId(7)], from: 0.5, until: 0.75 });
    let mut cfg = ClusterConfig::default();
    cfg.health.miss_threshold = 4;
    let run = run_cluster(&dep, &m, &caps, &plan, &cfg).expect("pinned run");

    assert_eq!(run.fingerprint, 0x9c49_78af_8c99_4062);
    assert_eq!(run.final_epoch, 3);
    let stats = NetStats {
        sends: 582,
        delivered: 484,
        drops_loss: 54,
        drops_cut: 44,
        retries: 2,
        stale_epoch_rejects: 1,
        heartbeats: 443,
        installs: 20,
        recoveries: 1,
        repairs: 2,
        ..NetStats::default()
    };
    assert_eq!(run.stats, stats);
    let installs: Vec<Vec<(f64, u64)>> = vec![
        vec![(0.4622782411824128, 2), (0.5833102009164953, 3)],
        vec![(0.4629036228159925, 2), (0.582594806623137, 3)],
        vec![(0.46330184676763025, 2), (0.5823183206061052, 3)],
        vec![],
        vec![(0.4886628216144779, 2), (0.5821048214434836, 3)],
        vec![(0.4610364578167077, 2), (0.5833148317197462, 3)],
        vec![(0.4622742697406494, 2), (0.583970501636783, 3)],
        vec![(0.46187166485420283, 2), (0.7850178935427586, 3)],
        vec![(0.4632200902992515, 2), (0.5813011502408767, 3)],
        vec![(0.46298237220907235, 2), (0.5833828107287801, 3)],
        vec![(0.461832043644112, 2), (0.5815185589465744, 3)],
    ];
    assert_eq!(run.node_installs, installs);
}
