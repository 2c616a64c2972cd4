//! Node-failure resilience, end to end at the engine layer.
//!
//! The paper's static sampling manifests make coordination free at
//! runtime — and make a crashed node's hash ranges silently unobserved.
//! These tests drive the full replay harness through failures:
//!
//! - edge-only deployments have no one to cover for a blind node, so
//!   coverage simply drops (the brittleness baseline);
//! - a coordinated deployment running `plan_manifest_epochs` +
//!   `run_coordinated_resilient` loses exactly the crashed node's
//!   single-node (ingress/egress) units and recovers everything else,
//!   exact-sweep verified, for *every* single Internet2 node crash;
//! - detection delay costs exactly the blind-window alerts, never more;
//! - a resilient run under random failure schedules equals, stat for
//!   stat, a per-node replay rebuilt from the public `Engine` API.
//!
//! Every test runs its replays at 1 and at 4 threads.

use nwdp_core::nids::{
    generate_manifests, manifest_loads, solve_nids_lp, NidsLpConfig, NodeCaps, SamplingManifest,
};
use nwdp_core::resilience::{
    manifest_gap_fraction, FailureKind, FailureScenario, FailureSchedule, HealthConfig,
};
use nwdp_core::{build_units, parallel, AnalysisClass, NidsDeployment};
use nwdp_engine::{
    coverage_timeline, run_coordinated, run_coordinated_resilient, run_edge_only,
    run_edge_only_faulty, run_standalone_reference, Alert, CoordContext, Engine, ManifestEpoch,
    Placement, ResilienceConfig, RunStats,
};
use nwdp_hash::KeyedHasher;
use nwdp_topo::{internet2, NodeId, PathDb, Topology};
use nwdp_traffic::{
    generate_trace, node_of_ip, FaultInjector, NetTrace, TraceConfig, TrafficMatrix, VolumeModel,
};
use std::collections::BTreeSet;
use std::sync::Arc;

#[path = "../../../tests/common/threads.rs"]
mod threads;
use threads::under_thread_counts;

fn setup(sessions: usize, seed: u64) -> (Topology, PathDb, NidsDeployment, NetTrace) {
    let topo = internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let trace = generate_trace(&topo, &tm, &TraceConfig::new(sessions, seed));
    (topo, paths, dep, trace)
}

fn lp_caps(dep: &NidsDeployment) -> NidsLpConfig {
    NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 })
}

fn manifest_for(dep: &NidsDeployment) -> SamplingManifest {
    let assignment = solve_nids_lp(dep, &lp_caps(dep)).expect("NIDS LP solves");
    generate_manifests(dep, &assignment.d)
}

/// Alerts only the crashed node could ever raise: its ingress-scoped Scan
/// aggregation and egress-scoped SYN-flood aggregation. Everything else is
/// path-scoped and must survive repair.
fn scoped_to(alert: &Alert, node: NodeId) -> bool {
    (alert.kind == "address_scan" || alert.kind == "syn_flood")
        && node_of_ip(alert.subject as u32) == node
}

/// Heartbeat config that detects a crash at `t = 0` immediately.
fn instant_detection() -> HealthConfig {
    HealthConfig { heartbeat_interval: 0.01, miss_threshold: 1 }
}

/// Heartbeat config whose detection window never closes within the
/// replay: a crash stays unrepaired for the whole run.
fn never_detects() -> HealthConfig {
    HealthConfig { heartbeat_interval: 10.0, miss_threshold: 2 }
}

#[test]
fn edge_only_coverage_drops_while_coordinated_repair_restores_it() {
    let (_t, paths, dep, trace) = setup(2500, 42);
    let manifest = manifest_for(&dep);
    let h = KeyedHasher::with_key(0xA11CE);
    under_thread_counts(|| {
        // Edge-only baseline; blind the home node of some scanner so the
        // blackout is guaranteed to cost at least that scan alert (only the
        // ingress vantage point can aggregate a source across destinations).
        let edge = run_edge_only(&dep, &trace, h).unwrap();
        let x = edge
            .alerts
            .iter()
            .find(|a| a.kind == "address_scan")
            .map(|a| node_of_ip(a.subject as u32))
            .expect("workload must contain a scan");
        let faults = FaultInjector::node_blackout(x, 0.0, 1.0);
        let edge_blind = run_edge_only_faulty(&dep, &trace, h, &faults).unwrap();
        assert!(edge_blind.alerts.is_subset(&edge.alerts), "a blind node cannot add alerts");
        let edge_lost: BTreeSet<_> = edge.alerts.difference(&edge_blind.alerts).cloned().collect();
        assert!(!edge_lost.is_empty(), "blinding an edge node must cost alerts");
        for a in &edge_lost {
            assert!(scoped_to(a, x), "edge loss not attributable to the blind node: {a:?}");
        }

        // Coordinated deployment, same crash, but *undetected*: node `x` also
        // takes its share of everyone's path units down with it.
        let schedule = FailureSchedule::single_crash(x, 0.0);
        let reference = run_standalone_reference(&dep, &trace, h).unwrap();
        let caps = lp_caps(&dep).caps;
        let unrepaired = run_coordinated_resilient(
            &dep,
            &manifest,
            &paths,
            &trace,
            Placement::EventEngine,
            h,
            &ResilienceConfig { caps: &caps, schedule: &schedule, health: never_detects() },
        )
        .unwrap();
        assert_eq!(unrepaired.epochs.len(), 1, "no detection, no repair epoch");
        assert!(unrepaired.epochs[0].failed.is_empty());

        // Coordinated deployment with detection and greedy repair: only the
        // provably unrecoverable alerts (scoped to `x`) are lost.
        let repaired = run_coordinated_resilient(
            &dep,
            &manifest,
            &paths,
            &trace,
            Placement::EventEngine,
            h,
            &ResilienceConfig { caps: &caps, schedule: &schedule, health: instant_detection() },
        )
        .unwrap();
        assert_eq!(repaired.epochs.len(), 1);
        assert_eq!(repaired.epochs[0].failed, vec![x], "instant detection repairs from t = 0");
        let expected: BTreeSet<_> =
            reference.alerts.iter().filter(|a| !scoped_to(a, x)).cloned().collect();
        assert_eq!(
            repaired.run.alerts, expected,
            "repair must restore every alert except the crashed node's own aggregations"
        );

        // The regression claim itself: the unrepaired network misses alerts
        // the repaired one finds, and finds nothing the repaired one lacks.
        assert!(unrepaired.run.alerts.is_subset(&repaired.run.alerts));
        assert!(
            unrepaired.run.alerts.len() < repaired.run.alerts.len(),
            "repair must recover path-unit alerts the crashed node abandoned"
        );
    });
}

#[test]
fn any_single_internet2_crash_recovers_everything_recoverable() {
    let (_t, paths, dep, trace) = setup(1500, 7);
    let manifest = manifest_for(&dep);
    under_thread_counts(|| {
        nwdp_obs::scoped(&nwdp_obs::Recorder::new(), || {
            any_single_crash_under_metrics(&paths, &dep, &trace, &manifest)
        })
    });
}

fn any_single_crash_under_metrics(
    paths: &PathDb,
    dep: &NidsDeployment,
    trace: &NetTrace,
    manifest: &SamplingManifest,
) {
    nwdp_obs::set_enabled(true);
    let caps = lp_caps(dep).caps;
    let h = KeyedHasher::with_key(0xFEED);
    let reference = run_standalone_reference(dep, trace, h).unwrap();
    let total_pkts: f64 = dep.units.iter().map(|u| u.pkts).sum();
    let mut max_shed = 0.0f64;

    for j in 0..dep.num_nodes {
        let x = NodeId(j);

        // Blind-window accounting: the coverage gap while `x` is down and
        // undetected is exactly its traffic-weighted manifest share.
        let gap = manifest_gap_fraction(dep, manifest, &[x]);
        let share: f64 = dep
            .units
            .iter()
            .enumerate()
            .map(|(u, unit)| manifest.share(u, x) * unit.pkts)
            .sum::<f64>()
            / total_pkts;
        assert!((gap - share).abs() < 1e-9, "node {j}: gap {gap} vs share {share}");

        // Engine replay with instant detection: the repaired network's
        // alert set equals the standalone reference minus the alerts only
        // `x` could raise.
        let schedule = FailureSchedule::single_crash(x, 0.0);
        let resilient = run_coordinated_resilient(
            dep,
            manifest,
            paths,
            trace,
            Placement::EventEngine,
            h,
            &ResilienceConfig { caps: &caps, schedule: &schedule, health: instant_detection() },
        )
        .unwrap();
        let repaired_manifest = &resilient.epochs[0].manifest;
        max_shed = resilient.epochs.iter().map(|e| e.shed_fraction).fold(max_shed, f64::max);

        // Exact-sweep verification: every multi-node unit is back to full
        // coverage under the repaired manifest; only `x`'s own
        // single-node units stay dark.
        for (u, unit) in dep.units.iter().enumerate() {
            let (lo, hi) = repaired_manifest.unit_coverage_exact(dep, u);
            if unit.nodes == [x] {
                assert_eq!((lo, hi), (0, 0), "node {j} unit {u}: nobody can cover a dead vantage");
            } else {
                assert_eq!((lo, hi), (1, 1), "node {j} unit {u} has a gap or overlap");
            }
        }
        assert!(
            manifest_gap_fraction(dep, repaired_manifest, &[x])
                < manifest_gap_fraction(dep, manifest, &[x]),
            "node {j}: repair must shrink the gap"
        );

        let expected: BTreeSet<_> =
            reference.alerts.iter().filter(|a| !scoped_to(a, x)).cloned().collect();
        assert_eq!(resilient.run.alerts, expected, "node {j}: repair left alerts missing");
    }

    // Acceptance: repair latency and shed fraction are exported via
    // nwdp-obs by the epoch planner.
    let snap = nwdp_obs::snapshot();
    let get = |name: &str| snap.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone());
    match get("resilience.repair_ns") {
        Some(nwdp_obs::SnapshotValue::Timer { count, .. }) => {
            assert_eq!(count, dep.num_nodes as u64, "one timed repair per crash")
        }
        other => panic!("resilience.repair_ns missing or mistyped: {other:?}"),
    }
    match get("resilience.shed_fraction") {
        Some(nwdp_obs::SnapshotValue::Gauge(v)) => assert_eq!(v, max_shed),
        other => panic!("resilience.shed_fraction missing or mistyped: {other:?}"),
    }
    match get("resilience.repairs") {
        Some(nwdp_obs::SnapshotValue::Counter(c)) => assert_eq!(c, dep.num_nodes as u64),
        other => panic!("resilience.repairs missing or mistyped: {other:?}"),
    }
}

#[test]
fn detection_delay_costs_exactly_the_blind_window() {
    let (_t, paths, dep, trace) = setup(2000, 23);
    let manifest = manifest_for(&dep);
    let caps = lp_caps(&dep).caps;
    let h = KeyedHasher::with_key(0xDE1A7);
    let x = NodeId(3);
    let schedule = FailureSchedule::single_crash(x, 0.0);

    under_thread_counts(|| {
        let run_with = |health: HealthConfig| {
            run_coordinated_resilient(
                &dep,
                &manifest,
                &paths,
                &trace,
                Placement::EventEngine,
                h,
                &ResilienceConfig { caps: &caps, schedule: &schedule, health },
            )
            .unwrap()
        };
        let instant = run_with(instant_detection());
        // Detection after half the replay: until then the original manifest
        // runs with `x` blind.
        let delayed = run_with(HealthConfig { heartbeat_interval: 0.25, miss_threshold: 3 });

        assert_eq!(delayed.epochs.len(), 2);
        assert!(delayed.epochs[0].failed.is_empty(), "blind window runs the original manifest");
        assert!((delayed.epochs[1].from - 0.5).abs() < 1e-12);
        assert_eq!(delayed.epochs[1].failed, vec![x]);
        assert!(
            delayed.epochs[1].residual_gap < manifest_gap_fraction(&dep, &manifest, &[x]),
            "the repaired epoch must close most of the gap"
        );

        // The coverage time series reproduces the blind window exactly: the
        // original-manifest gap from the crash until detection at 0.5, the
        // repaired-manifest residual gap afterwards.
        let health = HealthConfig { heartbeat_interval: 0.25, miss_threshold: 3 };
        let timeline = coverage_timeline(
            &dep,
            &ResilienceConfig { caps: &caps, schedule: &schedule, health },
            &delayed.epochs,
        );
        let blind_gap = manifest_gap_fraction(&dep, &manifest, &[x]);
        assert_eq!(timeline.len(), 2, "crash-at-0 plus one repair boundary: {timeline:?}");
        assert_eq!(timeline[0].0, 0.0);
        assert!((timeline[0].1 - (1.0 - blind_gap)).abs() < 1e-12, "blind window coverage");
        assert!((timeline[1].0 - 0.5).abs() < 1e-12);
        assert!(
            (timeline[1].1 - (1.0 - delayed.epochs[1].residual_gap)).abs() < 1e-12,
            "post-repair coverage"
        );
        assert!(timeline[1].1 > timeline[0].1, "repair must raise coverage");

        // Greedy repair only ever *adds* ranges to survivors, so every session
        // the delayed run analyzes is analyzed by the same owner in the
        // instant run: delayed alerts are a strict subset.
        assert!(delayed.run.alerts.is_subset(&instant.run.alerts));
        assert!(
            delayed.run.alerts.len() < instant.run.alerts.len(),
            "half a replay of blindness must cost some alerts"
        );
    });
}

#[test]
fn capacity_degradation_sheds_and_still_runs() {
    let (_t, paths, dep, trace) = setup(1500, 99);
    let manifest = manifest_for(&dep);
    let caps = lp_caps(&dep).caps;
    let h = KeyedHasher::with_key(0x0DD);
    let x = NodeId(2);

    under_thread_counts(|| {
        // Scale the degradation so the node ends up 2x over its shrunken
        // capacity: factor = half its current bottleneck utilisation.
        let (cpu, mem) = manifest_loads(&dep, &caps, &manifest);
        let util = cpu[x.index()].max(mem[x.index()]);
        assert!(util > 0.0, "an Internet2 node always carries load");
        let schedule = FailureSchedule {
            events: vec![FailureScenario {
                node: x,
                at: 0.4,
                kind: FailureKind::CapacityDegraded { factor: util / 2.0 },
            }],
        };

        let baseline =
            run_coordinated(&dep, &manifest, &paths, &trace, Placement::EventEngine, h).unwrap();
        let degraded = run_coordinated_resilient(
            &dep,
            &manifest,
            &paths,
            &trace,
            Placement::EventEngine,
            h,
            &ResilienceConfig { caps: &caps, schedule: &schedule, health: instant_detection() },
        )
        .unwrap();

        assert_eq!(degraded.epochs.len(), 2);
        assert_eq!(degraded.epochs[0].shed_fraction, 0.0, "full capacity until the event");
        assert!(degraded.epochs[1].shed_fraction > 0.0, "an overloaded node must shed");
        assert!(degraded.epochs[1].failed.is_empty(), "degradation is not a crash");
        // Shedding only removes analysis; it never invents alerts. The node
        // itself keeps watching (degraded, not blind), so nothing outside the
        // shed ranges is lost.
        assert!(degraded.run.alerts.is_subset(&baseline.alerts));
    });
}

/// The resilient replay rebuilt from the public `Engine` API, one node at
/// a time: per-packet `process_session`, a swap to the next epoch's
/// manifest before the first session whose replay-clock reading reaches
/// its `from`, and every session the node is blind to skipped.
fn resilient_reference(
    dep: &NidsDeployment,
    paths: &PathDb,
    trace: &NetTrace,
    h: KeyedHasher,
    schedule: &FailureSchedule,
    epochs: &[ManifestEpoch],
) -> Vec<RunStats> {
    let names: Vec<String> = dep.classes.iter().map(|c| c.name.clone()).collect();
    let n_total = trace.sessions.len().max(1) as f64;
    (0..dep.num_nodes)
        .map(|j| {
            let node = NodeId(j);
            let coord = CoordContext::with_shared(dep, Arc::new(epochs[0].manifest.clone()));
            let mut engine =
                Engine::new(node, Placement::EventEngine, &names, Some(coord), h).unwrap();
            let mut k = 0;
            for s in trace.onpath_sessions(paths, node) {
                let now = s.id as f64 / n_total;
                while k + 1 < epochs.len() && epochs[k + 1].from <= now {
                    k += 1;
                    engine.set_manifest(Arc::new(epochs[k].manifest.clone())).unwrap();
                }
                if schedule.events.iter().any(|e| e.node == node && e.blind_at(now)) {
                    continue;
                }
                engine.process_session(s);
            }
            engine.stats()
        })
        .collect()
}

#[test]
fn resilient_run_matches_per_node_reference_bit_for_bit() {
    let (_t, paths, dep, trace) = setup(1500, 11);
    let manifest = manifest_for(&dep);
    let caps = lp_caps(&dep).caps;
    let h = KeyedHasher::with_key(0xB17);
    let mut swaps = 0;
    for seed in 0..6 {
        let schedule = FailureSchedule::random(dep.num_nodes, 4, seed);
        let cfg =
            ResilienceConfig { caps: &caps, schedule: &schedule, health: HealthConfig::default() };
        let (one, four) = under_thread_counts(|| {
            let threads = parallel::num_threads();
            let res = run_coordinated_resilient(
                &dep,
                &manifest,
                &paths,
                &trace,
                Placement::EventEngine,
                h,
                &cfg,
            )
            .unwrap();
            let reference = resilient_reference(&dep, &paths, &trace, h, &schedule, &res.epochs);
            assert_eq!(res.run.per_node.len(), reference.len());
            for (got, want) in res.run.per_node.iter().zip(&reference) {
                // Every RunStats field, alerts and per-module cycles included.
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "seed {seed}, {threads} threads, node {}",
                    want.node.0
                );
            }
            let union: BTreeSet<Alert> =
                reference.iter().flat_map(|st| st.alerts.iter().cloned()).collect();
            assert_eq!(res.run.alerts, union, "seed {seed}, {threads} threads");
            res.epochs.len() - 1
        });
        swaps += one + four;
    }
    assert!(swaps >= 12, "the schedules must exercise manifest swaps ({swaps})");
}
