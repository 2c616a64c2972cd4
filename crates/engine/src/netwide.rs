//! Network-wide emulation harness (paper §2.4, "Network-wide evaluation").
//!
//! "From a network-wide trace, we generate traces that each node sees. For
//! the coordinated case, this includes both traffic originating/terminating
//! at a node and transit traffic. For the edge-only case, these consist of
//! traffic originating/terminating at each node."
//!
//! The batch runners replay a materialized trace with one independent
//! engine per node on scoped threads (see [`nwdp_core::parallel`]),
//! merged in node order, so the result is bit-identical for any
//! `NWDP_THREADS`; the equivalence suites hold the streaming runs to them.
//! [`run_coordinated_resilient`] replays a planned manifest timeline
//! through the coordinated replay loop of [`crate::stream`].

use crate::engine::{CoordContext, Engine, Placement, RunStats};
use crate::modules::{Alert, EngineError};
use crate::stream::run_epochs;
use nwdp_core::nids::{NodeCaps, SamplingManifest};
use nwdp_core::resilience::{
    distance_weighted_values, greedy_repair, manifest_gap_fraction, shed_overload, FailureKind,
    FailureSchedule, HealthConfig,
};
use nwdp_core::{parallel, NidsDeployment};
use nwdp_hash::KeyedHasher;
use nwdp_obs as obs;
use nwdp_topo::{NodeId, PathDb};
use nwdp_traffic::{FaultInjector, NetTrace, Session};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Results of running one deployment scenario across all nodes.
#[derive(Debug, Clone)]
pub struct NetworkRun {
    pub per_node: Vec<RunStats>,
    /// Union of alerts across the network (for equivalence checks).
    pub alerts: BTreeSet<Alert>,
}

impl NetworkRun {
    pub fn max_cpu(&self) -> u64 {
        self.per_node.iter().map(|s| s.cpu_cycles).max().unwrap_or(0)
    }

    pub fn max_mem(&self) -> u64 {
        self.per_node.iter().map(|s| s.mem_peak).max().unwrap_or(0)
    }

    /// Assemble a run from per-node stats in node order (alerts are their
    /// union) and publish its load profile under `mode`.
    pub(crate) fn collect(mode: &str, per_node: Vec<RunStats>) -> Self {
        let alerts = per_node.iter().flat_map(|st| st.alerts.iter().cloned()).collect();
        let run = NetworkRun { per_node, alerts };
        if obs::enabled() {
            flush_metrics(mode, &run);
        }
        run
    }
}

pub(crate) fn class_names(dep: &NidsDeployment) -> Vec<String> {
    dep.classes.iter().map(|c| c.name.clone()).collect()
}

/// Replay every node's engine over its trace slice in parallel (one
/// independent engine per node; deterministic node-order merge).
fn replay_nodes(
    mode: &str,
    num_nodes: usize,
    run_node: impl Fn(NodeId) -> Result<RunStats, EngineError> + Sync,
) -> Result<NetworkRun, EngineError> {
    let _span = obs::span!("engine.replay", mode = mode, nodes = num_nodes);
    let per_node = parallel::par_map_n(num_nodes, |j| {
        let _span = obs::span!("engine.replay_node", node = j);
        run_node(NodeId(j))
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok(NetworkRun::collect(mode, per_node))
}

/// Publish one replay's per-node load profile to the metrics registry.
fn flush_metrics(mode: &str, run: &NetworkRun) {
    let s = obs::Scope::new("engine");
    s.counter_with("runs", &[("mode", mode)]).inc();
    s.gauge_with("max_cpu_cycles", &[("mode", mode)]).set_max(run.max_cpu() as f64);
    let mut per_class: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for st in &run.per_node {
        let node = st.node.0.to_string();
        let labels = [("mode", mode), ("node", node.as_str())];
        s.counter_with("packets", &labels).add(st.packets);
        s.counter_with("connections", &labels).add(st.connections as u64);
        s.counter_with("cpu_cycles", &labels).add(st.cpu_cycles);
        s.counter_with("fastpath_skipped", &labels).add(st.fastpath_skipped);
        s.counter_with("range_checks", &labels).add(st.range_checks);
        s.counter_with("range_hits", &labels).add(st.range_hits);
        s.gauge_with("range_hit_rate", &labels).set(st.range_hit_rate());
        for (class, cpu) in &st.per_module_cpu {
            *per_class.entry(class.as_str()).or_default() += cpu;
        }
    }
    for (class, cpu) in per_class {
        s.counter_with("class_cpu_cycles", &[("class", class), ("mode", mode)]).add(cpu);
    }
}

/// Edge-only deployment: every node independently runs stock Bro on the
/// traffic it originates or terminates.
pub fn run_edge_only(
    dep: &NidsDeployment,
    trace: &NetTrace,
    hasher: KeyedHasher,
) -> Result<NetworkRun, EngineError> {
    let names = class_names(dep);
    replay_nodes("edge_only", dep.num_nodes, |node| {
        let mut engine = Engine::new(node, Placement::Unmodified, &names, None, hasher)?;
        for s in trace.edge_sessions(node) {
            engine.process_session(s);
        }
        Ok(engine.stats())
    })
}

/// Coordinated network-wide deployment: every node runs the coordinated
/// engine (checks placed per the paper's final configuration) over all
/// on-path traffic, guided by the shared sampling manifest.
pub fn run_coordinated(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    paths: &PathDb,
    trace: &NetTrace,
    placement: Placement,
    hasher: KeyedHasher,
) -> Result<NetworkRun, EngineError> {
    assert_ne!(placement, Placement::Unmodified, "coordinated run needs a coordinated placement");
    let names = class_names(dep);
    replay_nodes("coordinated", dep.num_nodes, |node| {
        let coord = CoordContext::new(dep, manifest);
        let mut engine = Engine::new(node, placement, &names, Some(coord), hasher)?;
        for s in trace.onpath_sessions(paths, node) {
            engine.process_session(s);
        }
        Ok(engine.stats())
    })
}

/// Edge-only deployment under fault injection: every node replays its own
/// edge traffic through the (possibly degraded) capture point. With a
/// [`NodeBlackout`](nwdp_traffic::NodeBlackout) this shows the paper's
/// brittleness baseline — nobody covers for a blind edge node.
pub fn run_edge_only_faulty(
    dep: &NidsDeployment,
    trace: &NetTrace,
    hasher: KeyedHasher,
    faults: &FaultInjector,
) -> Result<NetworkRun, EngineError> {
    let names = class_names(dep);
    let n_total = trace.sessions.len().max(1) as f64;
    replay_nodes("edge_only_faulty", dep.num_nodes, |node| {
        let mut engine = Engine::new(node, Placement::Unmodified, &names, None, hasher)?;
        for s in trace.edge_sessions(node) {
            if faults.observes(node, s.id as f64 / n_total) {
                engine.process_session_faulty(s, faults);
            }
        }
        Ok(engine.stats())
    })
}

/// Failure handling configuration for [`run_coordinated_resilient`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig<'a> {
    /// Per-node capacities (drives greedy repair placement and shedding).
    pub caps: &'a [NodeCaps],
    /// Failure/overload events on the replay-fraction clock.
    pub schedule: &'a FailureSchedule,
    /// Heartbeat detection parameters.
    pub health: HealthConfig,
}

/// One span of the repaired-manifest timeline: from replay fraction
/// `from` (inclusive) until the next epoch, every node consults
/// `manifest` for new connections.
#[derive(Debug, Clone)]
pub struct ManifestEpoch {
    pub from: f64,
    /// Nodes detected as failed (crashed, or inside a detected partition)
    /// at this epoch's start.
    pub failed: Vec<NodeId>,
    /// Traffic fraction shed to fit degraded capacities in this epoch.
    pub shed_fraction: f64,
    /// Traffic-weighted coverage gap that remains while `failed` nodes
    /// stay blind under this (repaired) manifest.
    pub residual_gap: f64,
    pub manifest: SamplingManifest,
}

/// A coordinated replay under failures, plus the manifest timeline it
/// executed.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    pub run: NetworkRun,
    pub epochs: Vec<ManifestEpoch>,
}

/// Compile a failure schedule into the manifest timeline the network
/// executes: one epoch per detection/recovery boundary, each repaired
/// from the *original* manifest for the then-detected failure set (so
/// epochs are independent of event order) and then value-order shed to
/// fit any capacity degradation in force.
pub fn plan_manifest_epochs(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    cfg: &ResilienceConfig,
) -> Vec<ManifestEpoch> {
    let _span = obs::span!("engine.plan_epochs", events = cfg.schedule.events.len());
    let mut bounds = vec![0.0f64];
    for e in &cfg.schedule.events {
        match e.kind {
            FailureKind::Crash => bounds.push(cfg.health.detect_at(e.at)),
            FailureKind::Partition { until } => {
                let d = cfg.health.detect_at(e.at);
                // Partitions shorter than the detection window never
                // trigger a repair; detected ones heal at `until`.
                if d < until {
                    bounds.push(d);
                    bounds.push(until);
                }
            }
            // Degradation is declared, not heartbeat-detected: capacity
            // loss is visible immediately to the control plane.
            FailureKind::CapacityDegraded { .. } => bounds.push(e.at),
        }
    }
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    // Boundaries at or past the end of the replay never activate.
    bounds.retain(|&t| t < 1.0);
    let values = distance_weighted_values(dep);
    let mut epochs = Vec::with_capacity(bounds.len());
    for &from in &bounds {
        let mut failed: Vec<NodeId> = cfg
            .schedule
            .events
            .iter()
            .filter(|e| match e.kind {
                FailureKind::Crash => cfg.health.detect_at(e.at) <= from,
                FailureKind::Partition { until } => {
                    cfg.health.detect_at(e.at) <= from && from < until
                }
                FailureKind::CapacityDegraded { .. } => false,
            })
            .map(|e| e.node)
            .collect();
        failed.sort();
        failed.dedup();
        let t0 = obs::now_if_enabled();
        let repaired = if failed.is_empty() {
            None
        } else {
            Some(greedy_repair(dep, manifest, cfg.caps, &failed))
        };
        let base = repaired.as_ref().map_or(manifest, |r| &r.manifest);
        let mut scaled: Vec<NodeCaps> = Vec::new();
        for (j, caps) in cfg.caps.iter().enumerate() {
            let f = cfg.schedule.capacity_factor(NodeId(j), from);
            scaled.push(NodeCaps { cpu: caps.cpu * f, mem: caps.mem * f });
        }
        let shed = shed_overload(dep, base, &scaled, 1.0, &values);
        let residual_gap = manifest_gap_fraction(dep, &shed.manifest, &failed);
        if obs::enabled() {
            let s = obs::Scope::new("resilience");
            s.counter("epochs").inc();
            if repaired.is_some() {
                s.counter("repairs").inc();
                s.timer("repair_ns").observe_since(t0);
            }
            s.gauge("shed_fraction").set_max(shed.shed_fraction);
            s.gauge("residual_gap").set_max(residual_gap);
        }
        epochs.push(ManifestEpoch {
            from,
            failed,
            shed_fraction: shed.shed_fraction,
            residual_gap,
            manifest: shed.manifest,
        });
    }
    epochs
}

/// Coordinated network-wide deployment under a failure schedule: blind
/// nodes skip the sessions they cannot see, and every node swaps to the
/// repaired manifest at each epoch boundary (new connections follow the
/// repaired ranges; connections already enabled keep their engines, the
/// paper's drain semantics). The replay loop runs one epoch per planned
/// manifest, on the replay clock `session.id / trace length`.
pub fn run_coordinated_resilient(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    paths: &PathDb,
    trace: &NetTrace,
    placement: Placement,
    hasher: KeyedHasher,
    cfg: &ResilienceConfig,
) -> Result<ResilientRun, EngineError> {
    assert_ne!(placement, Placement::Unmodified, "coordinated run needs a coordinated placement");
    let epochs = plan_manifest_epochs(dep, manifest, cfg);
    assert!(!epochs.is_empty() && epochs[0].from == 0.0, "epoch timeline must start at 0");
    let n_total = trace.sessions.len().max(1) as f64;
    let clock = |s: &Session| s.id as f64 / n_total;
    // Epoch k goes live at the first session whose clock reaches its
    // `from`. Ids ascend through the trace, so once an epoch is never
    // reached, no later one is either.
    let bounds: Vec<u64> = epochs[1..]
        .iter()
        .map_while(|ep| trace.sessions.iter().find(|s| ep.from <= clock(s)))
        .map(|s| s.id)
        .collect();
    let blind = |node: NodeId, s: &Session| {
        cfg.schedule.events.iter().any(|e| e.node == node && e.blind_at(clock(s)))
    };
    let live = |k: usize| Arc::new(epochs[k].manifest.clone());
    let _span = obs::span!("engine.replay", mode = "coordinated_resilient", nodes = dep.num_nodes);
    let run = run_epochs(
        "coordinated_resilient",
        dep,
        live(0),
        paths,
        || trace.sessions.iter().cloned(),
        placement,
        hasher,
        1,
        &bounds,
        |k, _| {
            obs::trace_event!("engine.manifest_swap", epoch = k, at = epochs[k].from);
            Some(live(k))
        },
        Some(&blind),
    )?;
    Ok(ResilientRun { run, epochs })
}

/// The exact traffic-weighted coverage step function a resilient run
/// executes, on the replay-fraction clock.
///
/// Breakpoints are every instant the covered fraction can change: failure
/// onsets, partition heals, and the epoch boundaries where nodes swap to
/// a repaired manifest. At each breakpoint `t` the covered fraction is
/// `1 − manifest_gap_fraction(dep, active_manifest(t), blind_nodes(t))` —
/// the same quantity the blind-window assertions in the resilience tests
/// check pointwise — and holds until the next breakpoint.
///
/// When metric collection is on, each point is also recorded into the
/// `resilience.coverage` time series (exported to `timeseries.csv` by the
/// `repro` harness).
pub fn coverage_timeline(
    dep: &NidsDeployment,
    cfg: &ResilienceConfig,
    epochs: &[ManifestEpoch],
) -> Vec<(f64, f64)> {
    let mut breakpoints = vec![0.0f64];
    for e in &cfg.schedule.events {
        match e.kind {
            FailureKind::Crash => breakpoints.push(e.at),
            FailureKind::Partition { until } => {
                breakpoints.push(e.at);
                breakpoints.push(until);
            }
            // Degradation sheds analysis but never blinds a vantage; the
            // covered fraction tracked here does not move.
            FailureKind::CapacityDegraded { .. } => {}
        }
    }
    breakpoints.extend(epochs.iter().map(|ep| ep.from));
    breakpoints.sort_by(f64::total_cmp);
    breakpoints.dedup();
    breakpoints.retain(|&t| (0.0..1.0).contains(&t));
    let mut out = Vec::with_capacity(breakpoints.len());
    for &t in &breakpoints {
        let blind = cfg.schedule.blind_nodes(t);
        let active = epochs.iter().rev().find(|ep| ep.from <= t);
        let gap = active.map_or(0.0, |ep| manifest_gap_fraction(dep, &ep.manifest, &blind));
        let covered = 1.0 - gap;
        if obs::enabled() {
            obs::record_series("resilience.coverage", t, covered);
        }
        out.push((t, covered));
    }
    out
}

/// A single standalone NIDS over the entire trace (the logical reference
/// the network-wide deployment must be equivalent to). One engine, one
/// node: the replay is inherently serial (every session flows through the
/// same connection table).
pub fn run_standalone_reference(
    dep: &NidsDeployment,
    trace: &NetTrace,
    hasher: KeyedHasher,
) -> Result<RunStats, EngineError> {
    let names = class_names(dep);
    let mut engine = Engine::new(NodeId(0), Placement::Unmodified, &names, None, hasher)?;
    for s in &trace.sessions {
        engine.process_session(s);
    }
    Ok(engine.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwdp_core::nids::{generate_manifests, solve_nids_lp, NidsLpConfig};
    use nwdp_core::resilience::HealthConfig;
    use nwdp_core::{build_units, AnalysisClass};
    use nwdp_topo::internet2;
    use nwdp_traffic::{generate_trace, TraceConfig, TrafficMatrix, VolumeModel};

    // The per-node reference comparison lives in tests/resilience.rs; here
    // the resilient schedule runs through the shared runner at 3 shards,
    // which the public entry point never does.
    #[test]
    fn sharded_resilient_schedule_matches_the_resilient_run() {
        let topo = internet2();
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::gravity(&topo);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let lp = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let manifest = generate_manifests(&dep, &solve_nids_lp(&dep, &lp).expect("lp solves").d);
        let trace = generate_trace(&topo, &tm, &TraceConfig::new(1200, 5));
        let hasher = KeyedHasher::with_key(0x5A4D);
        let schedule = FailureSchedule::random(dep.num_nodes, 4, 3);
        let cfg = ResilienceConfig {
            caps: &lp.caps,
            schedule: &schedule,
            health: HealthConfig::default(),
        };

        let res = run_coordinated_resilient(
            &dep,
            &manifest,
            &paths,
            &trace,
            Placement::EventEngine,
            hasher,
            &cfg,
        )
        .expect("resilient run");
        let n_total = trace.sessions.len() as f64;
        let bounds: Vec<u64> = res.epochs[1..]
            .iter()
            .map_while(|ep| trace.sessions.iter().find(|s| ep.from <= s.id as f64 / n_total))
            .map(|s| s.id)
            .collect();
        assert!(bounds.len() >= 2, "the schedule must swap manifests: {bounds:?}");
        let blind = |node: NodeId, s: &Session| {
            schedule.events.iter().any(|e| e.node == node && e.blind_at(s.id as f64 / n_total))
        };
        let sharded = run_epochs(
            "coordinated_resilient",
            &dep,
            Arc::new(res.epochs[0].manifest.clone()),
            &paths,
            || trace.sessions.iter().cloned(),
            Placement::EventEngine,
            hasher,
            3,
            &bounds,
            |k, _| Some(Arc::new(res.epochs[k].manifest.clone())),
            Some(&blind),
        )
        .expect("sharded run");

        assert_eq!(sharded.alerts, res.run.alerts);
        for (a, b) in sharded.per_node.iter().zip(&res.run.per_node) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "node {}", a.node.0);
        }
    }
}
