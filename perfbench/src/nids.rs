//! The NIDS deployment shared by the `steady` and `mixshift` workloads:
//! Internet2, the 9 standard analysis classes, gravity mix, baseline
//! volume, homogeneous node capacities, and the cold LP manifest.

use crate::report::Report;
use crate::spans::{Leaf, Recorder};
use nwdp_core::nids::{
    generate_manifests, solve_nids_lp, NidsLpConfig, NodeCaps, SamplingManifest,
};
use nwdp_core::{build_units, AnalysisClass, NidsDeployment};
use nwdp_engine::{shard_of, Engine, NetworkRun, RunStats};
use nwdp_hash::KeyedHasher;
use nwdp_topo::{internet2, NodeId, PathDb, Topology};
use nwdp_traffic::{Session, TrafficMatrix, VolumeModel};
use std::time::Instant;

/// Per-node capacities of the NIDS evaluation (the repository's default).
pub const CAPS: NodeCaps = NodeCaps { cpu: 2.0e8, mem: 4.0e9 };

/// Set-ups per run (each ≈ 1.5 s, mostly the cold LP); `setup_s` is
/// their median.
pub const SETUP_REPS: usize = 3;

/// Key of the coordination hash every engine shares.
pub const HASH_KEY: u64 = 5;

pub struct Nids {
    pub topo: Topology,
    pub paths: PathDb,
    pub tm: TrafficMatrix,
    pub dep: NidsDeployment,
    pub manifest: SamplingManifest,
    pub lp_iterations: usize,
}

impl Nids {
    pub fn hasher(&self) -> KeyedHasher {
        KeyedHasher::with_key(HASH_KEY)
    }
}

/// Run `f`, inside a span named `name` under `parent` when tracing.
fn timed<R>(
    rec: Option<&Recorder>,
    parent: Option<u32>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(rec) => rec.time(name, parent, f),
        None => f(),
    }
}

/// Build the deployment and its cold LP manifest. With a recorder, each
/// step is a span under `parent`.
pub fn setup(rec: Option<&Recorder>, parent: Option<u32>) -> Nids {
    let (topo, paths, tm, vol) = timed(rec, parent, "topo.routing", || {
        let topo = internet2();
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::gravity(&topo);
        (topo, paths, tm, VolumeModel::internet2_baseline())
    });
    let dep = timed(rec, parent, "core.build_units", || {
        build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set())
    });
    let assignment = timed(rec, parent, "nids.solve_lp", || {
        solve_nids_lp(&dep, &NidsLpConfig::homogeneous(dep.num_nodes, CAPS))
            .expect("the standard Internet2 NIDS LP is feasible")
    });
    let manifest =
        timed(rec, parent, "nids.generate_manifests", || generate_manifests(&dep, &assignment.d));
    Nids { topo, paths, tm, dep, manifest, lp_iterations: assignment.lp_iterations }
}

/// First difference between two per-node stats, if any.
fn stats_diff(a: &RunStats, b: &RunStats) -> Option<String> {
    let n = a.node.0;
    let fields: [(&str, bool); 10] = [
        ("node", a.node == b.node),
        ("cpu_cycles", a.cpu_cycles == b.cpu_cycles),
        ("mem_peak", a.mem_peak == b.mem_peak),
        ("packets", a.packets == b.packets),
        ("connections", a.connections == b.connections),
        ("fastpath_skipped", a.fastpath_skipped == b.fastpath_skipped),
        ("range_checks", a.range_checks == b.range_checks),
        ("range_hits", a.range_hits == b.range_hits),
        ("per_module_cpu", a.per_module_cpu == b.per_module_cpu),
        ("alerts", a.alerts == b.alerts),
    ];
    fields.iter().find(|(_, same)| !same).map(|(f, _)| format!("node {n}: {f} differs"))
}

/// `Ok` when two network runs agree on every per-node stat and alert.
pub fn same_run(what: &str, a: &NetworkRun, b: &NetworkRun) -> Result<(), String> {
    if a.per_node.len() != b.per_node.len() {
        return Err(format!("{what}: {} vs {} nodes", a.per_node.len(), b.per_node.len()));
    }
    if let Some(d) = a.per_node.iter().zip(&b.per_node).find_map(|(x, y)| stats_diff(x, y)) {
        return Err(format!("{what}: {d}"));
    }
    if a.alerts != b.alerts {
        return Err(format!("{what}: alert sets differ"));
    }
    Ok(())
}

/// Mean ÷ max of per-node CPU cycles: how evenly the delivered load
/// spreads (1 = perfectly balanced). The LP minimizes the maximum node
/// load, so this is its objective as the data plane delivers it.
pub fn load_balance(run: &NetworkRun) -> f64 {
    let cycles: Vec<f64> = run.per_node.iter().map(|s| s.cpu_cycles as f64).collect();
    let max = cycles.iter().copied().fold(0.0, f64::max);
    let mean = cycles.iter().sum::<f64>() / cycles.len().max(1) as f64;
    if max > 0.0 {
        mean / max
    } else {
        0.0
    }
}

/// Maximum over nodes of `RunStats::cpu_cycles`, in Gcycles.
pub fn max_node_gcycles(run: &NetworkRun) -> f64 {
    run.per_node.iter().map(|s| s.cpu_cycles).max().unwrap_or(0) as f64 / 1e9
}

/// What traced data-plane workers saw: stream pulls, on-path sessions,
/// and the time of every engine visit.
#[derive(Default)]
pub struct Visits {
    pub pulled: u64,
    pub onpath: u64,
    pub ns: Vec<u32>,
}

impl Visits {
    pub fn absorb(&mut self, other: Visits) {
        self.pulled += other.pulled;
        self.onpath += other.onpath;
        self.ns.extend(other.ns);
    }

    /// `traffic.sessions_generated`, `route.onpath_visits` and
    /// `engine.visit.*` (median and p99 of per-visit time, with the count).
    pub fn report(&self, rep: &mut Report) {
        rep.metric("traffic.sessions_generated", self.pulled as f64, "count");
        rep.metric("route.onpath_visits", self.onpath as f64, "count");
        let ns: Vec<f64> = self.ns.iter().map(|&x| f64::from(x)).collect();
        rep.metric("engine.visit.count", ns.len() as f64, "count");
        rep.median("engine.visit.p50_ns", &ns, "ns");
        if let Some(p99) = crate::stats::percentile(&ns, 99.0) {
            rep.metric("engine.visit.p99_ns", p99, "ns");
        }
    }
}

/// One (node, shard) worker of a streaming run, replayed with a leaf
/// around every call into a layer: pull a session from `next`, keep it if
/// `node` is on its path and the shard owns it, show it to `owned`, and
/// feed it to `engine`. The whole loop is one `engine.worker` span under
/// `fan`.
pub fn traced_worker(
    rec: &Recorder,
    fan: u32,
    n: &Nids,
    (node, shard, shards): (NodeId, usize, usize),
    engine: &mut Engine<'_>,
    mut next: impl FnMut() -> Option<Session>,
    mut owned: impl FnMut(&Session),
) -> Visits {
    let open = rec.start("engine.worker", Some(fan));
    let hasher = n.hasher();
    let mut v = Visits::default();
    let (mut next_ns, mut filter_ns, mut shard_ns, mut visit_ns) = (0u64, 0u64, 0u64, 0u64);
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    let mut last = Instant::now();
    loop {
        let s = next();
        let t1 = Instant::now();
        next_ns += ns(last, t1);
        let Some(s) = s else { break };
        v.pulled += 1;
        let on = n.paths.path(s.src_node, s.dst_node).position(node).is_some();
        let t2 = Instant::now();
        filter_ns += ns(t1, t2);
        last = t2;
        if !on {
            continue;
        }
        v.onpath += 1;
        let mine = shard_of(&hasher, &s, shards) == shard;
        let t3 = Instant::now();
        shard_ns += ns(t2, t3);
        last = t3;
        if !mine {
            continue;
        }
        owned(&s);
        let t3 = Instant::now();
        engine.process_session_fast(&s);
        let t4 = Instant::now();
        visit_ns += ns(t3, t4);
        v.ns.push(ns(t3, t4).min(u64::from(u32::MAX)) as u32);
        last = t4;
    }
    let leaves = vec![
        Leaf { name: "traffic.stream_next", count: v.pulled + 1, total_ns: next_ns },
        Leaf { name: "route.filter", count: v.pulled, total_ns: filter_ns },
        Leaf { name: "route.shard_of", count: v.onpath, total_ns: shard_ns },
        Leaf { name: "engine.visit", count: v.ns.len() as u64, total_ns: visit_ns },
    ];
    rec.end_with(open, leaves);
    v
}

/// Merge each node's shard engines in ascending shard order and read
/// their stats, as the streaming runners do, with a span per call.
pub fn traced_merge<'a>(
    rec: &Recorder,
    parent: Option<u32>,
    rows: impl IntoIterator<Item = Vec<Engine<'a>>>,
) -> NetworkRun {
    let mut per_node = Vec::new();
    for row in rows {
        let mut engines = row.into_iter();
        let mut merged = engines.next().expect("at least one shard per node");
        for shard in engines {
            rec.time("engine.absorb_shard", parent, || merged.absorb_shard(shard));
        }
        per_node.push(rec.time("engine.stats", parent, || merged.stats()));
    }
    let alerts = per_node.iter().flat_map(|s| s.alerts.iter().cloned()).collect();
    NetworkRun { per_node, alerts }
}
