//! The coordinated replay loop behind the streaming, live-reload and
//! failure-resilient runs.
//!
//! The batch runner ([`run_coordinated`](crate::netwide::run_coordinated))
//! materializes the whole trace and replays one engine per node; it is the
//! oracle the equivalence suites compare against. `run_epochs` instead
//! pulls sessions on demand, shards each node's work across persistent
//! per-worker engines, and uses the batched §2.3 membership check
//! ([`Engine::process_session_fast`]) so traffic outside an engine's
//! manifest slice is charged without synthesizing packets. Between epochs
//! it may swap every engine to a new manifest; the three public runners
//! only supply that schedule.
//!
//! ## Why sharding preserves bit-identical results
//!
//! Sessions are assigned to shards by the keyed `BiSession` coordination
//! hash of their canonical tuple — the same orientation-invariant hash the
//! connection table keys on — so no two shards ever share a connection
//! record. Per-connection work is therefore identical to the batch run;
//! the only cross-shard state is the monotone per-host aggregates of Scan
//! and SYNFlood, which merge exactly (see
//! [`Analyzer`](crate::modules::Analyzer)`::absorb`). Shards merge in
//! ascending shard order per node, so the result is deterministic for any
//! worker count, and `tests/parallel_equivalence.rs` pins the merged
//! [`RunStats`](crate::engine::RunStats) bit-identical to the batch run.

use crate::engine::{CoordContext, Engine, Placement};
use crate::modules::EngineError;
use crate::netwide::{class_names, NetworkRun};
use crate::reload::ObservedMix;
use nwdp_core::nids::SamplingManifest;
use nwdp_core::{parallel, NidsDeployment};
use nwdp_hash::{FlowKeyKind, KeyedHasher};
use nwdp_obs::{self as obs, Histogram};
use nwdp_topo::{NodeId, PathDb};
use nwdp_traffic::Session;
use std::iter::Peekable;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Effective shard count for the streaming data plane: the `NWDP_SHARDS`
/// environment variable when set, else the parallel worker count (see
/// [`parallel::num_threads`]). Results are shard-count-invariant; the knob
/// only trades per-shard state size against merge work. An unparseable
/// value warns once on stderr (and bumps `config.invalid_env`) instead of
/// being silently ignored.
pub fn stream_shards() -> usize {
    parallel::env_count("NWDP_SHARDS").unwrap_or_else(parallel::num_threads)
}

/// Shard owning `session`: the keyed `BiSession` hash of its canonical
/// tuple scaled to `0..shards`. `BiSession` is orientation-invariant, so
/// every session sharing a connection-table record lands on one shard.
pub fn shard_of(hasher: &KeyedHasher, session: &Session, shards: usize) -> usize {
    let h = hasher.unit_hash(&session.tuple, FlowKeyKind::BiSession);
    // unit_hash < 1.0 strictly (u32 / 2^32); min guards the cast anyway.
    ((h * shards as f64) as usize).min(shards.saturating_sub(1))
}

/// Bucket bounds of the `engine.stream.pkt_ns` per-packet latency
/// histogram: geometric from 20 ns spanning into the tens of milliseconds.
/// Public so the throughput bench fetches the identical histogram.
pub fn pkt_latency_bounds() -> Vec<f64> {
    Histogram::exponential_bounds(20.0, 1.7, 28)
}

/// Run the coordinated deployment as a streaming data plane.
///
/// `source` is called once per (node, shard) worker and must return a
/// fresh session iterator over the same sequence each time (e.g. a closure
/// building a [`nwdp_traffic::SessionStream`]); workers filter it down to
/// their on-path, shard-owned slice. Produces a [`NetworkRun`]
/// bit-identical to `run_coordinated` over the materialized trace on the
/// same seed, for any thread or shard count.
///
/// When metrics are enabled, per-session wall time is recorded into the
/// `engine.stream.pkt_ns` histogram (normalized per packet) — the clock
/// reads make that pass slower, so throughput timing runs with metrics
/// off. Spans `engine.stream` / `engine.stream_shard` journal the fan-out
/// for `repro report`'s shard utilization table.
pub fn run_coordinated_stream<I, S>(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    paths: &PathDb,
    source: S,
    placement: Placement,
    hasher: KeyedHasher,
    shards: usize,
) -> Result<NetworkRun, EngineError>
where
    I: Iterator<Item = Session> + Send,
    S: Fn() -> I,
{
    assert_ne!(placement, Placement::Unmodified, "streaming run needs a coordinated placement");
    let _span = obs::span!("engine.stream", nodes = dep.num_nodes, shards = shards.max(1));
    run_epochs(
        "stream",
        dep,
        Arc::new(manifest.clone()),
        paths,
        source,
        placement,
        hasher,
        shards,
        &[],
        |_, _| None,
        None,
    )
}

/// `blind(node, session)`: the node cannot see the session (it is down).
type Blind<'b> = dyn Fn(NodeId, &Session) -> bool + Sync + 'b;

/// One (node, shard) worker: its position in the source and its engine,
/// built on the worker thread in the first epoch.
struct Worker<'a, I: Iterator<Item = Session>> {
    it: Peekable<I>,
    engine: Option<Engine<'a>>,
}

/// The coordinated replay loop. Each (node, shard) worker keeps its
/// engine and its `source()` iterator across epochs; epoch `e` replays
/// the ids below `bounds[e]` (the last epoch drains the source) that lie
/// on the node's path, belong to the shard and are not `blind(node, _)`.
/// After every epoch but the last, `on_boundary(e + 1, mix)` gets the
/// epoch's merged [`ObservedMix`]; a manifest it returns goes live on
/// every engine. Shards then fold into shard 0 in ascending order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_epochs<I, S>(
    mode: &str,
    dep: &NidsDeployment,
    manifest: Arc<SamplingManifest>,
    paths: &PathDb,
    source: S,
    placement: Placement,
    hasher: KeyedHasher,
    shards: usize,
    bounds: &[u64],
    mut on_boundary: impl FnMut(usize, &ObservedMix) -> Option<Arc<SamplingManifest>>,
    blind: Option<&Blind<'_>>,
) -> Result<NetworkRun, EngineError>
where
    I: Iterator<Item = Session> + Send,
    S: Fn() -> I,
{
    let shards = shards.max(1);
    let names = class_names(dep);
    let lat = obs::enabled().then(|| obs::histogram("engine.stream.pkt_ns", &pkt_latency_bounds()));
    let cells: Vec<Mutex<Worker<'_, I>>> = (0..dep.num_nodes * shards)
        .map(|_| Mutex::new(Worker { it: source().peekable(), engine: None }))
        .collect();
    // A worker that panics holding its cell unwinds this whole run out of
    // the fan-out, so a poisoned cell is never read again.
    let lock = |i: usize| cells[i].lock().unwrap_or_else(PoisonError::into_inner);

    for e in 0..=bounds.len() {
        let hi = bounds.get(e).copied().unwrap_or(u64::MAX);
        let observe = e < bounds.len();
        let mixes = parallel::par_map_n(cells.len(), |i| {
            let (node, shard) = (NodeId(i / shards), i % shards);
            let _span = obs::span!("engine.stream_shard", node = node.0, shard = shard);
            let mut worker = lock(i);
            let Worker { it, engine } = &mut *worker;
            let engine = match engine {
                Some(engine) => engine,
                None => {
                    let coord = CoordContext::with_shared(dep, manifest.clone());
                    engine.insert(Engine::new(node, placement, &names, Some(coord), hasher)?)
                }
            };
            let mut mix = ObservedMix::default();
            while let Some(session) = it.next_if(|s| s.id < hi) {
                if paths.path(session.src_node, session.dst_node).position(node).is_none()
                    || (shards > 1 && shard_of(&hasher, &session, shards) != shard)
                    || blind.is_some_and(|blind| blind(node, &session))
                {
                    continue;
                }
                // Count the mix once per session: at its ingress node, on
                // the shard that owns it.
                if observe && node == session.src_node {
                    mix.record(session.src_node, session.dst_node, session.packet_count() as u64);
                }
                let t0 = lat.is_some().then(Instant::now);
                engine.process_session_fast(&session);
                if let (Some(lat), Some(t0)) = (&lat, t0) {
                    lat.observe(
                        t0.elapsed().as_nanos() as f64 / session.packet_count().max(1) as f64,
                    );
                }
            }
            Ok(mix)
        })
        .into_iter()
        .collect::<Result<Vec<_>, EngineError>>()?;

        if !observe {
            break;
        }
        let mut observed = ObservedMix::default();
        for m in &mixes {
            observed.merge(m);
        }
        if let Some(next) = on_boundary(e + 1, &observed) {
            for i in 0..cells.len() {
                if let Some(engine) = lock(i).engine.as_mut() {
                    engine.set_manifest(next.clone())?;
                }
            }
        }
    }

    let mut engines = cells
        .into_iter()
        .map(|cell| cell.into_inner().unwrap_or_else(PoisonError::into_inner).engine);
    let mut per_node = Vec::with_capacity(dep.num_nodes);
    for _ in 0..dep.num_nodes {
        let mut row = engines.by_ref().take(shards).flatten();
        let Some(mut merged) = row.next() else {
            unreachable!("every worker builds its engine in the first epoch");
        };
        for shard in row {
            merged.absorb_shard(shard);
        }
        per_node.push(merged.stats());
    }
    Ok(NetworkRun::collect(mode, per_node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwdp_core::nids::{generate_manifests, solve_nids_lp, NidsLpConfig, NodeCaps};
    use nwdp_core::{build_units, AnalysisClass};
    use nwdp_topo::internet2;
    use nwdp_traffic::{SessionStream, TraceConfig, TrafficMatrix, VolumeModel};

    // The full streaming-vs-batch bit-identity suite lives in
    // tests/parallel_equivalence.rs (it needs the LP crate); here we pin
    // the shard assignment itself.
    #[test]
    fn shard_assignment_is_orientation_invariant_and_in_range() {
        let topo = internet2();
        let tm = TrafficMatrix::gravity(&topo);
        let cfg = TraceConfig::new(2000, 21);
        let hasher = KeyedHasher::with_key(5);
        for shards in [1usize, 2, 7] {
            for mut s in SessionStream::new(&topo, &tm, &cfg) {
                let fwd = shard_of(&hasher, &s, shards);
                assert!(fwd < shards);
                s.tuple = s.tuple.reversed();
                assert_eq!(fwd, shard_of(&hasher, &s, shards), "BiSession must ignore direction");
            }
        }
    }

    #[test]
    fn merged_shards_cover_every_session_once() {
        let topo = internet2();
        let paths = nwdp_topo::PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::gravity(&topo);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let lp = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let assignment = solve_nids_lp(&dep, &lp).expect("lp solves");
        let manifest = generate_manifests(&dep, &assignment.d);
        let cfg = TraceConfig::new(1500, 17);
        let hasher = KeyedHasher::with_key(5);
        let trace = nwdp_traffic::generate_trace(&topo, &tm, &cfg);

        let one = run_coordinated_stream(
            &dep,
            &manifest,
            &paths,
            || SessionStream::new(&topo, &tm, &cfg),
            Placement::EventEngine,
            hasher,
            1,
        )
        .expect("stream runs");
        let four = run_coordinated_stream(
            &dep,
            &manifest,
            &paths,
            || SessionStream::new(&topo, &tm, &cfg),
            Placement::EventEngine,
            hasher,
            4,
        )
        .expect("stream runs");
        assert_eq!(one.alerts, four.alerts);
        for (a, b, node) in one.per_node.iter().zip(&four.per_node).map(|(a, b)| (a, b, a.node.0)) {
            assert_eq!(a.packets, b.packets, "node {node}");
            // Each node sees exactly its on-path packets regardless of
            // shard count.
            let expect: u64 =
                trace.onpath_sessions(&paths, a.node).map(|s| s.packet_count() as u64).sum();
            assert_eq!(a.packets, expect, "node {node}");
            assert_eq!(a.connections, b.connections, "node {node}");
            assert_eq!(a.cpu_cycles, b.cpu_cycles, "node {node}");
            assert_eq!(a.mem_peak, b.mem_peak, "node {node}");
        }
    }
}
