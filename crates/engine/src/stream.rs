//! The coordinated replay loop behind the streaming, live-reload and
//! failure-resilient runs.
//!
//! The batch runner ([`run_coordinated`](crate::netwide::run_coordinated))
//! materializes the whole trace and replays one engine per node; it is the
//! oracle the equivalence suites compare against. `run_epochs` instead
//! pulls sessions on demand from one source per run, routes each session
//! once (its shard, the on-path nodes that can see it), and hands every
//! (node, shard) engine only its own slice. The engines live on persistent
//! worker threads for the whole run and use the batched §2.3 membership
//! check ([`Engine::process_session_fast`]) so traffic outside an engine's
//! manifest slice is charged without synthesizing packets. Between epochs
//! every engine may swap to a new manifest; the three public runners only
//! supply that schedule.
//!
//! ## Why sharding preserves bit-identical results
//!
//! Sessions are assigned to shards by the keyed `BiSession` coordination
//! hash of their canonical tuple — the same orientation-invariant hash the
//! connection table keys on — so no two shards ever share a connection
//! record. Per-connection work is therefore identical to the batch run;
//! the only cross-shard state is the monotone per-host aggregates of Scan
//! and SYNFlood, which merge exactly (see
//! [`Analyzer`](crate::modules::Analyzer)`::absorb`). Every engine replays
//! its slices in session-id order, chunk after chunk, and applies a
//! manifest swap between the same two sessions as the batch run. Shards
//! merge in ascending shard order per node, so the result is deterministic
//! for any worker count, and `tests/parallel_equivalence.rs` pins the
//! merged [`RunStats`](crate::engine::RunStats) bit-identical to the batch
//! run.

use crate::engine::{CoordContext, Engine, Placement};
use crate::modules::EngineError;
use crate::netwide::{class_names, NetworkRun};
use crate::reload::ObservedMix;
use nwdp_core::nids::SamplingManifest;
use nwdp_core::{parallel, NidsDeployment};
use nwdp_hash::{FlowKeyKind, KeyedHasher};
use nwdp_obs::{self as obs, Counter, Histogram};
use nwdp_topo::{NodeId, PathDb};
use nwdp_traffic::Session;
use std::sync::mpsc;
use std::sync::Arc;
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
    let h = hasher.hash32(&session.tuple, FlowKeyKind::BiSession);
    ((u64::from(h) * shards as u64) >> 32) as usize
}

/// Bucket bounds of the `engine.stream.pkt_ns` per-packet latency
/// histogram: geometric from 20 ns spanning into the tens of milliseconds.
/// Public so the throughput bench fetches the identical histogram.
pub fn pkt_latency_bounds() -> Vec<f64> {
    Histogram::exponential_bounds(20.0, 1.7, 28)
}

/// Run the coordinated deployment as a streaming data plane.
///
/// `source` is called once and returns the session iterator (e.g. a
/// closure building a [`nwdp_traffic::SessionStream`]); the run routes
/// each session to the (node, shard) engines on its path. Produces a
/// [`NetworkRun`] bit-identical to `run_coordinated` over the
/// materialized trace on the same seed, for any thread or shard count.
///
/// When metrics are enabled, per-session wall time is recorded into the
/// `engine.stream.pkt_ns` histogram (normalized per packet) — the clock
/// reads make that pass slower, so throughput timing runs with metrics
/// off — and the counters `engine.stream.sessions` (sessions pulled from
/// the source) and `engine.stream.visits` (sessions handed to an engine)
/// are kept. Spans `engine.stream` / `engine.stream_shard` (one per
/// worker and chunk) journal the fan-out for `repro report`'s shard
/// utilization table.
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
    I: Iterator<Item = Session>,
    S: FnOnce() -> I,
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
type Blind<'b> = dyn Fn(NodeId, &Session) -> bool + 'b;

/// Sessions pulled from the source and routed per step of the loop. A
/// constant, so the work split never depends on the thread count.
const CHUNK: usize = 4096;

/// Steps queued per worker thread ahead of the one it is running: enough
/// that routing the next chunk overlaps the replay of this one.
const QUEUE: usize = 2;

/// One routed chunk: sessions in id order, and for every (node, shard)
/// worker the positions of the sessions it replays, ascending.
struct Chunk {
    sessions: Vec<Session>,
    slices: Vec<Vec<u32>>,
}

/// What every engine does next, in the same order on every thread.
#[derive(Clone)]
enum Step {
    Replay(Arc<Chunk>),
    Swap(Arc<SamplingManifest>),
}

/// Everything a worker needs to build and drive its engines.
struct Fleet<'a> {
    dep: &'a NidsDeployment,
    manifest: Arc<SamplingManifest>,
    names: Vec<String>,
    placement: Placement,
    hasher: KeyedHasher,
    shards: usize,
    lat: Option<Arc<Histogram>>,
}

/// The engines of a set of (node, shard) workers, built and driven by
/// one thread for the whole run.
struct Crew<'a> {
    cells: Vec<usize>,
    engines: Vec<Engine<'a>>,
}

impl<'a> Crew<'a> {
    fn new(cells: Vec<usize>, fleet: &Fleet<'a>) -> Result<Self, EngineError> {
        let engines = cells
            .iter()
            .map(|&i| {
                let coord = CoordContext::with_shared(fleet.dep, fleet.manifest.clone());
                let node = NodeId(i / fleet.shards);
                Engine::new(node, fleet.placement, &fleet.names, Some(coord), fleet.hasher)
            })
            .collect::<Result<_, _>>()?;
        Ok(Crew { cells, engines })
    }

    fn apply(&mut self, step: &Step, fleet: &Fleet<'_>) -> Result<(), EngineError> {
        match step {
            Step::Replay(chunk) => {
                for (&i, engine) in self.cells.iter().zip(&mut self.engines) {
                    let (node, shard) = (i / fleet.shards, i % fleet.shards);
                    let _span = obs::span!("engine.stream_shard", node = node, shard = shard);
                    for &k in &chunk.slices[i] {
                        let session = &chunk.sessions[k as usize];
                        let t0 = fleet.lat.is_some().then(Instant::now);
                        engine.process_session_fast(session);
                        if let (Some(lat), Some(t0)) = (&fleet.lat, t0) {
                            let per_pkt = session.packet_count().max(1) as f64;
                            lat.observe(t0.elapsed().as_nanos() as f64 / per_pkt);
                        }
                    }
                }
            }
            Step::Swap(next) => {
                for engine in &mut self.engines {
                    engine.set_manifest(next.clone())?;
                }
            }
        }
        Ok(())
    }
}

/// Routes every session once: its shard, then the on-path nodes that can
/// see it.
struct Router<'r> {
    paths: &'r PathDb,
    hasher: KeyedHasher,
    nodes: usize,
    shards: usize,
    blind: Option<&'r Blind<'r>>,
    /// `engine.stream.sessions` and `engine.stream.visits`, when metrics
    /// are on.
    counts: Option<(Arc<Counter>, Arc<Counter>)>,
}

impl Router<'_> {
    /// Split `sessions` into per-worker slices, counting each one's mix
    /// once, at its ingress node, into `mix`.
    fn route(&self, sessions: Vec<Session>, mut mix: Option<&mut ObservedMix>) -> Chunk {
        let mut slices = vec![Vec::new(); self.nodes * self.shards];
        for (k, s) in sessions.iter().enumerate() {
            let shard = if self.shards > 1 { shard_of(&self.hasher, s, self.shards) } else { 0 };
            for &node in &self.paths.path(s.src_node, s.dst_node).nodes {
                if node.index() >= self.nodes || self.blind.is_some_and(|blind| blind(node, s)) {
                    continue;
                }
                if node == s.src_node {
                    if let Some(mix) = mix.as_deref_mut() {
                        mix.record(s.src_node, s.dst_node, s.packet_count() as u64);
                    }
                }
                slices[node.index() * self.shards + shard].push(k as u32);
            }
        }
        if let Some((pulled, visits)) = &self.counts {
            pulled.add(sessions.len() as u64);
            visits.add(slices.iter().map(|s| s.len() as u64).sum());
        }
        Chunk { sessions, slices }
    }
}

/// Pull the source chunk by chunk, route each chunk and hand it to
/// `deliver`; at every epoch bound, hand `on_boundary`'s manifest (if
/// any) to `deliver` as well. Stops early when `deliver` returns `false`.
fn feed(
    source: impl Iterator<Item = Session>,
    router: &Router<'_>,
    bounds: &[u64],
    on_boundary: &mut impl FnMut(usize, &ObservedMix) -> Option<Arc<SamplingManifest>>,
    mut deliver: impl FnMut(Step) -> bool,
) {
    let mut source = source.peekable();
    for e in 0..=bounds.len() {
        let hi = bounds.get(e).copied().unwrap_or(u64::MAX);
        let observe = e < bounds.len();
        let mut mix = ObservedMix::default();
        loop {
            let sessions: Vec<Session> =
                std::iter::from_fn(|| source.next_if(|s| s.id < hi)).take(CHUNK).collect();
            if sessions.is_empty() {
                break;
            }
            let chunk = router.route(sessions, observe.then_some(&mut mix));
            if !deliver(Step::Replay(Arc::new(chunk))) {
                return;
            }
        }
        if !observe {
            return;
        }
        if let Some(next) = on_boundary(e + 1, &mix) {
            if !deliver(Step::Swap(next)) {
                return;
            }
        }
    }
}

/// The coordinated replay loop. `source()` is called once; epoch `e`
/// replays the ids below `bounds[e]` (the last epoch drains the source).
/// Each session goes to the (node, shard) workers of the nodes on its
/// path that are not `blind(node, _)`. After every epoch but the last,
/// `on_boundary(e + 1, mix)` gets the epoch's [`ObservedMix`]; a manifest
/// it returns goes live on every engine before the next epoch's first
/// session. Shards then fold into shard 0 in ascending order.
///
/// Thread `t` of `n` runs every `n`-th worker from `t` — with as many
/// shards as threads, one shard of every node, which the coordination
/// hash splits evenly. Each thread builds its engines and keeps them
/// until the run ends, and the calling thread routes the next chunk
/// while the workers replay the current one. With one thread the calling
/// thread does everything.
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
    I: Iterator<Item = Session>,
    S: FnOnce() -> I,
{
    let shards = shards.max(1);
    let metrics = obs::enabled();
    let fleet = Fleet {
        dep,
        manifest,
        names: class_names(dep),
        placement,
        hasher,
        shards,
        lat: metrics.then(|| obs::histogram("engine.stream.pkt_ns", &pkt_latency_bounds())),
    };
    let router = Router {
        paths,
        hasher,
        nodes: dep.num_nodes,
        shards,
        blind,
        counts: metrics.then(|| {
            (obs::counter("engine.stream.sessions"), obs::counter("engine.stream.visits"))
        }),
    };
    let cells = dep.num_nodes * shards;
    let threads = parallel::num_threads().min(cells);

    let engines = if threads <= 1 {
        let mut crew = Crew::new((0..cells).collect(), &fleet)?;
        let mut failed = Ok(());
        feed(source(), &router, bounds, &mut on_boundary, |step| {
            failed = crew.apply(&step, &fleet);
            failed.is_ok()
        });
        failed?;
        crew.engines
    } else {
        // Captured before the spawn so workers record into the caller's
        // recorder and their spans nest under the caller's open span.
        let recorder = &obs::current();
        let parent = obs::current_span_id();
        let fleet = &fleet;
        std::thread::scope(|scope| {
            let (queues, handles): (Vec<_>, Vec<_>) = (0..threads)
                .map(|t| {
                    let (tx, rx) = mpsc::sync_channel::<Step>(QUEUE);
                    let handle = scope.spawn(move || {
                        obs::scoped(recorder, || {
                            let _span =
                                obs::span_under(parent, "engine.stream_worker", &[("t", t.into())]);
                            let mut crew = Crew::new((t..cells).step_by(threads).collect(), fleet)?;
                            for step in rx {
                                crew.apply(&step, fleet)?;
                            }
                            Ok(crew)
                        })
                    });
                    (tx, handle)
                })
                .unzip();
            // A worker that stopped (an engine error or a panic) dropped
            // its queue; the send fails and feeding ends. The join below
            // surfaces why, lowest worker first.
            feed(source(), &router, bounds, &mut on_boundary, |step| {
                queues.iter().all(|q| q.send(step.clone()).is_ok())
            });
            drop(queues);
            let mut engines = Vec::with_capacity(cells);
            let mut failed = Ok(());
            for handle in handles {
                match handle.join() {
                    Ok(Ok(crew)) => engines.extend(crew.cells.into_iter().zip(crew.engines)),
                    Ok(Err(e)) => failed = failed.and(Err(e)),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            engines.sort_unstable_by_key(|&(i, _)| i);
            failed.map(|()| engines.into_iter().map(|(_, engine)| engine).collect())
        })?
    };

    let mut engines = engines.into_iter();
    let mut per_node = Vec::with_capacity(dep.num_nodes);
    for _ in 0..dep.num_nodes {
        let mut row = engines.by_ref().take(shards);
        let Some(mut merged) = row.next() else {
            unreachable!("every worker builds its engine before the first chunk");
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
    use crate::engine::RunStats;
    use crate::netwide::{plan_manifest_epochs, run_coordinated, ResilienceConfig};
    use crate::reload::{
        run_coordinated_stream_reload, ReloadConfig, ReloadController, ReloadOutcome, Sabotage,
    };
    use nwdp_core::nids::{generate_manifests, solve_nids_lp, NidsLpConfig, NodeCaps};
    use nwdp_core::resilience::{FailureSchedule, HealthConfig};
    use nwdp_core::{build_units, AnalysisClass};
    use nwdp_topo::{internet2, Topology};
    use nwdp_traffic::{
        generate_trace, NetTrace, SessionStream, TraceConfig, TrafficMatrix, VolumeModel,
    };
    use std::cell::Cell;

    /// Sessions of the multi-chunk runs: three full chunks and a partial
    /// fourth.
    const LONG: usize = 3 * CHUNK + 17;

    struct Setup {
        topo: Topology,
        paths: PathDb,
        tm: TrafficMatrix,
        dep: NidsDeployment,
        caps: Vec<NodeCaps>,
        manifest: SamplingManifest,
    }

    fn setup() -> Setup {
        let topo = internet2();
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::gravity(&topo);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let lp = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let manifest = generate_manifests(&dep, &solve_nids_lp(&dep, &lp).expect("lp solves").d);
        Setup { topo, paths, tm, dep, caps: lp.caps, manifest }
    }

    fn assert_same_nodes(got: &[RunStats], want: &[RunStats], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (a, b) in got.iter().zip(want) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: node {}", a.node.0);
        }
    }

    /// Public-API reference for `run_epochs` at one shard: one engine per
    /// node fed, in id order, every on-path session it can see; at each
    /// bound the epoch's mix (counted once per session, at its ingress
    /// node) goes to `on_boundary`, whose manifest every engine swaps to.
    fn reference(
        s: &Setup,
        trace: &NetTrace,
        hasher: KeyedHasher,
        bounds: &[u64],
        mut on_boundary: impl FnMut(usize, &ObservedMix) -> Option<Arc<SamplingManifest>>,
        blind: impl Fn(NodeId, &Session) -> bool,
    ) -> Vec<RunStats> {
        let names = class_names(&s.dep);
        let mut engines: Vec<Engine<'_>> = (0..s.dep.num_nodes)
            .map(|j| {
                let coord = CoordContext::new(&s.dep, &s.manifest);
                Engine::new(NodeId(j), Placement::EventEngine, &names, Some(coord), hasher)
                    .expect("standard classes")
            })
            .collect();
        let (mut epoch, mut mix) = (0, ObservedMix::default());
        for session in &trace.sessions {
            while bounds.get(epoch).is_some_and(|&b| session.id >= b) {
                epoch += 1;
                if let Some(next) = on_boundary(epoch, &std::mem::take(&mut mix)) {
                    for engine in &mut engines {
                        engine.set_manifest(next.clone()).expect("coordinated engine");
                    }
                }
            }
            for &node in &s.paths.path(session.src_node, session.dst_node).nodes {
                if blind(node, session) {
                    continue;
                }
                if node == session.src_node {
                    mix.record(node, session.dst_node, session.packet_count() as u64);
                }
                engines[node.index()].process_session(session);
            }
        }
        engines.iter().map(Engine::stats).collect()
    }

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
        let s = setup();
        let cfg = TraceConfig::new(1500, 17);
        let hasher = KeyedHasher::with_key(5);
        let trace = generate_trace(&s.topo, &s.tm, &cfg);
        let stream = |shards| {
            run_coordinated_stream(
                &s.dep,
                &s.manifest,
                &s.paths,
                || SessionStream::new(&s.topo, &s.tm, &cfg),
                Placement::EventEngine,
                hasher,
                shards,
            )
            .expect("stream runs")
        };
        let (one, four) = (stream(1), stream(4));
        assert_eq!(one.alerts, four.alerts);
        for (a, b, node) in one.per_node.iter().zip(&four.per_node).map(|(a, b)| (a, b, a.node.0)) {
            assert_eq!(a.packets, b.packets, "node {node}");
            // Each node sees exactly its on-path packets regardless of
            // shard count.
            let expect: u64 =
                trace.onpath_sessions(&s.paths, a.node).map(|s| s.packet_count() as u64).sum();
            assert_eq!(a.packets, expect, "node {node}");
            assert_eq!(a.connections, b.connections, "node {node}");
            assert_eq!(a.cpu_cycles, b.cpu_cycles, "node {node}");
            assert_eq!(a.mem_peak, b.mem_peak, "node {node}");
        }
    }

    #[test]
    fn multi_chunk_stream_matches_batch_at_every_shard_count() {
        let s = setup();
        let trace = generate_trace(&s.topo, &s.tm, &TraceConfig::new(LONG, 29));
        let hasher = KeyedHasher::with_key(7);
        let batch =
            run_coordinated(&s.dep, &s.manifest, &s.paths, &trace, Placement::EventEngine, hasher)
                .expect("batch runs");
        for (shards, threads) in [(1, 1), (2, 2), (3, 2), (3, 1)] {
            let run = parallel::with_threads(threads, || {
                run_coordinated_stream(
                    &s.dep,
                    &s.manifest,
                    &s.paths,
                    || trace.sessions.iter().cloned(),
                    Placement::EventEngine,
                    hasher,
                    shards,
                )
            })
            .expect("stream runs");
            let what = format!("shards {shards}, threads {threads}");
            assert_eq!(run.alerts, batch.alerts, "{what}");
            assert_same_nodes(&run.per_node, &batch.per_node, &what);
        }
    }

    #[test]
    fn source_is_called_once_and_each_session_pulled_once() {
        let s = setup();
        let trace = generate_trace(&s.topo, &s.tm, &TraceConfig::new(LONG, 31));
        let hasher = KeyedHasher::with_key(7);
        for threads in [1, 2] {
            let rec = obs::Recorder::new();
            let (calls, pulled) = (Cell::new(0), Cell::new(0u64));
            obs::scoped(&rec, || {
                obs::set_enabled(true);
                parallel::with_threads(threads, || {
                    run_coordinated_stream(
                        &s.dep,
                        &s.manifest,
                        &s.paths,
                        || {
                            calls.set(calls.get() + 1);
                            // `Cell` makes this iterator `!Send`: it never
                            // leaves the calling thread.
                            trace.sessions.iter().inspect(|_| pulled.set(pulled.get() + 1)).cloned()
                        },
                        Placement::EventEngine,
                        hasher,
                        2,
                    )
                })
                .expect("stream runs");
                assert_eq!(calls.get(), 1, "threads {threads}");
                assert_eq!(pulled.get(), LONG as u64, "threads {threads}");
                assert_eq!(obs::counter("engine.stream.sessions").get(), LONG as u64);
                let onpath: usize = (0..s.dep.num_nodes)
                    .map(|j| trace.onpath_sessions(&s.paths, NodeId(j)).count())
                    .sum();
                assert_eq!(obs::counter("engine.stream.visits").get(), onpath as u64);
            });
        }
    }

    #[test]
    fn reload_bounds_inside_chunks_match_the_reference() {
        let s = setup();
        let trace = generate_trace(&s.topo, &s.tm, &TraceConfig::new(LONG, 37));
        let hasher = KeyedHasher::with_key(7);
        // Bounds at LONG·e/3 = 4101 and 8203: each cuts a chunk short.
        let epochs = 3;
        let cfg = ReloadConfig {
            epochs,
            total_sessions: LONG as u64,
            caps: &s.caps,
            redundancy: 1.0,
            max_load: 1.0,
            blend: 0.5,
            sabotage: Sabotage::None,
        };
        let bounds: Vec<u64> = (1..epochs).map(|e| (LONG * e / epochs) as u64).collect();
        assert!(bounds.iter().all(|b| b % CHUNK as u64 != 0), "{bounds:?}");

        let mut ctl = ReloadController::new(
            &s.dep,
            Arc::new(s.manifest.clone()),
            &s.caps,
            cfg.redundancy,
            cfg.max_load,
            cfg.blend,
        );
        let mut want_decisions = Vec::new();
        let want = reference(
            &s,
            &trace,
            hasher,
            &bounds,
            |e, mix| {
                let d = ctl.resolve(e, e as f64 / epochs as f64, mix, false);
                let swapped = matches!(d.outcome, ReloadOutcome::Swapped { .. });
                want_decisions.push((d.epoch, swapped, d.lp_iterations));
                swapped.then(|| ctl.manifest())
            },
            |_, _| false,
        );
        assert!(want_decisions.iter().any(|d| d.1), "the reference must swap: {want_decisions:?}");

        for (shards, threads) in [(1, 1), (3, 2)] {
            let run = parallel::with_threads(threads, || {
                run_coordinated_stream_reload(
                    &s.dep,
                    &s.manifest,
                    &s.paths,
                    || trace.sessions.iter().cloned(),
                    Placement::EventEngine,
                    hasher,
                    shards,
                    &cfg,
                )
            })
            .expect("reload runs");
            let what = format!("shards {shards}, threads {threads}");
            let decisions: Vec<_> = run
                .decisions
                .iter()
                .map(|d| {
                    (d.epoch, matches!(d.outcome, ReloadOutcome::Swapped { .. }), d.lp_iterations)
                })
                .collect();
            assert_eq!(decisions, want_decisions, "{what}");
            assert_same_nodes(&run.run.per_node, &want, &what);
        }
    }

    #[test]
    fn sharded_resilient_schedule_spans_chunks() {
        let s = setup();
        let trace = generate_trace(&s.topo, &s.tm, &TraceConfig::new(LONG, 41));
        let hasher = KeyedHasher::with_key(0x5A4D);
        let schedule = FailureSchedule::random(s.dep.num_nodes, 4, 3);
        let cfg = ResilienceConfig {
            caps: &s.caps,
            schedule: &schedule,
            health: HealthConfig::default(),
        };
        let epochs = plan_manifest_epochs(&s.dep, &s.manifest, &cfg);
        let n_total = trace.sessions.len() as f64;
        let bounds: Vec<u64> = epochs[1..]
            .iter()
            .map_while(|ep| trace.sessions.iter().find(|s| ep.from <= s.id as f64 / n_total))
            .map(|s| s.id)
            .collect();
        assert!(bounds.len() >= 2, "the schedule must swap manifests: {bounds:?}");
        assert!(bounds.last() > Some(&(CHUNK as u64)), "swaps past the first chunk: {bounds:?}");
        let blind = |node: NodeId, s: &Session| {
            schedule.events.iter().any(|e| e.node == node && e.blind_at(s.id as f64 / n_total))
        };
        let live = |k: usize| Some(Arc::new(epochs[k].manifest.clone()));
        let want = reference(&s, &trace, hasher, &bounds, |k, _| live(k), blind);

        for (shards, threads) in [(1, 1), (3, 2)] {
            let run = parallel::with_threads(threads, || {
                run_epochs(
                    "coordinated_resilient",
                    &s.dep,
                    Arc::new(epochs[0].manifest.clone()),
                    &s.paths,
                    || trace.sessions.iter().cloned(),
                    Placement::EventEngine,
                    hasher,
                    shards,
                    &bounds,
                    |k, _| live(k),
                    Some(&blind),
                )
            })
            .expect("resilient schedule runs");
            assert_same_nodes(&run.per_node, &want, &format!("shards {shards}, threads {threads}"));
        }
    }
}
