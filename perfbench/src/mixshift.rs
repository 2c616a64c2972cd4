//! `mixshift`: the closed control loop under a traffic mix shift.
//!
//! The `steady` deployment, but the mix is gravity for the first half of
//! the trace and uniform for the second. `run_coordinated_stream_reload`
//! at 2 threads × 2 shards re-solves at each of the 5 interior boundaries
//! of 6 epochs and swaps the validated manifest into the live engines;
//! boundary 2 is sabotaged, so the validation gate must reject it. The
//! alert plane is off. Most of a pass is the warm LP re-solve.

use crate::nids::{self, Nids, Visits, CAPS};
use crate::report::{self, Report};
use crate::spans::Recorder;
use crate::{timed_passes, Args};
use nwdp_core::parallel;
use nwdp_engine::{
    run_coordinated_stream_reload, CoordContext, Engine, NetworkRun, ObservedMix, Placement,
    ReloadConfig, ReloadController, ReloadDecision, ReloadOutcome, ReloadRun, Sabotage,
};
use nwdp_obs as obs;
use nwdp_topo::NodeId;
use nwdp_traffic::{Session, SessionStream, TraceConfig, TrafficMatrix};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const SESSIONS: usize = 10_000;
pub const EPOCHS: usize = 6;
pub const SABOTAGED: usize = 2;
pub const BLEND: f64 = 0.2;
pub const THREADS: usize = 2;
pub const SHARDS: usize = 2;

pub fn params() -> Vec<(&'static str, String)> {
    vec![
        ("topology", "internet2".into()),
        ("classes", "9".into()),
        ("mix", "gravity then uniform".into()),
        ("sessions", SESSIONS.to_string()),
        ("epochs", EPOCHS.to_string()),
        ("sabotaged_boundary", SABOTAGED.to_string()),
        ("blend", BLEND.to_string()),
        ("threads", THREADS.to_string()),
        ("shards", SHARDS.to_string()),
        ("alerts", "off".into()),
    ]
}

struct Mix {
    uniform: TrafficMatrix,
    a: TraceConfig,
    b: TraceConfig,
}

impl Mix {
    /// The mix of pass `k` of a run with seed `seed`: every pass replays
    /// a different trace, so a run averages over several mixes.
    fn new(n: &Nids, seed: u64, k: usize) -> Mix {
        let half = SESSIONS / 2;
        let sub = seed.wrapping_mul(1000).wrapping_add(k as u64).wrapping_mul(2);
        Mix {
            uniform: TrafficMatrix::uniform(&n.topo),
            a: TraceConfig::new(half, sub),
            b: TraceConfig::new(SESSIONS - half, sub + 1),
        }
    }

    /// Gravity sessions, then uniform ones with ids continuing, so the
    /// epoch boundaries cut across the shift.
    fn source<'a>(&'a self, n: &'a Nids) -> impl Iterator<Item = Session> + Send + 'a {
        let half = self.a.sessions as u64;
        let tail = SessionStream::new(&n.topo, &self.uniform, &self.b).map(move |mut s| {
            s.id += half;
            s
        });
        SessionStream::new(&n.topo, &n.tm, &self.a).chain(tail)
    }
}

fn reload_cfg(caps: &[nwdp_core::nids::NodeCaps]) -> ReloadConfig<'_> {
    ReloadConfig {
        epochs: EPOCHS,
        total_sessions: SESSIONS as u64,
        caps,
        redundancy: 1.0,
        max_load: 1.0,
        blend: BLEND,
        sabotage: Sabotage::AtEpoch(SABOTAGED),
    }
}

fn pass(n: &Nids, mix: &Mix, caps: &[nwdp_core::nids::NodeCaps]) -> ReloadRun {
    parallel::with_threads(THREADS, || {
        run_coordinated_stream_reload(
            &n.dep,
            &n.manifest,
            &n.paths,
            || mix.source(n),
            Placement::EventEngine,
            n.hasher(),
            SHARDS,
            &reload_cfg(caps),
        )
    })
    .expect("the standard classes all have analyzers")
}

fn outcome(d: &ReloadDecision) -> (&'static str, usize) {
    let kind = match d.outcome {
        ReloadOutcome::Swapped { .. } => "swapped",
        ReloadOutcome::Rejected(_) => "rejected",
        ReloadOutcome::SolveFailed(_) => "solve_failed",
    };
    (kind, d.lp_iterations)
}

/// ≥ 3 swaps, the sabotaged boundary rejected, full coverage throughout.
fn check(r: &ReloadRun) -> Result<(), String> {
    if r.decisions.len() != EPOCHS - 1 {
        return Err(format!("{} decisions for {} boundaries", r.decisions.len(), EPOCHS - 1));
    }
    if r.swaps() < 3 {
        return Err(format!("only {} swaps", r.swaps()));
    }
    if outcome(&r.decisions[SABOTAGED - 1]).0 != "rejected" {
        return Err(format!("sabotaged boundary {SABOTAGED} was not rejected"));
    }
    if r.coverage_floor() < 1.0 - 1e-9 {
        return Err(format!("coverage dipped to {}", r.coverage_floor()));
    }
    Ok(())
}

fn same_decisions(first: &ReloadRun, ds: &[ReloadDecision]) -> Result<(), String> {
    let a: Vec<_> = first.decisions.iter().map(outcome).collect();
    let b: Vec<_> = ds.iter().map(outcome).collect();
    if a != b {
        return Err(format!("decisions {b:?} differ from {a:?}"));
    }
    Ok(())
}

struct Worker<'a, I: Iterator<Item = Session>> {
    engine: Engine<'a>,
    it: std::iter::Peekable<I>,
}

/// The reload run replayed call by call: persistent per-(node, shard)
/// workers parked at each boundary while the controller re-solves.
fn traced_pass(
    n: &Nids,
    mix: &Mix,
    caps: &[nwdp_core::nids::NodeCaps],
    rec: &Recorder,
    parent: Option<u32>,
    rep: &mut Report,
) -> (NetworkRun, Vec<ReloadDecision>) {
    let names: Vec<String> = n.dep.classes.iter().map(|c| c.name.clone()).collect();
    let cfg = reload_cfg(caps);
    let mut controller = ReloadController::new(
        &n.dep,
        Arc::new(n.manifest.clone()),
        caps,
        cfg.redundancy,
        cfg.max_load,
        cfg.blend,
    );
    let cells: Vec<_> = (0..n.dep.num_nodes * SHARDS)
        .map(|i| {
            rec.time("engine.new", parent, || {
                let coord = CoordContext::with_shared(&n.dep, controller.manifest());
                let engine = Engine::new(
                    NodeId(i / SHARDS),
                    Placement::EventEngine,
                    &names,
                    Some(coord),
                    n.hasher(),
                )
                .expect("the standard classes all have analyzers");
                Mutex::new(Worker { engine, it: mix.source(n).peekable() })
            })
        })
        .collect();

    let mut visits = Visits::default();
    let mut decisions = Vec::new();
    let (mut resolve_s, mut park_ns) = (Vec::new(), 0u64);
    let mut parked_at: Option<u64> = None;
    let solve_ns_before = report::counters();
    for e in 1..=EPOCHS {
        let hi = if e == EPOCHS { u64::MAX } else { SESSIONS as u64 * e as u64 / EPOCHS as u64 };
        if let Some(t) = parked_at {
            park_ns += rec.now_ns() - t;
        }
        let fan = rec.start("engine.fanout", parent);
        let fan_id = fan.id();
        let out = parallel::with_threads(THREADS, || {
            parallel::par_map_n(cells.len(), |i| {
                let (node, shard) = (NodeId(i / SHARDS), i % SHARDS);
                let mut guard = cells[i].lock().expect("worker cell poisoned");
                let Worker { engine, it } = &mut *guard;
                let mut seen = ObservedMix::default();
                let v = nids::traced_worker(
                    rec,
                    fan_id,
                    n,
                    (node, shard, SHARDS),
                    engine,
                    || it.next_if(|s| s.id < hi),
                    // Count the mix once per session: at its ingress node,
                    // on the shard that owns it.
                    |s| {
                        if node == s.src_node {
                            seen.record(s.src_node, s.dst_node, s.packet_count() as u64);
                        }
                    },
                );
                (seen, v)
            })
        });
        rec.end(fan);
        let mut observed = ObservedMix::default();
        rec.time("reload.observe", parent, || {
            for (seen, _) in &out {
                observed.merge(seen);
            }
        });
        out.into_iter().for_each(|(_, v)| visits.absorb(v));
        if e == EPOCHS {
            break;
        }
        parked_at = Some(rec.now_ns());
        let open = rec.start("reload.resolve", parent);
        let d = controller.resolve(e, e as f64 / EPOCHS as f64, &observed, e == SABOTAGED);
        resolve_s.push(rec.end(open) as f64 / 1e9);
        if matches!(d.outcome, ReloadOutcome::Swapped { .. }) {
            let live = controller.manifest();
            rec.time("engine.set_manifest", parent, || {
                for cell in &cells {
                    let mut w = cell.lock().expect("worker cell poisoned");
                    w.engine.set_manifest(live.clone()).expect("coordinated engine");
                }
            });
        }
        decisions.push(d);
    }
    let solve_ns = report::delta(&solve_ns_before, &report::counters(), "simplex.solve_ns");
    let mut engines =
        cells.into_iter().map(|c| c.into_inner().expect("worker cell poisoned").engine);
    let rows: Vec<Vec<Engine<'_>>> =
        (0..n.dep.num_nodes).map(|_| engines.by_ref().take(SHARDS).collect()).collect();
    let run = nids::traced_merge(rec, parent, rows);

    visits.report(rep);
    let total: f64 = resolve_s.iter().sum();
    rep.median("reload.resolve.p50_s", &resolve_s, "s");
    rep.metric("reload.resolve.max_s", resolve_s.iter().copied().fold(0.0, f64::max), "s");
    rep.metric("reload.resolve.count", resolve_s.len() as f64, "count");
    rep.metric("reload.resolve_lp_share", solve_ns as f64 / 1e9 / total.max(1e-12), "ratio");
    rep.metric("reload.park_s", park_ns as f64 / 1e9, "s");
    (run, decisions)
}

pub fn run(args: &Args, rep: &mut Report) {
    let n = crate::setup_median(rep, nids::SETUP_REPS, || nids::setup(None, None));
    let caps = vec![CAPS; n.dep.num_nodes];

    let mut first: Option<ReloadRun> = None;
    let mut balance = Vec::new();
    let walls = timed_passes(args.untraced_seconds(), |k| {
        let mix = Mix::new(&n, args.seed, k);
        let t0 = Instant::now();
        let r = pass(&n, &mix, &caps);
        let wall = t0.elapsed().as_secs_f64();
        rep.check("mixshift pass", check(&r));
        balance.push(nids::load_balance(&r.run));
        first.get_or_insert(r);
        wall
    });
    let first = first.expect("at least one pass ran");
    // Passes replay different mixes, but at this blend their costs differ
    // little; the median keeps a pass slowed by the host out of the rate.
    rep.median("pass_s", &walls, "s");
    rep.metric("work_per_s", SESSIONS as f64 / rep.get("pass_s").expect("median of passes"), "1/s");
    rep.median("plan_quality", &balance, "ratio");
    if !args.trace {
        return;
    }

    let rec = Recorder::new(args.seed as u32);
    obs::set_enabled(true);
    let before = report::counters();
    let root = rec.start("bench.traced", None);
    let rid = Some(root.id());
    let traced_setup = nids::setup(Some(&rec), rid);
    let t0 = Instant::now();
    let mix = Mix::new(&n, args.seed, 0);
    let (run, decisions) = traced_pass(&traced_setup, &mix, &caps, &rec, rid, rep);
    let traced_wall = t0.elapsed().as_secs_f64();
    rec.end(root);
    let after = report::counters();
    obs::set_enabled(false);
    rep.check("mixshift traced pass", {
        nids::same_run("traced reload vs untraced", &run, &first.run)
            .and_then(|()| same_decisions(&first, &decisions))
    });
    let spans = rec.take();
    crate::write_spans(args, &spans);

    rep.layers(&spans, "bench.traced");
    rep.metric("nids.solve_lp.iterations", traced_setup.lp_iterations as f64, "count");
    crate::steady::parallel_metrics(rep, &spans);
    crate::steady::run_metrics(rep, &run);
    report::counter_metrics(rep, &before, &after, crate::SIMPLEX_COUNTERS);
    rep.metric("trace.overhead_share", traced_wall / walls[0] - 1.0, "ratio");
}
