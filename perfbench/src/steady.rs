//! `steady`: the data plane at the paper's Fig 6–8 volume.
//!
//! 100 k sessions over the static LP manifest through
//! `run_coordinated_stream` at 2 threads × 2 shards, with the alert plane
//! on (JSONL + CEF egress, explicit rate / burst / suppress). Every pass is
//! checked against the batch oracle (`run_coordinated` over the
//! materialized trace), and its alert accounting and egress lines are
//! audited.

use crate::nids::{self, Nids, Visits};
use crate::report::{self, Report};
use crate::spans::Recorder;
use crate::{timed_passes, Args};
use nwdp_core::parallel;
use nwdp_engine::{
    run_coordinated, run_coordinated_stream, CoordContext, Engine, NetworkRun, Placement,
};
use nwdp_obs as obs;
use nwdp_topo::NodeId;
use nwdp_traffic::{generate_trace, SessionStream, TraceConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const SESSIONS: usize = 100_000;
pub const THREADS: usize = 2;
pub const SHARDS: usize = 2;
/// Alert pipeline tuning: a starved token bucket and a small suppression
/// window, so both filters do work on every pass.
pub const ALERTS: obs::AlertConfig =
    obs::AlertConfig { rate: 200.0, burst: 50.0, suppress: 0.0005 };

/// An in-memory egress sink the alert plane writes through.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink poisoned").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Sink {
    fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("sink poisoned")).into_owned()
    }
}

struct Egress {
    jsonl: Sink,
    cef: Sink,
}

/// Reset the alert plane, install both egress writers, and turn it on.
fn alerts_on() -> Egress {
    obs::clear_alert_writers();
    obs::set_alert_config(ALERTS);
    obs::reset_alerts();
    obs::set_alert_clock_scale(1.0 / SESSIONS as f64);
    let egress = Egress { jsonl: Sink::default(), cef: Sink::default() };
    obs::add_alert_writer(obs::AlertFormat::Jsonl, Box::new(egress.jsonl.clone()));
    obs::add_alert_writer(obs::AlertFormat::Cef, Box::new(egress.cef.clone()));
    obs::set_alert_enabled(true);
    egress
}

fn alerts_off() {
    obs::set_alert_enabled(false);
    obs::clear_alert_writers();
}

/// Accounting balances, and every egress line parses in its format.
fn check_alerts(st: &obs::AlertStats, eg: &Egress, unique: usize) -> Result<(), String> {
    if st.emitted != st.written + st.deduped + st.dropped_ratelimit {
        return Err(format!("alert accounting unbalanced: {st:?}"));
    }
    if st.written == 0 || st.emitted < unique as u64 {
        return Err(format!("alert plane saw too little: {st:?} for {unique} engine alerts"));
    }
    let jsonl = eg.jsonl.text();
    for line in jsonl.lines() {
        let doc = obs::parse_json(line).map_err(|e| format!("jsonl line {line}: {e}"))?;
        if ["ts", "node", "class", "kind", "subject", "severity"]
            .iter()
            .any(|f| doc.get(f).is_none())
        {
            return Err(format!("jsonl line missing a field: {line}"));
        }
    }
    let cef = eg.cef.text();
    for line in cef.lines() {
        let (header, ext) = obs::split_cef(line).ok_or_else(|| format!("cef line: {line}"))?;
        if header[0] != "CEF:0"
            || ext.is_empty()
            || header.iter().any(|f| obs::cef_unescape(f).is_none())
        {
            return Err(format!("cef line malformed: {line}"));
        }
    }
    let (nj, nc) = (jsonl.lines().count() as u64, cef.lines().count() as u64);
    if nj != st.written || nc != st.written {
        return Err(format!("{nj} jsonl / {nc} cef lines for {} written", st.written));
    }
    Ok(())
}

struct Pass {
    run: NetworkRun,
    alerts: obs::AlertStats,
    egress: Egress,
}

/// One untimed-setup, timed pass through the program's own runner.
fn pass(n: &Nids, cfg: &TraceConfig) -> Pass {
    let egress = alerts_on();
    let run = parallel::with_threads(THREADS, || {
        run_coordinated_stream(
            &n.dep,
            &n.manifest,
            &n.paths,
            || SessionStream::new(&n.topo, &n.tm, cfg),
            Placement::EventEngine,
            n.hasher(),
            SHARDS,
        )
    })
    .expect("the standard classes all have analyzers");
    let alerts = obs::flush_alerts().expect("in-memory egress cannot fail");
    alerts_off();
    Pass { run, alerts, egress }
}

/// The same pass replayed call by call through the public API, with a
/// span or leaf around every call into a layer.
fn traced_pass(
    n: &Nids,
    cfg: &TraceConfig,
    rec: &Recorder,
    parent: Option<u32>,
    rep: &mut Report,
) -> Pass {
    let egress = alerts_on();
    let names: Vec<String> = n.dep.classes.iter().map(|c| c.name.clone()).collect();
    let fan = rec.start("engine.fanout", parent);
    let fan_id = fan.id();
    let grid = parallel::with_threads(THREADS, || {
        parallel::par_map_grid(n.dep.num_nodes, SHARDS, |j, shard| {
            let (mut engine, mut it) = rec.time("engine.new", Some(fan_id), || {
                let coord = CoordContext::new(&n.dep, &n.manifest);
                let engine =
                    Engine::new(NodeId(j), Placement::EventEngine, &names, Some(coord), n.hasher())
                        .expect("the standard classes all have analyzers");
                (engine, SessionStream::new(&n.topo, &n.tm, cfg))
            });
            let at = (NodeId(j), shard, SHARDS);
            let v = nids::traced_worker(rec, fan_id, n, at, &mut engine, || it.next(), |_| {});
            (engine, v)
        })
    });
    rec.end(fan);

    let mut visits = Visits::default();
    let rows: Vec<Vec<Engine<'_>>> = grid
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|(engine, v)| {
                    visits.absorb(v);
                    engine
                })
                .collect()
        })
        .collect();
    let run = nids::traced_merge(rec, parent, rows);
    let alerts = rec.time("alert.flush", parent, obs::flush_alerts).expect("in-memory egress");
    alerts_off();
    visits.report(rep);
    Pass { run, alerts, egress }
}

/// Data-plane outcome metrics of a run: skip share, range hit rate,
/// connections, and the delivered maximum node load.
pub fn run_metrics(rep: &mut Report, run: &NetworkRun) {
    let sum = |f: fn(&nwdp_engine::RunStats) -> u64| run.per_node.iter().map(f).sum::<u64>() as f64;
    rep.metric(
        "engine.skip_share",
        sum(|s| s.fastpath_skipped) / sum(|s| s.packets).max(1.0),
        "ratio",
    );
    rep.metric(
        "engine.range_hit_rate",
        sum(|s| s.range_hits) / sum(|s| s.range_checks).max(1.0),
        "ratio",
    );
    rep.metric("engine.connections", sum(|s| s.connections as u64), "count");
    rep.metric("engine.max_node_cpu_gcycles", nids::max_node_gcycles(run), "Gcycles");
}

/// Thread busy time inside each `engine.fanout`: the slowest thread
/// sets the fan-out's time and the others wait for it. Summed over the
/// run's fan-outs.
pub fn parallel_metrics(rep: &mut Report, spans: &[crate::spans::SpanRec]) {
    let fanouts: BTreeSet<u32> =
        spans.iter().filter(|s| s.name == "engine.fanout").map(|s| s.id).collect();
    let mut busy: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for s in spans {
        if let Some(f) = s.parent.filter(|p| fanouts.contains(p)) {
            *busy.entry((f, s.thread)).or_default() += s.end_ns - s.start_ns;
        }
    }
    let (mut max_s, mut mean_s, mut wait_s) = (0.0, 0.0, 0.0);
    for f in &fanouts {
        let threads: Vec<f64> =
            busy.range((*f, 0)..=(*f, u32::MAX)).map(|(_, &ns)| ns as f64 / 1e9).collect();
        let max = threads.iter().copied().fold(0.0, f64::max);
        max_s += max;
        mean_s += threads.iter().sum::<f64>() / threads.len().max(1) as f64;
        wait_s += threads.iter().map(|b| max - b).sum::<f64>();
    }
    rep.metric("engine.worker_busy_max_s", max_s, "s");
    rep.metric("engine.worker_busy_mean_s", mean_s, "s");
    rep.metric("engine.join_wait_s", wait_s, "s");
}

fn check_pass(
    p: &Pass,
    oracle: &NetworkRun,
    first: Option<&obs::AlertStats>,
) -> Result<(), String> {
    nids::same_run("stream vs batch oracle", &p.run, oracle)?;
    check_alerts(&p.alerts, &p.egress, p.run.alerts.len())?;
    match first {
        Some(a) if *a != p.alerts => Err(format!("alert stats {:?} differ from {a:?}", p.alerts)),
        _ => Ok(()),
    }
}

pub fn params() -> Vec<(&'static str, String)> {
    vec![
        ("topology", "internet2".into()),
        ("classes", "9".into()),
        ("mix", "gravity".into()),
        ("sessions", SESSIONS.to_string()),
        ("threads", THREADS.to_string()),
        ("shards", SHARDS.to_string()),
        ("alert_rate", ALERTS.rate.to_string()),
        ("alert_burst", ALERTS.burst.to_string()),
        ("alert_suppress", ALERTS.suppress.to_string()),
    ]
}

pub fn run(args: &Args, rep: &mut Report) {
    let n = crate::setup_median(rep, nids::SETUP_REPS, || nids::setup(None, None));
    let cfg = TraceConfig::new(SESSIONS, args.seed);
    // The batch oracle, once and untimed, with the alert plane off.
    let oracle = run_coordinated(
        &n.dep,
        &n.manifest,
        &n.paths,
        &generate_trace(&n.topo, &n.tm, &cfg),
        Placement::EventEngine,
        n.hasher(),
    )
    .expect("batch oracle runs");

    let mut first: Option<obs::AlertStats> = None;
    let mut last_run = None;
    let walls = timed_passes(args.untraced_seconds(), |_| {
        let t0 = Instant::now();
        let p = pass(&n, &cfg);
        let wall = t0.elapsed().as_secs_f64();
        rep.check("steady pass", check_pass(&p, &oracle, first.as_ref()));
        first.get_or_insert(p.alerts);
        last_run = Some(p.run);
        wall
    });
    let last_run = last_run.expect("at least one pass ran");
    rep.median("pass_s", &walls, "s");
    rep.metric("work_per_s", SESSIONS as f64 / rep.get("pass_s").expect("median of passes"), "1/s");
    rep.metric("plan_quality", nids::load_balance(&last_run), "ratio");
    if !args.trace {
        return;
    }

    // Traced: set-up and one pass replayed with spans, metrics registry on.
    let rec = Recorder::new(args.seed as u32);
    obs::set_enabled(true);
    let before = report::counters();
    let root = rec.start("bench.traced", None);
    let rid = Some(root.id());
    let traced_setup = nids::setup(Some(&rec), rid);
    let mid = report::counters();
    let pass_t0 = Instant::now();
    let p = traced_pass(&traced_setup, &cfg, &rec, rid, rep);
    let traced_wall = pass_t0.elapsed().as_secs_f64();
    rec.end(root);
    obs::set_enabled(false);
    rep.check("steady traced pass", check_pass(&p, &oracle, first.as_ref()));
    rep.check("traced set-up", same_setup(&n, &traced_setup));
    let spans = rec.take();
    crate::write_spans(args, &spans);

    rep.layers(&spans, "bench.traced");
    rep.metric("nids.solve_lp.iterations", traced_setup.lp_iterations as f64, "count");
    parallel_metrics(rep, &spans);
    run_metrics(rep, &p.run);
    rep.metric("alert.emitted", p.alerts.emitted as f64, "count");
    rep.metric("alert.written", p.alerts.written as f64, "count");
    rep.metric("alert.deduped", p.alerts.deduped as f64, "count");
    rep.metric("alert.dropped_ratelimit", p.alerts.dropped_ratelimit as f64, "count");
    report::counter_metrics(rep, &before, &mid, crate::SIMPLEX_COUNTERS);
    let untraced = rep.get("pass_s").expect("untraced passes ran first");
    rep.metric("trace.overhead_share", traced_wall / untraced - 1.0, "ratio");
}

/// The traced set-up solved the same LP as the untraced one.
fn same_setup(a: &Nids, b: &Nids) -> Result<(), String> {
    if a.lp_iterations != b.lp_iterations || a.dep.units.len() != b.dep.units.len() {
        return Err(format!(
            "traced set-up: {} LP iterations / {} units vs {} / {}",
            b.lp_iterations,
            b.dep.units.len(),
            a.lp_iterations,
            a.dep.units.len()
        ));
    }
    Ok(())
}
