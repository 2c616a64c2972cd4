//! Streaming data-plane throughput (ISSUE 7).
//!
//! Measures the sessions/sec and per-packet latency of the streaming
//! sharded engine ([`nwdp_engine::run_coordinated_stream`]) against the
//! materialize-then-replay batch path on the standard Internet2 / 9-module
//! deployment. Three passes:
//!
//! 1. **batch** — `generate_trace` + `run_coordinated`, timed end to end
//!    (the trace build is part of the batch cost; the streaming path never
//!    materializes one);
//! 2. **stream** — `run_coordinated_stream` over a fresh `SessionStream`,
//!    timed with metrics disabled (no clock reads in the hot loop);
//! 3. **latency** — the same streaming run with metrics on, feeding the
//!    `engine.stream.pkt_ns` histogram the p50/p99 are read from.
//!
//! The batch and stream results must be bit-identical (same alerts, same
//! per-node stats) — asserted here on every bench run, not just in the
//! equivalence tests. Results go to `results/throughput.csv`.

use crate::output::{f2, Table};
use crate::scenario::NidsContext;
use crate::Scale;
use nwdp_core::parallel;
use nwdp_engine::{
    pkt_latency_bounds, run_coordinated, run_coordinated_stream, stream_shards, Placement,
};
use nwdp_hash::KeyedHasher;
use nwdp_obs as obs;
use nwdp_traffic::{generate_trace, SessionStream, TraceConfig};
use std::time::Instant;

/// One throughput measurement.
#[derive(Debug, Clone)]
pub struct ThroughputRun {
    pub sessions: usize,
    pub shards: usize,
    pub threads: usize,
    /// Streaming wall time (metrics off) and derived rates.
    pub wall_s: f64,
    pub sessions_per_sec: f64,
    /// Packets processed per second, summed over every on-path node (one
    /// packet traversing k nodes counts k times, as in Figs 6-8).
    pub packets_per_sec: f64,
    /// Per-packet processing latency quantiles (ns) from the metrics-on
    /// pass.
    pub p50_pkt_ns: f64,
    pub p99_pkt_ns: f64,
    /// Batch comparator: trace materialization + `run_coordinated`.
    pub batch_wall_s: f64,
    pub speedup_vs_batch: f64,
}

/// The trace every pass replays at `scale`.
pub fn trace_config(scale: Scale) -> TraceConfig {
    let sessions = match scale {
        Scale::Quick => 20_000,
        Scale::Full => 100_000,
    };
    TraceConfig::new(sessions, 17)
}

/// Run the throughput bench at `scale`. Panics if the streaming result
/// diverges from the batch result — throughput numbers for a wrong answer
/// are worthless.
pub fn run(scale: Scale) -> ThroughputRun {
    let ctx = NidsContext::internet2();
    let dep = ctx.deployment(9);
    let (_assignment, manifest) = ctx.manifests(&dep);
    let cfg = trace_config(scale);
    let sessions = cfg.sessions;
    let hasher = KeyedHasher::with_key(5);
    let shards = stream_shards();
    let threads = parallel::num_threads();

    // Pass 1: batch comparator (materialize + replay).
    let t0 = Instant::now();
    let trace = generate_trace(&ctx.topo, &ctx.tm, &cfg);
    let batch =
        run_coordinated(&dep, &manifest, &ctx.paths, &trace, Placement::EventEngine, hasher)
            .expect("batch run");
    let batch_wall_s = t0.elapsed().as_secs_f64();

    // Pass 2: streaming, metrics off so the hot loop has no clock reads.
    let was = obs::enabled();
    obs::set_enabled(false);
    let t0 = Instant::now();
    let stream = run_coordinated_stream(
        &dep,
        &manifest,
        &ctx.paths,
        || SessionStream::new(&ctx.topo, &ctx.tm, &cfg),
        Placement::EventEngine,
        hasher,
        shards,
    )
    .expect("stream run");
    let wall_s = t0.elapsed().as_secs_f64();
    obs::set_enabled(was);

    assert_identical(&batch, &stream);

    // Pass 3: metrics on, to fill the per-packet latency histogram.
    let hist = {
        obs::set_enabled(true);
        let hist = obs::histogram("engine.stream.pkt_ns", &pkt_latency_bounds());
        hist.reset();
        run_coordinated_stream(
            &dep,
            &manifest,
            &ctx.paths,
            || SessionStream::new(&ctx.topo, &ctx.tm, &cfg),
            Placement::EventEngine,
            hasher,
            shards,
        )
        .expect("latency run");
        obs::set_enabled(was);
        hist
    };

    let total_packets: u64 = stream.per_node.iter().map(|s| s.packets).sum();
    ThroughputRun {
        sessions,
        shards,
        threads,
        wall_s,
        sessions_per_sec: sessions as f64 / wall_s.max(1e-12),
        packets_per_sec: total_packets as f64 / wall_s.max(1e-12),
        p50_pkt_ns: hist.quantile(0.5),
        p99_pkt_ns: hist.quantile(0.99),
        batch_wall_s,
        speedup_vs_batch: batch_wall_s / wall_s.max(1e-12),
    }
}

fn assert_identical(batch: &nwdp_engine::NetworkRun, stream: &nwdp_engine::NetworkRun) {
    assert_eq!(batch.alerts, stream.alerts, "stream alerts diverged from batch");
    assert_eq!(batch.per_node.len(), stream.per_node.len());
    for (b, s) in batch.per_node.iter().zip(&stream.per_node) {
        let n = b.node.0;
        assert_eq!(b.packets, s.packets, "node {n} packets");
        assert_eq!(b.connections, s.connections, "node {n} connections");
        assert_eq!(b.cpu_cycles, s.cpu_cycles, "node {n} cpu");
        assert_eq!(b.mem_peak, s.mem_peak, "node {n} mem peak");
        assert_eq!(b.fastpath_skipped, s.fastpath_skipped, "node {n} fast path");
        assert_eq!(b.range_checks, s.range_checks, "node {n} range checks");
        assert_eq!(b.range_hits, s.range_hits, "node {n} range hits");
        assert_eq!(b.per_module_cpu, s.per_module_cpu, "node {n} module cpu");
        assert_eq!(b.alerts, s.alerts, "node {n} alerts");
    }
}

pub fn table(r: &ThroughputRun) -> Table {
    let mut t = Table::new(
        "Streaming data plane: sessions/sec vs the batch replay (results bit-identical)",
        &[
            "sessions",
            "shards",
            "threads",
            "stream s",
            "batch s",
            "speedup",
            "sessions/s",
            "pkts/s",
            "p50 pkt ns",
            "p99 pkt ns",
        ],
    );
    t.row(vec![
        r.sessions.to_string(),
        r.shards.to_string(),
        r.threads.to_string(),
        f2(r.wall_s),
        f2(r.batch_wall_s),
        format!("{:.2}x", r.speedup_vs_batch),
        format!("{:.0}", r.sessions_per_sec),
        format!("{:.0}", r.packets_per_sec),
        format!("{:.0}", r.p50_pkt_ns),
        format!("{:.0}", r.p99_pkt_ns),
    ]);
    t
}
