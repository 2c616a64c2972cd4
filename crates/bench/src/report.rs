//! `repro report` — post-mortem analysis of a run's trace journal and
//! metrics snapshot.
//!
//! Ingests the JSONL event journal written under `NWDP_TRACE` (and,
//! optionally, the metrics JSON written under `NWDP_METRICS` /
//! `--metrics-out`) and renders:
//!
//! - a per-phase wall-time breakdown (the `phase.*` spans the `repro`
//!   harness opens around each experiment),
//! - the top-N hottest span names by *self* time (own duration minus
//!   same-thread children, so concurrent child threads don't double-bill
//!   a parent),
//! - warm-start hit rates for the simplex basis reuse and the rowgen
//!   solve-context reuse,
//! - optionally a Chrome-trace (`chrome://tracing` / Perfetto) export of
//!   the full span forest.
//!
//! Everything here is pure text-in/tables-out so it unit-tests on
//! synthetic journals.

use crate::output::Table;
use nwdp_obs::{parse_json, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One reconstructed span (a joined B/E record pair).
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub tid: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The fields recorded on the open record (`"f"`), e.g. a stream
    /// shard span's `node` and `shard`.
    pub fields: BTreeMap<String, Json>,
    /// False when the journal ended before the span's close record (a
    /// crash or an unflushed buffer); `end_ns` is then the last timestamp
    /// seen anywhere in the journal.
    pub closed: bool,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A parsed journal: the span forest plus line-level accounting.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    pub spans: Vec<SpanRec>,
    /// Instant (`"ev":"I"`) records.
    pub events: usize,
    /// Lines that failed to parse or lacked required keys.
    pub malformed: usize,
    /// Spans with no close record.
    pub unclosed: usize,
}

fn get_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_f64).map(|v| v as u64)
}

/// Parse a JSONL journal into a [`Journal`]. Never fails: bad lines are
/// counted in `malformed`, unclosed spans are clamped to the last
/// timestamp observed.
pub fn parse_journal(text: &str) -> Journal {
    let mut out = Journal::default();
    // id → index into out.spans, for joining E records.
    let mut open: BTreeMap<u64, usize> = BTreeMap::new();
    let mut last_ts = 0u64;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(doc) = parse_json(line) else {
            out.malformed += 1;
            continue;
        };
        let Some(ts) = get_u64(&doc, "ts") else {
            out.malformed += 1;
            continue;
        };
        last_ts = last_ts.max(ts);
        match doc.get("ev").and_then(Json::as_str) {
            Some("B") => {
                let (Some(id), Some(name)) =
                    (get_u64(&doc, "id"), doc.get("name").and_then(Json::as_str))
                else {
                    out.malformed += 1;
                    continue;
                };
                open.insert(id, out.spans.len());
                out.spans.push(SpanRec {
                    id,
                    parent: get_u64(&doc, "parent"),
                    tid: get_u64(&doc, "tid").unwrap_or(0),
                    name: name.to_string(),
                    start_ns: ts,
                    end_ns: ts,
                    fields: doc.get("f").and_then(Json::as_obj).cloned().unwrap_or_default(),
                    closed: false,
                });
            }
            Some("E") => match get_u64(&doc, "id").and_then(|id| open.remove(&id)) {
                Some(idx) => {
                    out.spans[idx].end_ns = ts;
                    out.spans[idx].closed = true;
                }
                None => out.malformed += 1,
            },
            Some("I") => out.events += 1,
            _ => out.malformed += 1,
        }
    }
    for (_, idx) in open {
        out.spans[idx].end_ns = last_ts.max(out.spans[idx].start_ns);
        out.unclosed += 1;
    }
    out
}

fn fmt_secs(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e9)
}

fn fmt_pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// Per-phase wall-time breakdown: the direct `phase.*` children of the
/// root `repro` span. Returns `None` when the journal has no root span
/// (a non-harness trace). The final row sums the phases against the
/// root's own wall time — the run's phase coverage.
pub fn phase_table(j: &Journal) -> Option<Table> {
    let root = j.spans.iter().find(|s| s.parent.is_none() && s.name == "repro")?;
    let root_dur = root.dur_ns().max(1);
    let mut t = Table::new("phase breakdown", &["phase", "wall_s", "of_run"]);
    let mut phase_total = 0u64;
    for s in &j.spans {
        if s.parent == Some(root.id) && s.name.starts_with("phase.") {
            phase_total += s.dur_ns();
            t.row(vec![
                s.name["phase.".len()..].to_string(),
                fmt_secs(s.dur_ns()),
                fmt_pct(s.dur_ns() as f64 / root_dur as f64),
            ]);
        }
    }
    t.row(vec![
        "(all phases)".to_string(),
        fmt_secs(phase_total),
        fmt_pct(phase_total as f64 / root_dur as f64),
    ]);
    t.row(vec!["(run total)".to_string(), fmt_secs(root.dur_ns()), fmt_pct(1.0)]);
    Some(t)
}

/// Fraction of the root span's wall time covered by its `phase.*`
/// children (the `repro report` acceptance metric).
pub fn phase_coverage(j: &Journal) -> Option<f64> {
    let root = j.spans.iter().find(|s| s.parent.is_none() && s.name == "repro")?;
    let total: u64 = j
        .spans
        .iter()
        .filter(|s| s.parent == Some(root.id) && s.name.starts_with("phase."))
        .map(SpanRec::dur_ns)
        .sum();
    Some(total as f64 / root.dur_ns().max(1) as f64)
}

/// Top-N span names by total *self* time. Self time is a span's duration
/// minus the summed durations of its same-thread children: children on
/// other threads run concurrently, so subtracting them would make busy
/// fan-out parents look idle (or negative).
pub fn hottest_table(j: &Journal, top: usize) -> Table {
    // parent id → summed same-thread child duration.
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let by_id: BTreeMap<u64, &SpanRec> = j.spans.iter().map(|s| (s.id, s)).collect();
    for s in &j.spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            if p.tid == s.tid {
                *child_ns.entry(p.id).or_default() += s.dur_ns();
            }
        }
    }
    // name → (count, total self ns, total ns).
    let mut agg: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in &j.spans {
        let own = s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = agg.entry(s.name.as_str()).or_default();
        e.0 += 1;
        e.1 += own;
        e.2 += s.dur_ns();
    }
    let mut rows: Vec<(&str, u64, u64, u64)> =
        agg.into_iter().map(|(n, (c, own, tot))| (n, c, own, tot)).collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    let mut t = Table::new(
        format!("hottest spans (top {top} by self time)"),
        &["span", "count", "self_s", "total_s"],
    );
    for (name, count, own, tot) in rows.into_iter().take(top) {
        t.row(vec![name.to_string(), count.to_string(), fmt_secs(own), fmt_secs(tot)]);
    }
    t
}

/// Shard utilization of streaming data-plane runs: for every
/// `engine.stream` span, the `engine.stream_shard` workers that ran inside
/// its wall-clock window (time containment, not span ancestry — the shard
/// spans sit under `engine.stream_worker` parents when the run is
/// threaded). A worker journals one span per chunk of the stream and
/// counts once, by its `node` and `shard` fields. Busy is the summed shard
/// wall time; idle is the rest of the `workers × wall` slot area, i.e.
/// time workers spent waiting for sessions or for other workers. Returns
/// `None` when the journal has no streaming runs.
pub fn stream_shard_table(j: &Journal) -> Option<Table> {
    let streams: Vec<&SpanRec> = j.spans.iter().filter(|s| s.name == "engine.stream").collect();
    if streams.is_empty() {
        return None;
    }
    let mut t = Table::new(
        "stream shard utilization",
        &["run", "workers", "wall_s", "busy_s", "idle_s", "busy_pct"],
    );
    for (i, run) in streams.iter().enumerate() {
        let shards: Vec<&SpanRec> = j
            .spans
            .iter()
            .filter(|s| {
                s.name == "engine.stream_shard"
                    && s.start_ns >= run.start_ns
                    && s.start_ns <= run.end_ns
            })
            .collect();
        // A span without the worker fields counts as a worker of its own.
        let workers = shards
            .iter()
            .map(|s| match (s.fields.get("node"), s.fields.get("shard")) {
                (Some(node), Some(shard)) => (node.render(), shard.render()),
                _ => (format!("span {}", s.id), String::new()),
            })
            .collect::<BTreeSet<_>>()
            .len() as u64;
        let busy: u64 = shards.iter().map(|s| s.dur_ns()).sum();
        let slots = workers * run.dur_ns();
        let idle = slots.saturating_sub(busy);
        t.row(vec![
            (i + 1).to_string(),
            workers.to_string(),
            fmt_secs(run.dur_ns()),
            fmt_secs(busy),
            fmt_secs(idle),
            if slots > 0 { fmt_pct(busy as f64 / slots as f64) } else { "n/a".to_string() },
        ]);
    }
    Some(t)
}

fn counter(doc: &Json, name: &str) -> u64 {
    doc.get(&format!("counters/{name}")).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// Warm-start effectiveness from the metrics snapshot: simplex basis
/// reuse (per terminal LP solve) and rowgen solve-context reuse (per
/// cutting-plane run).
pub fn warmstart_table(metrics: &Json) -> Table {
    let mut t =
        Table::new("warm-start hit rates", &["layer", "attempts", "hits", "hit_rate", "note"]);
    let hits = counter(metrics, "simplex.warmstart_hits");
    let falls = counter(metrics, "simplex.warmstart_fallbacks");
    let attempts = hits + falls;
    let rate = |h: u64, a: u64| {
        if a == 0 {
            "n/a".to_string()
        } else {
            fmt_pct(h as f64 / a as f64)
        }
    };
    // Fallback attribution: `warmstart_fallbacks` is the sum of the two
    // cause counters (rejected = basis failed validation and the dual
    // phase could not repair it; singular = factorization died).
    let rejected = counter(metrics, "simplex.warmstart_rejected");
    let singular = counter(metrics, "simplex.warmstart_singular");
    t.row(vec![
        "simplex basis".to_string(),
        attempts.to_string(),
        hits.to_string(),
        rate(hits, attempts),
        format!(
            "{} warm pivots; fallbacks: {rejected} rejected, {singular} singular",
            counter(metrics, "simplex.warmstart_iterations")
        ),
    ]);
    let dual_runs = counter(metrics, "simplex.dual_phase_runs");
    if dual_runs > 0 {
        let repairs = counter(metrics, "simplex.dual_repairs");
        t.row(vec![
            "dual repair".to_string(),
            dual_runs.to_string(),
            repairs.to_string(),
            rate(repairs, dual_runs),
            format!(
                "{} dual pivots, {} bound flips",
                counter(metrics, "simplex.dual_pivots"),
                counter(metrics, "simplex.dual_flips")
            ),
        ]);
    }
    let ctx_hits = counter(metrics, "rowgen.ctx_hits");
    let solves = counter(metrics, "rowgen.solves");
    t.row(vec![
        "rowgen context".to_string(),
        solves.to_string(),
        ctx_hits.to_string(),
        rate(ctx_hits, solves),
        format!("{} iterations saved", counter(metrics, "rowgen.iterations_saved")),
    ]);
    t
}

fn hist_field(doc: &Json, hist: &str, field: &str) -> f64 {
    doc.get(&format!("histograms/{hist}/{field}")).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Control-plane message accounting (`net.*`, the PR 9 counters) from
/// the metrics snapshot. `None` when the run held no cluster traffic.
/// The drop balance is restated in the note column so an unbalanced
/// snapshot is visible at a glance.
pub fn cluster_table(metrics: &Json) -> Option<Table> {
    let sends = counter(metrics, "net.sends");
    if sends == 0 {
        return None;
    }
    let delivered = counter(metrics, "net.delivered");
    let loss = counter(metrics, "net.drops_loss");
    let cut = counter(metrics, "net.drops_cut");
    let mut t = Table::new("control plane (net.*)", &["metric", "value", "note"]);
    let balance = if sends == delivered + loss + cut {
        "balanced".to_string()
    } else {
        format!("UNBALANCED: {} delivered + {} dropped", delivered, loss + cut)
    };
    t.row(vec!["sends".into(), sends.to_string(), balance]);
    t.row(vec!["delivered".into(), delivered.to_string(), String::new()]);
    t.row(vec!["drops".into(), (loss + cut).to_string(), format!("{loss} loss, {cut} cut")]);
    for name in ["retries", "timeouts", "heartbeats", "installs", "stale_epoch_rejects"] {
        t.row(vec![
            name.into(),
            counter(metrics, &format!("net.{name}")).to_string(),
            String::new(),
        ]);
    }
    t.row(vec![
        "recoveries".into(),
        counter(metrics, "net.recoveries").to_string(),
        format!(
            "{} repairs, {} rejected, {} LP follow-ups",
            counter(metrics, "net.repairs"),
            counter(metrics, "net.repairs_rejected"),
            counter(metrics, "net.lp_followups")
        ),
    ]);
    let asends = counter(metrics, "net.alert_sends");
    if asends > 0 {
        let adel = counter(metrics, "net.alert_delivered");
        let adrop = counter(metrics, "net.alert_drops");
        let ab = if asends == adel + adrop {
            "balanced".to_string()
        } else {
            format!("UNBALANCED: {adel} delivered + {adrop} dropped")
        };
        t.row(vec!["alert_sends".into(), asends.to_string(), ab]);
        t.row(vec![
            "alerts_forwarded".into(),
            counter(metrics, "net.alerts_forwarded").to_string(),
            format!("over {adel} delivered reports"),
        ]);
    }
    Some(t)
}

/// Hot-reload accounting (`reload.*`, the PR 8 counters) from the
/// metrics snapshot. `None` when the run never re-solved a manifest.
pub fn reload_table(metrics: &Json) -> Option<Table> {
    let resolves = counter(metrics, "reload.resolves");
    if resolves == 0 {
        return None;
    }
    let swaps = counter(metrics, "reload.swaps");
    let rejected = counter(metrics, "reload.rejected");
    let failed = counter(metrics, "reload.solve_failed");
    let us = counter(metrics, "reload.resolve_us");
    let mut t = Table::new("live reconfiguration (reload.*)", &["metric", "value", "note"]);
    t.row(vec![
        "resolves".into(),
        resolves.to_string(),
        format!("{:.1} ms avg", us as f64 / 1e3 / resolves as f64),
    ]);
    t.row(vec!["swaps".into(), swaps.to_string(), String::new()]);
    t.row(vec!["rejected".into(), rejected.to_string(), "failed validation, kept serving".into()]);
    t.row(vec!["solve_failed".into(), failed.to_string(), String::new()]);
    Some(t)
}

/// Alert-plane accounting (`alert.*`, mirrored from the pipeline) from
/// the metrics snapshot. `None` when no structured alert was emitted.
pub fn alerts_table(metrics: &Json) -> Option<Table> {
    let emitted = counter(metrics, "alert.emitted");
    if emitted == 0 {
        return None;
    }
    let written = counter(metrics, "alert.written");
    let deduped = counter(metrics, "alert.deduped");
    let dropped = counter(metrics, "alert.dropped_ratelimit");
    let mut t = Table::new("alert plane (alert.*)", &["metric", "value", "note"]);
    let balance = if emitted == written + deduped + dropped {
        "balanced".to_string()
    } else {
        format!("UNBALANCED: {written} written + {deduped} deduped + {dropped} dropped")
    };
    t.row(vec!["emitted".into(), emitted.to_string(), balance]);
    t.row(vec!["written".into(), written.to_string(), String::new()]);
    t.row(vec!["deduped".into(), deduped.to_string(), "suppression window".into()]);
    t.row(vec!["dropped_ratelimit".into(), dropped.to_string(), "token bucket".into()]);
    Some(t)
}

/// Emission-path latency from the `alert.emit_ns` histogram: the
/// count/sum pair gives the mean, the exported quantiles the tail.
/// `None` when the histogram never observed an emission.
pub fn alert_latency_table(metrics: &Json) -> Option<Table> {
    let count = hist_field(metrics, "alert.emit_ns", "count");
    if count <= 0.0 {
        return None;
    }
    let sum = hist_field(metrics, "alert.emit_ns", "sum");
    let mut t = Table::new(
        "alert emission latency (alert.emit_ns)",
        &["emits", "mean_ns", "p50_ns", "p95_ns", "p99_ns", "total_ms"],
    );
    t.row(vec![
        format!("{count:.0}"),
        format!("{:.0}", sum / count),
        format!("{:.0}", hist_field(metrics, "alert.emit_ns", "p50")),
        format!("{:.0}", hist_field(metrics, "alert.emit_ns", "p95")),
        format!("{:.0}", hist_field(metrics, "alert.emit_ns", "p99")),
        format!("{:.3}", sum / 1e6),
    ]);
    Some(t)
}

/// Render the span forest as a Chrome-trace / Perfetto document
/// (`chrome://tracing` "JSON array" format; durations in microseconds).
pub fn chrome_trace(j: &Journal) -> String {
    let mut out = String::from("[");
    for (i, s) in j.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
            Json::Str(s.name.clone()).render(),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
        );
    }
    out.push_str("\n]\n");
    out
}

/// Run the full report against on-disk artifacts; prints to stdout.
/// `metrics` and `chrome_out` are optional.
pub fn run(
    trace: &std::path::Path,
    metrics: Option<&std::path::Path>,
    top: usize,
    chrome_out: Option<&std::path::Path>,
) -> Result<(), String> {
    let text = std::fs::read_to_string(trace)
        .map_err(|e| format!("cannot read trace {}: {e}", trace.display()))?;
    let j = parse_journal(&text);
    println!(
        "journal: {} spans ({} unclosed), {} events, {} malformed lines\n",
        j.spans.len(),
        j.unclosed,
        j.events,
        j.malformed
    );
    match phase_table(&j) {
        Some(t) => println!("{}", t.ascii()),
        None => println!("(no root `repro` span — phase breakdown unavailable)\n"),
    }
    println!("{}", hottest_table(&j, top).ascii());
    if let Some(t) = stream_shard_table(&j) {
        println!("{}", t.ascii());
    }
    if let Some(mpath) = metrics {
        let mtext = std::fs::read_to_string(mpath)
            .map_err(|e| format!("cannot read metrics {}: {e}", mpath.display()))?;
        let doc = parse_json(&mtext).map_err(|e| format!("bad metrics JSON: {e}"))?;
        println!("{}", warmstart_table(&doc).ascii());
        for t in [reload_table(&doc), cluster_table(&doc), alerts_table(&doc)].into_iter().flatten()
        {
            println!("{}", t.ascii());
        }
        if let Some(t) = alert_latency_table(&doc) {
            println!("{}", t.ascii());
        }
    }
    if let Some(cpath) = chrome_out {
        std::fs::write(cpath, chrome_trace(&j))
            .map_err(|e| format!("cannot write {}: {e}", cpath.display()))?;
        println!("chrome trace written to {}", cpath.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic journal: root `repro` (tid 0, 0–100ms) with two phase
    /// children, one of which fans out to a worker on tid 1; plus an
    /// instant event and an unclosed span.
    fn synthetic() -> &'static str {
        concat!(
            "{\"ev\":\"B\",\"name\":\"repro\",\"id\":1,\"parent\":null,\"tid\":0,\"ts\":0}\n",
            "{\"ev\":\"B\",\"name\":\"phase.fig5\",\"id\":2,\"parent\":1,\"tid\":0,\"ts\":1000000}\n",
            "{\"ev\":\"B\",\"name\":\"parallel.worker\",\"id\":3,\"parent\":2,\"tid\":1,\"ts\":2000000}\n",
            "{\"ev\":\"I\",\"name\":\"simplex.warm_diag\",\"id\":4,\"parent\":3,\"tid\":1,\"ts\":2500000}\n",
            "{\"ev\":\"E\",\"id\":3,\"tid\":1,\"ts\":42000000}\n",
            "{\"ev\":\"E\",\"id\":2,\"tid\":0,\"ts\":61000000}\n",
            "{\"ev\":\"B\",\"name\":\"phase.warm\",\"id\":5,\"parent\":1,\"tid\":0,\"ts\":61000000}\n",
            "{\"ev\":\"E\",\"id\":5,\"tid\":0,\"ts\":99000000}\n",
            "{\"ev\":\"B\",\"name\":\"orphan\",\"id\":6,\"parent\":1,\"tid\":0,\"ts\":99000000}\n",
            "{\"ev\":\"E\",\"id\":1,\"tid\":0,\"ts\":100000000}\n",
        )
    }

    #[test]
    fn journal_joins_spans_and_counts_strays() {
        let j = parse_journal(synthetic());
        assert_eq!(j.spans.len(), 5);
        assert_eq!(j.events, 1);
        assert_eq!(j.malformed, 0);
        assert_eq!(j.unclosed, 1);
        let root = j.spans.iter().find(|s| s.name == "repro").unwrap();
        assert_eq!((root.start_ns, root.end_ns), (0, 100000000));
        assert!(root.closed);
        let orphan = j.spans.iter().find(|s| s.name == "orphan").unwrap();
        assert!(!orphan.closed);
        assert_eq!(orphan.end_ns, 100000000, "unclosed spans clamp to the journal's last ts");
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let text = "not json at all\n{\"ev\":\"E\",\"id\":99,\"tid\":0,\"ts\":5}\n{\"ev\":\"B\",\"id\":1,\"tid\":0,\"ts\":1}\n";
        let j = parse_journal(text);
        // Bad syntax, close-without-open, and B-without-name all count.
        assert_eq!(j.malformed, 3);
        assert!(j.spans.is_empty());
    }

    #[test]
    fn phase_breakdown_sums_against_root() {
        let j = parse_journal(synthetic());
        let cov = phase_coverage(&j).unwrap();
        // (60µs + 38µs) / 100µs.
        assert!((cov - 0.98).abs() < 1e-9, "coverage {cov}");
        let t = phase_table(&j).unwrap();
        assert_eq!(t.rows.len(), 4); // two phases + all-phases + run-total
        assert_eq!(t.rows[0][0], "fig5");
        assert_eq!(t.rows[2][2], "98.0%");
    }

    #[test]
    fn self_time_excludes_same_thread_children_only() {
        let j = parse_journal(synthetic());
        let t = hottest_table(&j, 10);
        let row = |name: &str| {
            t.rows.iter().find(|r| r[0] == name).unwrap_or_else(|| panic!("{name} missing"))
        };
        // repro: 100ms total − (60 + 38 + 1)ms same-tid children = 1ms.
        assert_eq!(row("repro")[2], "0.001");
        assert_eq!(row("repro")[3], "0.100");
        // phase.fig5 keeps its full 60ms: its only child is on another tid.
        let fig5 = row("phase.fig5");
        assert_eq!(fig5[2], "0.060");
        assert_eq!(fig5[2], fig5[3]);
        // Sorted by self time: the 60ms phase leads, the root (1ms self,
        // everything delegated) trails.
        assert_eq!(t.rows[0][0], "phase.fig5");
        assert_eq!(t.rows[1][0], "parallel.worker");
    }

    #[test]
    fn warmstart_rates_from_metrics_doc() {
        let doc = parse_json(
            "{\"counters\":{\"simplex.warmstart_hits\":9,\"simplex.warmstart_fallbacks\":1,\
             \"simplex.warmstart_rejected\":1,\"simplex.warmstart_singular\":0,\
             \"rowgen.ctx_hits\":4,\"rowgen.solves\":8,\"rowgen.iterations_saved\":123}}",
        )
        .unwrap();
        let t = warmstart_table(&doc);
        assert_eq!(t.rows[0][3], "90.0%");
        // Fallback attribution lands in the note column.
        assert!(t.rows[0][4].contains("1 rejected"), "note: {}", t.rows[0][4]);
        assert!(t.rows[0][4].contains("0 singular"), "note: {}", t.rows[0][4]);
        // No dual runs recorded → no dual-repair row.
        assert_eq!(t.rows[1][0], "rowgen context");
        assert_eq!(t.rows[1][3], "50.0%");
        assert!(t.rows[1][4].contains("123"));
        // Empty doc: no division by zero.
        let t0 = warmstart_table(&parse_json("{}").unwrap());
        assert_eq!(t0.rows[0][3], "n/a");
    }

    #[test]
    fn warmstart_table_attributes_dual_repairs() {
        let doc = parse_json(
            "{\"counters\":{\"simplex.warmstart_hits\":11,\"simplex.warmstart_fallbacks\":0,\
             \"simplex.dual_phase_runs\":11,\"simplex.dual_repairs\":11,\
             \"simplex.dual_pivots\":42,\"simplex.dual_flips\":3}}",
        )
        .unwrap();
        let t = warmstart_table(&doc);
        assert_eq!(t.rows[1][0], "dual repair");
        assert_eq!(t.rows[1][1], "11");
        assert_eq!(t.rows[1][3], "100.0%");
        assert!(t.rows[1][4].contains("42 dual pivots"));
        assert!(t.rows[1][4].contains("3 bound flips"));
    }

    #[test]
    fn stream_shard_utilization_attributes_busy_and_idle() {
        // One streaming run 0–10ms with two shard workers: 8ms and 4ms.
        // Slot area = 2 × 10ms = 20ms, busy = 12ms → 60% busy, 8ms idle.
        let text = concat!(
            "{\"ev\":\"B\",\"name\":\"engine.stream\",\"id\":1,\"parent\":null,\"tid\":0,\"ts\":0}\n",
            "{\"ev\":\"B\",\"name\":\"parallel.worker\",\"id\":2,\"parent\":1,\"tid\":1,\"ts\":100000}\n",
            "{\"ev\":\"B\",\"name\":\"engine.stream_shard\",\"id\":3,\"parent\":2,\"tid\":1,\"ts\":1000000}\n",
            "{\"ev\":\"E\",\"id\":3,\"tid\":1,\"ts\":9000000}\n",
            "{\"ev\":\"B\",\"name\":\"engine.stream_shard\",\"id\":4,\"parent\":2,\"tid\":2,\"ts\":2000000}\n",
            "{\"ev\":\"E\",\"id\":4,\"tid\":2,\"ts\":6000000}\n",
            "{\"ev\":\"E\",\"id\":2,\"tid\":1,\"ts\":9500000}\n",
            "{\"ev\":\"E\",\"id\":1,\"tid\":0,\"ts\":10000000}\n",
        );
        let j = parse_journal(text);
        let t = stream_shard_table(&j).expect("journal has a streaming run");
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0][1], "2");
        assert_eq!(t.rows[0][2], "0.010");
        assert_eq!(t.rows[0][3], "0.012");
        assert_eq!(t.rows[0][4], "0.008");
        assert_eq!(t.rows[0][5], "60.0%");
        // A journal without streaming runs yields no table.
        assert!(stream_shard_table(&parse_journal(synthetic())).is_none());
    }

    #[test]
    fn stream_shard_utilization_counts_each_worker_once() {
        // One streaming run 0–10ms; worker (0, 0) replays two chunks of
        // 3ms each, worker (0, 1) one chunk of 4ms. Two workers, busy
        // 10ms of a 20ms slot area.
        let text = concat!(
            "{\"ev\":\"B\",\"name\":\"engine.stream\",\"id\":1,\"tid\":0,\"ts\":0}\n",
            "{\"ev\":\"B\",\"name\":\"engine.stream_shard\",\"id\":2,\"parent\":1,\"tid\":1,",
            "\"ts\":1000000,\"f\":{\"node\":0,\"shard\":0}}\n",
            "{\"ev\":\"E\",\"id\":2,\"tid\":1,\"ts\":4000000}\n",
            "{\"ev\":\"B\",\"name\":\"engine.stream_shard\",\"id\":3,\"parent\":1,\"tid\":1,",
            "\"ts\":5000000,\"f\":{\"node\":0,\"shard\":0}}\n",
            "{\"ev\":\"E\",\"id\":3,\"tid\":1,\"ts\":8000000}\n",
            "{\"ev\":\"B\",\"name\":\"engine.stream_shard\",\"id\":4,\"parent\":1,\"tid\":2,",
            "\"ts\":2000000,\"f\":{\"node\":0,\"shard\":1}}\n",
            "{\"ev\":\"E\",\"id\":4,\"tid\":2,\"ts\":6000000}\n",
            "{\"ev\":\"E\",\"id\":1,\"tid\":0,\"ts\":10000000}\n",
        );
        let t = stream_shard_table(&parse_journal(text)).expect("journal has a streaming run");
        assert_eq!(t.rows[0][1], "2");
        assert_eq!(t.rows[0][3], "0.010");
        assert_eq!(t.rows[0][4], "0.010");
        assert_eq!(t.rows[0][5], "50.0%");
    }

    #[test]
    fn cluster_table_balances_and_surfaces_alert_forwarding() {
        let doc = parse_json(
            "{\"counters\":{\"net.sends\":100,\"net.delivered\":90,\"net.drops_loss\":7,\
             \"net.drops_cut\":3,\"net.retries\":5,\"net.heartbeats\":60,\"net.installs\":8,\
             \"net.alert_sends\":20,\"net.alert_delivered\":18,\"net.alert_drops\":2,\
             \"net.alerts_forwarded\":37}}",
        )
        .unwrap();
        let t = cluster_table(&doc).expect("sends > 0 yields a table");
        assert_eq!(t.rows[0][2], "balanced");
        let alert_row = t.rows.iter().find(|r| r[0] == "alert_sends").unwrap();
        assert_eq!(alert_row[1], "20");
        assert_eq!(alert_row[2], "balanced");
        assert!(t.rows.iter().any(|r| r[0] == "alerts_forwarded" && r[1] == "37"));

        // An unbalanced snapshot says so instead of hiding it.
        let bad = parse_json("{\"counters\":{\"net.sends\":10,\"net.delivered\":7}}").unwrap();
        let t = cluster_table(&bad).unwrap();
        assert!(t.rows[0][2].starts_with("UNBALANCED"), "note: {}", t.rows[0][2]);
        // No cluster traffic → no table.
        assert!(cluster_table(&parse_json("{}").unwrap()).is_none());
    }

    #[test]
    fn reload_table_reports_resolve_attribution() {
        let doc = parse_json(
            "{\"counters\":{\"reload.resolves\":4,\"reload.swaps\":3,\"reload.rejected\":1,\
             \"reload.solve_failed\":0,\"reload.resolve_us\":8000}}",
        )
        .unwrap();
        let t = reload_table(&doc).expect("resolves > 0 yields a table");
        assert_eq!(t.rows[0][1], "4");
        assert_eq!(t.rows[0][2], "2.0 ms avg");
        assert!(t.rows.iter().any(|r| r[0] == "swaps" && r[1] == "3"));
        assert!(reload_table(&parse_json("{}").unwrap()).is_none());
    }

    #[test]
    fn alerts_tables_consume_counters_and_histogram_count_sum() {
        let doc = parse_json(
            "{\"counters\":{\"alert.emitted\":100,\"alert.written\":70,\"alert.deduped\":20,\
             \"alert.dropped_ratelimit\":10},\
             \"histograms\":{\"alert.emit_ns\":{\"count\":100,\"sum\":25000,\
             \"p50\":200,\"p95\":450,\"p99\":700}}}",
        )
        .unwrap();
        let t = alerts_table(&doc).expect("emitted > 0 yields a table");
        assert_eq!(t.rows[0][2], "balanced");
        assert!(t.rows.iter().any(|r| r[0] == "dropped_ratelimit" && r[1] == "10"));
        let lat = alert_latency_table(&doc).expect("histogram observed emissions");
        // mean = sum/count: the count/sum pair json.rs exports.
        assert_eq!(lat.rows[0][1], "250");
        assert_eq!(lat.rows[0][3], "450");
        assert_eq!(lat.rows[0][5], "0.025");

        let bad = parse_json("{\"counters\":{\"alert.emitted\":5,\"alert.written\":4}}").unwrap();
        assert!(alerts_table(&bad).unwrap().rows[0][2].starts_with("UNBALANCED"));
        assert!(alerts_table(&parse_json("{}").unwrap()).is_none());
        assert!(alert_latency_table(&parse_json("{}").unwrap()).is_none());
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_span() {
        let j = parse_journal(synthetic());
        let text = chrome_trace(&j);
        let doc = parse_json(&text).expect("chrome trace must be valid JSON");
        match doc {
            Json::Arr(items) => {
                assert_eq!(items.len(), 5);
                for it in &items {
                    assert_eq!(it.get("ph").and_then(Json::as_str), Some("X"));
                    assert!(it.get("dur").and_then(Json::as_f64).is_some());
                }
            }
            other => panic!("expected array, got {other:?}"),
        }
    }
}
