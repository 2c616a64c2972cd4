//! `repro alerts` — the production alert plane end to end (ISSUE 10).
//!
//! Streams the standard Internet2 / 9-module deployment through the
//! sharded engine with the structured alert plane enabled: every
//! detection site emits a typed [`nwdp_obs::AlertRecord`], per-thread
//! buffers drain into the deterministic merge, the suppression window
//! and token-bucket rate limiter filter the batch, and the survivors go
//! out through **both** egress encoders at once — `alerts.jsonl` and
//! `alerts.cef` under the results directory.
//!
//! The run asserts the ISSUE 10 acceptance criteria directly:
//!
//! - the accounting balances **exactly**: `emitted == written + deduped
//!   + dropped_ratelimit` (nothing is silently lossy);
//! - every JSONL line re-parses and carries the full typed record;
//! - every CEF line splits into exactly 7 unescaped-pipe header fields
//!   plus an extension, and both files hold exactly `written` lines.
//!
//! Tuning comes from the `NWDP_ALERT_RATE` / `NWDP_ALERT_BURST` /
//! `NWDP_ALERT_SUPPRESS` knobs when set (same warn-once fallback as
//! everywhere else); unset knobs get bench defaults chosen to exercise
//! both the suppression and the rate-limit paths, so the attribution
//! tables are non-trivial out of the box.
//!
//! Results go to `results/alerts_summary.csv`, `alerts_by_class.csv`
//! and `alerts_top_talkers.csv`.

use crate::output::{f2, pct, Table};
use crate::scenario::NidsContext;
use crate::Scale;
use nwdp_core::parallel;
use nwdp_engine::{run_coordinated_stream, stream_shards, Placement};
use nwdp_hash::KeyedHasher;
use nwdp_obs as obs;
use nwdp_traffic::{SessionStream, TraceConfig};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One full alert-plane run plus the egress audit.
#[derive(Debug)]
pub struct AlertsBench {
    pub sessions: usize,
    pub shards: usize,
    pub threads: usize,
    pub wall_s: f64,
    /// Effective pipeline tuning (env knobs over bench defaults).
    pub cfg: obs::AlertConfig,
    /// Cumulative pipeline accounting after the final flush.
    pub stats: obs::AlertStats,
    /// `(class, written, deduped, dropped_ratelimit)` per module class.
    pub per_class: Vec<(String, u64, u64, u64)>,
    /// Top talkers by written alerts (source address, else subject).
    pub talkers: Vec<(u64, u64)>,
    /// Unique engine alerts (the legacy `BTreeSet<Alert>` contract).
    pub engine_alerts: usize,
    pub jsonl_path: PathBuf,
    pub cef_path: PathBuf,
    /// Emission-path latency (ns) from the `alert.emit_ns` histogram.
    pub p50_emit_ns: f64,
    pub p95_emit_ns: f64,
    pub p99_emit_ns: f64,
    pub emit_count: u64,
}

/// Env knobs over bench defaults. The default rate deliberately starves
/// the token bucket (the replay clock spans one unit, so a rate of a
/// few hundred against thousands of detections keeps the limiter busy).
/// The suppression window stays small: coordinated sampling makes
/// detection *exactly-once* per (class, subject) on almost every run —
/// only fractional unit splits ever re-detect across nodes — so the
/// dedup column measuring ~0 here is itself a property of the paper's
/// architecture, not a dead code path (the obs unit tests drive it).
fn bench_config() -> obs::AlertConfig {
    let mut cfg = nwdp_core::alertcfg::alert_config_from_env();
    if std::env::var_os("NWDP_ALERT_RATE").is_none() {
        cfg.rate = 200.0;
    }
    if std::env::var_os("NWDP_ALERT_BURST").is_none() {
        cfg.burst = 50.0;
    }
    if std::env::var_os("NWDP_ALERT_SUPPRESS").is_none() {
        cfg.suppress = 0.0005;
    }
    cfg
}

/// Run the alert-plane bench at `scale`, writing the egress files under
/// `out`. Panics when any acceptance check fails — alert volume
/// numbers for an unbalanced or unparseable egress are worthless.
pub fn run(scale: Scale, out: &Path) -> AlertsBench {
    let sessions = match scale {
        Scale::Quick => 20_000,
        Scale::Full => 100_000,
    };
    let seed = 17u64;
    let ctx = NidsContext::internet2();
    let dep = ctx.deployment(9);
    let (_assignment, manifest) = ctx.manifests(&dep);
    let cfg_trace = TraceConfig::new(sessions, seed);
    let hasher = KeyedHasher::with_key(5);
    let shards = stream_shards();
    let threads = parallel::num_threads();

    std::fs::create_dir_all(out).expect("create results dir");
    let jsonl_path = out.join("alerts.jsonl");
    let cef_path = out.join("alerts.cef");
    let acfg = bench_config();

    // Alert plane + metrics on for the run; everything restored after.
    let was_obs = obs::enabled();
    let was_alert = obs::alert_enabled();
    obs::set_enabled(true);
    obs::clear_alert_writers();
    obs::reset_alerts();
    obs::set_alert_config(acfg);
    // One replay-clock unit spans the whole trace: ts = session / total.
    obs::set_alert_clock_scale(1.0 / sessions as f64);
    obs::add_alert_writer(
        obs::AlertFormat::Jsonl,
        Box::new(BufWriter::new(std::fs::File::create(&jsonl_path).expect("create jsonl egress"))),
    );
    obs::add_alert_writer(
        obs::AlertFormat::Cef,
        Box::new(BufWriter::new(std::fs::File::create(&cef_path).expect("create cef egress"))),
    );
    obs::set_alert_enabled(true);
    let hist = obs::histogram("alert.emit_ns", &obs::emit_latency_bounds());
    hist.reset();

    let t0 = Instant::now();
    let net = run_coordinated_stream(
        &dep,
        &manifest,
        &ctx.paths,
        || SessionStream::new(&ctx.topo, &ctx.tm, &cfg_trace),
        Placement::EventEngine,
        hasher,
        shards,
    )
    .expect("stream run");
    let stats = obs::flush_alerts().expect("alert egress");
    let wall_s = t0.elapsed().as_secs_f64();
    let per_class = obs::alert_class_stats();
    let talkers = obs::alert_top_talkers(10);

    obs::set_alert_enabled(was_alert);
    obs::clear_alert_writers();
    obs::set_alert_clock_scale(1.0);
    obs::set_enabled(was_obs);

    // Accounting: exact balance, and the plane actually saw the engine's
    // detections (cross-shard and cross-node duplicates only add).
    assert_eq!(
        stats.emitted,
        stats.written + stats.deduped + stats.dropped_ratelimit,
        "alert accounting must balance exactly: {stats:?}"
    );
    assert!(stats.written > 0, "a full engine run must write alerts");
    assert!(
        stats.emitted >= net.alerts.len() as u64,
        "emitted {} < {} unique engine alerts",
        stats.emitted,
        net.alerts.len()
    );

    // Egress audit: both files hold exactly the written records, every
    // line structurally valid for its format.
    let jsonl_lines = validate_jsonl(&jsonl_path);
    let cef_lines = validate_cef(&cef_path);
    assert_eq!(jsonl_lines as u64, stats.written, "jsonl line count vs written");
    assert_eq!(cef_lines as u64, stats.written, "cef line count vs written");

    AlertsBench {
        sessions,
        shards,
        threads,
        wall_s,
        cfg: acfg,
        stats,
        per_class,
        talkers,
        engine_alerts: net.alerts.len(),
        jsonl_path,
        cef_path,
        p50_emit_ns: hist.quantile(0.5),
        p95_emit_ns: hist.quantile(0.95),
        p99_emit_ns: hist.quantile(0.99),
        emit_count: hist.count(),
    }
}

/// Every line must re-parse as a JSON object carrying the full typed
/// record. Returns the line count.
fn validate_jsonl(path: &Path) -> usize {
    let text = std::fs::read_to_string(path).expect("read jsonl egress");
    let mut n = 0;
    for line in text.lines() {
        let doc = obs::parse_json(line)
            .unwrap_or_else(|e| panic!("jsonl line {} unparseable ({e}): {line}", n + 1));
        for field in [
            "ts", "node", "class", "kind", "subject", "severity", "src_ip", "dst_ip", "src_port",
            "dst_port", "proto",
        ] {
            assert!(doc.get(field).is_some(), "jsonl line {} missing {field}: {line}", n + 1);
        }
        n += 1;
    }
    n
}

/// Every line must split into exactly 7 unescaped-pipe header fields
/// plus an extension whose values unescape cleanly. Returns the count.
fn validate_cef(path: &Path) -> usize {
    let text = std::fs::read_to_string(path).expect("read cef egress");
    let mut n = 0;
    for line in text.lines() {
        let (header, ext) =
            obs::split_cef(line).unwrap_or_else(|| panic!("cef line {} malformed: {line}", n + 1));
        assert_eq!(header[0], "CEF:0", "cef line {} version: {line}", n + 1);
        assert!(
            header.iter().all(|f| obs::cef_unescape(f).is_some()),
            "cef line {} header does not unescape: {line}",
            n + 1
        );
        assert!(!ext.is_empty(), "cef line {} has no extension: {line}", n + 1);
        n += 1;
    }
    n
}

/// Headline summary: volume, filter attribution, emission latency.
pub fn table(b: &AlertsBench) -> Table {
    let mut t = Table::new(
        "Alert plane: volume, suppression/rate-limit attribution, emission latency",
        &[
            "sessions",
            "shards",
            "threads",
            "wall_s",
            "emitted",
            "written",
            "deduped",
            "dropped_rl",
            "rate",
            "burst",
            "suppress",
            "p50_emit_ns",
            "p95_emit_ns",
            "p99_emit_ns",
        ],
    );
    t.row(vec![
        b.sessions.to_string(),
        b.shards.to_string(),
        b.threads.to_string(),
        f2(b.wall_s),
        b.stats.emitted.to_string(),
        b.stats.written.to_string(),
        b.stats.deduped.to_string(),
        b.stats.dropped_ratelimit.to_string(),
        f2(b.cfg.rate),
        f2(b.cfg.burst),
        format!("{:.4}", b.cfg.suppress),
        format!("{:.0}", b.p50_emit_ns),
        format!("{:.0}", b.p95_emit_ns),
        format!("{:.0}", b.p99_emit_ns),
    ]);
    t
}

/// Per-class rates: where the volume comes from and which filter ate it.
pub fn class_table(b: &AlertsBench) -> Table {
    let mut t = Table::new(
        "Alerts by class (written / deduped / rate-limited, share of written)",
        &["class", "written", "deduped", "dropped_rl", "share"],
    );
    let total = b.stats.written.max(1) as f64;
    for (class, written, deduped, dropped) in &b.per_class {
        t.row(vec![
            class.clone(),
            written.to_string(),
            deduped.to_string(),
            dropped.to_string(),
            pct(*written as f64 / total),
        ]);
    }
    t
}

/// Top talkers by written alerts. The key is the source address when the
/// record carried a 5-tuple, else the detection subject.
pub fn talkers_table(b: &AlertsBench) -> Table {
    let mut t =
        Table::new("Top talkers by written alerts", &["talker", "as_ipv4", "written", "share"]);
    let total = b.stats.written.max(1) as f64;
    for &(key, count) in &b.talkers {
        let dotted = if key > 0 && key <= u32::MAX as u64 {
            let v = key as u32;
            format!("{}.{}.{}.{}", v >> 24, (v >> 16) & 255, (v >> 8) & 255, v & 255)
        } else {
            "-".to_string()
        };
        t.row(vec![key.to_string(), dotted, count.to_string(), pct(count as f64 / total)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_balances_and_both_egress_files_validate() {
        let dir = std::env::temp_dir().join("nwdp_alerts_bench_test");
        let _ = std::fs::remove_dir_all(&dir);
        // `run` asserts balance, line counts, and per-line validity; the
        // validators re-run here only to pin the audit to fresh reads.
        let b = obs::scoped(&obs::Recorder::new(), || run(Scale::Quick, &dir));
        assert_eq!(b.stats.emitted, b.stats.written + b.stats.deduped + b.stats.dropped_ratelimit);
        assert!(b.stats.written > 0);
        assert_eq!(validate_jsonl(&b.jsonl_path) as u64, b.stats.written);
        assert_eq!(validate_cef(&b.cef_path) as u64, b.stats.written);
        // The default rate starves the bucket on the full scenario, and
        // coordinated sampling keeps detection (nearly) exactly-once:
        // emissions exceed unique engine alerts only by cross-node
        // re-detections of fractionally split units.
        assert!(b.stats.dropped_ratelimit > 0, "default rate must exercise the limiter");
        assert!(b.stats.emitted >= b.engine_alerts as u64);
        assert!(b.emit_count >= b.stats.emitted, "every emit observes the latency histogram");
        assert_eq!(table(&b).rows.len(), 1);
        assert!(!class_table(&b).rows.is_empty());
        assert!(!talkers_table(&b).rows.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
