//! Structured alert plane: typed detection records with sanitized
//! JSONL/CEF egress, suppression windows, and token-bucket rate limiting.
//!
//! # Model
//!
//! A detection site calls [`emit_alert`] with a detection class, kind,
//! subject, severity and (when available) the triggering 5-tuple. The
//! record is stamped with the emitting thread's replay context — node id
//! and session id, set once per session via [`set_alert_context`] — and
//! buffered in a per-thread `Vec` (no lock), following the trace-journal
//! discipline: buffers drain to the current [`crate::Recorder`]'s pending
//! queue when they fill, when the thread leaves a [`crate::scoped`] block
//! or when it exits (panicking workers drain during unwind). Apart from
//! those buffers, every piece of alert state belongs to a recorder.
//!
//! [`flush_alerts`] merges the pending queue deterministically (total
//! order over every record field, so shard count and thread schedule
//! never change the output), applies the suppression window and the
//! token bucket, and encodes the survivors to every installed writer.
//! Timestamps are replay-clock fractions (`session_id ×`
//! [`set_alert_clock_scale`]), not wall time, so rate limiting and
//! suppression are reproducible run to run.
//!
//! # Accounting — never silently lossy
//!
//! Every emitted record ends up in exactly one bucket:
//!
//! ```text
//! emitted == written + deduped + dropped_ratelimit      (after a flush)
//! ```
//!
//! [`alert_stats`] exposes the four counters; when metric collection is
//! on they are mirrored into the recorder's `alert.*` counters at flush
//! time. A record is `written` when it clears the
//! pipeline, even if no writer is installed — the pipeline decision, not
//! the file system, is what the invariant tracks.
//!
//! # Egress formats
//!
//! - **JSONL** — one flat JSON object per line, string fields escaped
//!   exactly like the trace journal; hostile field contents (quotes,
//!   braces, control characters) round-trip through [`crate::parse_json`].
//! - **CEF** — `CEF:0|nwdp|nids|0.1|kind|name|severity|extension` with
//!   strict sanitization: `\`, `|`, newlines and control characters are
//!   escaped in header fields, `=` additionally in extension values.
//!   The escape is injective ([`cef_unescape`] inverts it) and the
//!   output is always a single line with exactly seven unescaped pipes
//!   ([`split_cef`] validates) — a hostile alert field can never inject
//!   a fake record or corrupt a real one.
//!
//! # Cost model
//!
//! The plane is **off by default**: [`alert_enabled`] is one relaxed
//! atomic load on the current recorder, and every call in this module
//! short-circuits on it.
//! With `NWDP_ALERT` unset nothing is stamped, buffered, or written —
//! outputs stay bit-identical to a build without the alert plane.

use crate::json::quote_into;
use crate::recorder::{lock, with_current};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One structured detection event.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRecord {
    /// Replay-clock timestamp (session id × clock scale), not wall time.
    pub ts: f64,
    /// Emitting node.
    pub node: u64,
    /// Detection class (module name, e.g. `"scan"`, `"http"`).
    pub class: String,
    /// Detection kind within the class (e.g. `"address_scan"`).
    pub kind: String,
    /// Dedup subject: what the detection is *about* (scanner address,
    /// flood victim, connection key).
    pub subject: u64,
    /// 1 (informational) ..= 10 (critical), CEF convention.
    pub severity: u8,
    pub src_ip: u32,
    pub dst_ip: u32,
    pub src_port: u16,
    pub dst_port: u16,
    pub proto: u8,
}

impl AlertRecord {
    /// Suppression key: two records with the same class/kind/subject are
    /// duplicates for windowing purposes.
    fn dedup_key(&self) -> (String, String, u64) {
        (self.class.clone(), self.kind.clone(), self.subject)
    }
}

/// Cumulative pipeline accounting; see the module docs for the balance
/// invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlertStats {
    pub emitted: u64,
    pub written: u64,
    pub deduped: u64,
    pub dropped_ratelimit: u64,
}

/// Egress encoding for an installed writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertFormat {
    Jsonl,
    Cef,
}

impl AlertFormat {
    /// Parse the `:format` suffix of `NWDP_ALERT=FILE[:format]`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "jsonl" | "json" => Some(AlertFormat::Jsonl),
            "cef" => Some(AlertFormat::Cef),
            _ => None,
        }
    }
}

/// Pipeline tuning. `rate`/`burst` are tokens on the replay clock (a
/// rate of 100 allows 100 written alerts per replay-time unit, i.e. per
/// full trace when the clock scale is `1/n_sessions`); `rate <= 0` or a
/// non-finite rate disables the limiter. `suppress` is the dedup window
/// on the same clock; records with an identical dedup key within
/// `suppress` of the last *written* one are counted `deduped` (a window
/// of 0 still folds exact same-timestamp duplicates, e.g. a shard-merge
/// re-detection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertConfig {
    pub rate: f64,
    pub burst: f64,
    pub suppress: f64,
}

impl Default for AlertConfig {
    fn default() -> Self {
        AlertConfig { rate: 0.0, burst: 32.0, suppress: 0.0 }
    }
}

/// One recorder's alert plane: gate, emitted count, clock scale, pending
/// queue, pipeline and egress writers.
#[derive(Default)]
pub(crate) struct AlertState {
    enabled: AtomicBool,
    emitted: AtomicU64,
    /// Replay-clock scale as f64 bits; 0 (the bits of 0.0) means "unset",
    /// read as 1.0.
    clock_scale: AtomicU64,
    pending: Mutex<Vec<AlertRecord>>,
    pipeline: Mutex<Pipeline>,
    writers: Mutex<Vec<AlertWriter>>,
}

/// Is the alert plane on for the current recorder? The only cost every
/// detection site pays when `NWDP_ALERT` is unset.
#[inline(always)]
pub fn alert_enabled() -> bool {
    with_current(|r| r.alerts.enabled.load(Ordering::Relaxed))
}

/// Turn the alert plane on or off for the current recorder.
pub fn set_alert_enabled(on: bool) {
    with_current(|r| r.alerts.enabled.store(on, Ordering::Relaxed));
}

/// Set the replay-clock scale: an emitted record's `ts` is
/// `session_id × scale`. Benches set `1 / n_sessions` so timestamps are
/// trace fractions in `[0, 1]`; the default is 1.0.
pub fn set_alert_clock_scale(scale: f64) {
    with_current(|r| r.alerts.clock_scale.store(scale.to_bits(), Ordering::Relaxed));
}

fn clock_scale() -> f64 {
    let bits = with_current(|r| r.alerts.clock_scale.load(Ordering::Relaxed));
    if bits == 0 {
        1.0
    } else {
        f64::from_bits(bits)
    }
}

/// Histogram bounds for `alert.emit_ns` (per-emit latency, ns).
pub fn emit_latency_bounds() -> Vec<f64> {
    crate::Histogram::exponential_bounds(20.0, 1.8, 24)
}

// ---------------------------------------------------------------------
// Per-thread collection
// ---------------------------------------------------------------------

const TLS_FLUSH_AT: usize = 1024;

struct LocalBuf {
    recs: Vec<AlertRecord>,
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        if !self.recs.is_empty() {
            with_current(|r| lock(&r.alerts.pending).append(&mut self.recs));
        }
    }
}

thread_local! {
    static BUF: RefCell<LocalBuf> = const { RefCell::new(LocalBuf { recs: Vec::new() }) };
    /// (node, session_id) replay context for records emitted on this
    /// thread.
    static CONTEXT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Stamp the replay context for subsequent [`emit_alert`] calls on this
/// thread. The engine calls this once per session (node id + session
/// id); it is a thread-local store, safe under the scoped-thread
/// fan-outs.
#[inline]
pub fn set_alert_context(node: u64, session_id: u64) {
    CONTEXT.with(|c| c.set((node, session_id)));
}

/// Emit one structured alert into the current recorder. No-op unless
/// [`alert_enabled`]. The record is buffered thread-locally; nothing is
/// encoded or written until [`flush_alerts`]. When metric collection is
/// also on, the emission latency lands in the `alert.emit_ns` histogram.
pub fn emit_alert(
    class: &str,
    kind: &str,
    subject: u64,
    severity: u8,
    tuple: Option<(u32, u32, u16, u16, u8)>,
) {
    if !alert_enabled() {
        return;
    }
    let t0 = crate::now_if_enabled();
    let (node, session_id) = CONTEXT.with(Cell::get);
    let (src_ip, dst_ip, src_port, dst_port, proto) = tuple.unwrap_or((0, 0, 0, 0, 0));
    let rec = AlertRecord {
        ts: session_id as f64 * clock_scale(),
        node,
        class: class.to_string(),
        kind: kind.to_string(),
        subject,
        severity,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        proto,
    };
    with_current(|r| r.alerts.emitted.fetch_add(1, Ordering::Relaxed));
    let full = BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.recs.push(rec);
        b.recs.len() >= TLS_FLUSH_AT
    });
    if full {
        drain_local();
    }
    if let Some(t0) = t0 {
        crate::histogram("alert.emit_ns", &emit_latency_bounds())
            .observe(t0.elapsed().as_nanos() as f64);
    }
}

/// Move this thread's buffered records to the current recorder's pending
/// queue.
pub(crate) fn drain_local() {
    let _ = BUF.try_with(|b| {
        let mut b = b.borrow_mut();
        if !b.recs.is_empty() {
            with_current(|r| lock(&r.alerts.pending).append(&mut b.recs));
        }
    });
}

// ---------------------------------------------------------------------
// Pipeline: deterministic merge → suppression → token bucket → egress
// ---------------------------------------------------------------------

#[derive(Default)]
struct Pipeline {
    cfg: AlertConfig,
    /// Token bucket state on the replay clock. `Default` leaves it empty,
    /// which is harmless: the default config runs no limiter, and
    /// [`set_alert_config`] refills the bucket.
    tokens: f64,
    clock: f64,
    /// Last *written* timestamp per dedup key.
    last_written: BTreeMap<(String, String, u64), f64>,
    written: u64,
    deduped: u64,
    dropped_ratelimit: u64,
    /// Per-class `[written, deduped, dropped_ratelimit]`.
    per_class: BTreeMap<String, [u64; 3]>,
    /// Written records per talker (source address, falling back to the
    /// subject for tuple-less records).
    talkers: BTreeMap<u64, u64>,
    /// `[emitted, written, deduped, dropped]` already mirrored into the
    /// metrics registry, so re-flushing adds only deltas.
    mirrored: [u64; 4],
}

impl Pipeline {
    /// Empty state with a full token bucket.
    fn new(cfg: AlertConfig) -> Self {
        Pipeline { cfg, tokens: cfg.burst, ..Pipeline::default() }
    }
}

type AlertWriter = (AlertFormat, Box<dyn Write + Send>);

/// Install an egress writer on the current recorder. Multiple writers
/// (e.g. JSONL and CEF side by side) each receive every written record;
/// the `written` counter still counts each record once.
pub fn add_alert_writer(format: AlertFormat, w: Box<dyn Write + Send>) {
    with_current(|r| lock(&r.alerts.writers).push((format, w)));
}

/// Drop all egress writers (tests and bench teardown).
pub fn clear_alert_writers() {
    with_current(|r| lock(&r.alerts.writers).clear());
}

/// Replace the pipeline tuning; refills the token bucket to the new
/// burst. Counters and suppression history are preserved.
pub fn set_alert_config(cfg: AlertConfig) {
    with_current(|r| {
        let mut pipe = lock(&r.alerts.pipeline);
        pipe.cfg = cfg;
        pipe.tokens = cfg.burst;
    });
}

/// Drain, merge, filter and encode every alert buffered for the current
/// recorder. Deterministic: the batch is sorted by a total order over all
/// record fields before the (stateful) suppression and rate-limit
/// passes, so thread schedule and shard count cannot change what is
/// written. Returns the updated cumulative stats; a writer error is
/// reported *after* the pipeline accounting is updated (the decision
/// stands even if the disk write failed).
pub fn flush_alerts() -> std::io::Result<AlertStats> {
    drain_local();
    with_current(|r| flush_state(&r.alerts))
}

fn flush_state(state: &AlertState) -> std::io::Result<AlertStats> {
    let mut batch = std::mem::take(&mut *lock(&state.pending));
    batch.sort_by(|a, b| {
        a.ts.total_cmp(&b.ts)
            .then_with(|| a.node.cmp(&b.node))
            .then_with(|| a.class.cmp(&b.class))
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| a.subject.cmp(&b.subject))
            .then_with(|| a.src_ip.cmp(&b.src_ip))
            .then_with(|| a.dst_ip.cmp(&b.dst_ip))
            .then_with(|| a.src_port.cmp(&b.src_port))
            .then_with(|| a.dst_port.cmp(&b.dst_port))
            .then_with(|| a.proto.cmp(&b.proto))
            .then_with(|| a.severity.cmp(&b.severity))
    });

    let mut out: Vec<AlertRecord> = Vec::with_capacity(batch.len());
    let stats;
    {
        let mut pipe = lock(&state.pipeline);
        for rec in batch {
            let key = rec.dedup_key();
            // Suppression window (≤ so exact same-instant duplicates fold
            // even at a window of 0).
            if let Some(&last) = pipe.last_written.get(&key) {
                if rec.ts - last <= pipe.cfg.suppress {
                    pipe.deduped += 1;
                    pipe.per_class.entry(rec.class.clone()).or_insert([0; 3])[1] += 1;
                    continue;
                }
            }
            // Token bucket on the replay clock.
            if pipe.cfg.rate > 0.0 && pipe.cfg.rate.is_finite() {
                if rec.ts > pipe.clock {
                    pipe.tokens =
                        pipe.cfg.burst.min(pipe.tokens + (rec.ts - pipe.clock) * pipe.cfg.rate);
                    pipe.clock = rec.ts;
                }
                if pipe.tokens >= 1.0 {
                    pipe.tokens -= 1.0;
                } else {
                    pipe.dropped_ratelimit += 1;
                    pipe.per_class.entry(rec.class.clone()).or_insert([0; 3])[2] += 1;
                    continue;
                }
            }
            pipe.written += 1;
            pipe.per_class.entry(rec.class.clone()).or_insert([0; 3])[0] += 1;
            let talker = if rec.src_ip != 0 { rec.src_ip as u64 } else { rec.subject };
            *pipe.talkers.entry(talker).or_insert(0) += 1;
            pipe.last_written.insert(key, rec.ts);
            out.push(rec);
        }
        stats = stats_of(state, &pipe);
        if crate::enabled() {
            let now = [stats.emitted, stats.written, stats.deduped, stats.dropped_ratelimit];
            let names =
                ["alert.emitted", "alert.written", "alert.deduped", "alert.dropped_ratelimit"];
            for (i, name) in names.iter().enumerate() {
                crate::counter(name).add(now[i].saturating_sub(pipe.mirrored[i]));
            }
            pipe.mirrored = now;
        }
    }

    let mut writers = lock(&state.writers);
    let mut first_err: Option<std::io::Error> = None;
    for (format, w) in writers.iter_mut() {
        for rec in &out {
            let line = match format {
                AlertFormat::Jsonl => encode_jsonl(rec),
                AlertFormat::Cef => encode_cef(rec),
            };
            let res = w.write_all(line.as_bytes()).and_then(|()| w.write_all(b"\n"));
            if let Err(e) = res {
                first_err.get_or_insert(e);
                break;
            }
        }
        if let Err(e) = w.flush() {
            first_err.get_or_insert(e);
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

fn stats_of(state: &AlertState, pipe: &Pipeline) -> AlertStats {
    AlertStats {
        emitted: state.emitted.load(Ordering::Relaxed),
        written: pipe.written,
        deduped: pipe.deduped,
        dropped_ratelimit: pipe.dropped_ratelimit,
    }
}

/// Current cumulative accounting. `emitted` includes records still
/// buffered; the balance invariant holds after [`flush_alerts`] once all
/// worker threads have left the recorder (their buffers drain when they
/// do).
pub fn alert_stats() -> AlertStats {
    with_current(|r| stats_of(&r.alerts, &lock(&r.alerts.pipeline)))
}

/// Per-class attribution: `(class, written, deduped, dropped_ratelimit)`
/// sorted by class name.
pub fn alert_class_stats() -> Vec<(String, u64, u64, u64)> {
    with_current(|r| {
        let pipe = lock(&r.alerts.pipeline);
        pipe.per_class.iter().map(|(c, v)| (c.clone(), v[0], v[1], v[2])).collect()
    })
}

/// Top `n` talkers by written alerts: `(source address or subject,
/// count)` sorted by count descending, then key ascending.
pub fn alert_top_talkers(n: usize) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> =
        with_current(|r| lock(&r.alerts.pipeline).talkers.iter().map(|(&k, &c)| (k, c)).collect());
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v.truncate(n);
    v
}

/// Reset the current recorder's pipeline state and counters (bench
/// setup). Does not touch installed writers, the tuning or the gate.
pub fn reset_alerts() {
    drain_local();
    with_current(|r| {
        let a = &r.alerts;
        lock(&a.pending).clear();
        a.emitted.store(0, Ordering::Relaxed);
        let mut pipe = lock(&a.pipeline);
        *pipe = Pipeline::new(pipe.cfg);
    });
}

// ---------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------

/// Encode one record as a single JSONL line (no trailing newline). The
/// output parses with [`crate::parse_json`] and string fields round-trip
/// whatever bytes the detection put in them.
pub fn encode_jsonl(rec: &AlertRecord) -> String {
    let mut s = String::with_capacity(192);
    let _ = write!(s, "{{\"ts\":{:?},\"node\":{},\"class\":", rec.ts, rec.node);
    quote_into(&mut s, &rec.class);
    s.push_str(",\"kind\":");
    quote_into(&mut s, &rec.kind);
    let _ = write!(
        s,
        ",\"subject\":{},\"severity\":{},\"src_ip\":{},\"dst_ip\":{},\"src_port\":{},\"dst_port\":{},\"proto\":{}}}",
        rec.subject, rec.severity, rec.src_ip, rec.dst_ip, rec.src_port, rec.dst_port, rec.proto
    );
    s
}

/// CEF sanitization: `\` and `|` always escape, `=` additionally in
/// extension values; newlines become the two-character sequences `\n` /
/// `\r` and remaining control characters `\xNN`, so the output is one
/// line no matter what the input holds. Injective — [`cef_unescape`]
/// recovers the original exactly.
fn cef_escape_into(out: &mut String, s: &str, extension: bool) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '|' => out.push_str("\\|"),
            '=' if extension => out.push_str("\\="),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 || c as u32 == 0x7f => {
                let _ = write!(out, "\\x{:02x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn fmt_ip(ip: u32) -> String {
    format!("{}.{}.{}.{}", ip >> 24, (ip >> 16) & 0xff, (ip >> 8) & 0xff, ip & 0xff)
}

/// Encode one record as a single CEF line (no trailing newline):
/// `CEF:0|nwdp|nids|0.1|kind|class kind|severity|extension`.
pub fn encode_cef(rec: &AlertRecord) -> String {
    let mut s = String::with_capacity(224);
    s.push_str("CEF:0|nwdp|nids|0.1|");
    cef_escape_into(&mut s, &rec.kind, false);
    s.push('|');
    cef_escape_into(&mut s, &rec.class, false);
    s.push(' ');
    cef_escape_into(&mut s, &rec.kind, false);
    let _ = write!(s, "|{}|ts={:?} node={}", rec.severity, rec.ts, rec.node);
    s.push_str(" src=");
    s.push_str(&fmt_ip(rec.src_ip));
    let _ = write!(s, " spt={}", rec.src_port);
    s.push_str(" dst=");
    s.push_str(&fmt_ip(rec.dst_ip));
    let _ = write!(s, " dpt={} proto={} subject={} cat=", rec.dst_port, rec.proto, rec.subject);
    cef_escape_into(&mut s, &rec.class, true);
    s.push_str(" act=");
    cef_escape_into(&mut s, &rec.kind, true);
    s
}

/// Invert the CEF escape. Returns `None` on a malformed escape sequence
/// (dangling `\`, unknown escape, bad hex).
pub fn cef_unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next()? {
            '\\' => out.push('\\'),
            '|' => out.push('|'),
            '=' => out.push('='),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            'x' => {
                let hi = it.next()?.to_digit(16)?;
                let lo = it.next()?.to_digit(16)?;
                out.push(char::from_u32(hi * 16 + lo)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Split a CEF line into its 7 (still-escaped) header fields and the
/// extension. Returns `None` unless the line has *exactly* seven
/// unescaped pipes before the extension and none after — the structural
/// property a hostile field must not be able to break.
pub fn split_cef(line: &str) -> Option<(Vec<String>, String)> {
    let mut parts: Vec<String> = vec![String::new()];
    let mut escaped = false;
    for c in line.chars() {
        if escaped {
            if let Some(last) = parts.last_mut() {
                last.push('\\');
                last.push(c);
            }
            escaped = false;
            continue;
        }
        match c {
            '\\' => escaped = true,
            '|' => {
                if parts.len() >= 8 {
                    // An unescaped pipe inside the extension: invalid.
                    return None;
                }
                parts.push(String::new());
            }
            c => {
                if let Some(last) = parts.last_mut() {
                    last.push(c);
                }
            }
        }
    }
    if escaped || parts.len() != 8 {
        return None;
    }
    let ext = parts.pop().unwrap_or_default();
    Some((parts, ext))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Capture;
    use std::sync::{Arc, Mutex};

    /// Run `f` under a fresh recorder with the plane on and tuned to `cfg`.
    fn enabled_with<R>(cfg: AlertConfig, f: impl FnOnce() -> R) -> R {
        crate::scoped(&crate::Recorder::new(), || {
            set_alert_config(cfg);
            set_alert_enabled(true);
            f()
        })
    }

    fn rec(ts: f64, class: &str, kind: &str, subject: u64) -> AlertRecord {
        AlertRecord {
            ts,
            node: 3,
            class: class.to_string(),
            kind: kind.to_string(),
            subject,
            severity: 5,
            src_ip: 0x0a00_0001,
            dst_ip: 0x0a00_0002,
            src_port: 1234,
            dst_port: 80,
            proto: 6,
        }
    }

    #[test]
    fn off_by_default_emit_is_noop() {
        crate::scoped(&crate::Recorder::new(), || {
            emit_alert("scan", "address_scan", 7, 5, None);
            assert_eq!(flush_alerts().unwrap(), AlertStats::default());
        });
    }

    #[test]
    fn accounting_balances_with_suppression_and_ratelimit() {
        enabled_with(AlertConfig { rate: 1.0, burst: 2.0, suppress: 0.1 }, || {
            // ts = sid / 10. Six emissions: two exact duplicates of the
            // first (deduped), the rest distinct subjects at ts 0.1/0.2/0.3;
            // the bucket starts with 2 tokens and refills 1/unit, so 2 are
            // written and 2 dropped.
            set_alert_clock_scale(0.1);
            for (sid, subject) in [(0u64, 1u64), (0, 1), (0, 1), (1, 2), (2, 3), (3, 4)] {
                set_alert_context(9, sid);
                emit_alert("scan", "address_scan", subject, 5, None);
            }
            let stats = flush_alerts().unwrap();
            assert_eq!(
                stats.emitted,
                stats.written + stats.deduped + stats.dropped_ratelimit,
                "balance: {stats:?}"
            );
            assert_eq!(stats.emitted, 6);
            assert_eq!(stats.deduped, 2, "exact duplicates fold: {stats:?}");
            assert!(stats.dropped_ratelimit > 0, "tight bucket must drop: {stats:?}");
            let classes = alert_class_stats();
            assert_eq!(classes.len(), 1);
            let (_, w, d, r) = classes[0].clone();
            assert_eq!((w, d, r), (stats.written, stats.deduped, stats.dropped_ratelimit));
        });
    }

    #[test]
    fn suppression_window_folds_repeats_within_window_only() {
        enabled_with(AlertConfig { rate: 0.0, burst: 32.0, suppress: 0.25 }, || {
            set_alert_clock_scale(0.1);
            for sid in [0u64, 1, 2, 5, 6] {
                set_alert_context(1, sid);
                emit_alert("syn", "syn_flood", 42, 8, None);
            }
            let stats = flush_alerts().unwrap();
            // ts 0.0 written; 0.1, 0.2 within window; 0.5 written; 0.6 within.
            assert_eq!((stats.written, stats.deduped), (2, 3), "{stats:?}");
            assert_eq!(stats.emitted, stats.written + stats.deduped + stats.dropped_ratelimit);
        });
    }

    #[test]
    fn deterministic_merge_sorts_across_threads() {
        enabled_with(AlertConfig::default(), || {
            let buf = Arc::new(Mutex::new(Vec::new()));
            add_alert_writer(AlertFormat::Jsonl, Box::new(Capture(Arc::clone(&buf))));
            // Emit out of order and from a second thread; the flush must sort
            // by (ts, node, ...).
            set_alert_context(2, 5);
            emit_alert("scan", "address_scan", 7, 5, None);
            let rec = crate::current();
            std::thread::spawn(move || {
                crate::scoped(&rec, || {
                    set_alert_context(1, 3);
                    emit_alert("scan", "address_scan", 9, 5, None);
                })
            })
            .join()
            .unwrap();
            let stats = flush_alerts().unwrap();
            assert_eq!(stats.written, 2);
            let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
            let ts: Vec<f64> = text
                .lines()
                .map(|l| {
                    crate::parse_json(l).unwrap().get("ts").and_then(crate::Json::as_f64).unwrap()
                })
                .collect();
            assert_eq!(ts, vec![3.0, 5.0], "merged in replay order");
        });
    }

    #[test]
    fn written_counts_once_with_two_writers() {
        enabled_with(AlertConfig::default(), || {
            let jl = Arc::new(Mutex::new(Vec::new()));
            let cef = Arc::new(Mutex::new(Vec::new()));
            add_alert_writer(AlertFormat::Jsonl, Box::new(Capture(Arc::clone(&jl))));
            add_alert_writer(AlertFormat::Cef, Box::new(Capture(Arc::clone(&cef))));
            set_alert_context(4, 1);
            emit_alert("sig", "signature_match", 11, 7, Some((0x01020304, 0x05060708, 80, 443, 6)));
            let stats = flush_alerts().unwrap();
            assert_eq!(stats.written, 1);
            let jl_text = String::from_utf8(jl.lock().unwrap().clone()).unwrap();
            let cef_text = String::from_utf8(cef.lock().unwrap().clone()).unwrap();
            assert_eq!(jl_text.lines().count(), 1);
            assert_eq!(cef_text.lines().count(), 1);
            assert!(cef_text.starts_with("CEF:0|nwdp|nids|0.1|"));
            assert!(cef_text.contains("src=1.2.3.4"), "{cef_text}");
            assert!(cef_text.contains("spt=80"));
        });
    }

    #[test]
    fn hostile_fields_cannot_break_cef_structure() {
        let hostile = "evil|class=inject\nCEF:0|x|x|x|x|x|x|\r\\back\u{0}\u{7f}end";
        let mut r = rec(0.5, hostile, "kind|with=stuff\n", 1);
        r.kind = format!("{hostile}2");
        let line = encode_cef(&r);
        assert_eq!(line.lines().count(), 1, "always a single line");
        let (header, ext) = split_cef(&line).expect("structurally valid CEF");
        assert_eq!(header.len(), 7);
        assert_eq!(header[0], "CEF:0");
        // Escaped fields round-trip to the original hostile content.
        assert_eq!(cef_unescape(&header[4]).unwrap(), r.kind);
        // Extension: cat value recovers the hostile class.
        let cat = ext.split(" cat=").nth(1).unwrap().split(" act=").next().unwrap();
        assert_eq!(cef_unescape(cat).unwrap(), r.class);
    }

    #[test]
    fn hostile_fields_round_trip_jsonl() {
        let hostile = "a\"b\\c\nd\re\tf\u{1}{\"nested\":[1,2";
        let r = rec(0.25, hostile, "kind", 9);
        let line = encode_jsonl(&r);
        assert_eq!(line.lines().count(), 1);
        let doc = crate::parse_json(&line).expect("JSONL line parses");
        assert_eq!(doc.get("class").and_then(crate::Json::as_str), Some(hostile));
        assert_eq!(doc.get("subject").and_then(crate::Json::as_f64), Some(9.0));
    }

    #[test]
    fn cef_unescape_rejects_malformed() {
        assert_eq!(cef_unescape("dangling\\"), None);
        assert_eq!(cef_unescape("bad\\q"), None);
        assert_eq!(cef_unescape("bad\\xzz"), None);
        assert_eq!(cef_unescape("ok\\x41"), Some("okA".to_string()));
    }

    #[test]
    fn split_cef_rejects_wrong_pipe_counts() {
        assert!(split_cef("CEF:0|a|b|c|d|e|f|ext").is_some());
        assert!(split_cef("CEF:0|a|b|c|d|e|f|ext|trailing").is_none(), "8th pipe");
        assert!(split_cef("CEF:0|a|b|c|d|e|ext").is_none(), "6 pipes");
        assert!(split_cef("CEF:0|a|b|c|d|e|f|ext\\").is_none(), "dangling escape");
        let (h, _) = split_cef("CEF:0|a\\|b|b|c|d|e|f|ext").unwrap();
        assert_eq!(cef_unescape(&h[1]).unwrap(), "a|b");
    }

    #[test]
    fn top_talkers_ranked_by_written() {
        enabled_with(AlertConfig::default(), || {
            for (sid, src) in [(1u64, 7u32), (2, 7), (3, 9)] {
                set_alert_context(0, sid);
                emit_alert("scan", "address_scan", sid, 5, Some((src, 1, 2, 3, 6)));
            }
            flush_alerts().unwrap();
            assert_eq!(alert_top_talkers(5), vec![(7, 2), (9, 1)]);
            assert_eq!(alert_top_talkers(1), vec![(7, 2)]);
        });
    }
}
