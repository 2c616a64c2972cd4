//! Structured tracing: nestable, thread-aware spans and instant events,
//! journaled as JSONL.
//!
//! # Model
//!
//! A [`Span`] is a scoped region of work (`span!("rounding.trial",
//! trial = i)`); dropping the guard closes it. Spans nest per thread via
//! a thread-local stack, and compose with the `nwdp_core::parallel`
//! scoped-thread fan-outs: the spawning thread's current span id is
//! captured before the spawn and handed to [`span_under`], so a worker's
//! spans hang off the fan-out span that launched them even though they
//! live on another thread. An [`event`] is a zero-duration record (the
//! structured replacement for ad-hoc `eprintln!` diagnostics).
//!
//! # Journal
//!
//! Records are serialized as one JSON object per line:
//!
//! ```text
//! {"ev":"B","name":"rounding.trial","id":7,"parent":3,"tid":2,"ts":123,"f":{"trial":4}}
//! {"ev":"E","id":7,"tid":2,"ts":456,"dur":333}
//! {"ev":"I","name":"simplex.warm_diag","parent":7,"tid":2,"ts":200,"f":{...}}
//! ```
//!
//! `ts`/`dur` are nanoseconds since the process's trace epoch. Open (`B`)
//! and close (`E`) records are paired by `id`; the `repro report` tooling
//! re-joins them and can export Chrome-trace JSON for flamegraphs.
//!
//! # Cost model
//!
//! Tracing is **off by default**; the gate is one relaxed atomic load on
//! the current [`crate::Recorder`] ([`trace_enabled`]), and a disabled
//! [`span`]/[`event`] call does nothing else. When on, records are
//! serialized into a per-thread `String` buffer (no lock) and flushed to
//! the current recorder's writer under a mutex only when the buffer
//! fills, when a root span closes, when the thread leaves a
//! [`crate::scoped`] block or exits (a panicking thread flushes during
//! unwind), or on an explicit [`flush_trace`].
//!
//! # Configuration
//!
//! - `NWDP_TRACE=path.jsonl` — journal to a file (the process default
//!   recorder reads it lazily on the first gate check, or eagerly via
//!   [`init_trace_from_env`]).
//! - `NWDP_LP_TRACE=1` — no journal path, but tracing is enabled with a
//!   stderr writer: the historical simplex diagnostic env var now emits
//!   the same structured records, one JSON line each, to stderr.

use crate::json::quote_into;
use crate::recorder::{lock, with_current, Recorder};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

macro_rules! trace_value_from {
    ($($ty:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$ty> for TraceValue {
            fn from(v: $ty) -> Self {
                TraceValue::$variant(v as $conv)
            }
        })*
    };
}

trace_value_from! {
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64, i64 => I64 as i64,
    isize => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64,
}

impl From<bool> for TraceValue {
    fn from(v: bool) -> Self {
        TraceValue::Bool(v)
    }
}

impl From<&str> for TraceValue {
    fn from(v: &str) -> Self {
        TraceValue::Str(v.to_string())
    }
}

impl From<String> for TraceValue {
    fn from(v: String) -> Self {
        TraceValue::Str(v)
    }
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// Trace gate values: read the environment on the first check (the
// process default recorder), off, on.
pub(crate) const FROM_ENV: u8 = 0;
pub(crate) const OFF: u8 = 1;
const ON: u8 = 2;

fn init_from_env(r: &Recorder) -> Option<PathBuf> {
    let path = std::env::var_os("NWDP_TRACE").map(PathBuf::from);
    let writer: Option<Box<dyn Write + Send>> = match &path {
        Some(p) => match std::fs::File::create(p) {
            Ok(f) => Some(Box::new(std::io::BufWriter::new(f))),
            Err(e) => {
                eprintln!("nwdp-obs: cannot create NWDP_TRACE file {}: {e}", p.display());
                None
            }
        },
        None => std::env::var_os("NWDP_LP_TRACE").map(|_| Box::new(std::io::stderr()) as _),
    };
    let on = writer.is_some();
    if on {
        *lock(&r.trace_writer) = writer;
        epoch();
    }
    let gate = if on { ON } else { OFF };
    let _ = r.trace_gate.compare_exchange(FROM_ENV, gate, Ordering::Relaxed, Ordering::Relaxed);
    path.filter(|_| on)
}

/// Is span/event collection on for the current recorder? One relaxed
/// atomic load on the hot path; the process default's first call reads
/// `NWDP_TRACE` / `NWDP_LP_TRACE` from the environment.
#[inline]
pub fn trace_enabled() -> bool {
    with_current(|r| match r.trace_gate.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(r).is_some() || r.trace_gate.load(Ordering::Relaxed) == ON,
    })
}

/// Turn tracing on or off for the current recorder (tests and explicit
/// harness control; overrides whatever the environment said).
pub fn set_trace_enabled(on: bool) {
    with_current(|r| r.trace_gate.store(if on { ON } else { OFF }, Ordering::Relaxed));
}

/// Install (or replace) the current recorder's journal writer. Callers
/// normally pair this with [`set_trace_enabled`]`(true)`.
pub fn set_trace_writer(w: Box<dyn Write + Send>) {
    with_current(|r| *lock(&r.trace_writer) = Some(w));
}

/// Read the environment into the current recorder: `NWDP_TRACE=path`
/// installs a buffered file writer at that path and enables tracing
/// (returns the path); `NWDP_LP_TRACE` (any value) enables tracing with a
/// stderr writer. Neither set ⇒ tracing stays off. Idempotent: an
/// explicit [`set_trace_enabled`] (or a fresh recorder's "off") beats a
/// later env init.
pub fn init_trace_from_env() -> Option<PathBuf> {
    with_current(init_from_env)
}

// Per-thread record buffer and span stack. The buffer drains to the
// current recorder's writer when it crosses `FLUSH_AT`, at the edges of
// a `scoped` block and when the thread exits
// (the `Drop` impl runs during unwinding too, so a panicking worker
// still lands its records in the journal).
const FLUSH_AT: usize = 32 * 1024;

struct ThreadBuf {
    tid: u64,
    buf: String,
    stack: Vec<u64>,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            tid: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            buf: String::new(),
            stack: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        with_current(|r| {
            if let Some(w) = lock(&r.trace_writer).as_mut() {
                let _ = w.write_all(self.buf.as_bytes());
                let _ = w.flush();
            }
        });
        self.buf.clear();
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

fn fields_into(out: &mut String, fields: &[(&str, TraceValue)]) {
    if fields.is_empty() {
        return;
    }
    out.push_str(",\"f\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        quote_into(out, k);
        out.push(':');
        match v {
            TraceValue::U64(x) => {
                let _ = write!(out, "{x}");
            }
            TraceValue::I64(x) => {
                let _ = write!(out, "{x}");
            }
            TraceValue::F64(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            TraceValue::Bool(x) => {
                let _ = write!(out, "{x}");
            }
            TraceValue::Str(x) => quote_into(out, x),
        }
    }
    out.push('}');
}

/// RAII guard for an open span; dropping it writes the close record.
/// Spans must be dropped in LIFO order on their own thread (the natural
/// behavior of a scoped guard).
#[must_use = "a span closes when dropped; binding it to `_` closes it immediately"]
#[derive(Debug)]
pub struct Span {
    id: u64,
}

impl Span {
    /// A disabled no-op span (what the constructors return when tracing
    /// is off).
    pub const fn none() -> Span {
        Span { id: 0 }
    }

    /// The span's journal id (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let ts = now_ns();
        TLS.with(|tls| {
            let Ok(mut t) = tls.try_borrow_mut() else { return };
            // LIFO pop; tolerate out-of-order drops by removing by value.
            match t.stack.last() {
                Some(&top) if top == self.id => {
                    t.stack.pop();
                }
                _ => t.stack.retain(|&x| x != self.id),
            }
            let (tid, root) = (t.tid, t.stack.is_empty());
            let _ =
                writeln!(t.buf, "{{\"ev\":\"E\",\"id\":{},\"tid\":{tid},\"ts\":{ts}}}", self.id);
            // Root spans mark a completed unit of work: land it in the
            // journal so a later crash cannot lose it.
            if root || t.buf.len() >= FLUSH_AT {
                t.flush();
            }
        });
    }
}

/// Open a span named `name` under the current thread's innermost open
/// span. Returns a no-op guard when tracing is off.
pub fn span(name: &str) -> Span {
    span_with(name, &[])
}

/// [`span`] with key/value fields recorded on the open record.
pub fn span_with(name: &str, fields: &[(&str, TraceValue)]) -> Span {
    if !trace_enabled() {
        return Span::none();
    }
    open_span(name, fields, None)
}

/// Open a span whose parent is an *explicit* span id — the bridge for
/// cross-thread nesting: a fan-out captures [`current_span_id`] before
/// spawning and each worker opens its root span under it.
pub fn span_under(parent: Option<u64>, name: &str, fields: &[(&str, TraceValue)]) -> Span {
    if !trace_enabled() {
        return Span::none();
    }
    open_span(name, fields, Some(parent))
}

fn open_span(name: &str, fields: &[(&str, TraceValue)], parent: Option<Option<u64>>) -> Span {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let ts = now_ns();
    TLS.with(|tls| {
        let Ok(mut t) = tls.try_borrow_mut() else { return };
        let parent = match parent {
            Some(explicit) => explicit,
            None => t.stack.last().copied(),
        };
        let tid = t.tid;
        let _ = write!(t.buf, "{{\"ev\":\"B\",\"name\":");
        quote_into(&mut t.buf, name);
        let _ = write!(t.buf, ",\"id\":{id}");
        if let Some(p) = parent {
            let _ = write!(t.buf, ",\"parent\":{p}");
        }
        let _ = write!(t.buf, ",\"tid\":{tid},\"ts\":{ts}");
        // Move the buffer out to satisfy the borrow checker on `fields_into`.
        let mut buf = std::mem::take(&mut t.buf);
        fields_into(&mut buf, fields);
        buf.push('}');
        buf.push('\n');
        t.buf = buf;
        t.stack.push(id);
        if t.buf.len() >= FLUSH_AT {
            t.flush();
        }
    });
    Span { id }
}

/// Record an instant event under the current span. The structured
/// replacement for `eprintln!` diagnostics: off ⇒ one atomic load, zero
/// output.
pub fn event(name: &str, fields: &[(&str, TraceValue)]) {
    if !trace_enabled() {
        return;
    }
    let ts = now_ns();
    TLS.with(|tls| {
        let Ok(mut t) = tls.try_borrow_mut() else { return };
        let parent = t.stack.last().copied();
        let tid = t.tid;
        let _ = write!(t.buf, "{{\"ev\":\"I\",\"name\":");
        quote_into(&mut t.buf, name);
        if let Some(p) = parent {
            let _ = write!(t.buf, ",\"parent\":{p}");
        }
        let _ = write!(t.buf, ",\"tid\":{tid},\"ts\":{ts}");
        let mut buf = std::mem::take(&mut t.buf);
        fields_into(&mut buf, fields);
        buf.push('}');
        buf.push('\n');
        t.buf = buf;
        if t.buf.len() >= FLUSH_AT {
            t.flush();
        }
    });
}

/// Innermost open span id on this thread, if any (and tracing is on).
/// Capture this before a fan-out and hand it to [`span_under`] in each
/// worker.
pub fn current_span_id() -> Option<u64> {
    if !trace_enabled() {
        return None;
    }
    TLS.with(|tls| tls.try_borrow().ok().and_then(|t| t.stack.last().copied()))
}

/// Flush this thread's record buffer and the current recorder's writer.
/// Worker threads flush automatically on exit; the main thread (and the
/// panic hook installed by [`crate::install_panic_flush`]) should call
/// this before the process ends.
pub fn flush_trace() {
    TLS.with(|tls| {
        if let Ok(mut t) = tls.try_borrow_mut() {
            t.flush();
        }
    });
    with_current(|r| {
        if let Some(w) = lock(&r.trace_writer).as_mut() {
            let _ = w.flush();
        }
    });
}

/// Open a span with `field = value` sugar:
/// `span!("rounding.trial", trial = i, seed = s)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::span_with(
            $name,
            &[$((stringify!($k), $crate::TraceValue::from($v))),+],
        )
    };
}

/// Record an instant event with `field = value` sugar:
/// `trace_event!("simplex.warm_diag", drifted = n, max_drift = d)`.
#[macro_export]
macro_rules! trace_event {
    ($name:expr) => {
        $crate::event($name, &[])
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::event(
            $name,
            &[$((stringify!($k), $crate::TraceValue::from($v))),+],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::tests::Capture;
    use std::sync::{Arc, Mutex};

    /// Run `f` under a fresh recorder that journals into a capture.
    fn with_capture<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
        let cap = Capture(Arc::new(Mutex::new(Vec::new())));
        let r = crate::scoped(&crate::Recorder::new(), || {
            set_trace_writer(Box::new(cap.clone()));
            set_trace_enabled(true);
            let r = f();
            flush_trace();
            r
        });
        let bytes = cap.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("journal is UTF-8");
        (r, text.lines().map(str::to_string).collect())
    }

    fn parsed(lines: &[String]) -> Vec<Json> {
        lines.iter().map(|l| parse(l).expect("journal line is valid JSON")).collect()
    }

    #[test]
    fn spans_nest_and_balance() {
        let ((), lines) = with_capture(|| {
            let _outer = span!("outer", k = 1u64);
            {
                let _inner = span!("inner");
            }
            trace_event!("ping", x = 2.5f64);
        });
        let docs = parsed(&lines);
        let evs: Vec<&str> = docs
            .iter()
            .map(|d| match d.get("ev") {
                Some(Json::Str(s)) => s.as_str(),
                _ => "?",
            })
            .collect();
        assert_eq!(evs, ["B", "B", "E", "I", "E"]);
        // inner's parent is outer's id.
        let outer_id = docs[0].get("id").and_then(Json::as_f64).unwrap();
        assert_eq!(docs[1].get("parent").and_then(Json::as_f64), Some(outer_id));
        assert_eq!(docs[3].get("parent").and_then(Json::as_f64), Some(outer_id));
        assert_eq!(docs[0].get("f/k").and_then(Json::as_f64), Some(1.0));
        assert_eq!(docs[3].get("f/x").and_then(Json::as_f64), Some(2.5));
    }

    #[test]
    fn disabled_tracing_is_inert() {
        crate::scoped(&crate::Recorder::new(), || {
            let s = span!("nope", a = 1u64);
            assert_eq!(s.id(), 0);
            trace_event!("nope");
            assert_eq!(current_span_id(), None);
        });
    }

    #[test]
    fn cross_thread_parent_links_via_span_under() {
        let ((), lines) = with_capture(|| {
            let outer = span!("fanout");
            let parent = current_span_id();
            assert_eq!(parent, Some(outer.id()));
            let rec = crate::current();
            std::thread::scope(|s| {
                s.spawn(move || {
                    crate::scoped(&rec, || {
                        let _w = span_under(parent, "worker", &[("w", TraceValue::U64(0))]);
                    })
                });
            });
        });
        let docs = parsed(&lines);
        let fanout = docs
            .iter()
            .find(|d| d.get("name") == Some(&Json::Str("fanout".into())))
            .expect("fanout span journaled");
        let worker = docs
            .iter()
            .find(|d| d.get("name") == Some(&Json::Str("worker".into())))
            .expect("worker span journaled");
        assert_eq!(
            worker.get("parent").and_then(Json::as_f64),
            fanout.get("id").and_then(Json::as_f64)
        );
        // Worker ran on a different thread.
        assert_ne!(worker.get("tid"), fanout.get("tid"));
    }

    #[test]
    fn strings_with_quotes_escape() {
        let ((), lines) = with_capture(|| {
            trace_event!("weird", msg = "a\"b\\c\nd");
        });
        let docs = parsed(&lines);
        assert_eq!(docs[0].get("f/msg"), Some(&Json::Str("a\"b\\c\nd".into())));
    }
}
