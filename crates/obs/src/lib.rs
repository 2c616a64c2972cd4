//! `nwdp-obs`: zero-dependency, thread-safe observability for the nwdp
//! workspace.
//!
//! The paper's evaluation (§4) is entirely about *measured* solver and
//! engine behavior — LP solve effort vs. topology size, rounding quality
//! vs. the LP bound, per-node load spread. This crate is the substrate
//! that captures those quantities: atomic [`Counter`]s, [`Gauge`]s,
//! [`Timer`]s and fixed-bucket [`Histogram`]s in a labeled registry,
//! exported as deterministic JSON, plus time series, a span journal and
//! the alert pipeline.
//!
//! # Recorders
//!
//! All of that state lives in a [`Recorder`]. Every free function here
//! acts on the calling thread's current recorder: the one the innermost
//! [`scoped`] call installed, else the process default, which the
//! `NWDP_*` variables configure. `nwdp_core::parallel` workers run under
//! the [`current`] recorder of the thread that spawned them. Runs measured
//! side by side each get a fresh [`Recorder::new`] (everything off).
//!
//! # Cost model
//!
//! Collection is **off by default**. The gate is a thread-local lookup
//! plus one relaxed atomic load — instrumentation sites guard with
//! [`enabled`], so a disabled build pays one predictable branch per
//! instrumented *region* (not per event; hot loops accumulate into plain
//! locals and flush once per solve/run). Enable with
//! [`set_enabled`]`(true)`, or export automatically by setting
//! `NWDP_METRICS=path.json` and calling [`init_from_env`] +
//! [`flush`] (the `repro` harness does both; see `--metrics-out`).
//!
//! # Naming
//!
//! Metric names are dot-separated `subsystem.event` (e.g.
//! `simplex.pivots`, `round.trials`), with per-entity breakdowns as
//! labels (`engine.packets_analyzed{node="3"}`). Units are suffixes:
//! `_ns` for nanoseconds, `_bytes` for sizes; bare names are event
//! counts or pure ratios.

mod alert;
mod json;
mod metrics;
mod recorder;
mod registry;
mod series;
mod trace;

pub use alert::{
    add_alert_writer, alert_class_stats, alert_enabled, alert_stats, alert_top_talkers,
    cef_unescape, clear_alert_writers, emit_alert, emit_latency_bounds, encode_cef, encode_jsonl,
    flush_alerts, reset_alerts, set_alert_clock_scale, set_alert_config, set_alert_context,
    set_alert_enabled, split_cef, AlertConfig, AlertFormat, AlertRecord, AlertStats,
};
pub use json::{parse as parse_json, snapshot_to_json, Json};
pub use metrics::{Counter, Gauge, Histogram, Timer};
pub use recorder::{current, scoped, Recorder};
pub use registry::{
    counter, counter_with, gauge, gauge_with, histogram, histogram_with, snapshot, timer,
    timer_with, Scope, SnapshotValue,
};
pub use series::{record_series, series, series_snapshot, series_to_csv, write_series_csv, Series};
pub use trace::{
    current_span_id, event, flush_trace, init_trace_from_env, set_trace_enabled, set_trace_writer,
    span, span_under, span_with, trace_enabled, Span, TraceValue,
};

use recorder::{lock, with_current};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Once;
use std::time::Instant;

/// Is metric collection on for the current recorder? Cheap enough to
/// guard every instrumented region.
#[inline(always)]
pub fn enabled() -> bool {
    with_current(|r| r.metrics_on.load(Ordering::Relaxed))
}

/// Turn collection on or off for the current recorder.
pub fn set_enabled(on: bool) {
    with_current(|r| r.metrics_on.store(on, Ordering::Relaxed));
}

/// Take a start stamp only when collection is on; pair with
/// [`Timer::observe_since`].
#[inline]
pub fn now_if_enabled() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Read `NWDP_METRICS`; when set, enable collection and make [`flush`]
/// write the snapshot to that path. Returns the path when configured.
pub fn init_from_env() -> Option<PathBuf> {
    let path = PathBuf::from(std::env::var_os("NWDP_METRICS")?);
    set_enabled(true);
    with_current(|r| *lock(&r.metrics_out) = Some(path.clone()));
    Some(path)
}

/// Write the current snapshot to the path [`init_from_env`] configured.
/// Returns `Ok(false)` when none is configured.
pub fn flush() -> std::io::Result<bool> {
    match with_current(|r| lock(&r.metrics_out).clone()) {
        None => Ok(false),
        Some(path) => write_json(path).map(|()| true),
    }
}

/// Render the current snapshot as a JSON document.
pub fn to_json() -> String {
    snapshot_to_json(&snapshot())
}

/// Write the current snapshot straight to `path`.
pub fn write_json(path: impl AsRef<Path>) -> std::io::Result<()> {
    std::fs::write(path, to_json())
}

/// Chain a panic hook that flushes the metrics snapshot and the trace
/// journal before the default hook runs, so a mid-run panic still leaves
/// a valid metrics snapshot and a parseable (partial) journal on disk.
/// Idempotent: the hook installs once per process.
///
/// The panicking thread's *open* spans are closed by their guards during
/// the unwind that follows the hook, and its thread-local record buffer
/// flushes when the thread dies — the hook only has to push out whatever
/// other threads already handed to the writer, plus the metrics
/// snapshot.
pub fn install_panic_flush() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Alerts before metrics: flushing mirrors the final alert
            // deltas into the `alert.*` counters the metrics dump reads.
            let _ = flush_alerts();
            let _ = flush();
            flush_trace();
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// Shared writer capturing journal or egress bytes for assertions.
    #[derive(Clone)]
    pub(crate) struct Capture(pub(crate) Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_by_default_and_toggleable() {
        scoped(&Recorder::new(), || {
            assert!(!enabled());
            set_enabled(true);
            assert!(enabled());
            set_enabled(false);
            assert!(!enabled());
        });
    }

    #[test]
    fn now_if_enabled_tracks_gate() {
        scoped(&Recorder::new(), || {
            assert!(now_if_enabled().is_none());
            set_enabled(true);
            assert!(now_if_enabled().is_some());
        });
    }

    #[test]
    fn to_json_parses() {
        counter("test.lib.flush").add(3);
        let doc = parse_json(&to_json()).expect("export must be valid JSON");
        assert_eq!(doc.get("counters/test.lib.flush").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("version").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn flush_writes_snapshot_to_metrics_out() {
        let path = std::env::temp_dir().join(format!("nwdp_obs_flush_{}.json", std::process::id()));
        scoped(&Recorder::new(), || {
            assert!(!flush().unwrap(), "a fresh recorder has no metrics path");
            with_current(|r| *lock(&r.metrics_out) = Some(path.clone()));
            counter("test.lib.sink").inc();
            assert!(flush().unwrap());
        });
        let doc = parse_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("counters/test.lib.sink").and_then(Json::as_f64), Some(1.0));
        let _ = std::fs::remove_file(&path);
    }
}
