//! Named time series keyed on an explicit clock.
//!
//! A network-wide deployment is a time-varying system: coverage during a
//! failure epoch, per-epoch FPL regret, simplex iterations across
//! warm-started re-solves. Counters and gauges collapse that structure
//! into a final number; a [`Series`] keeps the trajectory.
//!
//! The x-axis is whatever clock the caller passes — the resilience
//! subsystem uses the replay-fraction clock (the one failure schedules
//! and `coverage_timeline` run on), the online game uses the
//! epoch index, the LP layer uses the re-solve index. Points are
//! recorded in call order and exported as one long CSV
//! (`series,t,value`), deterministic given deterministic callers.
//!
//! Series live in the current [`crate::Recorder`] next to its metrics,
//! and collection piggybacks on the metrics gate ([`crate::enabled`]):
//! instrumentation sites guard with it, so a disabled run pays one
//! gate check per *region*, exactly like the counter layer.

use crate::recorder::{lock, with_current};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One named time series: `(t, value)` points in record order.
#[derive(Debug, Default)]
pub struct Series {
    points: Mutex<Vec<(f64, f64)>>,
}

impl Series {
    /// Append one sample. Takes the series' internal lock — record per
    /// epoch/solve/event, not per packet.
    pub fn record(&self, t: f64, value: f64) {
        lock(&self.points).push((t, value));
    }

    /// Append one sample at `t` = the number of points already recorded,
    /// for series whose clock is their own record index.
    pub fn record_next(&self, value: f64) {
        let points = &mut *lock(&self.points);
        points.push((points.len() as f64, value));
    }

    /// Copy of all points recorded so far.
    pub fn points(&self) -> Vec<(f64, f64)> {
        lock(&self.points).clone()
    }
}

/// Fetch-or-create the named series. Resolve the handle once per
/// run/solve; the handle is an `Arc` and safe to record from scoped
/// threads.
pub fn series(name: &str) -> Arc<Series> {
    with_current(|r| Arc::clone(lock(&r.series).entry(name.to_string()).or_default()))
}

/// One-shot convenience for cold call sites: fetch and record.
pub fn record_series(name: &str, t: f64, value: f64) {
    series(name).record(t, value);
}

/// Point-in-time copy of every registered series, in name order.
pub fn series_snapshot() -> Vec<(String, Vec<(f64, f64)>)> {
    with_current(|r| lock(&r.series).iter().map(|(name, s)| (name.clone(), s.points())).collect())
}

/// Render a snapshot as CSV: `series,t,value`, one row per point, series
/// in name order, points in record order. Non-finite samples export as
/// empty cells (CSV has no NaN literal either).
pub fn series_to_csv(snap: &[(String, Vec<(f64, f64)>)]) -> String {
    let mut out = String::from("series,t,value\n");
    let cell = |v: f64| if v.is_finite() { format!("{v:?}") } else { String::new() };
    for (name, points) in snap {
        let quoted = if name.contains(',') || name.contains('"') {
            format!("\"{}\"", name.replace('"', "\"\""))
        } else {
            name.clone()
        };
        for &(t, v) in points {
            let _ = writeln!(out, "{quoted},{},{}", cell(t), cell(v));
        }
    }
    out
}

/// Write the current snapshot of every non-empty series to `path` as CSV.
/// Returns `false` (and writes nothing) when no series has any points.
pub fn write_series_csv(path: impl AsRef<Path>) -> std::io::Result<bool> {
    let snap: Vec<_> = series_snapshot().into_iter().filter(|(_, pts)| !pts.is_empty()).collect();
    if snap.is_empty() {
        return Ok(false);
    }
    std::fs::write(path, series_to_csv(&snap))?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_in_order() {
        let s = series("test.series.basic");
        s.record(0.0, 1.0);
        s.record(0.5, 0.25);
        series("test.series.basic").record(1.0, 0.75);
        assert_eq!(s.points(), vec![(0.0, 1.0), (0.5, 0.25), (1.0, 0.75)]);
        assert!(Arc::ptr_eq(&s, &series("test.series.basic")));
    }

    #[test]
    fn csv_renders_rows_and_escapes() {
        let snap = vec![
            ("a,b".to_string(), vec![(0.0, 1.0)]),
            ("plain".to_string(), vec![(0.25, f64::NAN), (0.5, 2.0)]),
        ];
        let csv = series_to_csv(&snap);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,t,value");
        assert_eq!(lines[1], "\"a,b\",0.0,1.0");
        assert_eq!(lines[2], "plain,0.25,");
        assert_eq!(lines[3], "plain,0.5,2.0");
    }

    #[test]
    fn recorders_keep_their_own_series() {
        let (a, b) = (crate::Recorder::new(), crate::Recorder::new());
        crate::scoped(&a, || record_series("test.series.own", 1.0, 1.0));
        assert!(crate::scoped(&b, series_snapshot).is_empty());
        let snap = crate::scoped(&a, series_snapshot);
        assert_eq!(snap, vec![("test.series.own".to_string(), vec![(1.0, 1.0)])]);
    }

    #[test]
    fn record_next_counts_from_zero_per_series() {
        let s = Series::default();
        s.record_next(5.0);
        s.record_next(7.0);
        assert_eq!(s.points(), vec![(0.0, 5.0), (1.0, 7.0)]);
    }
}
