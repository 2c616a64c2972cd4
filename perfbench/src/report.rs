//! What one benchmark run reports: checks attempted and failed, and the
//! metrics by name and unit.

use crate::spans::{self, SpanRec};
use crate::stats;
use nwdp_obs as obs;
use std::collections::BTreeMap;

#[derive(Debug, Default)]
pub struct Report {
    /// Checked operations (one per timed pass or scenario).
    pub attempted: u64,
    /// Operations whose correctness check failed.
    pub failed: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Count one checked operation; a failed check is logged on stderr.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}: {e}");
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(v, _)| v)
    }

    /// Keep only the metrics named in `names`, reporting any missing one
    /// as 0 (a layer the workload does not exercise).
    pub fn select(&mut self, names: &[(&'static str, &'static str)]) {
        let mut kept = BTreeMap::new();
        for &(name, unit) in names {
            let v = self.metrics.get(name).map_or(0.0, |&(v, _)| v);
            kept.insert(name.to_string(), (v, unit));
        }
        self.metrics = kept;
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: BTreeMap<String, obs::Json> = self
            .metrics
            .iter()
            .map(|(k, &(v, unit))| {
                let m = BTreeMap::from([
                    ("value".to_string(), obs::Json::Num(v)),
                    ("unit".to_string(), obs::Json::Str(unit.to_string())),
                ]);
                (k.clone(), obs::Json::Obj(m))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            obs::Json::Obj(metrics).render()
        )
    }

    /// Per-layer self times (`<layer>.self_s`) and the wall-time account
    /// of a traced span set whose roots are named `root`.
    pub fn layers(&mut self, spans: &[SpanRec], root: &str) {
        let layers = spans::layers(spans);
        for (name, t) in &layers {
            if *name != root {
                self.metric(format!("{name}.self_s"), t.self_ns as f64 / 1e9, "s");
            }
        }
        let wall: u64 =
            spans.iter().filter(|s| s.name == root).map(|s| s.end_ns - s.start_ns).sum();
        let remainder = layers.get(root).map_or(0.0, |t| t.wall_ns);
        self.metric("trace.remainder_s", remainder / 1e9, "s");
        self.metric("trace.covered_share", 1.0 - remainder / (wall.max(1) as f64), "ratio");
    }

    /// Median of `xs` as `name` (nothing when `xs` is empty).
    pub fn median(&mut self, name: &str, xs: &[f64], unit: &'static str) {
        if let Some(m) = stats::median(xs) {
            self.metric(name, m, unit);
        }
    }
}

/// The `nwdp-obs` registry's counters, and each timer's total ns.
pub fn counters() -> BTreeMap<String, u64> {
    obs::snapshot()
        .into_iter()
        .filter_map(|(name, v)| match v {
            obs::SnapshotValue::Counter(c) => Some((name, c)),
            obs::SnapshotValue::Timer { total_ns, .. } => Some((name, total_ns)),
            _ => None,
        })
        .collect()
}

/// `after - before` for counter `name` (timers give total ns).
pub fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    after.get(name).copied().unwrap_or(0).saturating_sub(before.get(name).copied().unwrap_or(0))
}

/// Copy the program's own `simplex.*` / `rowgen.*` / `round.*` / `flow.*`
/// counters named in `names` into the report as deltas.
pub fn counter_metrics(
    report: &mut Report,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    names: &[&str],
) {
    for name in names {
        report.metric(*name, delta(before, after, name) as f64, "count");
    }
}
