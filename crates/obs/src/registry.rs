//! Metric registry with labeled scopes; each [`crate::Recorder`] holds
//! one, and these functions act on the current recorder's.
//!
//! Metrics are keyed by their rendered name — `base{k="v",…}` with label
//! keys sorted — in a `BTreeMap`, so every export walks them in a
//! deterministic order. Lookup takes a mutex; hot paths are expected to
//! resolve their handles once (handles are `Arc`s) or buffer locally and
//! flush per solve/run, never lock per event.

use crate::metrics::{Counter, Gauge, Histogram, Timer};
use crate::recorder::{lock, with_current};
use std::sync::Arc;

#[derive(Clone)]
pub(crate) enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Timer(Arc<Timer>),
    Histogram(Arc<Histogram>),
}

/// Render `base{k="v",…}` with label keys sorted for determinism.
fn render_name(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort();
    let mut out = String::with_capacity(base.len() + 16 * sorted.len());
    out.push_str(base);
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

/// Fetch-or-create `key` in the current recorder's registry.
fn entry(key: String, make: impl FnOnce() -> Metric) -> Metric {
    with_current(|r| lock(&r.metrics).entry(key).or_insert_with(make).clone())
}

macro_rules! accessor {
    ($get:ident, $get_with:ident, $variant:ident, $ty:ty, $make:expr) => {
        /// Fetch-or-create the named metric. A name already registered with
        /// a different type yields a fresh unregistered instance instead of
        /// panicking (the caller's updates then simply go unexported).
        pub fn $get(name: &str) -> Arc<$ty> {
            $get_with(name, &[])
        }

        /// Labeled variant of the same accessor.
        pub fn $get_with(name: &str, labels: &[(&str, &str)]) -> Arc<$ty> {
            match entry(render_name(name, labels), || Metric::$variant(Arc::new($make))) {
                Metric::$variant(m) => m,
                _ => Arc::new($make),
            }
        }
    };
}

accessor!(counter, counter_with, Counter, Counter, Counter::new());
accessor!(gauge, gauge_with, Gauge, Gauge, Gauge::new());
accessor!(timer, timer_with, Timer, Timer, Timer::new());

/// Fetch-or-create a histogram with the given bucket bounds. If the name
/// exists with different bounds, the existing instance wins.
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    histogram_with(name, &[], bounds)
}

/// Labeled variant of [`histogram`].
pub fn histogram_with(name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Arc<Histogram> {
    match entry(render_name(name, labels), || Metric::Histogram(Arc::new(Histogram::new(bounds)))) {
        Metric::Histogram(m) => m,
        _ => Arc::new(Histogram::new(bounds)),
    }
}

/// A name prefix; metrics created through a scope get `prefix.name`.
#[derive(Debug, Clone)]
pub struct Scope {
    prefix: String,
}

impl Scope {
    pub fn new(prefix: impl Into<String>) -> Self {
        Scope { prefix: prefix.into() }
    }

    fn full(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        counter(&self.full(name))
    }

    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        counter_with(&self.full(name), labels)
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        gauge(&self.full(name))
    }

    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        gauge_with(&self.full(name), labels)
    }

    pub fn timer(&self, name: &str) -> Arc<Timer> {
        timer(&self.full(name))
    }

    pub fn timer_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Timer> {
        timer_with(&self.full(name), labels)
    }

    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        histogram(&self.full(name), bounds)
    }

    pub fn scope(&self, sub: &str) -> Scope {
        Scope::new(self.full(sub))
    }
}

/// One exported metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    Counter(u64),
    Gauge(f64),
    Timer {
        count: u64,
        total_ns: u64,
        min_ns: u64,
        max_ns: u64,
        mean_ns: f64,
    },
    Histogram {
        bounds: Vec<f64>,
        counts: Vec<u64>,
        count: u64,
        sum: f64,
        /// Bucket-interpolated percentile estimates (see
        /// [`Histogram::quantile`](crate::Histogram::quantile)).
        p50: f64,
        p95: f64,
        p99: f64,
    },
}

/// Point-in-time copy of every registered metric, in name order.
pub fn snapshot() -> Vec<(String, SnapshotValue)> {
    with_current(|r| lock(&r.metrics).iter().map(|(name, m)| (name.clone(), m.value())).collect())
}

impl Metric {
    fn value(&self) -> SnapshotValue {
        match self {
            Metric::Counter(c) => SnapshotValue::Counter(c.get()),
            Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
            Metric::Timer(t) => SnapshotValue::Timer {
                count: t.count(),
                total_ns: t.total_ns(),
                min_ns: t.min_ns(),
                max_ns: t.max_ns(),
                mean_ns: t.mean_ns(),
            },
            Metric::Histogram(h) => SnapshotValue::Histogram {
                bounds: h.bounds().to_vec(),
                counts: h.bucket_counts(),
                count: h.count(),
                sum: h.sum(),
                p50: h.quantile(0.50),
                p95: h.quantile(0.95),
                p99: h.quantile(0.99),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_instance() {
        let a = counter("test.registry.same");
        let b = counter("test.registry.same");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn labels_make_distinct_instances() {
        let a = counter_with("test.registry.labeled", &[("node", "0")]);
        let b = counter_with("test.registry.labeled", &[("node", "1")]);
        a.add(3);
        assert_eq!(b.get(), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let a = counter_with("test.registry.order", &[("a", "1"), ("b", "2")]);
        let b = counter_with("test.registry.order", &[("b", "2"), ("a", "1")]);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn type_mismatch_returns_detached_instance() {
        let c = counter("test.registry.mismatch");
        let g = gauge("test.registry.mismatch");
        g.set(5.0); // must not panic, must not corrupt the counter
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn scope_prefixes_names() {
        let s = Scope::new("test.scoped");
        s.counter("hits").add(2);
        let direct = counter("test.scoped.hits");
        assert_eq!(direct.get(), 2);
        let nested = s.scope("inner");
        nested.counter("x").inc();
        assert_eq!(counter("test.scoped.inner.x").get(), 1);
    }

    #[test]
    fn snapshot_is_name_ordered() {
        counter("test.snap.b").inc();
        counter("test.snap.a").inc();
        let snap = snapshot();
        let names: Vec<_> =
            snap.iter().map(|(n, _)| n.as_str()).filter(|n| n.starts_with("test.snap.")).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
