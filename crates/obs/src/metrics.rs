//! Metric primitives: atomic counters, gauges, wall-clock timers, and
//! fixed-bucket histograms.
//!
//! Every primitive is lock-free and safe to hammer from scoped-thread
//! workers. All operations are no-ops in the *semantic* sense when the
//! global gate is off — instrumentation sites are expected to guard with
//! [`crate::enabled`] so the disabled cost is one relaxed atomic load and
//! a predictable branch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Counter { value: AtomicU64::new(0) }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point value (stored as IEEE-754 bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub const fn new() -> Self {
        Gauge { bits: AtomicU64::new(0) }
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Keep the maximum of the current value and `v`.
    pub fn set_max(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v {
                return;
            }
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Atomically add `v` (CAS loop; fine at flush frequency, not per-packet).
    pub fn add(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Wall-clock duration aggregator: count, total, min, max in nanoseconds.
#[derive(Debug)]
pub struct Timer {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Timer {
    fn default() -> Self {
        Self::new()
    }
}

impl Timer {
    pub const fn new() -> Self {
        Timer {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Record one observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record the elapsed time since `t0` when a start stamp was taken.
    ///
    /// Pairs with `crate::enabled().then(Instant::now)` so the disabled
    /// path never calls the clock.
    #[inline]
    pub fn observe_since(&self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.observe_ns(t0.elapsed().as_nanos() as u64);
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    pub fn min_ns(&self) -> u64 {
        let v = self.min_ns.load(Ordering::Relaxed);
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total_ns() as f64 / n as f64
        }
    }
}

/// Fixed-bound histogram: bucket `i` counts observations `<= bounds[i]`,
/// with one implicit overflow bucket at the end.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// `bounds` must be sorted ascending; non-finite bounds are rejected by
    /// truncation at the first bad entry.
    pub fn new(bounds: &[f64]) -> Self {
        let mut clean: Vec<f64> = Vec::with_capacity(bounds.len());
        for &b in bounds {
            if !b.is_finite() || clean.last().is_some_and(|&p| b <= p) {
                break;
            }
            clean.push(b);
        }
        let counts = (0..clean.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram { bounds: clean, counts, count: AtomicU64::new(0), sum_bits: AtomicU64::new(0) }
    }

    /// Geometric bucket bounds: `count` values `start, start·factor, …`.
    /// The natural layout for latency histograms, whose spread covers
    /// orders of magnitude (p99 interpolation error stays a constant
    /// fraction of the value instead of blowing up in the tail).
    /// `start` must be positive and `factor` greater than 1 for the bounds
    /// to be valid ascending input to [`Histogram::new`].
    pub fn exponential_bounds(start: f64, factor: f64, count: usize) -> Vec<f64> {
        let mut bounds = Vec::with_capacity(count);
        let mut b = start;
        for _ in 0..count {
            bounds.push(b);
            b *= factor;
        }
        bounds
    }

    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // f64 accumulation via CAS; histogram observes are flush-frequency.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the bucket bounds,
    /// Prometheus-style: find the bucket where the cumulative count
    /// crosses `q·total` and interpolate linearly inside it. The first
    /// bucket interpolates from `min(0, bounds[0])`; observations in the
    /// overflow bucket clamp to the last bound (the histogram does not
    /// track a max). Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if (cum as f64) < rank || c == 0 {
                continue;
            }
            if i >= self.bounds.len() {
                // Overflow bucket: no upper bound to interpolate toward.
                return self.bounds[self.bounds.len() - 1];
            }
            let hi = self.bounds[i];
            let lo = if i == 0 { hi.min(0.0) } else { self.bounds[i - 1] };
            let frac = ((rank - prev as f64) / c as f64).clamp(0.0, 1.0);
            return lo + (hi - lo) * frac;
        }
        self.bounds[self.bounds.len() - 1]
    }

    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_bounds_are_valid_histogram_input() {
        let bounds = Histogram::exponential_bounds(50.0, 2.0, 6);
        assert_eq!(bounds, vec![50.0, 100.0, 200.0, 400.0, 800.0, 1600.0]);
        let h = Histogram::new(&bounds);
        h.observe(75.0);
        h.observe(300.0);
        h.observe(1_000_000.0); // overflow bucket
        assert_eq!(h.count(), 3);
        assert!(h.quantile(0.5) > 50.0);
        assert_eq!(h.quantile(1.0), 1600.0, "overflow clamps to the last bound");
    }

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_set_max_and_add() {
        let g = Gauge::new();
        g.set(2.5);
        g.set_max(1.0);
        assert_eq!(g.get(), 2.5);
        g.set_max(7.0);
        assert_eq!(g.get(), 7.0);
        g.add(0.5);
        assert_eq!(g.get(), 7.5);
    }

    #[test]
    fn timer_tracks_min_max_mean() {
        let t = Timer::new();
        assert_eq!(t.min_ns(), 0); // empty timer reports 0, not u64::MAX
        t.observe_ns(10);
        t.observe_ns(30);
        assert_eq!(t.count(), 2);
        assert_eq!(t.total_ns(), 40);
        assert_eq!(t.min_ns(), 10);
        assert_eq!(t.max_ns(), 30);
        assert_eq!(t.mean_ns(), 20.0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(1.0); // boundary lands in the `<= 1.0` bucket
        h.observe(5.0);
        h.observe(100.0);
        h.observe(f64::NAN); // dropped
        assert_eq!(h.bucket_counts(), vec![2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 106.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_rejects_bad_bounds() {
        let h = Histogram::new(&[1.0, 1.0, f64::NAN]);
        assert_eq!(h.bounds(), &[1.0]);
    }

    #[test]
    fn quantiles_of_uniform_distribution() {
        // Unit-width buckets over [0, 100); observe 1..=100 once each so
        // the true quantile of q is ~100q. The bucket estimate must land
        // within one bucket width of the truth.
        let bounds: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let h = Histogram::new(&bounds);
        for i in 1..=100 {
            h.observe(i as f64);
        }
        for (q, expect) in [(0.5, 50.0), (0.95, 95.0), (0.99, 99.0)] {
            let got = h.quantile(q);
            assert!((got - expect).abs() <= 1.0, "q={q}: got {got}, want ~{expect}");
        }
        // Quantiles are monotone in q.
        assert!(h.quantile(0.5) <= h.quantile(0.95));
        assert!(h.quantile(0.95) <= h.quantile(0.99));
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        // All mass in the (1, 10] bucket: p50 interpolates to its middle.
        let h = Histogram::new(&[1.0, 10.0]);
        for _ in 0..10 {
            h.observe(5.0);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 5.5).abs() < 1e-9, "p50 {p50}");
        // p0 pins to the bucket's lower bound, p100 to its upper.
        assert!((h.quantile(0.0) - 1.0).abs() < 1e-9);
        assert!((h.quantile(1.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_overflow_and_empty_edges() {
        let h = Histogram::new(&[1.0, 2.0]);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        h.observe(100.0); // overflow bucket only
        assert_eq!(h.quantile(0.5), 2.0, "overflow clamps to last bound");
        // Known skewed distribution: 90 small, 10 large.
        let h2 = Histogram::new(&[1.0, 10.0, 100.0]);
        for _ in 0..90 {
            h2.observe(0.5);
        }
        for _ in 0..10 {
            h2.observe(50.0);
        }
        assert!(h2.quantile(0.5) <= 1.0, "p50 stays in the small bucket");
        let p95 = h2.quantile(0.95);
        assert!((10.0..=100.0).contains(&p95), "p95 {p95} lands in the large bucket");
    }
}
