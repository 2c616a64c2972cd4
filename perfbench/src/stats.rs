//! Summary statistics over repeated samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Minimum samples that must lie strictly beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile of `xs` (nearest rank), but only when at least
/// [`TAIL_SAMPLES`] samples lie strictly above it; with fewer the tail is
/// too thin to report and the result is `None`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let value = v[rank.clamp(1, n) - 1];
    let beyond = v.iter().filter(|&&x| x > value).count();
    (beyond >= TAIL_SAMPLES).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 100 distinct samples: p90 = 90 has exactly 10 above it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // p91 = 91 has only 9 above it: not reported.
        assert_eq!(percentile(&xs, 91.0), None);
        assert_eq!(percentile(&xs, 99.0), None);
        // With 1000 samples p99 has exactly 10 beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
    }

    #[test]
    fn ties_at_the_percentile_do_not_count_as_beyond() {
        // 95 equal samples then 5 larger: only 5 lie beyond p50.
        let mut xs = vec![1.0; 95];
        xs.extend([2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(percentile(&xs, 50.0), None);
    }
}
