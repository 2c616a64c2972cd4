//! Match-rate (`M_ik`) scenario generation for the NIPS evaluation.
//!
//! §3.4: "We present results for the case when `M_ik` values are
//! distributed uniformly in the range [0, 0.01]. … For each setting, we
//! generate 30 different `M_ik` values" (i.e. 30 scenarios). §3.4 also
//! notes results hold for other distributions; [`Distribution::Exponential`]
//! provides one such alternative with the same mean.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Shape of the match-rate distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// `M ~ U[0, max]` — the paper's headline setting with `max = 0.01`.
    Uniform { max: f64 },
    /// Exponential with the given mean, truncated at 1.
    Exponential { mean: f64 },
}

/// One scenario: the fraction of traffic on path `k` matching rule `i`.
#[derive(Debug, Clone)]
pub struct MatchRates {
    n_rules: usize,
    n_paths: usize,
    /// Rule-major: `rates[i * n_paths + k]`.
    rates: Vec<f64>,
}

impl MatchRates {
    pub fn generate(n_rules: usize, n_paths: usize, dist: Distribution, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let rates = (0..n_rules * n_paths)
            .map(|_| match dist {
                Distribution::Uniform { max } => rng.random_range(0.0..max),
                Distribution::Exponential { mean } => {
                    let u: f64 = rng.random_range(f64::EPSILON..1.0);
                    (-u.ln() * mean).min(1.0)
                }
            })
            .collect();
        MatchRates { n_rules, n_paths, rates }
    }

    /// The paper's default: `U[0, 0.01]`.
    pub fn uniform_001(n_rules: usize, n_paths: usize, seed: u64) -> Self {
        Self::generate(n_rules, n_paths, Distribution::Uniform { max: 0.01 }, seed)
    }

    pub fn rate(&self, rule: usize, path: usize) -> f64 {
        self.rates[rule * self.n_paths + path]
    }

    pub fn set_rate(&mut self, rule: usize, path: usize, value: f64) {
        assert!((0.0..=1.0).contains(&value), "match rate outside [0,1]");
        self.rates[rule * self.n_paths + path] = value;
    }

    pub fn n_rules(&self) -> usize {
        self.n_rules
    }

    pub fn n_paths(&self) -> usize {
        self.n_paths
    }

    /// Fresh all-zero rates (builder for custom scenarios).
    pub fn zeros(n_rules: usize, n_paths: usize) -> Self {
        MatchRates { n_rules, n_paths, rates: vec![0.0; n_rules * n_paths] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_rates_in_range_and_mean_right() {
        let m = MatchRates::uniform_001(100, 110, 3);
        let mut sum = 0.0;
        for i in 0..100 {
            for k in 0..110 {
                let r = m.rate(i, k);
                assert!((0.0..0.01).contains(&r));
                sum += r;
            }
        }
        let mean = sum / (100.0 * 110.0);
        assert!((mean - 0.005).abs() < 0.0005, "mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = MatchRates::uniform_001(10, 10, 5);
        let b = MatchRates::uniform_001(10, 10, 5);
        let c = MatchRates::uniform_001(10, 10, 6);
        assert_eq!(a.rate(3, 7), b.rate(3, 7));
        assert_ne!(a.rate(3, 7), c.rate(3, 7));
    }

    #[test]
    fn exponential_truncated() {
        let m = MatchRates::generate(50, 50, Distribution::Exponential { mean: 0.005 }, 9);
        for i in 0..50 {
            for k in 0..50 {
                assert!((0.0..=1.0).contains(&m.rate(i, k)));
            }
        }
    }
}
