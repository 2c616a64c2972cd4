//! Traffic matrices.
//!
//! The paper uses a gravity model based on city populations to set the
//! fraction of traffic between each ingress–egress pair (§2.4, §3.4,
//! following Roughan et al. [30]): the share of (s, d) traffic is
//! proportional to `pop(s) · pop(d)`.

use nwdp_topo::{NodeId, Topology};

/// A normalized ingress–egress traffic matrix: `frac(s, d)` sums to 1 over
/// all ordered pairs with distinct endpoints.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    n: usize,
    frac: Vec<f64>,
}

impl TrafficMatrix {
    /// Gravity model from node populations.
    pub fn gravity(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        let mut frac = vec![0.0; n * n];
        let mut total = 0.0;
        for s in topo.nodes() {
            for d in topo.nodes() {
                if s != d {
                    let w = topo.population(s) * topo.population(d);
                    frac[s.index() * n + d.index()] = w;
                    total += w;
                }
            }
        }
        assert!(total > 0.0, "gravity model needs positive populations");
        for f in frac.iter_mut() {
            *f /= total;
        }
        TrafficMatrix { n, frac }
    }

    /// Uniform matrix over distinct ordered pairs.
    pub fn uniform(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        let pairs = (n * (n - 1)) as f64;
        let mut frac = vec![1.0 / pairs; n * n];
        for i in 0..n {
            frac[i * n + i] = 0.0;
        }
        TrafficMatrix { n, frac }
    }

    /// Fraction of total traffic from `s` to `d`.
    pub fn frac(&self, s: NodeId, d: NodeId) -> f64 {
        self.frac[s.index() * self.n + d.index()]
    }

    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Total fraction originating at `s` (row sum).
    pub fn origin_frac(&self, s: NodeId) -> f64 {
        (0..self.n).map(|d| self.frac[s.index() * self.n + d]).sum()
    }

    /// The ordered pair carrying the most traffic. Non-finite entries
    /// (NaN from a degenerate gravity model) compare lowest rather than
    /// panicking.
    pub fn busiest_pair(&self) -> (NodeId, NodeId) {
        let finite_or_min = |v: f64| if v.is_finite() { v } else { f64::NEG_INFINITY };
        #[expect(
            clippy::expect_used,
            reason = "`frac` holds n² entries, and a matrix is only built over a non-empty topology"
        )]
        let (idx, _) = self
            .frac
            .iter()
            .enumerate()
            .max_by(|a, b| finite_or_min(*a.1).total_cmp(&finite_or_min(*b.1)))
            .expect("empty TM");
        (NodeId(idx / self.n), NodeId(idx % self.n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwdp_topo::internet2;

    /// Regression: a NaN entry used to trip
    /// `partial_cmp(..).expect("NaN in TM")`; non-finite entries now
    /// compare lowest and the busiest finite pair wins.
    #[test]
    fn busiest_pair_tolerates_nan_entries() {
        let mut tm = TrafficMatrix { n: 2, frac: vec![0.0, f64::NAN, 0.7, 0.0] };
        assert_eq!(tm.busiest_pair(), (NodeId(1), NodeId(0)));
        tm.frac = vec![f64::NAN; 4];
        // Degenerate all-NaN matrix: still answers without panicking.
        let (s, d) = tm.busiest_pair();
        assert!(s.index() < 2 && d.index() < 2);
    }

    #[test]
    fn gravity_sums_to_one() {
        let t = internet2();
        let tm = TrafficMatrix::gravity(&t);
        let total: f64 = t
            .nodes()
            .flat_map(|s| t.nodes().map(move |d| (s, d)))
            .map(|(s, d)| tm.frac(s, d))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
        for n in t.nodes() {
            assert_eq!(tm.frac(n, n), 0.0);
        }
    }

    #[test]
    fn gravity_hotspot_is_new_york() {
        let t = internet2();
        let tm = TrafficMatrix::gravity(&t);
        let nyc = t.find("NewYork").unwrap();
        // New York has the largest origin share (paper Fig 8: node 11).
        for s in t.nodes() {
            assert!(tm.origin_frac(s) <= tm.origin_frac(nyc) + 1e-12);
        }
        let (a, b) = tm.busiest_pair();
        let la = t.find("LosAngeles").unwrap();
        assert!(a == nyc || b == nyc, "busiest pair should involve NYC");
        assert!(a == la || b == la, "busiest pair should involve LA");
    }

    #[test]
    fn uniform_is_flat() {
        let t = internet2();
        let tm = TrafficMatrix::uniform(&t);
        let f = tm.frac(NodeId(0), NodeId(1));
        assert!((f - 1.0 / 110.0).abs() < 1e-12);
        assert_eq!(tm.frac(NodeId(3), NodeId(3)), 0.0);
    }

    use nwdp_topo::NodeId;
}
