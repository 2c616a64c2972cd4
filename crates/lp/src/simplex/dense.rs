//! Dense explicit-inverse basis backend.
//!
//! Maintains `B⁻¹` as a column-major dense matrix, updated by elementary row
//! operations at each pivot (product-form update applied eagerly). Simple
//! and numerically transparent, but every pivot costs O(m²), so the sparse
//! backend is faster on every standalone LP the workspace solves. It runs
//! only when a caller opts in ([`super::SolverOpts::dense_row_limit`]):
//! no production code does; the tests use it as the independent oracle
//! the sparse backend is cross-checked against.

use super::{BasisBackend, SingularBasis};

pub struct DenseInverse {
    m: usize,
    /// Column-major `B⁻¹`: entry `(i, k)` at `binv[k * m + i]`.
    binv: Vec<f64>,
}

impl DenseInverse {
    pub fn new() -> Self {
        DenseInverse { m: 0, binv: Vec::new() }
    }
}

impl Default for DenseInverse {
    fn default() -> Self {
        Self::new()
    }
}

impl BasisBackend for DenseInverse {
    fn reset_identity(&mut self, m: usize) {
        self.m = m;
        self.binv.clear();
        self.binv.resize(m * m, 0.0);
        for i in 0..m {
            self.binv[i * m + i] = 1.0;
        }
    }

    fn refactor(&mut self, m: usize, basis_cols: &[&[(usize, f64)]]) -> Result<(), SingularBasis> {
        // Build the dense basis matrix and invert by Gauss-Jordan with
        // partial pivoting. O(m^3); called only on numerical alarms.
        self.m = m;
        let mut a = vec![0.0f64; m * m]; // column-major basis matrix
        for (pos, col) in basis_cols.iter().enumerate() {
            for &(row, val) in *col {
                a[pos * m + row] = val;
            }
        }
        let mut inv = vec![0.0f64; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        // Gauss-Jordan over columns of `a` (column-major access by row is
        // strided; acceptable for the rare refactor path).
        for piv in 0..m {
            // Find pivot row.
            let mut best = piv;
            let mut best_abs = a[piv * m + piv].abs();
            for r in (piv + 1)..m {
                let v = a[piv * m + r].abs();
                if v > best_abs {
                    best_abs = v;
                    best = r;
                }
            }
            if best_abs < 1e-12 {
                return Err(SingularBasis);
            }
            if best != piv {
                for k in 0..m {
                    a.swap(k * m + piv, k * m + best);
                    inv.swap(k * m + piv, k * m + best);
                }
            }
            let d = a[piv * m + piv];
            for k in 0..m {
                a[k * m + piv] /= d;
                inv[k * m + piv] /= d;
            }
            for r in 0..m {
                if r == piv {
                    continue;
                }
                let f = a[piv * m + r];
                if f == 0.0 {
                    continue;
                }
                for k in 0..m {
                    a[k * m + r] -= f * a[k * m + piv];
                    inv[k * m + r] -= f * inv[k * m + piv];
                }
            }
        }
        self.binv = inv;
        Ok(())
    }

    fn ftran(&self, col: &[(usize, f64)], out: &mut [f64]) {
        let m = self.m;
        out[..m].fill(0.0);
        for &(k, ak) in col {
            let base = k * m;
            let c = &self.binv[base..base + m];
            for i in 0..m {
                out[i] += c[i] * ak;
            }
        }
    }

    fn btran(&self, c: &[f64], out: &mut [f64]) {
        let m = self.m;
        for (k, o) in out.iter_mut().enumerate().take(m) {
            let base = k * m;
            let col = &self.binv[base..base + m];
            let mut acc = 0.0;
            for i in 0..m {
                acc += c[i] * col[i];
            }
            *o = acc;
        }
    }

    fn btran_unit_sparse(&self, r: usize, out: &mut [f64], support: &mut Vec<usize>) {
        // Row `r` of the explicit inverse, read straight out of the
        // column-major store — no BTRAN pass needed.
        let m = self.m;
        support.clear();
        for (k, o) in out.iter_mut().enumerate().take(m) {
            *o = self.binv[k * m + r];
            if *o != 0.0 {
                support.push(k);
            }
        }
    }

    fn update(&mut self, pivot_row: usize, y: &[f64]) {
        let m = self.m;
        let yr = y[pivot_row];
        debug_assert!(yr.abs() > 1e-13, "pivot too small in dense update");
        for k in 0..m {
            let base = k * m;
            let v = self.binv[base + pivot_row] / yr;
            if v == 0.0 {
                continue;
            }
            let col = &mut self.binv[base..base + m];
            for i in 0..m {
                col[i] -= y[i] * v;
            }
            col[pivot_row] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::BasisBackend;

    #[test]
    fn identity_ftran_btran_roundtrip() {
        let mut b = DenseInverse::new();
        b.reset_identity(3);
        let col = vec![(0, 2.0), (2, -1.0)];
        let mut y = vec![0.0; 3];
        b.ftran(&col, &mut y);
        assert_eq!(y, vec![2.0, 0.0, -1.0]);
        let mut pi = vec![0.0; 3];
        b.btran(&[1.0, 2.0, 3.0], &mut pi);
        assert_eq!(pi, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn update_matches_refactor() {
        // Start from identity, pivot column [1, 2, 0]^T into row 1, and
        // compare against a from-scratch inversion of the same basis.
        let mut b = DenseInverse::new();
        b.reset_identity(3);
        let entering = vec![(0, 1.0), (1, 2.0)];
        let mut y = vec![0.0; 3];
        b.ftran(&entering, &mut y);
        b.update(1, &y);

        let mut fresh = DenseInverse::new();
        let c0: Vec<(usize, f64)> = vec![(0, 1.0)];
        let c1: Vec<(usize, f64)> = vec![(0, 1.0), (1, 2.0)];
        let c2: Vec<(usize, f64)> = vec![(2, 1.0)];
        let basis_cols: Vec<&[(usize, f64)]> = vec![&c0, &c1, &c2];
        fresh.refactor(3, &basis_cols).unwrap();

        let probe = vec![(0, 0.3), (1, -1.7), (2, 0.9)];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        b.ftran(&probe, &mut y1);
        fresh.ftran(&probe, &mut y2);
        for (a, c) in y1.iter().zip(&y2) {
            assert!((a - c).abs() < 1e-12, "{y1:?} vs {y2:?}");
        }
    }

    #[test]
    fn btran_unit_matches_btran_of_unit_vector() {
        // Same non-trivial basis as `update_matches_refactor`: row
        // extraction must agree with BTRAN applied to a materialized eᵣ.
        let mut b = DenseInverse::new();
        let c0: Vec<(usize, f64)> = vec![(0, 1.0), (2, 0.5)];
        let c1: Vec<(usize, f64)> = vec![(0, 1.0), (1, 2.0)];
        let c2: Vec<(usize, f64)> = vec![(1, -0.3), (2, 1.0)];
        let basis_cols: Vec<&[(usize, f64)]> = vec![&c0, &c1, &c2];
        b.refactor(3, &basis_cols).unwrap();
        for r in 0..3 {
            let mut e = vec![0.0; 3];
            e[r] = 1.0;
            let mut via_btran = vec![0.0; 3];
            b.btran(&e, &mut via_btran);
            let mut direct = vec![0.0; 3];
            let mut support = Vec::new();
            b.btran_unit_sparse(r, &mut direct, &mut support);
            for (i, (a, c)) in direct.iter().zip(&via_btran).enumerate() {
                assert!((a - c).abs() < 1e-12, "row {r}: {direct:?} vs {via_btran:?}");
                assert_eq!(*a != 0.0, support.contains(&i), "row {r}: support at {i}");
            }
        }
    }

    #[test]
    fn refactor_detects_singularity() {
        let mut b = DenseInverse::new();
        let c0: Vec<(usize, f64)> = vec![(0, 1.0)];
        let c1: Vec<(usize, f64)> = vec![(0, 2.0)]; // rank 1 in 2x2
        let cols: Vec<&[(usize, f64)]> = vec![&c0, &c1];
        assert!(b.refactor(2, &cols).is_err());
    }
}
