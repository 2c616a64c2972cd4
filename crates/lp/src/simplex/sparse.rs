//! Sparse product-form-of-the-inverse (PFI) basis backend.
//!
//! The basis inverse is represented as `B⁻¹ = E'_j · … · E'_1 · Pᵀ · E_k · … · E_1`:
//! a refactorization eta file `E_*` with a row permutation `P` (pivot rows
//! are chosen for numerical stability, so positions and rows need not
//! align), followed by update etas `E'_*` appended at each pivot.
//!
//! Each refactorization eta has a distinct pivot row, so applying the file
//! to a sparse vector can skip irrelevant etas entirely: an eta fires only
//! if the vector is nonzero at its pivot row *at its turn*, and the only
//! candidates are etas seeded by the vector's support or by earlier
//! firings. FTRAN therefore walks a min-heap of candidate eta indices
//! (Gilbert–Peierls-style topological order) at cost `O(fill · log fill)`
//! instead of scanning the whole file — the difference between hours and
//! seconds on the 40k-row deployment LPs. A column-generation master's
//! FTRAN results fill most of its few rows, so the backend built for one
//! ([`SparseFactors::for_master`]) visits every refactorization eta in
//! order instead, without the heap.
//!
//! The transposed walk behind [`BasisBackend::btran_unit_sparse`] mirrors
//! it: `Eᵀ` rewrites only the pivot entry, from the entries at its pivot
//! and off-pivot rows, so an eta matters exactly when the vector is
//! nonzero at one of the rows it reads. Every row keeps the list of etas
//! that read it, and a max-heap walks the candidates in descending eta
//! order. A row of `B⁻¹` on the NIPS relaxation has a handful of nonzeros,
//! so extracting it touches a handful of etas instead of the whole file.
//! Once the row fills a tenth of the vector (the NIDS LP's rows do), the
//! heap no longer pays and the walk finishes with a dense pass.

use super::{BasisBackend, SingularBasis};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const NONE: u32 = u32::MAX;

/// A sequence of eta transformations `E_0, E_1, …`, each the identity
/// except column `pivot[t]`, stored in flat arrays so appending one
/// allocates nothing once the arrays have grown. Every row also keeps the
/// list of etas that read it (as pivot or off-pivot row), newest first,
/// for the transposed sparse walk.
#[derive(Default)]
struct EtaFile {
    pivot: Vec<u32>,
    inv_pivot: Vec<f64>,
    /// Off-pivot entries `(row, -y_row / y_pivot)` of eta `t` are
    /// `idx[start[t]..start[t + 1]]` / `val[..]`.
    start: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<f64>,
    /// `head[row]` = newest link of `row`'s reference list (`NONE` if none).
    head: Vec<u32>,
    /// Reference-list links: `(eta, next link)`.
    links: Vec<(u32, u32)>,
}

impl EtaFile {
    fn clear(&mut self, m: usize) {
        self.pivot.clear();
        self.inv_pivot.clear();
        self.start.clear();
        self.start.push(0);
        self.idx.clear();
        self.val.clear();
        self.head.clear();
        self.head.resize(m, NONE);
        self.links.clear();
    }

    fn len(&self) -> usize {
        self.pivot.len()
    }

    /// Append the eta that realizes replacing `pivot_row` by a column whose
    /// transformed image is `y`; `support` lists (a duplicate-free superset
    /// of) `y`'s nonzeros.
    fn push(&mut self, pivot_row: usize, y: &[f64], support: impl Iterator<Item = usize>) {
        let t = self.len() as u32;
        let inv = 1.0 / y[pivot_row];
        self.link(pivot_row, t);
        for i in support {
            if i != pivot_row && y[i].abs() > 1e-13 {
                self.idx.push(i as u32);
                self.val.push(-y[i] * inv);
                self.link(i, t);
            }
        }
        self.pivot.push(pivot_row as u32);
        self.inv_pivot.push(inv);
        self.start.push(self.idx.len() as u32);
    }

    fn link(&mut self, row: usize, t: u32) {
        self.links.push((t, self.head[row]));
        self.head[row] = (self.links.len() - 1) as u32;
    }

    #[inline]
    fn off(&self, t: usize) -> (&[u32], &[f64]) {
        let (a, b) = (self.start[t] as usize, self.start[t + 1] as usize);
        (&self.idx[a..b], &self.val[a..b])
    }

    /// `v ← E_t v`, recording rows that turn nonzero in `touched` when
    /// one is given.
    #[inline]
    fn apply(&self, t: usize, v: &mut [f64], mut touched: Option<&mut Vec<usize>>) {
        let p = self.pivot[t] as usize;
        let x = v[p];
        if x == 0.0 {
            return;
        }
        v[p] = x * self.inv_pivot[t];
        let (idx, val) = self.off(t);
        for (&i, &e) in idx.iter().zip(val) {
            let i = i as usize;
            if let Some(touched) = touched.as_deref_mut() {
                if v[i] == 0.0 {
                    touched.push(i);
                }
            }
            v[i] += e * x;
        }
    }

    /// `v ← E_tᵀ v`.
    #[inline]
    fn apply_transposed(&self, t: usize, v: &mut [f64]) {
        let p = self.pivot[t] as usize;
        let mut acc = self.inv_pivot[t] * v[p];
        let (idx, val) = self.off(t);
        for (&i, &e) in idx.iter().zip(val) {
            acc += e * v[i as usize];
        }
        v[p] = acc;
    }

    /// `v ← E_0ᵀ ⋯ E_{len-1}ᵀ v` for a vector whose nonzeros `support`
    /// covers: only etas reading a nonzero row fire, newest first. Rows
    /// that turn nonzero are appended to `support` (possibly twice after
    /// an exact cancellation). Once `support` outgrows `limit` the
    /// vector is no longer sparse enough for the heap to pay: the rest of
    /// the file is applied densely and the result is `false` (`support`
    /// then no longer covers `v`).
    fn apply_transposed_sparse(
        &self,
        v: &mut [f64],
        support: &mut Vec<usize>,
        limit: usize,
        seen: &mut Vec<u32>,
        stamp: u32,
        heap: &mut BinaryHeap<u32>,
    ) -> bool {
        seen.resize(self.len(), 0);
        heap.clear();
        for &i in support.iter() {
            self.queue_readers(i, u32::MAX, seen, stamp, heap);
        }
        while let Some(t) = heap.pop() {
            let p = self.pivot[t as usize] as usize;
            let was_zero = v[p] == 0.0;
            self.apply_transposed(t as usize, v);
            if was_zero && v[p] != 0.0 {
                if support.len() >= limit {
                    for older in (0..t as usize).rev() {
                        self.apply_transposed(older, v);
                    }
                    return false;
                }
                support.push(p);
                // Only older etas run after this one.
                self.queue_readers(p, t, seen, stamp, heap);
            }
        }
        true
    }

    /// Queue every not-yet-queued eta older than `below` that reads `row`.
    fn queue_readers(
        &self,
        row: usize,
        below: u32,
        seen: &mut [u32],
        stamp: u32,
        heap: &mut BinaryHeap<u32>,
    ) {
        let mut l = self.head[row];
        while l != NONE {
            let (t, next) = self.links[l as usize];
            if t < below && seen[t as usize] != stamp {
                seen[t as usize] = stamp;
                heap.push(t);
            }
            l = next;
        }
    }
}

/// Per-call workspace of the sparse walks, kept across calls so a pivot
/// allocates nothing.
#[derive(Default)]
struct Workspace {
    stamp: u32,
    /// Visited stamps per eta of the pre / post file.
    pre_seen: Vec<u32>,
    post_seen: Vec<u32>,
    min_heap: BinaryHeap<Reverse<u32>>,
    max_heap: BinaryHeap<u32>,
    /// `(destination, value)` pairs of a sparse permutation.
    moved: Vec<(usize, f64)>,
    /// Buffer of a dense permutation.
    permuted: Vec<f64>,
    /// Moving average of the fill of recent `btran_unit_sparse` results.
    row_density: f64,
}

impl Workspace {
    fn next_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.pre_seen.fill(0);
            self.post_seen.fill(0);
            self.stamp = 1;
        }
        self.stamp
    }
}

pub struct SparseFactors {
    m: usize,
    /// Etas from the last refactorization, in row space (applied first in
    /// FTRAN).
    pre: EtaFile,
    /// `eta_of_row[r]` = index into `pre` whose pivot row is `r` (`NONE` if
    /// the row never needed a non-trivial eta).
    eta_of_row: Vec<u32>,
    /// `perm[pos]` = pivot row used for basis position `pos`; `None` when
    /// the permutation is the identity.
    perm: Option<Vec<usize>>,
    /// `inv_perm[row]` = basis position whose pivot row is `row`.
    inv_perm: Option<Vec<usize>>,
    /// Update etas appended since the last refactorization, in position
    /// space.
    post: EtaFile,
    /// Update-eta growth budget before hinting a refactor.
    update_budget: usize,
    /// Least `update_budget` [`BasisBackend::reset_identity`] sets.
    update_floor: usize,
    /// FTRAN visits every refactorization eta instead of walking the heap.
    dense_ftran: bool,
    work: RefCell<Workspace>,
}

impl SparseFactors {
    pub fn new() -> Self {
        SparseFactors {
            m: 0,
            pre: EtaFile::default(),
            eta_of_row: Vec::new(),
            perm: None,
            inv_perm: None,
            post: EtaFile::default(),
            update_budget: 96,
            update_floor: 96,
            dense_ftran: false,
            work: RefCell::new(Workspace::default()),
        }
    }

    /// A backend for a column-generation master: a few rows and dense
    /// columns. It hints a refactorization after `floor` updates on LPs
    /// of up to `16 · floor` rows (the default floor is 96), and its FTRAN
    /// visits every refactorization eta in index order: the etas that
    /// meet a zero pivot entry are skipped as on the heap walk, so the
    /// result is the same, without the heap's cost per eta.
    pub(crate) fn for_master(floor: usize) -> Self {
        SparseFactors {
            update_budget: floor,
            update_floor: floor,
            dense_ftran: true,
            ..Self::new()
        }
    }

    fn clear(&mut self, m: usize) {
        self.m = m;
        self.pre.clear(m);
        self.post.clear(m);
        self.eta_of_row.clear();
        self.eta_of_row.resize(m, NONE);
        self.perm = None;
        self.inv_perm = None;
    }

    /// Apply the pre-eta file to a sparse vector held in `(v, touched)`:
    /// only etas reachable from the support fire, in index order. An
    /// FTRAN (`ftran` true) of a master backend visits every eta instead.
    fn apply_pre_sparse(&self, v: &mut [f64], touched: &mut Vec<usize>, ftran: bool) {
        if ftran && self.dense_ftran {
            for t in 0..self.pre.len() {
                self.pre.apply(t, v, Some(touched));
            }
            return;
        }
        let mut guard = self.work.borrow_mut();
        let s = &mut *guard;
        let cur = s.next_stamp();
        s.pre_seen.resize(self.pre.len(), 0);
        let (seen, heap) = (&mut s.pre_seen, &mut s.min_heap);
        heap.clear();
        for &r in touched.iter() {
            let e = self.eta_of_row[r];
            if e != NONE && seen[e as usize] != cur {
                seen[e as usize] = cur;
                heap.push(Reverse(e));
            }
        }
        while let Some(Reverse(t)) = heap.pop() {
            let p = self.pre.pivot[t as usize] as usize;
            let x = v[p];
            if x == 0.0 {
                continue; // cancelled before its turn
            }
            v[p] = x * self.pre.inv_pivot[t as usize];
            let (idx, val) = self.pre.off(t as usize);
            for (&i, &e) in idx.iter().zip(val) {
                let i = i as usize;
                if v[i] == 0.0 {
                    touched.push(i);
                }
                v[i] += e * x;
                // A later eta pivoting on a newly nonzero row may now fire.
                let cand = self.eta_of_row[i];
                if cand != NONE && cand > t && seen[cand as usize] != cur {
                    seen[cand as usize] = cur;
                    heap.push(Reverse(cand));
                }
            }
        }
    }
}

impl Default for SparseFactors {
    fn default() -> Self {
        Self::new()
    }
}

impl BasisBackend for SparseFactors {
    fn reset_identity(&mut self, m: usize) {
        self.clear(m);
        // Amortize refactorization against problem size: refactor cost is
        // O(m log m + fill), so the budget grows with m. Sparse FTRAN
        // skips dead update etas in O(1), keeping long files cheap.
        self.update_budget = (m / 16).clamp(self.update_floor, 2048);
    }

    fn hint_refactor(&self) -> bool {
        self.post.len() > self.update_budget
    }

    fn refactor(&mut self, m: usize, basis_cols: &[&[(usize, f64)]]) -> Result<(), SingularBasis> {
        self.clear(m);
        // Process columns by ascending nonzero count: unit/slack columns
        // yield identity or trivial etas and go first.
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&p| basis_cols[p].len());

        let mut assigned_row = vec![false; m];
        let mut pos_pivot_row = vec![usize::MAX; m];
        // Sparse workspace: dense value array plus a touched list, so a
        // column costs O(fill · log fill), not O(m · file).
        let mut y = vec![0.0f64; m];
        let mut touched: Vec<usize> = Vec::with_capacity(64);
        for &pos in &order {
            for &(r, a) in basis_cols[pos] {
                if y[r] == 0.0 {
                    touched.push(r);
                }
                y[r] += a;
            }
            self.apply_pre_sparse(&mut y, &mut touched, false);
            // Exact cancellations can re-push an index: dedupe before the
            // support is used to build the eta (duplicate off-entries
            // would corrupt the factorization).
            touched.sort_unstable();
            touched.dedup();
            // Pivot: largest magnitude among unassigned touched rows.
            let mut pr = usize::MAX;
            let mut best = 1e-10;
            for &i in &touched {
                if !assigned_row[i] && y[i].abs() > best {
                    best = y[i].abs();
                    pr = i;
                }
            }
            if pr == usize::MAX {
                // Reset workspace before bailing.
                for &i in &touched {
                    y[i] = 0.0;
                }
                return Err(SingularBasis);
            }
            assigned_row[pr] = true;
            pos_pivot_row[pos] = pr;
            // Identity etas (unit columns) are not stored.
            let identity = (1.0 / y[pr] - 1.0).abs() < 1e-14
                && touched.iter().all(|&i| i == pr || y[i].abs() <= 1e-13);
            if !identity {
                self.eta_of_row[pr] = self.pre.len() as u32;
                self.pre.push(pr, &y, touched.iter().copied());
            }
            for &i in &touched {
                y[i] = 0.0;
            }
            touched.clear();
        }
        if pos_pivot_row.iter().enumerate().any(|(pos, &pr)| pr != pos) {
            let mut inv = vec![0usize; m];
            for (pos, &pr) in pos_pivot_row.iter().enumerate() {
                inv[pr] = pos;
            }
            self.perm = Some(pos_pivot_row);
            self.inv_perm = Some(inv);
        }
        Ok(())
    }

    fn ftran(&self, col: &[(usize, f64)], out: &mut [f64]) {
        out[..self.m].fill(0.0);
        let mut touched: Vec<usize> = Vec::with_capacity(col.len() * 4);
        for &(r, a) in col {
            if out[r] == 0.0 {
                touched.push(r);
            }
            out[r] += a;
        }
        self.apply_pre_sparse(out, &mut touched, true);
        if let Some(perm) = &self.perm {
            // out'[pos] = out[perm[pos]]  (apply Pᵀ)
            let tmp: Vec<f64> = (0..self.m).map(|pos| out[perm[pos]]).collect();
            out[..self.m].copy_from_slice(&tmp);
        }
        for t in 0..self.post.len() {
            self.post.apply(t, out, None);
        }
    }

    fn btran(&self, c: &[f64], out: &mut [f64]) {
        out[..self.m].copy_from_slice(&c[..self.m]);
        for t in (0..self.post.len()).rev() {
            self.post.apply_transposed(t, out);
        }
        if let Some(perm) = &self.perm {
            // v ← P v : (P v)[perm[pos]] = v[pos]
            let mut tmp = vec![0.0f64; self.m];
            for (pos, &pr) in perm.iter().enumerate() {
                tmp[pr] = out[pos];
            }
            out[..self.m].copy_from_slice(&tmp);
        }
        for t in (0..self.pre.len()).rev() {
            self.pre.apply_transposed(t, out);
        }
    }

    fn btran_unit_sparse(&self, r: usize, out: &mut [f64], support: &mut Vec<usize>) {
        support.clear();
        out[r] = 1.0;
        support.push(r);
        let mut guard = self.work.borrow_mut();
        let s = &mut *guard;
        let cur = s.next_stamp();
        // Past 10 % density a dense pass is cheaper than the heap walk.
        // When recent rows were that dense, this one likely is too: go
        // dense at the first fill-in. Both passes apply the same etas in
        // the same order, so the result does not depend on the choice.
        let limit = if s.row_density > 0.1 { 0 } else { (self.m / 10).max(1) };
        let mut sparse = self.post.apply_transposed_sparse(
            out,
            support,
            limit,
            &mut s.post_seen,
            cur,
            &mut s.max_heap,
        );
        if let Some(perm) = &self.perm {
            // v ← P v: the value at position `pos` moves to row `perm[pos]`.
            if sparse {
                s.moved.clear();
                for &pos in support.iter() {
                    let x = out[pos];
                    if x != 0.0 {
                        out[pos] = 0.0;
                        s.moved.push((perm[pos], x));
                    }
                }
                support.clear();
                for &(row, x) in &s.moved {
                    out[row] = x;
                    support.push(row);
                }
            } else {
                s.permuted.resize(self.m, 0.0);
                for (pos, &row) in perm.iter().enumerate() {
                    s.permuted[row] = out[pos];
                }
                out[..self.m].copy_from_slice(&s.permuted);
            }
        }
        if sparse {
            sparse = self.pre.apply_transposed_sparse(
                out,
                support,
                limit,
                &mut s.pre_seen,
                cur,
                &mut s.max_heap,
            );
        } else {
            for t in (0..self.pre.len()).rev() {
                self.pre.apply_transposed(t, out);
            }
        }
        if sparse {
            support.sort_unstable();
            support.dedup();
            support.retain(|&i| out[i] != 0.0);
        } else {
            support.clear();
            support.extend((0..self.m).filter(|&i| out[i] != 0.0));
        }
        s.row_density = 0.9 * s.row_density + 0.1 * support.len() as f64 / self.m as f64;
    }

    fn update(&mut self, pivot_row: usize, y: &[f64]) {
        self.post.push(pivot_row, y, 0..self.m);
    }

    fn ftran_sparse(&self, col: &[(usize, f64)], out: &mut [f64], touched: &mut Vec<usize>) {
        touched.clear();
        for &(r, a) in col {
            if out[r] == 0.0 {
                touched.push(r);
            }
            out[r] += a;
        }
        self.apply_pre_sparse(out, touched, true);
        if let Some(inv) = &self.inv_perm {
            // Permute sparsely: move values from rows to positions.
            let mut guard = self.work.borrow_mut();
            let moved = &mut guard.moved;
            moved.clear();
            for &r in touched.iter() {
                let v = out[r];
                if v != 0.0 {
                    out[r] = 0.0;
                    moved.push((inv[r], v));
                }
            }
            touched.clear();
            for &(pos, v) in moved.iter() {
                out[pos] = v;
                touched.push(pos);
            }
        }
        for t in 0..self.post.len() {
            self.post.apply(t, out, Some(touched));
        }
        // Exact cancellations can re-push indices; callers (ratio test,
        // basic-value updates, eta construction) need a duplicate-free
        // support.
        touched.sort_unstable();
        touched.dedup();
    }

    fn update_sparse(&mut self, pivot_row: usize, y: &[f64], touched: &[usize]) {
        self.post.push(pivot_row, y, touched.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::dense::DenseInverse;
    use crate::simplex::BasisBackend;

    /// Pseudo-random sparse basis columns (diagonally dominated so the
    /// matrix is comfortably nonsingular).
    fn random_basis(m: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..m)
            .map(|pos| {
                let mut col = vec![(pos, 2.0 + (next() % 7) as f64)];
                for _ in 0..(next() % 3) {
                    let r = (next() as usize) % m;
                    if r != pos {
                        col.push((r, ((next() % 9) as f64 - 4.0) / 3.0));
                    }
                }
                col.sort_by_key(|&(r, _)| r);
                col.dedup_by_key(|&mut (r, _)| r);
                col
            })
            .collect()
    }

    #[test]
    fn sparse_matches_dense_after_refactor() {
        for seed in 1..6u64 {
            let m = 17;
            let cols = random_basis(m, seed);
            let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
            let mut sp = SparseFactors::new();
            let mut de = DenseInverse::new();
            sp.refactor(m, &refs).unwrap();
            de.refactor(m, &refs).unwrap();

            let probe: Vec<(usize, f64)> = vec![(0, 1.5), (m / 2, -2.0), (m - 1, 0.75)];
            let mut ys = vec![0.0; m];
            let mut yd = vec![0.0; m];
            sp.ftran(&probe, &mut ys);
            de.ftran(&probe, &mut yd);
            for i in 0..m {
                assert!((ys[i] - yd[i]).abs() < 1e-9, "ftran mismatch at {i} (seed {seed})");
            }

            let c: Vec<f64> = (0..m).map(|i| (i as f64) - 3.0).collect();
            let mut ps = vec![0.0; m];
            let mut pd = vec![0.0; m];
            sp.btran(&c, &mut ps);
            de.btran(&c, &mut pd);
            for i in 0..m {
                assert!((ps[i] - pd[i]).abs() < 1e-9, "btran mismatch at {i} (seed {seed})");
            }
        }
    }

    #[test]
    fn sparse_matches_dense_after_updates() {
        let m = 11;
        let cols = random_basis(m, 42);
        let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut sp = SparseFactors::new();
        let mut de = DenseInverse::new();
        sp.refactor(m, &refs).unwrap();
        de.refactor(m, &refs).unwrap();

        // Run a few synchronized pivots.
        for step in 0..5usize {
            let entering: Vec<(usize, f64)> =
                vec![(step % m, 1.0 + step as f64), ((step * 3 + 1) % m, -0.5)];
            let mut ys = vec![0.0; m];
            let mut yd = vec![0.0; m];
            sp.ftran(&entering, &mut ys);
            de.ftran(&entering, &mut yd);
            // Pick the same well-conditioned pivot row for both.
            let r = (0..m).max_by(|&a, &b| ys[a].abs().total_cmp(&ys[b].abs())).unwrap();
            sp.update(r, &ys);
            de.update(r, &yd);

            let probe: Vec<(usize, f64)> = vec![(1, 1.0), (m - 2, 2.0)];
            let mut a = vec![0.0; m];
            let mut b = vec![0.0; m];
            sp.ftran(&probe, &mut a);
            de.ftran(&probe, &mut b);
            for i in 0..m {
                assert!((a[i] - b[i]).abs() < 1e-8, "step {step} row {i}: {a:?} vs {b:?}");
            }
        }
    }

    /// Check every row of `B⁻¹` from the sparse backend against the dense
    /// oracle: a BTRAN of `eᵣ` and `btran_unit_sparse` values to `tol`, and
    /// the sparse support duplicate-free and covering every nonzero.
    fn assert_rows_match(sp: &SparseFactors, de: &DenseInverse, m: usize, tol: f64, what: &str) {
        let mut rs = vec![0.0; m];
        let mut support = Vec::new();
        let mut de_support = Vec::new();
        for r in 0..m {
            let mut rd = vec![0.0; m];
            de.btran_unit_sparse(r, &mut rd, &mut de_support);
            let mut e = vec![0.0; m];
            e[r] = 1.0;
            let mut dense = vec![0.0; m];
            sp.btran(&e, &mut dense);
            sp.btran_unit_sparse(r, &mut rs, &mut support);
            for i in 0..m {
                assert!(
                    (dense[i] - rd[i]).abs() <= tol,
                    "{what}: row {r} col {i}: {dense:?} vs {rd:?}"
                );
                assert!((rs[i] - rd[i]).abs() <= tol, "{what}: sparse row {r} col {i}");
                assert_eq!(rs[i] != 0.0, support.contains(&i), "{what}: row {r} support at {i}");
            }
            let mut sorted = support.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), support.len(), "{what}: row {r} support has duplicates");
            // Leave `rs` all zero for the next call, as the contract asks.
            for &i in &support {
                rs[i] = 0.0;
            }
        }
    }

    #[test]
    fn btran_unit_matches_dense_rows() {
        // Row extraction must agree with the dense backend across a
        // permuted refactorization plus a few update etas.
        let m = 13;
        let cols = random_basis(m, 7);
        let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut sp = SparseFactors::new();
        let mut de = DenseInverse::new();
        sp.refactor(m, &refs).unwrap();
        de.refactor(m, &refs).unwrap();
        for step in 0..3usize {
            let entering: Vec<(usize, f64)> = vec![(step, 2.0), ((step + 5) % m, 0.5)];
            let mut ys = vec![0.0; m];
            let mut yd = vec![0.0; m];
            sp.ftran(&entering, &mut ys);
            de.ftran(&entering, &mut yd);
            let r = (0..m).max_by(|&a, &b| ys[a].abs().total_cmp(&ys[b].abs())).unwrap();
            sp.update(r, &ys);
            de.update(r, &yd);
        }
        assert_rows_match(&sp, &de, m, 1e-9, "3 updates");
    }

    #[test]
    fn btran_unit_sparse_through_permuted_refactor_and_long_eta_file() {
        // A basis whose positions are a rotation of the rows forces a
        // non-identity row permutation; 240 update etas then stack a long
        // post file on top. Every row of B⁻¹ must match the dense oracle,
        // before and after a second refactorization of the final basis.
        let m = 60;
        let diag = random_basis(m, 11);
        let mut basis: Vec<Vec<(usize, f64)>> =
            (0..m).map(|pos| diag[(pos + 1) % m].clone()).collect();
        let refs: Vec<&[(usize, f64)]> = basis.iter().map(|c| c.as_slice()).collect();
        let mut sp = SparseFactors::new();
        let mut de = DenseInverse::new();
        sp.refactor(m, &refs).unwrap();
        de.refactor(m, &refs).unwrap();
        assert!(sp.perm.is_some(), "the rotated basis must need a row permutation");
        assert_rows_match(&sp, &de, m, 1e-12, "after refactor");

        let (mut ys, mut yd) = (vec![0.0; m], vec![0.0; m]);
        let mut touched = Vec::new();
        for step in 0..240usize {
            let entering = &random_basis(m, 100 + step as u64)[(step * 7) % m];
            ys.fill(0.0);
            sp.ftran_sparse(entering, &mut ys, &mut touched);
            de.ftran(entering, &mut yd);
            let r = (0..m).max_by(|&a, &b| ys[a].abs().total_cmp(&ys[b].abs())).unwrap();
            sp.update_sparse(r, &ys, &touched);
            de.update(r, &yd);
            assert!(ys[r].abs() > 1e-2, "step {step}: weak pivot {}", ys[r]);
            basis[r] = entering.clone();
            if step % 60 == 59 {
                assert_rows_match(&sp, &de, m, 1e-12, &format!("after {} updates", step + 1));
            }
        }
        let refs: Vec<&[(usize, f64)]> = basis.iter().map(|c| c.as_slice()).collect();
        sp.refactor(m, &refs).unwrap();
        de.refactor(m, &refs).unwrap();
        assert_rows_match(&sp, &de, m, 1e-12, "after the second refactor");
    }

    #[test]
    fn identity_roundtrip() {
        let mut sp = SparseFactors::new();
        sp.reset_identity(4);
        let mut y = vec![0.0; 4];
        sp.ftran(&[(2, 3.0)], &mut y);
        assert_eq!(y, vec![0.0, 0.0, 3.0, 0.0]);
        let mut p = vec![0.0; 4];
        sp.btran(&[1.0, 2.0, 3.0, 4.0], &mut p);
        assert_eq!(p, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn larger_random_bases_roundtrip() {
        // FTRAN of B's own columns must recover unit vectors.
        for seed in [3u64, 9, 27] {
            let m = 200;
            let cols = random_basis(m, seed);
            let refs: Vec<&[(usize, f64)]> = cols.iter().map(|c| c.as_slice()).collect();
            let mut sp = SparseFactors::new();
            sp.refactor(m, &refs).unwrap();
            let mut y = vec![0.0; m];
            for pos in (0..m).step_by(17) {
                sp.ftran(&cols[pos], &mut y);
                for (i, &v) in y.iter().enumerate() {
                    let want = if i == pos { 1.0 } else { 0.0 };
                    assert!(
                        (v - want).abs() < 1e-8,
                        "seed {seed}: B^-1 B e_{pos} wrong at {i}: {v}"
                    );
                }
            }
        }
    }
}
