//! Simplex correctness tests: hand-checked LPs, pathological cases, and
//! randomized KKT-certified instances on both basis backends.

use nwdp_lp::simplex::dense::DenseInverse;
use nwdp_lp::simplex::sparse::SparseFactors;
use nwdp_lp::simplex::{solve_with_backend, BasisBackend, SingularBasis};
use nwdp_lp::{solve, verify_kkt, Cmp, KktTol, Problem, Sense, SolverOpts, Status};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn opts() -> SolverOpts {
    SolverOpts::default()
}

#[test]
fn textbook_max() {
    // max 3x + 5y ; x <= 4 ; 2y <= 12 ; 3x + 2y <= 18 ; x,y >= 0
    // optimum (2, 6) with objective 36.
    let mut p = Problem::new(Sense::Max);
    let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
    p.add_con("c1", &[(x, 1.0)], Cmp::Le, 4.0);
    p.add_con("c2", &[(y, 2.0)], Cmp::Le, 12.0);
    p.add_con("c3", &[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Optimal);
    assert!((s.objective - 36.0).abs() < 1e-7);
    assert!((s.value(x) - 2.0).abs() < 1e-7);
    assert!((s.value(y) - 6.0).abs() < 1e-7);
    verify_kkt(&p, &s, KktTol::default()).unwrap();
}

#[test]
fn textbook_min_with_ge_rows() {
    // min 2x + 3y ; x + y >= 10 ; x >= 2 ; y >= 3  → x=7, y=3, obj=23.
    let mut p = Problem::new(Sense::Min);
    let x = p.add_var("x", 2.0, f64::INFINITY, 2.0);
    let y = p.add_var("y", 3.0, f64::INFINITY, 3.0);
    p.add_con("cover", &[(x, 1.0), (y, 1.0)], Cmp::Ge, 10.0);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Optimal);
    assert!((s.objective - 23.0).abs() < 1e-7, "obj = {}", s.objective);
    verify_kkt(&p, &s, KktTol::default()).unwrap();
}

#[test]
fn equality_constraints() {
    // min x + 2y + 3z ; x+y+z = 6 ; y - z = 1 ; all in [0, 10].
    // Put weight on cheap x: optimum x=5, y=1, z=0 → 7.
    let mut p = Problem::new(Sense::Min);
    let x = p.add_var("x", 0.0, 10.0, 1.0);
    let y = p.add_var("y", 0.0, 10.0, 2.0);
    let z = p.add_var("z", 0.0, 10.0, 3.0);
    p.add_con("sum", &[(x, 1.0), (y, 1.0), (z, 1.0)], Cmp::Eq, 6.0);
    p.add_con("diff", &[(y, 1.0), (z, -1.0)], Cmp::Eq, 1.0);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Optimal);
    assert!((s.objective - 7.0).abs() < 1e-7);
    verify_kkt(&p, &s, KktTol::default()).unwrap();
}

#[test]
fn infeasible_detected() {
    let mut p = Problem::new(Sense::Min);
    let x = p.add_var("x", 0.0, 1.0, 1.0);
    p.add_con("lo", &[(x, 1.0)], Cmp::Ge, 2.0);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Infeasible);
}

#[test]
fn infeasible_between_rows() {
    let mut p = Problem::new(Sense::Max);
    let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
    p.add_con("a", &[(x, 1.0)], Cmp::Ge, 5.0);
    p.add_con("b", &[(x, 1.0)], Cmp::Le, 4.0);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Infeasible);
}

#[test]
fn unbounded_detected() {
    let mut p = Problem::new(Sense::Max);
    let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 0.0);
    p.add_con("c", &[(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Unbounded);
}

#[test]
fn bound_flip_path() {
    // max x + y with x,y in [0,1] and x + y <= 1.5: needs a bound
    // flip or two pivots; optimum 1.5.
    let mut p = Problem::new(Sense::Max);
    let x = p.add_var("x", 0.0, 1.0, 1.0);
    let y = p.add_var("y", 0.0, 1.0, 1.0);
    p.add_con("c", &[(x, 1.0), (y, 1.0)], Cmp::Le, 1.5);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Optimal);
    assert!((s.objective - 1.5).abs() < 1e-7);
    verify_kkt(&p, &s, KktTol::default()).unwrap();
}

#[test]
fn negative_bounds_and_free_vars() {
    // min x + y ; x free ; y in [-5, -1]; x + y >= -3  → x = -3 - y... with
    // y at -1 ... x >= -3 - y = -2 → x = -2, y = -1? obj -3. With y at -5:
    // x >= 2 → obj -3. Degenerate family, optimum -3.
    let mut p = Problem::new(Sense::Min);
    let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
    let y = p.add_var("y", -5.0, -1.0, 1.0);
    p.add_con("c", &[(x, 1.0), (y, 1.0)], Cmp::Ge, -3.0);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Optimal);
    assert!((s.objective + 3.0).abs() < 1e-7, "obj = {}", s.objective);
    verify_kkt(&p, &s, KktTol::default()).unwrap();
}

#[test]
fn fixed_variables_respected() {
    let mut p = Problem::new(Sense::Max);
    let x = p.add_var("x", 2.0, 2.0, 10.0); // fixed at 2
    let y = p.add_var("y", 0.0, 10.0, 1.0);
    p.add_con("c", &[(x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Optimal);
    assert!((s.value(x) - 2.0).abs() < 1e-9);
    assert!((s.value(y) - 3.0).abs() < 1e-7);
    verify_kkt(&p, &s, KktTol::default()).unwrap();
}

#[test]
fn degenerate_transportation() {
    // Highly degenerate assignment-like LP; exercises anti-cycling.
    let mut p = Problem::new(Sense::Min);
    let n = 4;
    let mut v = vec![];
    for i in 0..n {
        for j in 0..n {
            v.push(p.add_var(format!("x{i}{j}"), 0.0, 1.0, ((i * 7 + j * 3) % 5) as f64));
        }
    }
    for i in 0..n {
        let terms: Vec<_> = (0..n).map(|j| (v[i * n + j], 1.0)).collect();
        p.add_con(format!("r{i}"), &terms, Cmp::Eq, 1.0);
    }
    for j in 0..n {
        let terms: Vec<_> = (0..n).map(|i| (v[i * n + j], 1.0)).collect();
        p.add_con(format!("c{j}"), &terms, Cmp::Eq, 1.0);
    }
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Optimal);
    verify_kkt(&p, &s, KktTol::default()).unwrap();
}

#[test]
fn min_max_load_structure() {
    // The NIDS LP shape in miniature: minimize the max load of 2 nodes
    // sharing 3 unit jobs with different weights.
    let mut p = Problem::new(Sense::Min);
    let z = p.add_var("z", 0.0, f64::INFINITY, 1.0);
    let mut share = vec![];
    for k in 0..3 {
        let a = p.add_var(format!("d{k}a"), 0.0, 1.0, 0.0);
        let b = p.add_var(format!("d{k}b"), 0.0, 1.0, 0.0);
        p.add_con(format!("cover{k}"), &[(a, 1.0), (b, 1.0)], Cmp::Eq, 1.0);
        share.push((a, b));
    }
    // node A twice as fast as node B; job weights 1, 2, 3.
    let wa: Vec<_> =
        share.iter().enumerate().map(|(k, &(a, _))| (a, (k + 1) as f64 / 2.0)).collect();
    let mut ta = wa.clone();
    ta.push((z, -1.0));
    p.add_con("loadA", &ta, Cmp::Le, 0.0);
    let mut tb: Vec<_> = share.iter().enumerate().map(|(k, &(_, b))| (b, (k + 1) as f64)).collect();
    tb.push((z, -1.0));
    p.add_con("loadB", &tb, Cmp::Le, 0.0);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Optimal);
    // Total work 6; speeds 2:1 → balanced makespan = 6/3 = 2.
    assert!((s.objective - 2.0).abs() < 1e-6, "obj = {}", s.objective);
    verify_kkt(&p, &s, KktTol::default()).unwrap();
}

/// Build a random LP guaranteed feasible (a random interior point is
/// chosen first; row RHS values are set to make it feasible).
fn random_feasible_lp(rng: &mut StdRng, nv: usize, nc: usize) -> Problem {
    let sense = if rng.random_bool(0.5) { Sense::Min } else { Sense::Max };
    let mut p = Problem::new(sense);
    let mut point = Vec::with_capacity(nv);
    let mut vars = Vec::with_capacity(nv);
    for j in 0..nv {
        let lb = if rng.random_bool(0.8) { rng.random_range(-5.0..0.0) } else { f64::NEG_INFINITY };
        let ub = if rng.random_bool(0.8) { rng.random_range(1.0..6.0) } else { f64::INFINITY };
        let x0 = rng.random_range(0.0..1.0); // inside [lb, ub] by construction
        point.push(x0);
        vars.push(p.add_var(format!("v{j}"), lb, ub, rng.random_range(-3.0..3.0)));
    }
    for i in 0..nc {
        let k = rng.random_range(1..=nv.min(4));
        let mut terms = Vec::new();
        let mut act = 0.0;
        for _ in 0..k {
            let j = rng.random_range(0..nv);
            let c: f64 = rng.random_range(-2.0..2.0);
            act += c * point[j];
            terms.push((vars[j], c));
        }
        let cmp = match rng.random_range(0..3) {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        let rhs = match cmp {
            Cmp::Le => act + rng.random_range(0.0..2.0),
            Cmp::Ge => act - rng.random_range(0.0..2.0),
            Cmp::Eq => act,
        };
        p.add_con(format!("c{i}"), &terms, cmp, rhs);
    }
    p
}

#[test]
fn randomized_lps_kkt_certified_dense() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut optimal = 0;
    for trial in 0..120 {
        let nv = rng.random_range(2..12);
        let nc = rng.random_range(1..14);
        let p = random_feasible_lp(&mut rng, nv, nc);
        let mut backend = DenseInverse::new();
        let s = solve_with_backend(&p, &opts(), &mut backend);
        match s.status {
            Status::Optimal => {
                verify_kkt(&p, &s, KktTol::default())
                    .unwrap_or_else(|e| panic!("trial {trial}: KKT failed: {e}"));
                optimal += 1;
            }
            Status::Unbounded => {} // legitimately possible with free vars
            Status::Infeasible => {
                panic!("trial {trial}: feasible-by-construction LP reported infeasible")
            }
            Status::IterLimit => panic!("trial {trial}: iteration limit"),
            Status::NumericalFailure => panic!("trial {trial}: numerical failure"),
        }
    }
    assert!(optimal > 60, "too few optimal instances: {optimal}");
}

#[test]
fn randomized_lps_dense_vs_sparse_agree() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for trial in 0..60 {
        let nv = rng.random_range(2..10);
        let nc = rng.random_range(1..10);
        let p = random_feasible_lp(&mut rng, nv, nc);
        let mut d = DenseInverse::new();
        let mut sp = SparseFactors::new();
        let sd = solve_with_backend(&p, &opts(), &mut d);
        let ss = solve_with_backend(&p, &opts(), &mut sp);
        assert_eq!(sd.status, ss.status, "trial {trial}: status mismatch");
        if sd.status == Status::Optimal {
            assert!(
                (sd.objective - ss.objective).abs() < 1e-5 * (1.0 + sd.objective.abs()),
                "trial {trial}: obj {} vs {}",
                sd.objective,
                ss.objective
            );
            verify_kkt(&p, &ss, KktTol::default())
                .unwrap_or_else(|e| panic!("trial {trial} sparse KKT: {e}"));
        }
    }
}

#[test]
fn default_dispatch_is_the_sparse_backend() {
    // `solve` with default options must be exactly a `SparseFactors`
    // solve (same point, objective and pivot count), from a few rows up
    // to a 62-row GUB packing LP.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rng = StdRng::seed_from_u64(0xD15);
    let mut problems: Vec<Problem> = (0..20)
        .map(|_| {
            let nv = rng.random_range(2..10);
            let nc = rng.random_range(1..10);
            random_feasible_lp(&mut rng, nv, nc)
        })
        .collect();
    let mut gub = Problem::new(Sense::Max);
    let vars: Vec<_> = (0..200)
        .map(|j| gub.add_var(format!("x{j}"), 0.0, 1.0, 1.0 + (j % 7) as f64 * 0.3))
        .collect();
    for g in 0..50 {
        let terms: Vec<_> = (0..4).map(|t| (vars[g * 4 + t], 1.0)).collect();
        gub.add_con(format!("g{g}"), &terms, Cmp::Le, 1.0);
    }
    for c in 0..12 {
        let terms: Vec<_> =
            (0..200).filter(|j| j % 12 == c).map(|j| (vars[j], 1.0 + (j % 3) as f64)).collect();
        gub.add_con(format!("cap{c}"), &terms, Cmp::Le, 50.0 / 8.0);
    }
    problems.push(gub);
    for (trial, p) in problems.iter().enumerate() {
        let s = solve(p, &SolverOpts::default());
        let r = solve_with_backend(p, &SolverOpts::default(), &mut SparseFactors::new());
        assert_eq!(s.status, r.status, "trial {trial}");
        assert_eq!(s.iterations, r.iterations, "trial {trial}");
        assert_eq!(s.objective.to_bits(), r.objective.to_bits(), "trial {trial}");
        assert_eq!(bits(&s.x), bits(&r.x), "trial {trial}");
    }
}

#[test]
fn larger_structured_lp_sparse_backend() {
    // A mid-size covering/packing mix solved with the sparse backend
    // explicitly, KKT-verified.
    let mut rng = StdRng::seed_from_u64(7);
    let n = 120;
    let mut p = Problem::new(Sense::Max);
    let vars: Vec<_> =
        (0..n).map(|j| p.add_var(format!("x{j}"), 0.0, 1.0, rng.random_range(0.1..1.0))).collect();
    for g in 0..30 {
        let terms: Vec<_> = (0..4).map(|t| (vars[(g * 4 + t) % n], 1.0)).collect();
        p.add_con(format!("gub{g}"), &terms, Cmp::Le, 1.0);
    }
    for c in 0..8 {
        let terms: Vec<_> =
            (0..n).filter(|j| j % 8 == c).map(|j| (vars[j], rng.random_range(0.5..2.0))).collect();
        p.add_con(format!("cap{c}"), &terms, Cmp::Le, 3.0);
    }
    let mut sp = SparseFactors::new();
    let s = solve_with_backend(&p, &opts(), &mut sp);
    assert_eq!(s.status, Status::Optimal);
    verify_kkt(&p, &s, KktTol::default()).unwrap();
}

#[test]
fn dual_values_match_textbook() {
    // max 3x + 5y ; x <= 4 ; 2y <= 12 ; 3x + 2y <= 18
    // Known optimal duals: (0, 3/2, 1).
    let mut p = Problem::new(Sense::Max);
    let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
    let c1 = p.add_con("c1", &[(x, 1.0)], Cmp::Le, 4.0);
    let c2 = p.add_con("c2", &[(y, 2.0)], Cmp::Le, 12.0);
    let c3 = p.add_con("c3", &[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Optimal);
    assert!(s.dual(c1).abs() < 1e-7, "dual c1 = {}", s.dual(c1));
    assert!((s.dual(c2) - 1.5).abs() < 1e-7, "dual c2 = {}", s.dual(c2));
    assert!((s.dual(c3) - 1.0).abs() < 1e-7, "dual c3 = {}", s.dual(c3));
    // Strong duality: b'pi == optimal objective.
    let dual_obj = 4.0 * s.dual(c1) + 12.0 * s.dual(c2) + 18.0 * s.dual(c3);
    assert!((dual_obj - s.objective).abs() < 1e-6);
}

#[test]
fn duals_scale_correctly_under_row_equilibration() {
    // Same LP with one row multiplied by 1e6: the reported dual must be
    // divided by 1e6 accordingly (duals are in original row units).
    let mut p = Problem::new(Sense::Max);
    let x = p.add_var("x", 0.0, 10.0, 1.0);
    let c = p.add_con("big", &[(x, 1.0e6)], Cmp::Le, 3.0e6);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Optimal);
    assert!((s.value(x) - 3.0).abs() < 1e-7);
    // Raising rhs by 1 unit gains 1/1e6 units of x → dual = 1e-6.
    assert!((s.dual(c) - 1.0e-6).abs() < 1e-12, "dual = {}", s.dual(c));
}

#[test]
fn zero_constraint_problem() {
    let mut p = Problem::new(Sense::Max);
    let x = p.add_var("x", 0.0, 7.0, 2.0);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Optimal);
    assert!((s.objective - 14.0).abs() < 1e-9);
    assert_eq!(s.value(x), 7.0);
}

#[test]
fn all_variables_fixed() {
    let mut p = Problem::new(Sense::Min);
    let x = p.add_var("x", 2.0, 2.0, 3.0);
    let y = p.add_var("y", -1.0, -1.0, 1.0);
    p.add_con("c", &[(x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
    let s = solve(&p, &opts());
    assert_eq!(s.status, Status::Optimal);
    assert!((s.objective - 5.0).abs() < 1e-9);
}

// ---- Panic-path regressions: cold-solve iteration limits and singular ----
// ---- refactorizations must surface as statuses, never as panics.      ----

/// Regression: a cold solve that exhausts its iteration budget used to
/// trip `expect("cold solves always complete")`; it must now report
/// `Status::IterLimit`.
#[test]
fn iteration_limited_cold_solve_reports_iterlimit() {
    let mut p = Problem::new(Sense::Min);
    let x = p.add_var("x", 2.0, f64::INFINITY, 2.0);
    let y = p.add_var("y", 3.0, f64::INFINITY, 3.0);
    p.add_con("cover", &[(x, 1.0), (y, 1.0)], Cmp::Ge, 10.0);
    let s = solve(&p, &SolverOpts { max_iters: Some(1), ..SolverOpts::default() });
    assert_eq!(s.status, Status::IterLimit);
    assert!(s.objective.is_nan(), "failed solves carry no objective");
}

/// Backend wrapper whose first refactorization reports a singular basis
/// (and that asks for one immediately via `hint_refactor`), then behaves
/// like a plain [`DenseInverse`]. Models a transiently ill-conditioned
/// basis matrix.
struct FlakySingular {
    inner: DenseInverse,
    failed: std::cell::Cell<bool>,
}

impl BasisBackend for FlakySingular {
    fn reset_identity(&mut self, m: usize) {
        self.inner.reset_identity(m);
    }
    fn refactor(&mut self, m: usize, basis_cols: &[&[(usize, f64)]]) -> Result<(), SingularBasis> {
        if !self.failed.replace(true) {
            return Err(SingularBasis);
        }
        self.inner.refactor(m, basis_cols)
    }
    fn ftran(&self, col: &[(usize, f64)], out: &mut [f64]) {
        self.inner.ftran(col, out);
    }
    fn btran(&self, c: &[f64], out: &mut [f64]) {
        self.inner.btran(c, out);
    }
    fn update(&mut self, pivot_row: usize, y: &[f64]) {
        self.inner.update(pivot_row, y);
    }
    fn hint_refactor(&self) -> bool {
        !self.failed.get()
    }
}

/// Regression: a singular refactorization mid-solve was silently ignored
/// (stale factorization kept drifting); the solver must now restart from
/// the slack basis and still reach the optimum.
#[test]
fn singular_refactor_restarts_and_recovers() {
    let mut p = Problem::new(Sense::Max);
    let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
    let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
    p.add_con("c1", &[(x, 1.0)], Cmp::Le, 4.0);
    p.add_con("c2", &[(y, 2.0)], Cmp::Le, 12.0);
    p.add_con("c3", &[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
    let mut backend =
        FlakySingular { inner: DenseInverse::new(), failed: std::cell::Cell::new(false) };
    let s = solve_with_backend(&p, &opts(), &mut backend);
    assert!(backend.failed.get(), "the singular path must actually be exercised");
    assert_eq!(s.status, Status::Optimal);
    assert!((s.objective - 36.0).abs() < 1e-7, "obj = {}", s.objective);
    verify_kkt(&p, &s, KktTol::default()).unwrap();
}

/// Backend whose refactorizations are *always* singular: both the primary
/// attempt and the slack-basis restart fail, which must degrade to an
/// explicit `NumericalFailure` result with a finite payload — not a panic
/// and not a NaN objective.
struct AlwaysSingular {
    inner: DenseInverse,
}

impl BasisBackend for AlwaysSingular {
    fn reset_identity(&mut self, m: usize) {
        self.inner.reset_identity(m);
    }
    fn refactor(&mut self, _m: usize, _cols: &[&[(usize, f64)]]) -> Result<(), SingularBasis> {
        Err(SingularBasis)
    }
    fn ftran(&self, col: &[(usize, f64)], out: &mut [f64]) {
        self.inner.ftran(col, out);
    }
    fn btran(&self, c: &[f64], out: &mut [f64]) {
        self.inner.btran(c, out);
    }
    fn update(&mut self, pivot_row: usize, y: &[f64]) {
        self.inner.update(pivot_row, y);
    }
    fn hint_refactor(&self) -> bool {
        true
    }
}

#[test]
fn doubly_singular_solve_reports_numerical_failure() {
    let mut p = Problem::new(Sense::Max);
    let x = p.add_var("x", 0.0, 4.0, 1.0);
    p.add_con("c", &[(x, 1.0)], Cmp::Le, 3.0);
    let mut backend = AlwaysSingular { inner: DenseInverse::new() };
    let s = solve_with_backend(&p, &opts(), &mut backend);
    assert_eq!(s.status, Status::NumericalFailure);
    // Callers rank candidates by objective; the failure payload must never
    // leak a NaN into those comparisons (regression: the old path
    // fabricated `IterLimit` with `objective: f64::NAN`).
    assert!(s.objective.is_finite(), "objective must be finite, got {}", s.objective);
    assert!(s.x.iter().all(|v| v.is_finite()), "primal point must be finite");
    assert!(s.duals.iter().all(|v| v.is_finite()), "duals must be finite");
    assert!(!s.is_optimal());
}
