//! Warm-start correctness: resuming from an optimal snapshot after adding
//! rows, or a `RestrictedMaster` after adding columns, must reach the same
//! optimum as a cold solve, on both backends, certified by KKT.

use nwdp_lp::simplex::{solve_warm, SolverOpts};
use nwdp_lp::{verify_kkt, Cmp, KktTol, Problem, RestrictedMaster, Sense, Status};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_growing_lp(trial: u64) -> (Problem, Vec<nwdp_lp::VarId>, StdRng) {
    let mut rng = StdRng::seed_from_u64(trial * 7 + 1);
    let nv = rng.random_range(3..12);
    let mut p = Problem::new(Sense::Max);
    let vars: Vec<_> =
        (0..nv).map(|j| p.add_var(format!("x{j}"), 0.0, 1.0, rng.random_range(0.1..2.0))).collect();
    for c in 0..rng.random_range(1..4) {
        let terms: Vec<_> = vars.iter().map(|&v| (v, rng.random_range(0.2..1.5))).collect();
        p.add_con(format!("base{c}"), &terms, Cmp::Le, rng.random_range(1.0..3.0));
    }
    (p, vars, rng)
}

#[test]
fn warm_matches_cold_across_row_additions() {
    for trial in 0..120u64 {
        let (mut p, vars, mut rng) = random_growing_lp(trial);
        let mut opts = SolverOpts::default();
        if trial % 2 == 0 {
            opts.dense_row_limit = usize::MAX; // force the dense backend half the time
        }
        let (s0, mut warm) = solve_warm(&p, &opts, None);
        assert_eq!(s0.status, Status::Optimal, "trial {trial} base");
        // Grow the problem in 2 stages, warm-starting each time.
        for stage in 0..2 {
            for c in 0..rng.random_range(1..4) {
                let k = rng.random_range(1..=vars.len());
                let terms: Vec<_> =
                    (0..k).map(|t| (vars[(t * 3 + c + stage) % vars.len()], 1.0)).collect();
                p.add_con(format!("cut{stage}_{c}"), &terms, Cmp::Le, rng.random_range(0.3..1.2));
            }
            let (sw, w2) = solve_warm(&p, &opts, warm.as_ref());
            let (sc, _) = solve_warm(&p, &opts, None);
            assert_eq!(sw.status, Status::Optimal, "trial {trial} stage {stage} warm");
            assert_eq!(sc.status, Status::Optimal, "trial {trial} stage {stage} cold");
            assert!(
                (sw.objective - sc.objective).abs() < 1e-6 * (1.0 + sc.objective.abs()),
                "trial {trial} stage {stage}: warm {} vs cold {}",
                sw.objective,
                sc.objective
            );
            verify_kkt(&p, &sw, KktTol::default())
                .unwrap_or_else(|e| panic!("trial {trial} stage {stage}: {e}"));
            warm = w2;
        }
    }
}

#[test]
fn warm_start_with_equality_and_ge_rows() {
    let mut p = Problem::new(Sense::Min);
    let x = p.add_var("x", 0.0, 10.0, 1.0);
    let y = p.add_var("y", 0.0, 10.0, 2.0);
    p.add_con("sum", &[(x, 1.0), (y, 1.0)], Cmp::Eq, 6.0);
    let opts = SolverOpts::default();
    let (s0, warm) = solve_warm(&p, &opts, None);
    assert_eq!(s0.status, Status::Optimal);
    assert!((s0.objective - 6.0).abs() < 1e-7); // all on cheap x

    // New ≥ row forces y up.
    p.add_con("force_y", &[(y, 1.0)], Cmp::Ge, 2.0);
    let (s1, _) = solve_warm(&p, &opts, warm.as_ref());
    assert_eq!(s1.status, Status::Optimal);
    assert!((s1.objective - 8.0).abs() < 1e-7, "obj {}", s1.objective);
    verify_kkt(&p, &s1, KktTol::default()).unwrap();
}

#[test]
fn mismatched_snapshot_falls_back_to_cold() {
    // Snapshot from a DIFFERENT problem (wrong n) must be ignored safely.
    let mut p1 = Problem::new(Sense::Max);
    let a = p1.add_var("a", 0.0, 1.0, 1.0);
    p1.add_con("c", &[(a, 1.0)], Cmp::Le, 1.0);
    let opts = SolverOpts::default();
    let (_, warm) = solve_warm(&p1, &opts, None);

    let mut p2 = Problem::new(Sense::Max);
    let x = p2.add_var("x", 0.0, 1.0, 1.0);
    let y = p2.add_var("y", 0.0, 1.0, 1.0);
    p2.add_con("c", &[(x, 1.0), (y, 1.0)], Cmp::Le, 1.5);
    let (s, _) = solve_warm(&p2, &opts, warm.as_ref());
    assert_eq!(s.status, Status::Optimal);
    assert!((s.objective - 1.5).abs() < 1e-7);
}

#[test]
fn warm_start_detects_new_infeasibility() {
    let mut p = Problem::new(Sense::Max);
    let x = p.add_var("x", 0.0, 5.0, 1.0);
    p.add_con("hi", &[(x, 1.0)], Cmp::Le, 4.0);
    let opts = SolverOpts::default();
    let (_, warm) = solve_warm(&p, &opts, None);
    p.add_con("impossible", &[(x, 1.0)], Cmp::Ge, 9.0);
    let (s, snap) = solve_warm(&p, &opts, warm.as_ref());
    assert_eq!(s.status, Status::Infeasible);
    assert!(snap.is_none(), "no snapshot from a failed solve");
}

/// Column generation's growing master: a max LP over the first `k` of
/// `cols` (each a cost and one coefficient per row), `≤` rows.
fn column_lp(cols: &[(f64, Vec<f64>)], k: usize, rhs: &[f64]) -> Problem {
    let mut p = Problem::new(Sense::Max);
    let vars: Vec<_> = cols[..k]
        .iter()
        .enumerate()
        .map(|(j, c)| p.add_var(format!("x{j}"), 0.0, 1.0, c.0))
        .collect();
    for (i, &b) in rhs.iter().enumerate() {
        let terms: Vec<_> = vars.iter().zip(&cols[..k]).map(|(&v, c)| (v, c.1[i])).collect();
        p.add_con(format!("r{i}"), &terms, Cmp::Le, b);
    }
    p
}

#[test]
fn warm_matches_cold_across_column_additions() {
    // The same LPs grown as a `RestrictedMaster` (which minimizes, so the
    // costs flip sign); the cold oracle runs on the dense backend half the
    // time.
    for trial in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(trial * 11 + 3);
        let rows = rng.random_range(2..6);
        let rhs: Vec<f64> = (0..rows).map(|_| rng.random_range(1.0..3.0)).collect();
        let cols: Vec<(f64, Vec<f64>)> = (0..12)
            .map(|_| {
                let a = (0..rows).map(|_| rng.random_range(0.2..1.5)).collect();
                (rng.random_range(0.1..2.0), a)
            })
            .collect();
        let mut opts = SolverOpts::default();
        if trial % 2 == 0 {
            opts.dense_row_limit = usize::MAX;
        }
        let row_kinds: Vec<(Cmp, f64)> = rhs.iter().map(|&b| (Cmp::Le, b)).collect();
        let mut master = RestrictedMaster::new(&row_kinds, &SolverOpts::default());
        let mut added = 0;
        for to in [4, 7, 12] {
            for (c, a) in &cols[added..to] {
                let entries: Vec<_> = a.iter().copied().enumerate().collect();
                master.add_column(-c, 0.0, 1.0, &entries);
            }
            added = to;
            let sw = master.solve();
            let (sc, _) = solve_warm(&column_lp(&cols, to, &rhs), &opts, None);
            assert_eq!(sw.status, Status::Optimal, "trial {trial} to {to} warm");
            assert!(
                (-sw.objective - sc.objective).abs() < 1e-9 * (1.0 + sc.objective.abs()),
                "trial {trial} to {to}: warm {} vs cold {}",
                -sw.objective,
                sc.objective
            );
            verify_kkt(master.problem(), &sw, KktTol::default())
                .unwrap_or_else(|e| panic!("trial {trial} to {to}: {e}"));
        }
    }
}
