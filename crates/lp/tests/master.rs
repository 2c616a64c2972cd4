//! A `RestrictedMaster` grown column by column, as column generation grows
//! its master, must reach after every re-optimization the optimum a cold
//! solve of the same LP reaches (1e-9 relative), certified by KKT.

use nwdp_lp::{solve, verify_kkt, Cmp, KktTol, RestrictedMaster, SolverOpts, Status};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Solve `master` in place and check it against a cold solve.
fn check(master: &mut RestrictedMaster, what: &str) -> f64 {
    let warm = master.solve();
    let cold = solve(master.problem(), &SolverOpts::default());
    assert_eq!(warm.status, Status::Optimal, "{what}: in place");
    assert_eq!(cold.status, Status::Optimal, "{what}: cold");
    assert!(
        (warm.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
        "{what}: in place {} vs cold {}",
        warm.objective,
        cold.objective
    );
    verify_kkt(master.problem(), &warm, KktTol::default())
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    warm.objective
}

/// `rows` load rows `Σ λ_k g_k ≤ rhs`, then the convexity row `Σ λ_k = 1`.
fn master_rows(rows: usize, rhs: f64) -> Vec<(Cmp, f64)> {
    let mut r = vec![(Cmp::Le, rhs); rows];
    r.push((Cmp::Eq, 1.0));
    r
}

/// A column's loads in `[0, 2)`, a third of them zero, and its
/// convexity entry.
fn random_column(rng: &mut StdRng, rows: usize) -> Vec<(usize, f64)> {
    let mut e: Vec<(usize, f64)> = (0..rows)
        .map(|i| (i, if rng.random_range(0..3) == 0 { 0.0 } else { rng.random_range(0.0..2.0) }))
        .collect();
    e.push((rows, 1.0));
    e
}

#[test]
fn min_max_load_master_matches_cold_after_every_column() {
    // The max-load master: `min L` with `Σ λ_k g_k − L ≤ 0`.
    for trial in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(trial * 13 + 5);
        let rows = rng.random_range(2..12);
        let mut master = RestrictedMaster::new(&master_rows(rows, 0.0), &SolverOpts::default());
        let load: Vec<_> = (0..rows).map(|i| (i, -1.0)).collect();
        master.add_column(1.0, 0.0, f64::INFINITY, &load);
        master.add_column(0.0, 0.0, f64::INFINITY, &random_column(&mut rng, rows));
        let mut last = check(&mut master, &format!("trial {trial} first"));
        for k in 0..rng.random_range(10..40) {
            // Now and then a batch, as a pricing round with several
            // smoothing weights adds.
            for _ in 0..rng.random_range(1..4) {
                master.add_column(0.0, 0.0, f64::INFINITY, &random_column(&mut rng, rows));
            }
            let objective = check(&mut master, &format!("trial {trial} round {k}"));
            assert!(objective <= last + 1e-12, "trial {trial} round {k}: a column raised L");
            last = objective;
        }
    }
}

#[test]
fn overlap_master_matches_cold_after_every_column() {
    // The overlap master: `max Σ score_k λ_k` with every load at most 1,
    // written as a minimization of the negated scores. The first column
    // loads every row 0.5, so the master is feasible from the start.
    for trial in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(trial * 17 + 1);
        let rows = rng.random_range(2..12);
        let mut master = RestrictedMaster::new(&master_rows(rows, 1.0), &SolverOpts::default());
        let mut half: Vec<_> = (0..rows).map(|i| (i, 0.5)).collect();
        half.push((rows, 1.0));
        master.add_column(-rng.random_range(0.0..10.0f64), 0.0, f64::INFINITY, &half);
        check(&mut master, &format!("trial {trial} first"));
        for k in 0..rng.random_range(10..40) {
            let score: f64 = rng.random_range(0.0..10.0);
            master.add_column(-score, 0.0, f64::INFINITY, &random_column(&mut rng, rows));
            check(&mut master, &format!("trial {trial} round {k}"));
        }
    }
}

#[test]
fn degenerate_master_matches_cold_after_every_column() {
    // Every column loads one row fully or all rows equally, each comes in
    // several copies, and many vertices share the optimum 1/6: nearly
    // every pivot is degenerate.
    let rows = 6;
    let mut master = RestrictedMaster::new(&master_rows(rows, 0.0), &SolverOpts::default());
    let load: Vec<_> = (0..rows).map(|i| (i, -1.0)).collect();
    master.add_column(1.0, 0.0, f64::INFINITY, &load);
    let mut even: Vec<_> = (0..rows).map(|i| (i, 1.0 / rows as f64)).collect();
    even.push((rows, 1.0));
    for copy in 0..3 {
        for i in 0..rows {
            master.add_column(0.0, 0.0, f64::INFINITY, &[(i, 1.0), (rows, 1.0)]);
            check(&mut master, &format!("copy {copy} row {i}"));
        }
        master.add_column(0.0, 0.0, f64::INFINITY, &even);
        let objective = check(&mut master, &format!("copy {copy} even"));
        assert!((objective - 1.0 / rows as f64).abs() < 1e-12, "copy {copy}: {objective}");
    }
}
