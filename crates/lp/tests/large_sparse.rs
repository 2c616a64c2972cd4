//! Scale stress for the sparse backend: deployment-LP-shaped instances
//! (few capacity rows, tens of thousands of bounded columns, mixed row
//! scales), KKT-certified. This shape once exposed a silent
//! feasibility-loss bug that only appeared beyond ~10k columns with
//! badly-scaled rows — keep it covered.

use nwdp_lp::simplex::{solve_warm, SolverOpts};
use nwdp_lp::{verify_kkt, Cmp, KktTol, Problem, Sense, Status};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn build(trial: u64, ncols: usize, nrows: usize) -> Problem {
    let mut rng = StdRng::seed_from_u64(trial);
    let mut p = Problem::new(Sense::Max);
    let mut rows: Vec<Vec<(nwdp_lp::VarId, f64)>> = vec![Vec::new(); nrows];
    for j in 0..ncols {
        let v = p.add_var(format!("x{j}"), 0.0, 1.0, rng.random_range(0.0..2000.0));
        let r1 = rng.random_range(0..nrows / 2);
        let r2 = nrows / 2 + rng.random_range(0..nrows / 2);
        // Mixed scales: volume-like coefficients vs unit coefficients.
        rows[r1].push((v, rng.random_range(1.0e3..1.0e5)));
        rows[r2].push((v, rng.random_range(0.5..2.0)));
    }
    for (i, terms) in rows.iter().enumerate() {
        let rhs = if i < nrows / 2 {
            rng.random_range(1.0e6..4.0e8)
        } else {
            rng.random_range(50.0..5000.0)
        };
        p.add_con(format!("cap{i}"), terms, Cmp::Le, rhs);
    }
    p
}

#[test]
fn sparse_backend_survives_mixed_scale_wide_lps() {
    let opts = SolverOpts::default();
    for trial in 1..=2u64 {
        let p = build(trial, 18_000, 50);
        let (s, warm) = solve_warm(&p, &opts, None);
        assert_eq!(s.status, Status::Optimal, "trial {trial}");
        verify_kkt(&p, &s, KktTol::default()).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        assert!(warm.is_some());
    }
}
