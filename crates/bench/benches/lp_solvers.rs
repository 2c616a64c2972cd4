//! LP-solver benches: dense vs sparse basis backends on GUB packing LPs
//! (the ablation DESIGN.md calls out; sparse wins at every size, so there
//! is no crossover) and the NIDS assignment LP kernel behind the paper's
//! "0.42 s for a 50-node topology" claim (§2.4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nwdp_core::nids::{solve_nids_lp, NidsLpConfig, NodeCaps};
use nwdp_core::{build_units, AnalysisClass};
use nwdp_lp::simplex::dense::DenseInverse;
use nwdp_lp::simplex::solve_with_backend;
use nwdp_lp::simplex::sparse::SparseFactors;
use nwdp_lp::{Cmp, Problem, Sense, SolverOpts};
use nwdp_topo::{waxman, PathDb};
use nwdp_traffic::{TrafficMatrix, VolumeModel};
use std::hint::black_box;

/// A GUB-structured packing LP shaped like the deployment problems.
fn structured_lp(groups: usize, caps: usize) -> Problem {
    let mut p = Problem::new(Sense::Max);
    let per = 4;
    let vars: Vec<_> = (0..groups * per)
        .map(|j| p.add_var(format!("x{j}"), 0.0, 1.0, 1.0 + (j % 7) as f64 * 0.3))
        .collect();
    for g in 0..groups {
        let terms: Vec<_> = (0..per).map(|t| (vars[g * per + t], 1.0)).collect();
        p.add_con(format!("g{g}"), &terms, Cmp::Le, 1.0);
    }
    for cidx in 0..caps {
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .filter(|(j, _)| j % caps == cidx)
            .map(|(j, &v)| (v, 1.0 + (j % 3) as f64))
            .collect();
        p.add_con(format!("cap{cidx}"), &terms, Cmp::Le, groups as f64 / 8.0);
    }
    p
}

fn bench_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("simplex_backend");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(8));
    for &groups in &[50usize, 200, 600] {
        let p = structured_lp(groups, 12);
        g.bench_with_input(BenchmarkId::new("dense", groups), &p, |b, p| {
            b.iter(|| {
                let mut be = DenseInverse::new();
                black_box(solve_with_backend(p, &SolverOpts::default(), &mut be))
            })
        });
        g.bench_with_input(BenchmarkId::new("sparse", groups), &p, |b, p| {
            b.iter(|| {
                let mut be = SparseFactors::new();
                black_box(solve_with_backend(p, &SolverOpts::default(), &mut be))
            })
        });
    }
    g.finish();
}

fn bench_nids_lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("nids_lp_solve");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(15));
    for &n in &[11usize, 25] {
        let topo = if n == 11 {
            nwdp_topo::internet2()
        } else {
            waxman(format!("w{n}"), n, 0.25, 0.2, n as u64)
        };
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::gravity(&topo);
        let vol = VolumeModel::scaled_for(&topo);
        let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        g.bench_with_input(BenchmarkId::from_parameter(n), &(), |b, _| {
            b.iter(|| black_box(solve_nids_lp(&dep, &cfg).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_backends, bench_nids_lp);
criterion_main!(benches);
