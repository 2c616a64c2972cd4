//! Optimization-time measurements (the paper's §2.4 and §3.4 timing
//! claims: 0.42 s for the 50-node NIDS LP with CPLEX; ≈220 s for the
//! 50-node NIPS rounding pipeline).
//!
//! Our solvers are from scratch (the NIDS LP by Dantzig–Wolfe
//! decomposition over our simplex), so absolute numbers differ; the claim
//! that matters — reconfiguration is fast enough to rerun every few
//! minutes — is what these measurements check.

use crate::output::{f2, Table};
use nwdp_core::nids::{solve_nids_lp, NidsLpConfig, NodeCaps};
use nwdp_core::nips::{round_best_of, solve_relaxation, NipsInstance, RoundingOpts, Strategy};
use nwdp_core::{build_units, AnalysisClass, NidsDeployment};
use nwdp_lp::rowgen::RowGenOpts;
use nwdp_topo::{waxman, PathDb};
use nwdp_traffic::{MatchRates, TrafficMatrix, VolumeModel};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct OptTime {
    pub what: String,
    pub nodes: usize,
    pub seconds: f64,
    pub detail: String,
}

/// The NIDS LP instance of an n-node Waxman topology with 21 classes.
pub fn nids_instance(n: usize, seed: u64) -> (NidsDeployment, NidsLpConfig) {
    let topo = waxman(format!("synth{n}"), n, 0.25, 0.2, seed);
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::scaled_for(&topo);
    let classes = AnalysisClass::scaled_set(21).expect("21 is within the paper's range");
    let dep = build_units(&topo, &paths, &tm, &vol, &classes);
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    (dep, cfg)
}

/// Time the NIDS LP on an n-node topology with 21 classes.
pub fn nids_lp_time(n: usize, seed: u64) -> OptTime {
    let (dep, cfg) = nids_instance(n, seed);
    let start = Instant::now();
    let a = solve_nids_lp(&dep, &cfg).expect("solves");
    let secs = start.elapsed().as_secs_f64();
    OptTime {
        what: "NIDS LP (21 classes)".into(),
        nodes: n,
        seconds: secs,
        detail: format!(
            "{} units, {} DW rounds, {} master simplex iterations, gap {:.1e}",
            dep.units.len(),
            a.dw_rounds,
            a.lp_iterations,
            a.gap
        ),
    }
}

/// Time the full NIPS pipeline (relaxation + 10 rounding iterations with
/// greedy + LP re-solve) on an n-node topology.
pub fn nips_pipeline_time(n: usize, n_rules: usize, seed: u64) -> OptTime {
    let topo = waxman(format!("synth{n}"), n, 0.25, 0.2, seed);
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::scaled_for(&topo);
    let rates = MatchRates::uniform_001(n_rules, paths.all_pairs().count(), seed);
    let inst = NipsInstance::evaluation_setup(&topo, &paths, &tm, &vol, n_rules, 0.15, rates);
    let start = Instant::now();
    let relax = solve_relaxation(&inst, &RowGenOpts::default()).expect("relaxation solves");
    let relax_secs = start.elapsed().as_secs_f64();
    let opts = RoundingOpts {
        strategy: Strategy::GreedyLpResolve,
        iterations: 10,
        seed,
        ..Default::default()
    };
    let sol = round_best_of(&inst, &relax, &opts).expect("rounding failed");
    let secs = start.elapsed().as_secs_f64();
    OptTime {
        what: format!("NIPS pipeline ({n_rules} rules)"),
        nodes: n,
        seconds: secs,
        detail: format!(
            "relaxation {relax_secs:.2}s ({} lazy rows, {} rounds), best {:.0}% of OptLP",
            relax.rowgen.0,
            relax.rowgen.1,
            100.0 * sol.objective / relax.objective.max(1e-12)
        ),
    }
}

pub fn table(results: &[OptTime]) -> Table {
    let mut t = Table::new(
        "Optimization time (paper: 0.42s NIDS LP / ~220s NIPS, 50 nodes, CPLEX)",
        &["what", "nodes", "seconds", "detail"],
    );
    for r in results {
        t.row(vec![r.what.clone(), r.nodes.to_string(), f2(r.seconds), r.detail.clone()]);
    }
    t
}
