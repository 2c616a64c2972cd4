//! Warm starting is a pure performance optimization: every re-solve loop
//! that reuses a column pool, a basis, a row-generation context, or a
//! pre-built flow network must land on the same objective as solving cold
//! from scratch (≤ 1e-9 relative), and must do so under any thread-count
//! override.
//!
//! Covers the four reuse sites of the warm-start layer:
//! - `solve_nids_lp_warm` column-pool chaining (provisioning sweep and
//!   reload patterns),
//! - `solve_relaxation_ctx` row-generation context reuse (TCAM sweep),
//! - `RoundingOpts::warm_start` shared-baseline inner-LP starts,
//! - `FplConfig::reuse_oracle` flow-network re-pricing across epochs.

mod common;

use common::threads::under_thread_counts;

use nwdp::core::nids::solve_nids_lp_warm;
use nwdp::core::nips::solve_relaxation_ctx;
use nwdp::lp::SolveContext;
use nwdp::prelude::*;

fn close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
        "{what}: cold {a} vs warm {b} diverged beyond 1e-9"
    );
}

fn nids_setup() -> (NidsDeployment, NidsLpConfig) {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    (dep, cfg)
}

fn nips_setup(n_rules: usize, cap_frac: f64, seed: u64) -> NipsInstance {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let rates = MatchRates::uniform_001(n_rules, paths.all_pairs().count(), seed);
    NipsInstance::evaluation_setup(&topo, &paths, &tm, &vol, n_rules, cap_frac, rates)
}

/// NIDS LP: chaining the column pool through a capacity sweep and through
/// reload-style volume blends must reproduce the cold per-instance optima
/// (the LP has a unique optimal value).
#[test]
fn nids_lp_warm_chain_matches_cold() {
    let (dep, cfg) = nids_setup();
    under_thread_counts(|| {
        let (cold_base, mut pool) = solve_nids_lp_warm(&dep, &cfg, None).unwrap();
        for j in 0..dep.num_nodes {
            let mut c = cfg.clone();
            c.caps[j].cpu *= 2.0;
            c.caps[j].mem *= 2.0;
            let (cold, _) = solve_nids_lp_warm(&dep, &c, None).unwrap();
            let (hot, next) = solve_nids_lp_warm(&dep, &c, Some(&pool)).unwrap();
            pool = next;
            close(cold.max_load, hot.max_load, &format!("NIDS upgrade node {j}"));
        }
        let (cold_again, mut pool) = solve_nids_lp_warm(&dep, &cfg, Some(&pool)).unwrap();
        close(cold_base.max_load, cold_again.max_load, "NIDS baseline re-solve");

        // Reload epochs: each unit's volume moves a fifth of the way toward
        // its class's uniform share, and the pool of one epoch seeds the next.
        // Each swap's coverage and moved fractions agree bit for bit with
        // the brute-force probe.
        let mut step = dep.clone();
        let mut live = generate_manifests(&dep, &cold_again.d);
        for e in 0..4 {
            let prev = step.clone();
            step = blend_toward_uniform(&step, 0.2);
            let (cold, _) = solve_nids_lp_warm(&step, &cfg, None).unwrap();
            let (hot, next) = solve_nids_lp_warm(&step, &cfg, Some(&pool)).unwrap();
            pool = next;
            close(cold.max_load, hot.max_load, &format!("NIDS blend epoch {e}"));
            assert!(hot.dw_rounds <= cold.dw_rounds, "epoch {e}: the pool cost rounds");
            let candidate = generate_manifests(&step, &hot.d);
            common::check_coverage(&step, &candidate);
            common::check_transition(&prev, &live, &step, &candidate);
            live = candidate;
        }
    });
}

/// Each unit's volume moved `w` of the way toward its class's uniform share.
fn blend_toward_uniform(dep: &NidsDeployment, w: f64) -> NidsDeployment {
    let mut totals = vec![(0.0, 0.0, 0.0); dep.classes.len()];
    for u in &dep.units {
        let t = &mut totals[u.class];
        *t = (t.0 + u.pkts, t.1 + u.items, t.2 + 1.0);
    }
    let mut next = dep.clone();
    for u in &mut next.units {
        let (p, i, n) = totals[u.class];
        u.pkts = (1.0 - w) * u.pkts + w * p / n;
        u.items = (1.0 - w) * u.items + w * i / n;
    }
    next
}

/// Coefficient-rescaled LP family (the dual-phase stress case): a
/// miniature load-balancing LP in the NIDS shape — minimize the max load
/// `L`, each node row carrying `-cap_k · L`. Doubling a node's capacity
/// rescales that coefficient, which leaves the chained basis dual
/// feasible but knocks its basic values out of range; the dual phase
/// must repair it, and warm objectives must match cold to 1e-9 at every
/// step and thread count.
#[test]
fn rescaled_family_dual_warm_matches_cold() {
    use nwdp::lp::{solve_warm, Cmp, Problem, Sense, SolverOpts};

    let nodes = 5usize;
    let units = 12usize;
    // Deterministic pseudo-random weights and capacities (xorshift).
    let mut s = 0x2458_71d3_9e37_79b9u64;
    let mut r = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 40) as f64 / (1u64 << 24) as f64
    };
    let w: Vec<f64> = (0..units).map(|_| 1.0 + 4.0 * r()).collect();
    let caps0: Vec<f64> = (0..nodes).map(|_| 4.0 + 2.0 * r()).collect();

    // Unit `u` splits its weight between two nodes: fraction `d_u` on
    // `u % nodes`, the rest on `(u + 3) % nodes`. Node row k:
    //   Σ±w_u d_u − cap_k · L ≤ −(weight parked on k when all d_u = 0).
    let build = |caps: &[f64]| {
        let mut p = Problem::new(Sense::Min);
        let l = p.add_var("L", 0.0, 1e9, 1.0);
        let d: Vec<_> = (0..units).map(|u| p.add_var(format!("d{u}"), 0.0, 1.0, 0.0)).collect();
        for (k, &cap) in caps.iter().enumerate() {
            let mut terms = vec![(l, -cap)];
            let mut parked = 0.0;
            for u in 0..units {
                if u % nodes == k {
                    terms.push((d[u], w[u]));
                }
                if (u + 3) % nodes == k {
                    parked += w[u];
                    terms.push((d[u], -w[u]));
                }
            }
            p.add_con(format!("load{k}"), &terms, Cmp::Le, -parked);
        }
        p
    };

    under_thread_counts(|| {
        let opts = SolverOpts::default();
        let (base, mut warm) = solve_warm(&build(&caps0), &opts, None);
        assert!(base.is_optimal());
        for k in 0..nodes {
            let mut caps = caps0.clone();
            caps[k] *= 2.0; // upgrade node k, as the NIDS sweep does
            let p = build(&caps);
            let cold = solve_warm(&p, &opts, None).0;
            let (hot, snap) = solve_warm(&p, &opts, warm.as_ref());
            warm = snap;
            assert!(cold.is_optimal() && hot.is_optimal(), "step {k} must solve");
            close(cold.objective, hot.objective, &format!("rescaled family node {k}"));
        }
    });
}

/// NIPS relaxation: reusing one `SolveContext` across a TCAM what-if sweep
/// (rhs-only changes) must match fresh row generation per instance.
#[test]
fn relaxation_ctx_reuse_matches_cold() {
    let inst = nips_setup(5, 0.3, 7);
    let opts = RowGenOpts::default();
    under_thread_counts(|| {
        let mut ctx = SolveContext::new();
        for extra in [0.0, 1.0, 2.0, 4.0] {
            let mut inst2 = inst.clone();
            for c in inst2.cam_cap.iter_mut() {
                *c += extra;
            }
            let cold = solve_relaxation(&inst2, &opts).unwrap();
            let warm = solve_relaxation_ctx(&inst2, &opts, &mut ctx).unwrap();
            close(cold.objective, warm.objective, &format!("relaxation cam+{extra}"));
        }
    });
}

/// Rounding refinements: `warm_start` on/off must pick the same best
/// placement (same trials, same inner optima, same tie-breaks).
#[test]
fn rounding_warm_start_matches_cold() {
    let mut inst = nips_setup(5, 0.4, 11);
    // Heterogeneous requirements force the simplex inner path (the
    // proportional fast path never touches the warm-start machinery).
    for (i, r) in inst.rules.iter_mut().enumerate() {
        r.cpu_per_pkt *= 1.0 + 0.15 * i as f64;
        r.mem_per_item *= 1.0 + 0.10 * i as f64;
    }
    let relax = solve_relaxation(&inst, &RowGenOpts::default()).unwrap();
    for strategy in [Strategy::LpResolve, Strategy::GreedyLpResolve] {
        under_thread_counts(|| {
            let run = |warm: bool| {
                let opts = RoundingOpts { strategy, iterations: 4, seed: 23, warm_start: warm };
                round_best_of(&inst, &relax, &opts).unwrap()
            };
            let cold = run(false);
            let warm = run(true);
            close(cold.objective, warm.objective, &format!("rounding {strategy:?}"));
            assert_eq!(cold.e, warm.e, "same placement chosen ({strategy:?})");
        });
    }
}

/// FPL epochs: re-pricing one flow network per epoch is bit-identical to
/// rebuilding it from scratch, so every reported series must match.
#[test]
fn fpl_oracle_reuse_matches_cold_over_50_epochs() {
    let mut inst = nips_setup(4, 1.0, 3);
    inst.cam_cap = vec![f64::INFINITY; inst.num_nodes];
    under_thread_counts(|| {
        let run = |reuse: bool| {
            let mut adv = StochasticUniform::new(4, inst.paths.len(), 0.01, 0xfee1);
            let cfg = FplConfig { epochs: 50, seed: 29, reuse_oracle: reuse, ..Default::default() };
            run_fpl(&inst, &mut adv, &cfg).expect("valid config")
        };
        let cold = run(false);
        let warm = run(true);
        assert_eq!(cold.fpl_value, warm.fpl_value, "per-epoch FPL values must be bit-identical");
        assert_eq!(cold.static_prefix_value, warm.static_prefix_value);
        let cold_total: f64 = cold.fpl_value.iter().sum();
        let warm_total: f64 = warm.fpl_value.iter().sum();
        close(cold_total, warm_total, "FPL 50-epoch total");
    });
}
