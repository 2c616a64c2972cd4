//! Sticky re-solves at paper scale: the `repro opt-time` NIDS instance
//! (Waxman, 50 nodes, seed 50, 21 classes) re-solved three times from its
//! chained column pool, each after a 0.5 blend toward uniform volumes.
//! Every overlap phase must converge without falling back to the max-load
//! point, and every swap must move at most a tenth of the hash space.
//!
//! Ignored by default (about ten seconds in release):
//! `cargo test --release -p nwdp-bench --test paper_scale -- --ignored --nocapture`
//! prints each re-solve's time, rounds, moved fraction and its margin
//! under the bound.

use nwdp_bench::opttime::nids_instance;
use nwdp_core::migration::plan_transition;
use nwdp_core::nids::{generate_manifests, solve_nids_lp_warm};
use nwdp_core::NidsDeployment;
use nwdp_obs as obs;
use std::time::Instant;

/// Most of the hash space one swap may move.
const MAX_MOVED: f64 = 0.10;

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

#[test]
#[ignore = "paper scale: about ten seconds in release"]
fn waxman50_warm_chain_keeps_its_overlap() {
    let (dep, cfg) = nids_instance(50, 50);
    let t = Instant::now();
    let (cold, mut pool) = solve_nids_lp_warm(&dep, &cfg, None).unwrap();
    println!(
        "cold solve: {:.2} s, {} DW rounds, {} units",
        t.elapsed().as_secs_f64(),
        cold.dw_rounds,
        dep.units.len()
    );
    let mut live = generate_manifests(&dep, &cold.d);
    let mut step = dep.clone();
    for e in 0..3 {
        let prev = step.clone();
        step = blend_toward_uniform(&step, 0.5);
        let (hot, next, secs, fallbacks, overlap_rounds) =
            obs::scoped(&obs::Recorder::new(), || {
                obs::set_enabled(true);
                let t = Instant::now();
                let (hot, next) = solve_nids_lp_warm(&step, &cfg, Some(&pool)).unwrap();
                let secs = t.elapsed().as_secs_f64();
                let fallbacks = obs::counter("nids.overlap_fallbacks").get();
                (hot, next, secs, fallbacks, obs::counter("nids.dw.overlap_rounds").get())
            });
        let candidate = generate_manifests(&step, &hot.d);
        let moved = plan_transition(&prev, &live, &step, &candidate).mean_moved_fraction;
        println!(
            "re-solve {e}: {secs:.2} s, {} DW rounds, {overlap_rounds} overlap rounds, \
             {} master pivots, moved {moved:.4} (margin {:.4} under {MAX_MOVED})",
            hot.dw_rounds,
            hot.lp_iterations,
            MAX_MOVED - moved
        );
        assert_eq!(fallbacks, 0, "re-solve {e}: the overlap phase fell back");
        assert!(moved <= MAX_MOVED, "re-solve {e}: the swap moved {moved}");
        pool = next;
        live = candidate;
    }
}
