//! Follow-the-Perturbed-Leader for adaptive NIPS deployment (§3.5).
//!
//! The defender re-solves the (no-TCAM) sampling LP every epoch against
//! the *perturbed historical sum* of observed match rates (Kalai–Vempala):
//!
//! 1. draw `p_t` uniformly from `[0, 1/ε]^n`;
//! 2. play `O_t = Λ(Σ_{q<t} S_q + p_t)`, where `Λ` is the LP oracle.
//!
//! With `ε = sqrt(D / (R·A·γ))` the expected average regret vanishes as
//! `sqrt(D·R·A / γ)` (Theorem 3.1 of the paper, citing Kalai–Vempala).
//! The oracle is the exact min-cost-flow inner solver with every rule
//! enabled everywhere (the §3.5 simplification drops the TCAM
//! constraints, removing the discrete variables entirely).

use crate::adversary::Adversary;
use nwdp_core::nips::{InnerFlowOracle, NipsInstance};
use nwdp_core::parallel;
use nwdp_obs as obs;
use nwdp_traffic::MatchRates;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Mutex;

/// Conservative upper bound on the droppable fraction (used for the
/// automatic ε).
const MAXDROP: f64 = 0.01;

/// FPL configuration.
#[derive(Debug, Clone)]
pub struct FplConfig {
    pub epochs: usize,
    /// Perturbation scale ε; `None` derives the theorem's value from the
    /// instance (D = M·N·L, R = A = Σ T_items × `MAXDROP`).
    pub epsilon: Option<f64>,
    pub seed: u64,
    /// Also track the non-adaptive "follow the leader" baseline (no
    /// perturbation) for comparison.
    pub track_ftl: bool,
    /// Reuse the oracle's min-cost-flow network across epochs (build
    /// once, re-price per solve) instead of rebuilding it every solve.
    /// Bit-identical results either way; `false` is the cold comparator
    /// for the warm-start benchmarks.
    pub reuse_oracle: bool,
}

impl Default for FplConfig {
    fn default() -> Self {
        FplConfig { epochs: 200, epsilon: None, seed: 0, track_ftl: false, reuse_oracle: true }
    }
}

/// A degenerate [`FplConfig`] that [`run_fpl`] refuses to play. Each
/// variant names the offending knob; previously these produced an empty or
/// numerically meaningless [`OnlineRun`] instead of an error.
#[derive(Debug, Clone, PartialEq)]
pub enum FplError {
    /// `epochs == 0`: there is no round to play, and every per-epoch
    /// trajectory (including the Fig 11 regret series) would be empty.
    ZeroEpochs,
    /// An explicit `epsilon` must be positive and finite — perturbations
    /// are drawn from `[0, 1/ε)`.
    BadEpsilon(f64),
}

impl std::fmt::Display for FplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FplError::ZeroEpochs => write!(f, "FPL needs at least one epoch (epochs == 0)"),
            FplError::BadEpsilon(v) => {
                write!(f, "epsilon must be positive and finite, got {v}")
            }
        }
    }
}

impl std::error::Error for FplError {}

/// Per-epoch trajectory of the online game.
#[derive(Debug, Clone)]
pub struct OnlineRun {
    /// Value earned by FPL in each epoch (under that epoch's true rates).
    pub fpl_value: Vec<f64>,
    /// Value the best-in-hindsight static solution (for the prefix up to
    /// and including each epoch) earns over that prefix, divided by the
    /// prefix length — used for the normalized-regret metric.
    pub static_prefix_value: Vec<f64>,
    /// The paper's Fig 11 metric per epoch:
    /// `(Σ static − Σ fpl) / Σ static` over the prefix.
    pub normalized_regret: Vec<f64>,
    /// Optional follow-the-leader (unperturbed) values.
    pub ftl_value: Vec<f64>,
    /// The ε actually used.
    pub epsilon: f64,
}

fn max_hops(inst: &NipsInstance) -> usize {
    inst.paths.iter().map(|p| p.nodes.len()).max().unwrap_or(1)
}

/// Flat weight layout for (rule, path, pos): `(i·n_paths + k)·stride + pos`.
///
/// The stride (`max_hops`) is computed **once** and captured here; an
/// earlier version rescanned every path on every lookup, making weight
/// indexing O(paths) per access — O(rules·paths²·hops) per oracle solve.
#[derive(Debug, Clone, Copy)]
struct WeightLayout {
    n_paths: usize,
    stride: usize,
}

impl WeightLayout {
    fn new(inst: &NipsInstance) -> Self {
        WeightLayout { n_paths: inst.paths.len(), stride: max_hops(inst) }
    }

    #[inline]
    fn idx(&self, i: usize, k: usize, pos: usize) -> usize {
        (i * self.n_paths + k) * self.stride + pos
    }

    fn len(&self, n_rules: usize) -> usize {
        n_rules * self.n_paths * self.stride
    }
}

/// Run the online game for `cfg.epochs` epochs against `adversary`.
///
/// `inst` supplies the network/volume/capacity model; its own
/// `match_rates` are ignored (the adversary provides each epoch's truth).
/// Degenerate configurations — zero epochs, an explicit non-positive ε —
/// are rejected with a typed [`FplError`] before
/// any epoch runs.
pub fn run_fpl(
    inst: &NipsInstance,
    adversary: &mut dyn Adversary,
    cfg: &FplConfig,
) -> Result<OnlineRun, FplError> {
    assert_eq!(adversary.n_rules(), inst.rules.len());
    assert_eq!(adversary.n_paths(), inst.paths.len());
    if cfg.epochs == 0 {
        return Err(FplError::ZeroEpochs);
    }
    if let Some(e) = cfg.epsilon {
        if !e.is_finite() || e <= 0.0 {
            return Err(FplError::BadEpsilon(e));
        }
    }
    let t_run = obs::now_if_enabled();
    let nr = inst.rules.len();
    let np = inst.paths.len();
    let lay = WeightLayout::new(inst);
    let nweights = lay.len(nr);

    // The oracle Λ is the inner sampling LP with every rule enabled
    // everywhere (§3.5 drops the TCAM constraints). Its flow network has
    // the same structure every epoch — only the weights change — so build
    // it once per lane and re-price per solve. Lane 0 serves the FPL
    // decision, lane 1 the FTL/static-prefix solves: separate oracles so
    // the two scoped-thread solves never contend on one network.
    let all_enabled = vec![vec![true; inst.num_nodes]; nr];
    let oracles: [Mutex<Option<InnerFlowOracle>>; 2] = if cfg.reuse_oracle {
        [
            Mutex::new(Some(InnerFlowOracle::build(inst, &all_enabled))),
            Mutex::new(Some(InnerFlowOracle::build(inst, &all_enabled))),
        ]
    } else {
        [Mutex::new(None), Mutex::new(None)]
    };
    // Oracle solves dominate each epoch's wall time, so one registry
    // round-trip per solve is negligible; the timer handle is atomic and
    // safe from the scoped-thread fan-out below.
    let timed_oracle = |w: &[f64], lane: usize| {
        let t0 = obs::now_if_enabled();
        let weight = |i: usize, k: usize, pos: usize| w[lay.idx(i, k, pos)];
        #[expect(
            clippy::expect_used,
            reason = "a poisoned lock means an oracle solve on that lane already panicked"
        )]
        let d = match oracles[lane].lock().expect("oracle lock").as_mut() {
            Some(o) => o.solve_feasible(inst, weight),
            None => InnerFlowOracle::build(inst, &all_enabled).solve_feasible(inst, weight),
        };
        if obs::enabled() {
            let s = obs::Scope::new("fpl");
            s.counter("oracle_solves").inc();
            if cfg.reuse_oracle {
                s.counter("oracle_reuses").inc();
            }
            s.timer("oracle_ns").observe_since(t0);
        }
        d
    };

    // Theorem 3.1 constants: D = M·N·L, R = A = Σ T_items × MAXDROP.
    let d_const = (np * inst.num_nodes * nr) as f64;
    let ra: f64 = inst.paths.iter().map(|p| p.items).sum::<f64>() * MAXDROP;
    let epsilon =
        cfg.epsilon.unwrap_or_else(|| (d_const / (ra * ra * cfg.epochs as f64).max(1e-12)).sqrt());

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Historical sum of state vectors Σ_q T_items × M_obs(q) × Dist.
    let mut hist = vec![0.0f64; nweights];
    let mut hist_rates: Vec<MatchRates> = Vec::with_capacity(cfg.epochs);

    let mut fpl_value = Vec::with_capacity(cfg.epochs);
    let mut ftl_value = Vec::with_capacity(cfg.epochs);
    let mut static_prefix_value = Vec::with_capacity(cfg.epochs);
    let mut normalized_regret = Vec::with_capacity(cfg.epochs);
    let mut fpl_total = 0.0;

    // Defender's previous per-(rule, path) covered fraction (for reactive
    // adversaries).
    let mut last_cover = vec![vec![0.0f64; np]; nr];

    let _span = obs::span!("fpl.run", epochs = cfg.epochs, rules = nr, paths = np);
    for t in 0..cfg.epochs {
        let _span = obs::span!("fpl.epoch", epoch = t);
        // --- Decide with perturbed history. ---
        // The perturbation draw stays on the sequential RNG; the two
        // oracle solves (FPL on perturbed history, FTL on raw history)
        // are independent of each other and run on scoped threads.
        let mut weights = hist.clone();
        for w in weights.iter_mut() {
            *w += rng.random_range(0.0..(1.0 / epsilon));
        }
        #[expect(clippy::expect_used, reason = "par_map_n(2, ..) returns exactly two results")]
        let (decision, ftl_decision) = if cfg.track_ftl && t > 0 {
            let mut pair = parallel::par_map_n(2, |j| {
                if j == 0 {
                    timed_oracle(&weights, 0)
                } else {
                    timed_oracle(&hist, 1)
                }
            });
            let ftl = pair.pop().expect("two oracle solves");
            (pair.pop().expect("two oracle solves"), Some(ftl))
        } else {
            (timed_oracle(&weights, 0), None)
        };

        // --- Truth revealed. ---
        let truth = adversary.reveal(t, &last_cover);

        // --- Score the epoch. ---
        let v = inst.objective_with_rates(&decision, &truth);
        fpl_total += v;
        fpl_value.push(v);
        if let Some(f) = ftl_decision {
            ftl_value.push(inst.objective_with_rates(&f, &truth));
        } else if cfg.track_ftl {
            ftl_value.push(v);
        }

        // --- Update history and defender-coverage snapshot. ---
        for i in 0..nr {
            for k in 0..np {
                let m = truth.rate(i, k);
                if m > 0.0 {
                    for pos in 0..inst.paths[k].nodes.len() {
                        hist[lay.idx(i, k, pos)] += inst.paths[k].items * m * inst.distance(k, pos);
                    }
                }
            }
        }
        last_cover = vec![vec![0.0; np]; nr];
        for ((i, k), shares) in decision.iter() {
            let c: f64 = shares.iter().map(|&(_, f)| f).sum();
            last_cover[*i][*k] = c;
        }
        hist_rates.push(truth);

        // --- Best static solution in hindsight for this prefix. ---
        // Scoring the static solution against each epoch of the prefix is
        // embarrassingly parallel; summing in input order keeps the f64
        // total bit-identical to the serial loop.
        let static_d = timed_oracle(&hist, 1);
        let static_total: f64 =
            parallel::par_map(&hist_rates, |_, m| inst.objective_with_rates(&static_d, m))
                .into_iter()
                .sum();
        static_prefix_value.push(static_total);
        let regret =
            if static_total > 1e-12 { (static_total - fpl_total) / static_total } else { 0.0 };
        normalized_regret.push(regret);
        if obs::enabled() {
            obs::record_series("fpl.cum_regret", t as f64, regret);
        }
    }

    if obs::enabled() {
        let s = obs::Scope::new("fpl");
        s.counter("runs").inc();
        s.counter("epochs").add(cfg.epochs as u64);
        s.gauge("epsilon").set(epsilon);
        if let Some(&r) = normalized_regret.last() {
            s.gauge("final_normalized_regret").set(r);
        }
        s.timer("run_ns").observe_since(t_run);
    }
    Ok(OnlineRun { fpl_value, static_prefix_value, normalized_regret, ftl_value, epsilon })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Shifting, StochasticUniform};
    use nwdp_topo::{internet2, PathDb};
    use nwdp_traffic::{MatchRates, TrafficMatrix, VolumeModel};

    fn instance(n_rules: usize) -> NipsInstance {
        let t = internet2();
        let paths = PathDb::shortest_paths(&t);
        let tm = TrafficMatrix::gravity(&t);
        let vol = VolumeModel::internet2_baseline();
        let rates = MatchRates::zeros(n_rules, paths.all_pairs().count());
        let mut inst = NipsInstance::evaluation_setup(&t, &paths, &tm, &vol, n_rules, 1.0, rates);
        // §3.5 drops the TCAM constraint entirely.
        inst.cam_cap = vec![f64::INFINITY; inst.num_nodes];
        inst
    }

    #[test]
    fn degenerate_configs_return_typed_errors() {
        let inst = instance(3);
        let mut adv = StochasticUniform::new(3, inst.paths.len(), 0.01, 1);
        let zero = FplConfig { epochs: 0, ..Default::default() };
        assert_eq!(run_fpl(&inst, &mut adv, &zero).unwrap_err(), FplError::ZeroEpochs);
        for eps in [0.0, -1.0, f64::INFINITY] {
            let cfg = FplConfig { epochs: 5, epsilon: Some(eps), ..Default::default() };
            assert_eq!(
                run_fpl(&inst, &mut adv, &cfg).unwrap_err(),
                FplError::BadEpsilon(eps),
                "epsilon {eps}"
            );
        }
    }

    #[test]
    fn single_epoch_boundary_produces_finite_run() {
        // epochs == 1 is the smallest legal game; every trajectory must
        // have exactly one finite entry (no division hazards at t = 0).
        let inst = instance(3);
        let mut adv = StochasticUniform::new(3, inst.paths.len(), 0.01, 2);
        let cfg = FplConfig { epochs: 1, seed: 9, ..Default::default() };
        let run = run_fpl(&inst, &mut adv, &cfg).expect("one epoch is legal");
        assert_eq!(run.fpl_value.len(), 1);
        assert_eq!(run.normalized_regret.len(), 1);
        assert!(run.fpl_value[0].is_finite());
        assert!(run.normalized_regret[0].is_finite());
        assert!(run.epsilon.is_finite() && run.epsilon > 0.0);
    }

    #[test]
    fn regret_small_and_shrinking_under_stochastic_adversary() {
        let inst = instance(6);
        let mut adv = StochasticUniform::new(6, inst.paths.len(), 0.01, 7);
        let cfg = FplConfig { epochs: 60, seed: 3, ..Default::default() };
        let run = run_fpl(&inst, &mut adv, &cfg).expect("valid config");
        assert_eq!(run.normalized_regret.len(), 60);
        let early = run.normalized_regret[5].abs();
        let late = run.normalized_regret[59].abs();
        assert!(late < 0.2, "late regret {late} too large");
        assert!(late <= early + 0.05, "regret should not grow: {early} → {late}");
    }

    #[test]
    fn regret_can_go_negative() {
        // With i.i.d. rates the online algorithm sometimes beats the
        // static optimum on a lucky prefix; at minimum the metric must be
        // well-defined and bounded.
        let inst = instance(4);
        let mut adv = StochasticUniform::new(4, inst.paths.len(), 0.01, 11);
        let cfg = FplConfig { epochs: 30, seed: 5, ..Default::default() };
        let run = run_fpl(&inst, &mut adv, &cfg).expect("valid config");
        for r in &run.normalized_regret {
            assert!(r.is_finite());
            assert!(*r < 1.0);
        }
    }

    #[test]
    fn fpl_tracks_shifting_adversary() {
        let inst = instance(8);
        let mut adv = Shifting::new(8, inst.paths.len(), 0.01, 10, 2, 13);
        let cfg = FplConfig { epochs: 50, seed: 1, ..Default::default() };
        let run = run_fpl(&inst, &mut adv, &cfg).expect("valid config");
        // The game must produce positive value (the defender drops traffic).
        let total: f64 = run.fpl_value.iter().sum();
        assert!(total > 0.0);
        assert!(run.normalized_regret[49] < 0.6);
    }

    #[test]
    fn epsilon_auto_derivation_positive() {
        let inst = instance(3);
        let mut adv = StochasticUniform::new(3, inst.paths.len(), 0.01, 2);
        let cfg = FplConfig { epochs: 5, ..Default::default() };
        let run = run_fpl(&inst, &mut adv, &cfg).expect("valid config");
        assert!(run.epsilon > 0.0 && run.epsilon.is_finite());
    }

    #[test]
    fn deterministic_given_seeds() {
        let inst = instance(4);
        let cfg = FplConfig { epochs: 10, seed: 9, ..Default::default() };
        let mut a1 = StochasticUniform::new(4, inst.paths.len(), 0.01, 21);
        let mut a2 = StochasticUniform::new(4, inst.paths.len(), 0.01, 21);
        let r1 = run_fpl(&inst, &mut a1, &cfg).expect("valid config");
        let r2 = run_fpl(&inst, &mut a2, &cfg).expect("valid config");
        assert_eq!(r1.fpl_value, r2.fpl_value);
        assert_eq!(r1.normalized_regret, r2.normalized_regret);
    }

    /// Regression for the `widx` hoist: the precomputed stride must index
    /// weights exactly like the old formula that recomputed `max_hops`
    /// (an O(paths) scan) on every lookup.
    #[test]
    fn weight_layout_matches_naive_indexing() {
        let inst = instance(3);
        let lay = WeightLayout::new(&inst);
        let naive = |i: usize, k: usize, pos: usize| {
            let mh = inst.paths.iter().map(|p| p.nodes.len()).max().unwrap_or(1);
            (i * inst.paths.len() + k) * mh + pos
        };
        for i in 0..3 {
            for (k, path) in inst.paths.iter().enumerate() {
                for pos in 0..path.nodes.len() {
                    assert_eq!(lay.idx(i, k, pos), naive(i, k, pos));
                }
            }
        }
        assert_eq!(lay.len(3), 3 * inst.paths.len() * max_hops(&inst));
    }

    /// Reusing the oracle's flow network across epochs must be
    /// bit-identical to rebuilding it per solve (a reset + re-priced
    /// network is exactly the state a fresh build produces).
    #[test]
    fn oracle_reuse_bit_identical_to_rebuild() {
        let inst = instance(5);
        let cfg_warm = FplConfig { epochs: 15, seed: 17, track_ftl: true, ..Default::default() };
        let cfg_cold = FplConfig { reuse_oracle: false, ..cfg_warm.clone() };
        let mut a1 = StochasticUniform::new(5, inst.paths.len(), 0.01, 8);
        let mut a2 = StochasticUniform::new(5, inst.paths.len(), 0.01, 8);
        let warm = run_fpl(&inst, &mut a1, &cfg_warm).expect("valid config");
        let cold = run_fpl(&inst, &mut a2, &cfg_cold).expect("valid config");
        assert_eq!(warm.fpl_value, cold.fpl_value);
        assert_eq!(warm.ftl_value, cold.ftl_value);
        assert_eq!(warm.static_prefix_value, cold.static_prefix_value);
        assert_eq!(warm.normalized_regret, cold.normalized_regret);
    }
}

#[cfg(test)]
mod ftl_tests {
    use super::*;
    use crate::adversary::Reactive;
    use nwdp_topo::{internet2, PathDb};
    use nwdp_traffic::{MatchRates, TrafficMatrix, VolumeModel};

    #[test]
    fn ftl_tracking_produces_comparable_series() {
        let t = internet2();
        let paths = PathDb::shortest_paths(&t);
        let tm = TrafficMatrix::gravity(&t);
        let vol = VolumeModel::internet2_baseline();
        let rates = MatchRates::zeros(4, paths.all_pairs().count());
        let mut inst = NipsInstance::evaluation_setup(&t, &paths, &tm, &vol, 4, 1.0, rates);
        inst.cam_cap = vec![f64::INFINITY; inst.num_nodes];
        let mut adv = Reactive::new(4, inst.paths.len(), 0.01, 6);
        let cfg = FplConfig { epochs: 20, seed: 2, track_ftl: true, ..Default::default() };
        let run = run_fpl(&inst, &mut adv, &cfg).expect("valid config");
        assert_eq!(run.ftl_value.len(), 20);
        assert!(run.ftl_value.iter().all(|v| v.is_finite() && *v >= 0.0));
        // Both defenders earn value against the reactive adversary.
        assert!(run.fpl_value.iter().sum::<f64>() > 0.0);
        assert!(run.ftl_value.iter().sum::<f64>() > 0.0);
    }
}
