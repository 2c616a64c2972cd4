//! `repro cluster` — fault-injected convergence of the distributed
//! control plane (ISSUE 9).
//!
//! Sweeps background link loss over the standard Internet2 / 9-module
//! deployment while a fixed fault script runs on the replay clock: node 3
//! crashes at t = 0.37 and node 7 is partitioned away over [0.5, 0.75).
//! Each point drives [`nwdp_engine::run_cluster`] — heartbeats, misses,
//! epoch-fenced manifest pushes with retry/backoff, greedy repair on
//! declaration — and the run asserts the ISSUE 9 acceptance criteria
//! directly:
//!
//! - the crash is **detected** from actually missed heartbeats no later
//!   than the closed-form [`HealthConfig::detect_at`] prediction plus the
//!   worst-case detection delay and transport grace;
//! - ground-truth **coverage never drops** below the greedy repair bound
//!   for the set of nodes that were ever declared failed;
//! - **zero stale-epoch manifests are ever live**: every node's install
//!   log is strictly monotone in the epoch number, and every node still
//!   trusted at the horizon runs the final epoch.
//!
//! `NWDP_NET_LOSS` pins the sweep to one loss fraction in `[0, 1)`; an
//! unusable value warns once, counts in `config.invalid_env` and falls
//! back to 0.1. Every point uses a max one-way delay of `DELAY_MAX`
//! replay-clock units and [`ClusterConfig::default`]'s push retry budget
//! and base retry timeout.
//!
//! Results go to `results/cluster_convergence.csv` (per loss point) and
//! `results/cluster_epochs.csv` (per epoch).

use crate::output::{f2, f4, Table};
use crate::scenario::{default_caps, NidsContext};
use crate::Scale;
use nwdp_core::parallel;
use nwdp_core::resilience::{manifest_gap_fraction, FaultPlan, HealthConfig, Partition};
use nwdp_engine::{run_cluster, ClusterConfig, ClusterRun};
use nwdp_obs as obs;
use nwdp_topo::NodeId;
use std::time::Instant;

/// The scripted faults every loss point shares.
const CRASH_NODE: NodeId = NodeId(3);
pub const CRASH_AT: f64 = 0.37;
const PART_NODE: NodeId = NodeId(7);
const PART_FROM: f64 = 0.5;
const PART_UNTIL: f64 = 0.75;
const PLAN_SEED: u64 = 19;
/// Max one-way transport delay, in replay-clock units.
const DELAY_MAX: f64 = 0.004;

/// One loss point of the convergence sweep.
#[derive(Debug)]
pub struct ClusterPoint {
    pub loss: f64,
    pub run: ClusterRun,
    pub wall_s: f64,
    /// Closed-form grid prediction for the crash detection.
    pub predicted_detect: f64,
    /// When the crash was actually declared from missed heartbeats.
    pub detected_at: f64,
    /// `1 - Σ blind gaps` over every node ever declared failed — the
    /// greedy repair bound the coverage floor is held to.
    pub repair_bound: f64,
}

/// The loss sweep: pinned to `NWDP_NET_LOSS` when set, else scale-sized.
fn loss_points(scale: Scale) -> Vec<f64> {
    if std::env::var_os("NWDP_NET_LOSS").is_some() {
        let loss = parallel::env_f64("NWDP_NET_LOSS", 0.0..1.0, "a loss fraction in [0, 1)");
        return vec![loss.unwrap_or(0.1)];
    }
    match scale {
        Scale::Quick => vec![0.0, 0.1],
        Scale::Full => vec![0.0, 0.02, 0.05, 0.1, 0.2],
    }
}

/// Run the convergence sweep at `scale`.
pub fn run(scale: Scale) -> Vec<ClusterPoint> {
    let ctx = NidsContext::internet2();
    let dep = ctx.deployment(9);
    let (_assignment, manifest) = ctx.manifests(&dep);
    let caps = vec![default_caps(); dep.num_nodes];

    let mut cfg = ClusterConfig::default();
    cfg.health.miss_threshold = 4;
    // Alert forwarding rides along only when the alert plane is on: the
    // extra messages advance the transport RNG stream, so turning them on
    // unconditionally would break bit-identity with earlier commits.
    if obs::alert_enabled() {
        cfg.alert_every = 2;
    }

    // Metrics stay on for the runs (restored after): the `net.*` counters
    // and the `net.coverage` / `net.convergence` series are part of the
    // artifact contract `tests/repro_artifacts.rs` checks.
    let was = obs::enabled();
    obs::set_enabled(true);
    let points = loss_points(scale)
        .into_iter()
        .map(|loss| {
            let mut plan = FaultPlan::lossy(loss, 0.001, DELAY_MAX, PLAN_SEED);
            plan.crashes.push((CRASH_NODE, CRASH_AT));
            plan.partitions.push(Partition {
                nodes: vec![PART_NODE],
                from: PART_FROM,
                until: PART_UNTIL,
            });
            let t0 = Instant::now();
            let run = run_cluster(&dep, &manifest, &caps, &plan, &cfg).expect("valid config");
            let wall_s = t0.elapsed().as_secs_f64();
            assert_acceptance(&dep, &manifest, &cfg.health, loss, run, wall_s)
        })
        .collect();
    obs::set_enabled(was);
    points
}

/// ISSUE 9 acceptance, asserted on every bench run — convergence numbers
/// for a run that detected late, uncovered traffic, or served a stale
/// manifest are worthless.
fn assert_acceptance(
    dep: &nwdp_core::NidsDeployment,
    initial: &nwdp_core::nids::SamplingManifest,
    health: &HealthConfig,
    loss: f64,
    run: ClusterRun,
    wall_s: f64,
) -> ClusterPoint {
    // Detection: the crash is declared from actually missed heartbeats,
    // no later than the grid prediction + worst-case delay + grace.
    let d = run
        .detection_of(CRASH_NODE)
        .unwrap_or_else(|| panic!("crash of node {} never detected at loss {loss}", CRASH_NODE.0));
    let predicted = health.detect_at(CRASH_AT);
    let slack = health.max_detection_delay() + DELAY_MAX + 1e-9;
    // Beats lost to the link just before the crash pull `last_seen` (and
    // so the declaration) earlier than the grid prediction by up to the
    // same worst-case window — symmetric slack.
    assert!(
        d.declared_at >= predicted - slack && d.declared_at <= predicted + slack,
        "loss {loss}: crash declared at {} vs predicted {predicted} (±{slack} slack)",
        d.declared_at
    );
    let detected_at = d.declared_at;

    // Coverage: never below the greedy repair bound for everything that
    // was ever declared (false suspicions under loss shrink the bound the
    // same way real failures do — their own-only units go residual until
    // a reload rebalances).
    let ever: Vec<NodeId> = run.detections.iter().map(|det| det.node).collect();
    let worst: f64 = ever.iter().map(|&n| manifest_gap_fraction(dep, initial, &[n])).sum();
    let repair_bound = 1.0 - worst;
    assert!(
        run.coverage_floor() >= repair_bound - 1e-9,
        "loss {loss}: coverage floor {} below the repair bound {repair_bound}",
        run.coverage_floor()
    );

    // Fencing: installs strictly monotone, stale wire counter balanced,
    // and every node still trusted at the horizon runs the final epoch.
    for (j, installs) in run.node_installs.iter().enumerate() {
        let mut prev = 0u64;
        for &(at, epoch) in installs {
            assert!(epoch > prev, "loss {loss}: node {j} re-installed epoch {epoch} at {at}");
            prev = epoch;
        }
    }
    let wire: u64 = run.node_stale_rejects.iter().sum();
    assert_eq!(wire, run.stats.stale_epoch_rejects, "loss {loss}: stale-reject accounting");

    // Forwarded-alert accounting balances exactly (trivially zero when
    // the alert plane — and with it `alert_every` — is off).
    assert_eq!(
        run.stats.alert_sends,
        run.stats.alert_delivered + run.stats.alert_drops,
        "loss {loss}: alert accounting must balance"
    );
    for j in 0..run.node_epochs.len() {
        if !run.failed_final.contains(&NodeId(j)) {
            assert_eq!(
                run.node_epochs[j], run.final_epoch,
                "loss {loss}: live node {j} is stale at the horizon"
            );
        }
    }

    ClusterPoint { loss, run, wall_s, predicted_detect: predicted, detected_at, repair_bound }
}

/// Per-loss-point summary: the convergence-latency-vs-loss table.
pub fn table(points: &[ClusterPoint]) -> Table {
    let mut t = Table::new(
        "Control-plane convergence vs link loss (Internet2, crash + partition script)",
        &[
            "loss",
            "detect_at",
            "predicted",
            "detections",
            "epochs",
            "max_conv_latency",
            "retries",
            "timeouts",
            "drops",
            "stale_rejects",
            "recoveries",
            "coverage_floor",
            "repair_bound",
            "wall_s",
        ],
    );
    for p in points {
        let s = &p.run.stats;
        let max_latency =
            p.run.convergence_latencies().iter().map(|&(_, l)| l).fold(0.0f64, f64::max);
        t.row(vec![
            f2(p.loss),
            f4(p.detected_at),
            f4(p.predicted_detect),
            p.run.detections.len().to_string(),
            p.run.final_epoch.to_string(),
            f4(max_latency),
            s.retries.to_string(),
            s.timeouts.to_string(),
            (s.drops_loss + s.drops_cut).to_string(),
            s.stale_epoch_rejects.to_string(),
            s.recoveries.to_string(),
            format!("{:.9}", p.run.coverage_floor()),
            format!("{:.9}", p.repair_bound),
            f2(p.wall_s),
        ]);
    }
    t
}

/// Per-epoch CSV: when each manifest generation was created and how long
/// it took to reach every target.
pub fn epochs_table(points: &[ClusterPoint]) -> Table {
    let mut t = Table::new(
        "Manifest epochs per loss point",
        &["loss", "epoch", "created_at", "targets", "acked", "conv_latency"],
    );
    for p in points {
        for e in &p.run.epochs {
            t.row(vec![
                f2(p.loss),
                e.epoch.to_string(),
                f4(e.created_at),
                e.targets.to_string(),
                e.acked.to_string(),
                e.convergence_latency().map(f4).unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_meets_the_acceptance_criteria() {
        // `run` asserts detection, coverage, and fencing internally.
        let points = obs::scoped(&obs::Recorder::new(), || run(Scale::Quick));
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].loss, 0.0);
        // Zero loss: exactly the two scripted faults are ever declared.
        assert_eq!(points[0].run.detections.len(), 2);
        assert_eq!(table(&points).rows.len(), 2);
        assert!(epochs_table(&points).rows.len() >= 4, "≥ 2 epochs per point");
    }
}
