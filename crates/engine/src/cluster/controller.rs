//! The controller actor: heartbeat monitoring, epoch-fenced manifest
//! distribution with retry/backoff, and the repair hand-off.
//!
//! The controller is the only place cluster-wide decisions are made, and
//! it always runs serially in the driver thread — its seeded jitter RNG
//! and every queue/transport interaction happen in deterministic event
//! order. Decision rules:
//!
//! - **Detection.** A node is declared failed either by the
//!   [`HeartbeatMonitor`] (silence past the miss window + grace) or by
//!   exhausting the manifest-push retry budget. Both causes land in the
//!   same declared set and trigger the same repair path.
//! - **Repair.** Declared nodes are handed to the PR 4 repair machinery:
//!   `greedy_repair` immediately (exact range arithmetic, no solver), and
//!   optionally an LP re-optimization one heartbeat later
//!   ([`ClusterConfig::lp_followup`]). Every candidate passes
//!   [`validate_manifests_excluding`] — with the accumulated
//!   unrecoverable units exempted — before it may become an epoch; a
//!   rejected candidate leaves the old epoch serving.
//! - **Distribution.** Each new epoch is pushed to every live node with
//!   per-attempt timeouts, exponential backoff, and seeded jitter.
//!   Retries are lazily cancelled: a `RetryCheck` that fires after the
//!   node acked, the node was declared failed, or the epoch was
//!   superseded simply lapses. A `StaleReject` whose `pushed` equals the
//!   current epoch counts as an ack — the node provably runs that epoch,
//!   so a lost ack cannot retry forever.
//! - **Recovery.** Any heartbeat from a declared node clears the
//!   declaration (healed partition or false suspicion under loss) and
//!   re-pushes the current epoch so the node re-fences forward; its old
//!   hash ranges are *not* rebalanced back — the node rejoins as a spare,
//!   and re-balancing is the reload loop's job, not the failure path's.

use super::clock::{EventQueue, Timer};
use super::transport::Transport;
use super::{
    post, Addr, ClusterConfig, ClusterError, Detection, DetectionCause, EpochReport, Msg, NetStats,
};
use nwdp_core::nids::lp::{NidsLpConfig, NodeCaps};
use nwdp_core::nids::manifest::{validate_manifests_excluding, CapacityCeiling, SamplingManifest};
use nwdp_core::resilience::repair::{greedy_repair, lp_repair};
use nwdp_core::resilience::HeartbeatMonitor;
use nwdp_core::units::NidsDeployment;
use nwdp_obs as obs;
use nwdp_topo::NodeId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Timeout multiplier per push attempt (exponential backoff).
const BACKOFF_FACTOR: f64 = 2.0;

pub(super) struct Controller<'a> {
    dep: &'a NidsDeployment,
    caps: &'a [NodeCaps],
    cfg: &'a ClusterConfig,
    monitor: HeartbeatMonitor,
    /// Jitter RNG for retry timeouts; all draws serial in event order.
    rng: StdRng,
    /// Current epoch and its validated manifest.
    pub epoch: u64,
    pub manifest: Arc<SamplingManifest>,
    /// Highest epoch acked per node.
    acked: Vec<u64>,
    /// Union of monitor- and retry-declared failures.
    declared: Vec<bool>,
    /// Unit indices legitimately without coverage (accumulated
    /// unrecoverable/degraded units) — exempted from validation.
    skip_units: Vec<usize>,
    pub epochs: Vec<EpochReport>,
    pub detections: Vec<Detection>,
}

impl<'a> Controller<'a> {
    pub fn new(
        dep: &'a NidsDeployment,
        caps: &'a [NodeCaps],
        initial: Arc<SamplingManifest>,
        cfg: &'a ClusterConfig,
        grace: f64,
        seed: u64,
    ) -> Result<Self, ClusterError> {
        let monitor = HeartbeatMonitor::new(cfg.health, dep.num_nodes, grace, 0.0)
            .map_err(ClusterError::Health)?;
        Ok(Controller {
            dep,
            caps,
            cfg,
            monitor,
            rng: StdRng::seed_from_u64(seed ^ 0xc011_7801_01e7_0b0e),
            epoch: 1,
            manifest: initial,
            acked: vec![1; dep.num_nodes],
            declared: vec![false; dep.num_nodes],
            skip_units: Vec::new(),
            epochs: Vec::new(),
            detections: Vec::new(),
        })
    }

    pub(super) fn declared_nodes(&self) -> Vec<NodeId> {
        (0..self.declared.len()).filter(|&j| self.declared[j]).map(NodeId).collect()
    }

    /// Per-attempt timeout with exponential backoff and seeded jitter.
    fn timeout(&mut self, attempt: u32) -> f64 {
        let base = self.cfg.backoff_base * BACKOFF_FACTOR.powi(attempt as i32);
        base * self.rng.random_range(0.9..1.1)
    }

    /// Send one manifest push and arm its per-attempt timeout.
    fn push_to(
        &mut self,
        node: NodeId,
        attempt: u32,
        now: f64,
        q: &mut EventQueue,
        tx: &mut Transport,
        stats: &mut NetStats,
    ) {
        let msg = Msg::ManifestPush { epoch: self.epoch, manifest: self.manifest.clone(), attempt };
        post(node, Addr::Node(node), msg, now, q, tx, stats);
        let t = self.timeout(attempt);
        q.push(now + t, Timer::RetryCheck { node, epoch: self.epoch, attempt });
    }

    /// Adopt a validated candidate as the next epoch and distribute it to
    /// every live node.
    fn adopt_epoch(
        &mut self,
        manifest: SamplingManifest,
        now: f64,
        q: &mut EventQueue,
        tx: &mut Transport,
        stats: &mut NetStats,
    ) {
        self.epoch += 1;
        self.manifest = Arc::new(manifest);
        let targets: Vec<NodeId> =
            (0..self.dep.num_nodes).map(NodeId).filter(|n| !self.declared[n.index()]).collect();
        self.epochs.push(EpochReport {
            epoch: self.epoch,
            created_at: now,
            targets: targets.len(),
            acked: 0,
            converged_at: None,
        });
        obs::trace_event!("net.epoch", epoch = self.epoch, at = now, targets = targets.len());
        for node in targets {
            self.push_to(node, 0, now, q, tx, stats);
        }
    }

    /// Greedy repair for the current declared set, gated by validation.
    fn repair(&mut self, now: f64, q: &mut EventQueue, tx: &mut Transport, stats: &mut NetStats) {
        let failed = self.declared_nodes();
        let out = greedy_repair(self.dep, &self.manifest, self.caps, &failed);
        let mut skip = self.skip_units.clone();
        skip.extend(out.unrecoverable.iter().copied());
        skip.sort_unstable();
        skip.dedup();
        let ceiling =
            self.cfg.max_load.map(|max_load| CapacityCeiling { caps: self.caps, max_load });
        match validate_manifests_excluding(
            self.dep,
            &out.manifest,
            self.cfg.redundancy,
            ceiling.as_ref(),
            &skip,
        ) {
            Ok(()) => {
                self.skip_units = skip;
                stats.repairs += 1;
                self.adopt_epoch(out.manifest, now, q, tx, stats);
                if self.cfg.lp_followup {
                    q.push(
                        now + self.cfg.health.heartbeat_interval,
                        Timer::LpFollowup { after_epoch: self.epoch },
                    );
                }
            }
            Err(e) => {
                // The gate held: the old epoch keeps serving.
                stats.repairs_rejected += 1;
                obs::trace_event!("net.repair_rejected", at = now, reason = format!("{e}"));
            }
        }
    }

    /// Deferred LP re-optimization over the survivor set.
    pub fn on_lp_followup(
        &mut self,
        after_epoch: u64,
        now: f64,
        q: &mut EventQueue,
        tx: &mut Transport,
        stats: &mut NetStats,
    ) {
        if after_epoch != self.epoch {
            return; // superseded by a newer repair
        }
        let failed = self.declared_nodes();
        let mut lp_cfg = NidsLpConfig::homogeneous(self.dep.num_nodes, self.caps[0]);
        lp_cfg.caps = self.caps.to_vec();
        lp_cfg.redundancy = self.cfg.redundancy;
        match lp_repair(self.dep, &self.manifest, &lp_cfg, &failed) {
            Ok(lp) => {
                let mut skip = self.skip_units.clone();
                skip.extend(lp.degraded_units.iter().copied());
                skip.sort_unstable();
                skip.dedup();
                let ceiling =
                    self.cfg.max_load.map(|max_load| CapacityCeiling { caps: self.caps, max_load });
                if validate_manifests_excluding(
                    self.dep,
                    &lp.manifest,
                    self.cfg.redundancy,
                    ceiling.as_ref(),
                    &skip,
                )
                .is_ok()
                {
                    self.skip_units = skip;
                    stats.lp_followups += 1;
                    self.adopt_epoch(lp.manifest, now, q, tx, stats);
                }
            }
            Err(_) => stats.lp_failures += 1,
        }
    }

    fn declare(
        &mut self,
        node: NodeId,
        now: f64,
        cause: DetectionCause,
        q: &mut EventQueue,
        tx: &mut Transport,
        stats: &mut NetStats,
    ) {
        if self.declared[node.index()] {
            return;
        }
        self.declared[node.index()] = true;
        self.detections.push(Detection { node, declared_at: now, cause });
        obs::trace_event!("net.declared", node = node.0, at = now);
        self.repair(now, q, tx, stats);
    }

    /// Periodic monitor sweep on the heartbeat grid.
    pub fn on_sweep(
        &mut self,
        now: f64,
        q: &mut EventQueue,
        tx: &mut Transport,
        stats: &mut NetStats,
    ) {
        for node in self.monitor.sweep(now) {
            self.declare(node, now, DetectionCause::MissedHeartbeats, q, tx, stats);
        }
    }

    /// Per-attempt push timeout fired; resolve lazily.
    #[allow(clippy::too_many_arguments)]
    pub fn on_retry_check(
        &mut self,
        node: NodeId,
        epoch: u64,
        attempt: u32,
        now: f64,
        q: &mut EventQueue,
        tx: &mut Transport,
        stats: &mut NetStats,
    ) {
        if epoch != self.epoch || self.declared[node.index()] || self.acked[node.index()] >= epoch {
            return; // superseded, declared elsewhere, or already acked
        }
        if attempt >= self.cfg.retry_budget {
            stats.timeouts += 1;
            self.declare(node, now, DetectionCause::RetryExhausted, q, tx, stats);
        } else {
            stats.retries += 1;
            self.push_to(node, attempt + 1, now, q, tx, stats);
        }
    }

    fn note_ack(&mut self, from: NodeId, epoch: u64, now: f64) {
        let j = from.index();
        if epoch > self.acked[j] {
            self.acked[j] = epoch;
            if let Some(report) = self.epochs.iter_mut().find(|r| r.epoch == epoch) {
                report.acked += 1;
                if report.acked >= report.targets && report.converged_at.is_none() {
                    report.converged_at = Some(now);
                    obs::trace_event!(
                        "net.converged",
                        epoch = epoch,
                        at = now,
                        latency = now - report.created_at
                    );
                }
            }
        }
    }

    /// One message delivered to the controller.
    pub fn on_msg(
        &mut self,
        msg: Msg,
        now: f64,
        q: &mut EventQueue,
        tx: &mut Transport,
        stats: &mut NetStats,
    ) {
        match msg {
            Msg::Heartbeat { from, .. } => {
                stats.heartbeats += 1;
                let was_declared = self.declared[from.index()];
                self.monitor.on_heartbeat(from, now);
                if was_declared {
                    // Liveness proof: healed partition or false suspicion.
                    self.declared[from.index()] = false;
                    stats.recoveries += 1;
                    obs::trace_event!("net.recovered", node = from.0, at = now);
                    if self.acked[from.index()] < self.epoch {
                        self.push_to(from, 0, now, q, tx, stats);
                    }
                }
            }
            Msg::InstallAck { from, epoch } => self.note_ack(from, epoch, now),
            Msg::StaleReject { from, pushed, current } => {
                // The node already runs `current ≥ pushed`; if that is the
                // epoch we are distributing, the reject IS the ack (covers
                // lost-ack retransmissions).
                if current >= pushed && pushed == self.epoch {
                    self.note_ack(from, pushed, now);
                }
            }
            Msg::AlertReport { count, .. } => {
                // Forwarded alert volume. Deliberately not a liveness
                // proof — detection stays a heartbeat-only contract.
                stats.alerts_forwarded += count;
            }
            Msg::ManifestPush { .. } => {} // never addressed to us
        }
    }
}
