//! # Distributed control plane: message-passing nodes over a faulty
//! transport
//!
//! The resilient replay's epoch planner (`plan_manifest_epochs`) notices
//! failures by *arithmetic* (`HealthConfig::detect_at`'s closed-form
//! grid). Here the cluster is real —
//! in-process, but message-passing: each node is an actor with a typed
//! mailbox ([`NodeActor`]), a controller actor pushes epoch-numbered
//! manifest updates and collects heartbeats, and a [`FaultPlan`]-driven
//! transport drops, delays, reorders, and severs messages. Failure
//! detection is re-derived from *actually missed* heartbeat messages
//! ([`HeartbeatMonitor`]); convergence is something that visibly happens
//! (or doesn't) on the wire.
//!
//! ## Determinism contract
//!
//! The run is a discrete-event simulation on the replay-fraction clock —
//! no wall-clock anywhere. All scheduling, all transport RNG draws, and
//! all controller decisions happen serially in the driver thread in
//! event order; ties pop in scheduling order. Within a same-instant
//! batch the nodes take their turns first, in ascending node order, each
//! draining its mailbox in batch order and sending its replies as it
//! produces them; the controller's events follow. A node turn is a few
//! integer comparisons (nodes never coordinate at runtime), so the run
//! spawns no threads and reads no thread count: the entire run — stats,
//! detections, epochs, coverage samples, and the delivery-schedule
//! fingerprint — is a pure function of `(deployment, manifest, plan,
//! config)`.
//!
//! ## Degradation semantics
//!
//! A partitioned minority cannot receive pushes, so it keeps serving its
//! **last validated manifest** — stale but safe. The ground-truth
//! coverage timeline in [`ClusterRun::coverage`] counts a partitioned
//! node's ranges as unobserved while it is cut (the blind window that
//! `coverage_timeline` accounts for in the resilient replay), and its
//! manifest as stale-but-fenced when it heals (the controller re-pushes
//! on the first heartbeat back, and the node's epoch fence makes the
//! catch-up idempotent).

mod clock;
mod controller;
mod node;
mod transport;

pub use clock::{EventQueue, Timer};
pub use node::NodeActor;
pub use transport::{SendOutcome, Transport};

use controller::Controller;
use nwdp_core::nids::lp::NodeCaps;
use nwdp_core::nids::manifest::{
    validate_manifests, CapacityCeiling, ManifestValidationError, SamplingManifest,
};
use nwdp_core::resilience::{manifest_gap_fraction, FaultPlan, HealthConfig, HealthConfigError};
use nwdp_core::units::NidsDeployment;
use nwdp_obs as obs;
use nwdp_topo::NodeId;
use std::sync::Arc;

/// Typed control-plane messages.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Node → controller liveness beat.
    Heartbeat { from: NodeId, seq: u64 },
    /// Controller → node epoch-numbered manifest update.
    ManifestPush { epoch: u64, manifest: Arc<SamplingManifest>, attempt: u32 },
    /// Node → controller: installed and serving `epoch`.
    InstallAck { from: NodeId, epoch: u64 },
    /// Node → controller: fenced off a stale push; `current` is what the
    /// node actually runs.
    StaleReject { from: NodeId, pushed: u64, current: u64 },
    /// Node → controller: batched alert forwarding — `count` alerts
    /// detected locally since the previous report. Rides the same lossy
    /// transport as everything else, so the fault plans exercise alert
    /// loss; sends/delivered/drops are balance-checked like heartbeats.
    AlertReport { from: NodeId, seq: u64, count: u64 },
}

/// Mailbox addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addr {
    Controller,
    Node(NodeId),
}

/// Wire-level and control-loop counters for one run. Mirrored into the
/// `net.*` obs counters when collection is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the transport (pushes, beats, replies).
    pub sends: u64,
    /// Messages actually delivered to a mailbox.
    pub delivered: u64,
    /// Dropped by link loss.
    pub drops_loss: u64,
    /// Dropped on a severed path (crash or partition), at send or
    /// delivery time.
    pub drops_cut: u64,
    /// Manifest-push retransmissions.
    pub retries: u64,
    /// Retry budgets exhausted (each declares the node failed).
    pub timeouts: u64,
    /// Stale pushes fenced off by nodes.
    pub stale_epoch_rejects: u64,
    /// Heartbeats delivered to the controller.
    pub heartbeats: u64,
    /// Manifest installs across all nodes.
    pub installs: u64,
    /// Declared-failed nodes that proved liveness again.
    pub recoveries: u64,
    /// Greedy repairs adopted as epochs.
    pub repairs: u64,
    /// Repair candidates the validation gate refused.
    pub repairs_rejected: u64,
    /// LP follow-up re-optimizations adopted as epochs.
    pub lp_followups: u64,
    /// LP follow-ups that failed to solve.
    pub lp_failures: u64,
    /// Alert-report messages handed to the transport.
    pub alert_sends: u64,
    /// Alert-report messages delivered to the controller.
    pub alert_delivered: u64,
    /// Alert-report messages lost (link loss, or a severed path at send
    /// or delivery time). Invariant: `alert_sends == alert_delivered +
    /// alert_drops`.
    pub alert_drops: u64,
    /// Sum of the `count` fields of delivered alert reports — alerts the
    /// controller actually learned about.
    pub alerts_forwarded: u64,
}

/// Why the controller declared a node failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionCause {
    /// Heartbeat silence past the miss window + grace.
    MissedHeartbeats,
    /// Manifest push unacked past the retry budget.
    RetryExhausted,
}

/// One failure declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    pub node: NodeId,
    pub declared_at: f64,
    pub cause: DetectionCause,
}

/// Lifecycle of one distributed epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    pub epoch: u64,
    pub created_at: f64,
    /// Nodes the epoch was pushed to (live set at creation).
    pub targets: usize,
    /// Acks received so far.
    pub acked: usize,
    /// Instant the last target acked, if the epoch fully converged.
    pub converged_at: Option<f64>,
}

impl EpochReport {
    /// Creation-to-full-ack latency, if converged.
    pub fn convergence_latency(&self) -> Option<f64> {
        self.converged_at.map(|c| c - self.created_at)
    }
}

/// Control-plane configuration. Times are replay fractions.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub health: HealthConfig,
    /// Maximum manifest-push retransmissions per node per epoch before
    /// the node is declared failed.
    pub retry_budget: u32,
    /// First-attempt push timeout.
    pub backoff_base: f64,
    /// Coverage multiplicity for validation.
    pub redundancy: f64,
    /// Optional capacity ceiling for validation.
    pub max_load: Option<f64>,
    /// Schedule an LP re-optimization one heartbeat after each greedy
    /// repair.
    pub lp_followup: bool,
    /// Forward an [`Msg::AlertReport`] every this-many heartbeats per
    /// node; 0 (the default) disables forwarding. Off by default because
    /// extra messages advance the transport's RNG stream — enabling this
    /// legitimately changes the delivery schedule, so it is only switched
    /// on when the alert plane is (`NWDP_ALERT` set) or by tests.
    pub alert_every: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            health: HealthConfig::default(),
            retry_budget: 3,
            backoff_base: 0.025,
            redundancy: 1.0,
            max_load: None,
            lp_followup: false,
            alert_every: 0,
        }
    }
}

/// Why a cluster run could not start (runtime faults are data, not
/// errors — they are the point).
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    Health(HealthConfigError),
    Validation(ManifestValidationError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Health(e) => write!(f, "health config: {e}"),
            ClusterError::Validation(e) => write!(f, "initial manifest: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Everything one cluster run produced. Plain comparable data: the
/// determinism tests assert whole-run equality.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRun {
    pub stats: NetStats,
    pub detections: Vec<Detection>,
    pub epochs: Vec<EpochReport>,
    /// Ground-truth coverage samples `(t, covered_fraction)` over the
    /// effective network-wide manifest (each node contributes the ranges
    /// of the epoch it actually runs; cut nodes contribute nothing).
    pub coverage: Vec<(f64, f64)>,
    /// Final installed epoch per node.
    pub node_epochs: Vec<u64>,
    /// Install log per node: `(at, epoch)`.
    pub node_installs: Vec<Vec<(f64, u64)>>,
    /// Stale pushes fenced per node.
    pub node_stale_rejects: Vec<u64>,
    /// The controller's final epoch.
    pub final_epoch: u64,
    /// The manifest of the final epoch — what the controller last pushed
    /// (and validated) network-wide.
    pub final_manifest: Arc<SamplingManifest>,
    /// Nodes still declared failed when the run ended (declared nodes
    /// that later proved alive via a heartbeat are not listed).
    pub failed_final: Vec<NodeId>,
    /// FNV fold over every delivered message in processing order — the
    /// delivery schedule's identity for determinism assertions.
    pub fingerprint: u64,
}

impl ClusterRun {
    /// Minimum ground-truth coverage over the run.
    pub fn coverage_floor(&self) -> f64 {
        self.coverage.iter().map(|&(_, c)| c).fold(f64::INFINITY, f64::min)
    }

    /// `(epoch, latency)` for every converged epoch.
    pub fn convergence_latencies(&self) -> Vec<(u64, f64)> {
        self.epochs.iter().filter_map(|r| r.convergence_latency().map(|l| (r.epoch, l))).collect()
    }

    /// First declaration of `node`, if any.
    pub fn detection_of(&self, node: NodeId) -> Option<&Detection> {
        self.detections.iter().find(|d| d.node == node)
    }
}

/// End of the run on the replay clock.
const HORIZON: f64 = 1.0;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, v: u64) -> u64 {
    let mut h = h;
    for byte in v.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fingerprint_msg(h: u64, at: f64, to: &Addr, msg: &Msg) -> u64 {
    let h = fnv(h, at.to_bits());
    let h = fnv(
        h,
        match to {
            Addr::Controller => u64::MAX,
            Addr::Node(n) => n.index() as u64,
        },
    );
    match msg {
        Msg::Heartbeat { from, seq } => fnv(fnv(fnv(h, 1), from.index() as u64), *seq),
        Msg::ManifestPush { epoch, attempt, .. } => fnv(fnv(fnv(h, 2), *epoch), *attempt as u64),
        Msg::InstallAck { from, epoch } => fnv(fnv(fnv(h, 3), from.index() as u64), *epoch),
        Msg::StaleReject { from, pushed, current } => {
            fnv(fnv(fnv(fnv(h, 4), from.index() as u64), *pushed), *current)
        }
        Msg::AlertReport { from, seq, count } => {
            fnv(fnv(fnv(fnv(h, 5), from.index() as u64), *seq), *count)
        }
    }
}

/// Work routed to one node within a same-instant batch.
enum NodeWork {
    Deliver(Msg),
    Beat,
}

/// Effective network-wide manifest: node `j` contributes the entries of
/// the epoch it currently runs. Mixed epochs (mid-convergence) yield
/// exactly the transient gaps/overlaps the coverage timeline should see.
fn effective_manifest(nodes: &[NodeActor], num_nodes: usize) -> SamplingManifest {
    let mut entries = Vec::new();
    for (j, n) in nodes.iter().enumerate() {
        for e in n.manifest.node_entries(NodeId(j)) {
            entries.push((NodeId(j), e.clone()));
        }
    }
    SamplingManifest::from_entries(num_nodes, entries)
}

/// Drive one full cluster run over the fault plan until the horizon.
///
/// The initial manifest must pass [`validate_manifests`]; it boots on
/// every node as epoch 1 (the paper's offline compile-and-distribute
/// step), so the run starts converged and the interesting dynamics are
/// fault-driven re-convergence.
pub fn run_cluster(
    dep: &NidsDeployment,
    manifest: &SamplingManifest,
    caps: &[NodeCaps],
    plan: &FaultPlan,
    cfg: &ClusterConfig,
) -> Result<ClusterRun, ClusterError> {
    let ceiling = cfg.max_load.map(|max_load| CapacityCeiling { caps, max_load });
    validate_manifests(dep, manifest, cfg.redundancy, ceiling.as_ref())
        .map_err(ClusterError::Validation)?;
    cfg.health.validate().map_err(ClusterError::Health)?;

    let initial = Arc::new(manifest.clone());
    let mut tx = Transport::new(plan.clone());
    let mut ctl = Controller::new(dep, caps, initial.clone(), cfg, tx.max_delay(), plan.seed)?;
    let mut nodes: Vec<NodeActor> =
        (0..dep.num_nodes).map(|j| NodeActor::new(NodeId(j), initial.clone())).collect();

    let mut q = EventQueue::new();
    let i = cfg.health.heartbeat_interval;
    for j in 0..dep.num_nodes {
        q.push(i, Timer::NodeBeat { node: NodeId(j) });
    }
    q.push(i, Timer::HealthSweep);
    // Ground-truth sample points at every plan boundary, so the coverage
    // timeline cannot miss a blind window narrower than the beat grid.
    for &(_, at) in &plan.crashes {
        if at <= HORIZON {
            q.push(at, Timer::Sample);
        }
    }
    for p in &plan.partitions {
        for at in [p.from, p.until] {
            if at <= HORIZON {
                q.push(at, Timer::Sample);
            }
        }
    }

    let mut stats = NetStats::default();
    let mut fingerprint = FNV_OFFSET;
    let mut coverage: Vec<(f64, f64)> = Vec::new();

    let sample = |t: f64, nodes: &[NodeActor], tx: &Transport| {
        let blind: Vec<NodeId> = (0..dep.num_nodes).map(NodeId).filter(|&n| tx.cut(n, t)).collect();
        let eff = effective_manifest(nodes, dep.num_nodes);
        1.0 - manifest_gap_fraction(dep, &eff, &blind)
    };
    coverage.push((0.0, sample(0.0, &nodes, &tx)));

    while let Some((t, batch)) = q.pop_batch() {
        if t > HORIZON {
            break;
        }
        // Split the same-instant batch into per-node work (mailbox
        // deliveries and beat timers) and controller events. Delivery-time
        // severance is re-checked here — a push in flight when its target
        // crashed or partitioned must not land.
        let mut node_work: Vec<Vec<NodeWork>> = (0..dep.num_nodes).map(|_| Vec::new()).collect();
        let mut ctl_events: Vec<Timer> = Vec::new();
        let mut resample = false;
        for ev in batch {
            match ev {
                Timer::Deliver { to: Addr::Node(n), msg } => {
                    if tx.cut(n, t) {
                        stats.drops_cut += 1;
                    } else {
                        fingerprint = fingerprint_msg(fingerprint, t, &Addr::Node(n), &msg);
                        stats.delivered += 1;
                        node_work[n.index()].push(NodeWork::Deliver(msg));
                    }
                }
                Timer::NodeBeat { node } => {
                    node_work[node.index()].push(NodeWork::Beat);
                    q.push(t + i, Timer::NodeBeat { node });
                }
                Timer::Deliver { to: Addr::Controller, msg } => {
                    // Delivery-time severance: a beat or alert report in
                    // flight when its origin was cut must not land.
                    if let Msg::Heartbeat { from, .. } | Msg::AlertReport { from, .. } = &msg {
                        if tx.cut(*from, t) {
                            stats.drops_cut += 1;
                            if matches!(msg, Msg::AlertReport { .. }) {
                                stats.alert_drops += 1;
                            }
                            continue;
                        }
                    }
                    fingerprint = fingerprint_msg(fingerprint, t, &Addr::Controller, &msg);
                    stats.delivered += 1;
                    if matches!(msg, Msg::AlertReport { .. }) {
                        stats.alert_delivered += 1;
                    }
                    ctl_events.push(Timer::Deliver { to: Addr::Controller, msg });
                }
                other => ctl_events.push(other),
            }
        }

        // Node turns, in ascending node order: each node drains its work
        // in batch order, and its replies go out as it produces them.
        for (node, work) in nodes.iter_mut().zip(node_work) {
            for w in work {
                match w {
                    NodeWork::Deliver(msg) => {
                        let installs = stats.installs;
                        if let Some(reply) = node.on_msg(msg, t, &mut stats) {
                            post(node.id, Addr::Controller, reply, t, &mut q, &mut tx, &mut stats);
                        }
                        resample |= stats.installs > installs;
                    }
                    NodeWork::Beat => {
                        let beat = node.beat();
                        post(node.id, Addr::Controller, beat, t, &mut q, &mut tx, &mut stats);
                        if cfg.alert_every > 0 && node.beat_seq.is_multiple_of(cfg.alert_every) {
                            let report = node.alert_report();
                            post(node.id, Addr::Controller, report, t, &mut q, &mut tx, &mut stats);
                        }
                    }
                }
            }
        }

        // Controller turn, in batch order.
        for ev in ctl_events {
            match ev {
                Timer::Deliver { msg, .. } => ctl.on_msg(msg, t, &mut q, &mut tx, &mut stats),
                Timer::HealthSweep => {
                    ctl.on_sweep(t, &mut q, &mut tx, &mut stats);
                    q.push(t + i, Timer::HealthSweep);
                    resample = true;
                }
                Timer::RetryCheck { node, epoch, attempt } => {
                    ctl.on_retry_check(node, epoch, attempt, t, &mut q, &mut tx, &mut stats);
                }
                Timer::LpFollowup { after_epoch } => {
                    ctl.on_lp_followup(after_epoch, t, &mut q, &mut tx, &mut stats);
                }
                Timer::Sample => resample = true,
                Timer::NodeBeat { .. } => unreachable!("node timers never route to the controller"),
            }
        }

        if resample {
            coverage.push((t, sample(t, &nodes, &tx)));
        }
    }
    coverage.push((HORIZON, sample(HORIZON, &nodes, &tx)));

    let node_epochs: Vec<u64> = nodes.iter().map(|n| n.epoch).collect();
    let node_installs: Vec<Vec<(f64, u64)>> = nodes.iter().map(|n| n.installs.clone()).collect();
    let node_stale_rejects: Vec<u64> = nodes.iter().map(|n| n.stale_epoch_rejects).collect();

    let run = ClusterRun {
        stats,
        detections: ctl.detections.clone(),
        epochs: ctl.epochs.clone(),
        coverage,
        node_epochs,
        node_installs,
        node_stale_rejects,
        final_epoch: ctl.epoch,
        final_manifest: ctl.manifest.clone(),
        failed_final: ctl.declared_nodes(),
        fingerprint,
    };
    export_metrics(&run);
    Ok(run)
}

/// Hand `msg` for `to` to the transport on the controller ↔ `link` path
/// at `t`, counting the send and any drop.
fn post(
    link: NodeId,
    to: Addr,
    msg: Msg,
    t: f64,
    q: &mut EventQueue,
    tx: &mut Transport,
    stats: &mut NetStats,
) {
    let is_alert = matches!(msg, Msg::AlertReport { .. });
    stats.sends += 1;
    stats.alert_sends += u64::from(is_alert);
    match tx.send(link, t) {
        SendOutcome::Delivered { at } => {
            q.push(at, Timer::Deliver { to, msg });
            return;
        }
        SendOutcome::DroppedLoss => stats.drops_loss += 1,
        SendOutcome::DroppedCut => stats.drops_cut += 1,
    }
    stats.alert_drops += u64::from(is_alert);
}

/// Mirror a finished run into `net.*` counters and series.
fn export_metrics(run: &ClusterRun) {
    if !obs::enabled() {
        return;
    }
    let s = obs::Scope::new("net");
    s.counter("sends").add(run.stats.sends);
    s.counter("delivered").add(run.stats.delivered);
    s.counter("drops_loss").add(run.stats.drops_loss);
    s.counter("drops_cut").add(run.stats.drops_cut);
    s.counter("retries").add(run.stats.retries);
    s.counter("timeouts").add(run.stats.timeouts);
    s.counter("stale_epoch_rejects").add(run.stats.stale_epoch_rejects);
    s.counter("heartbeats").add(run.stats.heartbeats);
    s.counter("installs").add(run.stats.installs);
    s.counter("recoveries").add(run.stats.recoveries);
    s.counter("repairs").add(run.stats.repairs);
    s.counter("repairs_rejected").add(run.stats.repairs_rejected);
    s.counter("lp_followups").add(run.stats.lp_followups);
    // Alert forwarding is opt-in (`ClusterConfig::alert_every`); only
    // export its counters when it actually ran, so the metrics document
    // is unchanged for runs with forwarding off.
    if run.stats.alert_sends > 0 {
        s.counter("alert_sends").add(run.stats.alert_sends);
        s.counter("alert_delivered").add(run.stats.alert_delivered);
        s.counter("alert_drops").add(run.stats.alert_drops);
        s.counter("alerts_forwarded").add(run.stats.alerts_forwarded);
    }
    s.gauge("final_epoch").set(run.final_epoch as f64);
    for r in &run.epochs {
        if let Some(latency) = r.convergence_latency() {
            obs::record_series("net.convergence", r.created_at, latency);
        }
    }
    for &(t, c) in &run.coverage {
        obs::record_series("net.coverage", t, c);
    }
}
