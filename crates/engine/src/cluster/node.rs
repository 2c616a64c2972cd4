//! The per-node actor: a mailbox state machine with epoch-fenced
//! manifest installs.
//!
//! A node is deliberately dumb — the paper's whole point is that nodes
//! never coordinate at runtime. All it does is (a) beat on the heartbeat
//! grid and (b) install epoch-numbered manifests, rejecting anything
//! stale: a delayed or retransmitted duplicate of an already-installed
//! epoch draws a [`Msg::StaleReject`], never a second install, so the
//! sequence of epochs a node runs is strictly increasing no matter how
//! the transport reorders pushes. Nodes mutate only their own state and
//! return their outgoing messages to the driver, which sends them.

use super::{Msg, NetStats};
use nwdp_core::nids::manifest::SamplingManifest;
use nwdp_topo::NodeId;
use std::sync::Arc;

/// One cluster member's control-plane state.
#[derive(Debug, Clone)]
pub struct NodeActor {
    pub id: NodeId,
    /// Epoch of the manifest currently serving. Strictly increasing.
    pub epoch: u64,
    /// The manifest currently serving (last validated install).
    pub manifest: Arc<SamplingManifest>,
    /// Heartbeat sequence counter.
    pub beat_seq: u64,
    /// Alert-report sequence counter.
    pub alert_seq: u64,
    /// Stale pushes this node fenced off.
    pub stale_epoch_rejects: u64,
    /// Install log: `(at, epoch)` in arrival order.
    pub installs: Vec<(f64, u64)>,
}

impl NodeActor {
    /// Boot with the deployment-time manifest pre-installed as epoch 1
    /// (the paper compiles and distributes manifests offline; the cluster
    /// starts converged and re-converges after faults).
    pub fn new(id: NodeId, manifest: Arc<SamplingManifest>) -> Self {
        NodeActor {
            id,
            epoch: 1,
            manifest,
            beat_seq: 0,
            alert_seq: 0,
            stale_epoch_rejects: 0,
            installs: Vec::new(),
        }
    }

    /// Handle one delivered message; the reply (if any) goes back to the
    /// controller. Installs and fenced pushes count in `stats`.
    pub fn on_msg(&mut self, msg: Msg, now: f64, stats: &mut NetStats) -> Option<Msg> {
        match msg {
            Msg::ManifestPush { epoch, manifest, .. } => {
                if epoch > self.epoch {
                    self.epoch = epoch;
                    self.manifest = manifest;
                    self.installs.push((now, epoch));
                    stats.installs += 1;
                    Some(Msg::InstallAck { from: self.id, epoch })
                } else {
                    // Epoch fence: delayed duplicate or reordered older
                    // push. Never installed; the reject tells the
                    // controller what we actually run.
                    self.stale_epoch_rejects += 1;
                    stats.stale_epoch_rejects += 1;
                    Some(Msg::StaleReject { from: self.id, pushed: epoch, current: self.epoch })
                }
            }
            // Control messages addressed to the controller never reach a
            // node; ignore defensively.
            Msg::Heartbeat { .. }
            | Msg::InstallAck { .. }
            | Msg::StaleReject { .. }
            | Msg::AlertReport { .. } => None,
        }
    }

    /// Emit the next heartbeat.
    pub fn beat(&mut self) -> Msg {
        self.beat_seq += 1;
        Msg::Heartbeat { from: self.id, seq: self.beat_seq }
    }

    /// Emit the next batched alert report. The cluster simulation has no
    /// data plane, so `count` is a deterministic stand-in for "alerts
    /// detected since the last report" (`1 + seq mod 3`) — enough to make
    /// the forwarded-alert accounting non-trivial under loss.
    pub fn alert_report(&mut self) -> Msg {
        self.alert_seq += 1;
        Msg::AlertReport { from: self.id, seq: self.alert_seq, count: 1 + self.alert_seq % 3 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_manifest() -> Arc<SamplingManifest> {
        Arc::new(SamplingManifest::from_entries(3, Vec::new()))
    }

    #[test]
    fn fencing_rejects_stale_and_duplicate_epochs() {
        let mut n = NodeActor::new(NodeId(1), empty_manifest());
        let mut stats = NetStats::default();
        let m2 = empty_manifest();
        let push = |e: u64| Msg::ManifestPush { epoch: e, manifest: m2.clone(), attempt: 0 };

        // Fresh epoch installs and acks.
        match n.on_msg(push(2), 0.1, &mut stats) {
            Some(Msg::InstallAck { from, epoch }) => assert_eq!((from, epoch), (NodeId(1), 2)),
            other => panic!("expected ack, got {other:?}"),
        }
        assert_eq!(n.epoch, 2);

        // Delayed duplicate of epoch 2: fenced, reports current epoch.
        match n.on_msg(push(2), 0.2, &mut stats) {
            Some(Msg::StaleReject { pushed: 2, current: 2, .. }) => {}
            other => panic!("expected stale reject, got {other:?}"),
        }
        // Reordered older epoch: also fenced.
        match n.on_msg(push(1), 0.3, &mut stats) {
            Some(Msg::StaleReject { pushed: 1, current: 2, .. }) => {}
            other => panic!("expected stale reject, got {other:?}"),
        }
        assert_eq!(n.stale_epoch_rejects, 2);
        assert_eq!(stats.stale_epoch_rejects, 2);
        assert_eq!(stats.installs, 1);
        // The install log shows exactly one, strictly increasing, install.
        assert_eq!(n.installs, vec![(0.1, 2)]);
    }

    #[test]
    fn beats_carry_increasing_sequence_numbers() {
        let mut n = NodeActor::new(NodeId(4), empty_manifest());
        for want in 1..=5u64 {
            match n.beat() {
                Msg::Heartbeat { from, seq } => assert_eq!((from, seq), (NodeId(4), want)),
                other => panic!("expected heartbeat, got {other:?}"),
            }
        }
    }
}
