//! Deterministic fault injection for packet streams.
//!
//! Real capture points drop, duplicate, and reorder packets. The injector
//! transforms a session's packet sequence deterministically per session id,
//! so every node observing the same session sees the *same* degraded
//! stream — which is what end-to-end loss looks like, and what the
//! coordinated-equals-standalone equivalence property must survive.

use crate::session::{Packet, Session};
use nwdp_topo::NodeId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A whole-node observation outage: `node` sees *nothing* over the
/// half-open replay-fraction window `[from, until)`. Unlike the per-packet
/// faults — which every on-path observer sees identically — a blackout is
/// a property of one capture point: the packets still flow, but this node
/// is not watching. This is the traffic-layer view of a node crash
/// (`until = 1.0`) or partition used by the resilience tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeBlackout {
    pub node: NodeId,
    /// Start of the outage, as a fraction of the replay (`session.id /
    /// total sessions`).
    pub from: f64,
    /// End of the outage (exclusive); `1.0` means it never ends.
    pub until: f64,
}

/// Fault injection configuration (probabilities per packet, plus an
/// optional node blackout).
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector {
    pub drop_p: f64,
    pub dup_p: f64,
    /// Probability that a packet is swapped with its successor.
    pub reorder_p: f64,
    pub seed: u64,
    /// Optional whole-node outage (see [`NodeBlackout`]).
    pub blackout: Option<NodeBlackout>,
}

impl FaultInjector {
    pub fn new(drop_p: f64, dup_p: f64, reorder_p: f64, seed: u64) -> Self {
        for p in [drop_p, dup_p, reorder_p] {
            assert!((0.0..=1.0).contains(&p), "probability out of range");
        }
        FaultInjector { drop_p, dup_p, reorder_p, seed, blackout: None }
    }

    /// No faults (identity transform).
    pub fn none() -> Self {
        FaultInjector { drop_p: 0.0, dup_p: 0.0, reorder_p: 0.0, seed: 0, blackout: None }
    }

    /// A pure node blackout (no packet-level faults).
    pub fn node_blackout(node: NodeId, from: f64, until: f64) -> Self {
        assert!((0.0..=1.0).contains(&from) && from <= until, "blackout window out of order");
        FaultInjector { blackout: Some(NodeBlackout { node, from, until }), ..Self::none() }
    }

    /// Does `node` observe anything at replay fraction `now`? `false`
    /// exactly inside the blackout window of a blacked-out node; the
    /// caller skips the whole session for that observer.
    pub fn observes(&self, node: NodeId, now: f64) -> bool {
        match self.blackout {
            Some(b) => node != b.node || now < b.from || now >= b.until,
            None => true,
        }
    }

    /// Apply the faults to a session's packets. Deterministic in
    /// `(self.seed, session.id)`.
    pub fn apply<'a>(&self, session: &Session, packets: Vec<Packet<'a>>) -> Vec<Packet<'a>> {
        if self.drop_p == 0.0 && self.dup_p == 0.0 && self.reorder_p == 0.0 {
            return packets;
        }
        let mut out = Vec::with_capacity(packets.len() + 2);
        self.apply_into(session, &packets, &mut out);
        out
    }

    /// Buffer-reuse variant of [`FaultInjector::apply`]: the degraded
    /// stream is written into `out` (cleared first), so a caller replaying
    /// many sessions allocates no per-session `Vec`. Identical RNG
    /// discipline to `apply` — both consume the same draws in the same
    /// order, so they produce the same degraded stream.
    pub fn apply_into<'a>(
        &self,
        session: &Session,
        packets: &[Packet<'a>],
        out: &mut Vec<Packet<'a>>,
    ) {
        out.clear();
        if self.drop_p == 0.0 && self.dup_p == 0.0 && self.reorder_p == 0.0 {
            out.extend_from_slice(packets);
            return;
        }
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ session.id.wrapping_mul(0x9e3779b97f4a7c15));
        for pkt in packets {
            if rng.random_bool(self.drop_p) {
                continue;
            }
            out.push(*pkt);
            if rng.random_bool(self.dup_p) {
                out.push(*pkt);
            }
        }
        // Adjacent swaps.
        if self.reorder_p > 0.0 && out.len() >= 2 {
            for i in 0..out.len() - 1 {
                if rng.random_bool(self.reorder_p) {
                    out.swap(i, i + 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AppProtocol;
    use crate::session::SessionKind;
    use nwdp_hash::FiveTuple;
    use nwdp_topo::NodeId;

    fn session(id: u64) -> Session {
        Session {
            id,
            tuple: FiveTuple::new(0x0a000001, 0x0a010001, 40000, 80, 6),
            kind: SessionKind::Normal(AppProtocol::Http),
            src_node: NodeId(0),
            dst_node: NodeId(1),
            exchanges: 2,
        }
    }

    #[test]
    fn identity_when_disabled() {
        let s = session(1);
        let pkts = s.packets();
        let out = FaultInjector::none().apply(&s, s.packets());
        assert_eq!(out.len(), pkts.len());
    }

    #[test]
    fn deterministic_per_session() {
        let s = session(7);
        let f = FaultInjector::new(0.2, 0.1, 0.1, 99);
        let a = f.apply(&s, s.packets());
        let b = f.apply(&s, s.packets());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tuple, y.tuple);
            assert_eq!(x.size, y.size);
        }
        // Different sessions get different fault patterns (almost surely
        // over many sessions).
        let lens: std::collections::HashSet<usize> =
            (0..64).map(|i| f.apply(&session(i), session(i).packets()).len()).collect();
        assert!(lens.len() > 1, "faults should vary across sessions");
    }

    #[test]
    fn drop_rate_roughly_respected() {
        let f = FaultInjector::new(0.3, 0.0, 0.0, 5);
        let mut kept = 0usize;
        let mut total = 0usize;
        for i in 0..500 {
            let s = session(i);
            total += s.packets().len();
            kept += f.apply(&s, s.packets()).len();
        }
        let rate = 1.0 - kept as f64 / total as f64;
        assert!((rate - 0.3).abs() < 0.05, "observed drop rate {rate}");
    }

    #[test]
    fn blackout_blinds_one_node_for_its_window() {
        let f = FaultInjector::node_blackout(NodeId(2), 0.25, 0.75);
        let s = session(9);
        // The blacked-out node sees nothing inside the window...
        assert!(!f.observes(NodeId(2), 0.5));
        assert!(!f.observes(NodeId(2), 0.25));
        assert!(!f.observes(NodeId(2), 0.74999));
        // ...and everything outside it; other nodes are untouched.
        assert!(f.observes(NodeId(2), 0.2));
        assert!(f.observes(NodeId(2), 0.75));
        assert!(f.observes(NodeId(1), 0.5));
        assert_eq!(f.apply(&s, s.packets()).len(), s.packets().len());
        // Packet-level faults still compose with the blackout for
        // sighted observers.
        let mut g = FaultInjector::new(1.0, 0.0, 0.0, 1);
        g.blackout = Some(NodeBlackout { node: NodeId(2), from: 0.0, until: 1.0 });
        assert!(g.observes(NodeId(1), 0.5));
        assert!(g.apply(&s, s.packets()).is_empty(), "all dropped");
    }

    #[test]
    fn apply_into_matches_apply_exactly() {
        let f = FaultInjector::new(0.2, 0.15, 0.1, 99);
        let mut buf = Vec::new();
        for i in 0..128 {
            let s = session(i);
            let fresh = f.apply(&s, s.packets());
            f.apply_into(&s, &s.packets(), &mut buf); // clears previous contents
            assert_eq!(buf.len(), fresh.len(), "session {i}");
            for (a, b) in buf.iter().zip(&fresh) {
                assert_eq!(a.tuple, b.tuple);
                assert_eq!(a.size, b.size);
                assert_eq!(a.payload, b.payload);
            }
        }
    }

    #[test]
    fn duplicates_increase_count() {
        let f = FaultInjector::new(0.0, 0.5, 0.0, 5);
        let s = session(3);
        let out = f.apply(&s, s.packets());
        assert!(out.len() > s.packets().len());
    }
}
