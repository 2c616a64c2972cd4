//! Node-level failure scenarios and deterministic injection schedules.
//!
//! The paper's deployment model partitions coverage across on-path nodes,
//! so a *node* failure — not just a lossy capture point — silently opens a
//! gap in every hash range the node owned. This module describes the three
//! failure modes the resilience layer handles and provides a seeded
//! schedule generator so tests and the `repro resilience` harness inject
//! the exact same failures on every run.
//!
//! Time is measured in **replay fractions**: `0.0` is the first session of
//! a trace replay, `1.0` the end. The engine's resilient runner and the
//! detection-window accounting both use this clock, which keeps the whole
//! pipeline independent of wall-clock speed.

use nwdp_topo::NodeId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// What went wrong with a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureKind {
    /// The node's monitor dies permanently: it observes nothing from the
    /// failure on and its responsibilities must move to survivors.
    Crash,
    /// The node is unreachable (heartbeats and observations lost) until
    /// the given replay fraction, then returns with its state intact.
    Partition { until: f64 },
    /// The node stays up but its effective capacity is multiplied by
    /// `factor < 1` (throttling, partial hardware failure, co-located
    /// load). Handled by graceful degradation, not repair.
    CapacityDegraded { factor: f64 },
}

/// One failure event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureScenario {
    pub node: NodeId,
    /// Replay fraction at which the failure strikes.
    pub at: f64,
    pub kind: FailureKind,
}

impl FailureScenario {
    /// Is the node blind (observing nothing) at replay fraction `now`?
    pub fn blind_at(&self, now: f64) -> bool {
        match self.kind {
            FailureKind::Crash => now >= self.at,
            FailureKind::Partition { until } => now >= self.at && now < until,
            FailureKind::CapacityDegraded { .. } => false,
        }
    }
}

/// A deterministic set of failure events over one replay.
#[derive(Debug, Clone, Default)]
pub struct FailureSchedule {
    pub events: Vec<FailureScenario>,
}

impl FailureSchedule {
    /// A single permanent crash.
    pub fn single_crash(node: NodeId, at: f64) -> Self {
        FailureSchedule { events: vec![FailureScenario { node, at, kind: FailureKind::Crash }] }
    }

    /// Seeded random schedule: `events` failures over `num_nodes` nodes
    /// with a fixed kind mix (half crashes, a quarter healing partitions,
    /// a quarter capacity degradations). Deterministic in `seed`.
    pub fn random(num_nodes: usize, events: usize, seed: u64) -> Self {
        assert!(num_nodes > 0, "schedule needs at least one node");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x05ca_1ab1_e0dd_ba11);
        let mut out = Vec::with_capacity(events);
        for _ in 0..events {
            let node = NodeId(rng.random_range(0..num_nodes));
            let at: f64 = rng.random_range(0.0..0.9);
            let kind = match rng.random_range(0u32..4) {
                0 | 1 => FailureKind::Crash,
                2 => FailureKind::Partition { until: at + rng.random_range(0.05..(1.0 - at)) },
                _ => FailureKind::CapacityDegraded { factor: rng.random_range(0.2..0.9) },
            };
            out.push(FailureScenario { node, at, kind });
        }
        out.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.node.cmp(&b.node)));
        FailureSchedule { events: out }
    }

    /// Nodes blind (crashed or partitioned away) at replay fraction `now`,
    /// deduplicated and sorted.
    pub fn blind_nodes(&self, now: f64) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> =
            self.events.iter().filter(|e| e.blind_at(now)).map(|e| e.node).collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Effective capacity multiplier for `node` at replay fraction `now`
    /// (1.0 when undegraded; the worst active degradation otherwise).
    pub fn capacity_factor(&self, node: NodeId, now: f64) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FailureKind::CapacityDegraded { factor } if e.node == node && now >= e.at => {
                    Some(factor)
                }
                _ => None,
            })
            .fold(1.0, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_schedule_is_deterministic_and_sorted() {
        let a = FailureSchedule::random(11, 16, 42);
        let b = FailureSchedule::random(11, 16, 42);
        assert_eq!(a.events, b.events);
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
        let c = FailureSchedule::random(11, 16, 43);
        assert_ne!(a.events, c.events, "different seeds differ");
        // All three kinds appear in a schedule this size.
        assert!(a.events.iter().any(|e| matches!(e.kind, FailureKind::Crash)));
        assert!(a.events.iter().any(|e| matches!(e.kind, FailureKind::Partition { .. })));
        assert!(a.events.iter().any(|e| matches!(e.kind, FailureKind::CapacityDegraded { .. })));
    }

    #[test]
    fn blindness_windows() {
        let sched = FailureSchedule {
            events: vec![
                FailureScenario { node: NodeId(1), at: 0.2, kind: FailureKind::Crash },
                FailureScenario {
                    node: NodeId(2),
                    at: 0.3,
                    kind: FailureKind::Partition { until: 0.5 },
                },
                FailureScenario {
                    node: NodeId(3),
                    at: 0.1,
                    kind: FailureKind::CapacityDegraded { factor: 0.5 },
                },
            ],
        };
        assert!(sched.blind_nodes(0.0).is_empty());
        assert_eq!(sched.blind_nodes(0.25), vec![NodeId(1)]);
        assert_eq!(sched.blind_nodes(0.4), vec![NodeId(1), NodeId(2)]);
        // The partition heals; the crash does not.
        assert_eq!(sched.blind_nodes(0.9), vec![NodeId(1)]);
        // Degradation never blinds, but scales capacity.
        assert_eq!(sched.capacity_factor(NodeId(3), 0.05), 1.0);
        assert_eq!(sched.capacity_factor(NodeId(3), 0.5), 0.5);
        assert_eq!(sched.capacity_factor(NodeId(1), 0.5), 1.0);
    }
}
