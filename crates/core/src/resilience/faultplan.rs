//! Seeded network-fault injection plans for the distributed control
//! plane.
//!
//! A [`FaultPlan`] describes *what the network does to messages* on the
//! replay-fraction clock: per-link loss probability and bounded delay
//! (which reorders messages when delays differ), full partitions over
//! time windows, and hard node crashes. The plan is pure data — the
//! engine's transport consumes it with its own seeded RNG, so the same
//! plan + seed reproduces the same delivery schedule bit for bit.

use nwdp_topo::NodeId;

/// Loss and delay of one (directed or undirected) link. Delay bounds are
/// replay fractions; a beat emitted at `t` arrives in
/// `[t + delay_min, t + delay_max]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Probability each message on the link is dropped, in `[0, 1)`.
    pub drop_p: f64,
    /// Minimum transit delay.
    pub delay_min: f64,
    /// Maximum transit delay (`>= delay_min`). Unequal delays across
    /// messages are exactly what produces reordering.
    pub delay_max: f64,
}

impl LinkFault {
    /// A perfect link: lossless, fixed small delay.
    pub fn ideal() -> Self {
        LinkFault { drop_p: 0.0, delay_min: 0.001, delay_max: 0.001 }
    }

    /// A lossy link with jittered delay.
    pub fn lossy(drop_p: f64, delay_min: f64, delay_max: f64) -> Self {
        LinkFault {
            drop_p: drop_p.clamp(0.0, 0.999),
            delay_min,
            delay_max: delay_max.max(delay_min),
        }
    }
}

impl Default for LinkFault {
    fn default() -> Self {
        LinkFault::ideal()
    }
}

/// A full partition: the listed nodes exchange **no** messages with the
/// controller (or anyone outside the set) during `[from, until)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    pub nodes: Vec<NodeId>,
    pub from: f64,
    pub until: f64,
}

/// A complete fault-injection plan on the replay clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Default link behaviour controller ↔ node.
    pub link: LinkFault,
    /// Per-node overrides of the default link.
    pub overrides: Vec<(NodeId, LinkFault)>,
    /// Partition windows.
    pub partitions: Vec<Partition>,
    /// Hard crashes: `(node, at)` — the node emits and receives nothing
    /// from `at` onward.
    pub crashes: Vec<(NodeId, f64)>,
    /// Seed for the transport's drop/delay draws.
    pub seed: u64,
}

impl FaultPlan {
    /// No faults at all: ideal links, no partitions, no crashes.
    pub fn clean(seed: u64) -> Self {
        FaultPlan {
            link: LinkFault::ideal(),
            overrides: Vec::new(),
            partitions: Vec::new(),
            crashes: Vec::new(),
            seed,
        }
    }

    /// Uniform lossy links, no partitions or crashes.
    pub fn lossy(drop_p: f64, delay_min: f64, delay_max: f64, seed: u64) -> Self {
        FaultPlan { link: LinkFault::lossy(drop_p, delay_min, delay_max), ..FaultPlan::clean(seed) }
    }

    /// Effective link fault for messages to/from `node`.
    pub fn link(&self, node: NodeId) -> LinkFault {
        self.overrides.iter().find(|(n, _)| *n == node).map(|(_, l)| *l).unwrap_or(self.link)
    }

    /// Has `node` hard-crashed by `now`?
    pub fn node_dead(&self, node: NodeId, now: f64) -> bool {
        self.crashes.iter().any(|&(n, at)| n == node && now >= at)
    }

    /// Is `node` inside an active partition window at `now`?
    pub fn partitioned(&self, node: NodeId, now: f64) -> bool {
        self.partitions.iter().any(|p| p.nodes.contains(&node) && now >= p.from && now < p.until)
    }

    /// Is the controller ↔ `node` path severed at `now` (crash or
    /// partition)? Loss still applies on top of this for live paths.
    pub fn cut(&self, node: NodeId, now: f64) -> bool {
        self.node_dead(node, now) || self.partitioned(node, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_tracks_crashes_and_partition_windows() {
        let mut plan = FaultPlan::clean(7);
        plan.crashes.push((NodeId(3), 0.4));
        plan.partitions.push(Partition { nodes: vec![NodeId(7)], from: 0.5, until: 0.75 });

        assert!(!plan.cut(NodeId(3), 0.39));
        assert!(plan.cut(NodeId(3), 0.4));
        assert!(plan.cut(NodeId(3), 0.99), "crashes never heal");

        assert!(!plan.cut(NodeId(7), 0.49));
        assert!(plan.cut(NodeId(7), 0.5));
        assert!(plan.cut(NodeId(7), 0.74));
        assert!(!plan.cut(NodeId(7), 0.75), "partition heals at `until`");

        assert!(!plan.cut(NodeId(1), 0.6));
    }

    #[test]
    fn per_node_override_shadows_the_default_link() {
        let mut plan = FaultPlan::lossy(0.1, 0.001, 0.004, 11);
        plan.overrides.push((NodeId(2), LinkFault::ideal()));
        assert_eq!(plan.link(NodeId(2)), LinkFault::ideal());
        assert!((plan.link(NodeId(5)).drop_p - 0.1).abs() < 1e-12);
        // Degenerate delay bounds are repaired, drop_p clamped below 1.
        let l = LinkFault::lossy(1.5, 0.01, 0.001);
        assert!(l.drop_p < 1.0);
        assert!(l.delay_max >= l.delay_min);
    }
}
