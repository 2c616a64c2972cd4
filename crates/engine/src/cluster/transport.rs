//! The lossy controller ↔ node transport: a seeded `FaultPlan`
//! interpreter.
//!
//! Every message between the controller and a node crosses one logical
//! link whose behaviour the plan dictates: severed entirely while the
//! node is crashed or partitioned, otherwise dropped with the link's loss
//! probability or delivered after a delay drawn from the link's bounds
//! (unequal draws are what reorders messages). All RNG draws happen here,
//! in the driver's deterministic event order, so the delivery schedule is
//! a pure function of `(plan, seed)`.
//!
//! Severance is checked at *send* time here and re-checked at delivery
//! time by the driver (a push launched just before a crash must not
//! install on a dead node); in-flight messages crossing a partition
//! boundary within one delay are treated as lost at whichever end was
//! cut.

use nwdp_core::resilience::FaultPlan;
use nwdp_topo::NodeId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// What the network decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendOutcome {
    /// Arrives at the given instant.
    Delivered { at: f64 },
    /// Dropped by link loss.
    DroppedLoss,
    /// Dropped because the path is severed (crash or partition).
    DroppedCut,
}

/// Seeded per-run transport state.
pub struct Transport {
    plan: FaultPlan,
    rng: StdRng,
}

impl Transport {
    pub fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed ^ 0x7a6e_5000_11d5_c0de);
        Transport { plan, rng }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of one message on the controller ↔ `node` link at
    /// `now`. Exactly one Bernoulli draw per live-path message and one
    /// delay draw per delivered message, in call order — the draw
    /// sequence is part of the determinism contract.
    pub fn send(&mut self, node: NodeId, now: f64) -> SendOutcome {
        if self.plan.cut(node, now) {
            return SendOutcome::DroppedCut;
        }
        let link = self.plan.link(node);
        if self.rng.random_bool(link.drop_p) {
            return SendOutcome::DroppedLoss;
        }
        let delay = if link.delay_max > link.delay_min {
            self.rng.random_range(link.delay_min..link.delay_max)
        } else {
            link.delay_min
        };
        SendOutcome::Delivered { at: now + delay }
    }

    /// Is the path to `node` severed at `now`? Used by the driver for the
    /// delivery-time re-check.
    pub fn cut(&self, node: NodeId, now: f64) -> bool {
        self.plan.cut(node, now)
    }

    /// Largest delay any live link can impose — the heartbeat monitor's
    /// grace allowance.
    pub fn max_delay(&self) -> f64 {
        self.plan
            .overrides
            .iter()
            .map(|(_, l)| l.delay_max)
            .fold(self.plan.link.delay_max, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwdp_core::resilience::faultplan::Partition;

    #[test]
    fn clean_plan_delivers_everything_with_fixed_delay() {
        let mut tx = Transport::new(FaultPlan::clean(3));
        for k in 0..50 {
            let now = k as f64 * 0.01;
            match tx.send(NodeId(k % 5), now) {
                SendOutcome::Delivered { at } => assert!((at - now - 0.001).abs() < 1e-12),
                other => panic!("clean plan dropped a message: {other:?}"),
            }
        }
    }

    #[test]
    fn loss_rate_and_determinism() {
        let plan = FaultPlan::lossy(0.3, 0.001, 0.004, 9);
        let mut a = Transport::new(plan.clone());
        let mut b = Transport::new(plan);
        let mut dropped = 0;
        for k in 0..2000 {
            let now = k as f64 * 1e-4;
            let oa = a.send(NodeId(0), now);
            assert_eq!(oa, b.send(NodeId(0), now), "same seed, same fate");
            match oa {
                SendOutcome::DroppedLoss => dropped += 1,
                SendOutcome::Delivered { at } => {
                    assert!(at - now >= 0.001 - 1e-12 && at - now < 0.004 + 1e-12);
                }
                SendOutcome::DroppedCut => panic!("no cuts in a lossy-only plan"),
            }
        }
        let rate = dropped as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "empirical loss {rate} far from 0.3");
    }

    #[test]
    fn cuts_beat_loss() {
        let mut plan = FaultPlan::clean(1);
        plan.partitions.push(Partition { nodes: vec![NodeId(2)], from: 0.4, until: 0.6 });
        plan.crashes.push((NodeId(1), 0.5));
        let mut tx = Transport::new(plan);
        assert!(matches!(tx.send(NodeId(2), 0.5), SendOutcome::DroppedCut));
        assert!(matches!(tx.send(NodeId(2), 0.7), SendOutcome::Delivered { .. }));
        assert!(matches!(tx.send(NodeId(1), 0.9), SendOutcome::DroppedCut));
        assert!(tx.cut(NodeId(1), 0.9));
        assert!(!tx.cut(NodeId(0), 0.9));
        assert!((tx.max_delay() - 0.001).abs() < 1e-12);
    }
}
