//! Heartbeat-based failure detection.
//!
//! Two detection models live here:
//!
//! - [`HealthConfig::detect_at`] — the closed-form *grid prediction*:
//!   given a failure instant, where on the beat grid the controller
//!   *would* notice it. Pure arithmetic, used by the engine's epoch
//!   planner (`plan_manifest_epochs`) and as the reference the
//!   distributed cluster is measured against.
//! - [`HeartbeatMonitor`] — the *message-event* model: the controller
//!   feeds it actual heartbeat **arrivals** (which a lossy transport may
//!   have dropped, delayed, or reordered) and sweeps it on the beat grid;
//!   a node is declared failed after `miss_threshold` intervals with no
//!   arrival, plus a `grace` allowance for transport delay. This is what
//!   the `nwdp-engine::cluster` control plane runs.
//!
//! Between the failure instant and the detection instant the network is
//! **blind** on the failed node's hash ranges — no survivor knows to pick
//! them up.
//!
//! All times are replay fractions, matching the scenario clock.

use nwdp_topo::NodeId;

/// Why a [`HealthConfig`] is unusable. The cluster controller and the
/// heartbeat monitor check their config with [`HealthConfig::validate`],
/// so a bad value is a typed error to report, never a panic inside
/// `detect_at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthConfigError {
    /// `heartbeat_interval` must be positive (and finite).
    NonPositiveInterval(f64),
    /// `miss_threshold == 0` would declare every node dead instantly.
    ZeroMissThreshold,
}

impl std::fmt::Display for HealthConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthConfigError::NonPositiveInterval(i) => {
                write!(f, "non-positive interval: heartbeat_interval {i} must be > 0 and finite")
            }
            HealthConfigError::ZeroMissThreshold => {
                write!(f, "miss_threshold == 0: at least one missed beat is needed to detect")
            }
        }
    }
}

impl std::error::Error for HealthConfigError {}

/// Heartbeat/health-check configuration. All times are replay fractions;
/// beats fire at `k · heartbeat_interval` for `k = 1, 2, …`.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Spacing of heartbeats.
    pub heartbeat_interval: f64,
    /// Consecutive missed beats before the node is declared failed.
    pub miss_threshold: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig { heartbeat_interval: 0.02, miss_threshold: 2 }
    }
}

impl HealthConfig {
    /// Check the config without consuming it. [`detect_at`] and the
    /// monitor assume a validated config; controllers call this once at
    /// construction and propagate the error.
    ///
    /// [`detect_at`]: HealthConfig::detect_at
    pub fn validate(&self) -> Result<(), HealthConfigError> {
        if self.heartbeat_interval <= 0.0 || !self.heartbeat_interval.is_finite() {
            return Err(HealthConfigError::NonPositiveInterval(self.heartbeat_interval));
        }
        if self.miss_threshold == 0 {
            return Err(HealthConfigError::ZeroMissThreshold);
        }
        Ok(())
    }

    /// When is a failure at replay fraction `fail_at` detected? The first
    /// missed beat is the first grid point at or after the failure; the
    /// node is declared dead `miss_threshold - 1` beats later.
    ///
    /// Assumes a config that passed [`validate`](HealthConfig::validate);
    /// on an invalid one the arithmetic yields non-finite garbage rather
    /// than panicking (callers gate at construction).
    pub fn detect_at(&self, fail_at: f64) -> f64 {
        let i = self.heartbeat_interval;
        let first_missed = (fail_at / i).ceil() * i;
        first_missed + self.miss_threshold.saturating_sub(1) as f64 * i
    }

    /// Worst-case detection delay (failure lands just after a beat).
    pub fn max_detection_delay(&self) -> f64 {
        self.heartbeat_interval * self.miss_threshold as f64
    }
}

/// Controller-side failure detection from **actually observed** heartbeat
/// arrivals, replacing the closed-form grid of [`HealthConfig::detect_at`]
/// with message events: [`on_heartbeat`] records an arrival (whenever the
/// transport delivered it), [`sweep`] — called on the beat grid — declares
/// every node whose last arrival is older than
/// `miss_threshold · heartbeat_interval + grace` failed.
///
/// `grace` absorbs transport delay: a beat emitted on the grid may
/// legitimately arrive up to the link's maximum delay later, and without
/// the allowance every slow (not lost) beat would count as missed. A
/// heartbeat from a declared-failed node clears the declaration (the node
/// healed or was falsely suspected under loss) and reports the recovery
/// to the caller.
///
/// [`on_heartbeat`]: HeartbeatMonitor::on_heartbeat
/// [`sweep`]: HeartbeatMonitor::sweep
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    cfg: HealthConfig,
    grace: f64,
    /// Last observed arrival per node; primed with the start instant so a
    /// node that never beats at all is still detected `deadline` later.
    last_seen: Vec<f64>,
    /// Declared-failed instant, `None` while considered alive.
    failed: Vec<Option<f64>>,
}

impl HeartbeatMonitor {
    /// `grace` is the transport-delay allowance (≥ 0, typically the
    /// fault plan's maximum link delay); `start` primes every node's
    /// last-seen clock.
    pub fn new(
        cfg: HealthConfig,
        num_nodes: usize,
        grace: f64,
        start: f64,
    ) -> Result<Self, HealthConfigError> {
        cfg.validate()?;
        let grace = if grace.is_finite() { grace.max(0.0) } else { 0.0 };
        Ok(HeartbeatMonitor {
            cfg,
            grace,
            last_seen: vec![start; num_nodes],
            failed: vec![None; num_nodes],
        })
    }

    /// Silence longer than this declares a node failed.
    pub fn deadline(&self) -> f64 {
        self.cfg.miss_threshold as f64 * self.cfg.heartbeat_interval + self.grace
    }

    /// Record a heartbeat arrival. Returns `true` when the node was
    /// declared failed and is now considered recovered.
    pub fn on_heartbeat(&mut self, node: NodeId, now: f64) -> bool {
        let j = node.index();
        if self.last_seen[j] < now {
            self.last_seen[j] = now;
        }
        self.failed[j].take().is_some()
    }

    /// Grid sweep: declare every silent-past-deadline node failed and
    /// return the **newly** declared ones (ascending node id). Nodes
    /// already declared stay declared until a heartbeat arrives.
    pub fn sweep(&mut self, now: f64) -> Vec<NodeId> {
        let deadline = self.deadline();
        let mut newly = Vec::new();
        for j in 0..self.last_seen.len() {
            if self.failed[j].is_none() && now - self.last_seen[j] > deadline {
                self.failed[j] = Some(now);
                newly.push(NodeId(j));
            }
        }
        newly
    }

    /// Is the node currently declared failed?
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed[node.index()].is_some()
    }

    /// When the node was declared failed, if it currently is.
    pub fn failed_at(&self, node: NodeId) -> Option<f64> {
        self.failed[node.index()]
    }

    /// All currently declared-failed nodes, ascending.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        (0..self.failed.len()).filter(|&j| self.failed[j].is_some()).map(NodeId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_grid_arithmetic() {
        let h = HealthConfig { heartbeat_interval: 0.1, miss_threshold: 3 };
        // Failure right on a beat: that beat is missed.
        assert!((h.detect_at(0.2) - 0.4).abs() < 1e-12);
        // Failure just after a beat waits almost a full extra interval.
        let d = h.detect_at(0.201);
        assert!((d - 0.5).abs() < 1e-12, "{d}");
        assert!((h.max_detection_delay() - 0.3).abs() < 1e-12);
        // Delay is always within (0, max].
        for k in 0..50 {
            let t = k as f64 * 0.013;
            let delay = h.detect_at(t) - t;
            assert!(delay > 0.0 - 1e-12 && delay <= h.max_detection_delay() + 1e-12, "{delay}");
        }
    }

    #[test]
    fn validation_rejects_non_positive_interval() {
        for bad in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let err =
                HealthConfig { heartbeat_interval: bad, miss_threshold: 2 }.validate().unwrap_err();
            assert!(
                matches!(err, HealthConfigError::NonPositiveInterval(_)),
                "interval {bad} gave {err:?}"
            );
        }
        // Display names the field so diagnostics read well.
        let err =
            HealthConfig { heartbeat_interval: -1.0, miss_threshold: 2 }.validate().unwrap_err();
        assert_eq!(err, HealthConfigError::NonPositiveInterval(-1.0));
        assert!(format!("{err}").contains("non-positive interval"));
    }

    #[test]
    fn validation_rejects_zero_miss_threshold() {
        let err =
            HealthConfig { heartbeat_interval: 0.02, miss_threshold: 0 }.validate().unwrap_err();
        assert_eq!(err, HealthConfigError::ZeroMissThreshold);
        assert!(format!("{err}").contains("miss_threshold == 0"));
        assert!(HealthConfig { heartbeat_interval: 0.02, miss_threshold: 1 }.validate().is_ok());
        assert!(HealthConfig::default().validate().is_ok());
    }

    #[test]
    fn monitor_keeps_beating_nodes_alive() {
        let cfg = HealthConfig { heartbeat_interval: 0.1, miss_threshold: 2 };
        let mut m = HeartbeatMonitor::new(cfg, 3, 0.01, 0.0).unwrap();
        // Beats arrive slightly late (transport delay) but within grace.
        for k in 1..=8 {
            let t = k as f64 * 0.1;
            for j in 0..3 {
                m.on_heartbeat(NodeId(j), t + 0.005);
            }
            assert!(m.sweep(t).is_empty(), "false detection at sweep {t}");
        }
        assert!(m.failed_nodes().is_empty());
    }

    #[test]
    fn monitor_declares_silent_node_within_deadline() {
        let cfg = HealthConfig { heartbeat_interval: 0.1, miss_threshold: 2 };
        let mut m = HeartbeatMonitor::new(cfg, 2, 0.0, 0.0).unwrap();
        // Node 0 beats until 0.3 then goes silent; node 1 keeps beating.
        for k in 1..=3 {
            m.on_heartbeat(NodeId(0), k as f64 * 0.1);
        }
        let mut declared = None;
        for k in 1..=10 {
            let t = k as f64 * 0.1;
            m.on_heartbeat(NodeId(1), t);
            let newly = m.sweep(t);
            if !newly.is_empty() {
                assert_eq!(newly, vec![NodeId(0)]);
                declared = Some(t);
                break;
            }
        }
        // Silence starts at 0.3, deadline 0.2 → first strict excess at 0.6.
        let at = declared.expect("silent node never declared");
        assert!((at - 0.6).abs() < 1e-12, "{at}");
        assert!(m.is_failed(NodeId(0)));
        assert!((m.failed_at(NodeId(0)).unwrap() - at).abs() < 1e-12);
        assert!(!m.is_failed(NodeId(1)));
        assert_eq!(m.failed_nodes(), vec![NodeId(0)]);
        // Already-declared nodes are not re-reported on later sweeps.
        assert!(m.sweep(0.7).is_empty());
    }

    #[test]
    fn monitor_recovery_clears_the_declaration() {
        let cfg = HealthConfig { heartbeat_interval: 0.1, miss_threshold: 1 };
        let mut m = HeartbeatMonitor::new(cfg, 1, 0.0, 0.0).unwrap();
        assert_eq!(m.sweep(0.2), vec![NodeId(0)]);
        // The late heartbeat reports the recovery exactly once.
        assert!(m.on_heartbeat(NodeId(0), 0.25));
        assert!(!m.is_failed(NodeId(0)));
        assert!(!m.on_heartbeat(NodeId(0), 0.3));
        // An out-of-order (older) arrival never rewinds last-seen.
        m.on_heartbeat(NodeId(0), 0.1);
        assert!(m.sweep(0.35).is_empty());
    }

    #[test]
    fn monitor_rejects_invalid_config() {
        let cfg = HealthConfig { heartbeat_interval: 0.0, ..HealthConfig::default() };
        assert!(matches!(
            HeartbeatMonitor::new(cfg, 4, 0.0, 0.0),
            Err(HealthConfigError::NonPositiveInterval(_))
        ));
    }
}
