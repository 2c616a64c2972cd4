//! Network-wide trace generation.
//!
//! Reproduces the paper's custom traffic generator (§2.4): given a
//! topology, a traffic matrix, a routing policy, and the mixed traffic
//! profile, it emits a network-wide session trace. Anomalous activity
//! (scans, SYN floods, Blaster propagation, signature-carrying payloads) is
//! injected at configurable rates so that the corresponding NIDS modules
//! have something to detect.
//!
//! Addressing scheme: node `i` owns the prefix `10.i.0.0/16`; hosts are
//! `10.i.h.x` with `h, x` drawn from a small per-node pool. The ingress of
//! a packet is recoverable from its source address via [`node_of_ip`] —
//! this plays the role of the paper's "configuration files that map IP
//! prefixes to their ingress locations".

use crate::matrix::TrafficMatrix;
use crate::profile::TrafficProfile;
use crate::session::{Session, SessionKind};
use nwdp_hash::FiveTuple;
use nwdp_topo::{NodeId, PathDb, Topology};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;

/// Anomaly injection rates.
#[derive(Debug, Clone)]
pub struct AnomalyConfig {
    /// Fraction of sessions that are scan probes (grouped into bursts from
    /// a small set of scanner hosts).
    pub scan_fraction: f64,
    /// Distinct destinations probed per scanner burst.
    pub scan_fanout: usize,
    /// Fraction of sessions that are SYN-flood packets (aimed at one
    /// victim per source node).
    pub synflood_fraction: f64,
    /// Fraction of sessions that are Blaster propagation attempts.
    pub blaster_fraction: f64,
    /// Fraction of benign sessions that carry the generic malware
    /// signature in their payload.
    pub infected_fraction: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            scan_fraction: 0.03,
            scan_fanout: 24,
            synflood_fraction: 0.02,
            blaster_fraction: 0.01,
            infected_fraction: 0.01,
        }
    }
}

impl AnomalyConfig {
    /// No injected anomalies (pure benign workload).
    pub fn none() -> Self {
        AnomalyConfig {
            scan_fraction: 0.0,
            scan_fanout: 0,
            synflood_fraction: 0.0,
            blaster_fraction: 0.0,
            infected_fraction: 0.0,
        }
    }
}

/// Application exchanges per benign session (request/response rounds).
const EXCHANGES: u8 = 2;
/// Host pool size per node (distinct addresses).
const HOSTS_PER_NODE: u16 = 200;

/// Trace generation parameters. Benign sessions follow
/// [`TrafficProfile::mixed`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    pub sessions: usize,
    pub anomalies: AnomalyConfig,
    pub seed: u64,
}

impl TraceConfig {
    pub fn new(sessions: usize, seed: u64) -> Self {
        TraceConfig { sessions, anomalies: AnomalyConfig::default(), seed }
    }
}

/// A generated network-wide trace.
#[derive(Debug, Clone)]
pub struct NetTrace {
    pub sessions: Vec<Session>,
}

/// Node that owns address `ip` under the `10.i.0.0/16` scheme.
pub fn node_of_ip(ip: u32) -> NodeId {
    NodeId(((ip >> 16) & 0xff) as usize)
}

/// Address of host `h` at node `node`.
pub fn host_ip(node: NodeId, h: u16) -> u32 {
    assert!(node.index() < 256, "addressing scheme supports up to 256 nodes");
    (10u32 << 24) | ((node.index() as u32) << 16) | h as u32
}

/// Generate a network-wide session trace.
///
/// This is a materialized [`SessionStream`]: the batch trace and the
/// streaming data plane share one generator implementation, so they can
/// never drift apart.
pub fn generate_trace(topo: &Topology, tm: &TrafficMatrix, cfg: &TraceConfig) -> NetTrace {
    NetTrace { sessions: SessionStream::new(topo, tm, cfg).collect() }
}

/// Pull-based session stream: yields exactly the sessions of
/// [`generate_trace`] — same seed discipline, same RNG consumption order,
/// same sequential ids — one at a time, without materializing a
/// [`NetTrace`].
///
/// Scan bursts are drawn in one RNG step and buffered internally, capped
/// at the remaining session budget, so the stream yields exactly
/// `cfg.sessions` sessions with ids `0..cfg.sessions` and no trailing
/// truncation is needed.
pub struct SessionStream {
    cfg: TraceConfig,
    profile: TrafficProfile,
    rng: StdRng,
    n: usize,
    // Cumulative distribution over ordered (s, d) pairs.
    pairs: Vec<(NodeId, NodeId)>,
    cum: Vec<f64>,
    acc: f64,
    /// Sessions drawn but not yet yielded (tail of a scan burst).
    pending: VecDeque<Session>,
    /// Sessions drawn so far (yielded + pending); doubles as the next id.
    generated: usize,
}

impl SessionStream {
    pub fn new(topo: &Topology, tm: &TrafficMatrix, cfg: &TraceConfig) -> Self {
        let n = topo.num_nodes();
        assert!(n >= 2, "need at least two nodes");
        assert_eq!(tm.num_nodes(), n, "traffic matrix size mismatch");
        let mut pairs = Vec::with_capacity(n * (n - 1));
        let mut cum = Vec::with_capacity(n * (n - 1));
        let mut acc = 0.0;
        for s in topo.nodes() {
            for d in topo.nodes() {
                if s != d {
                    acc += tm.frac(s, d);
                    pairs.push((s, d));
                    cum.push(acc);
                }
            }
        }
        SessionStream {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg: cfg.clone(),
            profile: TrafficProfile::mixed(),
            n,
            pairs,
            cum,
            acc,
            pending: VecDeque::new(),
            generated: 0,
        }
    }

    fn sample_pair(&mut self) -> (NodeId, NodeId) {
        let u: f64 = self.rng.random_range(0.0..self.acc);
        let idx = self.cum.partition_point(|&c| c < u).min(self.pairs.len() - 1);
        self.pairs[idx]
    }

    fn mk_tuple(&mut self, s: NodeId, d: NodeId, kind: &SessionKind) -> FiveTuple {
        let app = kind.app();
        FiveTuple::new(
            host_ip(s, self.rng.random_range(1..HOSTS_PER_NODE)),
            host_ip(d, self.rng.random_range(1..HOSTS_PER_NODE)),
            self.rng.random_range(1024..65000),
            app.server_port(),
            app.ip_proto(),
        )
    }

    fn push(&mut self, tuple: FiveTuple, kind: SessionKind, s: NodeId, d: NodeId, exchanges: u8) {
        let id = self.generated as u64;
        self.pending.push_back(Session { id, tuple, kind, src_node: s, dst_node: d, exchanges });
        self.generated += 1;
    }

    /// One draw of the generator's main loop: appends one session — or one
    /// scan burst — to `pending`. Callers guarantee `generated <
    /// cfg.sessions`, so at least one session is always appended.
    fn refill(&mut self) {
        let a = self.cfg.anomalies.clone();
        let u: f64 = self.rng.random_range(0.0..1.0);
        if u < a.scan_fraction && a.scan_fanout > 0 {
            // A burst of probes from one scanner towards many hosts spread
            // over the network (same source node per burst).
            let (s, _) = self.sample_pair();
            let scanner = host_ip(s, self.rng.random_range(1..HOSTS_PER_NODE));
            let burst = a.scan_fanout.min(self.cfg.sessions - self.generated);
            for _ in 0..burst {
                let d = loop {
                    let c = NodeId(self.rng.random_range(0..self.n));
                    if c != s {
                        break c;
                    }
                };
                let tuple = FiveTuple::new(
                    scanner,
                    host_ip(d, self.rng.random_range(1..HOSTS_PER_NODE)),
                    self.rng.random_range(1024..65000),
                    self.rng.random_range(1..1024), // scans sweep low ports
                    6,
                );
                self.push(tuple, SessionKind::ScanProbe, s, d, 0);
            }
        } else if u < a.scan_fraction + a.synflood_fraction {
            let (s, d) = self.sample_pair();
            let kind = SessionKind::SynFloodPkt;
            // Flood: fixed victim per destination node, random spoofed srcs.
            let tuple = FiveTuple::new(
                host_ip(s, self.rng.random_range(1..HOSTS_PER_NODE)),
                host_ip(d, 1), // the victim
                self.rng.random_range(1024..65000),
                kind.app().server_port(),
                6,
            );
            self.push(tuple, kind, s, d, 0);
        } else if u < a.scan_fraction + a.synflood_fraction + a.blaster_fraction {
            let (s, d) = self.sample_pair();
            let kind = SessionKind::Blaster;
            let tuple = self.mk_tuple(s, d, &kind);
            self.push(tuple, kind, s, d, 1);
        } else {
            let (s, d) = self.sample_pair();
            let app = self.profile.sample(&mut self.rng);
            let kind = if self.rng.random_range(0.0..1.0) < a.infected_fraction {
                SessionKind::InfectedPayload(app)
            } else {
                SessionKind::Normal(app)
            };
            let tuple = self.mk_tuple(s, d, &kind);
            let exchanges = 1 + self.rng.random_range(0..=EXCHANGES);
            self.push(tuple, kind, s, d, exchanges);
        }
    }
}

impl Iterator for SessionStream {
    type Item = Session;

    fn next(&mut self) -> Option<Session> {
        while self.pending.is_empty() {
            if self.generated >= self.cfg.sessions {
                return None;
            }
            self.refill();
        }
        self.pending.pop_front()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.cfg.sessions - (self.generated - self.pending.len());
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for SessionStream {}

impl NetTrace {
    /// Sessions observable at `node` in an **edge-only** deployment: those
    /// originating or terminating at the node.
    pub fn edge_sessions(&self, node: NodeId) -> impl Iterator<Item = &Session> {
        self.sessions.iter().filter(move |s| s.src_node == node || s.dst_node == node)
    }

    /// Sessions observable at `node` in a **network-wide** deployment:
    /// everything whose forwarding path traverses the node (includes
    /// transit traffic).
    pub fn onpath_sessions<'a>(
        &'a self,
        paths: &'a PathDb,
        node: NodeId,
    ) -> impl Iterator<Item = &'a Session> {
        self.sessions
            .iter()
            .filter(move |s| paths.path(s.src_node, s.dst_node).position(node).is_some())
    }

    pub fn total_packets(&self) -> usize {
        self.sessions.iter().map(|s| s.packet_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwdp_topo::internet2;

    fn trace(n_sessions: usize, seed: u64) -> (nwdp_topo::Topology, NetTrace) {
        let t = internet2();
        let tm = TrafficMatrix::gravity(&t);
        let tr = generate_trace(&t, &tm, &TraceConfig::new(n_sessions, seed));
        (t, tr)
    }

    #[test]
    fn deterministic() {
        let (_, a) = trace(500, 9);
        let (_, b) = trace(500, 9);
        assert_eq!(a.sessions.len(), b.sessions.len());
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(x.tuple, y.tuple);
            assert_eq!(x.kind, y.kind);
        }
    }

    #[test]
    fn session_count_exact() {
        let (_, tr) = trace(1234, 4);
        assert_eq!(tr.sessions.len(), 1234);
    }

    #[test]
    fn addressing_scheme_round_trips() {
        let (_, tr) = trace(300, 5);
        for s in &tr.sessions {
            assert_eq!(node_of_ip(s.tuple.src_ip), s.src_node);
            assert_eq!(node_of_ip(s.tuple.dst_ip), s.dst_node);
        }
    }

    #[test]
    fn anomaly_rates_roughly_respected() {
        let (_, tr) = trace(30_000, 6);
        let scans = tr.sessions.iter().filter(|s| s.kind == SessionKind::ScanProbe).count();
        let floods = tr.sessions.iter().filter(|s| s.kind == SessionKind::SynFloodPkt).count();
        let frac_scan = scans as f64 / 30_000.0;
        let frac_flood = floods as f64 / 30_000.0;
        // scan_fraction picks a *burst* of ~24 probes per hit: expected
        // scan share is large; just check both anomalies exist and floods
        // are near their 2% configuration.
        assert!(frac_scan > 0.05, "scan share {frac_scan}");
        assert!((frac_flood - 0.02).abs() < 0.015, "flood share {frac_flood}");
    }

    #[test]
    fn no_anomalies_when_disabled() {
        let t = internet2();
        let tm = TrafficMatrix::gravity(&t);
        let mut cfg = TraceConfig::new(2000, 7);
        cfg.anomalies = AnomalyConfig::none();
        let tr = generate_trace(&t, &tm, &cfg);
        assert!(tr.sessions.iter().all(|s| matches!(s.kind, SessionKind::Normal(_))));
    }

    #[test]
    fn gravity_skews_toward_new_york() {
        let (t, tr) = trace(20_000, 8);
        let nyc = t.find("NewYork").unwrap();
        let kc = t.find("KansasCity").unwrap();
        let at_nyc = tr.edge_sessions(nyc).count();
        let at_kc = tr.edge_sessions(kc).count();
        assert!(at_nyc > 2 * at_kc, "NYC {at_nyc} vs KC {at_kc}");
    }

    #[test]
    fn stream_yields_exact_count_with_sequential_ids() {
        let t = internet2();
        let tm = TrafficMatrix::gravity(&t);
        let cfg = TraceConfig::new(1234, 4);
        let stream = SessionStream::new(&t, &tm, &cfg);
        assert_eq!(stream.len(), 1234);
        let sessions: Vec<Session> = stream.collect();
        assert_eq!(sessions.len(), 1234);
        for (i, s) in sessions.iter().enumerate() {
            assert_eq!(s.id, i as u64);
        }
    }

    #[test]
    fn stream_size_hint_stays_exact_while_draining() {
        let t = internet2();
        let tm = TrafficMatrix::gravity(&t);
        // All-scan config so bursts fill the pending buffer.
        let mut cfg = TraceConfig::new(50, 2);
        cfg.anomalies.scan_fraction = 1.0;
        let mut stream = SessionStream::new(&t, &tm, &cfg);
        for remaining in (0..50usize).rev() {
            assert!(stream.next().is_some());
            assert_eq!(stream.size_hint(), (remaining, Some(remaining)));
        }
        assert!(stream.next().is_none());
    }

    #[test]
    fn stream_caps_final_scan_burst_at_session_budget() {
        let t = internet2();
        let tm = TrafficMatrix::gravity(&t);
        // fanout 24 > 10 sessions: the one burst must be cut at 10, exactly
        // like the batch generator's `min(fanout, remaining)`.
        let mut cfg = TraceConfig::new(10, 3);
        cfg.anomalies.scan_fraction = 1.0;
        let sessions: Vec<Session> = SessionStream::new(&t, &tm, &cfg).collect();
        assert_eq!(sessions.len(), 10);
        assert!(sessions.iter().all(|s| s.kind == SessionKind::ScanProbe));
        let batch = generate_trace(&t, &tm, &cfg);
        assert_eq!(batch.sessions.len(), 10);
        for (a, b) in sessions.iter().zip(&batch.sessions) {
            assert_eq!(a.tuple, b.tuple);
        }
    }

    #[test]
    fn onpath_superset_of_edge() {
        let (t, tr) = trace(3000, 11);
        let db = PathDb::shortest_paths(&t);
        for node in t.nodes() {
            let edge = tr.edge_sessions(node).count();
            let onpath = tr.onpath_sessions(&db, node).count();
            assert!(onpath >= edge, "node {node:?}");
        }
    }
}
