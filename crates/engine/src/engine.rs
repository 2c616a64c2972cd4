//! The coordinated NIDS engine (paper §2.3, Figs 3–4).
//!
//! Emulates the two-stage Bro architecture: packets flow through basic
//! connection processing (event engine), protocol analyzers, and policy
//! scripts. Three configurations reproduce the paper's comparison:
//!
//! - [`Placement::Unmodified`] — stock Bro: no coordination state, every
//!   packet analyzed by every interested module;
//! - [`Placement::EventEngine`] — approach 2: coordination checks hoisted
//!   into the event engine where possible (analyzer instantiation time),
//!   falling back to policy checks for policy-only modules;
//! - [`Placement::PolicyEngine`] — approach 1: all checks delayed into the
//!   interpreted policy layer (cheap to build, expensive at runtime for
//!   per-packet modules — the Fig 5(a) HTTP/IRC/Login spikes).
//!
//! The engine also implements the §2.3 fast path: "we add a check in the
//! basic connection processing step to avoid creating session state for
//! traffic that falls outside the sampling manifest for this Bro
//! instance".
//!
//! Module `m` runs class `m` of the deployment. The pipeline reads each
//! module's constants (traffic spec, hash key, stage, granularity) from
//! its [`ModuleSpec`] as data; only the analysis itself is a call into
//! the module's [`Analyzer`]. The engine owns each module's detections
//! and lends them to the analyzer as an [`AlertSink`].

use crate::conn::ConnTable;
use crate::cost::{CostModel, Meter};
use crate::modules::{
    module_for_class, Alert, AlertSink, Analyzer, Detections, EngineError, Granularity, ModuleSpec,
    Stage,
};
use nwdp_core::nids::{generate_manifests, SamplingManifest};
use nwdp_core::{ClassScope, NidsDeployment, UnitKey};
use nwdp_hash::{FlowKeyKind, KeyedHasher};
use nwdp_topo::NodeId;
use nwdp_traffic::{node_of_ip, Packet, Session};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Where coordination checks are implemented (§2.3's two alternatives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Stock Bro: no coordination at all.
    Unmodified,
    /// Checks as early as possible (event engine when the module allows).
    EventEngine,
    /// All checks delayed to the policy engine.
    PolicyEngine,
}

impl Placement {
    /// Is a module's coordination check resolved at analyzer
    /// instantiation time in the event engine (as opposed to per-event in
    /// the interpreted policy layer)?
    fn decided_in_event_engine(self, stage: Stage) -> bool {
        match stage {
            Stage::EventOnly => true,
            Stage::EventCapable => self == Placement::EventEngine,
            Stage::PolicyOnly => false,
        }
    }
}

/// Coordination context shared by all nodes of a deployment. The manifest
/// is held behind an [`Arc`] so the reload controller can mint a fresh
/// manifest mid-replay and hot-swap it into live engines
/// ([`Engine::set_manifest`]) without the engines borrowing storage that
/// outlives the run.
pub struct CoordContext<'a> {
    pub dep: &'a NidsDeployment,
    pub manifest: Arc<SamplingManifest>,
}

impl<'a> CoordContext<'a> {
    /// Build a context from a borrowed manifest (cloned into shared
    /// ownership). Call sites that already hold an `Arc` — the reload
    /// runner swaps manifests per epoch — use
    /// [`CoordContext::with_shared`] to avoid the clone.
    pub fn new(dep: &'a NidsDeployment, manifest: &SamplingManifest) -> Self {
        Self::with_shared(dep, Arc::new(manifest.clone()))
    }

    /// Build a context around an already-shared manifest.
    pub fn with_shared(dep: &'a NidsDeployment, manifest: Arc<SamplingManifest>) -> Self {
        CoordContext { dep, manifest }
    }
}

/// Table cell: the class has no unit for this `(src, dst)`, so no check
/// runs.
const NO_UNIT: u32 = u32::MAX;
/// Table cell: a unit whose hash ranges all live at other nodes. The
/// check still runs (and is counted); it just never hits.
const NO_RANGE: u32 = u32::MAX - 1;

/// One node's slice of the sampling manifest, compiled for the per-packet
/// coordination check (Fig 3 line 5). For a deployment of `n` nodes,
/// `cells[(class · w + src) · w + dst]` with `w = n + 1` holds [`NO_UNIT`],
/// [`NO_RANGE`] or the position of this node's
/// [`ManifestEntry`](nwdp_core::nids::ManifestEntry) for the unit, so a
/// check is two array indexings plus a range test — no map probe. Index
/// `n` stands for every endpoint outside the deployment: it has no path
/// unit, but an ingress unit still matches on its source alone and an
/// egress unit on its destination alone.
#[derive(Debug, Default)]
struct CheckTable {
    /// Row width `n + 1`.
    width: usize,
    cells: Vec<u32>,
}

impl CheckTable {
    /// Compile `node`'s table straight from the deployment's units. A unit
    /// is reachable exactly when its key has its class's scope, the same
    /// `(class, key)` resolution a per-check map lookup would perform
    /// (a later unit with an equal key wins).
    fn compile(dep: &NidsDeployment, manifest: &SamplingManifest, node: NodeId) -> Self {
        let w = dep.num_nodes + 1;
        let mut entry_of = vec![NO_RANGE; dep.units.len()];
        if node.index() < manifest.num_nodes() {
            for (pos, entry) in manifest.node_entries(node).iter().enumerate() {
                if let Some(cell) = entry_of.get_mut(entry.unit) {
                    *cell = pos as u32;
                }
            }
        }
        let mut cells = vec![NO_UNIT; dep.classes.len() * w * w];
        for (unit, &entry) in dep.units.iter().zip(&entry_of) {
            let class = &mut cells[unit.class * w * w..(unit.class + 1) * w * w];
            match (dep.classes[unit.class].scope, unit.key) {
                (ClassScope::PerPath, UnitKey::Path(s, d)) => {
                    class[s.index() * w + d.index()] = entry
                }
                (ClassScope::PerIngress, UnitKey::Ingress(s)) => {
                    class[s.index() * w..(s.index() + 1) * w].fill(entry)
                }
                (ClassScope::PerEgress, UnitKey::Egress(d)) => {
                    class.iter_mut().skip(d.index()).step_by(w).for_each(|c| *c = entry)
                }
                _ => {} // a key of another scope is never looked up
            }
        }
        CheckTable { width: w, cells }
    }

    /// The cell for `class` on traffic from `src` to `dst`.
    fn cell(&self, class: usize, src: NodeId, dst: NodeId) -> u32 {
        let outside = self.width - 1;
        let (s, d) = (src.index().min(outside), dst.index().min(outside));
        self.cells[(class * self.width + s) * self.width + d]
    }
}

/// Fig 3 line 5 for a resolved unit: does `h` fall in `node`'s range?
fn covers(manifest: &SamplingManifest, node: NodeId, cell: u32, h: u32) -> bool {
    cell != NO_RANGE && manifest.node_entries(node)[cell as usize].ranges.contains(h)
}

/// A standalone single-instance coordination setup for microbenchmarks:
/// every unit's eligible set becomes `{node}` with a full-range
/// assignment — "the sampling manifests … specify that this standalone
/// node needs to process all the traffic" (§2.4).
pub fn standalone_coordination(
    dep: &NidsDeployment,
    node: NodeId,
) -> (NidsDeployment, SamplingManifest) {
    let mut solo = dep.clone();
    for unit in solo.units.iter_mut() {
        unit.nodes = vec![node];
    }
    let d: Vec<Vec<(NodeId, f64)>> = solo.units.iter().map(|_| vec![(node, 1.0)]).collect();
    let manifest = generate_manifests(&solo, &d);
    (solo, manifest)
}

/// Per-run statistics.
#[derive(Debug, Clone)]
pub struct RunStats {
    pub node: NodeId,
    /// Total CPU cycles (event engine + all modules + checks).
    pub cpu_cycles: u64,
    /// Peak resident memory (bytes): connection table + module state.
    pub mem_peak: u64,
    pub packets: u64,
    pub connections: usize,
    /// Packets dropped by the §2.3 fast path before any state was built.
    pub fastpath_skipped: u64,
    /// Hash-range membership tests against the sampling manifest.
    pub range_checks: u64,
    /// How many of those tests fell inside this node's assigned range.
    pub range_hits: u64,
    pub per_module_cpu: Vec<(String, u64)>,
    pub alerts: BTreeSet<Alert>,
}

impl RunStats {
    /// Fraction of manifest range checks that hit (0 when none ran).
    pub fn range_hit_rate(&self) -> f64 {
        if self.range_checks == 0 {
            0.0
        } else {
            self.range_hits as f64 / self.range_checks as f64
        }
    }
}

/// One NIDS instance at one network node.
pub struct Engine<'a> {
    pub node: NodeId,
    placement: Placement,
    costs: CostModel,
    hasher: KeyedHasher,
    coord: Option<CoordContext<'a>>,
    /// This node's compiled manifest slice (empty when uncoordinated);
    /// recompiled on every [`Engine::set_manifest`].
    table: CheckTable,
    conns: ConnTable,
    /// Module `m` runs class `m` of the class list: its constants, its
    /// analyzer, its meter and its detections.
    specs: Vec<ModuleSpec>,
    modules: Vec<Box<dyn Analyzer>>,
    base_meter: Meter,
    module_meters: Vec<Meter>,
    found: Vec<Detections>,
    packets: u64,
    fastpath_skipped: u64,
    range_checks: u64,
    range_hits: u64,
    /// §2.5 fine-grained coordination: connections whose interested
    /// modules all consume only connection-level events are tracked in
    /// lightweight records and skip per-packet analysis.
    fine_grained: bool,
    /// Reusable packet-synthesis buffer: `process_session` refills it in
    /// place instead of allocating a fresh `Vec<Packet>` per session.
    pkt_buf: Vec<Packet<'static>>,
    /// Reusable fault-shaping buffer for `process_session_faulty`.
    fault_buf: Vec<Packet<'static>>,
    /// Connections counted in shard engines merged into this one.
    absorbed_conns: usize,
    /// Highest session id fed to this engine; maintained only while the
    /// alert plane is on, and used to give merge-time re-detections in
    /// [`Engine::absorb_shard`] a deterministic replay-clock label
    /// (thread-local context would otherwise leak whatever the merging
    /// thread last processed — a thread-count-dependent timestamp).
    last_sid: u64,
}

impl<'a> Engine<'a> {
    /// Build an engine running the given classes. For coordinated
    /// placements pass the shared [`CoordContext`]; `None` with
    /// [`Placement::Unmodified`] is stock Bro (edge-only / baseline runs).
    ///
    /// Fails with [`EngineError::UnknownClass`] when a class name has no
    /// registered analyzer module (instead of aborting the process), and
    /// with [`EngineError::ClassListMismatch`] when a coordinated engine's
    /// `class_names` differ from the deployment's classes.
    pub fn new(
        node: NodeId,
        placement: Placement,
        class_names: &[String],
        coord: Option<CoordContext<'a>>,
        hasher: KeyedHasher,
    ) -> Result<Self, EngineError> {
        if placement == Placement::Unmodified {
            assert!(coord.is_none(), "unmodified Bro cannot consume manifests");
        } else {
            assert!(coord.is_some(), "coordinated placements need a manifest context");
        }
        if let Some(c) = &coord {
            if !class_names.iter().eq(c.dep.classes.iter().map(|class| &class.name)) {
                return Err(EngineError::ClassListMismatch {
                    engine: class_names.to_vec(),
                    deployment: c.dep.classes.iter().map(|class| class.name.clone()).collect(),
                });
            }
        }
        let (specs, modules): (Vec<_>, Vec<_>) = class_names
            .iter()
            .map(|n| module_for_class(n))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        let with_hashes = placement != Placement::Unmodified;
        let n_modules = modules.len();
        let table = coord
            .as_ref()
            .map_or_else(CheckTable::default, |c| CheckTable::compile(c.dep, &c.manifest, node));
        Ok(Engine {
            node,
            placement,
            costs: CostModel::default(),
            hasher,
            coord,
            table,
            conns: ConnTable::new(with_hashes, n_modules),
            module_meters: vec![Meter::new(); n_modules],
            found: vec![Detections::new(); n_modules],
            specs,
            modules,
            base_meter: Meter::new(),
            packets: 0,
            fastpath_skipped: 0,
            range_checks: 0,
            range_hits: 0,
            fine_grained: false,
            pkt_buf: Vec::new(),
            fault_buf: Vec::new(),
            absorbed_conns: 0,
            last_sid: 0,
        })
    }

    /// Swap the live sampling manifest mid-replay (coordinated placements
    /// only). This is how the resilience runner applies a repaired
    /// manifest once a failure is detected: connections whose module
    /// enablement was already decided keep their old decisions — the
    /// paper's drain semantics, where existing assignments persist until
    /// the connections expire — while new connections consult the
    /// repaired ranges. An engine running without coordination has no
    /// manifest to replace; that is reported as
    /// [`EngineError::NotCoordinated`] instead of panicking.
    pub fn set_manifest(&mut self, manifest: Arc<SamplingManifest>) -> Result<(), EngineError> {
        match self.coord.as_mut() {
            Some(coord) => {
                self.table = CheckTable::compile(coord.dep, &manifest, self.node);
                coord.manifest = manifest;
                Ok(())
            }
            None => Err(EngineError::NotCoordinated),
        }
    }

    /// Enable the §2.5 fine-grained coordination extension (effective
    /// under [`Placement::EventEngine`]): modules that only need
    /// connection-level events (Scan, SYNFlood) no longer force full
    /// per-packet connection tracking at their nodes.
    pub fn set_fine_grained(&mut self, on: bool) {
        self.fine_grained = on;
    }

    /// Feed one session's packets through the engine. Packets are
    /// synthesized into a reusable buffer — no per-session allocation.
    pub fn process_session(&mut self, session: &Session) {
        let record = self.conns.find(&session.tuple);
        self.replay_session(session, record);
    }

    /// [`Engine::process_session`] given `record`, the connection table's
    /// entry for the session's tuple. Every packet of a session
    /// canonicalizes to that tuple, and only the session's own packets
    /// touch the table meanwhile, so the entry is carried from packet to
    /// packet: one table probe per session.
    fn replay_session(&mut self, session: &Session, mut record: Option<usize>) {
        if nwdp_obs::alert_enabled() {
            nwdp_obs::set_alert_context(self.node.0 as u64, session.id);
            self.last_sid = self.last_sid.max(session.id);
        }
        let mut buf = std::mem::take(&mut self.pkt_buf);
        session.packets_into(&mut buf);
        for pkt in &buf {
            record = self.process_packet_at(pkt, record);
        }
        self.pkt_buf = buf;
    }

    /// Feed a session through a fault injector (drops / duplicates /
    /// reordering), as seen at a lossy capture point. Both the raw and the
    /// degraded packet sequences live in reusable buffers.
    pub fn process_session_faulty(
        &mut self,
        session: &Session,
        faults: &nwdp_traffic::FaultInjector,
    ) {
        if nwdp_obs::alert_enabled() {
            nwdp_obs::set_alert_context(self.node.0 as u64, session.id);
            self.last_sid = self.last_sid.max(session.id);
        }
        let mut raw = std::mem::take(&mut self.pkt_buf);
        let mut shaped = std::mem::take(&mut self.fault_buf);
        session.packets_into(&mut raw);
        faults.apply_into(session, &raw, &mut shaped);
        for pkt in &shaped {
            self.process_packet(pkt);
        }
        self.pkt_buf = raw;
        self.fault_buf = shaped;
    }

    /// Feed one session through the engine with the batched §2.3 fast
    /// path: when no module's manifest range covers the session and no
    /// connection state exists yet, the per-packet skip charges are
    /// committed in bulk from [`Session::packet_count`] without
    /// synthesizing a single packet. Bit-identical to
    /// [`Engine::process_session`] — every packet of a session
    /// canonicalizes to the session's tuple, so the per-packet fast-path
    /// outcome is the same for all of them.
    pub fn process_session_fast(&mut self, session: &Session) {
        let record = self.conns.find(&session.tuple);
        if record.is_none() && self.try_skip_session(session) {
            return;
        }
        self.replay_session(session, record);
    }

    /// The batched membership check behind
    /// [`Engine::process_session_fast`], for a session with no connection
    /// record. Returns `true` when the whole session was skipped (bulk
    /// charges committed); `false` leaves the engine untouched — the
    /// trial scan uses only locals, so a session that turns out to be
    /// covered is processed normally with no double-charging (its first
    /// packet re-runs the fast path itself).
    fn try_skip_session(&mut self, session: &Session) -> bool {
        let tuple = session.tuple;
        let Some(coord) = self.coord.as_ref() else {
            return false;
        };
        let (src_node, dst_node) = (node_of_ip(tuple.src_ip), node_of_ip(tuple.dst_ip));
        let mut hash_cache: [Option<u32>; 4] = [None; 4];
        let mut hashed = 0u64;
        let mut checks = 0u64;
        for (m, spec) in self.specs.iter().enumerate() {
            let cell = self.table.cell(m, src_node, dst_node);
            if cell == NO_UNIT {
                continue;
            }
            let h = *hash_cache[kind_slot(spec.key)].get_or_insert_with(|| {
                hashed += 1;
                self.hasher.hash32(&tuple, spec.key)
            });
            checks += 1;
            if covers(&coord.manifest, self.node, cell, h) {
                return false; // some module wants it: process normally
            }
        }
        // Every packet of the session takes the skip path; commit its
        // per-packet charges in bulk.
        let np = session.packet_count() as u64;
        self.packets += np;
        self.fastpath_skipped += np;
        self.range_checks += np * checks;
        self.base_meter.cpu(
            np * (self.costs.pkt_base
                + self.costs.evt_check * checks
                + self.costs.hash_compute * hashed),
        );
        true
    }

    /// The per-packet pipeline (paper Fig 3 embedded in the Bro stages).
    pub fn process_packet(&mut self, pkt: &Packet<'_>) {
        let record = self.conns.find(&canonical_tuple(pkt));
        self.process_packet_at(pkt, record);
    }

    /// [`Engine::process_packet`] given `record`, the connection table's
    /// entry for the packet's canonical tuple. Returns the entry after the
    /// packet: `None` when it took the §2.3 fast path and created none.
    fn process_packet_at(&mut self, pkt: &Packet<'_>, record: Option<usize>) -> Option<usize> {
        self.packets += 1;
        self.base_meter.cpu(self.costs.pkt_base);

        let tuple = canonical_tuple(pkt);
        let (src_node, dst_node) = (node_of_ip(tuple.src_ip), node_of_ip(tuple.dst_ip));

        // --- §2.3 fast path: for traffic with no existing state, skip
        // connection creation when no module's manifest range covers it.
        // The caller's table probe serves the upsert below as well.
        if let Some(coord) = self.coord.as_ref().filter(|_| record.is_none()) {
            // Each needed hash kind is computed once per packet.
            let mut hash_cache: [Option<u32>; 4] = [None; 4];
            let mut hashed = 0u64;
            let mut any = false;
            for (m, spec) in self.specs.iter().enumerate() {
                let cell = self.table.cell(m, src_node, dst_node);
                if cell == NO_UNIT {
                    continue;
                }
                let h = *hash_cache[kind_slot(spec.key)].get_or_insert_with(|| {
                    hashed += 1;
                    self.hasher.hash32(&tuple, spec.key)
                });
                self.base_meter.cpu(self.costs.evt_check);
                self.range_checks += 1;
                if covers(&coord.manifest, self.node, cell, h) {
                    self.range_hits += 1;
                    any = true;
                    break;
                }
            }
            self.base_meter.cpu(self.costs.hash_compute * hashed);
            if !any {
                self.fastpath_skipped += 1;
                return None; // transit fast path: no state, no analysis
            }
        }

        // --- Basic connection processing. ---
        let (idx, is_new) =
            self.conns.upsert(&tuple, record, &self.hasher, &self.costs, &mut self.base_meter);
        {
            let rec = self.conns.get_mut(idx);
            rec.pkts += 1;
            rec.bytes += pkt.size as u64;
            rec.saw_syn |= pkt.syn;
            rec.saw_fin |= pkt.fin;
        }

        // Event-engine checks: decide module enablement once per
        // connection, at analyzer-instantiation time. This covers all
        // modules under approach 2, and the event-only modules (e.g. the
        // Signature engine) under *both* approaches.
        if let Some(coord) = self.coord.as_ref().filter(|_| is_new) {
            // Decisions go straight into the record's own `enabled`.
            let rec = self.conns.get_mut(idx);
            let (sn, dn) = (node_of_ip(rec.orig.src_ip), node_of_ip(rec.orig.dst_ip));
            let mut checks = 0u64;
            for (m, spec) in self.specs.iter().enumerate() {
                if !self.placement.decided_in_event_engine(spec.stage) {
                    rec.enabled[m] = true; // the policy layer decides later
                    continue;
                }
                checks += 1;
                let cell = self.table.cell(m, sn, dn);
                rec.enabled[m] = cell != NO_UNIT && {
                    let h = rec.hashes.get(spec.key);
                    self.range_checks += 1;
                    let hit = covers(&coord.manifest, self.node, cell, h);
                    self.range_hits += hit as u64;
                    hit
                };
            }
            self.base_meter.cpu(self.costs.evt_check * checks);
            // §2.5 fine-grained extension: if every module interested in
            // this connection consumes only connection-level events, track
            // it in a lightweight record.
            if self.fine_grained && self.placement == Placement::EventEngine {
                let rec = self.conns.get(idx);
                let mut any_interested = false;
                let mut needs_full = false;
                for (m, spec) in self.specs.iter().enumerate() {
                    if !spec.traffic.admits(rec.app, rec.orig.dst_port) {
                        continue;
                    }
                    let interested = if self.placement.decided_in_event_engine(spec.stage) {
                        rec.enabled[m]
                    } else {
                        // Policy-side decision is per-connection too;
                        // resolve it now from the record's hashes.
                        let cell = self.table.cell(m, sn, dn);
                        cell != NO_UNIT && {
                            let h = rec.hashes.get(spec.key);
                            self.range_checks += 1;
                            let hit = covers(&coord.manifest, self.node, cell, h);
                            self.range_hits += hit as u64;
                            hit
                        }
                    };
                    if interested {
                        any_interested = true;
                        if spec.needs_all_packets {
                            needs_full = true;
                            break;
                        }
                    }
                }
                if any_interested && !needs_full {
                    self.conns.make_light(idx, &self.costs, &mut self.base_meter);
                }
            }
        }

        // Lightweight connections skip mid-stream per-packet analysis
        // entirely (their modules only consume connection-level events).
        if self.conns.get(idx).light && !is_new && !pkt.fin && (!pkt.syn || pkt.ack) {
            return Some(idx);
        }

        // --- Per-module analysis (Fig 3 loop). ---
        for (m, spec) in self.specs.iter().enumerate() {
            let rec = self.conns.get(idx);
            if !spec.traffic.admits(rec.app, rec.orig.dst_port) {
                continue;
            }
            let event_decided = self.placement.decided_in_event_engine(spec.stage);
            let run = match (&self.coord, event_decided) {
                (None, _) => true,
                (Some(_), true) => rec.enabled[m],
                (Some(coord), false) => {
                    // Interpreted policy-layer check (Fig 3 line 5 as a
                    // policy predicate), charged per delivered event:
                    // every packet for per-packet modules, setup/teardown
                    // events for connection-level modules. It reads the
                    // table compiled from the live manifest, so a swap
                    // reaches open connections at their next event.
                    let (sn, dn) = (node_of_ip(rec.orig.src_ip), node_of_ip(rec.orig.dst_ip));
                    let cell = self.table.cell(m, sn, dn);
                    cell != NO_UNIT && {
                        let charge = match spec.granularity {
                            Granularity::PerPacket => self.costs.policy_check_pkt,
                            Granularity::PerConnection if rec.pkts <= 1 || pkt.fin => {
                                self.costs.policy_check_conn
                            }
                            Granularity::PerConnection => 0,
                        };
                        self.module_meters[m].cpu(charge);
                        let h = rec.hashes.get(spec.key);
                        self.range_checks += 1;
                        let hit = covers(&coord.manifest, self.node, cell, h);
                        self.range_hits += hit as u64;
                        hit
                    }
                }
            };
            if run {
                let rec = self.conns.get(idx);
                self.modules[m].on_packet(
                    pkt,
                    rec,
                    is_new,
                    &self.costs,
                    &mut self.module_meters[m],
                    &mut AlertSink::new(&spec.class_name, &mut self.found[m]),
                );
            }
        }
        Some(idx)
    }

    /// Fold another shard's engine — same node, same module list, disjoint
    /// connections — into this one, so that `stats()` afterwards equals a
    /// single engine having processed the union of both shards' sessions.
    ///
    /// Sound because shards split sessions by the keyed `BiSession` hash
    /// (no two shards share a connection record) and all cross-connection
    /// module state is monotone (see [`Analyzer::absorb`]): each module
    /// first unites both shards' detections, then its analyzer raises
    /// those only the merged state crosses. Peak memory is
    /// additive only when meters never free, so the fine-grained extension
    /// must be off on both sides; per-host state both shards allocated is
    /// refunded via [`Meter::refund_alloc`].
    pub fn absorb_shard(&mut self, mut other: Engine<'a>) {
        assert!(
            !self.fine_grained && !other.fine_grained,
            "shard merge requires coarse connection records (fine_grained off)"
        );
        assert_eq!(self.node, other.node, "shards must belong to one node");
        assert_eq!(self.modules.len(), other.modules.len(), "shards must run the same modules");
        if nwdp_obs::alert_enabled() {
            // Merge re-detections (a threshold only the combined shard
            // counts cross) are raised below via `Analyzer::absorb`. Pin their
            // context to this node and the last session either shard
            // processed — the moment the detection became knowable —
            // instead of whatever the merging thread's thread-local
            // context happens to hold.
            self.last_sid = self.last_sid.max(other.last_sid);
            nwdp_obs::set_alert_context(self.node.0 as u64, self.last_sid);
        }
        self.packets += other.packets;
        self.fastpath_skipped += other.fastpath_skipped;
        self.range_checks += other.range_checks;
        self.range_hits += other.range_hits;
        self.absorbed_conns += other.conns.len() + other.absorbed_conns;
        self.base_meter.cpu_cycles += other.base_meter.cpu_cycles;
        self.base_meter.mem_bytes += other.base_meter.mem_bytes;
        self.base_meter.mem_peak += other.base_meter.mem_peak;
        for m in 0..self.modules.len() {
            self.module_meters[m].cpu_cycles += other.module_meters[m].cpu_cycles;
            self.module_meters[m].mem_bytes += other.module_meters[m].mem_bytes;
            self.module_meters[m].mem_peak += other.module_meters[m].mem_peak;
            self.found[m].extend(&other.found[m]);
            let state = other.modules[m].take_state();
            let sink = &mut AlertSink::new(&self.specs[m].class_name, &mut self.found[m]);
            let refund = self.modules[m].absorb(state, sink);
            self.module_meters[m].refund_alloc(refund);
        }
    }

    /// Collected statistics.
    pub fn stats(&self) -> RunStats {
        let mut cpu = self.base_meter.cpu_cycles;
        let mut mem_peak = self.base_meter.mem_peak;
        let mut per_module_cpu = Vec::with_capacity(self.modules.len());
        let mut alerts = BTreeSet::new();
        for (m, spec) in self.specs.iter().enumerate() {
            cpu += self.module_meters[m].cpu_cycles;
            mem_peak += self.module_meters[m].mem_peak;
            per_module_cpu.push((spec.class_name.clone(), self.module_meters[m].cpu_cycles));
            alerts.extend(self.found[m].iter().map(|&(kind, subject)| Alert {
                module: spec.class_name.clone(),
                kind,
                subject,
            }));
        }
        RunStats {
            node: self.node,
            cpu_cycles: cpu,
            mem_peak,
            packets: self.packets,
            connections: self.conns.len() + self.absorbed_conns,
            fastpath_skipped: self.fastpath_skipped,
            range_checks: self.range_checks,
            range_hits: self.range_hits,
            per_module_cpu,
            alerts,
        }
    }
}

/// Recover the originator-oriented tuple from a packet (forward packets
/// already are; reverse packets get flipped back — the event engine knows
/// direction from SYN/first-packet state).
fn canonical_tuple(pkt: &Packet<'_>) -> nwdp_hash::FiveTuple {
    if pkt.forward {
        pkt.tuple
    } else {
        pkt.tuple.reversed()
    }
}

fn kind_slot(kind: FlowKeyKind) -> usize {
    match kind {
        FlowKeyKind::UniFlow => 0,
        FlowKeyKind::BiSession | FlowKeyKind::HostPair => 1,
        FlowKeyKind::Source => 2,
        FlowKeyKind::Destination => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwdp_core::nids::{solve_nids_lp, ManifestEntry, NidsLpConfig, NodeCaps};
    use nwdp_core::{build_units, AnalysisClass};
    use nwdp_hash::{RangeSet, HASH_SPACE};
    use nwdp_topo::{line, PathDb};
    use nwdp_traffic::{generate_trace, TraceConfig, TrafficMatrix, VolumeModel};

    fn small_setup() -> (nwdp_topo::Topology, NidsDeployment) {
        let topo = line(3);
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::uniform(&topo);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
        (topo, dep)
    }

    #[test]
    fn standalone_coordination_covers_everything_at_one_node() {
        let (_topo, dep) = small_setup();
        let (solo, manifest) = standalone_coordination(&dep, NodeId(1));
        for (u, unit) in solo.units.iter().enumerate() {
            assert_eq!(unit.nodes, vec![NodeId(1)]);
            for h in [0, 1 << 31, u32::MAX] {
                assert!(manifest.should_analyze(u, NodeId(1), h));
            }
        }
    }

    #[test]
    fn fast_path_skips_state_for_unassigned_traffic() {
        // All units assigned to node 1; an engine at node 0 must create
        // no connection state at all.
        let (topo, dep) = small_setup();
        let (solo, manifest) = standalone_coordination(&dep, NodeId(1));
        let names: Vec<String> = solo.classes.iter().map(|c| c.name.clone()).collect();
        let tm = TrafficMatrix::uniform(&topo);
        let trace = generate_trace(&topo, &tm, &TraceConfig::new(200, 3));
        let coord = CoordContext::new(&solo, &manifest);
        let mut bystander = Engine::new(
            NodeId(0),
            Placement::EventEngine,
            &names,
            Some(coord),
            KeyedHasher::unkeyed(),
        )
        .unwrap();
        for s in &trace.sessions {
            bystander.process_session(s);
        }
        let st = bystander.stats();
        assert_eq!(st.connections, 0, "no responsibilities ⇒ no state");
        assert!(st.alerts.is_empty());
        assert!(st.packets > 0);
        // The responsible node tracks everything instead.
        let coord = CoordContext::new(&solo, &manifest);
        let mut owner = Engine::new(
            NodeId(1),
            Placement::EventEngine,
            &names,
            Some(coord),
            KeyedHasher::unkeyed(),
        )
        .unwrap();
        for s in &trace.sessions {
            owner.process_session(s);
        }
        assert!(owner.stats().connections > 0);
    }

    #[test]
    fn session_replay_matches_packet_by_packet_replay() {
        // `process_session` probes the connection table once per session;
        // feeding the same packets one by one probes for every packet.
        // Both must charge and detect the same.
        let (topo, dep) = small_setup();
        let lp = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e7, mem: 4e8 });
        let manifest = generate_manifests(&dep, &solve_nids_lp(&dep, &lp).unwrap().d);
        let names: Vec<String> = dep.classes.iter().map(|c| c.name.clone()).collect();
        let trace =
            generate_trace(&topo, &TrafficMatrix::uniform(&topo), &TraceConfig::new(600, 9));
        let hasher = KeyedHasher::with_key(3);
        for placement in [Placement::EventEngine, Placement::PolicyEngine] {
            for fine_grained in [false, true] {
                for node in 0..dep.num_nodes {
                    let engine = || {
                        let coord = CoordContext::new(&dep, &manifest);
                        let mut e =
                            Engine::new(NodeId(node), placement, &names, Some(coord), hasher)
                                .unwrap();
                        e.set_fine_grained(fine_grained);
                        e
                    };
                    let (mut by_session, mut by_packet) = (engine(), engine());
                    for s in &trace.sessions {
                        by_session.process_session(s);
                        for pkt in s.packets() {
                            by_packet.process_packet(&pkt);
                        }
                    }
                    let (a, b) = (by_session.stats(), by_packet.stats());
                    assert!(a.range_hits > 0 && a.fastpath_skipped > 0, "{a:?}");
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{placement:?} node {node}");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn unmodified_engine_rejects_manifests() {
        let (_topo, dep) = small_setup();
        let (solo, manifest) = standalone_coordination(&dep, NodeId(0));
        let names = vec!["HTTP".to_string()];
        let coord = CoordContext::new(&solo, &manifest);
        let _ = Engine::new(
            NodeId(0),
            Placement::Unmodified,
            &names,
            Some(coord),
            KeyedHasher::unkeyed(),
        );
    }

    #[test]
    #[should_panic]
    fn coordinated_engine_requires_manifests() {
        let names = vec!["HTTP".to_string()];
        let _ =
            Engine::new(NodeId(0), Placement::EventEngine, &names, None, KeyedHasher::unkeyed());
    }

    #[test]
    fn set_manifest_on_edge_only_engine_is_an_error_not_a_panic() {
        let (_topo, dep) = small_setup();
        let (_solo, manifest) = standalone_coordination(&dep, NodeId(0));
        let names = vec!["HTTP".to_string()];
        let mut edge =
            Engine::new(NodeId(0), Placement::Unmodified, &names, None, KeyedHasher::unkeyed())
                .unwrap();
        assert_eq!(edge.set_manifest(Arc::new(manifest)), Err(EngineError::NotCoordinated));
        // A coordinated engine accepts the swap.
        let (solo, manifest2) = standalone_coordination(&dep, NodeId(1));
        let names: Vec<String> = solo.classes.iter().map(|c| c.name.clone()).collect();
        let coord = CoordContext::new(&solo, &manifest2);
        let mut owner = Engine::new(
            NodeId(1),
            Placement::EventEngine,
            &names,
            Some(coord),
            KeyedHasher::unkeyed(),
        )
        .unwrap();
        assert_eq!(owner.set_manifest(Arc::new(manifest2)), Ok(()));
    }

    #[test]
    fn coordinated_engine_rejects_a_reordered_class_list() {
        let (_topo, dep) = small_setup();
        let (solo, manifest) = standalone_coordination(&dep, NodeId(0));
        let deployment: Vec<String> = solo.classes.iter().map(|c| c.name.clone()).collect();
        let reversed: Vec<String> = deployment.iter().rev().cloned().collect();
        let coord = CoordContext::new(&solo, &manifest);
        let h = KeyedHasher::unkeyed();
        let err = match Engine::new(NodeId(0), Placement::EventEngine, &reversed, Some(coord), h) {
            Ok(_) => panic!("module m must run class m"),
            Err(e) => e,
        };
        assert_eq!(err, EngineError::ClassListMismatch { engine: reversed, deployment });
        assert!(err.to_string().contains("SYNFlood"));
    }

    /// The table's answer for `class` on `(src, dst)` at hash `h`: `None`
    /// when no check runs, else whether it hits.
    fn table_check(
        engine: &Engine<'_>,
        class: usize,
        src: NodeId,
        dst: NodeId,
        h: u32,
    ) -> Option<bool> {
        let cell = engine.table.cell(class, src, dst);
        let manifest = &engine.coord.as_ref().unwrap().manifest;
        (cell != NO_UNIT).then(|| covers(manifest, engine.node, cell, h))
    }

    /// The same answer from the deployment's units and the manifest's own
    /// membership test, with no compiled state.
    fn reference_check(
        dep: &NidsDeployment,
        manifest: &SamplingManifest,
        node: NodeId,
        class: usize,
        src: NodeId,
        dst: NodeId,
        h: u32,
    ) -> Option<bool> {
        let key = match dep.classes[class].scope {
            ClassScope::PerPath => UnitKey::Path(src, dst),
            ClassScope::PerIngress => UnitKey::Ingress(src),
            ClassScope::PerEgress => UnitKey::Egress(dst),
        };
        let unit = dep.units.iter().rposition(|u| u.class == class && u.key == key)?;
        Some(manifest.should_analyze(unit, node, h))
    }

    /// Compare every node's table against the reference over all classes,
    /// all `(src, dst)` (plus endpoints outside the deployment) and a
    /// hash grid. Returns how many checks ran against a unit with no range
    /// at the checking node.
    fn assert_tables_match(
        dep: &NidsDeployment,
        manifest: &Arc<SamplingManifest>,
        engines: &[Engine<'_>],
    ) -> usize {
        let hashes: Vec<u32> =
            (0..=64).map(|g| (g << 26).min(u64::from(u32::MAX)) as u32).collect();
        let outside = [NodeId(dep.num_nodes), NodeId(255)];
        let ends: Vec<NodeId> = (0..dep.num_nodes).map(NodeId).chain(outside).collect();
        let mut no_range = 0;
        for engine in engines {
            assert!(Arc::ptr_eq(&engine.coord.as_ref().unwrap().manifest, manifest));
            for class in 0..dep.classes.len() {
                for &src in &ends {
                    for &dst in &ends {
                        let cell = engine.table.cell(class, src, dst);
                        no_range += (cell == NO_RANGE) as usize;
                        for &h in &hashes {
                            assert_eq!(
                                table_check(engine, class, src, dst, h),
                                reference_check(dep, manifest, engine.node, class, src, dst, h),
                                "node {:?} class {class} {src:?}->{dst:?} h {h}",
                                engine.node
                            );
                        }
                    }
                }
            }
        }
        no_range
    }

    #[test]
    fn compiled_check_table_matches_reference() {
        let topo = nwdp_topo::internet2();
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::gravity(&topo);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let lp = Arc::new(generate_manifests(&dep, &solve_nids_lp(&dep, &cfg).unwrap().d));
        // Each unit's whole hash space at one node of its path: every other
        // node on the path holds the unit with no range.
        let lopsided = Arc::new(SamplingManifest::from_entries(
            dep.num_nodes,
            dep.units.iter().enumerate().map(|(u, unit)| {
                let entry = ManifestEntry {
                    class: unit.class,
                    unit: u,
                    key: unit.key,
                    ranges: RangeSet::interval(0, HASH_SPACE),
                };
                (unit.nodes[u % unit.nodes.len()], entry)
            }),
        ));
        let names: Vec<String> = dep.classes.iter().map(|c| c.name.clone()).collect();
        let engines_for = |manifest: &Arc<SamplingManifest>| -> Vec<Engine<'_>> {
            (0..dep.num_nodes)
                .map(|j| {
                    let coord = CoordContext::with_shared(&dep, manifest.clone());
                    let h = KeyedHasher::unkeyed();
                    Engine::new(NodeId(j), Placement::EventEngine, &names, Some(coord), h).unwrap()
                })
                .collect()
        };

        assert_tables_match(&dep, &lp, &engines_for(&lp));
        let mut engines = engines_for(&lopsided);
        let no_range = assert_tables_match(&dep, &lopsided, &engines);
        assert!(no_range > 0, "the lopsided manifest must leave units without a range");
        // A live swap recompiles the table for the new manifest.
        for engine in &mut engines {
            engine.set_manifest(lp.clone()).unwrap();
        }
        assert_tables_match(&dep, &lp, &engines);
    }

    #[test]
    fn stats_attribute_per_module_cpu() {
        let (topo, dep) = small_setup();
        let names: Vec<String> = dep.classes.iter().map(|c| c.name.clone()).collect();
        let tm = TrafficMatrix::uniform(&topo);
        let trace = generate_trace(&topo, &tm, &TraceConfig::new(300, 9));
        let mut e =
            Engine::new(NodeId(0), Placement::Unmodified, &names, None, KeyedHasher::unkeyed())
                .unwrap();
        for s in &trace.sessions {
            e.process_session(s);
        }
        let st = e.stats();
        assert_eq!(st.per_module_cpu.len(), 9);
        // Signature (scans every payload byte) must be among the most
        // expensive modules.
        let sig = st.per_module_cpu.iter().find(|(n, _)| n == "Signature").unwrap().1;
        let median = {
            let mut v: Vec<u64> = st.per_module_cpu.iter().map(|(_, c)| *c).collect();
            v.sort();
            v[v.len() / 2]
        };
        assert!(sig >= median, "signature {sig} vs median {median}");
    }
}
