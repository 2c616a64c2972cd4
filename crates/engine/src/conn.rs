//! Connection tracking (the Bro event engine's connection records).
//!
//! "Bro maintains a connection record for each end-to-end session which is
//! generated in the event engine and carried into the policy engine"
//! (§2.3). The coordinated prototype extends the record with hashes of
//! different header-field combinations so policy scripts never recompute
//! them; this costs a few percent of memory (Fig 5(b)) but makes the
//! coordination checks cheap.

use crate::cost::{CostModel, Meter};
use nwdp_hash::{FiveTuple, FlowKeyKind, KeyedHasher};
use nwdp_traffic::AppProtocol;
use std::collections::HashMap;

/// Precomputed coordination hashes carried in the connection record.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnHashes {
    pub uniflow: f64,
    pub bisession: f64,
    pub source: f64,
    pub destination: f64,
}

impl ConnHashes {
    pub fn get(&self, kind: FlowKeyKind) -> f64 {
        match kind {
            FlowKeyKind::UniFlow => self.uniflow,
            FlowKeyKind::BiSession => self.bisession,
            FlowKeyKind::Source => self.source,
            FlowKeyKind::Destination => self.destination,
            FlowKeyKind::HostPair => self.bisession,
        }
    }
}

/// A connection record.
#[derive(Debug, Clone)]
pub struct ConnRecord {
    /// Originator-oriented tuple (the connection's canonical identity).
    pub orig: FiveTuple,
    pub app: Option<AppProtocol>,
    pub pkts: u64,
    pub bytes: u64,
    pub saw_syn: bool,
    pub saw_fin: bool,
    /// Coordination hashes (populated only in coordinated deployments).
    pub hashes: ConnHashes,
    /// Per-module analysis opt-in decided at connection setup (used by the
    /// event-engine check placement): `enabled[m]` = module `m` analyzes
    /// this connection.
    pub enabled: Vec<bool>,
    /// §2.5 fine-grained extension: the connection is tracked in a
    /// lightweight record because every interested module consumes only
    /// connection-level events (no per-packet analysis needed).
    pub light: bool,
}

/// The connection table.
#[derive(Debug)]
pub struct ConnTable {
    map: HashMap<FiveTuple, usize>,
    records: Vec<ConnRecord>,
    /// Whether records carry coordination hashes (+memory, Fig 5(b)).
    with_hashes: bool,
    n_modules: usize,
}

impl ConnTable {
    pub fn new(with_hashes: bool, n_modules: usize) -> Self {
        ConnTable { map: HashMap::new(), records: Vec::new(), with_hashes, n_modules }
    }

    fn canonical(t: &FiveTuple) -> FiveTuple {
        // Bidirectional canonical key (same for both directions).
        let r = t.reversed();
        if (t.src_ip, t.src_port) <= (r.src_ip, r.src_port) {
            *t
        } else {
            r
        }
    }

    /// Record size in bytes under the cost model.
    pub fn record_bytes(&self, costs: &CostModel) -> u64 {
        costs.conn_bytes
            + if self.with_hashes { costs.conn_hash_bytes } else { 0 }
            + self.n_modules as u64 // enabled-bitmap footprint
    }

    /// Size of a §2.5 lightweight record: enough for the 5-tuple, counters
    /// and hashes, but no reassembly/analyzer state.
    pub fn light_record_bytes(&self, costs: &CostModel) -> u64 {
        64 + if self.with_hashes { costs.conn_hash_bytes } else { 0 }
    }

    /// Downgrade a record to the lightweight representation, refunding the
    /// memory difference (called once the engine knows only conn-level
    /// modules are interested).
    pub fn make_light(&mut self, idx: usize, costs: &CostModel, meter: &mut Meter) {
        let full = self.record_bytes(costs);
        let light = self.light_record_bytes(costs);
        let rec = &mut self.records[idx];
        if !rec.light {
            rec.light = true;
            meter.free(full.saturating_sub(light));
        }
    }

    /// Look up the record for a tuple without creating one (no cost
    /// charged). The engine probes once per session (once per packet in
    /// `Engine::process_packet`): the §2.3 fast path reads the result,
    /// and [`ConnTable::upsert`] reuses it.
    pub fn find(&self, tuple: &FiveTuple) -> Option<usize> {
        self.map.get(&Self::canonical(tuple)).copied()
    }

    /// Resolve the record for a packet from `found`, the result of
    /// [`ConnTable::find`] on the same tuple, creating the record when it
    /// is `None`. Charges lookup / creation costs. Returns
    /// `(index, is_new)`; the packet's tuple becomes the originator tuple
    /// on creation (first packet wins).
    pub fn upsert(
        &mut self,
        tuple: &FiveTuple,
        found: Option<usize>,
        hasher: &KeyedHasher,
        costs: &CostModel,
        meter: &mut Meter,
    ) -> (usize, bool) {
        meter.cpu(costs.conn_lookup);
        if let Some(idx) = found {
            return (idx, false);
        }
        meter.cpu(costs.conn_create);
        meter.alloc(self.record_bytes(costs));
        let hashes = if self.with_hashes {
            // §2.3: computed once at connection setup, carried in the
            // record; avoids recomputation in every policy script.
            meter.cpu(costs.hash_compute * 4);
            ConnHashes {
                uniflow: hasher.unit_hash(tuple, FlowKeyKind::UniFlow),
                bisession: hasher.unit_hash(tuple, FlowKeyKind::BiSession),
                source: hasher.unit_hash(tuple, FlowKeyKind::Source),
                destination: hasher.unit_hash(tuple, FlowKeyKind::Destination),
            }
        } else {
            ConnHashes::default()
        };
        let idx = self.records.len();
        self.records.push(ConnRecord {
            orig: *tuple,
            app: AppProtocol::from_port(tuple.dst_port),
            pkts: 0,
            bytes: 0,
            saw_syn: false,
            saw_fin: false,
            hashes,
            enabled: vec![true; self.n_modules],
            light: false,
        });
        self.map.insert(Self::canonical(tuple), idx);
        (idx, true)
    }

    pub fn get(&self, idx: usize) -> &ConnRecord {
        &self.records[idx]
    }

    pub fn get_mut(&mut self, idx: usize) -> &mut ConnRecord {
        &mut self.records[idx]
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FiveTuple {
        FiveTuple::new(0x0a000001, 0x0a010002, 41000, 80, 6)
    }

    #[test]
    fn both_directions_hit_same_record() {
        let mut t = ConnTable::new(true, 3);
        let h = KeyedHasher::unkeyed();
        let c = CostModel::default();
        let mut m = Meter::new();
        let (i1, new1) = t.upsert(&tuple(), t.find(&tuple()), &h, &c, &mut m);
        let (i2, new2) = t.upsert(&tuple().reversed(), t.find(&tuple().reversed()), &h, &c, &mut m);
        assert_eq!(i1, i2);
        assert!(new1 && !new2);
        assert_eq!(t.len(), 1);
        // Originator orientation preserved from the first packet.
        assert_eq!(t.get(i1).orig, tuple());
    }

    #[test]
    fn hash_fields_cost_memory() {
        let c = CostModel::default();
        let h = KeyedHasher::unkeyed();
        let mut with = Meter::new();
        let mut without = Meter::new();
        let mut tw = ConnTable::new(true, 0);
        let mut tn = ConnTable::new(false, 0);
        tw.upsert(&tuple(), tw.find(&tuple()), &h, &c, &mut with);
        tn.upsert(&tuple(), tn.find(&tuple()), &h, &c, &mut without);
        assert_eq!(with.mem_bytes - without.mem_bytes, c.conn_hash_bytes);
        assert!(with.cpu_cycles > without.cpu_cycles, "hash computation charged");
    }

    #[test]
    fn distinct_connections_distinct_records() {
        let mut t = ConnTable::new(false, 0);
        let h = KeyedHasher::unkeyed();
        let c = CostModel::default();
        let mut m = Meter::new();
        t.upsert(&tuple(), t.find(&tuple()), &h, &c, &mut m);
        let mut other = tuple();
        other.src_port = 50000;
        t.upsert(&other, t.find(&other), &h, &c, &mut m);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn record_hash_consistency_with_keyed_hasher() {
        let mut t = ConnTable::new(true, 0);
        let h = KeyedHasher::with_key(42);
        let c = CostModel::default();
        let mut m = Meter::new();
        let (i, _) = t.upsert(&tuple(), t.find(&tuple()), &h, &c, &mut m);
        let r = t.get(i);
        assert_eq!(r.hashes.bisession, h.unit_hash(&tuple(), FlowKeyKind::BiSession));
        assert_eq!(r.hashes.bisession, h.unit_hash(&tuple().reversed(), FlowKeyKind::BiSession));
    }
}
