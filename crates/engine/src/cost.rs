//! Deterministic resource accounting.
//!
//! The paper measures its Bro prototype with `atop` on a specific Pentium
//! machine; we substitute a **cycle-accounting cost model** so that the
//! relative CPU/memory comparisons of Figs 5–8 are exactly reproducible on
//! any host (see DESIGN.md, substitutions). Every engine operation charges
//! cycles to a [`Meter`]; state allocations charge bytes. Real wall-clock
//! numbers come from the `perfbench` benchmark.
//!
//! The constants encode the *relative* costs that drive the paper's
//! observations: interpreted policy-script operations are an order of
//! magnitude more expensive than compiled event-engine operations (this is
//! why Fig 5(a) shows large overheads when coordination checks run in the
//! policy engine for HTTP/IRC/Login), and the per-connection hash fields
//! add a few percent of memory (Fig 5(b)).

/// Cycle/byte charges for engine operations.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Packet capture + IP/TCP decode, per packet.
    pub pkt_base: u64,
    /// Connection table lookup, per packet.
    pub conn_lookup: u64,
    /// Creating a connection record.
    pub conn_create: u64,
    /// Base connection record footprint (bytes). Bro-1.4 connection state
    /// is a few hundred bytes.
    pub conn_bytes: u64,
    /// Extra bytes when the record carries coordination hashes (§2.3: "we
    /// modified the connection record to additionally carry hashes of
    /// different combinations of the connection fields").
    pub conn_hash_bytes: u64,
    /// Computing one Bob hash over header fields.
    pub hash_compute: u64,
    /// A compiled (event-engine) range check.
    pub evt_check: u64,
    /// An interpreted (policy-engine) range check on a per-packet protocol
    /// event — Bro policy scripts run in an interpreter, so "doing hash
    /// lookups/checks is quite expensive" (§2.3).
    pub policy_check_pkt: u64,
    /// An interpreted range check on a per-connection event (conn setup /
    /// teardown reports to policy scripts like Scan).
    pub policy_check_conn: u64,
    /// Dispatching one event from the event engine to the policy layer.
    pub event_dispatch: u64,
    /// Interpreter multiplier for module work done in policy scripts
    /// relative to compiled analyzer work.
    pub interp_factor: u64,
    /// Signature matching cost per payload byte (automaton transition).
    pub sig_per_byte: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            pkt_base: 450,
            conn_lookup: 120,
            conn_create: 500,
            conn_bytes: 260,
            conn_hash_bytes: 16, // four 32-bit hash fields
            hash_compute: 35,
            evt_check: 10,
            policy_check_pkt: 350,
            policy_check_conn: 150,
            event_dispatch: 45,
            interp_factor: 10,
            sig_per_byte: 9,
        }
    }
}

/// Accumulated CPU cycles and live/peak memory.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    pub cpu_cycles: u64,
    pub mem_bytes: u64,
    pub mem_peak: u64,
}

impl Meter {
    pub fn new() -> Self {
        Meter::default()
    }

    #[inline]
    pub fn cpu(&mut self, cycles: u64) {
        self.cpu_cycles += cycles;
    }

    #[inline]
    pub fn alloc(&mut self, bytes: u64) {
        self.mem_bytes += bytes;
        if self.mem_bytes > self.mem_peak {
            self.mem_peak = self.mem_bytes;
        }
    }

    #[inline]
    pub fn free(&mut self, bytes: u64) {
        debug_assert!(self.mem_bytes >= bytes, "freeing more than allocated");
        self.mem_bytes = self.mem_bytes.saturating_sub(bytes);
    }

    /// Remove double-charged allocation bytes after a shard merge: per-host
    /// state that two shards both allocated was only allocated once in the
    /// equivalent single-engine run. Shard meters never free (the
    /// fine-grained extension is off on the streaming path), so their peak
    /// equals their total allocation and shrinks with it.
    pub fn refund_alloc(&mut self, bytes: u64) {
        self.mem_bytes = self.mem_bytes.saturating_sub(bytes);
        self.mem_peak = self.mem_peak.saturating_sub(bytes);
    }

    /// Merge another meter (e.g. per-module meters into a node total).
    pub fn absorb(&mut self, other: &Meter) {
        self.cpu_cycles += other.cpu_cycles;
        self.mem_bytes += other.mem_bytes;
        self.mem_peak = self.mem_peak.max(self.mem_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_tracks_peak() {
        let mut m = Meter::new();
        m.alloc(100);
        m.alloc(50);
        m.free(120);
        m.alloc(10);
        assert_eq!(m.mem_bytes, 40);
        assert_eq!(m.mem_peak, 150);
    }

    #[test]
    fn policy_checks_cost_more_than_event_checks() {
        let c = CostModel::default();
        assert!(c.policy_check_pkt >= 5 * c.evt_check);
        assert!(c.policy_check_conn >= 5 * c.evt_check);
        assert!(c.interp_factor >= 5);
    }

    #[test]
    fn hash_fields_are_small_fraction_of_record() {
        let c = CostModel::default();
        let frac = c.conn_hash_bytes as f64 / c.conn_bytes as f64;
        assert!(frac < 0.10, "hash memory overhead must stay under ~10%: {frac}");
    }
}
