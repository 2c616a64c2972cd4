//! Analysis modules (the Bro policy scripts / analyzers of Fig 4–5).
//!
//! Each module mirrors one of the paper's nine benchmark modules:
//! Baseline, Scan, IRC, Login, TFTP, HTTP, Blaster, Signature, SYNFlood
//! (DNS, FTP, SMTP and SSH extend the set). A module is two things, both
//! made by [`module_for_class`]:
//!
//! - a [`ModuleSpec`], the constants the engine reads as data: the
//!   traffic specification `T_i` (§2.1), the header fields its
//!   coordination check hashes, where that check *can* live
//!   ([`Stage::EventCapable`] vs [`Stage::PolicyOnly`]) — the paper found
//!   that HTTP/IRC/Login checks can move into the event engine, while
//!   Scan/TFTP/Blaster/SYNFlood inherently run in policy scripts — and at
//!   what granularity it receives events (per packet vs per connection);
//! - an [`Analyzer`], its per-packet behaviour and mergeable state.
//!
//! The engine owns each module's detections and lends them to the
//! analyzer as an [`AlertSink`], the one path from a detection to the
//! structured alert plane.

use crate::ac::AhoCorasick;
use crate::conn::ConnRecord;
use crate::cost::{CostModel, Meter};
use nwdp_hash::{FiveTuple, FlowKeyKind};
use nwdp_traffic::session::templates;
use nwdp_traffic::{AppProtocol, Packet};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Where the module's work (and hence its coordination check) can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The check occurs solely in the event engine in *both* approaches
    /// (e.g. the Signature engine, which only exists there).
    EventOnly,
    /// Analyzer instantiation happens in the event engine; the check can
    /// be hoisted there (approach 2 of §2.3).
    EventCapable,
    /// The module only exists as a policy script over a raw event stream;
    /// the check must stay in the (interpreted) policy engine.
    PolicyOnly,
}

/// How often the policy layer receives events for this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    PerPacket,
    PerConnection,
}

/// A module's traffic specification `T_i`: the connections it analyzes.
/// Bro derives its capture filter from the loaded analyzers, so a
/// module-in-isolation run (Fig 5) applies the same predicate to sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    All,
    /// One application protocol (identified by its server port).
    App(AppProtocol),
    /// Blaster's view: TFTP fetches and RPC-port (135) traffic.
    TftpOrRpc,
}

impl Traffic {
    /// Does `T_i` admit a connection to `dst_port` whose application
    /// protocol is `app`?
    pub(crate) fn admits(self, app: Option<AppProtocol>, dst_port: u16) -> bool {
        match self {
            Traffic::All => true,
            Traffic::App(a) => app == Some(a),
            Traffic::TftpOrRpc => app == Some(AppProtocol::Tftp) || dst_port == 135,
        }
    }

    /// The same test on an originator tuple, before any connection record
    /// exists (a capture filter).
    pub fn admits_tuple(self, tuple: &FiveTuple) -> bool {
        self.admits(AppProtocol::from_port(tuple.dst_port), tuple.dst_port)
    }
}

/// A module's constants, which the engine reads as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleSpec {
    /// The analysis-class name (duplicates carry the duplicate's name);
    /// it also labels the module's alerts.
    pub class_name: String,
    pub stage: Stage,
    pub granularity: Granularity,
    /// Header fields the coordination check hashes.
    pub key: FlowKeyKind,
    /// Does the module need every packet of a connection, or only the
    /// connection-level events (first packet / teardown)? §2.5 of the
    /// paper: Scan "needs to observe only the first packet in a
    /// connection" — modules with `false` here enable the fine-grained
    /// coordination extension (lightweight connection state).
    pub needs_all_packets: bool,
    pub traffic: Traffic,
}

/// A deterministic, comparable alert.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Alert {
    pub module: String,
    pub kind: &'static str,
    /// Deterministic subject (host address, connection originator, …).
    pub subject: u64,
}

/// One module's detections as `(kind, subject)` pairs, each at most once;
/// the engine labels them with the module's class name when it reports
/// [`Alert`]s.
pub(crate) type Detections = BTreeSet<(&'static str, u64)>;

/// One module's detections and class name, lent by the engine to
/// [`Analyzer::on_packet`] and [`Analyzer::absorb`].
pub struct AlertSink<'a> {
    class_name: &'a str,
    found: &'a mut Detections,
}

impl<'a> AlertSink<'a> {
    pub(crate) fn new(class_name: &'a str, found: &'a mut Detections) -> Self {
        AlertSink { class_name, found }
    }

    /// Record a detection; a new one also goes to the structured alert
    /// plane. Merge re-detections (shard `absorb`) have no triggering
    /// connection and pass `None`.
    pub fn raise(&mut self, kind: &'static str, subject: u64, conn: Option<&ConnRecord>) {
        if self.found.insert((kind, subject)) {
            emit_structured(self.class_name, kind, subject, conn);
        }
    }
}

/// Mergeable cross-connection module state, moved between shards of the
/// streaming data plane. Connections are shard-disjoint (sessions shard by
/// the keyed `BiSession` hash), so per-connection state never needs
/// merging; only *cross-connection* aggregates (per-host counters and
/// sets) can straddle shards and travel through this enum. Detections
/// are merged by the engine, not through here.
#[derive(Debug)]
pub enum ModuleState {
    /// No cross-connection state (per-connection state only).
    Stateless,
    /// Distinct destinations per source host (Scan).
    ScanDests(HashMap<u32, HashSet<u32>>),
    /// Bare-SYN counts per destination host (SYNFlood).
    SynCounts(HashMap<u32, usize>),
}

/// One analysis module's behaviour; its constants are its [`ModuleSpec`].
pub trait Analyzer: Send {
    /// Analyze one packet (already coordination-approved).
    fn on_packet(
        &mut self,
        pkt: &Packet<'_>,
        conn: &ConnRecord,
        is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
        alerts: &mut AlertSink<'_>,
    );
    /// Extract the module's mergeable cross-connection state, leaving the
    /// module empty of it. Modules without such state return
    /// [`ModuleState::Stateless`].
    fn take_state(&mut self) -> ModuleState {
        ModuleState::Stateless
    }
    /// Fold another shard's state into this module. `alerts` already
    /// holds both shards' detections; raise those whose thresholds are
    /// only crossed by the merged totals (counters are monotone, so
    /// `>= threshold` after the merge reproduces the batch `== threshold`
    /// firing exactly). Returns the state bytes double-charged across
    /// shards — per-host entries both shards allocated — which the caller
    /// refunds from the merged meter.
    fn absorb(&mut self, _state: ModuleState, _alerts: &mut AlertSink<'_>) -> u64 {
        0
    }
}

fn conn_subject(conn: &ConnRecord) -> u64 {
    ((conn.orig.src_ip as u64) << 32)
        | ((conn.orig.src_port as u64) << 16)
        | conn.orig.dst_port as u64
}

/// CEF-convention severity (1 informational ..= 10 critical) for each
/// detection kind the modules can fire.
pub fn severity_for(kind: &str) -> u8 {
    match kind {
        "blaster_worm" => 9,
        "syn_flood" => 8,
        "signature_match" => 7,
        "address_scan" => 5,
        "login_attempt" | "ftp_anonymous_login" => 4,
        "irc_join" | "tftp_rrq" => 3,
        "http_request" | "smtp_sender" | "ssh_session" => 2,
        _ => 1,
    }
}

/// Forward one *new* detection to the structured alert plane. No-op (one
/// relaxed atomic load) when `NWDP_ALERT` is off, so outputs stay
/// bit-identical. The module's detections and all counters are
/// unchanged — the plane is an additional egress, not a replacement.
fn emit_structured(module: &str, kind: &str, subject: u64, conn: Option<&ConnRecord>) {
    if !nwdp_obs::alert_enabled() {
        return;
    }
    let tuple = conn
        .map(|c| (c.orig.src_ip, c.orig.dst_ip, c.orig.src_port, c.orig.dst_port, c.orig.proto));
    nwdp_obs::emit_alert(module, kind, subject, severity_for(kind), tuple);
}

// ---------------------------------------------------------------- Baseline

/// Connection accounting: the work every Bro instance does for every
/// connection (setup, state updates, logging at the policy layer).
pub struct Baseline;

impl Analyzer for Baseline {
    fn on_packet(
        &mut self,
        _pkt: &Packet<'_>,
        _conn: &ConnRecord,
        is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
        _alerts: &mut AlertSink<'_>,
    ) {
        meter.cpu(25); // state update per packet
        if is_new_conn {
            // connection_established → policy logging.
            meter.cpu(costs.event_dispatch + 12 * costs.interp_factor);
        }
    }
}

// -------------------------------------------------------------------- Scan

/// Outbound scan detection: tracks distinct destinations per source over
/// a raw connection-event stream (policy-only, per the paper).
pub struct Scan {
    threshold: usize,
    dests: HashMap<u32, HashSet<u32>>,
}

impl Scan {
    pub fn new(threshold: usize) -> Self {
        Scan { threshold, dests: HashMap::new() }
    }
}

impl Analyzer for Scan {
    fn on_packet(
        &mut self,
        _pkt: &Packet<'_>,
        conn: &ConnRecord,
        is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
        alerts: &mut AlertSink<'_>,
    ) {
        if !is_new_conn {
            return;
        }
        // Interpreted per-connection bookkeeping (Scan is among the
        // heavier policy scripts).
        meter.cpu(30 * costs.interp_factor);
        let src = conn.orig.src_ip;
        let set = self.dests.entry(src).or_insert_with(|| {
            meter.alloc(72);
            HashSet::new()
        });
        if set.insert(conn.orig.dst_ip) {
            meter.alloc(8);
        }
        if set.len() == self.threshold {
            alerts.raise("address_scan", src as u64, Some(conn));
        }
    }
    fn take_state(&mut self) -> ModuleState {
        ModuleState::ScanDests(std::mem::take(&mut self.dests))
    }
    fn absorb(&mut self, state: ModuleState, alerts: &mut AlertSink<'_>) -> u64 {
        let ModuleState::ScanDests(dests) = state else { return 0 };
        let mut refund = 0u64;
        for (src, incoming) in dests {
            match self.dests.entry(src) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    refund += 72; // both shards allocated this source's set
                    let set = e.get_mut();
                    for d in incoming {
                        if !set.insert(d) {
                            refund += 8; // destination seen by both shards
                        }
                    }
                    if set.len() >= self.threshold {
                        alerts.raise("address_scan", src as u64, None);
                    }
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(incoming);
                }
            }
        }
        refund
    }
}

// ------------------------------------------------------- App-layer modules

/// One app-layer analyzer's protocol and costs.
struct AppRow {
    class: &'static str,
    app: AppProtocol,
    stage: Stage,
    granularity: Granularity,
    /// Byte pattern that triggers the module's "activity" alert.
    trigger: &'static [u8],
    alert_kind: &'static str,
    /// Per-connection parser state bytes.
    state_bytes: u64,
    /// Compiled parse cost per payload byte (×2 fixed point: 1 = 0.5
    /// cycles/byte).
    parse_cost_half_cycles: u64,
}

/// §2.3/§2.4: HTTP, IRC and Login instantiation can be checked in the
/// event engine, and the interactive protocols deliver per-packet protocol
/// events; TFTP only gets a raw policy event stream of connection-level
/// requests. DNS, FTP, SMTP and SSH extend the paper's nine modules.
static APP_ROWS: [AppRow; 8] = {
    use AppProtocol::*;
    use Granularity::*;
    use Stage::*;
    [
        AppRow {
            class: "HTTP",
            app: Http,
            stage: EventCapable,
            granularity: PerPacket,
            trigger: b"GET ",
            alert_kind: "http_request",
            state_bytes: 176,
            parse_cost_half_cycles: 16,
        },
        AppRow {
            class: "IRC",
            app: Irc,
            stage: EventCapable,
            granularity: PerPacket,
            trigger: b"JOIN ",
            alert_kind: "irc_join",
            state_bytes: 112,
            parse_cost_half_cycles: 12,
        },
        AppRow {
            class: "Login",
            app: Telnet,
            stage: EventCapable,
            granularity: PerPacket,
            trigger: b"login:",
            alert_kind: "login_attempt",
            state_bytes: 144,
            parse_cost_half_cycles: 18,
        },
        AppRow {
            class: "TFTP",
            app: Tftp,
            stage: PolicyOnly,
            granularity: PerConnection,
            trigger: b"\x00\x01",
            alert_kind: "tftp_rrq",
            state_bytes: 96,
            parse_cost_half_cycles: 10,
        },
        AppRow {
            class: "DNS",
            app: Dns,
            stage: EventCapable,
            granularity: PerPacket,
            trigger: b"\x07example",
            alert_kind: "dns_query",
            state_bytes: 80,
            parse_cost_half_cycles: 8,
        },
        AppRow {
            class: "FTP",
            app: Ftp,
            stage: EventCapable,
            granularity: PerPacket,
            trigger: b"USER anonymous",
            alert_kind: "ftp_anonymous_login",
            state_bytes: 128,
            parse_cost_half_cycles: 10,
        },
        AppRow {
            class: "SMTP",
            app: Smtp,
            stage: EventCapable,
            granularity: PerPacket,
            trigger: b"MAIL FROM:",
            alert_kind: "smtp_sender",
            state_bytes: 144,
            parse_cost_half_cycles: 12,
        },
        AppRow {
            class: "SSH",
            app: Ssh,
            stage: EventCapable,
            granularity: PerPacket,
            trigger: b"SSH-2.0-",
            alert_kind: "ssh_session",
            state_bytes: 96,
            parse_cost_half_cycles: 6,
        },
    ]
};

/// An app-layer analyzer: event-engine protocol parsing plus policy-layer
/// events, one per connection originator.
pub struct AppAnalyzer {
    row: &'static AppRow,
}

impl Analyzer for AppAnalyzer {
    fn on_packet(
        &mut self,
        pkt: &Packet<'_>,
        conn: &ConnRecord,
        is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
        alerts: &mut AlertSink<'_>,
    ) {
        let row = self.row;
        if is_new_conn {
            meter.alloc(row.state_bytes);
        }
        if pkt.payload.is_empty() {
            meter.cpu(8);
            return;
        }
        // Event-engine protocol parse.
        meter.cpu(40 + (pkt.payload.len() as u64 * row.parse_cost_half_cycles) / 2);
        if row.stage == Stage::PolicyOnly {
            // Policy-script processing of the raw event (interpreted).
            meter.cpu(22 * costs.interp_factor);
        }
        if contains(pkt.payload, row.trigger) {
            // Deliver a protocol event to the policy layer.
            meter.cpu(costs.event_dispatch + 8 * costs.interp_factor);
            alerts.raise(row.alert_kind, conn_subject(conn), Some(conn));
        }
    }
}

/// Does `needle` occur in `haystack`? Scans for its first byte and
/// compares the rest only there.
fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    let Some((&first, rest)) = needle.split_first() else {
        return true;
    };
    let Some(last) = haystack.len().checked_sub(needle.len()) else {
        return false;
    };
    haystack[..=last]
        .iter()
        .enumerate()
        .any(|(i, &b)| b == first && haystack[i + 1..=i + rest.len()] == *rest)
}

// ----------------------------------------------------------------- Blaster

/// Blaster worm detector: a policy script watching for the worm's
/// propagation pattern (exploit payload naming `msblast.exe`).
pub struct Blaster {
    ac: AhoCorasick,
}

impl Blaster {
    pub fn new() -> Self {
        Blaster { ac: AhoCorasick::new(&[b"msblast.exe"]) }
    }
}

impl Default for Blaster {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer for Blaster {
    fn on_packet(
        &mut self,
        pkt: &Packet<'_>,
        conn: &ConnRecord,
        is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
        alerts: &mut AlertSink<'_>,
    ) {
        if is_new_conn {
            meter.cpu(10 * costs.interp_factor);
        }
        if pkt.payload.is_empty() {
            return;
        }
        meter.cpu(pkt.payload.len() as u64 * costs.sig_per_byte);
        if self.ac.is_match(pkt.payload) {
            alerts.raise("blaster_worm", conn.orig.src_ip as u64, Some(conn));
        }
    }
}

// --------------------------------------------------------------- Signature

/// Generic signature matching over all TCP/UDP payloads (Bro's signature
/// engine; instantiation happens in the event engine). Matching is
/// **streaming per connection direction** — the automaton state persists
/// across packets, so signatures split over packet boundaries are found
/// (see [`AhoCorasick::scan_stream`]). The state is per (connection,
/// direction) and sessions shard by connection, so nothing merges across
/// shards.
pub struct Signature {
    ac: AhoCorasick,
    /// Automaton state per (connection, direction).
    stream_state: HashMap<(u64, bool), u32>,
}

impl Signature {
    /// The default signature set: the generic malware marker plus a few
    /// decoys that never match the benign templates.
    pub fn new() -> Self {
        Signature {
            ac: AhoCorasick::new(&[
                templates::MALWARE_SIG,
                b"\xde\xad\xbe\xef\xba\xad",
                b"cmd.exe /c tftp -i",
                b"\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41\x41",
            ]),
            stream_state: HashMap::new(),
        }
    }
}

impl Default for Signature {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer for Signature {
    fn on_packet(
        &mut self,
        pkt: &Packet<'_>,
        conn: &ConnRecord,
        is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
        alerts: &mut AlertSink<'_>,
    ) {
        if is_new_conn {
            meter.alloc(2 * 16); // per-direction stream state
        }
        if pkt.payload.is_empty() {
            return;
        }
        meter.cpu(pkt.payload.len() as u64 * costs.sig_per_byte);
        let key = (conn_subject(conn), pkt.forward);
        let state = self.stream_state.entry(key).or_insert(0);
        let (next, matched) = self.ac.scan_stream(*state, pkt.payload);
        *state = next;
        if matched {
            alerts.raise("signature_match", conn_subject(conn), Some(conn));
        }
    }
}

// ---------------------------------------------------------------- SYNFlood

/// Inbound SYN-flood detection: counts half-open SYNs per destination.
pub struct SynFlood {
    threshold: usize,
    syns: HashMap<u32, usize>,
}

impl SynFlood {
    pub fn new(threshold: usize) -> Self {
        SynFlood { threshold, syns: HashMap::new() }
    }
}

impl Analyzer for SynFlood {
    fn on_packet(
        &mut self,
        pkt: &Packet<'_>,
        conn: &ConnRecord,
        _is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
        alerts: &mut AlertSink<'_>,
    ) {
        if !pkt.syn || pkt.ack {
            return;
        }
        meter.cpu(12 * costs.interp_factor);
        let c = self.syns.entry(conn.orig.dst_ip).or_insert_with(|| {
            meter.alloc(48);
            0
        });
        *c += 1;
        if *c == self.threshold {
            alerts.raise("syn_flood", conn.orig.dst_ip as u64, Some(conn));
        }
    }
    fn take_state(&mut self) -> ModuleState {
        ModuleState::SynCounts(std::mem::take(&mut self.syns))
    }
    fn absorb(&mut self, state: ModuleState, alerts: &mut AlertSink<'_>) -> u64 {
        let ModuleState::SynCounts(counts) = state else { return 0 };
        let mut refund = 0u64;
        for (dst, c) in counts {
            match self.syns.entry(dst) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    refund += 48; // both shards allocated this victim's counter
                    *e.get_mut() += c;
                    if *e.get() >= self.threshold {
                        alerts.raise("syn_flood", dst as u64, None);
                    }
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(c);
                }
            }
        }
        refund
    }
}

/// Errors surfaced by the engine instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An analysis-class name has no registered module implementation
    /// (typically a typo in a deployment description or a class added to
    /// the optimizer without a matching analyzer).
    UnknownClass(String),
    /// A coordinated engine's class list differs from its deployment's
    /// by name or order. The compiled manifest check indexes cells by
    /// class position, so module `m` must run the deployment's class `m`.
    ClassListMismatch { engine: Vec<String>, deployment: Vec<String> },
    /// A manifest swap was requested on an engine running without a
    /// coordination context (edge-only / unmodified placement) — there is
    /// no manifest to replace.
    NotCoordinated,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownClass(name) => {
                write!(f, "no analysis module registered for class {name:?}")
            }
            EngineError::ClassListMismatch { engine, deployment } => {
                write!(f, "engine classes {engine:?} differ from the deployment's {deployment:?}")
            }
            EngineError::NotCoordinated => {
                write!(f, "manifest swap needs a coordinated engine (this one has no manifest)")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The module for an analysis-class name: its spec and a fresh analyzer.
/// Duplicate classes ("HTTP-dup3") get fresh instances of their base
/// module carrying the duplicate name, exactly like the paper's "fake
/// instances".
///
/// Unknown classes are reported as [`EngineError::UnknownClass`] rather
/// than panicking, so a bad deployment description fails gracefully.
pub fn module_for_class(class_name: &str) -> Result<(ModuleSpec, Box<dyn Analyzer>), EngineError> {
    use FlowKeyKind::{BiSession, Destination, Source};
    use Granularity::{PerConnection, PerPacket};
    use Stage::{EventCapable, EventOnly, PolicyOnly};
    let base = class_name.split('-').next().unwrap_or(class_name);
    let spec = |stage, granularity, key, needs_all_packets, traffic| ModuleSpec {
        class_name: class_name.to_string(),
        stage,
        granularity,
        key,
        needs_all_packets,
        traffic,
    };
    let all = Traffic::All;
    Ok(match base {
        "Baseline" => (spec(EventCapable, PerConnection, BiSession, true, all), Box::new(Baseline)),
        // Scan and SYNFlood consume only connection-level events (§2.5):
        // the first packet of each connection, bare SYNs.
        "Scan" => (spec(PolicyOnly, PerConnection, Source, false, all), Box::new(Scan::new(16))),
        "SYNFlood" => {
            (spec(PolicyOnly, PerConnection, Destination, false, all), Box::new(SynFlood::new(64)))
        }
        "Blaster" => (
            spec(PolicyOnly, PerConnection, BiSession, true, Traffic::TftpOrRpc),
            Box::new(Blaster::new()),
        ),
        "Signature" => {
            (spec(EventOnly, PerPacket, BiSession, true, all), Box::new(Signature::new()))
        }
        _ => {
            let Some(row) = APP_ROWS.iter().find(|row| row.class == base) else {
                return Err(EngineError::UnknownClass(class_name.to_string()));
            };
            let traffic = Traffic::App(row.app);
            (
                spec(row.stage, row.granularity, BiSession, true, traffic),
                Box::new(AppAnalyzer { row }),
            )
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwdp_topo::NodeId;
    use nwdp_traffic::{Session, SessionKind};

    #[test]
    fn contains_matches_a_window_search() {
        let hay = b"xxGETGET /a\x00\x01 JOIN #c MAIL FROM:<a> login:";
        for needle in [&b"GET "[..], b"JOIN ", b"login:", b"\x00\x01", b"x", b"GEX", b"Q"] {
            for cut in 0..=hay.len() {
                let h = &hay[..cut];
                let want = h.windows(needle.len()).any(|w| w == needle);
                assert_eq!(contains(h, needle), want, "{needle:?} in {h:?}");
            }
        }
        assert!(contains(b"abc", b""));
    }

    fn record(tuple: FiveTuple) -> ConnRecord {
        ConnRecord {
            orig: tuple,
            app: AppProtocol::from_port(tuple.dst_port),
            pkts: 0,
            bytes: 0,
            saw_syn: false,
            saw_fin: false,
            hashes: Default::default(),
            enabled: vec![],
            light: false,
        }
    }

    /// Feed a module one packet, lending it `found` as the engine would.
    fn feed(
        module: &mut dyn Analyzer,
        found: &mut Detections,
        pkt: &Packet<'_>,
        conn: &ConnRecord,
        is_new_conn: bool,
        meter: &mut Meter,
    ) {
        let costs = CostModel::default();
        module.on_packet(pkt, conn, is_new_conn, &costs, meter, &mut AlertSink::new("m", found));
    }

    /// Run one session through a fresh module for `class`, filtered by its
    /// traffic spec.
    fn run_session(class: &str, s: &Session) -> (Meter, Detections) {
        let (spec, mut module) = module_for_class(class).unwrap();
        let mut meter = Meter::new();
        let mut found = Detections::new();
        let conn = record(s.tuple);
        for (i, pkt) in s.packets().iter().enumerate() {
            if spec.traffic.admits(conn.app, conn.orig.dst_port) {
                feed(module.as_mut(), &mut found, pkt, &conn, i == 0, &mut meter);
            }
        }
        (meter, found)
    }

    fn session(kind: SessionKind, i: u32) -> Session {
        Session {
            id: i as u64,
            tuple: FiveTuple::new(
                0x0a000000 + i,
                0x0a010000 + i,
                40000 + (i % 1000) as u16,
                kind.app().server_port(),
                kind.app().ip_proto(),
            ),
            kind,
            src_node: NodeId(0),
            dst_node: NodeId(1),
            exchanges: 2,
        }
    }

    #[test]
    fn http_module_alerts_on_requests() {
        let (meter, found) =
            run_session("HTTP", &session(SessionKind::Normal(AppProtocol::Http), 1));
        assert_eq!(found.len(), 1);
        assert!(meter.cpu_cycles > 0);
        assert!(meter.mem_bytes >= 176);
    }

    #[test]
    fn http_ignores_non_http() {
        let (spec, _) = module_for_class("HTTP").unwrap();
        let s = session(SessionKind::Normal(AppProtocol::Irc), 2);
        let conn = record(s.tuple);
        assert!(!spec.traffic.admits(conn.app, conn.orig.dst_port));
    }

    #[test]
    fn scan_alerts_after_threshold_distinct_destinations() {
        let mut m = Scan::new(16);
        let mut found = Detections::new();
        let mut meter = Meter::new();
        let scanner = 0x0a000099u32;
        for i in 0..20u32 {
            let t = FiveTuple::new(scanner, 0x0a010000 + i, 41000, 445, 6);
            let conn = record(t);
            let s = session(SessionKind::ScanProbe, i);
            feed(&mut m, &mut found, &s.packets()[0], &conn, true, &mut meter);
        }
        assert_eq!(found.len(), 1);
        assert_eq!(found.iter().next().unwrap().1, scanner as u64);
    }

    #[test]
    fn scan_no_alert_below_threshold() {
        let mut m = Scan::new(16);
        let mut found = Detections::new();
        let mut meter = Meter::new();
        for i in 0..10u32 {
            let t = FiveTuple::new(7, 0x0a010000 + i, 41000, 445, 6);
            let conn = record(t);
            let s = session(SessionKind::ScanProbe, i);
            feed(&mut m, &mut found, &s.packets()[0], &conn, true, &mut meter);
        }
        assert!(found.is_empty());
    }

    #[test]
    fn synflood_counts_only_bare_syns() {
        let mut m = SynFlood::new(64);
        let mut found = Detections::new();
        let mut meter = Meter::new();
        for i in 0..100u32 {
            let s = session(SessionKind::SynFloodPkt, i);
            let mut t = s.tuple;
            t.dst_ip = 0x0a01_0001; // one victim
            let conn = record(t);
            let pkts = s.packets();
            feed(&mut m, &mut found, &pkts[0], &conn, true, &mut meter);
        }
        assert_eq!(found.len(), 1);
        // Normal handshake SYN-ACKs don't count.
        let mut m2 = SynFlood::new(2);
        let mut found2 = Detections::new();
        let s = session(SessionKind::Normal(AppProtocol::Http), 5);
        let conn = record(s.tuple);
        for pkt in s.packets().iter().skip(1) {
            feed(&mut m2, &mut found2, pkt, &conn, false, &mut meter);
        }
        assert!(found2.is_empty());
    }

    #[test]
    fn signature_finds_infected_payloads_only() {
        let (_, found) =
            run_session("Signature", &session(SessionKind::InfectedPayload(AppProtocol::Http), 1));
        assert_eq!(found.len(), 1);
        let (_, clean) =
            run_session("Signature", &session(SessionKind::Normal(AppProtocol::Http), 2));
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn signature_streams_across_packet_boundaries() {
        use nwdp_traffic::session::templates::MALWARE_SIG;
        let mut m = Signature::new();
        let mut found = Detections::new();
        let mut meter = Meter::new();
        let t = FiveTuple::new(0x0a000001, 0x0a010001, 40000, 80, 6);
        let conn = record(t);
        // Split the signature between two forward packets.
        let half = MALWARE_SIG.len() / 2;
        let mk = |payload: &'static [u8]| Packet {
            tuple: t,
            forward: true,
            syn: false,
            ack: true,
            fin: false,
            rst: false,
            payload,
            size: 40 + payload.len() as u16,
        };
        // Leak two halves as 'static for the test.
        let a: &'static [u8] = Box::leak(MALWARE_SIG[..half].to_vec().into_boxed_slice());
        let b: &'static [u8] = Box::leak(MALWARE_SIG[half..].to_vec().into_boxed_slice());
        feed(&mut m, &mut found, &mk(a), &conn, true, &mut meter);
        assert!(found.is_empty(), "half a signature must not alert");
        feed(&mut m, &mut found, &mk(b), &conn, false, &mut meter);
        assert_eq!(found.len(), 1, "split signature must be caught by streaming");
        // The reverse direction has independent state: the second half
        // alone on a new connection does not alert.
        let mut fresh = Signature::new();
        let mut fresh_found = Detections::new();
        feed(&mut fresh, &mut fresh_found, &mk(b), &conn, true, &mut meter);
        assert!(fresh_found.is_empty());
    }

    #[test]
    fn blaster_detects_worm_sessions() {
        let (_, found) = run_session("Blaster", &session(SessionKind::Blaster, 3));
        assert_eq!(found.len(), 1);
        let (_, clean) =
            run_session("Blaster", &session(SessionKind::Normal(AppProtocol::Tftp), 4));
        assert!(clean.is_empty());
    }

    #[test]
    fn module_factory_handles_duplicates() {
        let (m, _) = module_for_class("HTTP-dup3").unwrap();
        assert_eq!(m.class_name, "HTTP-dup3");
        assert_eq!(m.stage, Stage::EventCapable);
        let (t, _) = module_for_class("TFTP").unwrap();
        assert_eq!(t.stage, Stage::PolicyOnly);
    }

    #[test]
    fn module_factory_rejects_unknown_without_aborting() {
        let err = match module_for_class("NoSuchModule") {
            Ok(_) => panic!("unknown class must not resolve"),
            Err(e) => e,
        };
        assert_eq!(err, EngineError::UnknownClass("NoSuchModule".to_string()));
        assert!(err.to_string().contains("NoSuchModule"));
    }

    #[test]
    fn scan_merge_fires_alert_only_crossed_by_combined_shards() {
        let mut meter = Meter::new();
        let scanner = 0x0a000099u32;
        let (mut shard_a, mut found_a) = (Scan::new(16), Detections::new());
        let (mut shard_b, mut found_b) = (Scan::new(16), Detections::new());
        // 10 destinations per shard (one overlapping): neither shard alone
        // reaches the threshold of 16, the union (19 distinct) does.
        for i in 0..10u32 {
            let probe = &session(SessionKind::ScanProbe, i).packets()[0];
            let t = FiveTuple::new(scanner, 0x0a010000 + i, 41000, 445, 6);
            feed(&mut shard_a, &mut found_a, probe, &record(t), true, &mut meter);
            let t = FiveTuple::new(scanner, 0x0a010009 + i, 41000, 445, 6);
            feed(&mut shard_b, &mut found_b, probe, &record(t), true, &mut meter);
        }
        assert!(found_a.is_empty() && found_b.is_empty());
        let state = shard_b.take_state();
        found_a.extend(&found_b);
        let refund = shard_a.absorb(state, &mut AlertSink::new("Scan", &mut found_a));
        assert_eq!(found_a.len(), 1, "merged shards must cross the threshold");
        // Duplicate source set (72) plus one shared destination (8).
        assert_eq!(refund, 72 + 8);
    }

    #[test]
    fn synflood_merge_sums_counts_and_refunds_duplicates() {
        let mut meter = Meter::new();
        let (mut shard_a, mut found_a) = (SynFlood::new(64), Detections::new());
        let (mut shard_b, mut found_b) = (SynFlood::new(64), Detections::new());
        for i in 0..40u32 {
            let s = session(SessionKind::SynFloodPkt, i);
            let mut t = s.tuple;
            t.dst_ip = 0x0a01_0001;
            let pkts = s.packets();
            feed(&mut shard_a, &mut found_a, &pkts[0], &record(t), true, &mut meter);
            feed(&mut shard_b, &mut found_b, &pkts[0], &record(t), true, &mut meter);
        }
        assert!(found_a.is_empty() && found_b.is_empty());
        let state = shard_b.take_state();
        found_a.extend(&found_b);
        let refund = shard_a.absorb(state, &mut AlertSink::new("SYNFlood", &mut found_a));
        assert_eq!(found_a.len(), 1, "80 merged SYNs cross the 64 threshold");
        assert_eq!(refund, 48, "one victim counter allocated twice");
    }

    #[test]
    fn stage_assignment_matches_paper() {
        // §2.4: HTTP/IRC/Login checks go to the event engine; Scan, TFTP,
        // Blaster, SYNFlood stay in policy scripts.
        for (name, want) in [
            ("HTTP", Stage::EventCapable),
            ("IRC", Stage::EventCapable),
            ("Login", Stage::EventCapable),
            ("Signature", Stage::EventOnly),
            ("Scan", Stage::PolicyOnly),
            ("TFTP", Stage::PolicyOnly),
            ("Blaster", Stage::PolicyOnly),
            ("SYNFlood", Stage::PolicyOnly),
        ] {
            assert_eq!(module_for_class(name).unwrap().0.stage, want, "{name}");
        }
    }
}
