//! Analysis modules (the Bro policy scripts / analyzers of Fig 4–5).
//!
//! Each module mirrors one of the paper's nine benchmark modules:
//! Baseline, Scan, IRC, Login, TFTP, HTTP, Blaster, Signature, SYNFlood.
//! A module declares where its coordination check *can* live
//! ([`Stage::EventCapable`] vs [`Stage::PolicyOnly`]) — the paper found
//! that HTTP/IRC/Login checks can move into the event engine, while
//! Scan/TFTP/Blaster/SYNFlood inherently run in policy scripts — and at
//! what granularity it receives events (per packet vs per connection).

use crate::ac::AhoCorasick;
use crate::conn::ConnRecord;
use crate::cost::{CostModel, Meter};
use nwdp_hash::FlowKeyKind;
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

/// A deterministic, comparable alert.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Alert {
    pub module: String,
    pub kind: &'static str,
    /// Deterministic subject (host address, connection originator, …).
    pub subject: u64,
}

/// Mergeable cross-connection module state, moved between shards of the
/// streaming data plane. Connections are shard-disjoint (sessions shard by
/// the keyed `BiSession` hash), so per-connection state never needs
/// merging; only *cross-connection* aggregates (per-host counters and
/// sets) can straddle shards and travel through this enum.
#[derive(Debug)]
pub enum ModuleState {
    /// No cross-connection state (per-connection state only).
    Stateless,
    /// Connection counter (Baseline).
    ConnCount(u64),
    /// Distinct destinations per source host (Scan).
    ScanDests(HashMap<u32, HashSet<u32>>),
    /// Bare-SYN counts per destination host (SYNFlood).
    SynCounts(HashMap<u32, usize>),
    /// Alert-dedup subjects (the app-layer analyzers).
    Subjects(HashSet<u64>),
}

/// One analysis module.
pub trait Analyzer: Send {
    /// Must match the corresponding `AnalysisClass` name (duplicates use
    /// the duplicate class name).
    fn class_name(&self) -> &str;
    fn stage(&self) -> Stage;
    fn granularity(&self) -> Granularity;
    fn key_kind(&self) -> FlowKeyKind;
    /// The module's traffic specification `T_i`.
    fn wants(&self, conn: &ConnRecord) -> bool;
    /// Does the module need every packet of a connection, or only the
    /// connection-level events (first packet / teardown)? §2.5 of the
    /// paper: Scan "needs to observe only the first packet in a
    /// connection" — modules that return `false` here enable the
    /// fine-grained coordination extension (lightweight connection state).
    fn needs_all_packets(&self) -> bool {
        true
    }
    /// Analyze one packet (already coordination-approved).
    fn on_packet(
        &mut self,
        pkt: &Packet<'_>,
        conn: &ConnRecord,
        is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
    );
    fn alerts(&self) -> &BTreeSet<Alert>;
    /// Extract the module's mergeable cross-connection state, leaving the
    /// module empty of it. Modules without such state return
    /// [`ModuleState::Stateless`].
    fn take_state(&mut self) -> ModuleState {
        ModuleState::Stateless
    }
    /// Fold another shard's state and alerts into this module, emitting
    /// any alerts whose thresholds are only crossed by the merged totals
    /// (counters are monotone, so `>= threshold` after the merge
    /// reproduces the batch `== threshold` firing exactly). Returns the
    /// state bytes double-charged across shards — per-host entries both
    /// shards allocated — which the caller refunds from the merged meter.
    fn absorb(&mut self, state: ModuleState, alerts: &BTreeSet<Alert>) -> u64;
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
/// bit-identical. The module's `BTreeSet<Alert>` and all counters are
/// unchanged — the plane is an additional egress, not a replacement.
/// Merge re-detections (shard `absorb`) have no triggering connection and
/// pass `None`.
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
pub struct Baseline {
    alerts: BTreeSet<Alert>,
    conns_seen: u64,
}

impl Baseline {
    pub fn new() -> Self {
        Baseline { alerts: BTreeSet::new(), conns_seen: 0 }
    }
}

impl Default for Baseline {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer for Baseline {
    fn class_name(&self) -> &str {
        "Baseline"
    }
    fn stage(&self) -> Stage {
        Stage::EventCapable
    }
    fn granularity(&self) -> Granularity {
        Granularity::PerConnection
    }
    fn key_kind(&self) -> FlowKeyKind {
        FlowKeyKind::BiSession
    }
    fn wants(&self, _conn: &ConnRecord) -> bool {
        true
    }
    fn on_packet(
        &mut self,
        _pkt: &Packet<'_>,
        _conn: &ConnRecord,
        is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
    ) {
        meter.cpu(25); // state update per packet
        if is_new_conn {
            self.conns_seen += 1;
            // connection_established → policy logging.
            meter.cpu(costs.event_dispatch + 12 * costs.interp_factor);
        }
    }
    fn alerts(&self) -> &BTreeSet<Alert> {
        &self.alerts
    }
    fn take_state(&mut self) -> ModuleState {
        ModuleState::ConnCount(std::mem::take(&mut self.conns_seen))
    }
    fn absorb(&mut self, state: ModuleState, alerts: &BTreeSet<Alert>) -> u64 {
        self.alerts.extend(alerts.iter().cloned());
        if let ModuleState::ConnCount(c) = state {
            self.conns_seen += c;
        }
        0
    }
}

// -------------------------------------------------------------------- Scan

/// Outbound scan detection: tracks distinct destinations per source over
/// a raw connection-event stream (policy-only, per the paper).
pub struct Scan {
    threshold: usize,
    dests: HashMap<u32, HashSet<u32>>,
    alerts: BTreeSet<Alert>,
}

impl Scan {
    pub fn new(threshold: usize) -> Self {
        Scan { threshold, dests: HashMap::new(), alerts: BTreeSet::new() }
    }
}

impl Analyzer for Scan {
    fn class_name(&self) -> &str {
        "Scan"
    }
    fn stage(&self) -> Stage {
        Stage::PolicyOnly
    }
    fn granularity(&self) -> Granularity {
        Granularity::PerConnection
    }
    fn key_kind(&self) -> FlowKeyKind {
        FlowKeyKind::Source
    }
    fn needs_all_packets(&self) -> bool {
        false // §2.5: only the first packet of each connection
    }
    fn wants(&self, _conn: &ConnRecord) -> bool {
        true
    }
    fn on_packet(
        &mut self,
        _pkt: &Packet<'_>,
        conn: &ConnRecord,
        is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
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
        if set.len() == self.threshold
            && self.alerts.insert(Alert {
                module: "Scan".to_string(),
                kind: "address_scan",
                subject: src as u64,
            })
        {
            emit_structured("Scan", "address_scan", src as u64, Some(conn));
        }
    }
    fn alerts(&self) -> &BTreeSet<Alert> {
        &self.alerts
    }
    fn take_state(&mut self) -> ModuleState {
        ModuleState::ScanDests(std::mem::take(&mut self.dests))
    }
    fn absorb(&mut self, state: ModuleState, alerts: &BTreeSet<Alert>) -> u64 {
        self.alerts.extend(alerts.iter().cloned());
        let ModuleState::ScanDests(dests) = state else { return 0 };
        let threshold = self.threshold;
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
                    if set.len() >= threshold
                        && self.alerts.insert(Alert {
                            module: "Scan".to_string(),
                            kind: "address_scan",
                            subject: src as u64,
                        })
                    {
                        emit_structured("Scan", "address_scan", src as u64, None);
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

// --------------------------------------------------------- App-layer trio

/// Shared implementation for the HTTP / IRC / Login (Telnet) analyzers:
/// event-engine protocol parsing plus policy-layer events.
pub struct AppAnalyzer {
    name: String,
    app: AppProtocol,
    /// Byte pattern that triggers the module's "activity" alert.
    trigger: &'static [u8],
    alert_kind: &'static str,
    /// Per-connection parser state bytes.
    state_bytes: u64,
    /// Compiled parse cost per payload byte (×2 fixed point: 1 = 0.5
    /// cycles/byte).
    parse_cost_half_cycles: u64,
    tracked: HashSet<u64>,
    alerts: BTreeSet<Alert>,
}

impl AppAnalyzer {
    pub fn http(name: &str) -> Self {
        AppAnalyzer {
            name: name.to_string(),
            app: AppProtocol::Http,
            trigger: b"GET ",
            alert_kind: "http_request",
            state_bytes: 176,
            parse_cost_half_cycles: 16,
            tracked: HashSet::new(),
            alerts: BTreeSet::new(),
        }
    }

    pub fn irc(name: &str) -> Self {
        AppAnalyzer {
            name: name.to_string(),
            app: AppProtocol::Irc,
            trigger: b"JOIN ",
            alert_kind: "irc_join",
            state_bytes: 112,
            parse_cost_half_cycles: 12,
            tracked: HashSet::new(),
            alerts: BTreeSet::new(),
        }
    }

    pub fn login(name: &str) -> Self {
        AppAnalyzer {
            name: name.to_string(),
            app: AppProtocol::Telnet,
            trigger: b"login:",
            alert_kind: "login_attempt",
            state_bytes: 144,
            parse_cost_half_cycles: 18,
            tracked: HashSet::new(),
            alerts: BTreeSet::new(),
        }
    }

    pub fn tftp(name: &str) -> Self {
        AppAnalyzer {
            name: name.to_string(),
            app: AppProtocol::Tftp,
            trigger: b"\x00\x01",
            alert_kind: "tftp_rrq",
            state_bytes: 96,
            parse_cost_half_cycles: 10,
            tracked: HashSet::new(),
            alerts: BTreeSet::new(),
        }
    }

    /// DNS analyzer (extension beyond the paper's nine benchmark modules).
    pub fn dns(name: &str) -> Self {
        AppAnalyzer {
            name: name.to_string(),
            app: AppProtocol::Dns,
            trigger: b"\x07example",
            alert_kind: "dns_query",
            state_bytes: 80,
            parse_cost_half_cycles: 8,
            tracked: HashSet::new(),
            alerts: BTreeSet::new(),
        }
    }

    /// FTP control-channel analyzer (extension).
    pub fn ftp(name: &str) -> Self {
        AppAnalyzer {
            name: name.to_string(),
            app: AppProtocol::Ftp,
            trigger: b"USER anonymous",
            alert_kind: "ftp_anonymous_login",
            state_bytes: 128,
            parse_cost_half_cycles: 10,
            tracked: HashSet::new(),
            alerts: BTreeSet::new(),
        }
    }

    /// SMTP analyzer (extension).
    pub fn smtp(name: &str) -> Self {
        AppAnalyzer {
            name: name.to_string(),
            app: AppProtocol::Smtp,
            trigger: b"MAIL FROM:",
            alert_kind: "smtp_sender",
            state_bytes: 144,
            parse_cost_half_cycles: 12,
            tracked: HashSet::new(),
            alerts: BTreeSet::new(),
        }
    }

    /// SSH banner tracker (extension).
    pub fn ssh(name: &str) -> Self {
        AppAnalyzer {
            name: name.to_string(),
            app: AppProtocol::Ssh,
            trigger: b"SSH-2.0-",
            alert_kind: "ssh_session",
            state_bytes: 96,
            parse_cost_half_cycles: 6,
            tracked: HashSet::new(),
            alerts: BTreeSet::new(),
        }
    }

    fn is_tftp(&self) -> bool {
        self.app == AppProtocol::Tftp
    }
}

impl Analyzer for AppAnalyzer {
    fn class_name(&self) -> &str {
        &self.name
    }
    fn stage(&self) -> Stage {
        // §2.3/§2.4: HTTP, IRC and Login instantiation can be checked in
        // the event engine; TFTP only gets a raw policy event stream.
        if self.is_tftp() {
            Stage::PolicyOnly
        } else {
            Stage::EventCapable
        }
    }
    fn granularity(&self) -> Granularity {
        // TFTP's policy script consumes connection-level request events;
        // the interactive protocols deliver per-packet protocol events.
        if self.is_tftp() {
            Granularity::PerConnection
        } else {
            Granularity::PerPacket
        }
    }
    fn key_kind(&self) -> FlowKeyKind {
        FlowKeyKind::BiSession
    }
    fn wants(&self, conn: &ConnRecord) -> bool {
        conn.app == Some(self.app)
    }
    fn on_packet(
        &mut self,
        pkt: &Packet<'_>,
        conn: &ConnRecord,
        is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
    ) {
        if is_new_conn {
            meter.alloc(self.state_bytes);
        }
        if pkt.payload.is_empty() {
            meter.cpu(8);
            return;
        }
        // Event-engine protocol parse.
        meter.cpu(40 + (pkt.payload.len() as u64 * self.parse_cost_half_cycles) / 2);
        if self.is_tftp() {
            // Policy-script processing of the raw event (interpreted).
            meter.cpu(22 * costs.interp_factor);
        }
        let hit = pkt.payload.windows(self.trigger.len()).any(|w| w == self.trigger);
        if hit {
            // Deliver a protocol event to the policy layer.
            meter.cpu(costs.event_dispatch + 8 * costs.interp_factor);
            let subj = conn_subject(conn);
            if self.tracked.insert(subj) {
                self.alerts.insert(Alert {
                    module: self.name.clone(),
                    kind: self.alert_kind,
                    subject: subj,
                });
                emit_structured(&self.name, self.alert_kind, subj, Some(conn));
            }
        }
    }
    fn alerts(&self) -> &BTreeSet<Alert> {
        &self.alerts
    }
    fn take_state(&mut self) -> ModuleState {
        ModuleState::Subjects(std::mem::take(&mut self.tracked))
    }
    fn absorb(&mut self, state: ModuleState, alerts: &BTreeSet<Alert>) -> u64 {
        self.alerts.extend(alerts.iter().cloned());
        if let ModuleState::Subjects(s) = state {
            // Subject dedup is alert-level only; `tracked` carries no
            // metered allocation, so nothing is refunded.
            self.tracked.extend(s);
        }
        0
    }
}

// ----------------------------------------------------------------- Blaster

/// Blaster worm detector: a policy script watching for the worm's
/// propagation pattern (exploit payload naming `msblast.exe`).
pub struct Blaster {
    ac: AhoCorasick,
    alerts: BTreeSet<Alert>,
}

impl Blaster {
    pub fn new() -> Self {
        Blaster { ac: AhoCorasick::new(&[b"msblast.exe"]), alerts: BTreeSet::new() }
    }
}

impl Default for Blaster {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer for Blaster {
    fn class_name(&self) -> &str {
        "Blaster"
    }
    fn stage(&self) -> Stage {
        Stage::PolicyOnly
    }
    fn granularity(&self) -> Granularity {
        Granularity::PerConnection
    }
    fn key_kind(&self) -> FlowKeyKind {
        FlowKeyKind::BiSession
    }
    fn wants(&self, conn: &ConnRecord) -> bool {
        // Watches TFTP fetches and RPC-port traffic.
        conn.app == Some(AppProtocol::Tftp) || conn.orig.dst_port == 135
    }
    fn on_packet(
        &mut self,
        pkt: &Packet<'_>,
        conn: &ConnRecord,
        is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
    ) {
        if is_new_conn {
            meter.cpu(10 * costs.interp_factor);
        }
        if pkt.payload.is_empty() {
            return;
        }
        meter.cpu(pkt.payload.len() as u64 * costs.sig_per_byte);
        if self.ac.is_match(pkt.payload)
            && self.alerts.insert(Alert {
                module: "Blaster".to_string(),
                kind: "blaster_worm",
                subject: conn.orig.src_ip as u64,
            })
        {
            emit_structured("Blaster", "blaster_worm", conn.orig.src_ip as u64, Some(conn));
        }
    }
    fn alerts(&self) -> &BTreeSet<Alert> {
        &self.alerts
    }
    fn absorb(&mut self, _state: ModuleState, alerts: &BTreeSet<Alert>) -> u64 {
        self.alerts.extend(alerts.iter().cloned());
        0
    }
}

// --------------------------------------------------------------- Signature

/// Generic signature matching over all TCP/UDP payloads (Bro's signature
/// engine; instantiation happens in the event engine). Matching is
/// **streaming per connection direction** — the automaton state persists
/// across packets, so signatures split over packet boundaries are found
/// (see [`AhoCorasick::scan_stream`]).
pub struct Signature {
    ac: AhoCorasick,
    /// Automaton state per (connection, direction).
    stream_state: HashMap<(u64, bool), u32>,
    alerts: BTreeSet<Alert>,
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
            alerts: BTreeSet::new(),
        }
    }
}

impl Default for Signature {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer for Signature {
    fn class_name(&self) -> &str {
        "Signature"
    }
    fn stage(&self) -> Stage {
        Stage::EventOnly
    }
    fn granularity(&self) -> Granularity {
        Granularity::PerPacket
    }
    fn key_kind(&self) -> FlowKeyKind {
        FlowKeyKind::BiSession
    }
    fn wants(&self, _conn: &ConnRecord) -> bool {
        true
    }
    fn on_packet(
        &mut self,
        pkt: &Packet<'_>,
        conn: &ConnRecord,
        is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
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
        if matched
            && self.alerts.insert(Alert {
                module: "Signature".to_string(),
                kind: "signature_match",
                subject: conn_subject(conn),
            })
        {
            emit_structured("Signature", "signature_match", conn_subject(conn), Some(conn));
        }
    }
    fn alerts(&self) -> &BTreeSet<Alert> {
        &self.alerts
    }
    fn absorb(&mut self, _state: ModuleState, alerts: &BTreeSet<Alert>) -> u64 {
        // Stream-automaton state is per (connection, direction); sessions
        // shard by connection, so no cross-shard merging is needed.
        self.alerts.extend(alerts.iter().cloned());
        0
    }
}

// ---------------------------------------------------------------- SYNFlood

/// Inbound SYN-flood detection: counts half-open SYNs per destination.
pub struct SynFlood {
    threshold: usize,
    syns: HashMap<u32, usize>,
    alerts: BTreeSet<Alert>,
}

impl SynFlood {
    pub fn new(threshold: usize) -> Self {
        SynFlood { threshold, syns: HashMap::new(), alerts: BTreeSet::new() }
    }
}

impl Analyzer for SynFlood {
    fn class_name(&self) -> &str {
        "SYNFlood"
    }
    fn stage(&self) -> Stage {
        Stage::PolicyOnly
    }
    fn granularity(&self) -> Granularity {
        Granularity::PerConnection
    }
    fn key_kind(&self) -> FlowKeyKind {
        FlowKeyKind::Destination
    }
    fn needs_all_packets(&self) -> bool {
        false // only bare SYNs, observable from connection events
    }
    fn wants(&self, _conn: &ConnRecord) -> bool {
        true
    }
    fn on_packet(
        &mut self,
        pkt: &Packet<'_>,
        conn: &ConnRecord,
        _is_new_conn: bool,
        costs: &CostModel,
        meter: &mut Meter,
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
        if *c == self.threshold
            && self.alerts.insert(Alert {
                module: "SYNFlood".to_string(),
                kind: "syn_flood",
                subject: conn.orig.dst_ip as u64,
            })
        {
            emit_structured("SYNFlood", "syn_flood", conn.orig.dst_ip as u64, Some(conn));
        }
    }
    fn alerts(&self) -> &BTreeSet<Alert> {
        &self.alerts
    }
    fn take_state(&mut self) -> ModuleState {
        ModuleState::SynCounts(std::mem::take(&mut self.syns))
    }
    fn absorb(&mut self, state: ModuleState, alerts: &BTreeSet<Alert>) -> u64 {
        self.alerts.extend(alerts.iter().cloned());
        let ModuleState::SynCounts(counts) = state else { return 0 };
        let threshold = self.threshold;
        let mut refund = 0u64;
        for (dst, c) in counts {
            match self.syns.entry(dst) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    refund += 48; // both shards allocated this victim's counter
                    *e.get_mut() += c;
                    if *e.get() >= threshold
                        && self.alerts.insert(Alert {
                            module: "SYNFlood".to_string(),
                            kind: "syn_flood",
                            subject: dst as u64,
                        })
                    {
                        emit_structured("SYNFlood", "syn_flood", dst as u64, None);
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

/// The libpcap-style capture filter Bro derives from its loaded analyzers:
/// a module-in-isolation run receives only its own traffic (protocol
/// modules filter by server port; connection-level modules see all).
pub fn capture_filter(class_name: &str, s: &nwdp_traffic::Session) -> bool {
    use nwdp_traffic::AppProtocol as A;
    let base = class_name.split('-').next().unwrap_or(class_name);
    match base {
        "HTTP" => s.tuple.dst_port == A::Http.server_port(),
        "IRC" => s.tuple.dst_port == A::Irc.server_port(),
        "Login" => s.tuple.dst_port == A::Telnet.server_port(),
        "TFTP" => s.tuple.dst_port == A::Tftp.server_port(),
        "Blaster" => s.tuple.dst_port == A::Tftp.server_port() || s.tuple.dst_port == 135,
        _ => true,
    }
}

/// Errors surfaced by the engine instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An analysis-class name has no registered module implementation
    /// (typically a typo in a deployment description or a class added to
    /// the optimizer without a matching analyzer).
    UnknownClass(String),
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
            EngineError::NotCoordinated => {
                write!(f, "manifest swap needs a coordinated engine (this one has no manifest)")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Instantiate the module matching an analysis-class name. Duplicate
/// classes ("HTTP-dup3") get fresh instances of their base module carrying
/// the duplicate name, exactly like the paper's "fake instances".
///
/// Unknown classes are reported as [`EngineError::UnknownClass`] rather
/// than panicking, so a bad deployment description fails gracefully.
pub fn module_for_class(class_name: &str) -> Result<Box<dyn Analyzer>, EngineError> {
    let base = class_name.split('-').next().unwrap_or(class_name);
    Ok(match base {
        "Baseline" => Box::new(Baseline::new()),
        "Scan" => Box::new(Scan::new(16)),
        "IRC" => Box::new(AppAnalyzer::irc(class_name)),
        "Login" => Box::new(AppAnalyzer::login(class_name)),
        "TFTP" => Box::new(AppAnalyzer::tftp(class_name)),
        "HTTP" => Box::new(AppAnalyzer::http(class_name)),
        "Blaster" => Box::new(Blaster::new()),
        "Signature" => Box::new(Signature::new()),
        "SYNFlood" => Box::new(SynFlood::new(64)),
        "DNS" => Box::new(AppAnalyzer::dns(class_name)),
        "FTP" => Box::new(AppAnalyzer::ftp(class_name)),
        "SMTP" => Box::new(AppAnalyzer::smtp(class_name)),
        "SSH" => Box::new(AppAnalyzer::ssh(class_name)),
        _ => return Err(EngineError::UnknownClass(class_name.to_string())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwdp_hash::FiveTuple;
    use nwdp_topo::NodeId;
    use nwdp_traffic::{Session, SessionKind};

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

    fn run_session(module: &mut dyn Analyzer, s: &Session) -> Meter {
        let costs = CostModel::default();
        let mut meter = Meter::new();
        let conn = record(s.tuple);
        for (i, pkt) in s.packets().iter().enumerate() {
            if module.wants(&conn) {
                module.on_packet(pkt, &conn, i == 0, &costs, &mut meter);
            }
        }
        meter
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
        let mut m = AppAnalyzer::http("HTTP");
        let meter = run_session(&mut m, &session(SessionKind::Normal(AppProtocol::Http), 1));
        assert_eq!(m.alerts().len(), 1);
        assert!(meter.cpu_cycles > 0);
        assert!(meter.mem_bytes >= 176);
    }

    #[test]
    fn http_ignores_non_http() {
        let m = AppAnalyzer::http("HTTP");
        let s = session(SessionKind::Normal(AppProtocol::Irc), 2);
        let conn = record(s.tuple);
        assert!(!m.wants(&conn));
    }

    #[test]
    fn scan_alerts_after_threshold_distinct_destinations() {
        let mut m = Scan::new(16);
        let costs = CostModel::default();
        let mut meter = Meter::new();
        let scanner = 0x0a000099u32;
        for i in 0..20u32 {
            let t = FiveTuple::new(scanner, 0x0a010000 + i, 41000, 445, 6);
            let conn = record(t);
            let s = session(SessionKind::ScanProbe, i);
            m.on_packet(&s.packets()[0], &conn, true, &costs, &mut meter);
        }
        assert_eq!(m.alerts().len(), 1);
        assert_eq!(m.alerts().iter().next().unwrap().subject, scanner as u64);
    }

    #[test]
    fn scan_no_alert_below_threshold() {
        let mut m = Scan::new(16);
        let costs = CostModel::default();
        let mut meter = Meter::new();
        for i in 0..10u32 {
            let t = FiveTuple::new(7, 0x0a010000 + i, 41000, 445, 6);
            let conn = record(t);
            let s = session(SessionKind::ScanProbe, i);
            m.on_packet(&s.packets()[0], &conn, true, &costs, &mut meter);
        }
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn synflood_counts_only_bare_syns() {
        let mut m = SynFlood::new(64);
        let costs = CostModel::default();
        let mut meter = Meter::new();
        for i in 0..100u32 {
            let s = session(SessionKind::SynFloodPkt, i);
            let mut t = s.tuple;
            t.dst_ip = 0x0a01_0001; // one victim
            let conn = record(t);
            let pkts = s.packets();
            m.on_packet(&pkts[0], &conn, true, &costs, &mut meter);
        }
        assert_eq!(m.alerts().len(), 1);
        // Normal handshake SYN-ACKs don't count.
        let mut m2 = SynFlood::new(2);
        let s = session(SessionKind::Normal(AppProtocol::Http), 5);
        let conn = record(s.tuple);
        for pkt in s.packets().iter().skip(1) {
            m2.on_packet(pkt, &conn, false, &costs, &mut meter);
        }
        assert!(m2.alerts().is_empty());
    }

    #[test]
    fn signature_finds_infected_payloads_only() {
        let mut m = Signature::new();
        run_session(&mut m, &session(SessionKind::InfectedPayload(AppProtocol::Http), 1));
        assert_eq!(m.alerts().len(), 1);
        let mut clean = Signature::new();
        run_session(&mut clean, &session(SessionKind::Normal(AppProtocol::Http), 2));
        assert!(clean.alerts().is_empty(), "{:?}", clean.alerts());
    }

    #[test]
    fn signature_streams_across_packet_boundaries() {
        use nwdp_traffic::session::templates::MALWARE_SIG;
        let mut m = Signature::new();
        let costs = CostModel::default();
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
        m.on_packet(&mk(a), &conn, true, &costs, &mut meter);
        assert!(m.alerts().is_empty(), "half a signature must not alert");
        m.on_packet(&mk(b), &conn, false, &costs, &mut meter);
        assert_eq!(m.alerts().len(), 1, "split signature must be caught by streaming");
        // The reverse direction has independent state: the second half
        // alone on a new connection does not alert.
        let mut fresh = Signature::new();
        fresh.on_packet(&mk(b), &conn, true, &costs, &mut meter);
        assert!(fresh.alerts().is_empty());
    }

    #[test]
    fn blaster_detects_worm_sessions() {
        let mut m = Blaster::new();
        run_session(&mut m, &session(SessionKind::Blaster, 3));
        assert_eq!(m.alerts().len(), 1);
        let mut clean = Blaster::new();
        run_session(&mut clean, &session(SessionKind::Normal(AppProtocol::Tftp), 4));
        assert!(clean.alerts().is_empty());
    }

    #[test]
    fn module_factory_handles_duplicates() {
        let m = module_for_class("HTTP-dup3").unwrap();
        assert_eq!(m.class_name(), "HTTP-dup3");
        assert_eq!(m.stage(), Stage::EventCapable);
        let t = module_for_class("TFTP").unwrap();
        assert_eq!(t.stage(), Stage::PolicyOnly);
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
        let costs = CostModel::default();
        let mut meter = Meter::new();
        let scanner = 0x0a000099u32;
        let mut shard_a = Scan::new(16);
        let mut shard_b = Scan::new(16);
        // 10 destinations per shard (one overlapping): neither shard alone
        // reaches the threshold of 16, the union (19 distinct) does.
        for i in 0..10u32 {
            let t = FiveTuple::new(scanner, 0x0a010000 + i, 41000, 445, 6);
            shard_a.on_packet(
                &session(SessionKind::ScanProbe, i).packets()[0],
                &record(t),
                true,
                &costs,
                &mut meter,
            );
            let t = FiveTuple::new(scanner, 0x0a010009 + i, 41000, 445, 6);
            shard_b.on_packet(
                &session(SessionKind::ScanProbe, i).packets()[0],
                &record(t),
                true,
                &costs,
                &mut meter,
            );
        }
        assert!(shard_a.alerts().is_empty() && shard_b.alerts().is_empty());
        let state = shard_b.take_state();
        let alerts = shard_b.alerts().clone();
        let refund = shard_a.absorb(state, &alerts);
        assert_eq!(shard_a.alerts().len(), 1, "merged shards must cross the threshold");
        // Duplicate source set (72) plus one shared destination (8).
        assert_eq!(refund, 72 + 8);
    }

    #[test]
    fn synflood_merge_sums_counts_and_refunds_duplicates() {
        let costs = CostModel::default();
        let mut meter = Meter::new();
        let mut shard_a = SynFlood::new(64);
        let mut shard_b = SynFlood::new(64);
        for i in 0..40u32 {
            let s = session(SessionKind::SynFloodPkt, i);
            let mut t = s.tuple;
            t.dst_ip = 0x0a01_0001;
            let pkts = s.packets();
            shard_a.on_packet(&pkts[0], &record(t), true, &costs, &mut meter);
            shard_b.on_packet(&pkts[0], &record(t), true, &costs, &mut meter);
        }
        assert!(shard_a.alerts().is_empty() && shard_b.alerts().is_empty());
        let state = shard_b.take_state();
        let alerts = shard_b.alerts().clone();
        let refund = shard_a.absorb(state, &alerts);
        assert_eq!(shard_a.alerts().len(), 1, "80 merged SYNs cross the 64 threshold");
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
            assert_eq!(module_for_class(name).unwrap().stage(), want, "{name}");
        }
    }
}
