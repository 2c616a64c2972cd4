//! Template sessions and deterministic packet synthesis.
//!
//! The paper's evaluation uses "template sessions using real traffic
//! captured for common protocols like HTTP, IRC, and Telnet, and
//! synthetically generate[d] traffic sessions for other protocols" (§2.4).
//! Here every protocol has a payload template skeleton; a [`Session`] is a
//! compact spec from which [`Session::packets`] synthesizes the same packet
//! sequence every time (handshake, application exchange, teardown), so
//! traces stay small in memory and runs are bit-reproducible.

use crate::profile::AppProtocol;
use nwdp_hash::FiveTuple;
use nwdp_topo::NodeId;

/// What kind of activity a session represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// Benign application session.
    Normal(AppProtocol),
    /// One probe of a port/address scan (single SYN, RST back).
    ScanProbe,
    /// One spoofed SYN of a SYN flood (no reply ever comes).
    SynFloodPkt,
    /// Blaster-style worm propagation attempt (RPC exploit + name).
    Blaster,
    /// Benign-looking app session whose payload carries a malware
    /// signature (exercises the Signature module).
    InfectedPayload(AppProtocol),
}

impl SessionKind {
    /// Application protocol whose port the session uses.
    pub fn app(&self) -> AppProtocol {
        match self {
            SessionKind::Normal(a) | SessionKind::InfectedPayload(a) => *a,
            SessionKind::ScanProbe => AppProtocol::OtherTcp,
            SessionKind::SynFloodPkt => AppProtocol::Http, // floods hit web servers
            SessionKind::Blaster => AppProtocol::Tftp,     // Blaster pulls itself via TFTP
        }
    }
}

/// A compact session spec. `tuple` is oriented initiator → responder.
#[derive(Debug, Clone)]
pub struct Session {
    pub id: u64,
    pub tuple: FiveTuple,
    pub kind: SessionKind,
    pub src_node: NodeId,
    pub dst_node: NodeId,
    /// Application-payload exchanges (request/response rounds) beyond the
    /// handshake; scales per-session work.
    pub exchanges: u8,
}

/// One synthesized packet.
#[derive(Debug, Clone, Copy)]
pub struct Packet<'a> {
    /// Oriented in the packet's travel direction.
    pub tuple: FiveTuple,
    pub forward: bool,
    pub syn: bool,
    pub ack: bool,
    pub fin: bool,
    pub rst: bool,
    pub payload: &'a [u8],
    /// Total on-wire size (headers + payload).
    pub size: u16,
}

/// Payload template skeletons per protocol and direction.
pub mod templates {
    /// Request-direction payloads, cycled across exchanges.
    pub fn request(app: crate::profile::AppProtocol) -> &'static [u8] {
        use crate::profile::AppProtocol as A;
        match app {
            A::Http => b"GET /index.html HTTP/1.1\r\nHost: www.example.com\r\nUser-Agent: nwdp/1.0\r\nAccept: */*\r\n\r\n",
            A::Irc => b"NICK ndwp\r\nUSER nwdp 8 * :nwdp\r\nJOIN #chan\r\nPRIVMSG #chan :hello there\r\n",
            A::Telnet => b"login: alice\r\nPassword: hunter2\r\nls -la\r\n",
            A::Tftp => b"\x00\x01netconfig.txt\x00octet\x00",
            A::Smtp => b"HELO client.example.com\r\nMAIL FROM:<a@example.com>\r\nRCPT TO:<b@example.org>\r\nDATA\r\n",
            A::Dns => b"\x12\x34\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00\x03www\x07example\x03com\x00\x00\x01\x00\x01",
            A::Ftp => b"USER anonymous\r\nPASS guest@\r\nRETR file.bin\r\n",
            A::Ssh => b"SSH-2.0-OpenSSH_5.1\r\n",
            A::OtherTcp => b"\x01\x02\x03\x04application data block\x00\x00",
        }
    }

    /// Response-direction payloads.
    pub fn response(app: crate::profile::AppProtocol) -> &'static [u8] {
        use crate::profile::AppProtocol as A;
        match app {
            A::Http => b"HTTP/1.1 200 OK\r\nServer: nwdpd\r\nContent-Type: text/html\r\nContent-Length: 42\r\n\r\n<html><body>hello world</body></html>\r\n\r\n",
            A::Irc => b":server 001 nwdp :Welcome\r\n:nwdp!u@h JOIN #chan\r\n",
            A::Telnet => b"Last login: Mon Jul  5\r\n$ ",
            A::Tftp => b"\x00\x03\x00\x01data-block-contents-here",
            A::Smtp => b"220 mail.example.org ESMTP\r\n250 OK\r\n354 go ahead\r\n",
            A::Dns => b"\x12\x34\x81\x80\x00\x01\x00\x01\x00\x00\x00\x00\x03www\x07example\x03com\x00\x00\x01\x00\x01\xc0\x0c\x00\x01\x00\x01\x00\x00\x0e\x10\x00\x04\x5d\xb8\xd8\x22",
            A::Ftp => b"230 Login successful.\r\n150 Opening BINARY mode\r\n",
            A::Ssh => b"SSH-2.0-OpenSSH_5.3\r\n",
            A::OtherTcp => b"\x04\x03\x02\x01response data block\x00\x00",
        }
    }

    /// The Blaster worm propagation payload: DCOM RPC exploit bytes
    /// followed by the worm binary name (the classic detection string).
    pub const BLASTER: &[u8] =
        b"\x05\x00\x0b\x03\x10\x00\x00\x00H\x00\x00\x00\x7f\x00\x00\x00\xd0\x16\xd0\x16\x90\x90\x90\x90msblast.exe I just want to say LOVE YOU SAN!!";

    /// Generic malware signature planted in infected payloads.
    pub const MALWARE_SIG: &[u8] = b"\x90\x90\x90\x90\xeb\x1fEVIL-NWDP-PAYLOAD-SIGNATURE";
}

const HDR: u16 = 40; // IP + TCP header estimate (UDP sessions just use it too)

impl Session {
    pub fn app(&self) -> AppProtocol {
        self.kind.app()
    }

    /// Synthesize the session's packet sequence.
    pub fn packets(&self) -> Vec<Packet<'static>> {
        let mut out = Vec::with_capacity(self.packet_count());
        self.packets_into(&mut out);
        out
    }

    /// Synthesize the packet sequence into a reusable buffer (cleared
    /// first). The streaming engine calls this once per session with a
    /// long-lived buffer, eliminating the per-session `Vec` allocation of
    /// [`Session::packets`].
    pub fn packets_into(&self, out: &mut Vec<Packet<'static>>) {
        out.clear();
        let fwd = self.tuple;
        let rev = self.tuple.reversed();
        let pkt = |tuple: FiveTuple, forward: bool, payload: &'static [u8]| Packet {
            tuple,
            forward,
            syn: false,
            ack: true,
            fin: false,
            rst: false,
            payload,
            size: HDR + payload.len() as u16,
        };
        match self.kind {
            SessionKind::SynFloodPkt => {
                out.push(Packet { syn: true, ack: false, ..pkt(fwd, true, b"") });
            }
            SessionKind::ScanProbe => {
                out.push(Packet { syn: true, ack: false, ..pkt(fwd, true, b"") });
                out.push(Packet { rst: true, ..pkt(rev, false, b"") });
            }
            SessionKind::Blaster => {
                out.push(Packet { syn: true, ack: false, ..pkt(fwd, true, b"") });
                out.push(Packet { syn: true, ..pkt(rev, false, b"") });
                out.push(pkt(fwd, true, b""));
                out.push(pkt(fwd, true, templates::BLASTER));
                out.push(pkt(rev, false, templates::response(AppProtocol::Tftp)));
                out.push(Packet { fin: true, ..pkt(fwd, true, b"") });
            }
            SessionKind::Normal(app) | SessionKind::InfectedPayload(app) => {
                let infected = matches!(self.kind, SessionKind::InfectedPayload(_));
                if !app.is_udp() {
                    out.push(Packet { syn: true, ack: false, ..pkt(fwd, true, b"") });
                    out.push(Packet { syn: true, ..pkt(rev, false, b"") });
                    out.push(pkt(fwd, true, b""));
                }
                for round in 0..self.exchanges.max(1) {
                    let req = if infected && round == 0 {
                        templates::MALWARE_SIG
                    } else {
                        templates::request(app)
                    };
                    out.push(pkt(fwd, true, req));
                    out.push(pkt(rev, false, templates::response(app)));
                }
                if !app.is_udp() {
                    out.push(Packet { fin: true, ..pkt(fwd, true, b"") });
                    out.push(Packet { fin: true, ..pkt(rev, false, b"") });
                }
            }
        }
    }

    /// Packet count without materializing the packets.
    pub fn packet_count(&self) -> usize {
        match self.kind {
            SessionKind::SynFloodPkt => 1,
            SessionKind::ScanProbe => 2,
            SessionKind::Blaster => 6,
            SessionKind::Normal(app) | SessionKind::InfectedPayload(app) => {
                let rounds = 2 * self.exchanges.max(1) as usize;
                if app.is_udp() {
                    rounds
                } else {
                    rounds + 5
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(kind: SessionKind) -> Session {
        Session {
            id: 1,
            tuple: FiveTuple::new(
                0x0a000001,
                0x0a010001,
                40000,
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
    fn tcp_session_has_handshake_and_teardown() {
        let s = mk(SessionKind::Normal(AppProtocol::Http));
        let pkts = s.packets();
        assert_eq!(pkts.len(), s.packet_count());
        assert!(pkts[0].syn && !pkts[0].ack && pkts[0].forward);
        assert!(pkts[1].syn && pkts[1].ack && !pkts[1].forward);
        assert!(pkts[pkts.len() - 1].fin);
        // Exactly the configured number of request payloads.
        let reqs = pkts
            .iter()
            .filter(|p| p.forward && p.payload == templates::request(AppProtocol::Http))
            .count();
        assert_eq!(reqs, 2);
    }

    #[test]
    fn udp_session_skips_handshake() {
        let s = mk(SessionKind::Normal(AppProtocol::Dns));
        let pkts = s.packets();
        assert!(pkts.iter().all(|p| !p.syn && !p.fin));
        assert_eq!(pkts.len(), 4); // 2 exchanges
    }

    #[test]
    fn scan_probe_is_syn_rst() {
        let s = mk(SessionKind::ScanProbe);
        let pkts = s.packets();
        assert_eq!(pkts.len(), 2);
        assert!(pkts[0].syn && pkts[0].forward);
        assert!(pkts[1].rst && !pkts[1].forward);
    }

    #[test]
    fn synflood_is_single_unanswered_syn() {
        let s = mk(SessionKind::SynFloodPkt);
        let pkts = s.packets();
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].syn && !pkts[0].ack);
    }

    #[test]
    fn blaster_carries_its_signature() {
        let s = mk(SessionKind::Blaster);
        let hit = s.packets().iter().any(|p| p.payload.windows(11).any(|w| w == b"msblast.exe"));
        assert!(hit);
    }

    #[test]
    fn infected_payload_carries_generic_signature() {
        let s = mk(SessionKind::InfectedPayload(AppProtocol::Http));
        let hit = s.packets().iter().any(|p| {
            p.payload.windows(templates::MALWARE_SIG.len()).any(|w| w == templates::MALWARE_SIG)
        });
        assert!(hit);
    }

    #[test]
    fn reverse_packets_use_reversed_tuple() {
        let s = mk(SessionKind::Normal(AppProtocol::Irc));
        for p in s.packets() {
            if p.forward {
                assert_eq!(p.tuple, s.tuple);
            } else {
                assert_eq!(p.tuple, s.tuple.reversed());
            }
        }
    }

    #[test]
    fn packets_into_reuses_buffer_and_matches_packets() {
        let mut buf = Vec::new();
        for kind in [
            SessionKind::Normal(AppProtocol::Http),
            SessionKind::ScanProbe,
            SessionKind::Blaster,
            SessionKind::Normal(AppProtocol::Dns),
        ] {
            let s = mk(kind);
            s.packets_into(&mut buf); // clears previous contents
            let fresh = s.packets();
            assert_eq!(buf.len(), fresh.len(), "{kind:?}");
            for (a, b) in buf.iter().zip(&fresh) {
                assert_eq!(a.tuple, b.tuple);
                assert_eq!(a.payload, b.payload);
                assert_eq!((a.syn, a.ack, a.fin, a.rst), (b.syn, b.ack, b.fin, b.rst));
            }
        }
    }

    #[test]
    fn packet_count_matches_for_all_kinds() {
        for kind in [
            SessionKind::Normal(AppProtocol::Http),
            SessionKind::Normal(AppProtocol::Tftp),
            SessionKind::ScanProbe,
            SessionKind::SynFloodPkt,
            SessionKind::Blaster,
            SessionKind::InfectedPayload(AppProtocol::Smtp),
        ] {
            let s = mk(kind);
            assert_eq!(s.packets().len(), s.packet_count(), "{kind:?}");
        }
    }
}
