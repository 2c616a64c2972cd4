//! Application traffic profiles.
//!
//! The paper's traffic generator takes "a traffic profile (e.g., relative
//! popularity of different application ports)" and uses "template sessions
//! using real traffic captured for common protocols like HTTP, IRC, and
//! Telnet" (§2.4). [`TrafficProfile`] is that knob; [`TrafficProfile::mixed`]
//! reproduces the microbenchmark setting — "a mixed traffic profile that
//! stresses different modules".

use rand::rngs::StdRng;
use rand::RngExt;

/// Application protocols with template sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppProtocol {
    Http,
    Irc,
    Telnet,
    Tftp,
    Smtp,
    Dns,
    Ftp,
    Ssh,
    /// Miscellaneous TCP traffic on an ephemeral service port.
    OtherTcp,
}

impl AppProtocol {
    /// Well-known server port.
    pub fn server_port(&self) -> u16 {
        match self {
            AppProtocol::Http => 80,
            AppProtocol::Irc => 6667,
            AppProtocol::Telnet => 23,
            AppProtocol::Tftp => 69,
            AppProtocol::Smtp => 25,
            AppProtocol::Dns => 53,
            AppProtocol::Ftp => 21,
            AppProtocol::Ssh => 22,
            AppProtocol::OtherTcp => 8000,
        }
    }

    /// IP protocol number (6 = TCP, 17 = UDP).
    pub fn ip_proto(&self) -> u8 {
        match self {
            AppProtocol::Tftp | AppProtocol::Dns => 17,
            _ => 6,
        }
    }

    pub fn is_udp(&self) -> bool {
        self.ip_proto() == 17
    }

    pub const ALL: [AppProtocol; 9] = [
        AppProtocol::Http,
        AppProtocol::Irc,
        AppProtocol::Telnet,
        AppProtocol::Tftp,
        AppProtocol::Smtp,
        AppProtocol::Dns,
        AppProtocol::Ftp,
        AppProtocol::Ssh,
        AppProtocol::OtherTcp,
    ];

    /// Identify the protocol from a server port, if it is one of ours.
    pub fn from_port(port: u16) -> Option<AppProtocol> {
        AppProtocol::ALL.iter().copied().find(|a| a.server_port() == port)
    }
}

/// Relative popularity of application protocols.
#[derive(Debug, Clone)]
pub struct TrafficProfile {
    /// Normalized weights, same order as the `apps` list.
    weights: Vec<(AppProtocol, f64)>,
    cumulative: Vec<f64>,
}

impl TrafficProfile {
    pub fn new(mut weights: Vec<(AppProtocol, f64)>) -> Self {
        assert!(!weights.is_empty(), "empty profile");
        let total: f64 = weights.iter().map(|(_, w)| *w).sum();
        assert!(total > 0.0, "profile weights must be positive");
        for (_, w) in weights.iter_mut() {
            *w /= total;
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &(_, w) in &weights {
            acc += w;
            cumulative.push(acc);
        }
        TrafficProfile { weights, cumulative }
    }

    /// The paper's microbenchmark mix: every module gets exercised, web
    /// still dominates as in real traffic.
    pub fn mixed() -> Self {
        TrafficProfile::new(vec![
            (AppProtocol::Http, 0.35),
            (AppProtocol::Dns, 0.15),
            (AppProtocol::Smtp, 0.08),
            (AppProtocol::Irc, 0.08),
            (AppProtocol::Telnet, 0.08),
            (AppProtocol::Tftp, 0.08),
            (AppProtocol::Ftp, 0.06),
            (AppProtocol::Ssh, 0.06),
            (AppProtocol::OtherTcp, 0.06),
        ])
    }

    pub fn weight(&self, app: AppProtocol) -> f64 {
        self.weights.iter().find(|(a, _)| *a == app).map_or(0.0, |(_, w)| *w)
    }

    /// Sample a protocol.
    pub fn sample(&self, rng: &mut StdRng) -> AppProtocol {
        let u: f64 = rng.random_range(0.0..1.0);
        let idx = self.cumulative.iter().position(|&c| u < c).unwrap_or(self.weights.len() - 1);
        self.weights[idx].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn weights_normalized() {
        let p = TrafficProfile::mixed();
        let total: f64 = AppProtocol::ALL.iter().map(|&a| p.weight(a)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_tracks_weights() {
        let p = TrafficProfile::mixed();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 40_000;
        let mut http = 0usize;
        for _ in 0..n {
            if p.sample(&mut rng) == AppProtocol::Http {
                http += 1;
            }
        }
        let frac = http as f64 / n as f64;
        assert!((frac - 0.35).abs() < 0.02, "HTTP fraction {frac}");
    }

    #[test]
    fn port_round_trip() {
        for a in AppProtocol::ALL {
            assert_eq!(AppProtocol::from_port(a.server_port()), Some(a));
        }
        assert_eq!(AppProtocol::from_port(4444), None);
    }
}
