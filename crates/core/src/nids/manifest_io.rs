//! Sampling-manifest serialization.
//!
//! The paper's §2.2 envisions "a centralized operations center
//! \[that\] periodically configures the NIDS responsibilities of the
//! different nodes". This module provides the wire artifact for that push:
//! a line-oriented text encoding of one node's manifest, parseable without
//! any dependencies. One line per (unit, segment), the segment's endpoints
//! as points `lo hi` of the 2³² hash lattice (`[lo, hi)`, `lo ≤ hi ≤ 2³²`):
//!
//! ```text
//! manifest node 3
//! range unit 17 class 2 key path 0 10 1073741824 3221225472
//! range unit 580 class 1 key ingress 3 0 4294967296
//! ```

use super::manifest::{ManifestEntry, SamplingManifest};
use crate::units::UnitKey;
use nwdp_hash::{RangeSet, HASH_SPACE};
use nwdp_topo::NodeId;

/// Serialize one node's manifest.
pub fn node_manifest_to_text(manifest: &SamplingManifest, node: NodeId) -> String {
    let mut out = format!("manifest node {}\n", node.index());
    for e in manifest.node_entries(node) {
        let key = match e.key {
            UnitKey::Path(s, d) => format!("path {} {}", s.index(), d.index()),
            UnitKey::Ingress(n) => format!("ingress {}", n.index()),
            UnitKey::Egress(n) => format!("egress {}", n.index()),
        };
        for seg in e.ranges.segments() {
            out.push_str(&format!(
                "range unit {} class {} key {} {} {}\n",
                e.unit, e.class, key, seg.lo, seg.hi
            ));
        }
    }
    out
}

/// A parsed manifest line set for one node (the node-local view used by a
/// remote NIDS instance).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeManifest {
    pub node: NodeId,
    pub entries: Vec<ManifestEntry>,
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ManifestParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ManifestParseError {}

fn err(line: usize, message: impl Into<String>) -> ManifestParseError {
    ManifestParseError { line, message: message.into() }
}

/// Parse one node's manifest text back into entries (merging multiple
/// segments of the same unit into one [`RangeSet`]).
pub fn node_manifest_from_text(text: &str) -> Result<NodeManifest, ManifestParseError> {
    let mut node: Option<NodeId> = None;
    let mut entries: Vec<ManifestEntry> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tok: Vec<&str> = line.split_whitespace().collect();
        match tok.as_slice() {
            ["manifest", "node", n] => {
                let idx: usize = n.parse().map_err(|_| err(lineno, "bad node index"))?;
                node = Some(NodeId(idx));
            }
            ["range", "unit", unit, "class", class, "key", rest @ ..] => {
                let unit: usize = unit.parse().map_err(|_| err(lineno, "bad unit index"))?;
                let class: usize = class.parse().map_err(|_| err(lineno, "bad class index"))?;
                let (key, lo_s, hi_s) = match rest {
                    ["path", s, d, lo, hi] => (
                        UnitKey::Path(
                            NodeId(s.parse().map_err(|_| err(lineno, "bad path src"))?),
                            NodeId(d.parse().map_err(|_| err(lineno, "bad path dst"))?),
                        ),
                        lo,
                        hi,
                    ),
                    ["ingress", n, lo, hi] => (
                        UnitKey::Ingress(NodeId(
                            n.parse().map_err(|_| err(lineno, "bad ingress"))?,
                        )),
                        lo,
                        hi,
                    ),
                    ["egress", n, lo, hi] => (
                        UnitKey::Egress(NodeId(n.parse().map_err(|_| err(lineno, "bad egress"))?)),
                        lo,
                        hi,
                    ),
                    _ => return Err(err(lineno, "bad key clause")),
                };
                let lo: u64 = lo_s.parse().map_err(|_| err(lineno, "bad range lo"))?;
                let hi: u64 = hi_s.parse().map_err(|_| err(lineno, "bad range hi"))?;
                if hi > HASH_SPACE || lo > hi {
                    return Err(err(lineno, "range off the hash lattice"));
                }
                // Merge into an existing entry for the same unit if present.
                if let Some(e) = entries.iter_mut().find(|e| e.unit == unit) {
                    if e.class != class || e.key != key {
                        return Err(err(lineno, "conflicting unit metadata"));
                    }
                    e.ranges = e.ranges.clone().union(&RangeSet::interval(lo, hi));
                } else {
                    entries.push(ManifestEntry {
                        class,
                        unit,
                        key,
                        ranges: RangeSet::interval(lo, hi),
                    });
                }
            }
            _ => return Err(err(lineno, "unknown directive")),
        }
    }
    let node = node.ok_or_else(|| err(0, "missing 'manifest node' header"))?;
    Ok(NodeManifest { node, entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AnalysisClass;
    use crate::nids::{generate_manifests, solve_nids_lp, NidsLpConfig, NodeCaps};
    use crate::units::build_units;
    use nwdp_topo::{internet2, PathDb};
    use nwdp_traffic::{TrafficMatrix, VolumeModel};

    #[test]
    fn round_trip_preserves_every_range() {
        let topo = internet2();
        let paths = PathDb::shortest_paths(&topo);
        let tm = TrafficMatrix::gravity(&topo);
        let vol = VolumeModel::internet2_baseline();
        let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
        let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
        let a = solve_nids_lp(&dep, &cfg).unwrap();
        let manifest = generate_manifests(&dep, &a.d);
        for node in topo.nodes() {
            let text = node_manifest_to_text(&manifest, node);
            let parsed = node_manifest_from_text(&text).unwrap();
            assert_eq!(parsed.node, node);
            assert_eq!(parsed.entries.len(), manifest.node_entries(node).len());
            for (p, o) in parsed.entries.iter().zip(manifest.node_entries(node)) {
                assert_eq!(p.unit, o.unit);
                assert_eq!(p.class, o.class);
                assert_eq!(p.key, o.key);
                assert_eq!(p.ranges, o.ranges);
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(node_manifest_from_text("nonsense\n").is_err());
        assert!(node_manifest_from_text("manifest node x\n").is_err());
        for bad in ["5 2", "0 4294967297", "0.5 1", "-1 2"] {
            let text = format!("manifest node 0\nrange unit 1 class 0 key path 0 1 {bad}\n");
            assert!(node_manifest_from_text(&text).is_err(), "{bad}");
        }
        assert!(node_manifest_from_text("range unit 1 class 0 key ingress 0 0 1\n").is_err());
    }

    #[test]
    fn comments_allowed() {
        let m = node_manifest_from_text(
            "# pushed 2026-07-06\nmanifest node 2\n# unit below\nrange unit 4 class 1 key egress 2 0 4294967296\n",
        )
        .unwrap();
        assert_eq!(m.node, NodeId(2));
        assert_eq!(m.entries.len(), 1);
        assert!(m.entries[0].ranges.contains(u32::MAX));
    }
}
