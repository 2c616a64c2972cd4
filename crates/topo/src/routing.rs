//! Shortest-path routing and the path database.
//!
//! The paper (§2.4, §3.4) constructs ingress–egress paths with shortest-path
//! routing on link distances. [`PathDb::shortest_paths`] runs Dijkstra from
//! every source with a deterministic tie-break (prefer the predecessor with
//! the smaller node id), so path sets are reproducible across runs and
//! platforms — a requirement for the deterministic experiment pipeline.

use crate::graph::{NodeId, Topology};

/// An ingress→egress routing path: the ordered list of on-path nodes,
/// including both endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    pub src: NodeId,
    pub dst: NodeId,
    pub nodes: Vec<NodeId>,
    /// Total routing weight of the path.
    pub weight_bits: u64,
}

impl Path {
    pub fn weight(&self) -> f64 {
        f64::from_bits(self.weight_bits)
    }

    pub fn hops(&self) -> usize {
        self.nodes.len()
    }

    /// Position of `node` on this path, if it lies on it.
    pub fn position(&self, node: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == node)
    }

    /// Downstream distance `Dist_ikj` in router hops: the number of on-path
    /// nodes from `node` (inclusive) to the egress. For the paper's example
    /// `P = R1,R2,R3`: Dist(R1) = 3, Dist(R2) = 2, Dist(R3) = 1.
    pub fn downstream_hops(&self, node: NodeId) -> Option<usize> {
        self.position(node).map(|i| self.nodes.len() - i)
    }
}

/// All-pairs shortest paths over a topology.
#[derive(Debug, Clone)]
pub struct PathDb {
    n: usize,
    /// `paths[src * n + dst]`; entry for `src == dst` is the trivial path.
    paths: Vec<Path>,
}

impl PathDb {
    /// Compute all-pairs shortest paths by per-source Dijkstra.
    ///
    /// Routing is **symmetric by construction**: the `dst → src` path is
    /// the exact reverse of the `src → dst` path (valid on an undirected
    /// graph, where the reverse of a shortest path is shortest). Symmetry
    /// matters for stateful NIDS coordination — both directions of a
    /// connection must traverse the same node set so that a single on-path
    /// node can observe the whole session (paper Fig 1).
    pub fn shortest_paths(topo: &Topology) -> Self {
        assert!(topo.is_connected(), "routing requires a connected topology");
        let n = topo.num_nodes();
        let mut paths: Vec<Option<Path>> = (0..n * n).map(|_| None).collect();
        for src in topo.nodes() {
            let (dist, prev) = dijkstra(topo, src);
            for dst in topo.nodes() {
                if dst.index() < src.index() {
                    continue; // filled by reversal below
                }
                let mut nodes = Vec::new();
                let mut cur = dst;
                loop {
                    nodes.push(cur);
                    if cur == src {
                        break;
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "the topology is asserted connected, so every node on a \
                                  shortest path but src has a predecessor"
                    )]
                    let next = prev[cur.index()].expect("connected graph has predecessors");
                    cur = next;
                }
                nodes.reverse();
                let wbits = dist[dst.index()].to_bits();
                let mut rev_nodes = nodes.clone();
                rev_nodes.reverse();
                paths[src.index() * n + dst.index()] =
                    Some(Path { src, dst, nodes, weight_bits: wbits });
                paths[dst.index() * n + src.index()] =
                    Some(Path { src: dst, dst: src, nodes: rev_nodes, weight_bits: wbits });
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "each src <= dst iteration fills both (src, dst) and (dst, src)"
        )]
        let paths = paths.into_iter().map(|p| p.expect("all pairs filled")).collect();
        PathDb { n, paths }
    }

    pub fn path(&self, src: NodeId, dst: NodeId) -> &Path {
        &self.paths[src.index() * self.n + dst.index()]
    }

    /// All ingress–egress paths with distinct endpoints.
    pub fn all_pairs(&self) -> impl Iterator<Item = &Path> {
        self.paths.iter().filter(|p| p.src != p.dst)
    }

    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Average hop count over distinct-endpoint paths.
    pub fn mean_hops(&self) -> f64 {
        let (sum, count) =
            self.all_pairs().fold((0usize, 0usize), |(s, c), p| (s + p.hops(), c + 1));
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }
}

/// Dijkstra with deterministic tie-breaking: among equal-distance
/// relaxations, keep the predecessor with the smaller node id.
fn dijkstra(topo: &Topology, src: NodeId) -> (Vec<f64>, Vec<Option<NodeId>>) {
    let n = topo.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut done = vec![false; n];
    dist[src.index()] = 0.0;
    let mut heap = std::collections::BinaryHeap::new();
    heap.push(std::cmp::Reverse((0u64, src.index())));
    while let Some(std::cmp::Reverse((dbits, u))) = heap.pop() {
        if done[u] {
            continue;
        }
        let du = f64::from_bits(dbits);
        if du > dist[u] {
            continue;
        }
        done[u] = true;
        for &(v, w) in topo.neighbors(NodeId(u)) {
            let nd = du + w;
            let vi = v.index();
            let improves = nd < dist[vi] - 1e-12;
            let tie_better =
                (nd - dist[vi]).abs() <= 1e-12 && prev[vi].is_some_and(|p| u < p.index());
            if improves || tie_better {
                dist[vi] = nd;
                prev[vi] = Some(NodeId(u));
                if improves {
                    heap.push(std::cmp::Reverse((nd.to_bits(), vi)));
                }
            }
        }
    }
    (dist, prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Topology;

    fn line4() -> Topology {
        let mut t = Topology::new("line");
        let n: Vec<_> = (0..4).map(|i| t.add_node(format!("n{i}"), 1.0)).collect();
        for w in n.windows(2) {
            t.add_link(w[0], w[1], 1.0);
        }
        t
    }

    #[test]
    fn line_paths() {
        let t = line4();
        let db = PathDb::shortest_paths(&t);
        let p = db.path(NodeId(0), NodeId(3));
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(p.hops(), 4);
        assert!((p.weight() - 3.0).abs() < 1e-12);
        assert_eq!(p.downstream_hops(NodeId(0)), Some(4));
        assert_eq!(p.downstream_hops(NodeId(3)), Some(1));
        assert_eq!(p.downstream_hops(NodeId(2)), Some(2));
    }

    #[test]
    fn trivial_self_path() {
        let t = line4();
        let db = PathDb::shortest_paths(&t);
        let p = db.path(NodeId(2), NodeId(2));
        assert_eq!(p.nodes, vec![NodeId(2)]);
        assert_eq!(p.weight(), 0.0);
    }

    #[test]
    fn shortest_route_chosen() {
        // Square with a shortcut diagonal.
        let mut t = Topology::new("sq");
        let a = t.add_node("a", 1.0);
        let b = t.add_node("b", 1.0);
        let c = t.add_node("c", 1.0);
        let d = t.add_node("d", 1.0);
        t.add_link(a, b, 1.0);
        t.add_link(b, c, 1.0);
        t.add_link(c, d, 1.0);
        t.add_link(d, a, 1.0);
        t.add_link(a, c, 1.2);
        let db = PathDb::shortest_paths(&t);
        assert_eq!(db.path(a, c).nodes, vec![a, c]); // 1.2 < 2.0
        assert_eq!(db.path(b, d).hops(), 3); // via a or c, weight 2
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Two equal-cost routes 0-1-3 and 0-2-3: must pick via node 1.
        let mut t = Topology::new("diamond");
        let s = t.add_node("s", 1.0);
        let m1 = t.add_node("m1", 1.0);
        let m2 = t.add_node("m2", 1.0);
        let d = t.add_node("d", 1.0);
        t.add_link(s, m1, 1.0);
        t.add_link(s, m2, 1.0);
        t.add_link(m1, d, 1.0);
        t.add_link(m2, d, 1.0);
        let db1 = PathDb::shortest_paths(&t);
        let db2 = PathDb::shortest_paths(&t);
        assert_eq!(db1.path(s, d).nodes, db2.path(s, d).nodes);
        assert_eq!(db1.path(s, d).nodes, vec![s, m1, d]);
    }

    #[test]
    fn routing_is_symmetric() {
        let t = crate::builtin::internet2();
        let db = PathDb::shortest_paths(&t);
        for s in t.nodes() {
            for d in t.nodes() {
                let fwd = db.path(s, d);
                let rev = db.path(d, s);
                let mut r = rev.nodes.clone();
                r.reverse();
                assert_eq!(fwd.nodes, r, "asymmetric route {s:?}→{d:?}");
            }
        }
    }

    #[test]
    fn all_pairs_count() {
        let t = line4();
        let db = PathDb::shortest_paths(&t);
        assert_eq!(db.all_pairs().count(), 12);
        assert!((db.mean_hops() - (2.0 * 6.0 + 3.0 * 4.0 + 4.0 * 2.0) / 12.0).abs() < 1e-12);
    }
}
