//! Min-cost flow (successive shortest augmenting paths with potentials).
//!
//! Used as a fast exact path for the NIPS *inner* sampling LPs: when every
//! rule has proportional resource requirements (the paper's evaluation sets
//! `CamReq = CpuReq = MemReq = 1`) and packet/flow volumes are proportional
//! across paths, the LP over the `d_ikj` sampling fractions with the rule
//! placement fixed is exactly a max-profit transportation problem —
//! commodities are `(rule, path)` pairs with supply `T_ik`, sinks are node
//! capacities, and arc profit is the distance-weighted drop benefit.
//!
//! The solver computes a **negative-cost circulation** from `source`: it
//! augments along the cheapest residual path while that path has strictly
//! negative cost, so shipping is optional and only profitable flow moves.
//! This is precisely the LP optimum for such problems (see the
//! cross-check against the simplex in `tests/flow_vs_simplex.rs`).
//!
//! Capacities are `i64` (callers scale fractional volumes); costs are `f64`.

const EPS: f64 = 1e-9;

#[derive(Debug, Clone)]
struct Arc {
    to: usize,
    rev: usize,
    cap: i64,
    /// Capacity the arc was built with; [`MinCostFlow::reset_flows`]
    /// restores `cap` to this (forward arcs) or to 0 (reverse arcs).
    base: i64,
    cost: f64,
}

/// Handle to an arc, for querying flow after the solve.
#[derive(Debug, Clone, Copy)]
pub struct ArcId {
    from: usize,
    idx: usize,
}

/// A min-cost flow network.
#[derive(Debug, Clone, Default)]
pub struct MinCostFlow {
    graph: Vec<Vec<Arc>>,
}

impl MinCostFlow {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_node(&mut self) -> usize {
        self.graph.push(Vec::new());
        self.graph.len() - 1
    }

    /// Add a directed arc `u → v` with capacity `cap ≥ 0` and per-unit cost.
    pub fn add_arc(&mut self, u: usize, v: usize, cap: i64, cost: f64) -> ArcId {
        assert!(cap >= 0, "negative capacity");
        assert!(u != v, "self loops unsupported");
        let fw = Arc { to: v, rev: self.graph[v].len(), cap, base: cap, cost };
        let bw = Arc { to: u, rev: self.graph[u].len(), cap: 0, base: 0, cost: -cost };
        self.graph[u].push(fw);
        self.graph[v].push(bw);
        ArcId { from: u, idx: self.graph[u].len() - 1 }
    }

    /// Undo all flow: restore every residual capacity to its as-built
    /// value. After this the network is equivalent to a freshly
    /// constructed one (modulo [`Self::set_cost`]/[`Self::throttle`]
    /// changes), so the same allocation can serve many solves.
    pub fn reset_flows(&mut self) {
        for arcs in &mut self.graph {
            for a in arcs.iter_mut() {
                a.cap = a.base;
            }
        }
    }

    /// Re-price an arc (forward cost `cost`, reverse `-cost`). Only valid
    /// on a flow-free network — call [`Self::reset_flows`] first.
    pub fn set_cost(&mut self, arc: ArcId, cost: f64) {
        let (to, rev) = {
            let a = &mut self.graph[arc.from][arc.idx];
            a.cost = cost;
            (a.to, a.rev)
        };
        self.graph[to][rev].cost = -cost;
    }

    /// Cap an arc's *current* capacity at `cap` (without changing its
    /// as-built capacity). Only valid on a flow-free network — call
    /// [`Self::reset_flows`] first. `throttle(id, 0)` disables the arc
    /// for this solve; the next `reset_flows` re-enables it.
    pub fn throttle(&mut self, arc: ArcId, cap: i64) {
        assert!(cap >= 0, "negative capacity");
        let (to, rev) = {
            let a = &self.graph[arc.from][arc.idx];
            (a.to, a.rev)
        };
        debug_assert_eq!(self.graph[to][rev].cap, 0, "throttle on a network carrying flow");
        let a = &mut self.graph[arc.from][arc.idx];
        a.cap = a.base.min(cap);
    }

    /// Flow currently on `arc` (valid after [`Self::solve_profitable`]).
    pub fn flow(&self, arc: ArcId) -> i64 {
        let a = &self.graph[arc.from][arc.idx];
        // Residual on the reverse arc equals the flow pushed forward.
        self.graph[a.to][a.rev].cap
    }

    /// Bellman–Ford potentials (handles negative arc costs; the graphs we
    /// build are DAG-like so this converges quickly).
    fn initial_potentials(&self, source: usize) -> Vec<f64> {
        let n = self.graph.len();
        let mut pot = vec![f64::INFINITY; n];
        pot[source] = 0.0;
        for _round in 0..n {
            let mut changed = false;
            for u in 0..n {
                if pot[u].is_finite() {
                    for a in &self.graph[u] {
                        if a.cap > 0 && pot[u] + a.cost < pot[a.to] - EPS {
                            pot[a.to] = pot[u] + a.cost;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Unreachable nodes keep infinite potential; replace with 0 so
        // reduced-cost arithmetic stays finite (they remain unreachable).
        for p in pot.iter_mut() {
            if !p.is_finite() {
                *p = 0.0;
            }
        }
        pot
    }

    /// Augment along cheapest residual source→sink paths while their total
    /// cost is strictly negative. Returns `(total_flow, total_cost)`.
    ///
    /// With all profitable arcs modeled as negative costs, this computes
    /// the maximum-profit (not maximum-volume) flow.
    pub fn solve_profitable(&mut self, source: usize, sink: usize) -> (i64, f64) {
        let n = self.graph.len();
        let mut pot = self.initial_potentials(source);
        let mut total_flow = 0i64;
        let mut total_cost = 0.0f64;

        loop {
            // Dijkstra with reduced costs.
            let mut dist = vec![f64::INFINITY; n];
            let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
            dist[source] = 0.0;
            let mut heap = std::collections::BinaryHeap::new();
            heap.push(std::cmp::Reverse((ordered(0.0), source)));
            while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
                let d = unordered(d);
                if d > dist[u] + EPS {
                    continue;
                }
                for (i, a) in self.graph[u].iter().enumerate() {
                    if a.cap <= 0 {
                        continue;
                    }
                    let rc = a.cost + pot[u] - pot[a.to];
                    let nd = d + rc.max(0.0);
                    if nd < dist[a.to] - EPS {
                        dist[a.to] = nd;
                        prev[a.to] = Some((u, i));
                        heap.push(std::cmp::Reverse((ordered(nd), a.to)));
                    }
                }
            }
            if !dist[sink].is_finite() {
                break;
            }
            // True path cost (undo the potential telescoping).
            let path_cost = dist[sink] + pot[sink] - pot[source];
            if path_cost >= -EPS {
                break; // no more profitable augmentation
            }
            // Bottleneck.
            let mut bottleneck = i64::MAX;
            let mut v = sink;
            while v != source {
                #[expect(
                    clippy::expect_used,
                    reason = "dist[sink] is finite, so every node on the sink's chain has a \
                              predecessor back to the source"
                )]
                let (u, i) = prev[v].expect("path broken");
                bottleneck = bottleneck.min(self.graph[u][i].cap);
                v = u;
            }
            debug_assert!(bottleneck > 0);
            // Apply.
            let mut v = sink;
            while v != source {
                #[expect(
                    clippy::expect_used,
                    reason = "dist[sink] is finite, so every node on the sink's chain has a \
                              predecessor back to the source"
                )]
                let (u, i) = prev[v].expect("path broken");
                let rev = self.graph[u][i].rev;
                self.graph[u][i].cap -= bottleneck;
                self.graph[v][rev].cap += bottleneck;
                v = u;
            }
            total_flow += bottleneck;
            total_cost += path_cost * bottleneck as f64;
            // Update potentials for reachable nodes.
            for (u, du) in dist.iter().enumerate() {
                if du.is_finite() {
                    pot[u] += du;
                }
            }
        }
        (total_flow, total_cost)
    }
}

/// f64 ordering shim for the heap (distances are non-negative finite).
fn ordered(x: f64) -> u64 {
    debug_assert!(x >= 0.0);
    x.to_bits()
}

fn unordered(b: u64) -> f64 {
    f64::from_bits(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_profitable_shipping() {
        // source → a (cap 10, cost 0), a → sink (cap 10, profit 2/unit).
        let mut g = MinCostFlow::new();
        let s = g.add_node();
        let a = g.add_node();
        let t = g.add_node();
        g.add_arc(s, a, 10, 0.0);
        let pa = g.add_arc(a, t, 10, -2.0);
        let (f, c) = g.solve_profitable(s, t);
        assert_eq!(f, 10);
        assert!((c + 20.0).abs() < 1e-9);
        assert_eq!(g.flow(pa), 10);
    }

    #[test]
    fn unprofitable_flow_not_shipped() {
        let mut g = MinCostFlow::new();
        let s = g.add_node();
        let t = g.add_node();
        g.add_arc(s, t, 100, 1.0); // positive cost: never ship
        let (f, c) = g.solve_profitable(s, t);
        assert_eq!(f, 0);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn capacity_forces_best_allocation() {
        // Two commodities compete for one capacity-5 node; profits 3 and 1.
        let mut g = MinCostFlow::new();
        let s = g.add_node();
        let c1 = g.add_node();
        let c2 = g.add_node();
        let node = g.add_node();
        let t = g.add_node();
        g.add_arc(s, c1, 4, 0.0);
        g.add_arc(s, c2, 4, 0.0);
        let a1 = g.add_arc(c1, node, 4, -3.0);
        let a2 = g.add_arc(c2, node, 4, -1.0);
        g.add_arc(node, t, 5, 0.0);
        let (f, c) = g.solve_profitable(s, t);
        assert_eq!(f, 5);
        assert_eq!(g.flow(a1), 4, "high-profit commodity ships fully");
        assert_eq!(g.flow(a2), 1, "low-profit commodity gets the remainder");
        assert!((c + (4.0 * 3.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn multiple_paths_optimal_total() {
        let mut g = MinCostFlow::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let t = g.add_node();
        g.add_arc(s, a, 1, -10.0);
        g.add_arc(s, b, 1, -1.0);
        g.add_arc(a, t, 1, -1.0);
        g.add_arc(a, b, 1, -1.0);
        g.add_arc(b, t, 1, -10.0);
        let (f, c) = g.solve_profitable(s, t);
        assert_eq!(f, 2);
        // Candidates: {s→a→b→t, s→b(…blocked)} vs {s→a→t, s→b→t}.
        // Latter totals −(10+1) − (1+10) = −22 and is optimal.
        assert!((c + 22.0).abs() < 1e-9, "cost = {c}");
    }

    #[test]
    fn reset_and_reprice_matches_fresh_network() {
        // Solve, then reset + re-price + throttle, and compare against a
        // freshly built network with the new prices/caps.
        let mut g = MinCostFlow::new();
        let s = g.add_node();
        let a = g.add_node();
        let b = g.add_node();
        let t = g.add_node();
        g.add_arc(s, a, 7, 0.0);
        g.add_arc(s, b, 7, 0.0);
        let pa = g.add_arc(a, t, 7, -2.0);
        let pb = g.add_arc(b, t, 7, -1.0);
        let (f1, _) = g.solve_profitable(s, t);
        assert_eq!(f1, 14);

        g.reset_flows();
        g.set_cost(pa, 3.0); // now unprofitable
        g.set_cost(pb, -5.0);
        g.throttle(pb, 4);
        let (f2, c2) = g.solve_profitable(s, t);

        let mut fresh = MinCostFlow::new();
        let s2 = fresh.add_node();
        let a2 = fresh.add_node();
        let b2 = fresh.add_node();
        let t2 = fresh.add_node();
        fresh.add_arc(s2, a2, 7, 0.0);
        fresh.add_arc(s2, b2, 7, 0.0);
        fresh.add_arc(a2, t2, 7, 3.0);
        fresh.add_arc(b2, t2, 4, -5.0);
        let (f3, c3) = fresh.solve_profitable(s2, t2);
        assert_eq!(f2, f3);
        assert!((c2 - c3).abs() < 1e-9);
        assert_eq!(f2, 4);

        // A second reset restores full capacity on the throttled arc.
        g.reset_flows();
        let (f4, _) = g.solve_profitable(s, t);
        assert_eq!(f4, 7, "only pb is profitable after re-pricing");
    }

    #[test]
    fn disconnected_sink_ships_nothing() {
        let mut g = MinCostFlow::new();
        let s = g.add_node();
        let _a = g.add_node();
        let t = g.add_node();
        g.add_arc(s, _a, 5, -1.0);
        let (f, c) = g.solve_profitable(s, t);
        assert_eq!(f, 0);
        assert_eq!(c, 0.0);
    }
}
