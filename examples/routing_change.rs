//! Routing changes without losing connection state (paper §5).
//!
//! A link cost changes (maintenance, reweighting), routes shift, and the
//! optimization is re-run. This example plans the transition: how much of
//! the hash space changes owner (duplicated work while old connections
//! drain), and which nodes need explicit state transfer because the new
//! routes bypass them.
//!
//! Run with: `cargo run --release --example routing_change`

use nwdp::core::migration::plan_transition;
use nwdp::prelude::*;

fn compile(topo: &nwdp::topo::Topology) -> (NidsDeployment, SamplingManifest) {
    let paths = PathDb::shortest_paths(topo);
    let tm = TrafficMatrix::gravity(topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let a = solve_nids_lp(&dep, &cfg).expect("LP solves");
    let m = generate_manifests(&dep, &a.d);
    (dep, m)
}

fn main() {
    let before = nwdp::topo::internet2();
    let (old_dep, old_man) = compile(&before);

    // Maintenance on Chicago–New York: cost x10, traffic reroutes south.
    let mut after = nwdp::topo::Topology::new("Internet2-maintenance");
    for n in before.nodes() {
        after.add_node(before.node(n).name.clone(), before.population(n));
    }
    let chi = before.find("Chicago").unwrap();
    let nyc = before.find("NewYork").unwrap();
    for l in before.links() {
        let w = if (l.a == chi && l.b == nyc) || (l.a == nyc && l.b == chi) {
            l.weight * 10.0
        } else {
            l.weight
        };
        after.add_link(l.a, l.b, w);
    }
    let (new_dep, new_man) = compile(&after);

    let plan = plan_transition(&old_dep, &old_man, &new_dep, &new_man);
    println!("reroute: Chicago–NewYork link cost x10\n");
    println!(
        "mean hash-space churn per unit: {:.1}% (duplicated work while old connections drain)",
        plan.mean_moved_fraction * 100.0
    );
    println!("units needing any transition: {}", plan.units.len());
    let transfers: usize = plan.units.iter().map(|t| t.transfer_from.len()).sum();
    let drains: usize = plan.units.iter().map(|t| t.drain_at.len()).sum();
    println!("owner drains in place (still on path): {drains}");
    println!("explicit state transfers (node left the path): {transfers}");

    // Which nodes hand off the most state?
    let mut by_node = std::collections::BTreeMap::new();
    for t in &plan.units {
        for n in &t.transfer_from {
            *by_node.entry(*n).or_insert(0usize) += 1;
        }
    }
    if by_node.is_empty() {
        println!("\nno state transfers needed: every old owner remains on-path");
    } else {
        println!("\nstate transfers by node:");
        for (n, count) in by_node {
            println!("  {:>14}: {count} units", before.node(n).name);
        }
    }
}
