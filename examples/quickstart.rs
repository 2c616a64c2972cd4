//! Quickstart: deploy a coordinated NIDS across the Internet2 backbone.
//!
//! Walks the full pipeline: topology → routing → traffic model →
//! coordination units → assignment LP → sampling manifests → what each
//! node ends up responsible for.
//!
//! Run with: `cargo run --release --example quickstart`

use nwdp::prelude::*;

fn main() {
    // 1. The network: the 11-PoP Internet2/Abilene backbone with
    //    deterministic shortest-path routing and a gravity traffic matrix.
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    println!("topology: {} ({} nodes, {} links)", topo.name, topo.num_nodes(), topo.num_links());
    println!(
        "volume:   {:.0}M flows / {:.0}M packets per 5 min\n",
        vol.flows / 1e6,
        vol.pkts / 1e6
    );

    // 2. NIDS analysis classes and their coordination units.
    let classes = AnalysisClass::standard_set();
    let dep = build_units(&topo, &paths, &tm, &vol, &classes);
    println!(
        "{} analysis classes partitioned into {} coordination units",
        dep.classes.len(),
        dep.units.len()
    );

    // 3. Solve the assignment LP: minimize the maximum CPU/memory load.
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let assignment = solve_nids_lp(&dep, &cfg).expect("LP solves");
    println!(
        "optimal max load: {:.1}% of node capacity ({} decomposition rounds, gap {:.0e})\n",
        assignment.max_load * 100.0,
        assignment.dw_rounds,
        assignment.gap
    );

    // 4. Compare against the single-vantage-point (edge-only) deployment.
    let (ecpu, emem) = edge_only_loads(&dep, &cfg.caps);
    let edge_max = ecpu.iter().chain(&emem).fold(0.0f64, |m, &x| m.max(x));
    println!("edge-only max load:   {:.1}%", edge_max * 100.0);
    println!(
        "coordination reduces the bottleneck by {:.0}%\n",
        (1.0 - assignment.max_load / edge_max) * 100.0
    );

    // 5. Compile hash-range sampling manifests (Fig 2) and inspect them.
    let manifest = generate_manifests(&dep, &assignment.d);
    let (lo, hi) = manifest.verify_coverage(&dep);
    println!("coverage check: every hash point covered between {lo} and {hi} times");
    println!("\nper-node responsibilities (share of total analysis work):");
    for node in topo.nodes() {
        let share: f64 =
            manifest.node_entries(node).iter().map(|e| e.ranges.measure()).sum::<f64>()
                / dep.units.len() as f64;
        println!(
            "  {:>14}  cpu {:>5.1}%  mem {:>5.1}%  avg hash share {:>5.2}%",
            topo.node(node).name,
            assignment.cpu_load[node.index()] * 100.0,
            assignment.mem_load[node.index()] * 100.0,
            share * 100.0
        );
    }

    // 6. The per-packet check (Fig 3): where would one HTTP session go?
    let hasher = KeyedHasher::with_key(0x5EC_C0DE);
    let t = FiveTuple::new(
        nwdp::traffic::host_ip(NodeId(0), 17),
        nwdp::traffic::host_ip(NodeId(10), 99),
        40001,
        80,
        6,
    );
    let h = hasher.hash32(&t, FlowKeyKind::BiSession);
    // Find the HTTP class's unit for the Seattle → New York path.
    let http = dep.classes.iter().position(|c| c.name == "HTTP").unwrap();
    let unit = dep
        .units
        .iter()
        .position(|u| u.class == http && u.key == UnitKey::Path(NodeId(0), NodeId(10)))
        .unwrap();
    println!("\nan HTTP session Seattle → New York hashes to {h:#010x};");
    for &n in &dep.units[unit].nodes {
        if manifest.should_analyze(unit, n, h) {
            println!("it is analyzed at {} — and nowhere else.", topo.node(n).name);
        }
    }
}
