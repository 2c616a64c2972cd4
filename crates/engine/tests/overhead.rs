//! Microbenchmark shape tests (paper Fig 5): coordination overhead of the
//! prototype vs unmodified Bro, per module, for both check placements.

use nwdp_core::{build_units, AnalysisClass};
use nwdp_engine::{module_for_class, standalone_coordination, CoordContext, Engine, Placement};
use nwdp_hash::KeyedHasher;
use nwdp_topo::{line, NodeId, PathDb};
use nwdp_traffic::{
    generate_trace, AnomalyConfig, NetTrace, TraceConfig, TrafficMatrix, VolumeModel,
};

/// Run a single module in isolation over the trace under a placement.
/// Returns (cpu_cycles, mem_peak).
fn run_module(class_name: &str, placement: Placement, trace: &NetTrace) -> (u64, u64) {
    let topo = line(2);
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::uniform(&topo);
    let vol = VolumeModel::internet2_baseline();
    let all = AnalysisClass::standard_set();
    let classes: Vec<AnalysisClass> = all.into_iter().filter(|c| c.name == class_name).collect();
    assert_eq!(classes.len(), 1, "unknown module {class_name}");
    let dep = build_units(&topo, &paths, &tm, &vol, &classes);
    let (solo_dep, manifest) = standalone_coordination(&dep, NodeId(0));
    let names = vec![class_name.to_string()];
    let h = KeyedHasher::unkeyed();
    let mut engine = match placement {
        Placement::Unmodified => Engine::new(NodeId(0), placement, &names, None, h),
        _ => {
            let coord = CoordContext::new(&solo_dep, &manifest);
            Engine::new(NodeId(0), placement, &names, Some(coord), h)
        }
    }
    .unwrap();
    // Bro derives a capture filter from the loaded analyzers: a module in
    // isolation only receives its own traffic specification.
    let (spec, _) = module_for_class(class_name).unwrap();
    for s in trace.sessions.iter().filter(|s| spec.traffic.admits_tuple(&s.tuple)) {
        engine.process_session(s);
    }
    let stats = engine.stats();
    (stats.cpu_cycles, stats.mem_peak)
}

fn mixed_trace(sessions: usize) -> NetTrace {
    let topo = line(2);
    let tm = TrafficMatrix::uniform(&topo);
    let mut cfg = TraceConfig::new(sessions, 1234);
    cfg.anomalies = AnomalyConfig::default();
    generate_trace(&topo, &tm, &cfg)
}

const ALL_MODULES: [&str; 9] =
    ["Baseline", "Scan", "IRC", "Login", "TFTP", "HTTP", "Blaster", "Signature", "SYNFlood"];

#[test]
fn standalone_manifest_processes_everything() {
    // With the full-range manifest, the coordinated engine must do the
    // same analysis as the unmodified engine (same alerts, same packets).
    let trace = mixed_trace(3000);
    for placement in [Placement::EventEngine, Placement::PolicyEngine] {
        for module in ALL_MODULES {
            let (cpu_c, _) = run_module(module, placement, &trace);
            let (cpu_u, _) = run_module(module, Placement::Unmodified, &trace);
            assert!(
                cpu_c >= cpu_u,
                "{module} {placement:?}: coordination cannot be free ({cpu_c} < {cpu_u})"
            );
        }
    }
}

#[test]
fn cpu_overhead_small_for_event_engine_placement() {
    // Fig 5(a): with checks as early as possible, overhead stays modest
    // for every module (the paper reports ~2% for the cheap-check modules
    // and ~10% for the policy-heavy Scan/TFTP).
    let trace = mixed_trace(4000);
    for module in ALL_MODULES {
        let (cpu_u, _) = run_module(module, Placement::Unmodified, &trace);
        let (cpu_e, _) = run_module(module, Placement::EventEngine, &trace);
        let overhead = cpu_e as f64 / cpu_u as f64 - 1.0;
        assert!(
            overhead < 0.25,
            "{module}: event-engine overhead {:.1}% too large",
            overhead * 100.0
        );
    }
}

#[test]
fn policy_placement_much_worse_for_per_packet_modules() {
    // Fig 5(a): HTTP, IRC and Login show *significant* overhead when the
    // checks run in the interpreted policy engine, and little when hoisted
    // into the event engine.
    let trace = mixed_trace(4000);
    for module in ["HTTP", "IRC", "Login"] {
        let (cpu_u, _) = run_module(module, Placement::Unmodified, &trace);
        let (cpu_e, _) = run_module(module, Placement::EventEngine, &trace);
        let (cpu_p, _) = run_module(module, Placement::PolicyEngine, &trace);
        let ev = cpu_e as f64 / cpu_u as f64 - 1.0;
        let po = cpu_p as f64 / cpu_u as f64 - 1.0;
        assert!(
            po > 2.0 * ev + 0.02,
            "{module}: policy overhead {:.1}% should dwarf event overhead {:.1}%",
            po * 100.0,
            ev * 100.0
        );
    }
}

#[test]
fn same_place_modules_agree_across_placements() {
    // Fig 5(a): for Scan/TFTP/Signature/Blaster/SYNFlood "both coordinated
    // versions have very similar overhead because the coordination checks
    // occur in the same place".
    let trace = mixed_trace(4000);
    for module in ["Scan", "TFTP", "Signature", "Blaster", "SYNFlood"] {
        let (cpu_e, _) = run_module(module, Placement::EventEngine, &trace);
        let (cpu_p, _) = run_module(module, Placement::PolicyEngine, &trace);
        let rel = (cpu_p as f64 - cpu_e as f64).abs() / cpu_e as f64;
        assert!(
            rel < 0.05,
            "{module}: placements should behave alike, differ by {:.1}%",
            rel * 100.0
        );
    }
}

#[test]
fn memory_overhead_bounded_by_hash_fields() {
    // Fig 5(b): the memory overhead of the coordinated versions is at most
    // ~6% (hash fields added to the connection record).
    let trace = mixed_trace(4000);
    for module in ALL_MODULES {
        let (_, mem_u) = run_module(module, Placement::Unmodified, &trace);
        let (_, mem_c) = run_module(module, Placement::EventEngine, &trace);
        let overhead = mem_c as f64 / mem_u as f64 - 1.0;
        assert!(
            (0.0..0.08).contains(&overhead),
            "{module}: memory overhead {:.1}% out of the Fig 5(b) band",
            overhead * 100.0
        );
    }
}
