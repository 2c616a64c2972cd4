//! The extended analyzer set (DNS/FTP/SMTP/SSH beyond the paper's nine):
//! detection fires on the right sessions, and the coordinated equivalence
//! guarantee extends to the bigger module set unchanged.

use nwdp_core::nids::{generate_manifests, solve_nids_lp, NidsLpConfig, NodeCaps};
use nwdp_core::{build_units, AnalysisClass};
use nwdp_engine::{module_for_class, run_coordinated, run_standalone_reference, Placement, Stage};
use nwdp_hash::KeyedHasher;
use nwdp_topo::{internet2, PathDb};
use nwdp_traffic::{generate_trace, TraceConfig, TrafficMatrix, VolumeModel};

#[test]
fn extended_modules_construct_with_expected_stages() {
    for name in ["DNS", "FTP", "SMTP", "SSH"] {
        let (m, _) = module_for_class(name).unwrap();
        assert_eq!(m.class_name, name);
        assert_eq!(m.stage, Stage::EventCapable, "{name}");
        assert!(m.needs_all_packets);
    }
}

#[test]
fn extended_set_detects_its_protocols() {
    let topo = internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let classes = AnalysisClass::extended_set();
    assert_eq!(classes.len(), 13);
    let dep = build_units(&topo, &paths, &tm, &vol, &classes);
    let trace = generate_trace(&topo, &tm, &TraceConfig::new(3000, 31));
    let h = KeyedHasher::with_key(0xE7);
    let reference = run_standalone_reference(&dep, &trace, h).unwrap();
    // The mixed profile generates DNS/FTP/SMTP/SSH sessions; each new
    // analyzer must produce alerts on them.
    for kind in ["dns_query", "ftp_anonymous_login", "smtp_sender", "ssh_session"] {
        assert!(
            reference.alerts.iter().any(|a| a.kind == kind),
            "no {kind} alerts in a mixed trace"
        );
    }
}

#[test]
fn equivalence_holds_for_extended_set() {
    let topo = internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::extended_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let a = solve_nids_lp(&dep, &cfg).unwrap();
    let manifest = generate_manifests(&dep, &a.d);
    let trace = generate_trace(&topo, &tm, &TraceConfig::new(2500, 17));
    let h = KeyedHasher::with_key(0x55);
    let reference = run_standalone_reference(&dep, &trace, h).unwrap();
    let coord =
        run_coordinated(&dep, &manifest, &paths, &trace, Placement::EventEngine, h).unwrap();
    assert_eq!(coord.alerts, reference.alerts);
}
