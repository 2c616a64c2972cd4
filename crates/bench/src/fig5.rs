//! Fig 5 — microbenchmarks: CPU and memory overhead of the coordination
//! functions per module, for both check placements, vs unmodified Bro.
//!
//! "We generate a single traffic trace with 100,000 traffic sessions using
//! a mixed traffic profile that stresses different modules… We configure
//! Bro to run each analysis module in isolation. For each configuration,
//! we perform 5 runs and report the mean, minimum, and maximum overhead."

use crate::output::{f4, pct, Table};
use crate::scenario::Scale;
use nwdp_core::{build_units, AnalysisClass};
use nwdp_engine::{module_for_class, standalone_coordination, CoordContext, Engine, Placement};
use nwdp_hash::KeyedHasher;
use nwdp_topo::{line, NodeId, PathDb};
use nwdp_traffic::{generate_trace, TraceConfig, TrafficMatrix, VolumeModel};

pub const MODULES: [&str; 9] =
    ["Baseline", "Scan", "IRC", "Login", "TFTP", "HTTP", "Blaster", "Signature", "SYNFlood"];

/// One (module, placement) measurement across repeats.
#[derive(Debug, Clone)]
pub struct Overhead {
    pub module: String,
    /// (mean, min, max) CPU overhead vs unmodified, as fractions.
    pub cpu_event: (f64, f64, f64),
    pub cpu_policy: (f64, f64, f64),
    /// (mean, min, max) memory overhead vs unmodified.
    pub mem_event: (f64, f64, f64),
    pub mem_policy: (f64, f64, f64),
}

fn run_once(module: &str, placement: Placement, sessions: usize, seed: u64) -> (u64, u64) {
    let topo = line(2);
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::uniform(&topo);
    let vol = VolumeModel::internet2_baseline();
    let classes: Vec<AnalysisClass> =
        AnalysisClass::standard_set().into_iter().filter(|c| c.name == module).collect();
    let dep = build_units(&topo, &paths, &tm, &vol, &classes);
    let (solo, manifest) = standalone_coordination(&dep, NodeId(0));
    let names = vec![module.to_string()];
    let h = KeyedHasher::unkeyed();
    let trace = generate_trace(&topo, &tm, &TraceConfig::new(sessions, seed));
    let mut engine = match placement {
        Placement::Unmodified => Engine::new(NodeId(0), placement, &names, None, h),
        _ => {
            Engine::new(NodeId(0), placement, &names, Some(CoordContext::new(&solo, &manifest)), h)
        }
    }
    .expect("Fig 5 modules are registered");
    // Bro's capture filter: the module in isolation sees only its own
    // traffic specification.
    let (spec, _) = module_for_class(module).expect("Fig 5 modules are registered");
    for s in trace.sessions.iter().filter(|s| spec.traffic.admits_tuple(&s.tuple)) {
        engine.process_session(s);
    }
    let st = engine.stats();
    (st.cpu_cycles, st.mem_peak)
}

fn stats(xs: &[f64]) -> (f64, f64, f64) {
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (mean, min, max)
}

/// Run the full Fig 5 microbenchmark. The nine module sweeps are
/// independent and fan out across scoped threads (results in module
/// order, bit-identical to a serial sweep).
pub fn run(scale: Scale) -> Vec<Overhead> {
    let sessions = scale.fig5_sessions();
    nwdp_core::parallel::par_map(&MODULES, |_, module| {
        let mut ce = Vec::new();
        let mut cp = Vec::new();
        let mut me = Vec::new();
        let mut mp = Vec::new();
        for rep in 0..scale.repeats() {
            let seed = 1000 + rep as u64;
            let (cu, mu) = run_once(module, Placement::Unmodified, sessions, seed);
            let (cev, mev) = run_once(module, Placement::EventEngine, sessions, seed);
            let (cpo, mpo) = run_once(module, Placement::PolicyEngine, sessions, seed);
            ce.push(cev as f64 / cu as f64 - 1.0);
            cp.push(cpo as f64 / cu as f64 - 1.0);
            me.push(mev as f64 / mu as f64 - 1.0);
            mp.push(mpo as f64 / mu as f64 - 1.0);
        }
        Overhead {
            module: module.to_string(),
            cpu_event: stats(&ce),
            cpu_policy: stats(&cp),
            mem_event: stats(&me),
            mem_policy: stats(&mp),
        }
    })
}

/// Render the Fig 5(a)/(b) tables.
pub fn tables(results: &[Overhead]) -> (Table, Table) {
    let mut cpu = Table::new(
        "Fig 5(a): CPU overhead of coordination checks (vs unmodified Bro)",
        &["module", "event-engine mean", "min", "max", "policy-engine mean", "min", "max"],
    );
    let mut mem = Table::new(
        "Fig 5(b): memory overhead of coordination state (vs unmodified Bro)",
        &["module", "event-engine mean", "min", "max", "policy-engine mean", "min", "max"],
    );
    for r in results {
        cpu.row(vec![
            r.module.clone(),
            pct(r.cpu_event.0),
            f4(r.cpu_event.1),
            f4(r.cpu_event.2),
            pct(r.cpu_policy.0),
            f4(r.cpu_policy.1),
            f4(r.cpu_policy.2),
        ]);
        mem.row(vec![
            r.module.clone(),
            pct(r.mem_event.0),
            f4(r.mem_event.1),
            f4(r.mem_event.2),
            pct(r.mem_policy.0),
            f4(r.mem_policy.1),
            f4(r.mem_policy.2),
        ]);
    }
    (cpu, mem)
}
