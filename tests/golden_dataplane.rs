//! Golden data-plane figures: a fixed small Internet2 run replayed four
//! ways (batch under both check placements, the §2.5 fine-grained engine,
//! and a streaming reload that swaps manifests), with every node's full
//! `RunStats` pinned to recorded constants.
//!
//! The stream≡batch and thread-count suites compare two runs of the same
//! engine, so a drift in the cost model or in the coordination checks
//! moves both sides alike and passes them. These constants catch it: any
//! change to what the engine charges, counts or detects on this run shows
//! up as a line diff below. Re-record them only for a change that is meant
//! to move the simulated costs, and say so where the change is described.
//! Every figure must hold at 1 and at 4 threads.

mod common;

use nwdp::core::nids::simplex_oracle;
use nwdp::core::parallel;
use nwdp::engine::NetworkRun;
use nwdp::prelude::*;

const SESSIONS: usize = 3000;
const SEED: u64 = 23;
const KEY: u64 = 11;

struct Setup {
    topo: Topology,
    paths: PathDb,
    tm: TrafficMatrix,
    dep: NidsDeployment,
    caps: Vec<NodeCaps>,
    manifest: SamplingManifest,
}

fn setup() -> Setup {
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    // The simplex oracle's vertex: these figures pin the data plane, not
    // which optimal point a solver picks.
    let (assignment, _, _) = simplex_oracle(&dep, &cfg, &[], None).unwrap();
    let manifest = generate_manifests(&dep, &assignment.d);
    Setup { topo, paths, tm, dep, caps: cfg.caps, manifest }
}

/// One line per node: `node cpu mem_peak packets connections
/// fastpath_skipped range_checks range_hits alerts | per-module cpu…`.
fn render(run: &NetworkRun) -> String {
    let mut out = String::new();
    for st in &run.per_node {
        out.push_str(&format!(
            "{} {} {} {} {} {} {} {} {} |",
            st.node.0,
            st.cpu_cycles,
            st.mem_peak,
            st.packets,
            st.connections,
            st.fastpath_skipped,
            st.range_checks,
            st.range_hits,
            st.alerts.len()
        ));
        for (_, cpu) in &st.per_module_cpu {
            out.push_str(&format!(" {cpu}"));
        }
        out.push('\n');
    }
    out
}

fn assert_module_order(s: &Setup, run: &NetworkRun) {
    let classes: Vec<&str> = s.dep.classes.iter().map(|c| c.name.as_str()).collect();
    for st in &run.per_node {
        let names: Vec<&str> = st.per_module_cpu.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, classes, "per-module columns follow the class list");
    }
}

/// `replay` renders to `want` at 1 and at 4 threads.
fn assert_golden(s: &Setup, want: &str, replay: impl Fn() -> NetworkRun) {
    common::threads::under_thread_counts(|| {
        let run = replay();
        assert_module_order(s, &run);
        assert_eq!(render(&run), want, "at {} threads", parallel::num_threads());
    });
}

fn assert_batch_golden(placement: Placement, want: &str) {
    let s = setup();
    let trace = generate_trace(&s.topo, &s.tm, &TraceConfig::new(SESSIONS, SEED));
    let h = KeyedHasher::with_key(KEY);
    assert_golden(&s, want, || {
        run_coordinated(&s.dep, &s.manifest, &s.paths, &trace, placement, h).unwrap()
    });
}

#[test]
fn event_engine_batch_replay_matches_golden() {
    assert_batch_golden(Placement::EventEngine, EVENT_ENGINE);
}

#[test]
fn policy_engine_batch_replay_matches_golden() {
    assert_batch_golden(Placement::PolicyEngine, POLICY_ENGINE);
}

/// The §2.5 fine-grained branch resolves policy-side interest at
/// connection setup; no runner enables it, so drive the engines directly.
#[test]
fn fine_grained_event_engine_matches_golden() {
    let s = setup();
    let trace = generate_trace(&s.topo, &s.tm, &TraceConfig::new(SESSIONS, SEED));
    let names: Vec<String> = s.dep.classes.iter().map(|c| c.name.clone()).collect();
    assert_golden(&s, FINE_GRAINED, || {
        let per_node = (0..s.dep.num_nodes)
            .map(|j| {
                let node = NodeId(j);
                let coord = CoordContext::new(&s.dep, &s.manifest);
                let h = KeyedHasher::with_key(KEY);
                let mut engine =
                    Engine::new(node, Placement::EventEngine, &names, Some(coord), h).unwrap();
                engine.set_fine_grained(true);
                for session in trace.onpath_sessions(&s.paths, node) {
                    engine.process_session(session);
                }
                engine.stats()
            })
            .collect();
        NetworkRun { per_node, alerts: Default::default() }
    });
}

/// The run starts on the oracle's manifest, but every swap installs a
/// manifest the `ReloadController` re-solves by Dantzig–Wolfe decomposition,
/// so these figures also pin which optimal point the decomposition picks.
#[test]
fn stream_reload_with_swaps_matches_golden() {
    let s = setup();
    let trace_cfg = TraceConfig::new(SESSIONS, SEED);
    let reload_cfg = ReloadConfig {
        epochs: 3,
        total_sessions: SESSIONS as u64,
        caps: &s.caps,
        redundancy: 1.0,
        max_load: 1.0,
        blend: 0.5,
        sabotage: Sabotage::None,
    };
    assert_golden(&s, STREAM_RELOAD, || {
        let reload = run_coordinated_stream_reload(
            &s.dep,
            &s.manifest,
            &s.paths,
            || SessionStream::new(&s.topo, &s.tm, &trace_cfg),
            Placement::PolicyEngine,
            KeyedHasher::with_key(KEY),
            2,
            &reload_cfg,
        )
        .unwrap();
        assert!(reload.swaps() >= 1, "the run must exercise a live manifest swap");
        reload.run
    });
}

const EVENT_ENGINE: &str = "\
0 2380578 138274 1894 354 0 6552 3846 104 | 77190 145800 27856 16261 37544 226160 20996 358506 121920
1 3275645 158516 3151 436 994 16905 3198 104 | 90410 137100 31184 17194 42076 235974 22200 359532 133380
2 5649525 325277 5893 969 94 21790 7939 144 | 32165 460050 23632 35201 54088 295966 34342 226926 342090
3 4437720 182175 4920 515 2249 30134 3446 99 | 72995 165000 23632 25791 22380 221953 12450 352179 163500
4 4838322 206049 5363 597 2662 33903 3675 86 | 118685 168750 18272 31629 32714 164115 17696 404631 170190
5 5454579 244157 5897 721 1746 31050 5111 94 | 109740 294300 39912 21899 33044 143247 24296 478656 242280
6 5985088 278371 6523 807 1823 33551 6757 122 | 40870 375000 33376 31485 25978 257869 17119 414441 283200
7 5305117 162012 6280 444 4251 45623 3527 103 | 104895 146550 21480 16237 46296 208670 23669 376695 127770
8 6595860 280929 7463 837 2558 41377 4952 111 | 43980 323250 33496 29363 23122 256645 16773 465606 281010
9 5456833 238693 6334 729 2163 34452 4869 71 | 101435 283650 21600 35201 41572 80519 24223 277083 243330
10 7456939 425598 7910 1310 450 31372 10133 110 | 118710 636000 9664 4825 44790 266062 29273 322875 436380
";

const POLICY_ENGINE: &str = "\
0 2765518 138274 1894 354 0 7884 4783 104 | 177390 145800 71256 58261 37544 439660 20996 358506 121920
1 3701305 158516 3151 436 994 18254 4304 104 | 205910 137100 82984 62344 42076 466624 22200 359532 133380
2 6934915 325277 5893 969 94 26643 8696 144 | 330815 460050 177982 201101 54088 1001216 34342 226926 342090
3 4964070 182175 4920 515 2249 31904 4531 99 | 214295 165000 65282 107341 22380 504403 12450 352179 163500
4 5361692 206049 5363 597 2662 35354 4890 86 | 267635 168750 70772 103379 32714 438165 17696 404631 170190
5 6387439 244157 5897 721 1746 34451 6879 94 | 324540 294300 162062 125499 33044 664397 24296 478656 242280
6 7060608 278371 6523 807 1823 37487 7560 122 | 286270 375000 168826 153285 25978 863019 17119 414441 283200
7 5688257 162012 6280 444 4251 46703 4484 103 | 216345 146550 53680 54037 46296 428120 23669 376695 127770
8 7680430 280929 7463 837 2558 45402 5819 111 | 298230 323250 161596 167263 23122 854445 16773 465606 281010
9 6333723 238693 6334 729 2163 37679 6282 71 | 317285 283650 112950 150701 41572 563869 24223 277083 243330
10 9149889 425598 7910 1310 450 37467 12039 110 | 507810 636000 215814 249475 44790 1171512 29273 322875 436380
";

const FINE_GRAINED: &str = "\
0 2380578 125154 1894 354 0 6255 3692 104 | 77190 145800 27856 16261 37544 226160 20996 358506 121920
1 3275645 138631 3151 436 994 16685 3062 104 | 90410 137100 31184 17194 42076 235974 22200 359532 133380
2 5649525 171322 5893 969 94 17500 5917 144 | 32165 460050 23632 35201 54088 295966 34342 226926 342090
3 4437720 160035 4920 515 2249 30046 3274 99 | 72995 165000 23632 25791 22380 221953 12450 352179 163500
4 4838322 192314 5363 597 2662 33835 3568 86 | 118685 168750 18272 31629 32714 164115 17696 404631 170190
5 5454579 166667 5897 721 1746 29120 4191 94 | 109740 294300 39912 21899 33044 143247 24296 478656 242280
6 5985088 165621 6523 807 1823 30596 5277 122 | 40870 375000 33376 31485 25978 257869 17119 414441 283200
7 5305117 150942 6280 444 4251 45443 3429 103 | 104895 146550 21480 16237 46296 208670 23669 376695 127770
8 6595860 211639 7463 837 2558 40274 4135 111 | 43980 323250 33496 29363 23122 256645 16773 465606 281010
9 5456833 173093 6334 729 2163 33035 4115 71 | 101435 283650 21600 35201 41572 80519 24223 277083 243330
10 7456939 250528 7910 1310 450 26595 7862 110 | 118710 636000 9664 4825 44790 266062 29273 322875 436380
";

const STREAM_RELOAD: &str = "\
0 2776362 138370 1894 354 0 7784 4862 103 | 181865 145800 71256 63006 39584 422823 20996 376452 121920
1 3599712 155342 3151 438 1004 18164 4108 82 | 205010 136200 82984 59194 42076 370356 22200 359532 132480
2 6991563 328093 5893 969 94 26580 8838 160 | 330815 460050 177982 201101 54088 1059299 34342 226926 342090
3 4984492 183827 4920 519 2227 31826 4553 99 | 215495 166200 65282 107341 22380 506256 12450 365418 164700
4 5291763 202913 5363 597 2662 35464 4673 74 | 263160 168750 70772 95755 30674 411935 17696 373446 170190
5 6447966 248302 5897 726 1702 34143 7022 109 | 326490 296250 162062 137866 33044 708252 24296 478656 244230
6 7185955 292251 6523 847 1651 36750 7719 135 | 296170 384900 171276 165614 24816 927929 17119 414441 293100
7 5613870 158140 6280 444 4251 46703 4302 83 | 216345 146550 53680 54037 46296 353733 23669 376695 127770
8 7673192 271041 7463 789 2832 46547 5962 130 | 283680 308700 147246 137046 22072 955259 15723 465606 266460
9 6318100 238341 6334 729 2172 37730 6260 69 | 317135 283500 115400 150701 41872 544971 24523 277083 243180
10 9114581 424286 7910 1310 450 37422 11971 104 | 507810 636000 215814 249475 45952 1136017 29273 322875 436380
";
