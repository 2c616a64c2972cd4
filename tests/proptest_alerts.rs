//! Alert-plane hardening: over hostile record fields (embedded pipes,
//! equals signs, newlines, NULs, control bytes, quotes, deep JSON-ish
//! nesting) the SIEM encoders must never produce an injectable or
//! structurally unbalanced line — every JSONL line re-parses to the
//! original record, every CEF line keeps exactly its seven unescaped
//! header pipes — and with the alert plane off (`NWDP_ALERT` unset) the
//! data plane stays bit-identical across thread and shard counts.

mod common;

use nwdp::core::parallel;
use nwdp::obs;
use nwdp::prelude::*;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// The characters an attacker would aim at each encoder: CEF field and
/// key separators, the escape character itself, line breaks, NUL and
/// other control bytes, JSON string syntax, and multibyte UTF-8.
const HOSTILE: &[char] = &[
    '|', '=', '\\', '\n', '\r', '\0', '\u{1}', '\u{8}', '\t', '\u{1b}', '\u{7f}', '"', '{', '}',
    '[', ']', ':', ',', ' ', 'a', 'Z', '0', '.', 'é', '☃',
];

fn arb_hostile() -> impl proptest::strategy::Strategy<Value = String> {
    proptest::collection::vec(0usize..HOSTILE.len(), 0..24)
        .prop_map(|ix| ix.into_iter().map(|i| HOSTILE[i]).collect())
}

fn record(class: String, kind: String, seed: u64) -> obs::AlertRecord {
    obs::AlertRecord {
        ts: (seed % 1000) as f64 / 1000.0,
        node: seed % 11,
        class,
        kind,
        subject: seed.wrapping_mul(0x9e3779b97f4a7c15),
        severity: (seed % 10) as u8,
        src_ip: (seed >> 8) as u32,
        dst_ip: (seed >> 16) as u32,
        src_port: (seed >> 24) as u16,
        dst_port: (seed >> 32) as u16,
        proto: if seed.is_multiple_of(2) { 6 } else { 17 },
    }
}

/// Unescaped `=` signs in a CEF extension — exactly one per key, or an
/// attacker smuggled a key boundary through a value.
fn unescaped_equals(ext: &str) -> usize {
    let bytes = ext.as_bytes();
    let mut n = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 1, // skip the escaped character
            b'=' => n += 1,
            _ => {}
        }
        i += 1;
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// CEF: one line, seven unescaped header pipes, every header field
    /// unescapes, the kind round-trips through field 4, and the
    /// extension holds exactly its ten `key=` separators.
    #[test]
    fn cef_encoding_is_never_injectable(
        case in (arb_hostile(), arb_hostile(), 0u64..1_000_000)
    ) {
        let (class, kind, seed) = case;
        let rec = record(class.clone(), kind.clone(), seed);
        let line = obs::encode_cef(&rec);
        prop_assert!(!line.contains('\n') && !line.contains('\r') && !line.contains('\0'),
            "raw line break or NUL in CEF line: {:?}", line);
        let Some((header, ext)) = obs::split_cef(&line) else {
            return Err(TestCaseError::fail(format!("CEF line does not split: {line:?}")));
        };
        prop_assert_eq!(header.len(), 7, "CEF header must keep exactly 7 fields: {:?}", line);
        prop_assert_eq!(header[0].as_str(), "CEF:0");
        for f in &header {
            prop_assert!(obs::cef_unescape(f).is_some(), "header field {:?} does not unescape", f);
        }
        // Injectivity: the hostile kind comes back byte-for-byte.
        prop_assert_eq!(obs::cef_unescape(&header[4]).unwrap(), kind);
        prop_assert!(header[6].parse::<u8>().is_ok(), "severity field {:?}", header[6]);
        prop_assert_eq!(unescaped_equals(&ext), 10,
            "extension key separators corrupted: {:?}", ext);
    }

    /// JSONL: one line, parses back, and the hostile class/kind strings
    /// and every numeric field round-trip exactly.
    #[test]
    fn jsonl_encoding_round_trips_hostile_fields(
        case in (arb_hostile(), arb_hostile(), 0u64..1_000_000)
    ) {
        let (class, kind, seed) = case;
        let rec = record(class.clone(), kind.clone(), seed);
        let line = obs::encode_jsonl(&rec);
        prop_assert!(!line.contains('\n') && !line.contains('\r'),
            "raw line break in JSONL line: {:?}", line);
        let doc = match obs::parse_json(&line) {
            Ok(d) => d,
            Err(e) => return Err(TestCaseError::fail(format!("unparseable ({e}): {line:?}"))),
        };
        prop_assert_eq!(doc.get("class").and_then(obs::Json::as_str), Some(class.as_str()));
        prop_assert_eq!(doc.get("kind").and_then(obs::Json::as_str), Some(kind.as_str()));
        let num = |k: &str| doc.get(k).and_then(obs::Json::as_f64);
        prop_assert_eq!(num("node"), Some(rec.node as f64));
        prop_assert_eq!(num("subject"), Some(rec.subject as f64));
        prop_assert_eq!(num("severity"), Some(rec.severity as f64));
        prop_assert_eq!(num("src_ip"), Some(rec.src_ip as f64));
        prop_assert_eq!(num("dst_port"), Some(rec.dst_port as f64));
    }
}

/// A field carrying 100-deep JSON-looking nesting must ride inside one
/// escaped string literal — the emitted line stays a flat object the
/// parser accepts, and the payload round-trips byte-for-byte.
#[test]
fn deeply_nested_payload_stays_a_flat_string() {
    let depth = 100;
    let mut payload = String::new();
    for _ in 0..depth {
        payload.push_str("[{\"a\":");
    }
    payload.push_str("\"x\"");
    for _ in 0..depth {
        payload.push_str("}]");
    }
    let rec = record(payload.clone(), format!("k|{payload}"), 42);
    let line = obs::encode_jsonl(&rec);
    let doc = obs::parse_json(&line).expect("nested payload must stay inside a string literal");
    assert_eq!(doc.get("class").and_then(obs::Json::as_str), Some(payload.as_str()));
    let cef = obs::encode_cef(&rec);
    let (header, _ext) = obs::split_cef(&cef).expect("CEF line must still split");
    assert_eq!(header.len(), 7);
    assert_eq!(obs::cef_unescape(&header[4]).unwrap(), format!("k|{payload}"));
}

/// With `NWDP_ALERT` unset the alert plane is off and free: the
/// streaming data plane is bit-identical across 1/4 threads × 1/3
/// shards, and turning the plane *on* (the env-set case) still leaves
/// the `NetworkRun` untouched — the plane observes, never perturbs.
#[test]
fn data_plane_bit_identical_with_alert_plane_off_and_on() {
    assert!(!obs::alert_enabled(), "NWDP_ALERT is unset: the plane must start off");
    let topo = nwdp::topo::internet2();
    let paths = PathDb::shortest_paths(&topo);
    let tm = TrafficMatrix::gravity(&topo);
    let vol = VolumeModel::internet2_baseline();
    let dep = build_units(&topo, &paths, &tm, &vol, &AnalysisClass::standard_set());
    let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
    let assignment = solve_nids_lp(&dep, &cfg).unwrap();
    let manifest = generate_manifests(&dep, &assignment.d);
    let trace_cfg = TraceConfig::new(2500, 17);
    let h = KeyedHasher::with_key(5);

    let run_once = |shards: usize| {
        run_coordinated_stream(
            &dep,
            &manifest,
            &paths,
            || SessionStream::new(&topo, &tm, &trace_cfg),
            Placement::EventEngine,
            h,
            shards,
        )
        .unwrap()
    };

    let baseline = run_once(1);
    common::threads::under_thread_counts(|| {
        let threads = parallel::num_threads();
        for shards in [1usize, 3] {
            let off = run_once(shards);
            assert_eq!(
                off.alerts, baseline.alerts,
                "plane off must be bit-identical ({threads} threads, {shards} shards)"
            );
            for (a, b) in off.per_node.iter().zip(&baseline.per_node) {
                assert_eq!(a.packets, b.packets);
                assert_eq!(a.cpu_cycles, b.cpu_cycles);
                assert_eq!(a.mem_peak, b.mem_peak);
                assert_eq!(a.per_module_cpu, b.per_module_cpu);
                assert_eq!(a.alerts, b.alerts);
            }
        }
    });

    // Plane on: structured emission runs, results stay identical, and the
    // egress bytes are themselves thread-count-invariant at a fixed shard
    // count (merge-time re-detections get a deterministic context, not
    // whatever the merging thread last processed).
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap_or_else(|e| e.into_inner()).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let egress = common::threads::under_thread_counts(|| {
        let buf = SharedBuf::default();
        let (on, stats) = obs::scoped(&obs::Recorder::new(), || {
            obs::add_alert_writer(obs::AlertFormat::Jsonl, Box::new(buf.clone()));
            obs::set_alert_enabled(true);
            let on = run_once(3);
            (on, obs::flush_alerts().unwrap())
        });

        assert_eq!(on.alerts, baseline.alerts, "plane on must not perturb the run");
        for (a, b) in on.per_node.iter().zip(&baseline.per_node) {
            assert_eq!(a.packets, b.packets);
            assert_eq!(a.cpu_cycles, b.cpu_cycles);
            assert_eq!(a.per_module_cpu, b.per_module_cpu);
            assert_eq!(a.alerts, b.alerts);
        }
        assert!(stats.emitted > 0, "the plane must have seen the detections");
        assert_eq!(stats.emitted, stats.written + stats.deduped + stats.dropped_ratelimit);
        let bytes = buf.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
        bytes
    });
    assert_eq!(
        egress.0, egress.1,
        "egress must be byte-identical across thread counts at fixed shards"
    );
}
