//! End-to-end checks on the artifacts `repro` writes: the metrics and
//! trace sidecars, the run report, the CSV / JSONL outputs of the
//! `warm`, `throughput`, `reload`, `resilience`, `cluster` and `alerts`
//! experiments, and the committed quick-preset Fig 5 and adversary CSVs
//! under `results/`.
//!
//! Every test runs the binary as its own process in its own directory,
//! so each run records into its own process-default `nwdp-obs` recorder. What an experiment's `run` already asserts in-process (the
//! reload swap/rejection/coverage criteria, `cluster::assert_acceptance`,
//! the alert balance and egress validation) is not repeated here; these
//! tests check what reaches the files.

use nwdp_bench::cluster::CRASH_AT;
use nwdp_bench::scenario::NidsContext;
use nwdp_bench::{throughput, Scale};
use nwdp_obs::{parse_json, Json};
use nwdp_topo::NodeId;
use nwdp_traffic::generate_trace;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Env knobs the tests set per call; cleared first so the caller's
/// environment cannot leak into a run.
const KNOBS: [&str; 5] =
    ["NWDP_TRACE", "NWDP_METRICS", "NWDP_SHARDS", "NWDP_NET_LOSS", "NWDP_ALERT"];

/// A fresh, empty working directory for one test.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_artifacts").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

/// Run `repro` in `dir` with the whitespace-separated `args` (paths
/// relative to `dir`) and exactly the knobs in `env`. Returns stdout;
/// panics with stderr when the run fails.
fn repro(dir: &Path, env: &[(&str, &str)], args: &str) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.current_dir(dir).args(args.split_whitespace());
    for knob in KNOBS {
        cmd.env_remove(knob);
    }
    cmd.envs(env.iter().copied());
    let out = cmd.output().expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn json(path: &Path) -> Json {
    parse_json(&read(path)).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A counter from a metrics sidecar; absent counts as 0.
fn counter(metrics: &Json, name: &str) -> f64 {
    metrics.get(&format!("counters/{name}")).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Asserts that every histogram in a metrics sidecar carries its p50,
/// p95 and p99 quantiles; returns how many histograms there are.
fn histograms_with_quantiles(metrics: &Json) -> usize {
    let hists = metrics.get("histograms").and_then(Json::as_obj).expect("histograms object");
    for (name, h) in hists {
        for q in ["p50", "p95", "p99"] {
            assert!(h.get(q).is_some(), "histogram {name} lacks {q}");
        }
    }
    hists.len()
}

/// Split one CSV line, honouring double-quoted cells (the warm-start
/// table's `detail` column holds commas).
fn split_csv(line: &str) -> Vec<String> {
    let mut cells = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                cells.last_mut().unwrap().push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => cells.push(String::new()),
            c => cells.last_mut().unwrap().push(c),
        }
    }
    cells
}

type Row = BTreeMap<String, String>;

/// The data rows of a CSV file, keyed by the header.
fn read_csv(path: &Path) -> Vec<Row> {
    let text = read(path);
    let mut lines = text.lines();
    let header = split_csv(lines.next().unwrap_or_else(|| panic!("{}: empty", path.display())));
    lines
        .map(|line| {
            let cells = split_csv(line);
            assert_eq!(cells.len(), header.len(), "{}: ragged row {line}", path.display());
            header.iter().cloned().zip(cells).collect()
        })
        .collect()
}

fn num(row: &Row, col: &str) -> f64 {
    let cell = row.get(col).unwrap_or_else(|| panic!("no column {col:?} in {row:?}"));
    cell.parse().unwrap_or_else(|e| panic!("column {col:?} = {cell:?}: {e}"))
}

/// Points of one replay-clock series in a `timeseries.csv`.
fn series_len(path: &Path, series: &str) -> usize {
    read_csv(path).iter().filter(|r| r["series"] == series).count()
}

#[test]
fn csv_splitter_honours_quotes() {
    assert_eq!(split_csv("a,\"b,c\",d"), ["a", "b,c", "d"]);
    assert_eq!(split_csv("\"say \"\"hi\"\"\",,x"), ["say \"hi\"", "", "x"]);
}

#[test]
fn fig5_metrics_trace_journal_and_report() {
    let dir = workdir("fig5");
    repro(
        &dir,
        &[("NWDP_TRACE", "trace.jsonl")],
        "--quick --fig 5 --metrics-out metrics.json --out results",
    );

    let m = json(&dir.join("metrics.json"));
    assert_eq!(m.get("version").and_then(Json::as_f64), Some(1.0));
    histograms_with_quantiles(&m);
    // Fig 5 solves no LP and runs no rounding, FPL or flow oracle, so the
    // sidecar must hold no such metric: it records only the requested work.
    for kind in ["counters", "gauges", "timers", "histograms"] {
        for (name, _) in m.get(kind).and_then(Json::as_obj).into_iter().flatten() {
            assert!(
                !["simplex.", "rowgen.", "round.", "fpl.", "flow."]
                    .iter()
                    .any(|p| name.starts_with(p)),
                "fig 5 metrics hold {kind} {name} from work fig 5 never did"
            );
        }
    }

    // Every journal line is valid JSON and the span records balance.
    let mut open = HashSet::new();
    let mut spans = 0;
    for (n, line) in read(&dir.join("trace.jsonl")).lines().enumerate() {
        let rec = parse_json(line).unwrap_or_else(|e| panic!("journal line {}: {e}", n + 1));
        let id = || rec.get("id").and_then(Json::as_f64).expect("span record has an id") as u64;
        match rec.get("ev").and_then(Json::as_str) {
            Some("B") => {
                assert!(open.insert(id()), "line {}: duplicate span id", n + 1);
                let name = rec.get("name").and_then(Json::as_str).expect("span has a name");
                if name.starts_with("phase.") {
                    assert_eq!(name, "phase.fig5", "line {}: a phase fig 5 did not ask for", n + 1);
                }
                spans += 1;
            }
            Some("E") => assert!(open.remove(&id()), "line {}: close without open", n + 1),
            Some("I") => {}
            ev => panic!("line {}: unknown record type {ev:?}", n + 1),
        }
    }
    assert!(open.is_empty(), "unbalanced journal: {} spans left open", open.len());
    assert!(spans > 0, "journal recorded no spans");

    let report = repro(&dir, &[], "report --trace trace.jsonl --metrics metrics.json");
    for section in ["phase breakdown", "hottest spans", "warm-start hit rates"] {
        assert!(report.contains(section), "report lacks {section:?}:\n{report}");
    }
}

/// Asserts that `repro` wrote `results/<name>` byte for byte as
/// committed in the repository.
fn assert_matches_committed(written: &Path, name: &str) {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results").join(name);
    let (want, got) = (read(&committed), read(&written.join(name)));
    if let Some((n, (w, g))) = want.lines().zip(got.lines()).enumerate().find(|(_, (w, g))| w != g)
    {
        panic!("results/{name} line {} is stale: committed {w:?}, this build {g:?}", n + 1);
    }
    assert_eq!(want, got, "results/{name} is stale (rerun repro and commit its output)");
}

/// The committed Fig 5 CSVs (quick preset) are what this build writes, at
/// 1 and at 4 worker threads.
#[test]
fn committed_fig5_results_are_current() {
    let dir = workdir("committed_fig5");
    for threads in ["1", "4"] {
        let out = format!("threads{threads}");
        repro(&dir, &[("NWDP_THREADS", threads)], &format!("--quick --out {out} fig5"));
        for name in ["fig5a_cpu_overhead.csv", "fig5b_mem_overhead.csv"] {
            assert_matches_committed(&dir.join(&out), name);
        }
    }
}

/// The committed adversary-regret CSV (quick preset) is what this build
/// writes. The other two `ext_*` CSVs come from the full preset, which
/// takes too long for a test.
#[test]
fn committed_adversary_results_are_current() {
    let dir = workdir("committed_ext");
    repro(&dir, &[], "--quick --out results ext");
    assert_matches_committed(&dir.join("results"), "ext_adversaries.csv");
}

/// The NIDS upgrade sweep used to reject all of its warm bases; the dual
/// simplex phase repairs them. Reads the sweep's own row of the CSV, so
/// the FPL and rounding loops in the same run cannot mask it.
#[test]
fn nids_upgrade_sweep_accepts_every_warm_basis() {
    let dir = workdir("warm");
    repro(&dir, &[], "warm --quick --out results --metrics-out metrics.json");
    let rows = read_csv(&dir.join("results/warmstart_cold_vs_warm.csv"));
    let r = rows
        .iter()
        .find(|r| r["what"].starts_with("NIDS upgrade sweep"))
        .expect("NIDS upgrade sweep row missing from warm-start CSV");
    assert!(num(r, "hits") > 0.0, "sweep accepted no warm bases: {r:?}");
    assert_eq!(num(r, "fallbacks"), 0.0, "sweep fell back cold: {r:?}");
    assert!(num(r, "warm iters") < num(r, "cold iters"), "warm pass saved no iterations: {r:?}");

    // The sweeps solve NIDS LPs and NIPS relaxations and round them.
    let m = json(&dir.join("metrics.json"));
    for key in ["simplex.solves", "simplex.iterations", "round.trials", "rowgen.solves"] {
        assert!(counter(&m, key) > 0.0, "missing or zero counter: {key}");
    }
    assert!(histograms_with_quantiles(&m) > 0, "warm run recorded no histogram");
}

#[test]
fn throughput_csv_honours_pinned_shards() {
    let dir = workdir("throughput");
    repro(&dir, &[("NWDP_SHARDS", "3")], "throughput --quick --out results");
    let rows = read_csv(&dir.join("results/throughput.csv"));
    let r = rows.first().expect("throughput CSV has no rows");
    assert_eq!(num(r, "shards"), 3.0, "{r:?}");
    assert!(num(r, "sessions/s") > 0.0, "{r:?}");
    assert!(num(r, "p99 pkt ns") >= num(r, "p50 pkt ns") && num(r, "p50 pkt ns") > 0.0, "{r:?}");
}

#[test]
fn throughput_stream_reads_each_session_once() {
    let dir = workdir("throughput_metrics");
    repro(&dir, &[], "--quick throughput --out results --metrics-out metrics.json");
    let m = json(&dir.join("metrics.json"));
    // Only the latency pass streams with metrics on: the source is read
    // once, and every session reaches each node on its path once.
    let ctx = NidsContext::internet2();
    let trace = generate_trace(&ctx.topo, &ctx.tm, &throughput::trace_config(Scale::Quick));
    let onpath: usize = (0..ctx.topo.num_nodes())
        .map(|j| trace.onpath_sessions(&ctx.paths, NodeId(j)).count())
        .sum();
    assert_eq!(counter(&m, "engine.stream.sessions"), trace.sessions.len() as f64);
    assert_eq!(counter(&m, "engine.stream.visits"), onpath as f64);
}

#[test]
fn reload_counters_and_coverage_series_are_emitted() {
    let dir = workdir("reload");
    repro(&dir, &[], "reload --quick --out reload --metrics-out reload/metrics.json");
    let out = dir.join("reload");
    let summary = read_csv(&out.join("reload_summary.csv"));
    let r = summary.first().expect("reload summary has no rows");
    assert!(!read_csv(&out.join("reload_coverage_timeseries.csv")).is_empty());
    assert!(series_len(&out.join("timeseries.csv"), "resilience.coverage") > 0);

    let m = json(&out.join("metrics.json"));
    let counters = m.get("counters").and_then(Json::as_obj).expect("counters object");
    assert!(
        counters
            .iter()
            .any(|(k, v)| k.starts_with("engine.packets{") && v.as_f64().unwrap_or(0.0) > 0.0),
        "no per-node engine packet counters"
    );
    assert!(histograms_with_quantiles(&m) > 0, "reload run recorded no histogram");
    assert!(counter(&m, "reload.swaps") >= 3.0, "reload.swaps");
    // Every re-solve is a Dantzig–Wolfe solve that certified its gap.
    assert!(counter(&m, "nids.dw_rounds") > 0.0, "nids.dw_rounds");
    let gap = m.get("gauges/nids.gap").and_then(Json::as_f64).expect("nids.gap gauge");
    assert!(gap <= 1e-9, "uncertified NIDS gap {gap}");
    assert!(counter(&m, "reload.rejected") >= 1.0, "reload.rejected");
    assert_eq!(
        counter(&m, "reload.resolves"),
        num(r, "swapped") + num(r, "rejected") + counter(&m, "reload.solve_failed"),
        "every re-solve ends in a swap, a rejection or a failed solve"
    );
}

#[test]
fn resilience_sweep_runs_the_epoch_planner() {
    let dir = workdir("resilience");
    repro(&dir, &[], "resilience --quick --out res --metrics-out res/metrics.json");
    let out = dir.join("res");
    assert_eq!(read_csv(&out.join("resilience_crash_sweep.csv")).len(), 33, "3 windows x 11 nodes");
    assert_eq!(read_csv(&out.join("resilience_detection_tradeoff.csv")).len(), 3);
    assert_eq!(
        read_csv(&out.join("resilience_coverage_timeseries.csv")).len(),
        132,
        "start, crash, repair and end of replay per crash"
    );

    let m = json(&out.join("metrics.json"));
    assert_eq!(counter(&m, "resilience.repairs"), 33.0, "one repair per crash");
    assert_eq!(counter(&m, "resilience.epochs"), 66.0, "a blind and a repaired epoch per crash");
    assert!(series_len(&out.join("timeseries.csv"), "resilience.coverage") > 0);
}

#[test]
fn cluster_artifacts_at_zero_and_ten_percent_loss() {
    let dir = workdir("cluster");
    repro(&dir, &[("NWDP_NET_LOSS", "0")], "cluster --quick --out loss0");
    repro(
        &dir,
        &[("NWDP_NET_LOSS", "0.1")],
        "cluster --quick --out loss10 --metrics-out metrics.json",
    );

    let point = |sub: &str, loss: f64| {
        let rows = read_csv(&dir.join(sub).join("cluster_convergence.csv"));
        assert_eq!(rows.len(), 1, "{sub}: NWDP_NET_LOSS must pin the sweep to one point");
        let r = rows.into_iter().next().unwrap();
        assert_eq!(num(&r, "loss"), loss, "{r:?}");
        assert!(num(&r, "detections") >= 2.0, "{sub}: crash and partition both declared: {r:?}");
        assert!(num(&r, "epochs") >= 3.0, "{sub}: one repair epoch per scripted fault: {r:?}");
        assert!(num(&r, "detect_at") > CRASH_AT, "{sub}: detected after the crash");
        let floor = num(&r, "coverage_floor");
        assert!(floor > 0.0 && floor <= 1.0, "{r:?}");
        assert!(read_csv(&dir.join(sub).join("cluster_epochs.csv")).len() >= 2, "{sub}: epochs");
        r
    };
    let r0 = point("loss0", 0.0);
    assert_eq!((num(&r0, "retries"), num(&r0, "timeouts")), (0.0, 0.0), "{r0:?}");
    let r10 = point("loss10", 0.1);
    assert!(num(&r10, "retries") > 0.0, "10% loss must exercise the retry path: {r10:?}");

    let m = json(&dir.join("metrics.json"));
    for key in [
        "net.sends",
        "net.delivered",
        "net.drops_loss",
        "net.heartbeats",
        "net.installs",
        "net.retries",
        "net.repairs",
    ] {
        assert!(counter(&m, key) > 0.0, "missing or zero counter: {key}");
    }
    assert!(counter(&m, "net.delivered") < counter(&m, "net.sends"), "lossy run dropped nothing");
    assert!(series_len(&dir.join("loss10/timeseries.csv"), "net.coverage") > 0);
}

#[test]
fn alert_metrics_mirror_the_summary() {
    let dir = workdir("alerts");
    repro(&dir, &[], "alerts --quick --out alerts --metrics-out alerts/metrics.json");
    let summary = read_csv(&dir.join("alerts/alerts_summary.csv"));
    let emitted = num(summary.first().expect("alert summary has no rows"), "emitted");

    let m = json(&dir.join("alerts/metrics.json"));
    assert_eq!(counter(&m, "alert.emitted"), emitted);
    assert_eq!(
        emitted,
        counter(&m, "alert.written")
            + counter(&m, "alert.deduped")
            + counter(&m, "alert.dropped_ratelimit")
    );
    let hist = |field: &str| {
        m.get(&format!("histograms/alert.emit_ns/{field}")).and_then(Json::as_f64).unwrap_or(0.0)
    };
    assert!(hist("count") >= emitted && hist("sum") > 0.0, "alert.emit_ns histogram");
}

#[test]
fn nwdp_alert_env_installs_a_jsonl_writer() {
    let dir = workdir("alert_env");
    repro(&dir, &[("NWDP_ALERT", "alerts.jsonl")], "throughput --quick --out results");
    let text = read(&dir.join("alerts.jsonl"));
    assert!(!text.is_empty(), "NWDP_ALERT egress is empty");
    for (n, line) in text.lines().enumerate() {
        parse_json(line).unwrap_or_else(|e| panic!("egress line {}: {e}", n + 1));
    }
}

#[test]
fn cluster_alert_forwarding_runs_under_loss() {
    let dir = workdir("cluster_alerts");
    repro(
        &dir,
        &[("NWDP_NET_LOSS", "0.1"), ("NWDP_ALERT", "alerts.jsonl")],
        "cluster --quick --out cluster --metrics-out metrics.json",
    );
    let m = json(&dir.join("metrics.json"));
    assert!(counter(&m, "net.alert_sends") > 0.0, "alert forwarding must run");
    assert!(counter(&m, "net.alert_drops") > 0.0, "10% loss must drop some alert reports");
    assert!(counter(&m, "net.alerts_forwarded") >= counter(&m, "net.alert_delivered"));
}
