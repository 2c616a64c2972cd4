//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!   repro [--quick] [--out DIR] [--metrics-out FILE] [--fig N]...
//!         [fig5 fig6 fig7 fig8 fig10 fig11 opt-time ext warm resilience throughput | all]
//!   repro report --trace FILE [--metrics FILE] [--top N] [--chrome FILE]
//!
//! Results are written as CSV files under `--out` (default `results/`) and
//! printed as ASCII tables. `--fig 5` is shorthand for the `fig5`
//! experiment name.
//!
//! `--metrics-out FILE` (or the `NWDP_METRICS=FILE` environment variable)
//! enables the `nwdp-obs` metrics layer and writes a JSON dump of every
//! counter/gauge/timer/histogram on exit, plus a `timeseries.csv` of the
//! replay-clock series under `--out`. The dump holds only the work of
//! the experiments requested.
//!
//! `NWDP_TRACE=FILE` additionally journals every span/event to a JSONL
//! file; `repro report` turns that journal (and optionally the metrics
//! dump) into per-phase wall-time, hottest-span and warm-start tables.

use nwdp_bench::output::Table;
use nwdp_bench::{
    alerts, cluster, fig10, fig11, fig5, fig678, opttime, reload, report, throughput, warmstart,
    Scale,
};
use nwdp_core::obs;
use std::path::PathBuf;
use std::process::exit;

struct Cli {
    quick: bool,
    out: PathBuf,
    metrics_out: Option<PathBuf>,
    wanted: Vec<String>,
}

/// Flushes the metrics sink and the trace journal no matter how `main`
/// unwinds; paired with `obs::install_panic_flush` so even a panicking
/// run leaves valid artifacts behind.
struct FlushGuard;

impl Drop for FlushGuard {
    fn drop(&mut self) {
        // Alerts first: flushing mirrors the final emitted/written/dropped
        // deltas into the `alert.*` counters, which the metrics dump below
        // must include.
        let _ = obs::flush_alerts();
        let _ = obs::flush();
        obs::flush_trace();
    }
}

fn value_of(args: &[String], i: usize, flag: &str) -> String {
    match args.get(i + 1) {
        Some(v) => v.clone(),
        None => {
            eprintln!("repro: {flag} requires a value");
            exit(2);
        }
    }
}

/// `repro report --trace FILE [--metrics FILE] [--top N] [--chrome FILE]`.
fn report_main(args: &[String]) -> ! {
    let mut trace: Option<PathBuf> = None;
    let mut metrics: Option<PathBuf> = None;
    let mut chrome: Option<PathBuf> = None;
    let mut top = 10usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => {
                trace = Some(PathBuf::from(value_of(args, i, "--trace")));
                i += 1;
            }
            "--metrics" => {
                metrics = Some(PathBuf::from(value_of(args, i, "--metrics")));
                i += 1;
            }
            "--chrome" => {
                chrome = Some(PathBuf::from(value_of(args, i, "--chrome")));
                i += 1;
            }
            "--top" => {
                top = match value_of(args, i, "--top").parse() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("repro report: --top takes a number");
                        exit(2);
                    }
                };
                i += 1;
            }
            other => {
                eprintln!("repro report: unknown argument {other}");
                exit(2);
            }
        }
        i += 1;
    }
    let Some(trace) = trace else {
        eprintln!("repro report: --trace FILE is required");
        exit(2);
    };
    match report::run(&trace, metrics.as_deref(), top, chrome.as_deref()) {
        Ok(()) => exit(0),
        Err(e) => {
            eprintln!("repro report: {e}");
            exit(1);
        }
    }
}

fn parse_args(args: &[String]) -> Cli {
    let mut cli =
        Cli { quick: false, out: PathBuf::from("results"), metrics_out: None, wanted: Vec::new() };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cli.quick = true,
            "--out" => {
                cli.out = PathBuf::from(value_of(args, i, "--out"));
                i += 1;
            }
            "--metrics-out" => {
                cli.metrics_out = Some(PathBuf::from(value_of(args, i, "--metrics-out")));
                i += 1;
            }
            "--fig" => {
                cli.wanted.push(format!("fig{}", value_of(args, i, "--fig")));
                i += 1;
            }
            flag if flag.starts_with("--") => {
                eprintln!("repro: unknown flag {flag}");
                exit(2);
            }
            name => cli.wanted.push(name.to_string()),
        }
        i += 1;
    }
    if cli.wanted.is_empty() || cli.wanted.iter().any(|w| w == "all") {
        cli.wanted = [
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig10",
            "fig11",
            "opt-time",
            "ext",
            "warm",
            "resilience",
            "throughput",
            "reload",
            "cluster",
            "alerts",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    cli
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("report") {
        report_main(&args[1..]);
    }
    let cli = parse_args(&args);
    let scale = Scale::from_flag(cli.quick);

    // Metrics: an explicit --metrics-out wins; otherwise NWDP_METRICS may
    // install a sink. Either way the obs layer stays disabled (one relaxed
    // atomic load per instrumentation site) unless a dump was requested.
    let env_sink = obs::init_from_env();
    if cli.metrics_out.is_some() {
        obs::set_enabled(true);
    }
    // Tracing: NWDP_TRACE=FILE journals spans/events as JSONL;
    // NWDP_LP_TRACE streams them to stderr. The panic hook and the drop
    // guard make both sinks survive a mid-run panic with valid (partial)
    // contents.
    let trace_path = obs::init_trace_from_env();
    // Alert plane: NWDP_ALERT=FILE[:format] turns on structured detection
    // egress; unset means the plane stays off and outputs bit-identical.
    let alert_path = nwdp_core::alertcfg::init_alert_from_env();
    obs::install_panic_flush();
    let _flush_guard = FlushGuard;
    let metrics_on = obs::enabled();
    if let Some(p) = &trace_path {
        println!("repro: tracing to {}", p.display());
    }
    if let Some(p) = &alert_path {
        println!("repro: alert egress to {}", p.display());
    }
    let root_span = obs::span!("repro");

    println!(
        "repro: scale = {:?}, experiments = {:?}, output = {}",
        scale,
        cli.wanted,
        cli.out.display()
    );

    for w in &cli.wanted {
        let started = std::time::Instant::now();
        let _span = obs::span(&format!("phase.{w}"));
        match w.as_str() {
            "fig5" => {
                let r = fig5::run(scale);
                let (cpu, mem) = fig5::tables(&r);
                emit(&cpu, &cli.out, "fig5a_cpu_overhead");
                emit(&mem, &cli.out, "fig5b_mem_overhead");
            }
            "fig6" => {
                let pts = fig678::fig6(scale);
                emit(&fig678::table6(&pts), &cli.out, "fig6_modules_sweep");
            }
            "fig7" => {
                let pts = fig678::fig7(scale);
                emit(&fig678::table7(&pts), &cli.out, "fig7_volume_sweep");
            }
            "fig8" => {
                let r = fig678::fig8(scale);
                emit(&fig678::table8(&r), &cli.out, "fig8_per_node");
            }
            "fig10" => {
                let topos = fig10::topologies();
                let pts = fig10::run(scale, &topos);
                emit(&fig10::table(&pts), &cli.out, "fig10_rounding_quality");
            }
            "fig11" => {
                let runs = fig11::run(scale);
                emit(&fig11::table(&runs), &cli.out, "fig11_online_regret");
                println!(
                    "final worst-case normalized regret: {:.3} (paper: ≤ 0.15)",
                    fig11::final_worst_regret(&runs)
                );
            }
            "ext" => {
                emit(
                    &nwdp_bench::extensions::fine_grained_ablation(scale),
                    &cli.out,
                    "ext_fine_grained",
                );
                emit(
                    &nwdp_bench::extensions::redundancy_cost(scale),
                    &cli.out,
                    "ext_redundancy_cost",
                );
                emit(
                    &nwdp_bench::extensions::adversary_comparison(scale),
                    &cli.out,
                    "ext_adversaries",
                );
            }
            "warm" => {
                let (epochs, trials) = if cli.quick { (50, 5) } else { (200, 10) };
                let rows = vec![
                    warmstart::fpl_cold_vs_warm(epochs, 6, 17),
                    warmstart::rounding_cold_vs_warm(trials, 6, 17),
                    warmstart::provisioning_cold_vs_warm(2.0),
                ];
                emit(&warmstart::table(&rows), &cli.out, "warmstart_cold_vs_warm");
            }
            "resilience" => {
                let pts = nwdp_bench::resilience::run(scale);
                emit(&nwdp_bench::resilience::table(&pts), &cli.out, "resilience_crash_sweep");
                emit(
                    &nwdp_bench::resilience::summary(&pts),
                    &cli.out,
                    "resilience_detection_tradeoff",
                );
                emit(
                    &nwdp_bench::resilience::coverage_timeseries(&pts),
                    &cli.out,
                    "resilience_coverage_timeseries",
                );
            }
            "throughput" => {
                let r = throughput::run(scale);
                emit(&throughput::table(&r), &cli.out, "throughput");
            }
            "reload" => {
                let b = reload::run(scale);
                emit(&reload::table(&b), &cli.out, "reload_epochs");
                emit(&reload::coverage_timeseries(&b), &cli.out, "reload_coverage_timeseries");
                emit(&reload::summary(&b), &cli.out, "reload_summary");
                println!(
                    "reload: {} swaps, {} rejected, coverage floor {:.9}",
                    b.run.swaps(),
                    b.run.rejected(),
                    b.run.coverage_floor()
                );
            }
            "cluster" => {
                let points = cluster::run(scale);
                emit(&cluster::table(&points), &cli.out, "cluster_convergence");
                emit(&cluster::epochs_table(&points), &cli.out, "cluster_epochs");
                let p = &points[points.len() - 1];
                println!(
                    "cluster: loss {:.2} -> {} detections, final epoch {}, coverage floor {:.9}",
                    p.loss,
                    p.run.detections.len(),
                    p.run.final_epoch,
                    p.run.coverage_floor()
                );
            }
            "alerts" => {
                let b = alerts::run(scale, &cli.out);
                emit(&alerts::table(&b), &cli.out, "alerts_summary");
                emit(&alerts::class_table(&b), &cli.out, "alerts_by_class");
                emit(&alerts::talkers_table(&b), &cli.out, "alerts_top_talkers");
                let s = &b.stats;
                println!(
                    "alerts: {} emitted = {} written + {} deduped + {} rate-limited ({} + {})",
                    s.emitted,
                    s.written,
                    s.deduped,
                    s.dropped_ratelimit,
                    b.jsonl_path.display(),
                    b.cef_path.display()
                );
            }
            "opt-time" => {
                let mut rows = vec![opttime::nids_lp_time(50, 50)];
                let (n, rules) = if cli.quick { (30, 25) } else { (50, 50) };
                rows.push(opttime::nips_pipeline_time(n, rules, 51));
                emit(&opttime::table(&rows), &cli.out, "opt_time");
            }
            other => eprintln!("unknown experiment: {other}"),
        }
        println!("[{w} done in {:.1}s]\n", started.elapsed().as_secs_f64());
    }

    drop(root_span);

    if metrics_on {
        if let Some(path) = &cli.metrics_out {
            match obs::write_json(path) {
                Ok(()) => println!("metrics written to {}", path.display()),
                Err(e) => {
                    eprintln!("repro: failed to write metrics to {}: {e}", path.display());
                    exit(1);
                }
            }
        }
        if env_sink.is_some() {
            match obs::flush() {
                Ok(true) => {}
                Ok(false) => eprintln!("repro: NWDP_METRICS set but no sink flushed"),
                Err(e) => {
                    eprintln!("repro: failed to flush NWDP_METRICS sink: {e}");
                    exit(1);
                }
            }
        }
        // Replay-clock series (coverage, regret, re-solve iterations, …)
        // collected during the run.
        let ts_path = cli.out.join("timeseries.csv");
        match obs::write_series_csv(&ts_path) {
            Ok(true) => println!("time series written to {}", ts_path.display()),
            Ok(false) => {}
            Err(e) => eprintln!("repro: failed to write {}: {e}", ts_path.display()),
        }
    }
    if trace_path.is_some() {
        obs::flush_trace();
    }
}

fn emit(t: &Table, out: &std::path::Path, name: &str) {
    t.emit(out, name).expect("write results");
}
