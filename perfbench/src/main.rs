//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <steady|mixshift|nips> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a stamp line (git sha, `nproc`, threads, shards, seed, workload
//! parameters), then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones ([`END_TO_END`]); with `--trace 1` a traced replay
//! follows the untraced passes and the metrics are the per-layer ones
//! ([`PER_LAYER`]). See `perfbench/README.md` for what each measures.

mod mixshift;
mod nids;
mod nips;
mod report;
mod rss;
mod spans;
mod stats;
mod steady;

use report::Report;
use std::time::Instant;

/// End-to-end metrics every workload reports, with their units.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MiB"), ("plan_quality", "ratio")];

/// Per-layer metrics of the traced run, with their units. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traffic.stream_next.self_s", "s"),
    ("traffic.sessions_generated", "count"),
    ("route.filter.self_s", "s"),
    ("route.shard_of.self_s", "s"),
    ("route.onpath_visits", "count"),
    ("engine.visit.self_s", "s"),
    ("engine.visit.p50_ns", "ns"),
    ("engine.visit.p99_ns", "ns"),
    ("engine.visit.count", "count"),
    ("engine.skip_share", "ratio"),
    ("engine.range_hit_rate", "ratio"),
    ("engine.connections", "count"),
    ("engine.max_node_cpu_gcycles", "Gcycles"),
    ("engine.new.self_s", "s"),
    ("engine.absorb_shard.self_s", "s"),
    ("engine.stats.self_s", "s"),
    ("engine.worker_busy_max_s", "s"),
    ("engine.worker_busy_mean_s", "s"),
    ("engine.join_wait_s", "s"),
    ("alert.flush.self_s", "s"),
    ("alert.emitted", "count"),
    ("alert.written", "count"),
    ("alert.deduped", "count"),
    ("alert.dropped_ratelimit", "count"),
    ("core.build_units.self_s", "s"),
    ("nids.solve_lp.self_s", "s"),
    ("nids.solve_lp.iterations", "count"),
    ("nids.generate_manifests.self_s", "s"),
    ("reload.resolve.self_s", "s"),
    ("reload.resolve.p50_s", "s"),
    ("reload.resolve.max_s", "s"),
    ("reload.resolve.count", "count"),
    ("reload.resolve_lp_share", "ratio"),
    ("reload.park_s", "s"),
    ("engine.set_manifest.self_s", "s"),
    ("simplex.iterations", "count"),
    ("simplex.refactorizations", "count"),
    ("simplex.degenerate_steps", "count"),
    ("simplex.dual_pivots", "count"),
    ("simplex.warmstart_hits", "count"),
    ("simplex.warmstart_rejected", "count"),
    ("nips.instance.self_s", "s"),
    ("nips.solve_relaxation.self_s", "s"),
    ("rowgen.rounds", "count"),
    ("rowgen.rows_added", "count"),
    ("nips.round_best_of.self_s", "s"),
    ("round.trials", "count"),
    ("round.lp_resolves", "count"),
    ("flow.oracle_solves", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.covered_share", "ratio"),
    ("trace.remainder_s", "s"),
];

/// The program's own simplex counters copied into the traced report.
pub const SIMPLEX_COUNTERS: &[&str] = &[
    "simplex.iterations",
    "simplex.refactorizations",
    "simplex.degenerate_steps",
    "simplex.dual_pivots",
    "simplex.warmstart_hits",
    "simplex.warmstart_rejected",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                    if !(seconds.is_finite() && seconds > 0.0) {
                        return Err(bad("a positive number of seconds"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args { workload, seed, seconds, trace })
    }

    /// Seconds of untraced passes: all of them, or half when a traced
    /// replay follows.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Run `pass` (given its index) until the wall times it returns add up
/// to `budget_s`, at least once; returns them. Checks a pass runs after
/// its timed part do not count against the budget.
pub fn timed_passes(budget_s: f64, mut pass: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut walls: Vec<f64> = Vec::new();
    while walls.is_empty() || walls.iter().sum::<f64>() < budget_s {
        walls.push(pass(walls.len()));
    }
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    eprintln!("perfbench: {} timed passes, wall s: {}", walls.len(), shown.join(" "));
    walls
}

/// Run `setup` `reps` times, report the median as `setup_s`, and keep
/// the last result.
pub fn setup_median<T>(rep: &mut Report, reps: usize, mut setup: impl FnMut() -> T) -> T {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(setup());
        walls.push(t0.elapsed().as_secs_f64());
    }
    rep.median("setup_s", &walls, "s");
    last.expect("at least one set-up")
}

/// Write the traced run's spans under `.bench_out/` in the working
/// directory (a failure to write is reported, not fatal).
pub fn write_spans(args: &Args, spans: &[spans::SpanRec]) {
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = spans::write_jsonl(&path, spans) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// The commit the working directory is checked out at, read from `.git`
/// without running git; `unknown` outside a repository.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..l.len() - reference.len()].trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn stamp(args: &Args, params: &[(&'static str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut map = std::collections::BTreeMap::from([
        ("git_sha".to_string(), nwdp_obs::Json::Str(git_sha())),
        ("nproc".to_string(), nwdp_obs::Json::Num(nproc as f64)),
        ("workload".to_string(), nwdp_obs::Json::Str(args.workload.clone())),
        ("seed".to_string(), nwdp_obs::Json::Num(args.seed as f64)),
        ("seconds".to_string(), nwdp_obs::Json::Num(args.seconds)),
        ("trace".to_string(), nwdp_obs::Json::Bool(args.trace)),
    ]);
    for (k, v) in params {
        map.insert(k.to_string(), nwdp_obs::Json::Str(v.clone()));
    }
    nwdp_obs::Json::Obj(std::collections::BTreeMap::from([(
        "stamp".to_string(),
        nwdp_obs::Json::Obj(map),
    )]))
    .render()
}

fn main() {
    // Thread, shard, reload and alert settings are fixed by each workload:
    // the program's NWDP_* environment knobs must not reach it.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("NWDP_") {
            std::env::remove_var(&key);
        }
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let params = match args.workload.as_str() {
        "steady" => steady::params(),
        "mixshift" => mixshift::params(),
        "nips" => nips::params(),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (steady, mixshift, nips)");
            std::process::exit(2);
        }
    };
    println!("{}", stamp(&args, &params));

    let mut rep = Report::default();
    match args.workload.as_str() {
        "steady" => steady::run(&args, &mut rep),
        "mixshift" => mixshift::run(&args, &mut rep),
        _ => nips::run(&args, &mut rep),
    }
    if let Some(mb) = rss::peak_rss_mib() {
        rep.metric("peak_rss_mb", mb, "MiB");
    }
    rep.select(if args.trace { PER_LAYER } else { END_TO_END });
    println!("{}", rep.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn args_parse_and_reject_bad_values() {
        let a = parse("--workload nips --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("nips", 7, 10.0, true));
        assert_eq!(a.untraced_seconds(), 5.0);
        assert!(parse("--seed 7").is_err(), "workload is required");
        assert!(parse("--workload nips --trace 2").is_err());
        assert!(parse("--workload nips --seconds -1").is_err());
        assert!(parse("--workload nips --seed").is_err());
        assert!(parse("--workload nips --bogus 1").is_err());
    }

    #[test]
    fn timed_passes_runs_at_least_once_and_until_the_budget() {
        assert_eq!(timed_passes(0.0, |_| 0.5), vec![0.5]);
        assert_eq!(timed_passes(1.2, |k| k as f64 * 0.1 + 0.3), vec![0.3, 0.4, 0.5]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut rep = Report::default();
        rep.check("ok", Ok(()));
        rep.check("bad", Err("boom".into()));
        rep.metric("setup_s", 0.25, "s");
        rep.metric("extra", 1.0, "count");
        rep.select(&[("setup_s", "s"), ("work_per_s", "1/s")]);
        let doc = nwdp_obs::parse_json(&rep.result_line()).unwrap();
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&nwdp_obs::Json::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(nwdp_obs::Json::as_f64), Some(2.0));
        assert_eq!(doc.get("metrics/setup_s/value").and_then(nwdp_obs::Json::as_f64), Some(0.25));
        assert_eq!(
            doc.get("metrics/work_per_s/unit").and_then(nwdp_obs::Json::as_str),
            Some("1/s")
        );
        assert!(doc.get("metrics/extra").is_none());
        assert!(rep.result_line().contains("\"attempted\":2,"), "counts print as integers");
    }

    #[test]
    fn benchmark_json_names_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = nwdp_obs::parse_json(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(nwdp_obs::Json::Arr(items)) => items.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        };
        let field = |m: &nwdp_obs::Json, f: &str| {
            m.get(f).and_then(nwdp_obs::Json::as_str).unwrap_or("").to_string()
        };
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, ["steady", "mixshift", "nips"]);
        for (key, expected) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let named: Vec<(String, String)> =
                list(key).iter().map(|m| (field(m, "name"), field(m, "unit"))).collect();
            let want: Vec<(String, String)> =
                expected.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(named, want, "{key}");
        }
        for m in list("end_to_end") {
            let bound = m.get("bound").and_then(nwdp_obs::Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
        let setup = list("end_to_end").into_iter().find(|m| field(m, "name") == "setup_s");
        let setup = setup.expect("setup_s is an end-to-end metric");
        assert_eq!((field(&setup, "unit"), field(&setup, "better")), ("s".into(), "lower".into()));
    }
}
