//! Scoped-thread fan-out for embarrassingly parallel workloads.
//!
//! The paper's hot loops — the independent randomized-rounding trials of
//! Fig 9 / §3.4, the per-node engine replays of the network-wide
//! evaluation (§2.4), the perturbed FPL solves (§3.5) and the benchmark
//! sweeps — all share nothing between items, so they fan out across OS
//! threads with [`std::thread::scope`] (no external dependencies).
//!
//! ## Determinism contract
//!
//! Every helper returns results **in input order**, regardless of thread
//! count or completion order, and callers derive any per-item RNG seed
//! from the item index — never from a shared sequential stream. Together
//! these make every parallel call site bit-identical to its serial
//! fallback, which the cross-crate `parallel_equivalence` test enforces.
//!
//! ## Thread-count selection
//!
//! The worker count is, in order of precedence:
//! 1. a scoped [`with_threads`] override (used by tests and callers that
//!    want explicit control),
//! 2. the `NWDP_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! `NWDP_THREADS=1` (or a single-core host) selects a true serial
//! fallback: the closure runs on the calling thread and no worker threads
//! are spawned.

use nwdp_obs::{self as obs, TraceValue};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::ops::RangeBounds;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Parse a positive-count environment value (`NWDP_THREADS`,
/// `NWDP_SHARDS`, …). Whitespace is trimmed; `0` is floored to `1` (the
/// documented serial fallback). Returns `None` for anything that is not a
/// non-negative integer, so the caller can distinguish "unset/invalid" from
/// a real value.
pub fn parse_count(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// Env-var config values that already triggered an invalid-value warning,
/// so each misconfigured variable warns exactly once per process.
fn warned_vars() -> &'static Mutex<BTreeSet<String>> {
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Record an invalid env-var value: one-shot stderr warning (first sighting
/// per variable per process) plus a `config.invalid_env` counter when
/// metrics are on. Returns whether this call was the first sighting —
/// tests key off that instead of capturing stderr.
pub fn note_invalid_env(var: &str, raw: &str) -> bool {
    note_invalid_env_expecting(var, raw, "a non-negative integer")
}

/// [`note_invalid_env`] with a caller-supplied description of the expected
/// value shape (non-integer knobs like `NWDP_ALERT_SUPPRESS` pass e.g.
/// `"a suppression window in [0, 1]"`).
pub fn note_invalid_env_expecting(var: &str, raw: &str, expected: &str) -> bool {
    if obs::enabled() {
        obs::Scope::new("config").counter_with("invalid_env", &[("var", var)]).inc();
    }
    let first = match warned_vars().lock() {
        Ok(mut seen) => seen.insert(var.to_string()),
        Err(_) => false, // a warner panicked mid-insert: stay quiet
    };
    if first {
        // Deliberately user-facing regardless of tracing config: a typo'd
        // knob silently falling back to defaults is how whole benchmark
        // runs get measured under the wrong parallelism.
        use std::io::Write as _;
        let _ = writeln!(
            std::io::stderr(),
            "nwdp: ignoring invalid {var}={raw:?} (expected {expected}); using default"
        );
    }
    first
}

/// Read a count-valued environment variable via [`parse_count`], warning
/// through [`note_invalid_env`] on unparseable values (which then fall back
/// to the caller's default, exactly as if the variable were unset).
pub fn env_count(var: &str) -> Option<usize> {
    let raw = std::env::var_os(var)?;
    let parsed = raw.to_str().and_then(parse_count);
    if parsed.is_none() {
        note_invalid_env(var, &raw.to_string_lossy());
    }
    parsed
}

/// Read a float-valued environment variable that must lie in `range`
/// (`NWDP_NET_LOSS`, the `NWDP_ALERT_*` tuning knobs). Unparseable and
/// out-of-range values warn through [`note_invalid_env_expecting`] with
/// `expecting` and then fall back to the caller's default, exactly as if
/// the variable were unset.
pub fn env_f64(var: &str, range: impl RangeBounds<f64>, expecting: &str) -> Option<f64> {
    let raw = std::env::var_os(var)?;
    let raw = raw.to_string_lossy();
    let parsed = raw.trim().parse::<f64>().ok().filter(|v| range.contains(v));
    if parsed.is_none() {
        note_invalid_env_expecting(var, &raw, expecting);
    }
    parsed
}

/// Number of worker threads a fan-out on this thread would use.
pub fn num_threads() -> usize {
    if let Some(n) = OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    if let Some(n) = env_count("NWDP_THREADS") {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `f` with the thread count pinned to `n` on the current thread
/// (nested fan-outs included). Restores the previous setting on exit,
/// including on panic. Primarily for tests asserting parallel == serial.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(n.max(1)))));
    f()
}

/// What a fan-out's workers inherit from the thread that spawns them: its
/// obs recorder, its open span and its [`with_threads`] override. All
/// three are per-thread state, so a fan-out captures them before the
/// spawn and each worker runs under them.
pub struct Inherited {
    recorder: Arc<obs::Recorder>,
    parent: Option<u64>,
    threads: Option<usize>,
}

impl Inherited {
    /// Capture the calling thread's recorder, open span and override.
    pub fn capture() -> Self {
        Inherited {
            recorder: obs::current(),
            parent: obs::current_span_id(),
            threads: OVERRIDE.with(|o| o.get()),
        }
    }

    /// Run `f` under the captured recorder and override, inside a span
    /// `name` nested under the captured span.
    pub fn run<R>(&self, name: &str, fields: &[(&str, TraceValue)], f: impl FnOnce() -> R) -> R {
        let body = || {
            obs::scoped(&self.recorder, || {
                let _span = obs::span_under(self.parent, name, fields);
                f()
            })
        };
        match self.threads {
            Some(n) => with_threads(n, body),
            None => body(),
        }
    }
}

/// Map `f` over `0..n`, fanning out across scoped threads; results are in
/// index order. `f` receives the item index (callers derive per-item
/// seeds from it).
pub fn par_map_n<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = num_threads().min(n.max(1));
    if workers <= 1 || n <= 1 {
        if obs::enabled() {
            let s = obs::Scope::new("parallel");
            s.counter("serial_fallbacks").inc();
            s.counter("tasks").add(n as u64);
        }
        return (0..n).map(f).collect();
    }
    // Contiguous index blocks, one per worker; block w covers
    // [w*q + w.min(r), ...) with the first r blocks one longer.
    let (q, r) = (n / workers, n % workers);
    let f = &f;
    let measuring = obs::enabled();
    let inherited = &Inherited::capture();
    let mut blocks: Vec<Vec<R>> = Vec::with_capacity(workers);
    let mut worker_ns: Vec<u64> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = w * q + w.min(r);
                let hi = lo + q + usize::from(w < r);
                s.spawn(move || {
                    let fields = &[("w", w.into()), ("lo", lo.into()), ("hi", hi.into())];
                    inherited.run("parallel.worker", fields, || {
                        let t0 = measuring.then(Instant::now);
                        let block = (lo..hi).map(f).collect::<Vec<R>>();
                        let ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                        (block, ns)
                    })
                })
            })
            .collect();
        for h in handles {
            #[expect(
                clippy::expect_used,
                reason = "re-raises a worker's panic on the caller, as a serial map would panic"
            )]
            let (block, ns) = h.join().expect("parallel worker panicked");
            blocks.push(block);
            worker_ns.push(ns);
        }
    });
    if measuring {
        flush_fanout_metrics(n, &worker_ns);
    }
    blocks.into_iter().flatten().collect()
}

/// Publish one fan-out's load-balance profile: per-worker wall time and
/// the max/mean imbalance ratio (1.0 = perfectly balanced blocks).
fn flush_fanout_metrics(tasks: usize, worker_ns: &[u64]) {
    let s = obs::Scope::new("parallel");
    s.counter("fanouts").inc();
    s.counter("tasks").add(tasks as u64);
    s.counter("workers").add(worker_ns.len() as u64);
    let timer = s.timer("worker_ns");
    for &ns in worker_ns {
        timer.observe_ns(ns);
    }
    let max = worker_ns.iter().copied().max().unwrap_or(0) as f64;
    let mean = worker_ns.iter().sum::<u64>() as f64 / worker_ns.len().max(1) as f64;
    if mean > 0.0 {
        s.gauge("imbalance").set_max(max / mean);
    }
}

/// Map `f` over the items of a slice in parallel; results are in input
/// order. `f` receives `(index, &item)`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_n(items.len(), |i| f(i, &items[i]))
}

/// Map `f` over the `rows × cols` grid, fanning all cells out across
/// threads as one flat task pool (so an idle row never strands workers);
/// results come back grouped per row, cells in column order. `f` receives
/// `(row, col)`. The benchmark's traced streaming pass uses this for its
/// node × shard fan-out.
pub fn par_map_grid<R, F>(rows: usize, cols: usize, f: F) -> Vec<Vec<R>>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let cols = cols.max(1);
    let flat = par_map_n(rows * cols, |i| f(i / cols, i % cols));
    let mut out: Vec<Vec<R>> = Vec::with_capacity(rows);
    let mut it = flat.into_iter();
    for _ in 0..rows {
        out.push(it.by_ref().take(cols).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_n_preserves_order() {
        for threads in [1, 2, 3, 8, 64] {
            let got = with_threads(threads, || par_map_n(17, |i| i * i));
            assert_eq!(got, (0..17).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..101).map(|i| i * 3 + 1).collect();
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| x + i as u64).collect();
        let par = with_threads(4, || par_map(&items, |i, x| x + i as u64));
        assert_eq!(par, serial);
    }

    #[test]
    fn par_map_grid_groups_rows_in_order() {
        for threads in [1, 3, 8] {
            let got = with_threads(threads, || par_map_grid(4, 3, |r, c| 10 * r + c));
            assert_eq!(got.len(), 4, "threads={threads}");
            for (r, row) in got.iter().enumerate() {
                assert_eq!(row, &vec![10 * r, 10 * r + 1, 10 * r + 2], "threads={threads}");
            }
        }
        assert_eq!(par_map_grid(0, 5, |r, c| (r, c)), Vec::<Vec<(usize, usize)>>::new());
        // Zero columns clamp to one cell per row.
        assert_eq!(par_map_grid(2, 0, |r, c| (r, c)), vec![vec![(0, 0)], vec![(1, 0)]]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map_n(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_n(1, |i| i + 5), vec![5]);
        assert_eq!(par_map(&[] as &[u8], |_, &b| b), Vec::<u8>::new());
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let before = num_threads();
        with_threads(2, || assert_eq!(num_threads(), 2));
        assert_eq!(num_threads(), before);
    }

    #[test]
    fn override_reaches_nested_fan_outs() {
        assert_eq!(with_threads(3, || par_map_n(2, |_| num_threads())), vec![3, 3]);
        let nested = with_threads(4, || par_map_n(2, |_| par_map_n(4, |_| num_threads())));
        assert_eq!(nested, vec![vec![4; 4]; 2]);
    }

    #[test]
    fn override_floor_is_one() {
        with_threads(0, || assert_eq!(num_threads(), 1));
    }

    #[test]
    fn parse_count_accepts_integers_and_rejects_garbage() {
        assert_eq!(parse_count("4"), Some(4));
        assert_eq!(parse_count(" 8 "), Some(8));
        assert_eq!(parse_count("0"), Some(1), "zero floors to the serial fallback");
        assert_eq!(parse_count("abc"), None);
        assert_eq!(parse_count(""), None);
        assert_eq!(parse_count("-1"), None);
        assert_eq!(parse_count("1.5"), None);
        assert_eq!(parse_count("4 threads"), None);
    }

    #[test]
    fn env_f64_reads_in_range_values_only() {
        let var = "NWDP_TEST_F64";
        std::env::remove_var(var);
        assert_eq!(env_f64(var, 0.0..1.0, "a fraction"), None, "unset");
        std::env::set_var(var, " 0.25 ");
        assert_eq!(env_f64(var, 0.0..1.0, "a fraction"), Some(0.25), "valid");
        // `NWDP_NET_LOSS`'s half-open range rejects a loss of 1.
        std::env::set_var(var, "1");
        assert_eq!(env_f64(var, 0.0..1.0, "a fraction"), None, "out of range");
        assert_eq!(env_f64(var, 0.0..=1.0, "a fraction"), Some(1.0), "inclusive bound");
        for bad in ["-0.5", "inf", "NaN"] {
            std::env::set_var(var, bad);
            assert_eq!(env_f64(var, 0.0..=f64::MAX, "a number"), None, "{bad}");
        }
        std::env::set_var(var, "soon");
        assert_eq!(env_f64(var, 0.0..1.0, "a fraction"), None, "garbage");
        std::env::remove_var(var);
    }

    #[test]
    fn invalid_env_warns_exactly_once_per_var() {
        assert!(note_invalid_env("NWDP_TEST_BOGUS_A", "abc"), "first sighting warns");
        assert!(!note_invalid_env("NWDP_TEST_BOGUS_A", "abc"), "repeat stays quiet");
        assert!(!note_invalid_env("NWDP_TEST_BOGUS_A", "xyz"), "per-var, not per-value");
        assert!(note_invalid_env("NWDP_TEST_BOGUS_B", "abc"), "other vars warn independently");
    }
}
