//! The thread counts every test that reaches a parallel fan-out runs at.
//!
//! Shared by the workspace suites (through `tests/common/mod.rs`) and the
//! engine crate's suites (by path), so it names only `nwdp_core`.

use nwdp_core::parallel;

/// Run `f` under a 1-thread (the serial fallback) and a 4-thread override
/// and return both results. Inside `f`, `parallel::num_threads()` reads
/// the count it runs at.
pub fn under_thread_counts<R>(f: impl Fn() -> R) -> (R, R) {
    (parallel::with_threads(1, &f), parallel::with_threads(4, &f))
}
