//! # nwdp-bench — the experiment harness
//!
//! One module per paper figure/table; the `repro` binary drives them and
//! writes CSV + ASCII tables into `results/`. `tests/repro_artifacts.rs`
//! runs the binary and re-checks the artifacts it writes.

pub mod alerts;
pub mod cluster;
pub mod extensions;
pub mod fig10;
pub mod fig11;
pub mod fig5;
pub mod fig678;
pub mod opttime;
pub mod output;
pub mod reload;
pub mod report;
pub mod resilience;
pub mod scenario;
pub mod selftest;
pub mod throughput;
pub mod warmstart;

pub use scenario::Scale;

/// Serializes the unit tests that flip process-global `nwdp-obs` state
/// (`set_enabled`, histogram resets, the alert pipeline): each bench
/// `run` saves, sets and restores it, so two overlapping runs would
/// read each other's counters.
#[cfg(test)]
pub(crate) fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
