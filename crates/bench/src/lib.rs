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
pub mod throughput;
pub mod warmstart;

pub use scenario::Scale;
