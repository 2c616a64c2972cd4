//! # nwdp-engine — a Bro-like coordinated NIDS engine
//!
//! The paper's prototype extends Bro 1.4 with coordination functions; this
//! crate rebuilds the relevant slice of that architecture as a
//! deterministic emulation (see DESIGN.md → substitutions):
//!
//! - [`conn`]: the event engine's connection records, extended with
//!   precomputed coordination hashes (§2.3);
//! - [`modules`]: the nine benchmark analysis modules of Fig 5 (Baseline,
//!   Scan, IRC, Login, TFTP, HTTP, Blaster, Signature, SYNFlood) over an
//!   [`ac`] Aho–Corasick signature matcher;
//! - [`engine`]: the per-packet pipeline with both coordination-check
//!   placements (event engine vs policy engine) and the
//!   skip-state-creation fast path;
//! - [`cost`]: the deterministic cycle/byte accounting that stands in for
//!   the paper's `atop` measurements;
//! - [`netwide`]: edge-only vs coordinated network-wide runs (Figs 6–8),
//!   the batch replay the equivalence suites compare against, and the
//!   failure-resilient run;
//! - [`stream`]: the one coordinated replay loop — persistent (node,
//!   shard) workers replaying a session source in epochs, with manifest
//!   swaps between epochs — behind the streaming, live-reload
//!   ([`reload`]) and failure-resilient runs;
//! - [`cluster`]: the message-passing control plane.

pub mod ac;
pub mod cluster;
pub mod conn;
pub mod cost;
pub mod engine;
pub mod modules;
pub mod netwide;
pub mod reload;
pub mod stream;

pub use ac::AhoCorasick;
pub use cluster::{
    run_cluster, Addr, ClusterConfig, ClusterError, ClusterRun, Detection, DetectionCause,
    EpochReport, Msg, NetStats, NodeActor,
};
pub use conn::{ConnRecord, ConnTable};
pub use cost::{CostModel, Meter};
pub use engine::{standalone_coordination, CoordContext, Engine, Placement, RunStats};
pub use modules::{module_for_class, Alert, Analyzer, EngineError, Granularity, Stage};
pub use netwide::{
    coverage_timeline, plan_manifest_epochs, run_coordinated, run_coordinated_resilient,
    run_edge_only, run_edge_only_faulty, run_standalone_reference, ManifestEpoch, NetworkRun,
    ResilienceConfig, ResilientRun,
};
pub use reload::{
    run_coordinated_stream_reload, ObservedMix, ReloadConfig, ReloadController, ReloadDecision,
    ReloadOutcome, ReloadRun, Sabotage,
};
pub use stream::{pkt_latency_bounds, run_coordinated_stream, shard_of, stream_shards};
