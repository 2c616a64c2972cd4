//! # nwdp — network-wide deployment of intrusion detection & prevention
//!
//! A library reproduction of *Sekar, Krishnaswamy, Gupta, Reiter:
//! "Network-Wide Deployment of Intrusion Detection and Prevention
//! Systems" (ACM CoNEXT 2010)*.
//!
//! Instead of scaling NIDS/NIPS at single chokepoints, the system exploits
//! the replication of every packet along its forwarding path: a
//! network-wide optimization assigns each analysis responsibility to some
//! node that already sees the traffic, compiled into hash-range sampling
//! manifests that need **zero runtime coordination**.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `nwdp-core` | NIDS assignment LP + manifests, NIPS MILP + randomized rounding, provisioning |
//! | [`lp`] | `nwdp-lp` | simplex (dense + sparse), min-cost flow, branch & bound, row generation |
//! | [`topo`] | `nwdp-topo` | topologies, deterministic shortest-path routing |
//! | [`traffic`] | `nwdp-traffic` | gravity matrices, template sessions, anomaly injection, match rates |
//! | [`hash`] | `nwdp-hash` | Bob (lookup3) hashing, flow keys, hash ranges |
//! | [`engine`] | `nwdp-engine` | Bro-like event/policy engine with 9 analysis modules |
//! | [`online`] | `nwdp-online` | follow-the-perturbed-leader adaptation |
//!
//! ## Quickstart
//!
//! ```
//! use nwdp::prelude::*;
//!
//! // 1. Network model: topology, routing, traffic.
//! let topo = nwdp::topo::internet2();
//! let paths = PathDb::shortest_paths(&topo);
//! let tm = TrafficMatrix::gravity(&topo);
//! let vol = VolumeModel::internet2_baseline();
//!
//! // 2. NIDS deployment: classes → coordination units → LP → manifests.
//! let classes = AnalysisClass::standard_set();
//! let dep = build_units(&topo, &paths, &tm, &vol, &classes);
//! let cfg = NidsLpConfig::homogeneous(dep.num_nodes, NodeCaps { cpu: 2e8, mem: 4e9 });
//! let assignment = solve_nids_lp(&dep, &cfg).unwrap();
//! let manifest = generate_manifests(&dep, &assignment.d);
//! assert!(assignment.max_load < 1.0, "no node overloaded");
//! assert_eq!(manifest.verify_coverage(&dep), (1, 1));
//! ```

pub use nwdp_core as core;
pub use nwdp_core::obs;
pub use nwdp_engine as engine;
pub use nwdp_hash as hash;
pub use nwdp_lp as lp;
pub use nwdp_online as online;
pub use nwdp_topo as topo;
pub use nwdp_traffic as traffic;

/// The most common imports in one place.
pub mod prelude {
    pub use nwdp_core::nids::{
        edge_only_loads, generate_manifests, manifest_loads, solve_nids_lp, validate_manifests,
        validate_manifests_excluding, CapacityCeiling, ManifestEntry, ManifestValidationError,
        NidsLpConfig, NodeCaps, SamplingManifest,
    };
    pub use nwdp_core::nips::{
        round_best_of, solve_relaxation, NipsInstance, RoundError, RoundingOpts, Strategy,
    };
    pub use nwdp_core::resilience::{
        distance_weighted_values, greedy_repair, lp_repair, manifest_gap_fraction, shed_overload,
        DegradeOutcome, FailureKind, FailureScenario, FailureSchedule, FaultPlan, HealthConfig,
        HealthConfigError, HeartbeatMonitor, LinkFault, Partition, RepairOutcome,
    };
    pub use nwdp_core::{
        build_units, AnalysisClass, ClassScope, ClassSetError, NidsDeployment, UnitKey,
    };
    pub use nwdp_engine::{
        plan_manifest_epochs, run_cluster, run_coordinated, run_coordinated_resilient,
        run_coordinated_stream, run_coordinated_stream_reload, run_edge_only, run_edge_only_faulty,
        run_standalone_reference, shard_of, stream_shards, ClusterConfig, ClusterError, ClusterRun,
        CoordContext, Detection, DetectionCause, Engine, EngineError, ManifestEpoch, NetStats,
        Placement, ReloadConfig, ReloadController, ReloadOutcome, ReloadRun, ResilienceConfig,
        ResilientRun, Sabotage,
    };
    pub use nwdp_hash::{FiveTuple, FlowKeyKind, KeyedHasher, RangeSet, HASH_SPACE};
    pub use nwdp_lp::rowgen::RowGenOpts;
    pub use nwdp_online::{run_fpl, FplConfig, FplError, StochasticUniform};
    pub use nwdp_topo::{NodeId, Path, PathDb, Topology};
    pub use nwdp_traffic::{
        generate_trace, node_of_ip, AppProtocol, FaultInjector, MatchRates, NetTrace, NodeBlackout,
        SessionStream, TraceConfig, TrafficMatrix, VolumeModel,
    };
}
