//! Network-wide NIDS deployment (paper §2): the assignment LP, sampling
//! manifests, and the redundancy extension.

mod dw;
pub mod lp;
pub mod manifest;
pub mod manifest_io;

pub use lp::{
    edge_only_loads, loads_from_assignment, simplex_oracle, solve_nids_lp, solve_nids_lp_excluding,
    solve_nids_lp_warm, ColumnPool, NidsAssignment, NidsError, NidsLpConfig, NodeCaps, GAP_TOL,
};
pub use manifest::{
    coverage_sweep, generate_manifests, manifest_loads, validate_manifests,
    validate_manifests_excluding, CapacityCeiling, ManifestEntry, ManifestValidationError,
    SamplingManifest,
};
pub use manifest_io::{node_manifest_from_text, node_manifest_to_text, NodeManifest};
