//! Network-wide NIPS deployment (paper §3): the NP-hard placement MILP,
//! its LP relaxation, randomized rounding with practical refinements, and
//! exact small-instance machinery.

pub mod hardness;
pub mod model;
pub mod relax;
pub mod round;

pub use hardness::{integrality_gap_instance, solve_exact, to_milp};
pub use model::{DistanceModel, NipsInstance, NipsPath, NipsRule, SolutionD};
pub use relax::{solve_relaxation, solve_relaxation_ctx, Layout, RelaxError, RelaxSolution};
pub use round::{
    round_best_of, round_once_ctx, solve_inner_flow, solve_inner_flow_weighted,
    solve_inner_simplex, solve_inner_simplex_ctx, InnerFlowOracle, NipsSolution, RoundError,
    RoundingOpts, Strategy,
};
