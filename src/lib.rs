//! # guarded-upgrade
//!
//! Facade crate for the reproduction of *"Performability Analysis of
//! Guarded-Operation Duration: A Translation Approach for Reward Model
//! Solutions"* (Tai, Sanders, Alkalai, Chau, Tso — DSN 2002).
//!
//! This crate re-exports the whole workspace so applications can depend on a
//! single crate:
//!
//! * [`sparsela`] — sparse/dense linear algebra kernels,
//! * [`markov`] — CTMC/DTMC reward model solvers (uniformization, matrix
//!   exponential, steady state, accumulated reward),
//! * [`san`] — stochastic activity networks and reachability analysis,
//! * [`performability`] — the paper's contribution: the successive
//!   model-translation pipeline, the three GSU SAN reward models, and the
//!   performability index `Y(φ)`,
//! * [`mdcd_sim`] — a discrete-event simulator of the MDCD protocol used to
//!   cross-validate the analytic pipeline,
//! * [`gsu_scenario`] — the `.gsu` scenario DSL: parameterized GSU families
//!   (escorts, upgrade waves, coverage decay, aging, phase-type safeguards)
//!   compiled down to the same pipeline (see `SCENARIOS.md`),
//! * [`pool`] — the std-only order-preserving parallel map behind the
//!   per-curve and simulation fan-out (sized by `GSU_THREADS`).
//!
//! # Quickstart
//!
//! ```
//! use guarded_upgrade::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Paper baseline (Table 3): θ=10000h, λ=1200/h, µnew=1e-4, ...
//! let params = GsuParams::paper_baseline();
//! let analysis = GsuAnalysis::new(params)?;
//! let point = analysis.evaluate(7000.0)?;
//! assert!(point.y > 1.0, "guarded operation should pay off here");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use gsu_scenario;
pub use markov;
pub use mdcd_sim;
pub use performability;
pub use pool;
pub use san;
pub use sparsela;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use gsu_scenario::{parse as parse_scenario, ScenarioAnalysis, ScenarioSpec};
    pub use mdcd_sim::{
        estimate_y, EngineKind, GammaMode, MonteCarlo, PathClass, SimConfig, SimRng,
    };
    pub use performability::{
        assemble, ConstituentMeasures, GammaPolicy, GsuAnalysis, GsuParams, PerfError, SweepPoint,
    };
    pub use san::{Activity, Analyzer, Case, Marking, RewardSpec, SanModel, StateSpace};
}
