//! Discrete-event simulation of the MDCD guarded software upgrading
//! protocol.
//!
//! The original study planned to validate its parameters and constituent
//! measures on JPL's Future Deliveries Testbed (paper §7). That testbed is
//! not available, so this crate provides the substitute: a discrete-event
//! simulator of the three-process avionics configuration (`P1new`, `P1old`,
//! `P2`) executing the MDCD protocol over a mission window `[0, θ]` with a
//! guarded-operation prefix `[0, φ]`:
//!
//! * exponential message generation per process (rate λ, external with
//!   probability `p_ext`);
//! * acceptance tests (duration `Exp(α)`, coverage `c`) on external messages
//!   of potentially contaminated processes;
//! * checkpoint establishment (duration `Exp(β)`) on confidence-lowering
//!   message receipts, per the MDCD rule;
//! * fault manifestation (`Exp(µ)`), contamination propagation through
//!   internal messages, error detection, rollback recovery, and failure on
//!   undetected erroneous external messages.
//!
//! Each run yields one sample path of the paper's §3.2 classification —
//! `S1` (upgrade succeeds), `S2` (error detected, safely downgraded), or the
//! worthless third category — together with the accrued mission worth `W_φ`
//! of Eq. 4, measured (not modelled): forward-progress time is clocked
//! per process, excluding AT and checkpoint blocking.
//!
//! [`MonteCarlo`] aggregates replications into estimates of `E[W_φ]`, the
//! sample-path class probabilities, and the performability index `Y(φ)`
//! with confidence intervals — cross-validating the analytic
//! model-translation pipeline of the `performability` crate end to end.
//!
//! # Example
//!
//! ```
//! use mdcd_sim::{MonteCarlo, SimConfig};
//! use performability::GsuParams;
//!
//! let config = SimConfig::new(GsuParams::paper_baseline(), 7000.0).unwrap();
//! let summary = MonteCarlo::new(config).with_replications(200).with_seed(7).run();
//! assert!(summary.p_s1 + summary.p_s2 + summary.p_s3 > 0.999);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod distribution;
mod engine;
mod estimate;
pub mod fast;
mod rng;
pub mod shadow;

pub use config::{GammaMode, SimConfig};
pub use distribution::WorthDistribution;
pub use engine::{simulate_run, PathClass, RunOutcome};
pub use estimate::{estimate_y, estimate_y_matched, EngineKind, MonteCarlo, SimSummary, YEstimate};
pub use fast::{calibrate, simulate_run_hybrid, Calibration};
pub use rng::SimRng;
pub use shadow::{run_until_admitted, simulate_validation, CampaignOutcome, ValidationLog};
