//! Markov reward model solution techniques.
//!
//! This crate implements the reward model solution layer the DSN 2002
//! guarded-operation study relies on (the role UltraSAN's numerical solvers
//! played for the original authors):
//!
//! * [`Ctmc`] — continuous-time Markov chains assembled from transition
//!   triplets, with generator validation;
//! * [`Dtmc`] — a validated stochastic matrix: the uniformized embedding
//!   of a [`Ctmc`] that the transient solvers step;
//! * [`transient`] — transient state distributions `π(t)` and accumulated
//!   occupancy `L(t) = ∫₀ᵗ π(s) ds`, solved by **uniformization** with
//!   Fox–Glynn Poisson weights or by dense **matrix exponential**
//!   (scaling-and-squaring, Padé 13) for stiff horizons;
//! * [`steady`] — steady-state distributions of unichains by dense direct
//!   LU on the recurrent class, plus absorbing-chain analysis;
//! * [`reward`] — UltraSAN-style reward variables: expected instant-of-time
//!   reward, expected accumulated interval-of-time reward, expected
//!   steady-state reward, with both rate and impulse rewards;
//! * [`lump`] — the coarsest ordinarily lumpable partition that refines
//!   an observation of the states, and its quotient chain;
//! * [`fox_glynn`] — the Poisson probability window computation.
//!
//! # Example: a two-state availability model
//!
//! ```
//! use markov::{Ctmc, transient, reward::RewardStructure};
//!
//! # fn main() -> Result<(), markov::MarkovError> {
//! // State 0 = up, state 1 = down; failure rate 0.1, repair rate 1.0.
//! let ctmc = Ctmc::from_transitions(2, [(0, 1, 0.1), (1, 0, 1.0)])?;
//! let pi0 = [1.0, 0.0];
//! let pi = transient::distribution(&ctmc, &pi0, 20.0, &Default::default())?;
//! let availability = RewardStructure::from_rates(vec![1.0, 0.0]).instant(&pi);
//! assert!((availability - (10.0/11.0)).abs() < 1e-6); // ≈ steady state
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctmc;
mod dtmc;
mod error;
pub mod expm;
pub mod first_passage;
pub mod fox_glynn;
pub mod graph;
pub mod lump;
pub mod phase_type;
pub mod reward;
pub mod steady;
pub mod transient;

pub use ctmc::Ctmc;
pub use dtmc::Dtmc;
pub use error::MarkovError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, MarkovError>;
