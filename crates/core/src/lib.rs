//! Performability analysis of guarded-operation duration by successive
//! model translation.
//!
//! This crate reproduces the analysis of Tai, Sanders, Alkalai, Chau & Tso,
//! *"Performability Analysis of Guarded-Operation Duration: A Translation
//! Approach for Reward Model Solutions"* (DSN 2002). A spacecraft's flight
//! software is upgraded in flight; during a **guarded operation** window of
//! duration `φ` the old version escorts the new one under the MDCD
//! (message-driven confidence-driven) protocol, paying checkpointing and
//! acceptance-test overhead in exchange for error containment and recovery.
//!
//! The **performability index**
//!
//! ```text
//! Y(φ) = (E[W_I] − E[W₀]) / (E[W_I] − E[W_φ])          (Eq. 1)
//! ```
//!
//! quantifies how much a duration `φ` reduces the expected total performance
//! degradation relative to not guarding at all; `Y > 1` means the guard pays
//! off, and the maximizing `φ` is the design recommendation.
//!
//! Because `Y` cannot be mapped onto a single reward structure in one
//! monolithic model (the deterministic mode switch at φ breaks the Markov
//! property), the measure is **successively translated** —
//! see [`translation`] — into nine constituent reward variables
//! ([`ConstituentMeasures`]), each solved on one of three small SAN reward
//! models (module [`gsu`]): `RMGd`, `RMGp` and `RMNd`. The [`GsuAnalysis`]
//! pipeline runs the whole chain and [`assemble`] recombines the measures
//! into `Y(φ)`.
//!
//! # Example
//!
//! ```
//! use performability::{GsuAnalysis, GsuParams};
//!
//! # fn main() -> Result<(), performability::PerfError> {
//! // Table 3 of the paper.
//! let analysis = GsuAnalysis::new(GsuParams::paper_baseline())?;
//!
//! // Y(0) = 1 by construction; a sensible guard duration beats it.
//! let baseline = analysis.evaluate(0.0)?;
//! let guarded = analysis.evaluate(7000.0)?;
//! assert!((baseline.y - 1.0).abs() < 1e-9);
//! assert!(guarded.y > 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod error;
mod index;
mod measures;
mod params;
mod structures;

pub mod gsu;
pub mod recommend;
pub mod report;
pub mod sensitivity;
pub mod translation;

pub use analysis::GsuAnalysis;
pub use error::PerfError;
pub use index::{assemble, GammaPolicy, SweepPoint};
pub use measures::ConstituentMeasures;
pub use params::GsuParams;
pub use structures::Structures;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, PerfError>;
