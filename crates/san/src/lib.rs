//! Stochastic activity networks (SANs).
//!
//! This crate implements the subset of the SAN formalism (Meyer, Movaghar &
//! Sanders 1985) that the UltraSAN tool exposed and that the DSN 2002
//! guarded-operation study exercises:
//!
//! * **Places** holding token counts ([`Marking`]);
//! * **Timed activities** with marking-dependent exponential rates;
//! * **Instantaneous activities** with priorities and weights;
//! * **Cases** — probabilistic outcomes of an activity completion, with
//!   marking-dependent case probabilities;
//! * **Input gates** (predicate + marking function) and **output gates**
//!   (marking function), alongside plain input/output arcs;
//! * **Reachability-graph generation** with on-the-fly *vanishing-marking
//!   elimination*, producing a [`markov::Ctmc`] over the tangible markings
//!   ([`StateSpace`]), and its recorded [`Derivation`], which rebuilds the
//!   space of the same structure with other numbers without exploring it
//!   again;
//! * **Replica groups** ([`SanModel::add_replica_group`]), UltraSAN's
//!   `Rep`: tuples of places that permute together, generated as the
//!   symmetric quotient (each tangible marking in canonical form);
//! * **Predicate-rate reward structures** ([`RewardSpec`]) in the UltraSAN
//!   style used by Tables 1 and 2 of the paper, mapped onto the generated
//!   chain;
//! * A convenience [`Analyzer`] that runs the instant-of-time,
//!   interval-of-time, and steady-state reward solutions end to end.
//!
//! # Example: an M/M/1/3 queue as a SAN
//!
//! ```
//! use san::{Activity, Analyzer, RewardSpec, SanModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = SanModel::new("mm1k");
//! let queue = m.add_place("queue", 0);
//!
//! // Arrivals while there is room.
//! let arrive = Activity::timed("arrive", 2.0)
//!     .with_output_arc(queue, 1)
//!     .with_enabling(move |mk| mk.tokens(queue) < 3);
//! m.add_activity(arrive)?;
//!
//! // Services while the queue is non-empty.
//! m.add_activity(Activity::timed("serve", 3.0).with_input_arc(queue, 1))?;
//!
//! let analyzer = Analyzer::generate(&m, &Default::default())?;
//! let utilization = RewardSpec::new().rate_when(move |mk| mk.tokens(queue) > 0, 1.0);
//! let busy = analyzer.steady_reward(&utilization)?;
//! // M/M/1/3 with ρ=2/3: P[busy] = (ρ+ρ²+ρ³)/(1+ρ+ρ²+ρ³).
//! assert!((busy - 38.0 / 65.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod dot;
mod error;
mod marking;
mod model;
mod reachability;
mod reward;
mod semantics;
pub mod simulate;
pub mod structural;

pub use analysis::{Analyzer, LumpedChain};
pub use error::SanError;
pub use marking::Marking;
pub use model::{
    Activity, ActivityId, ActivityKind, Case, InputGateId, OutputGateId, PlaceId, SanModel,
};
pub use reachability::{Derivation, ReachabilityOptions, StateSpace};
pub use reward::RewardSpec;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, SanError>;
