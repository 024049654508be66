//! The three SAN reward models at the base-model level (paper §5).
//!
//! The successive model translation of §4 reduces the performability index
//! `Y` to nine constituent reward variables; this module provides the
//! composite base model that supports them:
//!
//! * [`rmgd`] — `RMGd`, dependability behaviour during the guarded-operation
//!   interval (submodel of `X'` for dependability measures; paper Fig. 6);
//! * [`rmgp`] — `RMGp`, performance-overhead behaviour under the G-OP mode
//!   (submodel of `X'` for the steady-state measures `ρ1`, `ρ2`; Fig. 7);
//! * [`rmnd`] — `RMNd`, normal-mode behaviour (the model of `X''`; Fig. 8).
//!
//! [`measure_engine`] reads the Table 1 measures off any G-OP
//! dependability model through its [`GopPlaces`] — the paper's `RMGd`
//! here, or a scenario's generalized model — for [`crate::GsuAnalysis`].

pub mod measure_engine;
pub mod rmgd;
pub mod rmgp;
pub mod rmnd;

pub use measure_engine::{gop_measures, GopChain, GopMeasures, GopPlaces};
pub use rmgd::{Rmgd, RmgdPlaces};
pub use rmgp::{Rmgp, RmgpPlaces};
pub use rmnd::{Rmnd, RmndPlaces};
