//! The GSU model family: the three SAN reward models at the base-model
//! level (paper §5), and their generalization.
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
//! Each module has one builder, `build_family`, that takes the paper's
//! parameters and a [`Family`]: how many escorted processes there are,
//! staged upgrade waves, marking-dependent AT coverage, escort aging, and
//! the safeguard durations as phase-type laws. Each module's `build` is the
//! paper's shape, [`Family::paper`]: one escort, exponential safeguards,
//! none of the rest. That lowering is exactly the net of the paper's
//! figure, with its place and activity names. The `.gsu` scenario catalog
//! lowers onto the same builders.
//!
//! [`measure_engine`] reads the Table 1 measures off any G-OP
//! dependability model through its [`GopPlaces`], for
//! [`crate::GsuAnalysis`].
//!
//! # The builder contract
//!
//! Parameters enter a built model only through its numbers: timed
//! activities' rates, case probabilities and instantaneous weights. Gates,
//! arcs and enabling predicates are structural: they read and write places
//! by the family's shape alone, never a [`GsuParams`] value. Two members of
//! one family that differ only in parameters therefore differ only where
//! the state-space generator evaluates numbers, which is what lets a
//! [`crate::Structures`] session refresh one from the other's recorded
//! generation (`san::Derivation`). A parameter value that zeroes a number
//! (a coverage of 1, a `p_ext` of 0 or 1) drops a case or an activity; the
//! refresh sees that the zero pattern moved and the model is generated cold.

use markov::phase_type::PhaseType;

use crate::GsuParams;

pub mod measure_engine;
pub mod rmgd;
pub mod rmgp;
pub mod rmnd;

pub use measure_engine::{gop_measures, GopChain, GopMeasures, GopPlaces};
pub use rmgd::{Rmgd, RmgdPlaces};
pub use rmgp::{Rmgp, RmgpPlaces};
pub use rmnd::{Rmnd, RmndPlaces};

/// One member of the model family: what its models add to the paper's
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Escorted processes, in a *star* around the upgraded pair: escorts
    /// exchange messages with the upgraded pair only, not with each other.
    /// The paper has one, `P2`; escort `i` is named `P{i+2}`.
    pub escorts: usize,
    /// Staged upgrade waves, when more than one reliability level exists.
    pub waves: Option<WaveSpec>,
    /// AT coverage lost per contaminated process beyond the sender, in
    /// `[0, 1]` (0 is the paper's constant coverage).
    pub coverage_decay: f64,
    /// Escort aging and rejuvenation, when modelled.
    pub aging: Option<AgingSpec>,
    /// The acceptance-test duration law.
    pub at: PhaseType,
    /// The checkpoint-establishment duration law.
    pub ckpt: PhaseType,
}

impl Family {
    /// The paper's shape: one escort, exponential safeguards at `α` and
    /// `β`, constant coverage, no waves and no aging.
    ///
    /// # Errors
    ///
    /// Fails unless `α` and `β` are finite and positive.
    pub fn paper(params: &GsuParams) -> san::Result<Self> {
        Ok(Family {
            escorts: 1,
            waves: None,
            coverage_decay: 0.0,
            aging: None,
            at: PhaseType::exponential(params.alpha)?,
            ckpt: PhaseType::exponential(params.beta)?,
        })
    }
}

/// Staged upgrade waves: the fault-manifestation rate of the upgraded
/// component drops by `factor` after each completed wave (dynamic
/// reconfiguration / reliability growth during the guarded operation).
#[derive(Debug, Clone, PartialEq)]
pub struct WaveSpec {
    /// Total number of reliability levels (`count − 1` wave completions).
    pub count: usize,
    /// Rate at which each wave completes (exponential).
    pub rate: f64,
    /// Multiplier applied to µ_new per completed wave, in `(0, 1]`.
    pub factor: f64,
}

impl WaveSpec {
    /// The effective fault-manifestation rate of the upgraded component
    /// after `completed` waves, floored at µ_old.
    pub fn mu_at(&self, completed: u32, mu_new: f64, mu_old: f64) -> f64 {
        (mu_new * self.factor.powi(completed as i32)).max(mu_old)
    }
}

/// Escort-process aging (container-aging style): an aged escort manifests
/// faults `factor` times faster; optional rejuvenation clears the aged
/// state.
#[derive(Debug, Clone, PartialEq)]
pub struct AgingSpec {
    /// Rate of becoming aged.
    pub rate: f64,
    /// Fault-rate multiplier while aged, ≥ 1.
    pub factor: f64,
    /// Optional rejuvenation rate (clears the aged state).
    pub rejuvenation: Option<f64>,
}
