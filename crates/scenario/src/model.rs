//! Lowering scenarios onto the GSU model family.
//!
//! A [`ScenarioSpec`] lowers to a [`Family`] ([`family`]): its escorts,
//! waves, coverage decay and aging as they are, and its acceptance-test
//! and checkpoint durations compiled to their
//! [`markov::phase_type::PhaseType`] laws. The models themselves are the
//! family builders of `performability::gsu`; a paper-shaped scenario (one
//! escort, exponential safeguards, no waves / decay / aging) lowers to the
//! paper's `RMGd`/`RMGp`/`RMNd` exactly.
//!
//! * [`build_gd`] — the guarded-operation dependability model;
//! * [`build_np`] — the normal-mode model over `escorts + 1` processes;
//! * [`build_gp`] — the MDCD overhead model, and [`solve_rho`] its
//!   `(ρ1, ρ2)`.

use performability::gsu::{rmgd, rmgp, rmnd, Family, Rmgd, Rmgp, Rmnd};
use performability::Result;

use crate::ast::ScenarioSpec;

/// The scenario's member of the model family.
///
/// # Errors
///
/// Propagates phase-type compilation failures of the safeguard durations.
pub fn family(spec: &ScenarioSpec) -> Result<Family> {
    Ok(Family {
        escorts: spec.escorts,
        waves: spec.waves.clone(),
        coverage_decay: spec.coverage_decay,
        aging: spec.aging.clone(),
        at: spec.at.to_phase_type()?,
        ckpt: spec.ckpt.to_phase_type()?,
    })
}

/// Builds the scenario's guarded-operation dependability model.
///
/// # Errors
///
/// Propagates phase-type compilation and SAN construction failures.
pub fn build_gd(spec: &ScenarioSpec) -> Result<Rmgd> {
    Ok(rmgd::build_family(&spec.params, &family(spec)?)?)
}

/// Builds the scenario's normal-mode model with the first component at
/// `mu_first`.
///
/// # Errors
///
/// Propagates phase-type compilation and SAN construction failures.
pub fn build_np(spec: &ScenarioSpec, mu_first: f64) -> Result<Rmnd> {
    Ok(rmnd::build_family(&spec.params, &family(spec)?, mu_first)?)
}

/// Builds the scenario's overhead model, with phase-type safeguard
/// durations.
///
/// # Errors
///
/// Propagates phase-type compilation and SAN construction failures.
pub fn build_gp(spec: &ScenarioSpec) -> Result<Rmgp> {
    Ok(rmgp::build_family(&spec.params, &family(spec)?)?)
}

/// Solves the scenario's steady-state overhead measures `(ρ1, ρ2)`.
///
/// # Errors
///
/// Propagates model generation and steady-state solver failures.
pub fn solve_rho(spec: &ScenarioSpec) -> Result<(f64, f64)> {
    Ok(rmgp::solve_rho_family(&spec.params, &family(spec)?)?)
}
