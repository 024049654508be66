//! The reusable guarded-operation measure engine.
//!
//! The Table 1 constituent measures are defined purely in terms of the
//! `A'1 … A'4` state sets of a dependability model — not in terms of the
//! paper's specific `RMGd` net — and every one of those sets is fixed by two
//! places, `detected` and `failure`. This module captures that contract as
//! the [`GopPlaces`] pair plus one solver routine, [`gop_measures`], so the
//! paper's `RMGd` and the scenario layer's *generalized* G-OP models
//! (multiple escorts, upgrade waves, aging states) go through exactly the
//! same translation inside [`crate::GsuAnalysis`].

use san::{Analyzer, Marking, PlaceId, RewardSpec};

use crate::Result;

/// The two places that classify every state of a guarded-operation
/// dependability model into the state sets of paper §4.2:
///
/// * `A'1` — no error has occurred;
/// * `A'2` — no error has been *detected* (includes undetected failures);
///   its complement is the first-passage target of the exact truncated
///   detection-time moment;
/// * `A'3` — an error was detected and the system is alive;
/// * `A'4 ⊂ A'2` — failed without successful detection;
/// * detected-then-failed — the target set of the `∫∫ h·f` measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GopPlaces {
    /// An error has been detected (recovery happened; normal mode follows).
    pub detected: PlaceId,
    /// System failure (absorbing).
    pub failure: PlaceId,
}

impl GopPlaces {
    /// `A'1`: no error has occurred.
    pub fn in_a1(&self, mk: &Marking) -> bool {
        mk.tokens(self.detected) == 0 && mk.tokens(self.failure) == 0
    }

    /// `A'2`: no error has been detected (includes undetected failures).
    pub fn in_a2(&self, mk: &Marking) -> bool {
        mk.tokens(self.detected) == 0
    }

    /// `A'3`: an error has occurred and been successfully detected.
    pub fn in_a3(&self, mk: &Marking) -> bool {
        mk.tokens(self.detected) == 1 && mk.tokens(self.failure) == 0
    }

    /// `A'4`: failed without successful detection.
    pub fn in_a4(&self, mk: &Marking) -> bool {
        mk.tokens(self.detected) == 0 && mk.tokens(self.failure) == 1
    }

    /// Detected and subsequently failed (the `∫∫ h·f` measure's target set).
    pub fn detected_then_failed(&self, mk: &Marking) -> bool {
        mk.tokens(self.detected) == 1 && mk.tokens(self.failure) == 1
    }
}

/// The five G-OP–model constituent measures of Table 1, solved on one
/// dependability model for one φ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GopMeasures {
    /// `P(X'_φ ∈ A'1)` — instant-of-time at φ.
    pub p_a1: f64,
    /// `∫₀^φ h(τ)dτ` — instant-of-time at φ on `A'3`.
    pub i_h: f64,
    /// `∫₀^φ∫_τ^φ h(τ)f(x)dxdτ` — instant-of-time at φ on
    /// detected-then-failed.
    pub i_hf: f64,
    /// `∫₀^φ τ·h(τ)dτ` per the Table 1 reward structure.
    pub i_tau_h: f64,
    /// The exact truncated moment `E[τ_d·1{τ_d ≤ φ}]`.
    pub i_tau_h_exact: f64,
}

impl GopMeasures {
    /// The measures at `φ = 0`, where the G-OP process is degenerate (no
    /// error can occur in an empty interval).
    pub const AT_PHI_ZERO: GopMeasures = GopMeasures {
        p_a1: 1.0,
        i_h: 0.0,
        i_hf: 0.0,
        i_tau_h: 0.0,
        i_tau_h_exact: 0.0,
    };
}

/// Solves the five G-OP dependability measures on `analyzer` using the
/// state classification of `places`.
///
/// At `φ = 0` the measures are [`GopMeasures::AT_PHI_ZERO`].
///
/// # Errors
///
/// Propagates transient-solver and first-passage failures.
pub fn gop_measures(analyzer: &Analyzer, places: GopPlaces, phi: f64) -> Result<GopMeasures> {
    if phi == 0.0 {
        return Ok(GopMeasures::AT_PHI_ZERO);
    }
    // One transient solve serves all four measures: the three
    // instant-of-time ones only differ in which states of π(φ) they sum, and
    // ∫τh is a rate reward on the occupancy L(φ) of the same pass.
    let (pi_phi, l_phi) = analyzer.distribution_and_occupancy_at(phi)?;
    let space = analyzer.state_space();
    let p_a1 = space.probability_of(&pi_phi, |mk| places.in_a1(mk));
    let i_h = space.probability_of(&pi_phi, |mk| places.in_a3(mk));
    let i_hf = space.probability_of(&pi_phi, |mk| places.detected_then_failed(mk));
    // Table 1: rate +1 on A'2 (no detection), −1 on A'4 (failed without
    // detection), accumulated over [0, φ].
    let spec = RewardSpec::new()
        .rate_when(move |mk| places.in_a2(mk), 1.0)
        .rate_when(move |mk| places.in_a4(mk), -1.0);
    let i_tau_h = spec.to_structure(space).accumulated(space.ctmc(), &l_phi)?;
    // The exact truncated moment E[τ·1{τ ≤ φ}] by first-passage analysis
    // into the detected states — see DESIGN.md on the Table-1 censoring.
    let detected_states = space.states_where(|mk| !places.in_a2(mk));
    let i_tau_h_exact = markov::first_passage::truncated_mean_hitting_time(
        space.ctmc(),
        space.initial_distribution(),
        &detected_states,
        phi,
        &Default::default(),
    )?;
    Ok(GopMeasures {
        p_a1,
        i_h,
        i_hf,
        i_tau_h,
        i_tau_h_exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsu::rmgd;
    use crate::GsuParams;

    #[test]
    fn engine_matches_direct_measures_on_rmgd() {
        let params = GsuParams::paper_baseline();
        let built = rmgd::build(&params).unwrap();
        let analyzer = Analyzer::generate(&built.model, &Default::default()).unwrap();
        let direct = crate::GsuAnalysis::new(params).unwrap();
        for phi in [0.0, 2500.0, 7000.0] {
            let engine = gop_measures(&analyzer, built.places.gop, phi).unwrap();
            let m = direct.measures(phi).unwrap();
            assert_eq!(engine.p_a1, m.p_a1_gop, "phi = {phi}");
            assert_eq!(engine.i_h, m.i_h, "phi = {phi}");
            assert_eq!(engine.i_hf, m.i_hf, "phi = {phi}");
            assert_eq!(engine.i_tau_h, m.i_tau_h, "phi = {phi}");
            assert_eq!(engine.i_tau_h_exact, m.i_tau_h_exact, "phi = {phi}");
        }
    }

    #[test]
    fn phi_zero_is_degenerate() {
        let params = GsuParams::paper_baseline();
        let built = rmgd::build(&params).unwrap();
        let analyzer = Analyzer::generate(&built.model, &Default::default()).unwrap();
        let m = gop_measures(&analyzer, built.places.gop, 0.0).unwrap();
        assert_eq!(m.p_a1, 1.0);
        assert_eq!(m.i_h, 0.0);
        assert_eq!(m.i_tau_h_exact, 0.0);
    }
}
