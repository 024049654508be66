//! The reusable guarded-operation measure engine.
//!
//! The Table 1 constituent measures are defined purely in terms of the
//! `A'1 … A'4` state sets of a dependability model — not in terms of the
//! paper's specific `RMGd` net — and every one of those sets is fixed by two
//! places, `detected` and `failure`. This module captures that contract as
//! the [`GopPlaces`] pair plus [`GopChain`], the φ-independent preparation
//! of one generated model, so the paper's `RMGd` and the scenario layer's
//! *generalized* G-OP models (multiple escorts, upgrade waves, aging
//! states) go through exactly the same translation inside
//! [`crate::GsuAnalysis`].
//!
//! A whole φ sweep costs one transient pass on the G-OP chain: every
//! measure of every φ is a weighting of `π(φ)` and `L(φ)`, and those come
//! from one shared power sequence
//! (`markov::transient::distribution_and_occupancy_at_times`). That covers
//! the exact detection moment too: `detected` is only ever set, so the
//! detected set `¬A'2` is closed, `P[T ≤ t] = π(t)[¬A'2]`, and
//! `E[T·1{T ≤ φ}] = φ·π(φ)[¬A'2] − Σ_{¬A'2} L(φ)`. [`GopChain::new`]
//! checks that closure on the generated chain.

use markov::reward::RewardStructure;
use san::{Analyzer, Marking, PlaceId, RewardSpec};

use crate::{PerfError, Result};

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

/// The φ-independent parts of the Table 1 measures on one generated G-OP
/// model: the `∫τh` reward structure and the detected states `¬A'2`.
///
/// Built once per model; [`GopChain::measures`] then solves any φ grid on
/// the analyzer the chain was built from.
#[derive(Debug, Clone)]
pub struct GopChain {
    places: GopPlaces,
    /// Table 1: rate +1 on `A'2` (no detection), −1 on `A'4` (failed
    /// without detection).
    tau_reward: RewardStructure,
    /// The states of `¬A'2`, ascending: the first-passage target of the
    /// exact detection moment.
    detected: Vec<usize>,
}

impl GopChain {
    /// Classifies the states of `analyzer`'s model by `places` and checks
    /// that the detected set is closed — that no transition leaves it — so
    /// that `π(t)[¬A'2]` is the detection-time CDF.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::MeasureInvariant`] when a transition leads from
    /// a detected state to an undetected one.
    pub fn new(analyzer: &Analyzer, places: GopPlaces) -> Result<Self> {
        let space = analyzer.state_space();
        let detected = space.states_where(|mk| !places.in_a2(mk));
        let mut is_detected = vec![false; space.n_states()];
        for &s in &detected {
            is_detected[s] = true;
        }
        let escape = space
            .ctmc()
            .transitions()
            .find(|&(from, to, _)| is_detected[from] && !is_detected[to]);
        if let Some((from, to, rate)) = escape {
            return Err(PerfError::MeasureInvariant {
                context: format!(
                    "model {}: transition {from} -> {to} (rate {rate}) leaves the detected \
                     set, so the detection time is not its first passage",
                    space.model_name()
                ),
            });
        }
        let tau_reward = RewardSpec::new()
            .rate_when(move |mk| places.in_a2(mk), 1.0)
            .rate_when(move |mk| places.in_a4(mk), -1.0)
            .to_structure(space);
        Ok(GopChain {
            places,
            tau_reward,
            detected,
        })
    }

    /// The places that classify the chain's states.
    pub fn places(&self) -> GopPlaces {
        self.places
    }

    /// Solves the five G-OP measures at every φ of `phis`, in order, on
    /// `analyzer` — the one this chain was built from.
    ///
    /// Every φ is a horizon of one transient pass; at `φ = 0` the measures
    /// are [`GopMeasures::AT_PHI_ZERO`].
    ///
    /// # Errors
    ///
    /// Propagates transient-solver failures.
    pub fn measures(&self, analyzer: &Analyzer, phis: &[f64]) -> Result<Vec<GopMeasures>> {
        let solved = analyzer.distribution_and_occupancy_at_times(phis)?;
        let space = analyzer.state_space();
        let places = self.places;
        phis.iter()
            .zip(solved)
            .map(|(&phi, (pi_phi, l_phi))| {
                if phi == 0.0 {
                    return Ok(GopMeasures::AT_PHI_ZERO);
                }
                // The three instant-of-time measures only differ in which
                // states of π(φ) they sum; ∫τh is a rate reward on L(φ).
                let p_a1 = space.probability_of(&pi_phi, |mk| places.in_a1(mk));
                let i_h = space.probability_of(&pi_phi, |mk| places.in_a3(mk));
                let i_hf = space.probability_of(&pi_phi, |mk| places.detected_then_failed(mk));
                let i_tau_h = self.tau_reward.accumulated(space.ctmc(), &l_phi)?;
                // The exact truncated moment E[τ·1{τ ≤ φ}] by parts over the
                // closed detected set: P[τ ≤ φ] = i_h + i_hf, and
                // ∫₀^φ P[τ ≤ t] dt is the detected occupancy — see DESIGN.md
                // on the Table-1 censoring.
                let detected_time: f64 = self.detected.iter().map(|&s| l_phi[s]).sum();
                Ok(GopMeasures {
                    p_a1,
                    i_h,
                    i_hf,
                    i_tau_h,
                    i_tau_h_exact: phi * (i_h + i_hf) - detected_time,
                })
            })
            .collect()
    }
}

/// Solves the five G-OP dependability measures on `analyzer` at every φ of
/// `phis` using the state classification of `places`: [`GopChain::new`]
/// then [`GopChain::measures`].
///
/// # Errors
///
/// Propagates the closure check and transient-solver failures.
pub fn gop_measures(
    analyzer: &Analyzer,
    places: GopPlaces,
    phis: &[f64],
) -> Result<Vec<GopMeasures>> {
    GopChain::new(analyzer, places)?.measures(analyzer, phis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsu::rmgd;
    use crate::GsuParams;

    fn fields(m: &GopMeasures) -> [(&'static str, f64); 5] {
        [
            ("p_a1", m.p_a1),
            ("i_h", m.i_h),
            ("i_hf", m.i_hf),
            ("i_tau_h", m.i_tau_h),
            ("i_tau_h_exact", m.i_tau_h_exact),
        ]
    }

    #[test]
    fn engine_matches_direct_measures_on_rmgd() {
        let params = GsuParams::paper_baseline();
        let built = rmgd::build(&params).unwrap();
        let analyzer = Analyzer::generate(&built.model, &Default::default()).unwrap();
        let direct = crate::GsuAnalysis::new(params).unwrap();
        let phis = [0.0, 2500.0, 7000.0];
        // One φ at a time: bit for bit the analysis' own measures.
        let mut solo = Vec::new();
        for phi in phis {
            let engine = gop_measures(&analyzer, built.places.gop, &[phi]).unwrap()[0];
            let m = direct.measures(phi).unwrap();
            let want = GopMeasures {
                p_a1: m.p_a1_gop,
                i_h: m.i_h,
                i_hf: m.i_hf,
                i_tau_h: m.i_tau_h,
                i_tau_h_exact: m.i_tau_h_exact,
            };
            for ((name, got), (_, want)) in fields(&engine).into_iter().zip(fields(&want)) {
                assert_eq!(got.to_bits(), want.to_bits(), "{name} at phi = {phi}");
            }
            solo.push(engine);
        }
        // The whole grid in one call chains its dense solves: equal to the
        // one-φ solves up to rounding.
        let curve = gop_measures(&analyzer, built.places.gop, &phis).unwrap();
        for ((phi, chained), one) in phis.into_iter().zip(&curve).zip(&solo) {
            for ((name, got), (_, want)) in fields(chained).into_iter().zip(fields(one)) {
                assert!(
                    (got - want).abs() <= 1e-8 * want.abs(),
                    "{name} at phi = {phi}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn phi_zero_is_degenerate() {
        let params = GsuParams::paper_baseline();
        let built = rmgd::build(&params).unwrap();
        let analyzer = Analyzer::generate(&built.model, &Default::default()).unwrap();
        let m = gop_measures(&analyzer, built.places.gop, &[0.0]).unwrap()[0];
        assert_eq!(m.p_a1, 1.0);
        assert_eq!(m.i_h, 0.0);
        assert_eq!(m.i_tau_h_exact, 0.0);
    }
}
