//! The reusable guarded-operation measure engine.
//!
//! The Table 1 constituent measures are defined purely in terms of the
//! `A'1 … A'4` state sets of a dependability model — not in terms of the
//! paper's specific `RMGd` net — and every one of those sets is fixed by two
//! places, `detected` and `failure`. This module captures that contract as
//! the [`GopPlaces`] pair plus [`GopChain`], the φ-independent preparation
//! of one generated model, so every member of the model family — the
//! paper's `RMGd` and the scenarios' (multiple escorts, upgrade waves,
//! aging states) — goes through exactly the same translation inside
//! [`crate::GsuAnalysis`].
//!
//! A whole φ sweep costs one transient solve on the G-OP chain: every
//! measure of every φ is a weighting of `π(φ)` and `L(φ)`, and those come
//! from one call on one engine
//! (`markov::transient::distribution_and_occupancy_at_times`): one shared
//! power sequence, or one dense chain along the grid. That covers
//! the exact detection moment too: `detected` is only ever set, so the
//! detected set `¬A'2` is closed, `P[T ≤ t] = π(t)[¬A'2]`, and
//! `E[T·1{T ≤ φ}] = φ·π(φ)[¬A'2] − Σ_{¬A'2} L(φ)`. [`GopChain::new`]
//! checks that closure on the generated chain.
//!
//! The solve runs on the chain lumped by `(detected, failure)`, the only
//! thing any of these measures reads of a state: the coarsest ordinarily
//! lumpable quotient (`markov::lump`), whose block sums are the full
//! chain's class sums.

use san::{Analyzer, LumpedChain, Marking, PlaceId};

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
/// model: the chain lumped by the `(detected, failure)` pair and the blocks
/// of each state set.
///
/// Every Table 1 measure reads a state only through `(detected, failure)`,
/// so the chain is solved as its coarsest ordinarily lumpable quotient that
/// refines that pair (`san::Analyzer::lumped`): its block probabilities
/// and occupancies are the full chain's class sums. Built once per model;
/// [`GopChain::measures`] then solves any φ grid on the quotient.
#[derive(Debug, Clone)]
pub struct GopChain {
    places: GopPlaces,
    chain: LumpedChain,
    /// The blocks of `A'1`, `A'3` and detected-then-failed, ascending.
    a1: Vec<usize>,
    a3: Vec<usize>,
    detected_then_failed: Vec<usize>,
    /// The blocks of `¬A'2`, ascending: the first-passage target of the
    /// exact detection moment.
    detected: Vec<usize>,
}

impl GopChain {
    /// Classifies the states of `analyzer`'s model by `places`, checks on
    /// the full chain that the detected set is closed — that no transition
    /// leaves it — so that `π(t)[¬A'2]` is the detection-time CDF, and
    /// lumps the chain by `(detected, failure)`.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::MeasureInvariant`] when a transition leads from
    /// a detected state to an undetected one, and propagates lumping
    /// failures.
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
        let chain = analyzer.lumped(|mk| {
            u64::from(mk.tokens(places.detected)) << 32 | u64::from(mk.tokens(places.failure))
        })?;
        let blocks_where = |predicate: fn(&GopPlaces, &Marking) -> bool| {
            chain.blocks_of(&space.states_where(|mk| predicate(&places, mk)))
        };
        Ok(GopChain {
            places,
            a1: blocks_where(GopPlaces::in_a1),
            a3: blocks_where(GopPlaces::in_a3),
            detected_then_failed: blocks_where(GopPlaces::detected_then_failed),
            detected: chain.blocks_of(&detected),
            chain,
        })
    }

    /// The places that classify the chain's states.
    pub fn places(&self) -> GopPlaces {
        self.places
    }

    /// The lumped G-OP chain the measures are solved on.
    pub fn lumped(&self) -> &LumpedChain {
        &self.chain
    }

    /// Solves the five G-OP measures at every φ of `phis`, in order.
    ///
    /// Every φ is a horizon of one transient pass on the lumped chain; at
    /// `φ = 0` the measures are [`GopMeasures::AT_PHI_ZERO`].
    ///
    /// # Errors
    ///
    /// Propagates transient-solver failures.
    pub fn measures(&self, phis: &[f64]) -> Result<Vec<GopMeasures>> {
        let solved = self.chain.distribution_and_occupancy_at_times(phis)?;
        let sum = |v: &[f64], blocks: &[usize]| -> f64 { blocks.iter().map(|&b| v[b]).sum() };
        Ok(phis
            .iter()
            .zip(solved)
            .map(|(&phi, (pi_phi, l_phi))| {
                if phi == 0.0 {
                    return GopMeasures::AT_PHI_ZERO;
                }
                // The three instant-of-time measures only differ in which
                // blocks of π(φ) they sum. ∫τh is Table 1's rate reward, +1
                // on `A'2` and −1 on `A'4`: failure is an absorbing 0/1
                // flag, so `A'2 ∖ A'4 = A'1` and the reward is A'1's
                // occupancy.
                let p_a1 = sum(&pi_phi, &self.a1);
                let i_h = sum(&pi_phi, &self.a3);
                let i_hf = sum(&pi_phi, &self.detected_then_failed);
                let i_tau_h = sum(&l_phi, &self.a1);
                // The exact truncated moment E[τ·1{τ ≤ φ}] by parts over the
                // closed detected set: P[τ ≤ φ] = i_h + i_hf, and
                // ∫₀^φ P[τ ≤ t] dt is the detected occupancy — see DESIGN.md
                // on the Table-1 censoring.
                let detected_time = sum(&l_phi, &self.detected);
                GopMeasures {
                    p_a1,
                    i_h,
                    i_hf,
                    i_tau_h,
                    i_tau_h_exact: phi * (i_h + i_hf) - detected_time,
                }
            })
            .collect())
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
    GopChain::new(analyzer, places)?.measures(phis)
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
