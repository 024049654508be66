//! `RMGd` — the guarded-operation dependability SAN reward model (paper
//! Figure 6).
//!
//! This model represents the stochastic process `X'` over the pre-designated
//! guarded-operation interval `[0, φ]`: the MDCD protocol escorts the active
//! new version `P1new` while `P1old` shadows it; acceptance tests validate
//! external messages of potentially contaminated processes; error detection
//! triggers recovery back to normal mode with `P1old` and `P2` in mission
//! operation (still inside this model, because the constituent measure
//! `∫₀^φ∫_τ^φ h(τ)f(x) dxdτ` — "detected, then the recovered system fails
//! again by φ" — spans both modes).
//!
//! Following the paper, the model tracks the *actual* contamination of each
//! process (`P1Nctn`, `P1Octn`, `P2ctn`) separately from the *perceived*
//! potential contamination (`dirty_bit` of P2), which lets it enumerate the
//! three subtle scenarios of §5.1 without extra machinery:
//!
//! 1. a process considered potentially contaminated is actually clean — its
//!    external message passes the AT and resets `dirty_bit`;
//! 2. a process is actually contaminated but the error is not manifested in
//!    the validated message — after the AT passes, the state is *wrongly*
//!    judged non-contaminated (the `ext_pass` case leaves `P2ctn` set while
//!    clearing `dirty_bit`);
//! 3. a process considered non-contaminated sends an external message
//!    **without undergoing AT** — if it was actually contaminated the
//!    erroneous message slips out and the system fails (`ext_slip`).
//!
//! Acceptance tests are represented instantaneously (their duration is
//! orders of magnitude below inter-fault times — paper §5.1); their
//! *duration* matters only for the overhead model `RMGp`.
//!
//! The state sets of the translated measures (paper §4.2) are expressed over
//! the `detected`/`failure` places ([`RmgdPlaces::gop`]):
//!
//! * `A'1` — no error occurred: `detected == 0 && failure == 0`;
//! * `A'2` — no error *detected*: `detected == 0`;
//! * `A'3` — error detected, system alive: `detected == 1 && failure == 0`;
//! * `A'4 ⊂ A'2` — failed with no detection: `detected == 0 && failure == 1`.

use san::{Activity, Case, Marking, PlaceId, SanModel};

use crate::gsu::GopPlaces;
use crate::GsuParams;

/// The places of the guarded-operation dependability model.
#[derive(Debug, Clone, Copy)]
pub struct RmgdPlaces {
    /// Actual contamination of the new version `P1new`.
    pub p1n_ctn: PlaceId,
    /// Actual contamination of the shadow old version `P1old`.
    pub p1o_ctn: PlaceId,
    /// Actual contamination of `P2`.
    pub p2_ctn: PlaceId,
    /// Perceived potential contamination of `P2` (the paper's `dirty_bit`).
    pub dirty_bit: PlaceId,
    /// The `detected`/`failure` pair that classifies every state into the
    /// `A'` sets of the translated measures.
    pub gop: GopPlaces,
}

/// A built guarded-operation dependability model plus its place handles.
#[derive(Debug)]
pub struct Rmgd {
    /// The SAN.
    pub model: SanModel,
    /// Handles to the places, for reward predicates.
    pub places: RmgdPlaces,
}

/// Builds `RMGd` for the given parameters.
pub fn build(params: &GsuParams) -> san::Result<Rmgd> {
    let lambda = params.lambda;
    let p_ext = params.p_ext;
    let c = params.coverage;
    let mu_new = params.mu_new;
    let mu_old = params.mu_old;

    let mut m = SanModel::new("RMGd");
    let p1n_ctn = m.add_place("P1Nctn", 0);
    let p1o_ctn = m.add_place("P1Octn", 0);
    let p2_ctn = m.add_place("P2ctn", 0);
    let dirty_bit = m.add_place("dirty_bit", 0);
    let detected = m.add_place("detected", 0);
    let failure = m.add_place("failure", 0);

    let live = move |mk: &Marking| mk.tokens(failure) == 0;
    let gop = move |mk: &Marking| mk.tokens(failure) == 0 && mk.tokens(detected) == 0;
    let recovered = move |mk: &Marking| mk.tokens(failure) == 0 && mk.tokens(detected) == 1;

    // --- Output gates -----------------------------------------------------
    // Failure is absorbing; the gate canonicalizes the irrelevant
    // contamination/dirty markings so each failure mode (detected vs. not)
    // collapses into a single state.
    let og_fail = m.add_output_gate("fail", move |mk| {
        mk.set_tokens(failure, 1);
        mk.set_tokens(p1n_ctn, 0);
        mk.set_tokens(p1o_ctn, 0);
        mk.set_tokens(p2_ctn, 0);
        mk.set_tokens(dirty_bit, 0);
    });
    // Successful detection: the MDCD rollback / roll-forward brings the
    // system into a validity-consistent global state (paper §2), so P1new is
    // retired and both P1old and P2 resume from validated (clean) states;
    // contamination that entered through logged messages is discarded with
    // the rolled-back state.
    let og_detect = m.add_output_gate("detected", move |mk| {
        mk.set_tokens(detected, 1);
        mk.set_tokens(p1n_ctn, 0);
        mk.set_tokens(p1o_ctn, 0);
        mk.set_tokens(p2_ctn, 0);
        mk.set_tokens(dirty_bit, 0);
    });
    // P1Nok_ext / P2ok_ext of the paper: a passed AT restores confidence.
    let og_pass_at = m.add_output_gate("ok_ext", move |mk| {
        mk.set_tokens(dirty_bit, 0);
    });
    // Internal message from P1new: P2 becomes potentially contaminated
    // (dirty bit set), and actually contaminated iff the sender was.
    let og_p1n_internal = m.add_output_gate("p1n_internal", move |mk| {
        if mk.tokens(p1n_ctn) == 1 {
            mk.set_tokens(p2_ctn, 1);
        }
        mk.set_tokens(dirty_bit, 1);
    });
    // Internal message from P2 during G-OP: consumed by both P1new and the
    // shadow P1old, contaminating them iff P2 is contaminated.
    let og_p2_internal_gop = m.add_output_gate("p2_internal_gop", move |mk| {
        if mk.tokens(p2_ctn) == 1 {
            mk.set_tokens(p1n_ctn, 1);
            mk.set_tokens(p1o_ctn, 1);
        }
    });
    // Normal-mode propagation after recovery.
    let og_p2_internal_norm = m.add_output_gate("p2_internal_norm", move |mk| {
        mk.set_tokens(p1o_ctn, 1);
    });
    let og_p1o_internal_norm = m.add_output_gate("p1o_internal_norm", move |mk| {
        mk.set_tokens(p2_ctn, 1);
    });

    // --- Fault manifestations ---------------------------------------------
    m.add_activity(
        Activity::timed("P1Nfm", mu_new)
            .with_enabling(move |mk| gop(mk) && mk.tokens(p1n_ctn) == 0)
            .with_output_arc(p1n_ctn, 1),
    )?;
    // The shadow old version executes throughout; its (rare) faults matter
    // after recovery.
    m.add_activity(
        Activity::timed("P1Ofm", mu_old)
            .with_enabling(move |mk| live(mk) && mk.tokens(p1o_ctn) == 0)
            .with_output_arc(p1o_ctn, 1),
    )?;
    m.add_activity(
        Activity::timed("P2fm", mu_old)
            .with_enabling(move |mk| live(mk) && mk.tokens(p2_ctn) == 0)
            .with_output_arc(p2_ctn, 1),
    )?;

    // --- P1new message sending under G-OP ----------------------------------
    // P1new is permanently considered potentially contaminated, so every
    // external message undergoes an AT (coverage c). Internal messages make
    // P2 potentially contaminated (checkpoint + dirty bit).
    m.add_activity(
        Activity::timed("P1Nmsg", lambda)
            .with_enabling(gop)
            .with_case(
                // Erroneous external message, detected by the AT.
                Case::with_probability_fn(move |mk| {
                    if mk.tokens(p1n_ctn) == 1 {
                        p_ext * c
                    } else {
                        0.0
                    }
                })
                .with_output_gate(og_detect),
            )
            .with_case(
                // Erroneous external message, AT coverage miss: failure.
                Case::with_probability_fn(move |mk| {
                    if mk.tokens(p1n_ctn) == 1 {
                        p_ext * (1.0 - c)
                    } else {
                        0.0
                    }
                })
                .with_output_gate(og_fail),
            )
            .with_case(
                // Correct external message passes the AT; confidence in the
                // message lineage is restored (dirty bit reset).
                Case::with_probability_fn(
                    move |mk| {
                        if mk.tokens(p1n_ctn) == 0 {
                            p_ext
                        } else {
                            0.0
                        }
                    },
                )
                .with_output_gate(og_pass_at),
            )
            .with_case(Case::with_probability(1.0 - p_ext).with_output_gate(og_p1n_internal)),
    )?;

    // --- P2 message sending under G-OP -------------------------------------
    // AT-based validation is applied to P2's external messages only while
    // its dirty bit is set (the MDCD low-overhead policy). A contaminated P2
    // that is *believed* clean therefore fails the system on its next
    // external message (scenario 3). Enabled only when some state can
    // change.
    m.add_activity(
        Activity::timed("P2msg", lambda)
            .with_enabling(move |mk| {
                gop(mk) && (mk.tokens(p2_ctn) == 1 || mk.tokens(dirty_bit) == 1)
            })
            .with_case(
                // Dirty & erroneous: AT detects with coverage c.
                Case::with_probability_fn(move |mk| {
                    if mk.tokens(dirty_bit) == 1 && mk.tokens(p2_ctn) == 1 {
                        p_ext * c
                    } else {
                        0.0
                    }
                })
                .with_output_gate(og_detect),
            )
            .with_case(
                // Dirty & erroneous: AT coverage miss.
                Case::with_probability_fn(move |mk| {
                    if mk.tokens(dirty_bit) == 1 && mk.tokens(p2_ctn) == 1 {
                        p_ext * (1.0 - c)
                    } else {
                        0.0
                    }
                })
                .with_output_gate(og_fail),
            )
            .with_case(
                // Dirty & actually clean: AT passes, dirty bit reset.
                Case::with_probability_fn(move |mk| {
                    if mk.tokens(dirty_bit) == 1 && mk.tokens(p2_ctn) == 0 {
                        p_ext
                    } else {
                        0.0
                    }
                })
                .with_output_gate(og_pass_at),
            )
            .with_case(
                // Believed clean but actually contaminated: no AT, the
                // erroneous external message reaches the external world.
                Case::with_probability_fn(move |mk| {
                    if mk.tokens(dirty_bit) == 0 && mk.tokens(p2_ctn) == 1 {
                        p_ext
                    } else {
                        0.0
                    }
                })
                .with_output_gate(og_fail),
            )
            .with_case(Case::with_probability(1.0 - p_ext).with_output_gate(og_p2_internal_gop)),
    )?;

    // --- Normal mode after recovery (P1old + P2 in mission operation) ------
    // No safeguard functions: a contaminated process's external message
    // fails the system, internal messages propagate contamination.
    m.add_activity(
        Activity::timed("P1Omsg", lambda)
            .with_enabling(move |mk| recovered(mk) && mk.tokens(p1o_ctn) == 1)
            .with_case(Case::with_probability(p_ext).with_output_gate(og_fail))
            .with_case(Case::with_probability(1.0 - p_ext).with_output_gate(og_p1o_internal_norm)),
    )?;
    m.add_activity(
        Activity::timed("P2msgN", lambda)
            .with_enabling(move |mk| recovered(mk) && mk.tokens(p2_ctn) == 1)
            .with_case(Case::with_probability(p_ext).with_output_gate(og_fail))
            .with_case(Case::with_probability(1.0 - p_ext).with_output_gate(og_p2_internal_norm)),
    )?;

    Ok(Rmgd {
        model: m,
        places: RmgdPlaces {
            p1n_ctn,
            p1o_ctn,
            p2_ctn,
            dirty_bit,
            gop: GopPlaces { detected, failure },
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use san::{Analyzer, StateSpace};

    fn baseline() -> GsuParams {
        GsuParams::paper_baseline()
    }

    #[test]
    fn state_space_is_small() {
        let rmgd = build(&baseline()).unwrap();
        let ss = StateSpace::generate(&rmgd.model, &Default::default()).unwrap();
        assert!(ss.n_states() <= 64, "got {}", ss.n_states());
        assert!(ss.n_states() >= 8);
    }

    #[test]
    fn a_sets_partition_reachable_states() {
        let rmgd = build(&baseline()).unwrap();
        let ss = StateSpace::generate(&rmgd.model, &Default::default()).unwrap();
        let p = rmgd.places.gop;
        for i in 0..ss.n_states() {
            let mk = ss.marking(i);
            let cats = [
                p.in_a1(mk),
                p.in_a3(mk),
                p.in_a4(mk),
                p.detected_then_failed(mk),
            ];
            assert_eq!(
                cats.iter().filter(|&&b| b).count(),
                1,
                "state {mk} must be in exactly one category"
            );
            // A'4 ⊂ A'2 (paper: "thus A'4 is a proper subset of A'2").
            if p.in_a4(mk) {
                assert!(p.in_a2(mk));
            }
        }
    }

    #[test]
    fn initial_state_is_all_clean() {
        let rmgd = build(&baseline()).unwrap();
        let ss = StateSpace::generate(&rmgd.model, &Default::default()).unwrap();
        let init: Vec<f64> = ss.initial_distribution().to_vec();
        let idx = init.iter().position(|&p| p == 1.0).unwrap();
        assert!(rmgd.places.gop.in_a1(ss.marking(idx)));
        assert_eq!(ss.marking(idx).total_tokens(), 0);
    }

    #[test]
    fn detection_probability_scales_with_coverage() {
        let phi = 5_000.0;
        let mut last = 0.0;
        for cov in [0.2, 0.5, 0.95] {
            let p = baseline().with_coverage(cov).unwrap();
            let rmgd = build(&p).unwrap();
            let an = Analyzer::generate(&rmgd.model, &Default::default()).unwrap();
            let places = rmgd.places.gop;
            let det = an.probability_at(phi, move |mk| places.in_a3(mk)).unwrap();
            assert!(det > last, "coverage {cov}: {det} should exceed {last}");
            last = det;
        }
    }

    #[test]
    fn no_failure_with_perfect_components() {
        // µ_new = µ_old ≈ 0: the system stays in A'1 almost surely.
        let mut p = baseline();
        p.mu_new = 1e-15;
        p.mu_old = 0.0;
        let rmgd = build(&p).unwrap();
        let an = Analyzer::generate(&rmgd.model, &Default::default()).unwrap();
        let places = rmgd.places.gop;
        let a1 = an
            .probability_at(10_000.0, move |mk| places.in_a1(mk))
            .unwrap();
        assert!(a1 > 1.0 - 1e-9);
    }

    #[test]
    fn survival_and_detection_roughly_exponential() {
        // For µ_new·φ = 0.5 the A'1 probability should be close to
        // exp(−µ_new·φ) (faults are detected or fail within ~1/(λ·p_ext·c)
        // of manifestation, which is negligible at this scale).
        let p = baseline();
        let rmgd = build(&p).unwrap();
        let an = Analyzer::generate(&rmgd.model, &Default::default()).unwrap();
        let places = rmgd.places.gop;
        let phi = 5_000.0;
        let a1 = an.probability_at(phi, move |mk| places.in_a1(mk)).unwrap();
        let expect = (-p.mu_new * phi).exp();
        assert!((a1 - expect).abs() < 0.02, "{a1} vs {expect}");
        // Detected fraction tracks c·(1−exp(−µnew·φ)) closely; P2's own
        // (rare, µold-rate) faults add a sliver of extra detection mass, so
        // this is a tight approximation rather than a strict bound.
        let det = an.probability_at(phi, move |mk| places.in_a3(mk)).unwrap();
        let approx = p.coverage * (1.0 - expect);
        assert!(det <= approx + 1e-3, "{det} vs {approx}");
        assert!(det > 0.8 * approx, "{det} vs {approx}");
    }

    #[test]
    fn detected_then_failed_needs_long_horizons() {
        // The recovered system runs old software (µ_old = 1e-8): failing
        // again within φ is possible but rare.
        let p = baseline();
        let rmgd = build(&p).unwrap();
        let an = Analyzer::generate(&rmgd.model, &Default::default()).unwrap();
        let places = rmgd.places.gop;
        let hf = an
            .probability_at(10_000.0, move |mk| places.detected_then_failed(mk))
            .unwrap();
        assert!(hf > 0.0);
        assert!(hf < 1e-3);
    }

    #[test]
    fn zero_coverage_never_detects() {
        let p = baseline().with_coverage(0.0).unwrap();
        let rmgd = build(&p).unwrap();
        let an = Analyzer::generate(&rmgd.model, &Default::default()).unwrap();
        let places = rmgd.places.gop;
        let det = an
            .probability_at(10_000.0, move |mk| mk.tokens(places.detected) == 1)
            .unwrap();
        assert_eq!(det, 0.0);
    }
}
