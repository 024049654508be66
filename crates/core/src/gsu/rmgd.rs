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

//!
//! [`build_family`] generalizes the net over a [`Family`]: `n` escorts in
//! a star around the upgraded pair (an internal message of `P1new` or of
//! the recovered `P1old` goes to each escort with equal probability),
//! upgrade waves that lower µ_new, AT coverage that decays with every
//! contaminated process beyond the sender, and escort aging with optional
//! rejuvenation. [`build`] is the paper's shape.

use std::sync::Arc;

use san::{Activity, Case, Marking, PlaceId, SanModel};

use crate::gsu::{Family, GopPlaces};
use crate::GsuParams;

/// The places of the guarded-operation dependability model.
#[derive(Debug, Clone)]
pub struct RmgdPlaces {
    /// Actual contamination of the new version `P1new`.
    pub p1n_ctn: PlaceId,
    /// Actual contamination of the shadow old version `P1old`.
    pub p1o_ctn: PlaceId,
    /// Actual contamination of each escort (the paper's `P2ctn`).
    pub escort_ctn: Vec<PlaceId>,
    /// Perceived potential contamination of each escort (the paper's
    /// `dirty_bit`).
    pub escort_dirty: Vec<PlaceId>,
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

/// Builds the paper's `RMGd`.
///
/// # Errors
///
/// Fails on rates the SAN rejects.
pub fn build(params: &GsuParams) -> san::Result<Rmgd> {
    build_family(params, &Family::paper(params)?)
}

/// Builds the guarded-operation dependability model of a family member.
///
/// # Errors
///
/// Fails on rates the SAN rejects.
pub fn build_family(params: &GsuParams, family: &Family) -> san::Result<Rmgd> {
    let n = family.escorts;
    let lambda = params.lambda;
    let p_ext = params.p_ext;
    let c = params.coverage;
    let decay = family.coverage_decay;
    let mu_new = params.mu_new;
    let mu_old = params.mu_old;

    let mut m = SanModel::new("RMGd");
    let p1n_ctn = m.add_place("P1Nctn", 0);
    let p1o_ctn = m.add_place("P1Octn", 0);
    let escort_ctn: Vec<PlaceId> = (0..n)
        .map(|i| m.add_place(format!("P{}ctn", i + 2), 0))
        .collect();
    // The paper's `P2` dirty bit is `dirty_bit`; further escorts number
    // theirs.
    let escort_dirty: Vec<PlaceId> = (0..n)
        .map(|i| match i {
            0 => m.add_place("dirty_bit", 0),
            _ => m.add_place(format!("dirty_bit{}", i + 2), 0),
        })
        .collect();
    let aged: Vec<PlaceId> = match family.aging {
        Some(_) => (0..n)
            .map(|i| m.add_place(format!("P{}aged", i + 2), 0))
            .collect(),
        None => Vec::new(),
    };
    let wave = family.waves.as_ref().map(|_| m.add_place("wave", 0));
    let detected = m.add_place("detected", 0);
    let failure = m.add_place("failure", 0);

    let live = move |mk: &Marking| mk.tokens(failure) == 0;
    let gop = move |mk: &Marking| mk.tokens(failure) == 0 && mk.tokens(detected) == 0;
    let recovered = move |mk: &Marking| mk.tokens(failure) == 0 && mk.tokens(detected) == 1;

    // Marking-dependent AT coverage: each contaminated process *beyond the
    // sender* makes the acceptance test less likely to catch the error
    // (error symptoms spread over several states confound the check). With
    // no decay this is the paper's constant `c`, since the sender itself is
    // always contaminated when a detection case is weighed.
    let ctn_all: Arc<[PlaceId]> = [p1n_ctn, p1o_ctn]
        .into_iter()
        .chain(escort_ctn.iter().copied())
        .collect();
    let dirty_all: Arc<[PlaceId]> = escort_dirty.iter().copied().collect();
    let c_eff = {
        let ctn_all = ctn_all.clone();
        move |mk: &Marking| {
            let extra = ctn_all
                .iter()
                .map(|&pl| mk.tokens(pl))
                .sum::<u32>()
                .saturating_sub(1);
            (c - decay * extra as f64).clamp(0.0, 1.0)
        }
    };

    // --- Output gates -----------------------------------------------------
    // Failure is absorbing; the gate canonicalizes the irrelevant
    // contamination, dirty, aged and wave markings so each failure mode
    // (detected vs. not) collapses into a single state.
    let og_fail = {
        let ctn_all = ctn_all.clone();
        let dirty = dirty_all.clone();
        let aged = aged.clone();
        m.add_output_gate("fail", move |mk| {
            mk.set_tokens(failure, 1);
            for &pl in ctn_all.iter().chain(dirty.iter()).chain(&aged) {
                mk.set_tokens(pl, 0);
            }
            if let Some(w) = wave {
                mk.set_tokens(w, 0);
            }
        })
    };
    // Successful detection: the MDCD rollback / roll-forward brings the
    // system into a validity-consistent global state (paper §2), so P1new is
    // retired and P1old and the escorts resume from validated (clean)
    // states; contamination that entered through logged messages is
    // discarded with the rolled-back state. Aging is physical escort state
    // and survives detection (normal mode keeps running the escorts).
    let og_detect = {
        let dirty = dirty_all.clone();
        m.add_output_gate("detected", move |mk| {
            mk.set_tokens(detected, 1);
            for &pl in ctn_all.iter().chain(dirty.iter()) {
                mk.set_tokens(pl, 0);
            }
            if let Some(w) = wave {
                mk.set_tokens(w, 0);
            }
        })
    };
    // P1Nok_ext of the paper: a clean external message of P1new passes its
    // AT, restoring confidence in its whole message lineage.
    let og_p1n_pass = m.add_output_gate("ok_ext", move |mk| {
        for &d in dirty_all.iter() {
            mk.set_tokens(d, 0);
        }
    });

    // --- Fault manifestations ---------------------------------------------
    // The upgraded component: with waves, each completed wave multiplies
    // µ_new by the wave factor (floored at µ_old).
    let p1n_fm = match (&family.waves, wave) {
        (Some(w), Some(wave_pl)) => {
            let w = w.clone();
            Activity::timed_fn("P1Nfm", move |mk| {
                w.mu_at(mk.tokens(wave_pl), mu_new, mu_old)
            })
        }
        _ => Activity::timed("P1Nfm", mu_new),
    };
    m.add_activity(
        p1n_fm
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
    if let (Some(w), Some(wave_pl)) = (&family.waves, wave) {
        let last = (w.count - 1) as u32;
        m.add_activity(
            Activity::timed("WaveAdv", w.rate)
                .with_enabling(move |mk| gop(mk) && mk.tokens(wave_pl) < last)
                .with_output_arc(wave_pl, 1),
        )?;
    }
    for (i, &e_ctn) in escort_ctn.iter().enumerate() {
        let e = i + 2;
        let e_fm = match &family.aging {
            Some(a) => {
                let aged_pl = aged[i];
                let factor = a.factor;
                Activity::timed_fn(format!("P{e}fm"), move |mk| {
                    if mk.tokens(aged_pl) == 1 {
                        mu_old * factor
                    } else {
                        mu_old
                    }
                })
            }
            None => Activity::timed(format!("P{e}fm"), mu_old),
        };
        m.add_activity(
            e_fm.with_enabling(move |mk| live(mk) && mk.tokens(e_ctn) == 0)
                .with_output_arc(e_ctn, 1),
        )?;
        if let Some(a) = &family.aging {
            let aged_pl = aged[i];
            m.add_activity(
                Activity::timed(format!("P{e}age"), a.rate)
                    .with_enabling(move |mk| live(mk) && mk.tokens(aged_pl) == 0)
                    .with_output_arc(aged_pl, 1),
            )?;
            if let Some(r) = a.rejuvenation {
                let og = m.add_output_gate(format!("P{e}_rejuvenate"), move |mk| {
                    mk.set_tokens(aged_pl, 0)
                });
                m.add_activity(
                    Activity::timed(format!("P{e}rejuv"), r)
                        .with_enabling(move |mk| live(mk) && mk.tokens(aged_pl) == 1)
                        .with_output_gate(og),
                )?;
            }
        }
    }

    // --- P1new message sending under G-OP ----------------------------------
    // P1new is permanently considered potentially contaminated, so every
    // external message undergoes an AT: an erroneous one is detected, or
    // missed and the system fails. An internal message makes its receiving
    // escort potentially contaminated (checkpoint + dirty bit), and
    // actually contaminated iff the sender was.
    let [detect, miss] = at_verdicts(p_ext, move |mk| mk.tokens(p1n_ctn) == 1, c_eff.clone());
    let mut p1n_msg = Activity::timed("P1Nmsg", lambda)
        .with_enabling(gop)
        .with_case(detect.with_output_gate(og_detect))
        .with_case(miss.with_output_gate(og_fail))
        .with_case(
            // Correct external message passes the AT.
            Case::with_probability_fn(move |mk| if mk.tokens(p1n_ctn) == 0 { p_ext } else { 0.0 })
                .with_output_gate(og_p1n_pass),
        );
    for (i, (&e_ctn, &e_db)) in escort_ctn.iter().zip(&escort_dirty).enumerate() {
        let og = m.add_output_gate(format!("p1n_internal_P{}", i + 2), move |mk| {
            if mk.tokens(p1n_ctn) == 1 {
                mk.set_tokens(e_ctn, 1);
            }
            mk.set_tokens(e_db, 1);
        });
        p1n_msg = p1n_msg
            .with_case(Case::with_probability((1.0 - p_ext) / n as f64).with_output_gate(og));
    }
    m.add_activity(p1n_msg)?;

    // --- Escort message sending under G-OP ---------------------------------
    // AT-based validation is applied to an escort's external messages only
    // while its dirty bit is set (the MDCD low-overhead policy). A
    // contaminated escort that is *believed* clean therefore fails the
    // system on its next external message (scenario 3). Its internal
    // messages reach both P1new and the shadow P1old. Enabled only when
    // some state can change.
    for (i, (&e_ctn, &e_db)) in escort_ctn.iter().zip(&escort_dirty).enumerate() {
        let e = i + 2;
        let og_pass = m.add_output_gate(format!("P{e}_ok_ext"), move |mk| mk.set_tokens(e_db, 0));
        let og_internal = m.add_output_gate(format!("P{e}_internal_gop"), move |mk| {
            if mk.tokens(e_ctn) == 1 {
                mk.set_tokens(p1n_ctn, 1);
                mk.set_tokens(p1o_ctn, 1);
            }
        });
        // Dirty & erroneous: the AT detects with coverage c, or misses.
        let dirty_and_ctn = move |mk: &Marking| mk.tokens(e_db) == 1 && mk.tokens(e_ctn) == 1;
        let [detect, miss] = at_verdicts(p_ext, dirty_and_ctn, c_eff.clone());
        m.add_activity(
            Activity::timed(format!("P{e}msg"), lambda)
                .with_enabling(move |mk| gop(mk) && (mk.tokens(e_ctn) == 1 || mk.tokens(e_db) == 1))
                .with_case(detect.with_output_gate(og_detect))
                .with_case(miss.with_output_gate(og_fail))
                .with_case(
                    // Dirty & actually clean: AT passes, dirty bit reset.
                    Case::with_probability_fn(move |mk| {
                        if mk.tokens(e_db) == 1 && mk.tokens(e_ctn) == 0 {
                            p_ext
                        } else {
                            0.0
                        }
                    })
                    .with_output_gate(og_pass),
                )
                .with_case(
                    // Believed clean but actually contaminated: no AT, the
                    // erroneous external message reaches the external world.
                    Case::with_probability_fn(move |mk| {
                        if mk.tokens(e_db) == 0 && mk.tokens(e_ctn) == 1 {
                            p_ext
                        } else {
                            0.0
                        }
                    })
                    .with_output_gate(og_fail),
                )
                .with_case(Case::with_probability(1.0 - p_ext).with_output_gate(og_internal)),
        )?;
    }

    // --- Normal mode after recovery (P1old + escorts in mission operation) --
    // No safeguard functions: a contaminated process's external message
    // fails the system, internal messages propagate contamination.
    let mut p1o_msg = Activity::timed("P1Omsg", lambda)
        .with_enabling(move |mk| recovered(mk) && mk.tokens(p1o_ctn) == 1)
        .with_case(Case::with_probability(p_ext).with_output_gate(og_fail));
    for (i, &e_ctn) in escort_ctn.iter().enumerate() {
        let og = m.add_output_gate(format!("p1o_internal_norm_P{}", i + 2), move |mk| {
            mk.set_tokens(e_ctn, 1)
        });
        p1o_msg = p1o_msg
            .with_case(Case::with_probability((1.0 - p_ext) / n as f64).with_output_gate(og));
    }
    m.add_activity(p1o_msg)?;
    let og_escort_norm =
        m.add_output_gate("escort_internal_norm", move |mk| mk.set_tokens(p1o_ctn, 1));
    for (i, &e_ctn) in escort_ctn.iter().enumerate() {
        m.add_activity(
            Activity::timed(format!("P{}msgN", i + 2), lambda)
                .with_enabling(move |mk| recovered(mk) && mk.tokens(e_ctn) == 1)
                .with_case(Case::with_probability(p_ext).with_output_gate(og_fail))
                .with_case(Case::with_probability(1.0 - p_ext).with_output_gate(og_escort_norm)),
        )?;
    }

    Ok(Rmgd {
        model: m,
        places: RmgdPlaces {
            p1n_ctn,
            p1o_ctn,
            escort_ctn,
            escort_dirty,
            gop: GopPlaces { detected, failure },
        },
    })
}

/// The two verdicts of the AT on an external message sent where `erroneous`
/// holds: the error is detected with the marking's coverage `c`, or missed.
fn at_verdicts(
    p_ext: f64,
    erroneous: impl Fn(&Marking) -> bool + Copy + Send + Sync + 'static,
    c: impl Fn(&Marking) -> f64 + Clone + Send + Sync + 'static,
) -> [Case; 2] {
    let hit = c.clone();
    [
        Case::with_probability_fn(move |mk| if erroneous(mk) { p_ext * hit(mk) } else { 0.0 }),
        Case::with_probability_fn(move |mk| {
            if erroneous(mk) {
                p_ext * (1.0 - c(mk))
            } else {
                0.0
            }
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsu::{gop_measures, AgingSpec, GopMeasures, WaveSpec};
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

    /// The paper's shape in the scaled-down regime of
    /// `tests/analytic_vs_simulation.rs`: faults are frequent enough that
    /// the generalizations' effects show up.
    fn scaled() -> (GsuParams, Family) {
        let params = GsuParams {
            theta: 50.0,
            lambda: 40.0,
            mu_new: 0.02,
            mu_old: 1e-7,
            coverage: 0.95,
            p_ext: 0.1,
            alpha: 200.0,
            beta: 200.0,
        };
        (params, Family::paper(&params).unwrap())
    }

    /// Every generalization on.
    fn generalized() -> (GsuParams, Family) {
        let (params, paper) = scaled();
        let family = Family {
            escorts: 2,
            waves: Some(WaveSpec {
                count: 3,
                rate: 0.5,
                factor: 0.1,
            }),
            coverage_decay: 0.2,
            aging: Some(AgingSpec {
                rate: 0.5,
                factor: 4.0,
                rejuvenation: Some(2.0),
            }),
            ..paper
        };
        (params, family)
    }

    /// The Table 1 measures of a family member at `phi`.
    fn gop_at(params: &GsuParams, family: &Family, phi: f64) -> GopMeasures {
        let gd = build_family(params, family).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        gop_measures(&an, gd.places.gop, &[phi]).unwrap()[0]
    }

    #[test]
    fn a_sets_partition_reachable_states() {
        // The paper's shape, and the shape with every generalization on:
        // the `detected`/`failure` pair alone must put each reachable state
        // in exactly one of A'1, A'3, A'4, detected-then-failed.
        let paper = (baseline(), Family::paper(&baseline()).unwrap());
        for (params, family) in [paper, generalized()] {
            let rmgd = build_family(&params, &family).unwrap();
            let ss = StateSpace::generate(&rmgd.model, &Default::default()).unwrap();
            let p = rmgd.places.gop;
            let mut seen = [0usize; 4];
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
                for (count, &hit) in seen.iter_mut().zip(&cats) {
                    *count += usize::from(hit);
                }
                // A'4 ⊂ A'2 (paper: "thus A'4 is a proper subset of A'2").
                if p.in_a4(mk) {
                    assert!(p.in_a2(mk));
                }
            }
            // Every set is reachable, and A'1 carries the contamination
            // variety (plus the escort, wave and aging variety the
            // generalizations add).
            assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
            assert!(seen[0] > 8, "{seen:?}");
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

    #[test]
    fn more_escorts_lower_survival() {
        let (params, paper) = scaled();
        let survival = |escorts| {
            let family = Family {
                escorts,
                ..paper.clone()
            };
            gop_at(&params, &family, params.theta).p_a1
        };
        assert!(survival(2) < survival(1) + 1e-12);
        assert!(survival(3) < survival(2) + 1e-12);
    }

    #[test]
    fn coverage_decay_reduces_detection() {
        // Raise µ_old so that multi-process contamination has real mass.
        let (mut params, paper) = scaled();
        params.mu_old = 0.01;
        let base = gop_at(&params, &paper, 50.0);
        let family = Family {
            coverage_decay: 0.5,
            ..paper
        };
        let decayed = gop_at(&params, &family, 50.0);
        assert!(decayed.i_h < base.i_h, "{} vs {}", decayed.i_h, base.i_h);
    }

    #[test]
    fn upgrade_waves_improve_survival() {
        let (params, paper) = scaled();
        let base = gop_at(&params, &paper, 50.0);
        let waves = Some(WaveSpec {
            count: 3,
            rate: 0.5,
            factor: 0.1,
        });
        let waved = gop_at(&params, &Family { waves, ..paper }, 50.0);
        assert!(waved.p_a1 > base.p_a1, "{} vs {}", waved.p_a1, base.p_a1);
    }

    #[test]
    fn aging_hurts_and_rejuvenation_helps() {
        let (params, paper) = scaled();
        let base = gop_at(&params, &paper, 50.0).p_a1;
        let with_aging = |rejuvenation| {
            let aging = Some(AgingSpec {
                rate: 0.5,
                factor: 200.0,
                rejuvenation,
            });
            gop_at(
                &params,
                &Family {
                    aging,
                    ..paper.clone()
                },
                50.0,
            )
            .p_a1
        };
        let aged = with_aging(None);
        assert!(aged < base, "{aged} vs {base}");
        let rejuvenated = with_aging(Some(5.0));
        assert!(rejuvenated > aged, "{rejuvenated} vs {aged}");
    }
}
