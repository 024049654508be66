//! `RMNd` — the normal-mode SAN reward model (paper Figure 8).
//!
//! Represents the system behaviour when no safeguard functions run: two
//! active processes exchange messages; a fault manifestation contaminates a
//! process state; a contaminated process's **internal** message contaminates
//! its peer, and a contaminated process's **external** message — undetected,
//! since acceptance tests are not performed in the normal mode — causes
//! system failure.
//!
//! The model is used for three constituent measures (paper §5.2.3), all with
//! the same predicate-rate pair `MARK(failure) == 0 → 1`:
//!
//! * `P(X''_θ ∈ A''1)` with the first component at rate µ_new (unprotected
//!   upgraded system over the full window — yields `E[W₀]`);
//! * `P(X''_{θ−φ} ∈ A''1)` with rate µ_new (upgraded system after a
//!   successful guarded operation);
//! * `∫_φ^θ f(x) dx = 1 − P(X''_{θ−φ} ∈ A''1)` with rate µ_old (the
//!   recovered system, running the old version, failing before the next
//!   upgrade).

//!
//! [`build_family`] runs the same net over the family's `n + 1` processes
//! in its star topology: the first component and `n` escorts. Aging is
//! not carried into the normal mode, which starts from a clean state at
//! the mode switch, as in the paper.

use san::{Activity, Case, Marking, PlaceId, SanModel};

use crate::gsu::Family;
use crate::GsuParams;

/// The places of the normal-mode model, for use in reward predicates.
#[derive(Debug, Clone)]
pub struct RmndPlaces {
    /// Actual contamination of each process: the first component (`P1`),
    /// then the escorts (`P2`, …).
    pub ctn: Vec<PlaceId>,
    /// System failure (absorbing).
    pub failure: PlaceId,
}

/// A built normal-mode model plus its place handles.
#[derive(Debug)]
pub struct Rmnd {
    /// The SAN.
    pub model: SanModel,
    /// Handles to the places, for reward predicates.
    pub places: RmndPlaces,
}

/// Builds the paper's `RMNd` with fault-manifestation rate `mu_first` for
/// the first component (µ_new for the upgraded system, µ_old for the
/// recovered one); P2 always runs an old version at `params.mu_old`.
///
/// # Errors
///
/// Fails on rates the SAN rejects.
pub fn build(params: &GsuParams, mu_first: f64) -> san::Result<Rmnd> {
    build_family(params, &Family::paper(params)?, mu_first)
}

/// Builds the normal-mode model of a family member: the first component
/// manifests faults at `mu_first`, every escort at µ_old.
///
/// # Errors
///
/// Fails on rates the SAN rejects.
pub fn build_family(params: &GsuParams, family: &Family, mu_first: f64) -> san::Result<Rmnd> {
    let n = family.escorts;
    let lambda = params.lambda;
    let p_ext = params.p_ext;

    let mut m = SanModel::new("RMNd");
    let ctn: Vec<PlaceId> = (0..=n)
        .map(|i| m.add_place(format!("P{}ctn", i + 1), 0))
        .collect();
    let failure = m.add_place("failure", 0);
    let live = move |mk: &Marking| mk.tokens(failure) == 0;

    // Fault manifestations.
    for (i, &ci) in ctn.iter().enumerate() {
        let rate = if i == 0 { mu_first } else { params.mu_old };
        m.add_activity(
            Activity::timed(format!("P{}fm", i + 1), rate)
                .with_enabling(move |mk| live(mk) && mk.tokens(ci) == 0)
                .with_output_arc(ci, 1),
        )?;
    }

    // Message sending by a contaminated process: external messages fail the
    // system, internal messages contaminate the peer (the first component
    // sends to each escort with equal probability). Messages from clean
    // processes change no state and are therefore not modelled.
    // Failure is absorbing; contamination no longer matters, so the gate
    // canonicalizes it away and all failure paths merge into one state.
    let og_fail = {
        let ctn = ctn.clone();
        m.add_output_gate("fail", move |mk| {
            mk.set_tokens(failure, 1);
            for &pl in &ctn {
                mk.set_tokens(pl, 0);
            }
        })
    };
    for (i, &ci) in ctn.iter().enumerate() {
        let mut msg = Activity::timed(format!("P{}msg", i + 1), lambda)
            .with_enabling(move |mk| live(mk) && mk.tokens(ci) == 1)
            .with_case(Case::with_probability(p_ext).with_output_gate(og_fail));
        let (peers, share) = if i == 0 { (1..=n, n) } else { (0..=0, 1) };
        for j in peers {
            let cj = ctn[j];
            let og = m.add_output_gate(format!("p{}_to_p{}", i + 1, j + 1), move |mk| {
                mk.set_tokens(cj, 1)
            });
            msg = msg.with_case(
                Case::with_probability((1.0 - p_ext) / share as f64).with_output_gate(og),
            );
        }
        m.add_activity(msg)?;
    }

    Ok(Rmnd {
        model: m,
        places: RmndPlaces { ctn, failure },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use san::{Analyzer, RewardSpec, StateSpace};

    fn baseline() -> GsuParams {
        GsuParams::paper_baseline()
    }

    #[test]
    fn state_space_is_tiny() {
        let rmnd = build(&baseline(), 1e-4).unwrap();
        let ss = StateSpace::generate(&rmnd.model, &Default::default()).unwrap();
        // (clean,clean), (dirty,clean), (clean,dirty), (dirty,dirty), failure.
        assert_eq!(ss.n_states(), 5);
    }

    #[test]
    fn failure_is_absorbing() {
        let rmnd = build(&baseline(), 1e-4).unwrap();
        let ss = StateSpace::generate(&rmnd.model, &Default::default()).unwrap();
        let failure = rmnd.places.failure;
        let fail_states = ss.states_where(|mk| mk.tokens(failure) == 1);
        assert_eq!(fail_states.len(), 1);
        assert_eq!(ss.ctmc().exit_rate(fail_states[0]), 0.0);
    }

    #[test]
    fn survival_close_to_exponential_bound() {
        // With λ·p_ext ≫ µ, failure follows the first fault almost
        // immediately, so P[no failure by t] ≈ exp(−(µ1+µ2)·t); with
        // µ2 ≈ 0 this is exp(−µ1·t).
        let p = baseline();
        let rmnd = build(&p, p.mu_new).unwrap();
        let an = Analyzer::generate(&rmnd.model, &Default::default()).unwrap();
        let failure = rmnd.places.failure;
        let surv = an
            .probability_at(p.theta, move |mk| mk.tokens(failure) == 0)
            .unwrap();
        let bound = (-p.mu_new * p.theta).exp();
        assert!(
            surv <= bound + 1e-9,
            "survival {surv} must not exceed {bound}"
        );
        // The lag between manifestation and the failing external message is
        // ~1/(λ·p_ext) = 1/120 h, so the two probabilities are close.
        assert!((surv - bound).abs() < 0.01, "{surv} vs {bound}");
    }

    #[test]
    fn old_version_survival_is_nearly_one() {
        let p = baseline();
        let rmnd = build(&p, p.mu_old).unwrap();
        let an = Analyzer::generate(&rmnd.model, &Default::default()).unwrap();
        let failure = rmnd.places.failure;
        let surv = an
            .probability_at(p.theta, move |mk| mk.tokens(failure) == 0)
            .unwrap();
        assert!(surv > 0.999);
    }

    #[test]
    fn survival_decreases_with_horizon() {
        let p = baseline();
        let rmnd = build(&p, p.mu_new).unwrap();
        let an = Analyzer::generate(&rmnd.model, &Default::default()).unwrap();
        let failure = rmnd.places.failure;
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(failure) == 0, 1.0);
        let mut last = 1.0;
        for &t in &[100.0, 1000.0, 5000.0, 10_000.0] {
            let s = an.instant_reward(&spec, t).unwrap();
            assert!(s < last);
            last = s;
        }
    }
}
