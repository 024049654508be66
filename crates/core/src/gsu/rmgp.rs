//! `RMGp` — the guarded-operation performance-overhead SAN reward model
//! (paper Figure 7).
//!
//! This model computes the steady-state forward-progress fractions `ρ1`
//! (of the active new version `P1new`) and `ρ2` (of `P2`) under the MDCD
//! protocol. Failure behaviour is deliberately omitted and the ideal
//! execution-environment assumptions preserved (paper §5.1): the
//! message-passing events that drive checkpointing and AT are orders of
//! magnitude more frequent than fault manifestations, so the overhead
//! process reaches steady state long before any dependability event
//! (paper §3.3) — which is what licenses treating `ρ_{t,i}` as the
//! steady-state quantities `ρ_i`.
//!
//! The MDCD rules represented:
//!
//! * `P1new` is always potentially contaminated ⇒ each of its **external**
//!   messages undergoes an AT (duration `1/α`) that blocks `P1new`
//!   (place `P1nExt`);
//! * `P2` establishes a checkpoint (duration `1/β`, place `P1nInt`) when it
//!   receives a message from `P1new` while its dirty bit is clear — the
//!   receipt makes its clean state potentially contaminated; otherwise the
//!   checkpoint is skipped (`P2SkipCKPT` in the paper — here the skip is the
//!   absence of a state change);
//! * `P2`'s **external** messages undergo an AT (place `P2Ext`) only while
//!   its dirty bit is set; a passed AT clears the dirty bit;
//! * the shadow `P1old` checkpoints when it receives a message from a dirty
//!   `P2` while its own dirty bit is clear (place `P2Int`) — this costs
//!   `P1old` time but does not reduce mission worth, since `P1old` is not
//!   servicing the mission.
//!
//! The reward structures are exactly the paper's Table 2 predicate-rate
//! pairs (see [`one_minus_rho1_spec`] and [`one_minus_rho2_spec`]).

use san::{Activity, Case, Marking, PlaceId, RewardSpec, SanModel};

use crate::GsuParams;

/// The places of the overhead model.
#[derive(Debug, Clone, Copy)]
pub struct RmgpPlaces {
    /// `P1new` ready to make forward progress.
    pub p1n_ready: PlaceId,
    /// `P1new` blocked on an AT of its own external message.
    pub p1n_ext: PlaceId,
    /// `P2` blocked establishing a checkpoint for a `P1new` internal message.
    pub p1n_int: PlaceId,
    /// `P2` ready to make forward progress.
    pub p2_ready: PlaceId,
    /// `P2` blocked on an AT of its own external message.
    pub p2_ext: PlaceId,
    /// `P1old` blocked establishing a checkpoint for a `P2` internal message.
    pub p2_int: PlaceId,
    /// `P1old` ready.
    pub p1o_ready: PlaceId,
    /// `P2`'s dirty bit (`P2DB` in the paper).
    pub p2_db: PlaceId,
    /// `P1old`'s dirty bit (`P1oDB` in the paper).
    pub p1o_db: PlaceId,
}

/// A built overhead model plus its place handles.
#[derive(Debug)]
pub struct Rmgp {
    /// The SAN.
    pub model: SanModel,
    /// Handles to the places, for reward predicates.
    pub places: RmgpPlaces,
}

/// Builds `RMGp` for the given parameters.
pub fn build(params: &GsuParams) -> san::Result<Rmgp> {
    let lambda = params.lambda;
    let p_ext = params.p_ext;
    let alpha = params.alpha;
    let beta = params.beta;

    let mut m = SanModel::new("RMGp");
    let p1n_ready = m.add_place("P1nReady", 1);
    let p1n_ext = m.add_place("P1nExt", 0);
    let p1n_int = m.add_place("P1nInt", 0);
    let p2_ready = m.add_place("P2Ready", 1);
    let p2_ext = m.add_place("P2Ext", 0);
    let p2_int = m.add_place("P2Int", 0);
    let p1o_ready = m.add_place("P1oReady", 1);
    let p2_db = m.add_place("P2DB", 0);
    let p1o_db = m.add_place("P1oDB", 0);

    // --- P1new's message cycle ---------------------------------------------
    // External message (prob p_ext): P1new blocks on its AT.
    // Internal message (prob 1−p_ext): if P2 is ready and clean, P2 blocks
    // on a checkpoint; a busy or already-dirty P2 skips checkpointing.
    let og_start_p2_ckpt = m.add_output_gate("p2_ckpt_or_skip", move |mk| {
        if mk.tokens(p2_ready) == 1 && mk.tokens(p2_db) == 0 {
            mk.set_tokens(p2_ready, 0);
            mk.set_tokens(p1n_int, 1);
        }
    });
    m.add_activity(
        Activity::timed("P1nMsg", lambda)
            .with_input_arc(p1n_ready, 1)
            .with_case(Case::with_probability(p_ext).with_output_arc(p1n_ext, 1))
            .with_case(
                Case::with_probability(1.0 - p_ext)
                    .with_output_arc(p1n_ready, 1)
                    .with_output_gate(og_start_p2_ckpt),
            ),
    )?;
    m.add_activity(
        Activity::timed("P1nAT", alpha)
            .with_input_arc(p1n_ext, 1)
            .with_output_arc(p1n_ready, 1),
    )?;
    // Checkpoint completion: P2 resumes, now considered potentially
    // contaminated.
    let og_p2_dirty = m.add_output_gate("set_p2_db", move |mk| mk.set_tokens(p2_db, 1));
    m.add_activity(
        Activity::timed("P2_CKPT", beta)
            .with_input_arc(p1n_int, 1)
            .with_output_arc(p2_ready, 1)
            .with_output_gate(og_p2_dirty),
    )?;

    // --- P2's message cycle -------------------------------------------------
    // External message: AT only while dirty (P2SkipAT otherwise).
    // Internal message: may trigger P1old's checkpoint when P2 is dirty and
    // P1old clean.
    let og_p2_ext = m.add_output_gate("p2_ext_or_skip", move |mk| {
        if mk.tokens(p2_db) == 1 {
            mk.set_tokens(p2_ready, 0);
            mk.set_tokens(p2_ext, 1);
        }
    });
    let og_p1o_ckpt = m.add_output_gate("p1o_ckpt_or_skip", move |mk| {
        if mk.tokens(p2_db) == 1 && mk.tokens(p1o_db) == 0 && mk.tokens(p1o_ready) == 1 {
            mk.set_tokens(p1o_ready, 0);
            mk.set_tokens(p2_int, 1);
        }
    });
    m.add_activity(
        Activity::timed("P2Msg", lambda)
            .with_enabling(move |mk| mk.tokens(p2_ready) == 1)
            .with_case(Case::with_probability(p_ext).with_output_gate(og_p2_ext))
            .with_case(Case::with_probability(1.0 - p_ext).with_output_gate(og_p1o_ckpt)),
    )?;
    // A passed AT restores confidence in P2.
    let og_p2_clean = m.add_output_gate("clear_p2_db", move |mk| mk.set_tokens(p2_db, 0));
    m.add_activity(
        Activity::timed("P2AT", alpha)
            .with_input_arc(p2_ext, 1)
            .with_output_arc(p2_ready, 1)
            .with_output_gate(og_p2_clean),
    )?;
    let og_p1o_dirty = m.add_output_gate("set_p1o_db", move |mk| mk.set_tokens(p1o_db, 1));
    m.add_activity(
        Activity::timed("P1o_CKPT", beta)
            .with_input_arc(p2_int, 1)
            .with_output_arc(p1o_ready, 1)
            .with_output_gate(og_p1o_dirty),
    )?;

    Ok(Rmgp {
        model: m,
        places: RmgpPlaces {
            p1n_ready,
            p1n_ext,
            p1n_int,
            p2_ready,
            p2_ext,
            p2_int,
            p1o_ready,
            p2_db,
            p1o_db,
        },
    })
}

/// The paper's Table 2 reward structure for `1 − ρ1`:
/// predicate `MARK(P1nExt) == 1`, rate 1.
pub fn one_minus_rho1_spec(places: &RmgpPlaces) -> RewardSpec {
    let p1n_ext = places.p1n_ext;
    RewardSpec::new().rate_when(move |mk: &Marking| mk.tokens(p1n_ext) == 1, 1.0)
}

/// The paper's Table 2 reward structure for `1 − ρ2`: predicate
/// `(MARK(P1nInt)==1 && MARK(P2DB)==0) || (MARK(P2Ext)==1 && MARK(P2DB)==1)`,
/// rate 1.
pub fn one_minus_rho2_spec(places: &RmgpPlaces) -> RewardSpec {
    let p1n_int = places.p1n_int;
    let p2_ext = places.p2_ext;
    let p2_db = places.p2_db;
    RewardSpec::new().rate_when(
        move |mk: &Marking| {
            (mk.tokens(p1n_int) == 1 && mk.tokens(p2_db) == 0)
                || (mk.tokens(p2_ext) == 1 && mk.tokens(p2_db) == 1)
        },
        1.0,
    )
}

/// Solves the steady-state overhead measures, returning `(ρ1, ρ2)`. Both
/// reward measures are read from a single cached stationary solve.
///
/// # Errors
///
/// Propagates SAN generation and steady-state solver failures.
pub fn solve_rho(params: &GsuParams) -> san::Result<(f64, f64)> {
    let rmgp = build(params)?;
    let analyzer = san::Analyzer::generate(&rmgp.model, &Default::default())?;
    let overhead1 = analyzer.steady_reward(&one_minus_rho1_spec(&rmgp.places))?;
    let overhead2 = analyzer.steady_reward(&one_minus_rho2_spec(&rmgp.places))?;
    Ok((1.0 - overhead1, 1.0 - overhead2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use san::StateSpace;

    fn baseline() -> GsuParams {
        GsuParams::paper_baseline()
    }

    #[test]
    fn state_space_is_a_small_unichain() {
        // The chain is a unichain, not irreducible: the initial clean-dirty-
        // bit states are transient (P1oDB is set once and never cleared).
        let rmgp = build(&baseline()).unwrap();
        let ss = StateSpace::generate(&rmgp.model, &Default::default()).unwrap();
        assert!(ss.n_states() <= 40, "got {}", ss.n_states());
        let pi = markov::steady::steady_state(ss.ctmc()).unwrap();
        assert!(sparsela::vector::is_stochastic(&pi, 1e-9));
    }

    #[test]
    fn rho_values_match_paper_ballpark_at_baseline() {
        // Paper (§6, Fig. 9/10 captions): α=β=6000 yields ρ1=0.98, ρ2=0.95.
        let (rho1, rho2) = solve_rho(&baseline()).unwrap();
        assert!((rho1 - 0.98).abs() < 0.005, "rho1 = {rho1}");
        assert!((rho2 - 0.95).abs() < 0.02, "rho2 = {rho2}");
    }

    #[test]
    fn rho_drops_with_slower_safeguards() {
        // Paper: α=β=2500 yields ρ1=0.95, ρ2=0.90.
        let p = baseline().with_overhead_rates(2500.0, 2500.0).unwrap();
        let (rho1, rho2) = solve_rho(&p).unwrap();
        assert!((rho1 - 0.95).abs() < 0.01, "rho1 = {rho1}");
        assert!((rho2 - 0.90).abs() < 0.04, "rho2 = {rho2}");
        let (b1, b2) = solve_rho(&baseline()).unwrap();
        assert!(rho1 < b1);
        assert!(rho2 < b2);
    }

    #[test]
    fn rho1_closed_form_cycle() {
        // P1new alternates: send (mean 1/λ), then with prob p_ext an AT of
        // mean 1/α. Renewal-reward: 1−ρ1 = (p_ext/α)/(1/λ + p_ext/α).
        let p = baseline();
        let (rho1, _) = solve_rho(&p).unwrap();
        let want = 1.0 - (p.p_ext / p.alpha) / (1.0 / p.lambda + p.p_ext / p.alpha);
        assert!((rho1 - want).abs() < 1e-9, "{rho1} vs {want}");
    }

    #[test]
    fn instant_safeguards_mean_no_overhead() {
        let p = baseline().with_overhead_rates(1e9, 1e9).unwrap();
        let (rho1, rho2) = solve_rho(&p).unwrap();
        assert!(rho1 > 0.999_99);
        assert!(rho2 > 0.999_99);
    }

    #[test]
    fn overheads_are_probabilities() {
        for (a, b) in [(6000.0, 6000.0), (2500.0, 2500.0), (1000.0, 9000.0)] {
            let p = baseline().with_overhead_rates(a, b).unwrap();
            let (rho1, rho2) = solve_rho(&p).unwrap();
            assert!((0.0..=1.0).contains(&rho1));
            assert!((0.0..=1.0).contains(&rho2));
        }
    }
}
