//! Lowering scenarios to SAN reward models.
//!
//! Each [`ScenarioSpec`] compiles to generalized versions of the paper's
//! three models, built to **reduce exactly** to `rmgd`/`rmgp`/`rmnd` when
//! the scenario is paper-shaped (one escort, exponential safeguards, no
//! waves / decay / aging) — the reduction tests below assert this:
//!
//! * [`build_gd`] — the guarded-operation dependability model with `n`
//!   escorted processes in a *star* topology (escorts exchange messages
//!   with the upgraded pair only, not with each other), optional upgrade
//!   waves lowering µ_new, marking-dependent AT coverage, and escort
//!   aging/rejuvenation;
//! * [`build_np`] — the normal-mode model over `n + 1` processes (same
//!   star topology; aging is not carried into normal-mode models, which
//!   start from a clean state at the mode switch, as in the paper);
//! * [`build_gp`] — the MDCD overhead model with acceptance-test and
//!   checkpoint durations expanded through their
//!   [`markov::phase_type::PhaseType`] representations. The overhead is
//!   modelled on the single representative escorted pair; with `n > 1`
//!   each escort pays the same per-pair overhead `ρ2`.

use performability::gsu::rmgp::{self, Rmgp, RmgpPlaces};
use performability::gsu::GopPlaces;
use performability::Result;
use san::{Activity, Case, Marking, PlaceId, SanModel};

use crate::ast::{Dist, ScenarioSpec};

/// The places of the generalized guarded-operation dependability model.
#[derive(Debug, Clone)]
pub struct GdPlaces {
    /// Actual contamination of the upgraded component `P1new`.
    pub p1n_ctn: PlaceId,
    /// Actual contamination of the shadow old version `P1old`.
    pub p1o_ctn: PlaceId,
    /// Actual contamination of each escorted process.
    pub escort_ctn: Vec<PlaceId>,
    /// Perceived potential contamination (dirty bit) of each escort.
    pub escort_dirty: Vec<PlaceId>,
    /// Aged flag per escort (empty unless the scenario models aging).
    pub aged: Vec<PlaceId>,
    /// Completed upgrade waves (present only with a wave spec).
    pub wave: Option<PlaceId>,
    /// The `detected`/`failure` pair that classifies every state into the
    /// `A'` sets — the same classification as the paper's `RMGd`.
    pub gop: GopPlaces,
}

/// A built generalized dependability model plus its place handles.
#[derive(Debug)]
pub struct Gd {
    /// The SAN.
    pub model: SanModel,
    /// Handles to the places, for reward predicates.
    pub places: GdPlaces,
}

/// Builds the generalized guarded-operation dependability model.
///
/// # Errors
///
/// Propagates SAN construction failures.
pub fn build_gd(spec: &ScenarioSpec) -> Result<Gd> {
    let n = spec.escorts;
    let p = &spec.params;
    let lambda = p.lambda;
    let p_ext = p.p_ext;
    let c = p.coverage;
    let decay = spec.coverage_decay;
    let mu_new = p.mu_new;
    let mu_old = p.mu_old;

    let mut m = SanModel::new("GMGd");
    let p1n_ctn = m.add_place("P1Nctn", 0);
    let p1o_ctn = m.add_place("P1Octn", 0);
    let escort_ctn: Vec<PlaceId> = (0..n).map(|i| m.add_place(format!("E{i}ctn"), 0)).collect();
    let escort_dirty: Vec<PlaceId> = (0..n).map(|i| m.add_place(format!("E{i}db"), 0)).collect();
    let aged: Vec<PlaceId> = if spec.aging.is_some() {
        (0..n)
            .map(|i| m.add_place(format!("E{i}aged"), 0))
            .collect()
    } else {
        Vec::new()
    };
    let wave = spec.waves.as_ref().map(|_| m.add_place("wave", 0));
    let detected = m.add_place("detected", 0);
    let failure = m.add_place("failure", 0);

    let live = move |mk: &Marking| mk.tokens(failure) == 0;
    let gop = move |mk: &Marking| mk.tokens(failure) == 0 && mk.tokens(detected) == 0;
    let recovered = move |mk: &Marking| mk.tokens(failure) == 0 && mk.tokens(detected) == 1;

    // Marking-dependent AT coverage: each contaminated process *beyond the
    // sender* makes the acceptance test less likely to catch the error
    // (error symptoms spread over several states confound the check). With
    // `decay = 0` this is the constant `c` of the paper, since the sender
    // itself is always contaminated when a detection case is weighed.
    let ctn_all: Vec<PlaceId> = [p1n_ctn, p1o_ctn]
        .into_iter()
        .chain(escort_ctn.iter().copied())
        .collect();
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

    // --- Canonicalizing output gates ---------------------------------------
    // As in `rmgd`: failure and detection collapse the now-irrelevant
    // contamination / dirty / wave markings into a single state. The aged
    // flags are physical escort state and survive *detection* (normal mode
    // continues to run the escorts), but are cleared at the absorbing
    // failure states.
    let og_fail = {
        let ctn_all = ctn_all.clone();
        let dirty = escort_dirty.clone();
        let aged = aged.clone();
        m.add_output_gate("fail", move |mk| {
            mk.set_tokens(failure, 1);
            for &pl in ctn_all.iter().chain(&dirty).chain(&aged) {
                mk.set_tokens(pl, 0);
            }
            if let Some(w) = wave {
                mk.set_tokens(w, 0);
            }
        })
    };
    let og_detect = {
        let ctn_all = ctn_all.clone();
        let dirty = escort_dirty.clone();
        m.add_output_gate("detected", move |mk| {
            mk.set_tokens(detected, 1);
            for &pl in ctn_all.iter().chain(&dirty) {
                mk.set_tokens(pl, 0);
            }
            if let Some(w) = wave {
                mk.set_tokens(w, 0);
            }
        })
    };
    // A clean external message of P1new passes its AT: confidence in the
    // whole P1new message lineage is restored, every escort dirty bit
    // resets (`P1Nok_ext` generalized).
    let og_p1n_pass = {
        let dirty = escort_dirty.clone();
        m.add_output_gate("p1n_ok_ext", move |mk| {
            for &d in &dirty {
                mk.set_tokens(d, 0);
            }
        })
    };

    // --- Fault manifestations ----------------------------------------------
    // The upgraded component: with waves, each completed wave multiplies
    // µ_new by the wave factor (floored at µ_old).
    let p1n_fm = match &spec.waves {
        Some(w) => {
            let w = w.clone();
            let Some(wave_pl) = wave else {
                unreachable!("wave place exists with a wave spec")
            };
            Activity::timed_fn("P1Nfm", move |mk| {
                w.mu_at(mk.tokens(wave_pl), mu_new, mu_old)
            })
        }
        None => Activity::timed("P1Nfm", mu_new),
    };
    m.add_activity(
        p1n_fm
            .with_enabling(move |mk| gop(mk) && mk.tokens(p1n_ctn) == 0)
            .with_output_arc(p1n_ctn, 1),
    )?;
    m.add_activity(
        Activity::timed("P1Ofm", mu_old)
            .with_enabling(move |mk| live(mk) && mk.tokens(p1o_ctn) == 0)
            .with_output_arc(p1o_ctn, 1),
    )?;
    if let Some(w) = &spec.waves {
        let Some(wave_pl) = wave else {
            unreachable!("wave place exists with a wave spec")
        };
        let last = (w.count - 1) as u32;
        m.add_activity(
            Activity::timed("WaveAdv", w.rate)
                .with_enabling(move |mk| gop(mk) && mk.tokens(wave_pl) < last)
                .with_output_arc(wave_pl, 1),
        )?;
    }
    for i in 0..n {
        let e_ctn = escort_ctn[i];
        let e_fm = match &spec.aging {
            Some(a) => {
                let aged_pl = aged[i];
                let factor = a.factor;
                Activity::timed_fn(format!("E{i}fm"), move |mk| {
                    if mk.tokens(aged_pl) == 1 {
                        mu_old * factor
                    } else {
                        mu_old
                    }
                })
            }
            None => Activity::timed(format!("E{i}fm"), mu_old),
        };
        m.add_activity(
            e_fm.with_enabling(move |mk| live(mk) && mk.tokens(e_ctn) == 0)
                .with_output_arc(e_ctn, 1),
        )?;
        if let Some(a) = &spec.aging {
            let aged_pl = aged[i];
            m.add_activity(
                Activity::timed(format!("E{i}age"), a.rate)
                    .with_enabling(move |mk| live(mk) && mk.tokens(aged_pl) == 0)
                    .with_output_arc(aged_pl, 1),
            )?;
            if let Some(r) = a.rejuvenation {
                let og = m.add_output_gate(format!("e{i}_rejuvenate"), move |mk| {
                    mk.set_tokens(aged_pl, 0)
                });
                m.add_activity(
                    Activity::timed(format!("E{i}rejuv"), r)
                        .with_enabling(move |mk| live(mk) && mk.tokens(aged_pl) == 1)
                        .with_output_gate(og),
                )?;
            }
        }
    }

    // --- P1new message sending under G-OP ----------------------------------
    // As in `rmgd`, but an internal message goes to each escort with equal
    // probability (star topology).
    let mut p1n_msg = Activity::timed("P1Nmsg", lambda)
        .with_enabling(gop)
        .with_case(
            Case::with_probability_fn({
                let ce = c_eff.clone();
                move |mk| {
                    if mk.tokens(p1n_ctn) == 1 {
                        p_ext * ce(mk)
                    } else {
                        0.0
                    }
                }
            })
            .with_output_gate(og_detect),
        )
        .with_case(
            Case::with_probability_fn({
                let ce = c_eff.clone();
                move |mk| {
                    if mk.tokens(p1n_ctn) == 1 {
                        p_ext * (1.0 - ce(mk))
                    } else {
                        0.0
                    }
                }
            })
            .with_output_gate(og_fail),
        )
        .with_case(
            Case::with_probability_fn(move |mk| if mk.tokens(p1n_ctn) == 0 { p_ext } else { 0.0 })
                .with_output_gate(og_p1n_pass),
        );
    for i in 0..n {
        let e_ctn = escort_ctn[i];
        let e_db = escort_dirty[i];
        let og = m.add_output_gate(format!("p1n_internal_{i}"), move |mk| {
            if mk.tokens(p1n_ctn) == 1 {
                mk.set_tokens(e_ctn, 1);
            }
            mk.set_tokens(e_db, 1);
        });
        p1n_msg = p1n_msg
            .with_case(Case::with_probability((1.0 - p_ext) / n as f64).with_output_gate(og));
    }
    m.add_activity(p1n_msg)?;

    // --- Escort message sending under G-OP ----------------------------------
    // Each escort follows the `P2msg` pattern of `rmgd`, including the
    // believed-clean slip-failure case; its internal messages contaminate
    // the upgraded pair.
    for i in 0..n {
        let e_ctn = escort_ctn[i];
        let e_db = escort_dirty[i];
        let og_pass = m.add_output_gate(format!("e{i}_ok_ext"), move |mk| mk.set_tokens(e_db, 0));
        let og_internal = m.add_output_gate(format!("e{i}_internal_gop"), move |mk| {
            if mk.tokens(e_ctn) == 1 {
                mk.set_tokens(p1n_ctn, 1);
                mk.set_tokens(p1o_ctn, 1);
            }
        });
        m.add_activity(
            Activity::timed(format!("E{i}msg"), lambda)
                .with_enabling(move |mk| gop(mk) && (mk.tokens(e_ctn) == 1 || mk.tokens(e_db) == 1))
                .with_case(
                    Case::with_probability_fn({
                        let ce = c_eff.clone();
                        move |mk| {
                            if mk.tokens(e_db) == 1 && mk.tokens(e_ctn) == 1 {
                                p_ext * ce(mk)
                            } else {
                                0.0
                            }
                        }
                    })
                    .with_output_gate(og_detect),
                )
                .with_case(
                    Case::with_probability_fn({
                        let ce = c_eff.clone();
                        move |mk| {
                            if mk.tokens(e_db) == 1 && mk.tokens(e_ctn) == 1 {
                                p_ext * (1.0 - ce(mk))
                            } else {
                                0.0
                            }
                        }
                    })
                    .with_output_gate(og_fail),
                )
                .with_case(
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

    // --- Normal mode after recovery -----------------------------------------
    // P1old serves the mission alongside the escorts; no safeguards run.
    let mut p1o_msg = Activity::timed("P1Omsg", lambda)
        .with_enabling(move |mk| recovered(mk) && mk.tokens(p1o_ctn) == 1)
        .with_case(Case::with_probability(p_ext).with_output_gate(og_fail));
    for (i, &e_ctn) in escort_ctn.iter().enumerate() {
        let og = m.add_output_gate(format!("p1o_internal_norm_{i}"), move |mk| {
            mk.set_tokens(e_ctn, 1)
        });
        p1o_msg = p1o_msg
            .with_case(Case::with_probability((1.0 - p_ext) / n as f64).with_output_gate(og));
    }
    m.add_activity(p1o_msg)?;
    let og_e_norm = m.add_output_gate("e_internal_norm", move |mk| mk.set_tokens(p1o_ctn, 1));
    for (i, &e_ctn) in escort_ctn.iter().enumerate() {
        m.add_activity(
            Activity::timed(format!("E{i}msgN"), lambda)
                .with_enabling(move |mk| recovered(mk) && mk.tokens(e_ctn) == 1)
                .with_case(Case::with_probability(p_ext).with_output_gate(og_fail))
                .with_case(Case::with_probability(1.0 - p_ext).with_output_gate(og_e_norm)),
        )?;
    }

    Ok(Gd {
        model: m,
        places: GdPlaces {
            p1n_ctn,
            p1o_ctn,
            escort_ctn,
            escort_dirty,
            aged,
            wave,
            gop: GopPlaces { detected, failure },
        },
    })
}

/// The places of the generalized normal-mode model.
#[derive(Debug, Clone)]
pub struct NpPlaces {
    /// Contamination per process; index 0 is the first (µ_first) component.
    pub ctn: Vec<PlaceId>,
    /// System failure (absorbing).
    pub failure: PlaceId,
}

/// A built generalized normal-mode model plus its place handles.
#[derive(Debug)]
pub struct Np {
    /// The SAN.
    pub model: SanModel,
    /// Handles to the places, for reward predicates.
    pub places: NpPlaces,
}

/// Builds the generalized normal-mode model over `escorts + 1` processes:
/// the first component manifests faults at `mu_first`, every escort at
/// µ_old; contaminated internal messages spread along the star topology
/// and contaminated external messages fail the system (no safeguards).
///
/// # Errors
///
/// Propagates SAN construction failures.
pub fn build_np(spec: &ScenarioSpec, mu_first: f64) -> Result<Np> {
    let n = spec.escorts;
    let p = &spec.params;
    let lambda = p.lambda;
    let p_ext = p.p_ext;
    let mu_old = p.mu_old;

    let mut m = SanModel::new("GMNd");
    let ctn: Vec<PlaceId> = (0..=n)
        .map(|i| m.add_place(format!("P{i}ctn"), 0))
        .collect();
    let failure = m.add_place("failure", 0);
    let live = move |mk: &Marking| mk.tokens(failure) == 0;

    let og_fail = {
        let ctn = ctn.clone();
        m.add_output_gate("fail", move |mk| {
            mk.set_tokens(failure, 1);
            for &pl in &ctn {
                mk.set_tokens(pl, 0);
            }
        })
    };

    for i in 0..=n {
        let ci = ctn[i];
        let rate = if i == 0 { mu_first } else { mu_old };
        m.add_activity(
            Activity::timed(format!("P{i}fm"), rate)
                .with_enabling(move |mk| live(mk) && mk.tokens(ci) == 0)
                .with_output_arc(ci, 1),
        )?;
        let mut msg = Activity::timed(format!("P{i}msg"), lambda)
            .with_enabling(move |mk| live(mk) && mk.tokens(ci) == 1)
            .with_case(Case::with_probability(p_ext).with_output_gate(og_fail));
        if i == 0 {
            for (j, &cj) in ctn.iter().enumerate().skip(1) {
                let og = m.add_output_gate(format!("p0_to_p{j}"), move |mk| mk.set_tokens(cj, 1));
                msg = msg.with_case(
                    Case::with_probability((1.0 - p_ext) / n as f64).with_output_gate(og),
                );
            }
        } else {
            let c0 = ctn[0];
            let og = m.add_output_gate(format!("p{i}_to_p0"), move |mk| mk.set_tokens(c0, 1));
            msg = msg.with_case(Case::with_probability(1.0 - p_ext).with_output_gate(og));
        }
        m.add_activity(msg)?;
    }

    Ok(Np {
        model: m,
        places: NpPlaces { ctn, failure },
    })
}

/// Adds a safeguard activity with a general phase-type duration.
///
/// The activity waits for one token in `trigger`; completion consumes the
/// token and applies `on_complete`. An exponential duration stays a single
/// timed activity (so exponential scenarios reduce to `rmgp` exactly); any
/// other law expands into its phase-type representation: an instantaneous
/// dispatch picks the initial phase, timed hops walk the sub-generator, and
/// the exit rates complete the safeguard. The trigger token remains in
/// place throughout the phases, so the Table 2 overhead predicates keep
/// counting the blocked time without modification.
fn add_safeguard(
    m: &mut SanModel,
    name: &str,
    dist: &Dist,
    trigger: PlaceId,
    on_complete: impl Fn(&mut Marking) + Send + Sync + Clone + 'static,
) -> Result<()> {
    if let Dist::Exp { rate } = dist {
        let og = m.add_output_gate(format!("{name}_done"), on_complete);
        m.add_activity(
            Activity::timed(name, *rate)
                .with_input_arc(trigger, 1)
                .with_output_gate(og),
        )?;
        return Ok(());
    }
    let ph = dist.to_phase_type()?;
    let k = ph.n_phases();
    let stage = m.add_place(format!("{name}_stage"), 0);
    let mut dispatch = Activity::instantaneous(format!("{name}_dispatch"))
        .with_enabling(move |mk| mk.tokens(trigger) == 1 && mk.tokens(stage) == 0);
    for (i, &a) in ph.initial().iter().enumerate() {
        if a <= 0.0 {
            continue;
        }
        let og = m.add_output_gate(format!("{name}_enter{i}"), move |mk| {
            mk.set_tokens(stage, i as u32 + 1)
        });
        dispatch = dispatch.with_case(Case::with_probability(a).with_output_gate(og));
    }
    m.add_activity(dispatch)?;
    for i in 0..k {
        let exit = ph.exit_rates()[i];
        if exit > 0.0 {
            let done = on_complete.clone();
            let og = m.add_output_gate(format!("{name}_done{i}"), move |mk| {
                mk.set_tokens(stage, 0);
                done(mk);
            });
            m.add_activity(
                Activity::timed(format!("{name}_exit{i}"), exit)
                    .with_enabling(move |mk| mk.tokens(stage) == i as u32 + 1)
                    .with_input_arc(trigger, 1)
                    .with_output_gate(og),
            )?;
        }
        for j in 0..k {
            if j == i {
                continue;
            }
            let hop = ph.sub_generator()[(i, j)];
            if hop > 0.0 {
                let og = m.add_output_gate(format!("{name}_hop{i}_{j}"), move |mk| {
                    mk.set_tokens(stage, j as u32 + 1)
                });
                m.add_activity(
                    Activity::timed(format!("{name}_hop{i}{j}"), hop)
                        .with_enabling(move |mk| mk.tokens(stage) == i as u32 + 1)
                        .with_output_gate(og),
                )?;
            }
        }
    }
    Ok(())
}

/// Builds the generalized overhead model with phase-type safeguard
/// durations. It keeps the `RMGp` place layout, so the paper's Table 2
/// reward structures ([`rmgp::one_minus_rho1_spec`],
/// [`rmgp::one_minus_rho2_spec`]) apply unchanged: the phase expansion
/// keeps each trigger token in place for the whole safeguard duration.
///
/// # Errors
///
/// Propagates phase-type compilation and SAN construction failures.
pub fn build_gp(spec: &ScenarioSpec) -> Result<Rmgp> {
    let p = &spec.params;
    let lambda = p.lambda;
    let p_ext = p.p_ext;

    let mut m = SanModel::new("GMGp");
    let p1n_ready = m.add_place("P1nReady", 1);
    let p1n_ext = m.add_place("P1nExt", 0);
    let p1n_int = m.add_place("P1nInt", 0);
    let p2_ready = m.add_place("P2Ready", 1);
    let p2_ext = m.add_place("P2Ext", 0);
    let p2_int = m.add_place("P2Int", 0);
    let p1o_ready = m.add_place("P1oReady", 1);
    let p2_db = m.add_place("P2DB", 0);
    let p1o_db = m.add_place("P1oDB", 0);

    // P1new's message cycle (as in `rmgp`).
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
    add_safeguard(&mut m, "P1nAT", &spec.at, p1n_ext, move |mk| {
        mk.set_tokens(p1n_ready, 1)
    })?;
    add_safeguard(&mut m, "P2_CKPT", &spec.ckpt, p1n_int, move |mk| {
        mk.set_tokens(p2_ready, 1);
        mk.set_tokens(p2_db, 1);
    })?;

    // P2's message cycle.
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
    add_safeguard(&mut m, "P2AT", &spec.at, p2_ext, move |mk| {
        mk.set_tokens(p2_ready, 1);
        mk.set_tokens(p2_db, 0);
    })?;
    add_safeguard(&mut m, "P1o_CKPT", &spec.ckpt, p2_int, move |mk| {
        mk.set_tokens(p1o_ready, 1);
        mk.set_tokens(p1o_db, 1);
    })?;

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

/// Solves the scenario's steady-state overhead measures `(ρ1, ρ2)` on the
/// generalized overhead model.
///
/// # Errors
///
/// Propagates model generation and steady-state solver failures.
pub fn solve_rho(spec: &ScenarioSpec) -> Result<(f64, f64)> {
    let gp = build_gp(spec)?;
    let analyzer = san::Analyzer::generate(&gp.model, &Default::default())?;
    let overhead1 = analyzer.steady_reward(&rmgp::one_minus_rho1_spec(&gp.places))?;
    let overhead2 = analyzer.steady_reward(&rmgp::one_minus_rho2_spec(&gp.places))?;
    Ok((1.0 - overhead1, 1.0 - overhead2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use performability::gsu::gop_measures;
    use performability::GsuParams;
    use san::Analyzer;

    fn paper_spec() -> ScenarioSpec {
        let params = GsuParams::paper_baseline();
        ScenarioSpec {
            name: "paper".to_string(),
            at: Dist::Exp { rate: params.alpha },
            ckpt: Dist::Exp { rate: params.beta },
            params,
            escorts: 1,
            waves: None,
            coverage_decay: 0.0,
            aging: None,
            phi_grid: vec![0.0, 5000.0, 10_000.0],
            sim_replications: 100,
            sim_seed: 7,
        }
    }

    fn scaled_spec() -> ScenarioSpec {
        // The scaled-down regime of tests/analytic_vs_simulation.rs: faults
        // are frequent enough that generalization effects show up.
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
        ScenarioSpec {
            name: "scaled".to_string(),
            at: Dist::Exp { rate: params.alpha },
            ckpt: Dist::Exp { rate: params.beta },
            params,
            escorts: 1,
            waves: None,
            coverage_decay: 0.0,
            aging: None,
            phi_grid: vec![0.0, 25.0, 50.0],
            sim_replications: 100,
            sim_seed: 7,
        }
    }

    #[test]
    fn paper_shaped_gd_reduces_to_rmgd() {
        let spec = paper_spec();
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let direct = performability::GsuAnalysis::new(spec.params).unwrap();
        for phi in [0.0, 2500.0, 7000.0] {
            let engine = gop_measures(&an, gd.places.gop, &[phi]).unwrap()[0];
            let m = direct.measures(phi).unwrap();
            assert!((engine.p_a1 - m.p_a1_gop).abs() < 1e-12, "phi = {phi}");
            assert!((engine.i_h - m.i_h).abs() < 1e-12, "phi = {phi}");
            assert!((engine.i_hf - m.i_hf).abs() < 1e-12, "phi = {phi}");
            assert!((engine.i_tau_h - m.i_tau_h).abs() < 1e-9, "phi = {phi}");
            assert!(
                (engine.i_tau_h_exact - m.i_tau_h_exact).abs() < 1e-9,
                "phi = {phi}"
            );
        }
    }

    #[test]
    fn a_sets_partition_generalized_gd_states() {
        // The RMGd partition test, on a Gd with every generalization on:
        // the `detected`/`failure` pair alone must still put each reachable
        // state in exactly one of A'1, A'3, A'4, detected-then-failed.
        let mut spec = scaled_spec();
        spec.escorts = 2;
        spec.coverage_decay = 0.2;
        spec.waves = Some(crate::ast::WaveSpec {
            count: 3,
            rate: 0.5,
            factor: 0.1,
        });
        spec.aging = Some(crate::ast::AgingSpec {
            rate: 0.5,
            factor: 4.0,
            rejuvenation: Some(2.0),
        });
        let gd = build_gd(&spec).unwrap();
        let ss = san::StateSpace::generate(&gd.model, &Default::default()).unwrap();
        let p = gd.places.gop;
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
            if p.in_a4(mk) {
                assert!(p.in_a2(mk));
            }
        }
        // Every set is reachable, and A'1 carries the escort, wave and aging
        // variety the generalizations add.
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
        assert!(seen[0] > 8, "{seen:?}");
    }

    #[test]
    fn exponential_gp_reduces_to_rmgp() {
        let spec = paper_spec();
        let (r1, r2) = solve_rho(&spec).unwrap();
        let (e1, e2) = rmgp::solve_rho(&spec.params).unwrap();
        assert!((r1 - e1).abs() < 1e-9, "{r1} vs {e1}");
        assert!((r2 - e2).abs() < 1e-9, "{r2} vs {e2}");
    }

    #[test]
    fn np_reduces_to_rmnd() {
        let spec = paper_spec();
        let p = spec.params;
        let np = build_np(&spec, p.mu_new).unwrap();
        let an = Analyzer::generate(&np.model, &Default::default()).unwrap();
        let failure = np.places.failure;
        let surv = an
            .probability_at(p.theta, move |mk| mk.tokens(failure) == 0)
            .unwrap();
        let rmnd = performability::gsu::rmnd::build(&p, p.mu_new).unwrap();
        let ran = Analyzer::generate(&rmnd.model, &Default::default()).unwrap();
        let rfailure = rmnd.places.failure;
        let rsurv = ran
            .probability_at(p.theta, move |mk| mk.tokens(rfailure) == 0)
            .unwrap();
        assert!((surv - rsurv).abs() < 1e-12, "{surv} vs {rsurv}");
    }

    #[test]
    fn rho1_is_insensitive_to_at_distribution() {
        // Renewal-reward: 1−ρ1 = (p_ext·E[AT])/(1/λ + p_ext·E[AT]) depends
        // on the AT duration only through its mean, so an Erlang AT of the
        // same mean must give the same ρ1.
        let mut spec = paper_spec();
        let (exp1, _) = solve_rho(&spec).unwrap();
        spec.at = Dist::Erlang {
            k: 4,
            rate: 4.0 * spec.params.alpha,
        };
        let (erl1, erl2) = solve_rho(&spec).unwrap();
        assert!((erl1 - exp1).abs() < 1e-7, "{erl1} vs {exp1}");
        assert!((0.0..=1.0).contains(&erl2));
    }

    #[test]
    fn hyper_and_det_safeguards_solve() {
        let mut spec = paper_spec();
        spec.at = Dist::Hyper {
            branches: vec![(0.3, 2000.0), (0.7, 12_000.0)],
        };
        spec.ckpt = Dist::Det {
            mean: 1.0 / 6000.0,
            stages: 6,
        };
        let (r1, r2) = solve_rho(&spec).unwrap();
        assert!((0.0..=1.0).contains(&r1));
        assert!((0.0..=1.0).contains(&r2));
        // Same AT mean as the baseline's exponential: ρ1 is mean-driven.
        let at_mean: f64 = 0.3 / 2000.0 + 0.7 / 12_000.0;
        let p = spec.params;
        let want = 1.0 - (p.p_ext * at_mean) / (1.0 / p.lambda + p.p_ext * at_mean);
        assert!((r1 - want).abs() < 1e-7, "{r1} vs {want}");
    }

    #[test]
    fn more_escorts_lower_survival() {
        let mut spec = scaled_spec();
        let mut last = 1.0;
        for n in [1, 2, 3] {
            spec.escorts = n;
            let gd = build_gd(&spec).unwrap();
            let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
            let phi = spec.params.theta;
            let m = gop_measures(&an, gd.places.gop, &[phi]).unwrap()[0];
            assert!(
                m.p_a1 < last + 1e-12,
                "escorts = {n}: {} should not exceed {last}",
                m.p_a1
            );
            last = m.p_a1;
        }
    }

    #[test]
    fn coverage_decay_reduces_detection() {
        let mut spec = scaled_spec();
        // Raise µ_old so that multi-process contamination has real mass.
        spec.params.mu_old = 0.01;
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let base = gop_measures(&an, gd.places.gop, &[50.0]).unwrap()[0];
        spec.coverage_decay = 0.5;
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let decayed = gop_measures(&an, gd.places.gop, &[50.0]).unwrap()[0];
        assert!(
            decayed.i_h < base.i_h,
            "decay should reduce detection: {} vs {}",
            decayed.i_h,
            base.i_h
        );
    }

    #[test]
    fn upgrade_waves_improve_survival() {
        let mut spec = scaled_spec();
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let base = gop_measures(&an, gd.places.gop, &[50.0]).unwrap()[0];
        spec.waves = Some(crate::ast::WaveSpec {
            count: 3,
            rate: 0.5,
            factor: 0.1,
        });
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let waved = gop_measures(&an, gd.places.gop, &[50.0]).unwrap()[0];
        assert!(
            waved.p_a1 > base.p_a1,
            "waves should improve survival: {} vs {}",
            waved.p_a1,
            base.p_a1
        );
    }

    #[test]
    fn aging_hurts_and_rejuvenation_helps() {
        let mut spec = scaled_spec();
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let base = gop_measures(&an, gd.places.gop, &[50.0]).unwrap()[0];
        spec.aging = Some(crate::ast::AgingSpec {
            rate: 0.5,
            factor: 200.0,
            rejuvenation: None,
        });
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let aged = gop_measures(&an, gd.places.gop, &[50.0]).unwrap()[0];
        assert!(aged.p_a1 < base.p_a1, "{} vs {}", aged.p_a1, base.p_a1);
        spec.aging = Some(crate::ast::AgingSpec {
            rate: 0.5,
            factor: 200.0,
            rejuvenation: Some(5.0),
        });
        let gd = build_gd(&spec).unwrap();
        let an = Analyzer::generate(&gd.model, &Default::default()).unwrap();
        let rejuv = gop_measures(&an, gd.places.gop, &[50.0]).unwrap()[0];
        assert!(
            rejuv.p_a1 > aged.p_a1,
            "rejuvenation should help: {} vs {}",
            rejuv.p_a1,
            aged.p_a1
        );
    }
}
