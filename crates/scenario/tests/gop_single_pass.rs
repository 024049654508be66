//! The G-OP measures take π(φ) and L(φ) from one uniformization pass per
//! chain (`markov::transient::distribution_and_occupancy`). These tests pin
//! that the shared pass changes no bit of the answer and halves its sparse
//! work on catalog scenarios whose G-OP solves run on uniformization.
//!
//! The work counters are process-global, so every test in this binary
//! holds [`SERIAL`] while it counts.

use std::path::Path;
use std::sync::Mutex;

use gsu_scenario::model::build_gd;
use gsu_scenario::{load_dir, ScenarioAnalysis, ScenarioSpec};
use markov::transient;
use performability::gsu::{gop_measures, GopMeasures, GopPlaces};
use san::{Analyzer, RewardSpec};

static SERIAL: Mutex<()> = Mutex::new(());

fn scenario(name: &str) -> ScenarioSpec {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"));
    load_dir(dir)
        .expect("catalog parses")
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("catalog has no scenario {name}"))
}

fn spmv_ops() -> u64 {
    telemetry::work::snapshot().spmv_ops
}

/// The G-OP measures from separate distribution and occupancy solves: one
/// pass each for π(φ) and L(φ) on the G-OP chain, and one each for the
/// stopped chain of the exact truncated moment.
fn unfused_gop_measures(an: &Analyzer, places: GopPlaces, phi: f64) -> GopMeasures {
    let space = an.state_space();
    let pi = an.distribution_at(phi).unwrap();
    let spec = RewardSpec::new()
        .rate_when(move |mk| places.in_a2(mk), 1.0)
        .rate_when(move |mk| places.in_a4(mk), -1.0);
    let detected = space.states_where(|mk| !places.in_a2(mk));
    let is_target = |s: usize| detected.contains(&s);
    let stopped = markov::Ctmc::from_transitions(
        space.n_states(),
        space
            .ctmc()
            .transitions()
            .filter(|&(from, _, _)| !is_target(from)),
    )
    .unwrap();
    let pi0 = space.initial_distribution();
    let opts = transient::Options::default();
    let pi_h = transient::distribution(&stopped, pi0, phi, &opts).unwrap();
    let l_h = transient::occupancy(&stopped, pi0, phi, &opts).unwrap();
    let on_target = |v: &[f64]| -> f64 {
        v.iter()
            .enumerate()
            .filter(|&(s, _)| is_target(s))
            .map(|(_, x)| x)
            .sum()
    };
    GopMeasures {
        p_a1: space.probability_of(&pi, |mk| places.in_a1(mk)),
        i_h: space.probability_of(&pi, |mk| places.in_a3(mk)),
        i_hf: space.probability_of(&pi, |mk| places.detected_then_failed(mk)),
        i_tau_h: an.accumulated_reward(&spec, phi).unwrap(),
        i_tau_h_exact: phi * on_target(&pi_h) - on_target(&l_h),
    }
}

fn bits(m: &GopMeasures) -> [u64; 5] {
    [
        m.p_a1.to_bits(),
        m.i_h.to_bits(),
        m.i_hf.to_bits(),
        m.i_tau_h.to_bits(),
        m.i_tau_h_exact.to_bits(),
    ]
}

#[test]
fn shared_pass_gop_measures_are_bitwise_the_unfused_reference() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = scenario("two-escorts");
    let places = build_gd(&spec).unwrap().places.gop;
    let grid = spec.phi_grid.clone();
    let analysis = ScenarioAnalysis::new(spec).unwrap();
    let an = analysis.analysis().gd_analyzer();
    for phi in grid.into_iter().filter(|&phi| phi > 0.0) {
        let before = spmv_ops();
        let fused = gop_measures(an, places, phi).unwrap();
        let fused_spmv = spmv_ops() - before;
        let before = spmv_ops();
        let reference = unfused_gop_measures(an, places, phi);
        let reference_spmv = spmv_ops() - before;
        assert_eq!(bits(&fused), bits(&reference), "phi = {phi}");
        // Both chains run on uniformization here, so sharing the power
        // sequence halves the sparse products exactly.
        assert!(fused_spmv > 0, "phi = {phi}: no uniformization ran");
        assert_eq!(2 * fused_spmv, reference_spmv, "phi = {phi}");
    }
}

#[test]
fn three_escorts_curve_costs_one_pass_per_chain_and_phi() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let analysis = ScenarioAnalysis::new(scenario("three-escorts")).unwrap();
    let before = telemetry::work::snapshot();
    analysis.curve().unwrap();
    let work = telemetry::work::snapshot().delta_since(&before);
    // Two separate passes per chain and φ cost 108,200.
    assert_eq!(work.spmv_ops, 54_100);
}
