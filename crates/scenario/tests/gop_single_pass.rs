//! A G-OP curve costs one uniformization pass on the G-OP chain: every φ of
//! the grid is a horizon of one power sequence
//! (`markov::transient::distribution_and_occupancy_at_times`), and the exact
//! detection moment is read off the same π(φ)/L(φ) through the closed
//! detected set. These tests pin the one-point solve bitwise against the
//! separate calls, the closed-set identity against the stopped-chain
//! first-passage reference, and the sparse work of a whole curve.
//!
//! The work counters are process-global, so every test in this binary
//! holds [`SERIAL`] while it counts.

use std::path::Path;
use std::sync::Mutex;

use gsu_scenario::model::build_gd;
use gsu_scenario::{load_dir, ScenarioAnalysis, ScenarioSpec};
use markov::first_passage::truncated_mean_hitting_time;
use markov::transient;
use performability::gsu::{gop_measures, rmgd, GopMeasures, GopPlaces};
use performability::GsuParams;
use san::{Analyzer, RewardSpec};

static SERIAL: Mutex<()> = Mutex::new(());

fn catalog() -> Vec<ScenarioSpec> {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"));
    load_dir(dir).expect("catalog parses")
}

fn scenario(name: &str) -> ScenarioSpec {
    catalog()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("catalog has no scenario {name}"))
}

fn spmv_ops() -> u64 {
    telemetry::work::snapshot().spmv_ops
}

/// The four G-OP measures read off π(φ) and L(φ) from separate
/// distribution and occupancy solves: one pass each on the G-OP chain.
fn unfused_gop_measures(an: &Analyzer, places: GopPlaces, phi: f64) -> [f64; 4] {
    let space = an.state_space();
    let pi = an.distribution_at(phi).unwrap();
    let spec = RewardSpec::new()
        .rate_when(move |mk| places.in_a2(mk), 1.0)
        .rate_when(move |mk| places.in_a4(mk), -1.0);
    [
        space.probability_of(&pi, |mk| places.in_a1(mk)),
        space.probability_of(&pi, |mk| places.in_a3(mk)),
        space.probability_of(&pi, |mk| places.detected_then_failed(mk)),
        an.accumulated_reward(&spec, phi).unwrap(),
    ]
}

/// The exact truncated detection moment by first passage on the chain
/// stopped at the detected states.
fn stopped_chain_moment(an: &Analyzer, places: GopPlaces, phi: f64) -> f64 {
    let space = an.state_space();
    let detected = space.states_where(|mk| !places.in_a2(mk));
    truncated_mean_hitting_time(
        space.ctmc(),
        space.initial_distribution(),
        &detected,
        phi,
        &transient::Options::default(),
    )
    .unwrap()
}

fn bits(m: &GopMeasures) -> [u64; 4] {
    [
        m.p_a1.to_bits(),
        m.i_h.to_bits(),
        m.i_hf.to_bits(),
        m.i_tau_h.to_bits(),
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
        let fused = gop_measures(an, places, &[phi]).unwrap()[0];
        let fused_spmv = spmv_ops() - before;
        let before = spmv_ops();
        let reference = unfused_gop_measures(an, places, phi);
        let reference_spmv = spmv_ops() - before;
        assert_eq!(bits(&fused), reference.map(f64::to_bits), "phi = {phi}");
        // The G-OP chain runs on uniformization here, so sharing the power
        // sequence halves its sparse products exactly — and the exact
        // moment adds none.
        assert!(fused_spmv > 0, "phi = {phi}: no uniformization ran");
        assert_eq!(2 * fused_spmv, reference_spmv, "phi = {phi}");
    }
}

/// `|got − want| ≤ 1e-8·|want|` (absolute at a zero reference).
fn assert_relative(got: f64, want: f64, what: &str) {
    let scale = want.abs().max(f64::MIN_POSITIVE);
    assert!(
        (got - want).abs() <= 1e-8 * scale,
        "{what}: {got} vs {want} (relative {:.3e})",
        (got - want).abs() / scale
    );
}

#[test]
fn exact_detection_moment_is_the_stopped_chain_first_passage() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The paper's RMGd on the Figure 9 grid.
    let params = GsuParams::paper_baseline();
    let built = rmgd::build(&params).unwrap();
    let an = Analyzer::generate(&built.model, &Default::default()).unwrap();
    let grid: Vec<f64> = (0..=10).map(|i| params.theta * i as f64 / 10.0).collect();
    let curve = gop_measures(&an, built.places.gop, &grid).unwrap();
    for (&phi, m) in grid.iter().zip(&curve) {
        let want = stopped_chain_moment(&an, built.places.gop, phi);
        assert_relative(m.i_tau_h_exact, want, &format!("RMGd, phi = {phi}"));
    }
    // Every catalog G-OP model on its own grid, from the one-pass sweep.
    for spec in catalog() {
        let places = build_gd(&spec).unwrap().places.gop;
        let analysis = ScenarioAnalysis::new(spec.clone()).unwrap();
        let an = analysis.analysis().gd_analyzer();
        let curve = gop_measures(an, places, &spec.phi_grid).unwrap();
        for (&phi, m) in spec.phi_grid.iter().zip(&curve) {
            let want = stopped_chain_moment(an, places, phi);
            assert_relative(
                m.i_tau_h_exact,
                want,
                &format!("{}, phi = {phi}", spec.name),
            );
        }
    }
}

#[test]
fn three_escorts_curve_costs_one_pass_on_the_gop_chain() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let analysis = ScenarioAnalysis::new(scenario("three-escorts")).unwrap();
    let before = telemetry::work::snapshot();
    analysis.curve().unwrap();
    let work = telemetry::work::snapshot().delta_since(&before);
    // One pass per φ on the G-OP chain and on the stopped chain cost 54,100.
    assert_eq!(work.spmv_ops, 8_842);
}
