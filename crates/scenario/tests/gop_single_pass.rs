//! A G-OP curve costs one transient solve on the G-OP chain lumped by
//! `(detected, failure)`: every φ of the grid is a horizon of one call
//! (`markov::transient::distribution_and_occupancy_at_times`) on one
//! engine, and the exact detection moment is read off the same π(φ)/L(φ)
//! through the closed detected set. These tests pin the lumped measures
//! against the full chain's separate solves (against a tight full-chain
//! reference at the stiff horizons where the full chain's default solve is
//! the less accurate side), the one-point pair solve bitwise against the
//! separate calls on the lumped chain, on its own engine and on
//! uniformization, the closed-set identity against the stopped-chain
//! first-passage reference, the lumped chain sizes, and the work of a
//! whole curve.
//!
//! The work counters are process-global, so every test in this binary
//! holds [`SERIAL`] while it counts.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Mutex;

use gsu_scenario::model::build_gd;
use gsu_scenario::{load_dir, ScenarioAnalysis, ScenarioSpec};
use markov::first_passage::truncated_mean_hitting_time;
use markov::transient;
use performability::gsu::{gop_measures, rmgd, GopChain, GopPlaces};
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
/// distribution and occupancy solves: one pass each on the full G-OP chain.
/// Also returns whether each solve ran uniformization (sparse products), for
/// the instant-of-time fields and for `i_tau_h`.
fn unfused_gop_measures(an: &Analyzer, places: GopPlaces, phi: f64) -> ([f64; 4], [bool; 2]) {
    let space = an.state_space();
    let before = spmv_ops();
    let pi = an.distribution_at(phi).unwrap();
    let pi_uniformized = spmv_ops() > before;
    let spec = RewardSpec::new()
        .rate_when(move |mk| places.in_a2(mk), 1.0)
        .rate_when(move |mk| places.in_a4(mk), -1.0);
    let before = spmv_ops();
    let i_tau_h = an.accumulated_reward(&spec, phi).unwrap();
    let l_uniformized = spmv_ops() > before;
    (
        [
            space.probability_of(&pi, |mk| places.in_a1(mk)),
            space.probability_of(&pi, |mk| places.in_a3(mk)),
            space.probability_of(&pi, |mk| places.detected_then_failed(mk)),
            i_tau_h,
        ],
        [pi_uniformized, l_uniformized],
    )
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The four G-OP measures of a lumped chain's block vectors.
fn lumped_fields(chain: &GopChain, an: &Analyzer, pi: &[f64], l: &[f64]) -> [f64; 4] {
    let space = an.state_space();
    let places = chain.places();
    let sum = |v: &[f64], states: Vec<usize>| -> f64 {
        chain
            .lumped()
            .blocks_of(&states)
            .iter()
            .map(|&b| v[b])
            .sum()
    };
    [
        sum(pi, space.states_where(|mk| places.in_a1(mk))),
        sum(pi, space.states_where(|mk| places.in_a3(mk))),
        sum(pi, space.states_where(|mk| places.detected_then_failed(mk))),
        sum(l, space.states_where(|mk| places.in_a1(mk))),
    ]
}

/// `|got − want| ≤ rel·|want| + abs[field]`, field by field.
fn assert_fields_close(got: [f64; 4], want: [f64; 4], rel: f64, abs: [f64; 4], what: &str) {
    for ((name, abs), (got, want)) in ["p_a1", "i_h", "i_hf", "i_tau_h"]
        .into_iter()
        .zip(abs)
        .zip(got.into_iter().zip(want))
    {
        assert!(
            (got - want).abs() <= rel * want.abs() + abs,
            "{what}, {name}: {got} vs {want} (relative {:.3e})",
            (got - want).abs() / want.abs().max(f64::MIN_POSITIVE)
        );
    }
}

/// Where a uniformization solve is on either side of a comparison, its
/// truncation error is absolute, not relative: it can dominate a field of
/// order 1e-6 at 1e-9 relative. This floor bounds that error in the catalog.
const UNIFORMIZATION_FLOOR: f64 = 1e-14;

/// Horizons where the full chain's default solve is the less accurate side
/// of the comparison: its one-shot matrix exponential is further from the
/// truth than the lumped chain's solve. The lumped measures there are held
/// to a tight full-chain reference instead, by
/// `stiff_points_match_a_tight_full_chain_reference`.
const TIGHT_REFERENCE_ONLY: [(&str, f64); 1] = [("paper-high-fault-rate", 10_000.0)];

/// Expected Poisson steps below which a uniformization pass is cheap
/// enough to run as a check in a debug build.
const CHEAP_PASS_STEPS: f64 = 1e5;

/// Tight uniformization: ε = 1e-15 and no steady-state detection.
fn tight() -> transient::Options {
    transient::Options {
        method: transient::Method::Uniformization,
        epsilon: 1e-15,
        max_uniformization_steps: 200_000_000,
        steady_state_detection: false,
        ..Default::default()
    }
}

/// The four G-OP measures of a full chain's `π(φ)` and `L(φ)`.
fn full_fields(an: &Analyzer, places: GopPlaces, pi: &[f64], l: &[f64]) -> [f64; 4] {
    let space = an.state_space();
    [
        space.probability_of(pi, |mk| places.in_a1(mk)),
        space.probability_of(pi, |mk| places.in_a3(mk)),
        space.probability_of(pi, |mk| places.detected_then_failed(mk)),
        space
            .states_where(|mk| places.in_a1(mk))
            .iter()
            .map(|&s| l[s])
            .sum(),
    ]
}

#[test]
fn lumped_gop_measures_match_the_full_chain_unfused_reference() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut uniformized = BTreeSet::new();
    let mut cheap = BTreeSet::new();
    let mut tight_checked = 0;
    for spec in catalog() {
        let places = build_gd(&spec).unwrap().places.gop;
        let analysis = ScenarioAnalysis::new(spec.clone()).unwrap();
        let an = analysis.analysis().gd_analyzer();
        let chain = GopChain::new(an, places).unwrap();
        let lumped = chain.lumped();
        let (ctmc, pi0) = (lumped.ctmc(), lumped.initial_distribution());
        let grid: Vec<f64> = spec
            .phi_grid
            .iter()
            .copied()
            .filter(|&phi| phi > 0.0)
            .collect();
        for &phi in &grid {
            let what = format!("{}, phi = {phi}", spec.name);
            // The lumped measures are the full chain's class sums, up to the
            // error of the two default solves.
            let before = spmv_ops();
            let fused = chain.measures(&[phi]).unwrap()[0];
            let fused_spmv = spmv_ops() - before;
            let m = [fused.p_a1, fused.i_h, fused.i_hf, fused.i_tau_h];
            let (want, [pi_uniformized, l_uniformized]) = unfused_gop_measures(an, places, phi);
            let floor = |reference_uniformized: bool| {
                if fused_spmv > 0 || reference_uniformized {
                    UNIFORMIZATION_FLOOR
                } else {
                    0.0
                }
            };
            let pi_floor = floor(pi_uniformized);
            let abs = [pi_floor, pi_floor, pi_floor, floor(l_uniformized)];
            if !TIGHT_REFERENCE_ONLY.contains(&(spec.name.as_str(), phi)) {
                assert_fields_close(m, want, 1e-9, abs, &what);
            }
            // On the lumped chain the pair is the two separate calls forced
            // to its engine, bit for bit, at half the sparse products: on
            // the engine Auto resolves, and on uniformization wherever a
            // pass is cheap, so every chain keeps that path covered. The
            // exact moment adds no sparse product to the pair's.
            let steps = ctmc.max_exit_rate() * phi;
            let auto = transient::pair_method(ctmc, phi, &Default::default()).unwrap();
            let mut engines = vec![auto];
            if steps <= CHEAP_PASS_STEPS && auto != transient::Method::Uniformization {
                engines.push(transient::Method::Uniformization);
            }
            for method in engines {
                let opts = transient::Options {
                    method,
                    ..Default::default()
                };
                let before = spmv_ops();
                let (pi, l) =
                    transient::distribution_and_occupancy_at_times(ctmc, pi0, &[phi], &opts)
                        .unwrap()
                        .remove(0);
                let pair_spmv = spmv_ops() - before;
                let before = spmv_ops();
                let want_pi = transient::distribution(ctmc, pi0, phi, &opts).unwrap();
                let want_l = transient::occupancy(ctmc, pi0, phi, &opts).unwrap();
                let reference_spmv = spmv_ops() - before;
                let what = format!("{what}, {method:?}");
                assert_eq!(bits(&pi), bits(&want_pi), "{what}: π");
                assert_eq!(bits(&l), bits(&want_l), "{what}: L");
                assert_eq!(2 * pair_spmv, reference_spmv, "{what}");
                if method == auto {
                    assert_eq!(fused_spmv, pair_spmv, "{what}");
                }
                if method == transient::Method::Uniformization {
                    assert!(pair_spmv > 0, "{what}");
                    uniformized.insert(spec.name.clone());
                }
            }
            if steps <= CHEAP_PASS_STEPS {
                cheap.insert(spec.name.clone());
            }
        }
        // Where a tight pass is cheap, solve both chains tightly: lumping
        // itself is exact up to the last bits of exchangeable rates.
        let steps = an.state_space().ctmc().max_exit_rate() * grid.last().copied().unwrap_or(0.0);
        if steps > CHEAP_PASS_STEPS {
            continue;
        }
        let space = an.state_space();
        let full = transient::distribution_and_occupancy_at_times(
            space.ctmc(),
            space.initial_distribution(),
            &grid,
            &tight(),
        )
        .unwrap();
        let quotient =
            transient::distribution_and_occupancy_at_times(ctmc, pi0, &grid, &tight()).unwrap();
        for ((phi, (pi, l)), (q_pi, q_l)) in grid.iter().zip(&full).zip(&quotient) {
            let want = full_fields(an, places, pi, l);
            let got = lumped_fields(&chain, an, q_pi, q_l);
            let what = format!("{}, tight, phi = {phi}", spec.name);
            assert_fields_close(got, want, 1e-11, [0.0; 4], &what);
            tight_checked += 1;
        }
    }
    assert!(
        !cheap.is_empty(),
        "no catalog horizon is cheap to uniformize"
    );
    assert_eq!(
        uniformized, cheap,
        "every chain with a cheap horizon ran uniformization"
    );
    assert!(tight_checked > 0, "no catalog scenario was checked tightly");
}

/// Runs ~6·10⁷ sparse steps per listed horizon: seconds in a release build,
/// so it is `#[ignore]`d and run by `scripts/check.sh`:
///
/// ```text
/// cargo test --release -p gsu-scenario --test gop_single_pass -- --ignored
/// ```
#[test]
#[ignore = "tight uniformization reference takes seconds in release"]
fn stiff_points_match_a_tight_full_chain_reference() {
    for (name, phi) in TIGHT_REFERENCE_ONLY {
        let spec = scenario(name);
        let places = build_gd(&spec).unwrap().places.gop;
        let analysis = ScenarioAnalysis::new(spec).unwrap();
        let an = analysis.analysis().gd_analyzer();
        let chain = GopChain::new(an, places).unwrap();
        let fused = chain.measures(&[phi]).unwrap()[0];
        let space = an.state_space();
        let (pi, l) = transient::distribution_and_occupancy_at_times(
            space.ctmc(),
            space.initial_distribution(),
            &[phi],
            &tight(),
        )
        .unwrap()
        .remove(0);
        assert_fields_close(
            [fused.p_a1, fused.i_h, fused.i_hf, fused.i_tau_h],
            full_fields(an, places, &pi, &l),
            1e-9,
            [0.0; 4],
            &format!("{name}, tight full chain, phi = {phi}"),
        );
    }
}

#[test]
fn lumped_chain_sizes_are_pinned() {
    let params = GsuParams::paper_baseline();
    let built = rmgd::build(&params).unwrap();
    let an = Analyzer::generate(&built.model, &Default::default()).unwrap();
    let mut sizes = vec![("RMGd", an.state_space().n_states(), {
        GopChain::new(&an, built.places.gop)
            .unwrap()
            .lumped()
            .ctmc()
            .n_states()
    })];
    for name in ["two-escorts", "three-escorts"] {
        let spec = scenario(name);
        let places = build_gd(&spec).unwrap().places.gop;
        let analysis = ScenarioAnalysis::new(spec).unwrap();
        let an = analysis.analysis().gd_analyzer();
        let blocks = GopChain::new(an, places)
            .unwrap()
            .lumped()
            .ctmc()
            .n_states();
        sizes.push((name, an.state_space().n_states(), blocks));
    }
    assert_eq!(
        sizes,
        [
            ("RMGd", 22, 13),
            ("two-escorts", 74, 28),
            ("three-escorts", 274, 50)
        ]
    );
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
    // One G-OP solve for the whole grid: on the 50-block lumped chain the
    // six φ are one dense chain whose equal gaps share one structured
    // exponential, and each normal-mode model adds one survival
    // exponential. The flops are the structured multiply-adds of the
    // chains' block-triangular layouts: the G-OP chain's 34 components and
    // the normal-mode chains' singletons.
    assert_eq!(work.spmv_ops, 0);
    assert_eq!(work.spmv_nnz, 0);
    assert_eq!(work.expm_solves, 3);
    assert_eq!(work.solver_iterations, 28);
    assert_eq!(work.flops, 883_290);
}
