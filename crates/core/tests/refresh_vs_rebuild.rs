//! Refresh vs. rebuild. A state space refreshed from the tape of another
//! parameter set is the cold generation bit for bit: the same states in the
//! same order, the same generator entries, initial distribution, dropped
//! self-loop rate and firing activities. An analysis built through a seeded
//! structure session sweeps to the same bits as one built cold.
//!
//! Families: the parameter sets of Figures 9–12, the tornado's 14 variants,
//! and every catalog scenario's family member, each under random
//! multiplicative changes (0.5×–2×) of every rate parameter. A refresh must
//! decline where a zero pattern moves: coverage 1 (the tornado's clamped
//! high variant) and `p_ext` at a bound.

use std::path::Path;

use performability::gsu::{rmgd, rmgp, rmnd, Family};
use performability::{GsuAnalysis, GsuParams, Structures};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use san::{Derivation, Marking, SanModel, StateSpace};

/// Everything a space holds, with every float as its bits.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    markings: Vec<Marking>,
    generator: Vec<(usize, usize, u64)>,
    initial: Vec<u64>,
    dropped_self_loop_rate: u64,
    dead_timed: Vec<san::ActivityId>,
}

fn fingerprint(space: &StateSpace, model: &SanModel) -> Fingerprint {
    Fingerprint {
        markings: (0..space.n_states())
            .map(|i| space.marking(i).clone())
            .collect(),
        generator: space
            .ctmc()
            .generator()
            .iter()
            .map(|(r, c, v)| (r, c, v.to_bits()))
            .collect(),
        initial: space
            .initial_distribution()
            .iter()
            .map(|p| p.to_bits())
            .collect(),
        dropped_self_loop_rate: space.dropped_self_loop_rate().to_bits(),
        dead_timed: san::structural::dead_timed_activities(model, space),
    }
}

/// The four models of one member: `RMGp`, `RMGd`, and `RMNd` at µ_new and
/// at µ_old.
fn models(params: &GsuParams, family: &Family) -> [SanModel; 4] {
    [
        rmgp::build_family(params, family).unwrap().model,
        rmgd::build_family(params, family).unwrap().model,
        rmnd::build_family(params, family, params.mu_new)
            .unwrap()
            .model,
        rmnd::build_family(params, family, params.mu_old)
            .unwrap()
            .model,
    ]
}

/// The tapes of `RMGp`, `RMGd` and `RMNd` (at µ_new) of one member; the
/// µ_old model refreshes from the µ_new tape.
fn tapes(params: &GsuParams, family: &Family) -> [Derivation; 3] {
    let [gp, gd, nd, _] = models(params, family);
    let record = |m: &SanModel| {
        StateSpace::generate_recorded(m, &Default::default())
            .unwrap()
            .1
    };
    [record(&gp), record(&gd), record(&nd)]
}

/// The refresh of each model from its tape, or `None` per model that
/// declined; every refresh is checked against the cold generation.
fn refresh_all(
    tapes: &[Derivation; 3],
    params: &GsuParams,
    family: &Family,
    what: &str,
) -> [bool; 4] {
    let models = models(params, family);
    let mut refreshed = [false; 4];
    for (k, model) in models.iter().enumerate() {
        let tape = &tapes[k.min(2)];
        if let Some(space) = tape.refresh(model) {
            let cold = StateSpace::generate(model, &Default::default()).unwrap();
            assert_eq!(
                fingerprint(&space, model),
                fingerprint(&cold, model),
                "{what}: model {k} refreshed differently from its generation"
            );
            refreshed[k] = true;
        }
    }
    refreshed
}

/// The analysis of `params` built fully cold: every space generated, no
/// session.
fn cold_analysis(params: GsuParams, family: &Family) -> GsuAnalysis {
    let rho = rmgp::solve_rho_family(&params, family).unwrap();
    let gd = rmgd::build_family(&params, family).unwrap();
    let new = rmnd::build_family(&params, family, params.mu_new).unwrap();
    let old = rmnd::build_family(&params, family, params.mu_old).unwrap();
    GsuAnalysis::from_models(
        params,
        rho,
        (&gd.model, gd.places.gop),
        (&new.model, new.places.failure),
        (&old.model, old.places.failure),
    )
    .unwrap()
}

fn assert_same_sweep(a: &GsuAnalysis, b: &GsuAnalysis, what: &str) {
    let a = a.sweep_grid(10).unwrap();
    let b = b.sweep_grid(10).unwrap();
    // Debug prints every field of a point, each f64 in its shortest
    // round-trip form: equal strings are equal bits.
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
}

/// `params` with every rate parameter scaled by its own random factor in
/// `[0.5, 2]`.
fn perturbed(params: GsuParams, rng: &mut StdRng) -> GsuParams {
    let mut factor = || 2f64.powf(2.0 * rng.gen::<f64>() - 1.0);
    GsuParams {
        lambda: params.lambda * factor(),
        mu_new: params.mu_new * factor(),
        mu_old: params.mu_old * factor(),
        alpha: params.alpha * factor(),
        beta: params.beta * factor(),
        ..params
    }
}

/// Seeds tapes and a session at `base`, then checks every perturbation:
/// each model refreshes, bit for bit, and the session-built analysis sweeps
/// like the cold one. `family_of` gives the member's family at a parameter
/// set (the paper's follows α and β; a scenario's keeps its own laws).
fn check_member(
    name: &str,
    base: GsuParams,
    family_of: &dyn Fn(&GsuParams) -> Family,
    rng: &mut StdRng,
    perturbations: usize,
) {
    let family = family_of(&base);
    let tapes = tapes(&base, &family);
    let mut structures = Structures::new();
    GsuAnalysis::from_family_with(base, &family, &mut structures).unwrap();
    for k in 0..perturbations {
        let params = perturbed(base, rng);
        params.validate().unwrap();
        let family = family_of(&params);
        let what = format!("{name}, perturbation {k}: {params:?}");
        assert_eq!(
            refresh_all(&tapes, &params, &family, &what),
            [true; 4],
            "{what}: a refresh declined"
        );
        let through_session =
            GsuAnalysis::from_family_with(params, &family, &mut structures).unwrap();
        assert_same_sweep(&through_session, &cold_analysis(params, &family), &what);
    }
}

fn paper_family(params: &GsuParams) -> Family {
    Family::paper(params).unwrap()
}

#[test]
fn figure_families_refresh_bit_for_bit() {
    let base = GsuParams::paper_baseline();
    let slow_safeguards = base.with_overhead_rates(2500.0, 2500.0).unwrap();
    let short = base.with_theta(5000.0).unwrap();
    let members = [
        ("fig9/fig10 base", base),
        ("fig9 slow µnew", base.with_mu_new(5e-5).unwrap()),
        ("fig10 slow safeguards", slow_safeguards),
        ("fig11 c=0.75", slow_safeguards.with_coverage(0.75).unwrap()),
        ("fig11 c=0.50", slow_safeguards.with_coverage(0.50).unwrap()),
        ("fig12 base", short),
        ("fig12 slow µnew", short.with_mu_new(5e-5).unwrap()),
    ];
    let mut rng = StdRng::seed_from_u64(0x5eed_0f19);
    for (name, params) in members {
        check_member(name, params, &paper_family, &mut rng, 3);
    }
}

/// The tornado's 14 variants: ±10% of each parameter, clamped into
/// `[0, 1]` where it is a probability, each built from the baseline's
/// tapes. All refresh except the clamped coverage-high variant, whose
/// coverage of 1 removes the AT's miss case from `RMGd`.
#[test]
fn tornado_variants_refresh_except_the_clamped_coverage() {
    let base = GsuParams::paper_baseline();
    let tapes = tapes(&base, &paper_family(&base));
    type Set = fn(&mut GsuParams, f64);
    let params: [(&str, f64, Set); 7] = [
        ("lambda", base.lambda, |p, v| p.lambda = v),
        ("mu_new", base.mu_new, |p, v| p.mu_new = v),
        ("mu_old", base.mu_old, |p, v| p.mu_old = v),
        ("coverage", base.coverage, |p, v| p.coverage = v),
        ("p_ext", base.p_ext, |p, v| p.p_ext = v),
        ("alpha", base.alpha, |p, v| p.alpha = v),
        ("beta", base.beta, |p, v| p.beta = v),
    ];
    let mut declined = Vec::new();
    for (name, value, set) in params {
        for (side, scale) in [("low", 0.9), ("high", 1.1)] {
            let mut variant = base;
            let bounded = matches!(name, "coverage" | "p_ext");
            set(
                &mut variant,
                if bounded {
                    (value * scale).clamp(0.0, 1.0)
                } else {
                    value * scale
                },
            );
            let what = format!("{name} {side}");
            let refreshed = refresh_all(&tapes, &variant, &paper_family(&variant), &what);
            for (k, ok) in refreshed.iter().enumerate() {
                if !ok {
                    declined.push((what.clone(), k));
                }
            }
            let mut structures = Structures::new();
            GsuAnalysis::from_family_with(base, &paper_family(&base), &mut structures).unwrap();
            let through_session =
                GsuAnalysis::from_family_with(variant, &paper_family(&variant), &mut structures)
                    .unwrap();
            assert_same_sweep(
                &through_session,
                &cold_analysis(variant, &paper_family(&variant)),
                &what,
            );
        }
    }
    // Model 1 is RMGd.
    assert_eq!(declined, [("coverage high".to_string(), 1)]);
}

#[test]
fn refresh_declines_where_a_zero_pattern_moves() {
    let base = GsuParams::paper_baseline();
    let family = paper_family(&base);
    let tapes = tapes(&base, &family);
    // Coverage 1: no AT ever misses, so RMGd's miss cases are all zero.
    let full_coverage = base.with_coverage(1.0).unwrap();
    let refreshed = refresh_all(&tapes, &full_coverage, &family, "coverage 1");
    assert_eq!(refreshed, [true, false, true, true]);
    // p_ext at either bound validation allows: every model has a case at
    // p_ext or 1 − p_ext.
    for p_ext in [0.0, 1.0] {
        let at_bound = GsuParams { p_ext, ..base };
        at_bound.validate().unwrap();
        let what = format!("p_ext {p_ext}");
        assert_eq!(
            refresh_all(&tapes, &at_bound, &family, &what),
            [false; 4],
            "{what}"
        );
    }
}

#[test]
fn catalog_families_refresh_bit_for_bit() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"));
    let specs = gsu_scenario::load_dir(dir).unwrap();
    assert_eq!(specs.len(), 14);
    let mut rng = StdRng::seed_from_u64(0x0ca7_a109);
    for spec in &specs {
        let family = gsu_scenario::model::family(spec).unwrap();
        check_member(&spec.name, spec.params, &|_| family.clone(), &mut rng, 2);
    }
}
