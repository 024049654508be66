//! Integration tests: the SAN → CTMC → reward-variable stack against
//! closed-form queueing/reliability results, exercising every solver path
//! the GSU study relies on.

use guarded_upgrade::prelude::*;
use markov::transient::{Method, Options};
use san::ReachabilityOptions;

/// M/M/1/K as a SAN.
fn mm1k(arrival: f64, service: f64, k: u32) -> (SanModel, san::PlaceId) {
    let mut m = SanModel::new("mm1k");
    let q = m.add_place("queue", 0);
    m.add_activity(
        Activity::timed("arrive", arrival)
            .with_enabling(move |mk| mk.tokens(q) < k)
            .with_output_arc(q, 1),
    )
    .unwrap();
    m.add_activity(Activity::timed("serve", service).with_input_arc(q, 1))
        .unwrap();
    (m, q)
}

#[test]
fn mm1k_steady_state_distribution() {
    let (rho, k) = (0.7, 5u32);
    let (m, q) = mm1k(rho, 1.0, k);
    let analyzer = Analyzer::generate(&m, &ReachabilityOptions::default()).unwrap();
    let z: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
    for i in 0..=k {
        let want = rho.powi(i as i32) / z;
        let got = analyzer
            .state_space()
            .states_where(|mk| mk.tokens(q) == i)
            .len();
        assert_eq!(got, 1);
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(q) == i, 1.0);
        let p = analyzer.steady_reward(&spec).unwrap();
        assert!((p - want).abs() < 1e-10, "state {i}: {p} vs {want}");
    }
}

#[test]
fn mm1k_mean_queue_length_by_all_steady_methods() {
    let (m, q) = mm1k(1.0, 1.5, 4);
    let space = StateSpace::generate(&m, &ReachabilityOptions::default()).unwrap();
    let spec = RewardSpec::new().rate_fn(|_| true, move |mk| mk.tokens(q) as f64);
    let rho: f64 = 1.0 / 1.5;
    let z: f64 = (0..=4).map(|i| rho.powi(i)).sum();
    let want: f64 = (0..=4).map(|i| i as f64 * rho.powi(i)).sum::<f64>() / z;

    // Direct LU is the one steady-state method.
    let analyzer = san::Analyzer::from_state_space(space);
    let got = analyzer.steady_reward(&spec).unwrap();
    assert!(
        (got - want).abs() < 1e-7,
        "{got} vs {want} (space {} states)",
        analyzer.state_space().n_states()
    );
}

#[test]
fn erlang_stage_chain_transient_both_engines() {
    // 4-stage Erlang server modelled as a SAN pipeline; absorption
    // probability at t equals the Erlang(4, ν) CDF.
    let stages = 4u32;
    let nu = 2.5;
    let mut m = SanModel::new("erlang");
    let stage = m.add_place("stage", 0);
    m.add_activity(
        Activity::timed("advance", nu)
            .with_enabling(move |mk| mk.tokens(stage) < stages)
            .with_output_arc(stage, 1),
    )
    .unwrap();

    let t = 1.3;
    let x = nu * t;
    let mut partial = 1.0;
    let mut term = 1.0;
    for j in 1..stages {
        term *= x / j as f64;
        partial += term;
    }
    let want = 1.0 - partial * (-x).exp();

    for method in [Method::Uniformization, Method::MatrixExponential] {
        let opts = Options {
            method,
            ..Default::default()
        };
        let analyzer = Analyzer::generate(&m, &ReachabilityOptions::default())
            .unwrap()
            .with_transient_options(opts);
        let got = analyzer
            .probability_at(t, move |mk| mk.tokens(stage) == stages)
            .unwrap();
        assert!((got - want).abs() < 1e-9, "{method:?}: {got} vs {want}");
    }
}

#[test]
fn accumulated_reward_matches_renewal_availability() {
    // Up/down system: expected uptime in [0, t] has a closed form.
    let (lam, mu) = (0.4, 1.1); // failure, repair
    let mut m = SanModel::new("updown");
    let up = m.add_place("up", 1);
    m.add_activity(Activity::timed("fail", lam).with_input_arc(up, 1))
        .unwrap();
    m.add_activity(
        Activity::timed("repair", mu)
            .with_enabling(move |mk| mk.tokens(up) == 0)
            .with_output_arc(up, 1),
    )
    .unwrap();
    let analyzer = Analyzer::generate(&m, &ReachabilityOptions::default()).unwrap();
    let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
    let t = 7.0;
    let s = lam + mu;
    let want = mu / s * t + lam / (s * s) * (1.0 - (-s * t).exp());
    let got = analyzer.accumulated_reward(&spec, t).unwrap();
    assert!((got - want).abs() < 1e-8, "{got} vs {want}");
}

#[test]
fn vanishing_elimination_equals_fast_timed_limit() {
    // The same branching model with an instantaneous branch vs a timed
    // branch 10^7 times faster than everything else: steady-state rewards
    // must agree to ~1e-6.
    fn build(instantaneous: bool) -> (SanModel, san::PlaceId) {
        let mut m = SanModel::new("branch");
        let pool = m.add_place("pool", 1);
        let mid = m.add_place("mid", 0);
        let a = m.add_place("a", 0);
        let b = m.add_place("b", 0);
        m.add_activity(
            Activity::timed("work", 1.0)
                .with_input_arc(pool, 1)
                .with_output_arc(mid, 1),
        )
        .unwrap();
        let branch = if instantaneous {
            Activity::instantaneous("branch")
        } else {
            Activity::timed("branch", 1e7)
        };
        m.add_activity(
            branch
                .with_input_arc(mid, 1)
                .with_case(Case::with_probability(0.3).with_output_arc(a, 1))
                .with_case(Case::with_probability(0.7).with_output_arc(b, 1)),
        )
        .unwrap();
        m.add_activity(
            Activity::timed("ra", 2.0)
                .with_input_arc(a, 1)
                .with_output_arc(pool, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::timed("rb", 0.5)
                .with_input_arc(b, 1)
                .with_output_arc(pool, 1),
        )
        .unwrap();
        (m, a)
    }

    let (m_inst, a_inst) = build(true);
    let (m_timed, a_timed) = build(false);
    let an_inst = Analyzer::generate(&m_inst, &ReachabilityOptions::default()).unwrap();
    let an_timed = Analyzer::generate(&m_timed, &ReachabilityOptions::default()).unwrap();
    // The eliminated model has strictly fewer states.
    assert!(an_inst.state_space().n_states() < an_timed.state_space().n_states());
    let spec_i = RewardSpec::new().rate_when(move |mk| mk.tokens(a_inst) == 1, 1.0);
    let spec_t = RewardSpec::new().rate_when(move |mk| mk.tokens(a_timed) == 1, 1.0);
    let p_inst = an_inst.steady_reward(&spec_i).unwrap();
    let p_timed = an_timed.steady_reward(&spec_t).unwrap();
    assert!(
        (p_inst - p_timed).abs() < 1e-6,
        "eliminated {p_inst} vs stiff-timed {p_timed}"
    );
}

#[test]
fn absorbing_analysis_agrees_with_transient_limit() {
    // Competing risks from the RMNd shape: the absorption probability into
    // the failed state is the case probability 0.2 in closed form, and the
    // t→∞ transient probability of the absorbing chain must reach it.
    let mut m = SanModel::new("absorbing");
    let live = m.add_place("live", 1);
    let detected = m.add_place("det", 0);
    let failed = m.add_place("fail", 0);
    m.add_activity(
        Activity::timed("resolve", 3.0)
            .with_input_arc(live, 1)
            .with_case(Case::with_probability(0.8).with_output_arc(detected, 1))
            .with_case(Case::with_probability(0.2).with_output_arc(failed, 1)),
    )
    .unwrap();
    let analyzer = Analyzer::generate(&m, &ReachabilityOptions::default()).unwrap();
    let p_fail_t = analyzer
        .probability_at(100.0, move |mk| mk.tokens(failed) == 1)
        .unwrap();
    assert!((p_fail_t - 0.2).abs() < 1e-9);
}

#[test]
fn detection_time_is_a_phase_type_law_of_rmgd() {
    // The detection-time CDF computed two independent ways must agree:
    // (a) the constituent measure ∫h + ∫∫hf (detected by φ, alive or not),
    // (b) the first-passage transient solver on the chain stopped at the
    //     detected states.
    use markov::first_passage::hitting_probability_by;
    use performability::gsu::rmgd;

    let params = GsuParams::paper_baseline();
    let analysis = GsuAnalysis::new(params).unwrap();
    let model = rmgd::build(&params).unwrap();
    let space = StateSpace::generate(&model.model, &Default::default()).unwrap();
    let detected_place = model.places.gop.detected;
    let targets = space.states_where(|mk| mk.tokens(detected_place) == 1);
    let cdf = |t: f64| {
        hitting_probability_by(
            space.ctmc(),
            space.initial_distribution(),
            &targets,
            t,
            &Default::default(),
        )
        .unwrap()
    };

    for phi in [2000.0, 6000.0, 10_000.0] {
        let m = analysis.measures(phi).unwrap();
        let via_measures = m.i_h + m.i_hf;
        let via_fp = cdf(phi);
        assert!(
            (via_measures - via_fp).abs() < 1e-7,
            "φ={phi}: measures {via_measures} vs first passage {via_fp}"
        );
    }
    // The law is defective: some mass fails undetected or never errs. Its
    // total mass is the CDF's limit, read at a horizon far past every time
    // scale of the model (the CDF is flat to 1e-15 from 10⁶ h on).
    let mass = cdf(1e7);
    assert!(mass < 1.0);
    assert!(
        mass > 0.5,
        "most errors should eventually be detected: {mass}"
    );
}

#[test]
fn san_simulator_cross_validates_rmnd() {
    // The generic SAN trajectory simulator against the analytic transient
    // solution of the actual RMNd model (scaled rates so trajectories are
    // short).
    use performability::gsu::rmnd;
    use san::simulate;

    let mut params = GsuParams::paper_baseline();
    params.theta = 50.0;
    params.lambda = 40.0;
    params.mu_new = 0.05;
    params.mu_old = 1e-6;
    let model = rmnd::build(&params, params.mu_new).unwrap();
    let failure = model.places.failure;

    let analytic = Analyzer::generate(&model.model, &Default::default())
        .unwrap()
        .probability_at(40.0, move |mk| mk.tokens(failure) == 0)
        .unwrap();
    let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(failure) == 0, 1.0);
    let est =
        simulate::estimate_instant_reward(&model.model, &spec, 40.0, 3000, 99, &Default::default())
            .unwrap();
    assert!(
        (est.mean - analytic).abs() < est.half_width_95.max(0.03),
        "simulated {} ± {} vs analytic {analytic}",
        est.mean,
        est.half_width_95
    );
}

#[test]
fn gsu_models_are_safe_and_live() {
    // Structural sanity of the three paper models: every place is
    // 1-bounded (the models are safe nets) and every timed activity can
    // fire somewhere in the reachable space (no dead behaviour).
    use performability::gsu::{rmgd, rmgp, rmnd};
    use san::structural;

    let params = GsuParams::paper_baseline();
    let models: Vec<(&str, SanModel)> = vec![
        ("rmgd", rmgd::build(&params).unwrap().model),
        ("rmgp", rmgp::build(&params).unwrap().model),
        ("rmnd", rmnd::build(&params, params.mu_new).unwrap().model),
    ];
    for (name, model) in &models {
        let space = StateSpace::generate(model, &Default::default()).unwrap();
        assert!(structural::is_safe(&space), "{name} should be a safe net");
        let dead = structural::dead_timed_activities(model, &space);
        assert!(
            dead.is_empty(),
            "{name} has dead timed activities: {:?}",
            dead.iter()
                .map(|&id| model.activity_name(id))
                .collect::<Vec<_>>()
        );
        let report = structural::report(model, &space);
        assert!(report.contains("safe (1-bounded): true"));
    }
}
