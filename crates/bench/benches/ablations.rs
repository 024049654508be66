//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **translation vs monolithic**: the paper's whole point — solving `Y`
//!   through the translated constituent measures versus estimating it from
//!   a monolithic simulation of the full process `X`;
//! * **uniformization vs matrix exponential** across stiffness, including
//!   the Fox–Glynn window against naive per-term Poisson evaluation;
//! * **vanishing elimination vs stiff timed approximation** of
//!   instantaneous activities;
//! * **steady-state method** choice on the actual `RMGp` chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use markov::fox_glynn::{poisson_pmf, PoissonWindow};
use markov::steady::{steady_state, SteadyMethod};
use markov::transient::{self, Method, Options};
use mdcd_sim::estimate_y;
use performability::gsu::rmgp;
use performability::{GsuAnalysis, GsuParams};
use san::{Activity, Analyzer, RewardSpec, SanModel, StateSpace};
use sparsela::iterative::IterOptions;

/// The paper's headline ablation: translated reward-model solution of Y
/// versus Monte-Carlo on the untranslated process.
fn ablation_translation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_translation");
    group.sample_size(10);
    let params = GsuParams::paper_baseline();
    group.bench_function("translated_reward_models", |b| {
        // Includes model construction, so the comparison is end to end.
        b.iter(|| {
            let analysis = GsuAnalysis::new(params).unwrap();
            analysis.evaluate(7000.0).unwrap()
        })
    });
    group.bench_function("monolithic_simulation_3000reps", |b| {
        b.iter(|| estimate_y(params, 7000.0, 3000, 99).unwrap())
    });
    group.finish();
}

fn ablation_uniformization(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_uniformization");
    // Two-state chain: stiffness is purely in Λt.
    let chain = markov::Ctmc::from_transitions(2, [(0, 1, 100.0), (1, 0, 150.0)]).unwrap();
    let pi0 = [1.0, 0.0];
    for &t in &[1.0, 100.0, 10_000.0] {
        let uni = Options {
            method: Method::Uniformization,
            max_uniformization_steps: 100_000_000,
            steady_state_detection: false,
            ..Default::default()
        };
        let exp = Options {
            method: Method::MatrixExponential,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::new("uniformization", (t * 250.0) as u64),
            &t,
            |b, &t| b.iter(|| transient::distribution(&chain, &pi0, t, &uni).unwrap()),
        );
        group.bench_with_input(BenchmarkId::new("expm", (t * 250.0) as u64), &t, |b, &t| {
            b.iter(|| transient::distribution(&chain, &pi0, t, &exp).unwrap())
        });
    }
    // Fox–Glynn window versus naive per-term pmf evaluation over the window.
    for &lambda in &[1e3, 1e5] {
        group.bench_with_input(
            BenchmarkId::new("fox_glynn_window", lambda as u64),
            &lambda,
            |b, &l| b.iter(|| PoissonWindow::compute(l, 1e-12).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("naive_pmf_window", lambda as u64),
            &lambda,
            |b, &l| {
                b.iter(|| {
                    let w = PoissonWindow::compute(l, 1e-12).unwrap();
                    (w.left..=w.right).map(|k| poisson_pmf(l, k)).sum::<f64>()
                })
            },
        );
    }
    group.finish();
}

/// Instantaneous branching via vanishing elimination versus modelling the
/// same branch with a very fast timed activity (which leaves the "vanishing"
/// states in the chain and makes it stiff).
fn ablation_vanishing(c: &mut Criterion) {
    fn branching_model(instantaneous: bool) -> SanModel {
        let mut m = SanModel::new("branch");
        let pool = m.add_place("pool", 3);
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
            // 10^6 times faster than `work`: behaviourally equivalent,
            // numerically stiff.
            Activity::timed("branch", 1e6)
        };
        m.add_activity(
            branch
                .with_input_arc(mid, 1)
                .with_case(san::Case::with_probability(0.4).with_output_arc(a, 1))
                .with_case(san::Case::with_probability(0.6).with_output_arc(b, 1)),
        )
        .unwrap();
        // Recycle so the chain is irreducible.
        m.add_activity(
            Activity::timed("recycle_a", 0.5)
                .with_input_arc(a, 1)
                .with_output_arc(pool, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::timed("recycle_b", 0.5)
                .with_input_arc(b, 1)
                .with_output_arc(pool, 1),
        )
        .unwrap();
        m
    }

    let mut group = c.benchmark_group("ablation_vanishing");
    for (name, inst) in [("eliminated", true), ("stiff_timed", false)] {
        group.bench_function(format!("generate_{name}"), |b| {
            let m = branching_model(inst);
            b.iter(|| StateSpace::generate(&m, &Default::default()).unwrap())
        });
        group.bench_function(format!("transient_{name}"), |b| {
            let m = branching_model(inst);
            let analyzer = Analyzer::generate(&m, &Default::default()).unwrap();
            let pool = m.find_place("pool").unwrap();
            let spec = RewardSpec::new().rate_fn(|_| true, move |mk| mk.tokens(pool) as f64);
            b.iter(|| analyzer.instant_reward(&spec, 5.0).unwrap())
        });
    }
    group.finish();
}

fn ablation_steady(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_steady_rmgp");
    let params = GsuParams::paper_baseline();
    let model = rmgp::build(&params).unwrap();
    let ss = StateSpace::generate(&model.model, &Default::default()).unwrap();
    let methods: Vec<(&str, SteadyMethod)> = vec![
        ("direct_lu", SteadyMethod::Direct),
        (
            "gauss_seidel",
            SteadyMethod::GaussSeidel {
                options: IterOptions::default(),
            },
        ),
    ];
    for (name, method) in methods {
        group.bench_function(name, |b| {
            b.iter(|| steady_state(ss.ctmc(), &method).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_translation,
    ablation_uniformization,
    ablation_vanishing,
    ablation_steady
);
criterion_main!(benches);
