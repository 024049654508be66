//! Criterion benchmarks for the Markov solver layer: transient engines at
//! increasing stiffness, steady-state methods, and the Poisson window
//! computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use markov::fox_glynn::PoissonWindow;
use markov::steady::{steady_state, SteadyMethod};
use markov::transient::{self, Method, Options};
use markov::Ctmc;
use sparsela::iterative::IterOptions;

/// Birth-death chain with `n` states and tunable rates.
fn birth_death(n: usize, up: f64, down: f64) -> Ctmc {
    let mut t = Vec::with_capacity(2 * n);
    for i in 0..n - 1 {
        t.push((i, i + 1, up));
        t.push((i + 1, i, down));
    }
    Ctmc::from_transitions(n, t).expect("valid chain")
}

fn bench_transient_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("transient_distribution");
    let n = 40;
    let chain = birth_death(n, 2.0, 3.0);
    let pi0 = chain.point_distribution(0);
    // Λt spans non-stiff to stiff.
    for &t in &[10.0, 1000.0, 100_000.0] {
        let uni = Options {
            method: Method::Uniformization,
            max_uniformization_steps: 100_000_000,
            ..Default::default()
        };
        let exp = Options {
            method: Method::MatrixExponential,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("uniformization", t as u64), &t, |b, &t| {
            b.iter(|| transient::distribution(&chain, &pi0, t, &uni).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("expm", t as u64), &t, |b, &t| {
            b.iter(|| transient::distribution(&chain, &pi0, t, &exp).unwrap())
        });
    }
    group.finish();
}

fn bench_occupancy(c: &mut Criterion) {
    let mut group = c.benchmark_group("accumulated_occupancy");
    let chain = birth_death(30, 1.0, 2.0);
    let pi0 = chain.point_distribution(0);
    for &t in &[10.0, 10_000.0] {
        group.bench_with_input(BenchmarkId::from_parameter(t as u64), &t, |b, &t| {
            b.iter(|| transient::occupancy(&chain, &pi0, t, &Options::default()).unwrap())
        });
    }
    group.finish();
}

fn bench_steady_methods(c: &mut Criterion) {
    let mut group = c.benchmark_group("steady_state");
    let chain = birth_death(100, 1.0, 1.2);
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
        group.bench_function(name, |b| b.iter(|| steady_state(&chain, &method).unwrap()));
    }
    group.finish();
}

fn bench_fox_glynn(c: &mut Criterion) {
    let mut group = c.benchmark_group("poisson_window");
    for &lambda in &[10.0, 1e4, 1e7] {
        group.bench_with_input(
            BenchmarkId::from_parameter(lambda as u64),
            &lambda,
            |b, &l| b.iter(|| PoissonWindow::compute(l, 1e-12).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_transient_engines,
    bench_occupancy,
    bench_steady_methods,
    bench_fox_glynn
);
criterion_main!(benches);
