//! Criterion benchmarks for the end-to-end performability pipeline: model
//! construction, single-φ evaluation, full figure sweeps, and the
//! simulation engines.

use criterion::{criterion_group, criterion_main, Criterion};
use mdcd_sim::{calibrate, simulate_run, simulate_run_hybrid, SimConfig, SimRng};
use performability::{GsuAnalysis, GsuParams};

fn bench_analysis_construction(c: &mut Criterion) {
    let params = GsuParams::paper_baseline();
    let mut group = c.benchmark_group("pipeline_setup");
    group.sample_size(20);
    group.bench_function("gsu_analysis_new", |b| {
        b.iter(|| GsuAnalysis::new(params).unwrap())
    });
    group.finish();
}

fn bench_evaluation(c: &mut Criterion) {
    let params = GsuParams::paper_baseline();
    let analysis = GsuAnalysis::new(params).unwrap();
    let mut group = c.benchmark_group("pipeline_evaluation");
    group.sample_size(20);
    group.bench_function("evaluate_phi_7000", |b| {
        b.iter(|| analysis.evaluate(7000.0).unwrap())
    });
    group.bench_function("figure_sweep_11_points", |b| {
        b.iter(|| analysis.sweep_grid(10).unwrap())
    });
    group.bench_function("optimal_phi_search", |b| {
        b.iter(|| analysis.optimal_phi(10, 8).unwrap())
    });
    group.finish();
}

fn bench_simulation_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    // Scaled-down scenario for the exact engine.
    let small = GsuParams {
        theta: 50.0,
        lambda: 40.0,
        mu_new: 0.02,
        mu_old: 1e-7,
        coverage: 0.95,
        p_ext: 0.1,
        alpha: 200.0,
        beta: 200.0,
    };
    let small_cfg = SimConfig::new(small, 30.0).unwrap();
    group.bench_function("exact_run_scaled", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let mut rng = SimRng::stream(1, seed);
            simulate_run(&small_cfg, &mut rng)
        })
    });

    // Mission-scale scenario for the hybrid engine.
    let paper = GsuParams::paper_baseline();
    let cfg = SimConfig::new(paper, 7000.0).unwrap();
    let mut cal_rng = SimRng::from_seed(5);
    let cal = calibrate(&paper, 40_000, &mut cal_rng);
    group.bench_function("hybrid_run_mission_scale", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let mut rng = SimRng::stream(2, seed);
            simulate_run_hybrid(&cfg, &cal, &mut rng)
        })
    });
    group.bench_function("calibration_40k_events", |b| {
        b.iter(|| {
            let mut rng = SimRng::from_seed(6);
            calibrate(&paper, 40_000, &mut rng)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_analysis_construction,
    bench_evaluation,
    bench_simulation_engines
);
criterion_main!(benches);
