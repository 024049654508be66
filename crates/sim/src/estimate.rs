//! Monte-Carlo aggregation of simulation runs.

use performability::{GsuParams, PerfError};

use crate::fast::{calibrate, simulate_run_hybrid};
use crate::{simulate_run, PathClass, SimConfig, SimRng};

/// Which simulation engine a [`MonteCarlo`] experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Event-exact engine: every message, AT, and checkpoint is simulated.
    /// Cost grows with `λ·θ`; use for scaled-down validation scenarios.
    Exact,
    /// Two-level hybrid engine (see [`crate::fast`]): steady-state overhead
    /// is calibrated once, fault episodes are simulated at message
    /// granularity. Use for mission-scale parameters.
    #[default]
    Hybrid,
}

/// Replicated simulation of one scenario.
///
/// # Example
///
/// ```
/// use mdcd_sim::{MonteCarlo, SimConfig};
/// use performability::GsuParams;
///
/// let cfg = SimConfig::new(GsuParams::paper_baseline(), 5000.0).unwrap();
/// let summary = MonteCarlo::new(cfg).with_replications(100).with_seed(3).run();
/// assert_eq!(summary.replications, 100);
/// assert!(summary.mean_worth <= 2.0 * 10_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    config: SimConfig,
    replications: usize,
    seed: u64,
    engine: EngineKind,
    calibration_events: usize,
}

impl MonteCarlo {
    /// Creates an experiment with defaults (1000 replications, seed 0,
    /// hybrid engine).
    pub fn new(config: SimConfig) -> Self {
        MonteCarlo {
            config,
            replications: 1000,
            seed: 0,
            engine: EngineKind::default(),
            calibration_events: 40_000,
        }
    }

    /// Selects the simulation engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the number of replications.
    pub fn with_replications(mut self, replications: usize) -> Self {
        self.replications = replications.max(1);
        self
    }

    /// Sets the base seed (each replication derives an independent stream).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs all replications and aggregates.
    pub fn run(&self) -> SimSummary {
        let mut span = telemetry::span("sim.monte_carlo");
        span.record("phi", self.config.phi);
        span.record("replications", self.replications);
        span.record(
            "engine",
            match self.engine {
                EngineKind::Exact => "exact",
                EngineKind::Hybrid => "hybrid",
            },
        );
        if telemetry::enabled() {
            telemetry::counter("sim.replications", self.replications as u64);
        }
        let calibration = match self.engine {
            EngineKind::Hybrid => {
                let mut rng = SimRng::stream(self.seed, u64::MAX);
                Some(calibrate(
                    &self.config.params,
                    self.calibration_events,
                    &mut rng,
                ))
            }
            EngineKind::Exact => None,
        };
        let n = self.replications;
        let workers = pool::Pool::current();
        span.record("threads", workers.threads());

        // Fan replications across the pool in contiguous index chunks. Each
        // replication seeds its own decorrelated stream from its *global*
        // index, and the fold below consumes outcomes in ascending index
        // order, so the summary is bit-identical at any thread count (and to
        // the pre-pool serial loop).
        let chunk_len = n.div_ceil(workers.threads().max(1) * 8).max(1);
        let chunks: Vec<std::ops::Range<usize>> = (0..n)
            .step_by(chunk_len)
            .map(|start| start..(start + chunk_len).min(n))
            .collect();
        let run_chunk = |_: usize, range: std::ops::Range<usize>| -> Vec<crate::RunOutcome> {
            range
                .map(|i| {
                    let mut rng = SimRng::stream(self.seed, i as u64);
                    match &calibration {
                        Some(cal) => simulate_run_hybrid(&self.config, cal, &mut rng),
                        None => simulate_run(&self.config, &mut rng),
                    }
                })
                .collect()
        };
        let outcomes = workers.map_indexed(chunks, run_chunk);

        let mut worth_sum = 0.0;
        let mut worth_sq_sum = 0.0;
        let mut counts = [0usize; 3];
        let mut detection_sum = 0.0;
        let mut detections = 0usize;
        let mut progress1 = 0.0;
        let mut progress2 = 0.0;
        let mut guarded_time = 0.0;

        for out in outcomes.iter().flatten() {
            worth_sum += out.worth;
            worth_sq_sum += out.worth * out.worth;
            counts[match out.class {
                PathClass::S1 => 0,
                PathClass::S2 => 1,
                PathClass::S3 => 2,
            }] += 1;
            if let Some(tau) = out.detection_time {
                detection_sum += tau;
                detections += 1;
            }
            let seg = out
                .detection_time
                .unwrap_or(self.config.phi)
                .min(self.config.phi);
            if out.failure_time.is_none() || out.detection_time.is_some() {
                progress1 += out.progress_p1;
                progress2 += out.progress_p2;
                guarded_time += seg;
            }
        }

        let mean = worth_sum / n as f64;
        let var = (worth_sq_sum / n as f64 - mean * mean).max(0.0);
        let half_width = 1.96 * (var / n as f64).sqrt();

        SimSummary {
            replications: n,
            mean_worth: mean,
            worth_half_width_95: half_width,
            p_s1: counts[0] as f64 / n as f64,
            p_s2: counts[1] as f64 / n as f64,
            p_s3: counts[2] as f64 / n as f64,
            mean_detection_time: if detections > 0 {
                Some(detection_sum / detections as f64)
            } else {
                None
            },
            mean_rho: if guarded_time > 0.0 {
                Some((progress1 / guarded_time, progress2 / guarded_time))
            } else {
                None
            },
        }
    }
}

/// Aggregated results of a Monte-Carlo experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Number of replications run.
    pub replications: usize,
    /// Sample mean of the accrued worth `W_φ`.
    pub mean_worth: f64,
    /// 95% confidence half-width of the worth mean (normal approximation).
    pub worth_half_width_95: f64,
    /// Fraction of `S1` paths (upgrade succeeded).
    pub p_s1: f64,
    /// Fraction of `S2` paths (detected and safely downgraded).
    pub p_s2: f64,
    /// Fraction of worthless paths.
    pub p_s3: f64,
    /// Mean detection time among detecting paths.
    pub mean_detection_time: Option<f64>,
    /// Measured forward-progress fractions `(ρ1, ρ2)` over the guarded
    /// segment (surviving paths only).
    pub mean_rho: Option<(f64, f64)>,
}

impl std::fmt::Display for SimSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "E[W] = {:.1} ± {:.1} over {} reps; S1/S2/S3 = {:.3}/{:.3}/{:.3}",
            self.mean_worth,
            self.worth_half_width_95,
            self.replications,
            self.p_s1,
            self.p_s2,
            self.p_s3
        )
    }
}

/// A simulation-based estimate of the performability index.
#[derive(Debug, Clone, PartialEq)]
pub struct YEstimate {
    /// Point estimate of `Y(φ)`.
    pub y: f64,
    /// Approximate 95% half-width (delta method on the worth means).
    pub half_width_95: f64,
    /// Summary of the guarded scenario.
    pub guarded: SimSummary,
    /// Summary of the unguarded (φ = 0) scenario.
    pub unguarded: SimSummary,
}

/// Estimates `Y(φ)` by simulating both the guarded and the unguarded
/// scenario (Eq. 1 evaluated on sample means).
///
/// # Errors
///
/// Propagates configuration validation failures.
pub fn estimate_y(
    params: GsuParams,
    phi: f64,
    replications: usize,
    seed: u64,
) -> Result<YEstimate, PerfError> {
    let guarded = MonteCarlo::new(SimConfig::new(params, phi)?)
        .with_replications(replications)
        .with_seed(seed)
        .run();
    let unguarded = MonteCarlo::new(SimConfig::new(params, 0.0)?)
        .with_replications(replications)
        .with_seed(seed.wrapping_add(0x5EED))
        .run();

    let ideal = 2.0 * params.theta;
    let denom = ideal - guarded.mean_worth;
    let numer = ideal - unguarded.mean_worth;
    let y = if denom > 0.0 { numer / denom } else { f64::NAN };

    // Delta method: Var(N/D) ≈ (N/D)²·(Var(N)/N² + Var(D)/D²) with the
    // worth half-widths standing in for the deviations.
    let half_width = if denom > 0.0 && numer > 0.0 {
        y * ((unguarded.worth_half_width_95 / numer).powi(2)
            + (guarded.worth_half_width_95 / denom).powi(2))
        .sqrt()
    } else {
        f64::NAN
    };

    Ok(YEstimate {
        y,
        half_width_95: half_width,
        guarded,
        unguarded,
    })
}

/// Estimates `Y(φ)` like [`estimate_y`], but with the guarded run's `S2`
/// discount pinned to a caller-supplied γ (normally the analytic point's
/// value) and an explicit engine choice. Matching γ removes the one
/// modelling difference between the simulator's per-path discount and the
/// analytic `γ = 1 − τ̄/θ`, so analytic-vs-simulation comparisons test the
/// translation itself — the cross-validation harness of the scenario
/// catalog runs on this.
///
/// # Errors
///
/// Propagates configuration validation failures.
pub fn estimate_y_matched(
    params: GsuParams,
    phi: f64,
    gamma: f64,
    replications: usize,
    seed: u64,
    engine: EngineKind,
) -> Result<YEstimate, PerfError> {
    let guarded_cfg = SimConfig::new(params, phi)?.with_gamma(crate::GammaMode::Constant(gamma));
    let guarded = MonteCarlo::new(guarded_cfg)
        .with_engine(engine)
        .with_replications(replications)
        .with_seed(seed)
        .run();
    let unguarded = MonteCarlo::new(SimConfig::new(params, 0.0)?)
        .with_engine(engine)
        .with_replications(replications)
        .with_seed(seed.wrapping_add(0x5EED))
        .run();

    let ideal = 2.0 * params.theta;
    let denom = ideal - guarded.mean_worth;
    let numer = ideal - unguarded.mean_worth;
    let y = if denom > 0.0 { numer / denom } else { f64::NAN };
    let half_width = if denom > 0.0 && numer > 0.0 {
        y * ((unguarded.worth_half_width_95 / numer).powi(2)
            + (guarded.worth_half_width_95 / denom).powi(2))
        .sqrt()
    } else {
        f64::NAN
    };

    Ok(YEstimate {
        y,
        half_width_95: half_width,
        guarded,
        unguarded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> GsuParams {
        GsuParams::paper_baseline()
    }

    #[test]
    fn summary_probabilities_partition() {
        let cfg = SimConfig::new(baseline(), 7000.0).unwrap();
        let s = MonteCarlo::new(cfg)
            .with_replications(300)
            .with_seed(1)
            .run();
        assert!((s.p_s1 + s.p_s2 + s.p_s3 - 1.0).abs() < 1e-12);
        assert!(s.mean_worth > 0.0);
        assert!(s.worth_half_width_95 > 0.0);
    }

    #[test]
    fn reproducible_with_same_seed() {
        let cfg = SimConfig::new(baseline(), 5000.0).unwrap();
        let a = MonteCarlo::new(cfg)
            .with_replications(50)
            .with_seed(9)
            .run();
        let b = MonteCarlo::new(cfg)
            .with_replications(50)
            .with_seed(9)
            .run();
        assert_eq!(a, b);
    }

    #[test]
    fn s1_fraction_tracks_survival_probability() {
        // P(S1) ≈ exp(−µnew·θ) ≈ 0.368 at the baseline.
        let cfg = SimConfig::new(baseline(), 6000.0).unwrap();
        let s = MonteCarlo::new(cfg)
            .with_replications(2000)
            .with_seed(4)
            .run();
        assert!((s.p_s1 - 0.368).abs() < 0.04, "p_s1 = {}", s.p_s1);
    }

    #[test]
    fn measured_rho_matches_analytic_steady_state() {
        let cfg = SimConfig::new(baseline(), 8000.0).unwrap();
        let s = MonteCarlo::new(cfg)
            .with_replications(300)
            .with_seed(2)
            .run();
        let (rho1, rho2) = s.mean_rho.expect("guarded paths exist");
        // Paper: ρ1 ≈ 0.98, ρ2 ≈ 0.95 at α=β=6000.
        assert!((rho1 - 0.98).abs() < 0.01, "rho1 = {rho1}");
        assert!((rho2 - 0.96).abs() < 0.02, "rho2 = {rho2}");
    }

    #[test]
    fn exact_engine_runs_scaled_scenarios() {
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
        let cfg = SimConfig::new(params, 30.0).unwrap();
        let s = MonteCarlo::new(cfg)
            .with_engine(EngineKind::Exact)
            .with_replications(100)
            .with_seed(8)
            .run();
        assert!((s.p_s1 + s.p_s2 + s.p_s3 - 1.0).abs() < 1e-12);
        assert!(s.mean_worth > 0.0);
    }

    #[test]
    fn y_estimate_shows_guarded_benefit() {
        let est = estimate_y(baseline(), 7000.0, 1500, 11).unwrap();
        assert!(
            est.y > 1.0,
            "guarded operation should pay off: Y = {} ± {}",
            est.y,
            est.half_width_95
        );
        assert!(est.half_width_95 < 0.5);
    }

    #[test]
    fn summary_display_is_informative() {
        let cfg = SimConfig::new(baseline(), 4000.0).unwrap();
        let s = MonteCarlo::new(cfg)
            .with_replications(50)
            .with_seed(1)
            .run();
        let line = s.to_string();
        assert!(line.contains("S1/S2/S3"));
        assert!(line.contains("50 reps"));
    }

    #[test]
    fn matched_gamma_estimate_is_reproducible() {
        let a = estimate_y_matched(baseline(), 7000.0, 0.8, 400, 11, EngineKind::Hybrid).unwrap();
        let b = estimate_y_matched(baseline(), 7000.0, 0.8, 400, 11, EngineKind::Hybrid).unwrap();
        assert_eq!(a, b);
        assert!(a.y.is_finite());
        assert!(a.y > 1.0, "Y = {}", a.y);
    }

    #[test]
    fn unguarded_scenario_has_no_detection() {
        let est = estimate_y(baseline(), 4000.0, 200, 5).unwrap();
        assert_eq!(est.unguarded.p_s2, 0.0);
        assert!(est.unguarded.mean_detection_time.is_none());
    }
}
