//! Analytic-vs-simulation cross-validation of scenario curves.
//!
//! Every catalog scenario is checked against an independent Monte-Carlo
//! estimate, with the backend picked per scenario shape:
//!
//! * **paper-shaped** scenarios run through the dedicated MDCD simulator
//!   (`mdcd-sim`) with the `S2` discount γ pinned to the analytic value
//!   (matched-γ comparison of the full index Y(φ)); the event-exact engine
//!   is used when trajectories are cheap, the two-level hybrid engine at
//!   mission scale;
//! * **extended** scenarios (escorts, waves, decay, aging, phase-type
//!   safeguards) have no dedicated simulator, so the compiled dependability
//!   SAN itself is simulated by the `san` discrete-event engine and the
//!   `A'1` / `A'3` state-set probabilities are compared at each φ. These
//!   scenarios must be scaled down (the DES cost grows with `λ·φ`); the
//!   harness refuses mission-scale extended scenarios instead of hanging.
//!
//! All seeds derive from the scenario's `sim_seed`, so a passing report is
//! deterministic — the catalog test is not flaky by construction.

use performability::gsu::GopPlaces;
use san::simulate::{estimate_instant_reward, SimulationOptions};
use san::{Marking, RewardSpec};

use crate::analysis::ScenarioAnalysis;
use crate::ScenarioError;

/// DES work ceiling for extended scenarios: expected events per trajectory
/// beyond which cross-validation refuses to run (≈ seconds per φ point).
pub const MAX_DES_EVENTS_PER_TRAJECTORY: f64 = 500_000.0;

/// Exact-engine ceiling for paper-shaped scenarios; above this the hybrid
/// engine takes over.
pub const MAX_EXACT_EVENTS_PER_TRAJECTORY: f64 = 20_000.0;

/// Which simulation backend validates a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Dedicated MDCD simulator, event-exact engine.
    MdcdExact,
    /// Dedicated MDCD simulator, two-level hybrid engine.
    MdcdHybrid,
    /// Discrete-event simulation of the compiled dependability SAN.
    SanDes,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::MdcdExact => "mdcd-exact",
            Backend::MdcdHybrid => "mdcd-hybrid",
            Backend::SanDes => "san-des",
        })
    }
}

/// One compared quantity at one φ.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossvalPoint {
    /// The guarded-operation duration.
    pub phi: f64,
    /// What was compared (`Y`, `P(A'1)`, `P(A'3)`).
    pub measure: &'static str,
    /// The analytic value.
    pub analytic: f64,
    /// The Monte-Carlo estimate.
    pub simulated: f64,
    /// The estimate's 95% confidence half-width.
    pub half_width: f64,
    /// The acceptance threshold applied to `|analytic − simulated|`.
    pub tolerance: f64,
    /// Whether the point passed.
    pub ok: bool,
}

/// The cross-validation outcome for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossvalReport {
    /// The scenario name.
    pub scenario: String,
    /// The backend used.
    pub backend: Backend,
    /// Every compared point.
    pub points: Vec<CrossvalPoint>,
}

impl CrossvalReport {
    /// The failing points, for diagnostics.
    pub fn failures(&self) -> Vec<&CrossvalPoint> {
        self.points.iter().filter(|p| !p.ok).collect()
    }
}

/// Picks the backend for a scenario.
pub fn backend_for(spec: &crate::ScenarioSpec) -> Backend {
    if spec.is_paper_shaped() {
        if spec.events_per_trajectory() <= MAX_EXACT_EVENTS_PER_TRAJECTORY {
            Backend::MdcdExact
        } else {
            Backend::MdcdHybrid
        }
    } else {
        Backend::SanDes
    }
}

/// Selects up to `max_points` interior φ values from the scenario grid
/// (φ = 0 is excluded: both sides are exactly degenerate there).
fn pick_phis(grid: &[f64], max_points: usize) -> Vec<f64> {
    let interior: Vec<f64> = grid.iter().copied().filter(|&phi| phi > 0.0).collect();
    if interior.len() <= max_points || max_points == 0 {
        return interior;
    }
    // Evenly spaced picks that always include the last grid point.
    (0..max_points)
        .map(|i| interior[(i * (interior.len() - 1)) / (max_points - 1).max(1)])
        .collect()
}

/// Cross-validates a prepared scenario against Monte-Carlo simulation at up
/// to `max_points` φ values.
///
/// # Errors
///
/// Refuses mission-scale extended scenarios (see
/// [`MAX_DES_EVENTS_PER_TRAJECTORY`]) and propagates analytic-solver and
/// simulator failures.
pub fn crossval(
    analysis: &ScenarioAnalysis,
    max_points: usize,
) -> Result<CrossvalReport, ScenarioError> {
    let spec = analysis.spec();
    let backend = backend_for(spec);
    let phis = pick_phis(&spec.phi_grid, max_points);
    let mut span = telemetry::span("scenario.crossval");
    span.record("scenario", spec.name.as_str());
    span.record("points", phis.len());

    let points = match backend {
        Backend::MdcdExact | Backend::MdcdHybrid => {
            let engine = if backend == Backend::MdcdExact {
                mdcd_sim::EngineKind::Exact
            } else {
                mdcd_sim::EngineKind::Hybrid
            };
            let mut points = Vec::with_capacity(phis.len());
            for (i, &phi) in phis.iter().enumerate() {
                let analytic = analysis.analysis().evaluate(phi)?;
                let est = mdcd_sim::estimate_y_matched(
                    spec.params,
                    phi,
                    analytic.gamma,
                    spec.sim_replications,
                    spec.sim_seed.wrapping_add(i as u64),
                    engine,
                )
                .map_err(ScenarioError::Model)?;
                let tolerance = (4.0 * est.half_width_95).max(0.05 * analytic.y.abs());
                let ok = (analytic.y - est.y).abs() <= tolerance;
                points.push(CrossvalPoint {
                    phi,
                    measure: "Y",
                    analytic: analytic.y,
                    simulated: est.y,
                    half_width: est.half_width_95,
                    tolerance,
                    ok,
                });
            }
            points
        }
        Backend::SanDes => {
            if spec.events_per_trajectory() > MAX_DES_EVENTS_PER_TRAJECTORY {
                return Err(ScenarioError::Invalid {
                    file: spec.name.clone(),
                    message: format!(
                        "extended scenario expects ~{:.0} events per DES trajectory \
                         (limit {MAX_DES_EVENTS_PER_TRAJECTORY:.0}); scale theta/lambda down",
                        spec.events_per_trajectory()
                    ),
                });
            }
            let gd = crate::model::build_gd(spec)?;
            let places = gd.places.gop;
            let analyzer = analysis.analysis().gd_analyzer();
            let opts = SimulationOptions::default();
            let mut points = Vec::with_capacity(2 * phis.len());
            let sets = [
                (
                    "P(A'1)",
                    GopPlaces::in_a1 as fn(&GopPlaces, &Marking) -> bool,
                ),
                ("P(A'3)", GopPlaces::in_a3),
            ];
            for (i, &phi) in phis.iter().enumerate() {
                let seed = spec.sim_seed.wrapping_add(i as u64);
                for (j, (measure, in_set)) in sets.into_iter().enumerate() {
                    let analytic = analyzer
                        .probability_at(phi, move |mk| in_set(&places, mk))
                        .map_err(performability::PerfError::from)?;
                    let spec_reward =
                        RewardSpec::new().rate_when(move |mk| in_set(&places, mk), 1.0);
                    let est = estimate_instant_reward(
                        &gd.model,
                        &spec_reward,
                        phi,
                        spec.sim_replications,
                        seed.wrapping_add(0x0A3 * j as u64),
                        &opts,
                    )
                    .map_err(performability::PerfError::from)?;
                    let tolerance = 4.0 * est.half_width_95 + 0.01;
                    let ok = (analytic - est.mean).abs() <= tolerance;
                    points.push(CrossvalPoint {
                        phi,
                        measure,
                        analytic,
                        simulated: est.mean,
                        half_width: est.half_width_95,
                        tolerance,
                        ok,
                    });
                }
            }
            points
        }
    };

    if telemetry::enabled() {
        span.record("failures", points.iter().filter(|p| !p.ok).count());
    }
    Ok(CrossvalReport {
        scenario: spec.name.clone(),
        backend,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Dist, ScenarioSpec};
    use performability::GsuParams;

    fn scaled_paper_spec() -> ScenarioSpec {
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
            sim_replications: 1500,
            sim_seed: 21,
        }
    }

    #[test]
    fn backend_selection_follows_shape_and_scale() {
        let mut spec = scaled_paper_spec();
        assert_eq!(backend_for(&spec), Backend::MdcdExact);
        spec.params.theta = 10_000.0;
        spec.params.lambda = 1200.0;
        spec.phi_grid = vec![0.0, 10_000.0];
        assert_eq!(backend_for(&spec), Backend::MdcdHybrid);
        spec.escorts = 2;
        assert_eq!(backend_for(&spec), Backend::SanDes);
    }

    #[test]
    fn mission_scale_extended_scenarios_are_refused() {
        let mut spec = scaled_paper_spec();
        spec.params.theta = 10_000.0;
        spec.params.lambda = 1200.0;
        spec.phi_grid = vec![0.0, 10_000.0];
        spec.escorts = 2;
        let analysis = ScenarioAnalysis::new(spec).unwrap();
        let err = crossval(&analysis, 1).unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err}");
    }

    #[test]
    fn scaled_paper_scenario_cross_validates() {
        let analysis = ScenarioAnalysis::new(scaled_paper_spec()).unwrap();
        let report = crossval(&analysis, 2).unwrap();
        assert_eq!(report.backend, Backend::MdcdExact);
        assert!(report.failures().is_empty(), "{:?}", report.failures());
    }

    #[test]
    fn extended_scenario_cross_validates_by_des() {
        let mut spec = scaled_paper_spec();
        spec.escorts = 2;
        spec.sim_replications = 2000;
        let analysis = ScenarioAnalysis::new(spec).unwrap();
        let report = crossval(&analysis, 1).unwrap();
        assert_eq!(report.backend, Backend::SanDes);
        assert!(report.failures().is_empty(), "{:?}", report.failures());
    }

    #[test]
    fn phi_picks_span_the_grid() {
        assert_eq!(pick_phis(&[0.0, 1.0, 2.0, 3.0], 2), vec![1.0, 3.0]);
        assert_eq!(pick_phis(&[0.0, 5.0], 4), vec![5.0]);
    }
}
