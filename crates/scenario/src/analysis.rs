//! The scenario analysis pipeline: a [`ScenarioSpec`] lowered into the one
//! φ-evaluation engine, `performability::GsuAnalysis`.
//!
//! [`ScenarioAnalysis::new`] lowers the spec to its member of the model
//! family ([`crate::model::family`]) and builds it with
//! `GsuAnalysis::from_family`, the constructor `GsuAnalysis::new` uses for
//! the paper's member. Every φ evaluation then runs exactly the code path
//! the paper's models do; for a paper-shaped scenario every number is
//! `GsuAnalysis::new`'s, bit for bit (asserted below).

use performability::{GsuAnalysis, Result, SweepPoint};

use crate::ast::ScenarioSpec;
use crate::model;

/// A fully prepared scenario: models built, φ-independent measures solved.
#[derive(Debug)]
pub struct ScenarioAnalysis {
    spec: ScenarioSpec,
    analysis: GsuAnalysis,
}

impl ScenarioAnalysis {
    /// Lowers the scenario to its member of the model family and solves the
    /// φ-independent measures.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation, phase-type compilation, and model
    /// generation/solution failures.
    pub fn new(spec: ScenarioSpec) -> Result<Self> {
        let mut span = telemetry::span("scenario.build");
        span.record("escorts", spec.escorts);
        let analysis = GsuAnalysis::from_family(spec.params, &model::family(&spec)?)?;
        if telemetry::enabled() {
            span.record("gd_states", analysis.gd_analyzer().state_space().n_states());
            span.record("gd_blocks", analysis.gop_chain().lumped().ctmc().n_states());
        }
        Ok(ScenarioAnalysis { spec, analysis })
    }

    /// The scenario under analysis.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The lowered analysis — evaluate any φ, sweep, or optimize through it.
    pub fn analysis(&self) -> &GsuAnalysis {
        &self.analysis
    }

    /// Gives up the spec and keeps the lowered analysis.
    pub fn into_analysis(self) -> GsuAnalysis {
        self.analysis
    }

    /// Evaluates the scenario's own φ grid — the golden curve — through
    /// [`GsuAnalysis::sweep`], so it is bitwise identical at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Fails with the error of the lowest-index φ whose evaluation fails.
    pub fn curve(&self) -> Result<Vec<SweepPoint>> {
        let mut span = telemetry::span("scenario.curve");
        span.record("points", self.spec.phi_grid.len());
        self.analysis.sweep(self.spec.phi_grid.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Dist;
    use performability::GsuParams;

    fn paper_spec() -> ScenarioSpec {
        let params = GsuParams::paper_baseline();
        ScenarioSpec {
            name: "paper".to_string(),
            at: Dist::Exp { rate: params.alpha },
            ckpt: Dist::Exp { rate: params.beta },
            params,
            escorts: 1,
            waves: None,
            coverage_decay: 0.0,
            aging: None,
            phi_grid: vec![0.0, 2500.0, 5000.0, 7500.0, 10_000.0],
            sim_replications: 100,
            sim_seed: 7,
        }
    }

    #[test]
    fn paper_shaped_scenario_matches_gsu_analysis() {
        let base = GsuParams::paper_baseline();
        for params in [
            base,
            base.with_mu_new(1e-3).unwrap(),
            base.with_coverage(0.9).unwrap(),
        ] {
            let spec = ScenarioSpec {
                params,
                ..paper_spec()
            };
            let grid: Vec<f64> = (0..=20)
                .map(|i| params.theta * f64::from(i) / 20.0)
                .collect();
            let scenario = ScenarioAnalysis::new(spec).unwrap();
            let direct = GsuAnalysis::new(params).unwrap();
            let s = scenario.analysis().sweep(grid.iter().copied()).unwrap();
            let d = direct.sweep(grid.iter().copied()).unwrap();
            assert_eq!(s.len(), grid.len());
            // Debug prints every field of a point, each f64 in its shortest
            // round-trip form: equal strings are equal bits.
            for (s, d) in s.iter().zip(&d) {
                assert_eq!(format!("{s:?}"), format!("{d:?}"), "{params:?}");
            }
        }
    }

    #[test]
    fn curve_covers_grid_and_starts_at_unity() {
        let scenario = ScenarioAnalysis::new(paper_spec()).unwrap();
        let curve = scenario.curve().unwrap();
        assert_eq!(curve.len(), 5);
        assert!((curve[0].y - 1.0).abs() < 1e-9);
        assert_eq!(curve[4].phi, 10_000.0);
    }

    #[test]
    fn measures_validate_for_extended_scenarios() {
        let mut spec = paper_spec();
        spec.escorts = 2;
        spec.at = Dist::Erlang {
            k: 3,
            rate: 3.0 * spec.params.alpha,
        };
        let scenario = ScenarioAnalysis::new(spec).unwrap();
        for phi in [0.0, 5000.0, 10_000.0] {
            let m = scenario.analysis().measures(phi).unwrap();
            m.validate(phi).unwrap();
        }
    }
}
