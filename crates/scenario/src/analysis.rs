//! The scenario analysis pipeline: a [`ScenarioSpec`] lowered into the one
//! φ-evaluation engine, `performability::GsuAnalysis`.
//!
//! [`ScenarioAnalysis::new`] compiles the spec through [`crate::model`] —
//! the generalized overhead model for `(ρ1, ρ2)`, the generalized G-OP
//! dependability model, and the normal-mode model at µ_new and µ_old — and
//! hands the built models to `GsuAnalysis::from_models`. Every φ evaluation
//! then runs exactly the code path the paper's models do; for a
//! paper-shaped scenario the numbers match `GsuAnalysis::new` (asserted
//! below).

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
    /// Lowers the scenario to its generalized models and solves the
    /// φ-independent measures.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation, phase-type compilation, and model
    /// generation/solution failures.
    pub fn new(spec: ScenarioSpec) -> Result<Self> {
        // `from_models` validates too, but the models are built first.
        spec.params.validate()?;
        let mut span = telemetry::span("scenario.build");
        span.record("escorts", spec.escorts);

        let rho = model::solve_rho(&spec)?;
        let gd = model::build_gd(&spec)?;
        let np_new = model::build_np(&spec, spec.params.mu_new)?;
        let np_old = model::build_np(&spec, spec.params.mu_old)?;
        let analysis = GsuAnalysis::from_models(
            spec.params,
            rho,
            None,
            (&gd.model, gd.places.gop),
            (&np_new.model, np_new.places.failure),
            (&np_old.model, np_old.places.failure),
        )?;

        if telemetry::enabled() {
            span.record("rho1", rho.0);
            span.record("rho2", rho.1);
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
        let spec = paper_spec();
        let scenario = ScenarioAnalysis::new(spec.clone()).unwrap();
        let direct = GsuAnalysis::new(spec.params).unwrap();
        for phi in [0.0, 2500.0, 7000.0, 10_000.0] {
            let s = scenario.analysis().evaluate(phi).unwrap();
            let d = direct.evaluate(phi).unwrap();
            assert!(
                (s.y - d.y).abs() < 1e-9,
                "phi = {phi}: scenario {} vs direct {}",
                s.y,
                d.y
            );
            assert!((s.gamma - d.gamma).abs() < 1e-9, "phi = {phi}");
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
