//! The end-to-end analysis pipeline: base models → constituent measures →
//! performability index.
//!
//! [`GsuAnalysis`] is the one φ-evaluation engine. Every constructor ends
//! in one place, which takes the state spaces of a G-OP dependability model
//! classified by [`GopPlaces`] and of two normal-mode models.
//! [`GsuAnalysis::from_models`] generates them from built models;
//! [`GsuAnalysis::from_family`] builds them for any member of the model
//! family ([`crate::gsu`]) and gets their spaces through a structure
//! session ([`Structures`]), which refreshes a space whose structure it has
//! seen. [`GsuAnalysis::new`] is the paper's member, and the scenario layer
//! lowers each `.gsu` spec through `from_family`.

use san::{Analyzer, LumpedChain, PlaceId, SanModel, StateSpace};

use crate::gsu::{rmgd, rmgp, rmnd, Family, GopChain, GopPlaces};
use crate::structures::{Session, Slot};
use crate::{
    assemble, ConstituentMeasures, GammaPolicy, GsuParams, PerfError, Result, Structures,
    SweepPoint,
};

/// The complete guarded-operation performability analysis for one parameter
/// set.
///
/// Construction builds and solves everything that does not depend on φ (the
/// overhead steady state, the normal-mode full-window probability, and the
/// G-OP chain's reward structure and detected set), and lumps each chain by
/// what its measures observe: the G-OP chain by `(detected, failure)`, the
/// normal-mode chains by `failure`. A sweep then costs one transient pass on
/// the lumped G-OP chain for all its φ, plus one survival chain per lumped
/// normal-mode model over all its windows `θ − φ`;
/// [`GsuAnalysis::evaluate`] is the one-point sweep.
///
/// # Example
///
/// ```
/// use performability::{GsuAnalysis, GsuParams};
///
/// # fn main() -> Result<(), performability::PerfError> {
/// let analysis = GsuAnalysis::new(GsuParams::paper_baseline())?;
/// let point = analysis.evaluate(7000.0)?;
/// assert!(point.y > 1.0);
/// # Ok(())
/// # }
/// ```
pub struct GsuAnalysis {
    params: GsuParams,
    gamma_policy: GammaPolicy,
    rho: (f64, f64),
    gd: Analyzer,
    gd_chain: GopChain,
    np_new: Survival,
    np_old: Survival,
    /// `(model name, dropped self-loop rate)` of the G-OP and the two
    /// normal-mode state spaces.
    dropped_self_loop_rates: Vec<(String, f64)>,
    /// `P(X''_θ ∈ A''1)` — φ-independent, solved once.
    p_a1_norm_theta: f64,
}

impl GsuAnalysis {
    /// Builds the paper's three SAN reward models and solves the
    /// φ-independent measures, with `(ρ1, ρ2)` computed from `RMGp`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation and model generation/solution
    /// failures.
    pub fn new(params: GsuParams) -> Result<Self> {
        // Validated before the family compiles α and β into laws.
        params.validate()?;
        Self::paper_in(params, Session::Record(&mut Structures::new()))
    }

    /// The paper's member of validated parameters, built through `session`.
    pub(crate) fn paper_in(params: GsuParams, session: Session<'_>) -> Result<Self> {
        Self::lower(params, &Family::paper(&params)?, session)
    }

    /// Lowers a member of the model family: `(ρ1, ρ2)` solved on its
    /// overhead model, then its G-OP model and its normal-mode model at
    /// µ_new and µ_old, on a session of its own.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation and model generation/solution
    /// failures.
    pub fn from_family(params: GsuParams, family: &Family) -> Result<Self> {
        Self::from_family_with(params, family, &mut Structures::new())
    }

    /// Like [`GsuAnalysis::from_family`], through a caller-owned structure
    /// session: each model's state space is refreshed from the session's
    /// tape when its structure is unchanged, and generated cold (its tape
    /// kept) otherwise. The analysis is bit for bit the one
    /// [`GsuAnalysis::from_family`] builds.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation and model generation/solution
    /// failures.
    pub fn from_family_with(
        params: GsuParams,
        family: &Family,
        structures: &mut Structures,
    ) -> Result<Self> {
        params.validate()?;
        Self::lower(params, family, Session::Record(structures))
    }

    /// The one lowering of a family member, on validated parameters:
    /// `(ρ1, ρ2)` solved on its overhead model, then its G-OP and
    /// normal-mode models. The normal-mode model at µ_old refreshes from the
    /// one at µ_new through the session.
    fn lower(params: GsuParams, family: &Family, mut session: Session<'_>) -> Result<Self> {
        let mut span = telemetry::span("performability.build");
        let gp = rmgp::build_family(&params, family)?;
        let rho = rmgp::rho_on(&gp, session.space(Slot::Overhead, &gp.model)?)?;
        let gd = rmgd::build_family(&params, family)?;
        let new = rmnd::build_family(&params, family, params.mu_new)?;
        let old = rmnd::build_family(&params, family, params.mu_old)?;
        let analysis = Self::from_spaces(
            params,
            rho,
            (session.space(Slot::Gop, &gd.model)?, gd.places.gop),
            (session.space(Slot::Normal, &new.model)?, new.places.failure),
            (session.space(Slot::Normal, &old.model)?, old.places.failure),
        )?;
        if telemetry::enabled() {
            telemetry::gauge("performability.rho1", rho.0);
            telemetry::gauge("performability.rho2", rho.1);
            telemetry::gauge("performability.p_a1_norm_theta", analysis.p_a1_norm_theta);
            span.record("rho1", rho.0);
            span.record("rho2", rho.1);
        }
        Ok(analysis)
    }

    /// Builds the analysis of built models: generates their state spaces,
    /// prepares the lumped G-OP chain (checking that its detected set is
    /// closed), lumps the normal-mode chains by `failure`, and solves the
    /// φ-independent full-window survival.
    ///
    /// * `rho` — the forward-progress fractions `(ρ1, ρ2)`;
    /// * `gd` — the G-OP dependability model and the places that classify
    ///   its states into the `A'` sets;
    /// * `np_new` / `np_old` — the normal-mode models with the first
    ///   component at µ_new and at µ_old, each with its `failure` place.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::InvalidParameter`] when `params` fail
    /// [`GsuParams::validate`] or a fraction of `rho` is outside `[0, 1]`,
    /// [`PerfError::MeasureInvariant`] when a transition of the G-OP chain
    /// leaves its detected set, and propagates state-space generation and
    /// solver failures.
    pub fn from_models(
        params: GsuParams,
        rho: (f64, f64),
        gd: (&SanModel, GopPlaces),
        np_new: (&SanModel, PlaceId),
        np_old: (&SanModel, PlaceId),
    ) -> Result<Self> {
        params.validate()?;
        let generate = |model: &SanModel| StateSpace::generate(model, &Default::default());
        Self::from_spaces(
            params,
            rho,
            (generate(gd.0)?, gd.1),
            (generate(np_new.0)?, np_new.1),
            (generate(np_old.0)?, np_old.1),
        )
    }

    /// [`GsuAnalysis::from_models`] on generated state spaces and validated
    /// parameters.
    fn from_spaces(
        params: GsuParams,
        rho: (f64, f64),
        gd: (StateSpace, GopPlaces),
        np_new: (StateSpace, PlaceId),
        np_old: (StateSpace, PlaceId),
    ) -> Result<Self> {
        for (name, value) in [("rho1", rho.0), ("rho2", rho.1)] {
            if !(0.0..=1.0).contains(&value) {
                return Err(PerfError::InvalidParameter {
                    name,
                    value,
                    expected: "within [0, 1]",
                });
            }
        }
        let gd_analyzer = Analyzer::from_state_space(gd.0);
        let gd_chain = GopChain::new(&gd_analyzer, gd.1)?;
        let np_new_analyzer = Analyzer::from_state_space(np_new.0);
        let np_old_analyzer = Analyzer::from_state_space(np_old.0);
        let dropped_self_loop_rates = [&gd_analyzer, &np_new_analyzer, &np_old_analyzer]
            .iter()
            .map(|a| {
                let space = a.state_space();
                (
                    space.model_name().to_string(),
                    space.dropped_self_loop_rate(),
                )
            })
            .collect();
        let np_new = Survival::new(&np_new_analyzer, np_new.1)?;
        let np_old = Survival::new(&np_old_analyzer, np_old.1)?;
        let p_a1_norm_theta = np_new.at(&[params.theta])?[0];
        Ok(GsuAnalysis {
            params,
            gamma_policy: GammaPolicy::default(),
            rho,
            gd: gd_analyzer,
            gd_chain,
            np_new,
            np_old,
            dropped_self_loop_rates,
            p_a1_norm_theta,
        })
    }

    /// Replaces the γ policy (default: the paper's `γ = 1 − τ̄/θ`).
    pub fn with_gamma_policy(mut self, policy: GammaPolicy) -> Self {
        self.gamma_policy = policy;
        self
    }

    /// The parameter set under analysis.
    pub fn params(&self) -> &GsuParams {
        &self.params
    }

    /// The forward-progress fractions `(ρ1, ρ2)` in use.
    pub fn rho(&self) -> (f64, f64) {
        self.rho
    }

    /// The analyzer of the G-OP dependability model, over its full state
    /// space — for probes of its `A'` sets, such as the discrete-event
    /// cross-validation.
    pub fn gd_analyzer(&self) -> &Analyzer {
        &self.gd
    }

    /// The G-OP chain the measures are solved on, lumped by
    /// `(detected, failure)`.
    pub fn gop_chain(&self) -> &GopChain {
        &self.gd_chain
    }

    /// Solves all nine constituent reward variables for a G-OP duration φ.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::PhiOutOfRange`] for φ outside `[0, θ]` and
    /// propagates solver failures.
    pub fn measures(&self, phi: f64) -> Result<ConstituentMeasures> {
        self.params.validate_phi(phi)?;
        let mut all = self.measures_at(&[phi])?;
        Ok(all.remove(0))
    }

    /// The constituent measures at every φ of an already validated grid:
    /// one G-OP pass for all of them, then one survival chain per
    /// normal-mode model over the remaining windows `θ − φ`.
    fn measures_at(&self, phis: &[f64]) -> Result<Vec<ConstituentMeasures>> {
        let mut span = telemetry::span("performability.measures");
        span.record("points", phis.len());

        // G-OP measures (Table 1).
        let gop = self.gd_chain.measures(phis)?;

        // Normal-mode measures (§5.2.3): one chain per model over the
        // remaining windows θ − φ.
        let remaining: Vec<f64> = phis.iter().map(|&phi| self.params.theta - phi).collect();
        let p_new = self.np_new.at(&remaining)?;
        let p_old = self.np_old.at(&remaining)?;
        let measures = gop
            .into_iter()
            .zip(p_new.into_iter().zip(p_old))
            .map(|(gop, (p_a1_norm_rem, p_old_rem))| ConstituentMeasures {
                p_a1_gop: gop.p_a1,
                p_a1_norm_theta: self.p_a1_norm_theta,
                p_a1_norm_rem,
                rho1: self.rho.0,
                rho2: self.rho.1,
                i_h: gop.i_h,
                i_tau_h: gop.i_tau_h,
                i_tau_h_exact: gop.i_tau_h_exact,
                i_hf: gop.i_hf,
                i_f: 1.0 - p_old_rem,
            })
            .collect();
        Ok(measures)
    }

    /// Evaluates the performability index and all intermediate quantities at
    /// one φ: the one-point case of [`GsuAnalysis::sweep`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`GsuAnalysis::measures`].
    pub fn evaluate(&self, phi: f64) -> Result<SweepPoint> {
        let mut span = telemetry::span("performability.evaluate");
        span.record("phi", phi);
        self.params.validate_phi(phi)?;
        let mut points = self.points(&[phi])?;
        let point = points.remove(0);
        if telemetry::enabled() {
            span.record("y", point.y);
        }
        Ok(point)
    }

    /// Assembles the sweep points of an already validated grid.
    fn points(&self, phis: &[f64]) -> Result<Vec<SweepPoint>> {
        let measures = self.measures_at(phis)?;
        let points = phis
            .iter()
            .zip(&measures)
            .map(|(&phi, m)| assemble(self.params.theta, phi, m, self.gamma_policy))
            .collect::<Result<Vec<_>>>()?;
        if telemetry::enabled() {
            telemetry::counter("performability.evaluations", points.len() as u64);
        }
        Ok(points)
    }

    /// The dropped-self-loop diagnostic of each generated state space, as
    /// `(model name, total dropped rate)` pairs — nonzero values are
    /// surfaced as warnings in reports.
    pub fn dropped_self_loop_rates(&self) -> Vec<(String, f64)> {
        self.dropped_self_loop_rates.clone()
    }

    /// Evaluates a sweep of φ values (e.g. the grid of Figures 9–12).
    ///
    /// The grid must be **ascending** within `[0, θ]`. Every φ is a horizon
    /// of one transient solve on the G-OP chain (see
    /// `markov::transient::distribution_and_occupancy_at_times`), and every
    /// window `θ − φ` a horizon of one survival solve per normal-mode model
    /// (`markov::transient::distribution_at_times`), each on one engine. A
    /// one-point sweep is [`GsuAnalysis::evaluate`] bit for bit; a point of
    /// a longer grid agrees with it to rounding, since dense horizons are
    /// stepped along the grid, or to the solvers' tolerance where the grid
    /// and the point resolve different engines. The sweep runs serially on the calling thread, so it is
    /// bitwise identical at any `GSU_THREADS`; parallel work belongs across
    /// curves.
    ///
    /// # Errors
    ///
    /// Rejects invalid grids up front; otherwise propagates the first
    /// solver failure.
    pub fn sweep<I: IntoIterator<Item = f64>>(&self, phis: I) -> Result<Vec<SweepPoint>> {
        let phis: Vec<f64> = phis.into_iter().collect();
        self.params.validate_phi_grid(&phis)?;
        let mut span = telemetry::span("performability.sweep");
        span.record("points", phis.len());
        self.points(&phis)
    }

    /// Evaluates a uniform grid of `n + 1` φ values over `[0, θ]`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn sweep_grid(&self, n: usize) -> Result<Vec<SweepPoint>> {
        let theta = self.params.theta;
        let n = n.max(1);
        self.sweep((0..=n).map(|i| theta * i as f64 / n as f64))
    }

    /// Finds the φ maximizing `Y` by coarse grid search followed by
    /// golden-section refinement around the best bracket.
    ///
    /// `grid` is the number of coarse intervals (the paper uses 10);
    /// `refinements` golden-section steps shrink the bracket afterwards
    /// (each step costs one evaluation).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn optimal_phi(&self, grid: usize, refinements: usize) -> Result<SweepPoint> {
        let theta = self.params.theta;
        let grid = grid.max(2);
        let points = self.sweep_grid(grid)?;
        let Some(&first) = points.first() else {
            return Err(PerfError::InvalidParameter {
                name: "grid",
                value: grid as f64,
                expected: "a grid that yields at least one sweep point",
            });
        };
        // `is_ge` keeps the *last* maximum, matching `Iterator::max_by`.
        let mut best = first;
        for p in &points[1..] {
            if p.y.total_cmp(&best.y).is_ge() {
                best = *p;
            }
        }

        // Bracket around the best coarse point.
        let step = theta / grid as f64;
        let mut lo = (best.phi - step).max(0.0);
        let mut hi = (best.phi + step).min(theta);

        // Golden-section search (maximization).
        const INV_PHI: f64 = 0.618_033_988_749_894_8;
        let mut x1 = hi - INV_PHI * (hi - lo);
        let mut x2 = lo + INV_PHI * (hi - lo);
        let mut f1 = self.evaluate(x1)?;
        let mut f2 = self.evaluate(x2)?;
        for _ in 0..refinements {
            if f1.y >= f2.y {
                hi = x2;
                x2 = x1;
                f2 = f1;
                x1 = hi - INV_PHI * (hi - lo);
                f1 = self.evaluate(x1)?;
            } else {
                lo = x1;
                x1 = x2;
                f1 = f2;
                x2 = lo + INV_PHI * (hi - lo);
                f2 = self.evaluate(x2)?;
            }
            let candidate = if f1.y >= f2.y { f1 } else { f2 };
            if candidate.y > best.y {
                best = candidate;
            }
        }
        Ok(best)
    }
}

/// A normal-mode model lumped by its `failure` place, the only thing its
/// survival reads of a state.
struct Survival {
    chain: LumpedChain,
    /// The blocks where `failure` is empty, ascending.
    alive: Vec<usize>,
}

impl Survival {
    fn new(np: &Analyzer, failure: PlaceId) -> Result<Self> {
        let chain = np.lumped(|mk| u64::from(mk.tokens(failure)))?;
        let alive = chain.blocks_of(&np.state_space().states_where(|mk| mk.tokens(failure) == 0));
        Ok(Survival { chain, alive })
    }

    /// `P(failure place empty at t)` for every horizon `t` of `times`, in
    /// order.
    fn at(&self, times: &[f64]) -> Result<Vec<f64>> {
        Ok(self
            .chain
            .distribution_at_times(times)?
            .iter()
            .map(|pi| self.alive.iter().map(|&b| pi[b]).sum())
            .collect())
    }
}

impl std::fmt::Debug for GsuAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GsuAnalysis")
            .field("params", &self.params)
            .field("rho", &self.rho)
            .field("p_a1_norm_theta", &self.p_a1_norm_theta)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysis() -> GsuAnalysis {
        GsuAnalysis::new(GsuParams::paper_baseline()).unwrap()
    }

    #[test]
    fn phi_zero_yields_unit_index() {
        let pt = analysis().evaluate(0.0).unwrap();
        assert!((pt.y - 1.0).abs() < 1e-9, "Y(0) = {}", pt.y);
    }

    #[test]
    fn baseline_guarded_operation_pays_off() {
        let an = analysis();
        let pt = an.evaluate(7000.0).unwrap();
        assert!(pt.y > 1.0, "Y(7000) = {}", pt.y);
        assert!(pt.y < 5.0, "Y(7000) = {} looks implausibly large", pt.y);
    }

    #[test]
    fn measures_validate_across_phi_grid() {
        let an = analysis();
        for phi in [0.0, 1000.0, 5000.0, 10_000.0] {
            let m = an.measures(phi).unwrap();
            m.validate(phi).unwrap();
        }
    }

    #[test]
    fn detection_mass_grows_with_phi() {
        let an = analysis();
        let m1 = an.measures(2000.0).unwrap();
        let m2 = an.measures(8000.0).unwrap();
        assert!(m2.i_h > m1.i_h);
        assert!(m2.i_tau_h > m1.i_tau_h);
        assert!(m1.p_a1_gop > m2.p_a1_gop);
        // Remaining-window survival improves with larger φ.
        assert!(m2.p_a1_norm_rem > m1.p_a1_norm_rem);
    }

    #[test]
    fn phi_out_of_range_rejected() {
        let an = analysis();
        assert!(matches!(
            an.evaluate(20_000.0),
            Err(PerfError::PhiOutOfRange { .. })
        ));
        assert!(an.evaluate(-1.0).is_err());
    }

    #[test]
    fn from_models_validates_params_and_rho() {
        let params = GsuParams::paper_baseline();
        let gd = rmgd::build(&params).unwrap();
        let np = rmnd::build(&params, 1e-4).unwrap();
        let build = |params: GsuParams, rho| {
            let np = (&np.model, np.places.failure);
            GsuAnalysis::from_models(params, rho, (&gd.model, gd.places.gop), np, np)
        };
        assert_eq!(build(params, (0.95, 0.90)).unwrap().rho(), (0.95, 0.90));
        assert!(build(params, (0.98, f64::NAN)).is_err());
        assert!(build(params, (1.5, 0.9)).is_err());
        let mut bad = params;
        bad.coverage = 2.0;
        assert!(build(bad, (0.98, 0.95)).is_err());
    }

    #[test]
    fn from_models_rejects_a_gop_model_that_clears_detection() {
        use san::Activity;
        // Errors are detected at rate 1, and the `detected` token can be
        // taken back at rate 2: the detected set is not closed, so its
        // occupancy is not the detection-time CDF.
        let mut gd = SanModel::new("undetect");
        let detected = gd.add_place("detected", 0);
        let failure = gd.add_place("failure", 0);
        gd.add_activity(
            Activity::timed("detect", 1.0)
                .with_enabling(move |mk| mk.tokens(detected) == 0)
                .with_output_arc(detected, 1),
        )
        .unwrap();
        gd.add_activity(Activity::timed("undetect", 2.0).with_input_arc(detected, 1))
            .unwrap();
        let params = GsuParams::paper_baseline();
        let np = rmnd::build(&params, 1e-4).unwrap();
        let np = (&np.model, np.places.failure);
        let places = GopPlaces { detected, failure };
        let err =
            GsuAnalysis::from_models(params, (0.98, 0.95), (&gd, places), np, np).unwrap_err();
        assert!(
            matches!(err, PerfError::MeasureInvariant { .. }),
            "unexpected error: {err}"
        );
        assert!(err.to_string().contains("leaves the detected set"), "{err}");
    }

    #[test]
    fn computed_rho_close_to_paper() {
        let an = analysis();
        let (r1, r2) = an.rho();
        assert!((r1 - 0.98).abs() < 0.005);
        assert!((r2 - 0.95).abs() < 0.02);
    }

    #[test]
    fn sweep_grid_covers_endpoints() {
        let an = analysis();
        let pts = an.sweep_grid(4).unwrap();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0].phi, 0.0);
        assert_eq!(pts[4].phi, 10_000.0);
    }

    #[test]
    fn optimal_phi_is_interior_and_beats_endpoints() {
        let an = analysis();
        let best = an.optimal_phi(10, 12).unwrap();
        let y0 = an.evaluate(0.0).unwrap().y;
        let y_theta = an.evaluate(10_000.0).unwrap().y;
        assert!(best.y >= y0);
        assert!(best.y >= y_theta);
        assert!(best.phi > 0.0);
    }
}
