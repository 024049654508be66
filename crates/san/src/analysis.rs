//! End-to-end reward model solution on a SAN.

use std::sync::{Arc, Mutex};

use markov::lump::Lumping;
use markov::{transient, Ctmc};

use crate::{Marking, ReachabilityOptions, Result, RewardSpec, SanModel, StateSpace};

/// Convenience front end bundling a generated [`StateSpace`] with solver
/// configuration: the three reward variables of the paper (instant-of-time,
/// accumulated interval-of-time, steady-state) in one call each.
///
/// The stationary distribution is solved at most once per analyzer: every
/// steady-state query shares the cached vector (see
/// [`Analyzer::steady_distribution`]).
///
/// See the [crate-level example](crate) for usage.
pub struct Analyzer {
    space: StateSpace,
    transient_options: transient::Options,
    steady_cache: Mutex<Option<Arc<Vec<f64>>>>,
}

impl Analyzer {
    /// Generates the state space of `model` and wraps it with default solver
    /// options.
    ///
    /// # Errors
    ///
    /// Propagates reachability failures (state-space limit, vanishing loops,
    /// invalid marking functions).
    pub fn generate(model: &SanModel, opts: &ReachabilityOptions) -> Result<Self> {
        Ok(Analyzer::from_state_space(StateSpace::generate(
            model, opts,
        )?))
    }

    /// Wraps an already generated state space.
    pub fn from_state_space(space: StateSpace) -> Self {
        Analyzer {
            space,
            transient_options: transient::Options::default(),
            steady_cache: Mutex::new(None),
        }
    }

    /// Replaces the transient solver options.
    pub fn with_transient_options(mut self, options: transient::Options) -> Self {
        self.transient_options = options;
        self
    }

    /// The underlying state space.
    pub fn state_space(&self) -> &StateSpace {
        &self.space
    }

    /// The state distribution at time `t` starting from the model's initial
    /// distribution.
    ///
    /// # Errors
    ///
    /// Propagates transient-solver failures.
    pub fn distribution_at(&self, t: f64) -> Result<Vec<f64>> {
        Ok(transient::distribution(
            self.space.ctmc(),
            self.space.initial_distribution(),
            t,
            &self.transient_options,
        )?)
    }

    /// The chain lumped by `observe`: the coarsest ordinarily lumpable
    /// partition of the states that refines the observation of their
    /// markings (see [`markov::lump`]), with its quotient, the aggregated
    /// initial distribution and the block of every state. Every class sum
    /// of `π(t)` and `L(t)` over the observation's classes comes off the
    /// quotient; the quotient is solved with this analyzer's transient
    /// options.
    ///
    /// # Errors
    ///
    /// Propagates lumping failures.
    pub fn lumped<F: Fn(&Marking) -> u64>(&self, observe: F) -> Result<LumpedChain> {
        let space = &self.space;
        let observation: Vec<u64> = (0..space.n_states())
            .map(|s| observe(space.marking(s)))
            .collect();
        let lumping = Lumping::coarsest(space.ctmc(), &observation)?;
        Ok(LumpedChain {
            initial: lumping.aggregate(space.initial_distribution()),
            lumping,
            transient_options: self.transient_options.clone(),
        })
    }

    /// Expected **instant-of-time** reward at time `t`.
    ///
    /// # Errors
    ///
    /// Propagates transient-solver failures.
    pub fn instant_reward(&self, spec: &RewardSpec, t: f64) -> Result<f64> {
        let pi = self.distribution_at(t)?;
        Ok(spec.to_structure(&self.space).instant(&pi))
    }

    /// Expected **accumulated interval-of-time** reward over `[0, t]`.
    ///
    /// # Errors
    ///
    /// Propagates transient-solver failures.
    pub fn accumulated_reward(&self, spec: &RewardSpec, t: f64) -> Result<f64> {
        let l = transient::occupancy(
            self.space.ctmc(),
            self.space.initial_distribution(),
            t,
            &self.transient_options,
        )?;
        Ok(spec
            .to_structure(&self.space)
            .accumulated(self.space.ctmc(), &l)?)
    }

    /// The stationary distribution, solved on first use and cached: reward
    /// queries that need π more than once (e.g. a rate and an impulse
    /// variable on the same model) pay for a single solve.
    ///
    /// # Errors
    ///
    /// Propagates steady-state solver failures (e.g. a reducible chain).
    pub fn steady_distribution(&self) -> Result<Arc<Vec<f64>>> {
        {
            let cache = self.steady_cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(pi) = cache.as_ref() {
                return Ok(Arc::clone(pi));
            }
        }
        let pi = Arc::new(markov::steady::steady_state(self.space.ctmc())?);
        let mut cache = self.steady_cache.lock().unwrap_or_else(|e| e.into_inner());
        *cache = Some(Arc::clone(&pi));
        Ok(pi)
    }

    /// Expected **steady-state** reward.
    ///
    /// # Errors
    ///
    /// Propagates steady-state solver failures (e.g. a reducible chain).
    pub fn steady_reward(&self, spec: &RewardSpec) -> Result<f64> {
        let pi = self.steady_distribution()?;
        Ok(spec.to_structure(&self.space).instant(&pi))
    }

    /// The probability that the marking satisfies `predicate` at time `t`.
    ///
    /// # Errors
    ///
    /// Propagates transient-solver failures.
    pub fn probability_at<F: Fn(&Marking) -> bool>(&self, t: f64, predicate: F) -> Result<f64> {
        let pi = self.distribution_at(t)?;
        Ok(self.space.probability_of(&pi, predicate))
    }
}

/// A generated chain lumped by an observation of its markings
/// ([`Analyzer::lumped`]): the quotient chain and its initial distribution,
/// solved in place of the full chain for measures that read states only
/// through the observation.
#[derive(Debug, Clone)]
pub struct LumpedChain {
    lumping: Lumping,
    initial: Vec<f64>,
    transient_options: transient::Options,
}

impl LumpedChain {
    /// The quotient chain, one state per block.
    pub fn ctmc(&self) -> &Ctmc {
        self.lumping.quotient()
    }

    /// The full chain's initial distribution, summed per block.
    pub fn initial_distribution(&self) -> &[f64] {
        &self.initial
    }

    /// The block of every state of the full chain.
    pub fn block_of(&self) -> &[usize] {
        self.lumping.block_of()
    }

    /// The blocks holding any of the full chain's `states`, ascending — a
    /// whole observation class when `states` is one.
    pub fn blocks_of(&self, states: &[usize]) -> Vec<usize> {
        self.lumping.blocks_of(states)
    }

    /// The block distribution at every horizon of `times` (see
    /// [`transient::distribution_at_times`]).
    ///
    /// # Errors
    ///
    /// Propagates transient-solver failures.
    pub fn distribution_at_times(&self, times: &[f64]) -> Result<Vec<Vec<f64>>> {
        Ok(transient::distribution_at_times(
            self.ctmc(),
            &self.initial,
            times,
            &self.transient_options,
        )?)
    }

    /// The block distribution and block occupancy at every horizon of
    /// `times` (see [`transient::distribution_and_occupancy_at_times`]).
    ///
    /// # Errors
    ///
    /// Propagates transient-solver failures.
    pub fn distribution_and_occupancy_at_times(
        &self,
        times: &[f64],
    ) -> Result<Vec<(Vec<f64>, Vec<f64>)>> {
        Ok(transient::distribution_and_occupancy_at_times(
            self.ctmc(),
            &self.initial,
            times,
            &self.transient_options,
        )?)
    }
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field("space", &self.space)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Activity;

    /// Two-state failure/repair SAN used across the tests.
    fn up_down(fail: f64, repair: f64) -> (SanModel, crate::PlaceId) {
        let mut m = SanModel::new("updown");
        let up = m.add_place("up", 1);
        m.add_activity(Activity::timed("fail", fail).with_input_arc(up, 1))
            .unwrap();
        m.add_activity(
            Activity::timed("repair", repair)
                .with_output_arc(up, 1)
                .with_enabling(move |mk| mk.tokens(up) == 0),
        )
        .unwrap();
        (m, up)
    }

    #[test]
    fn steady_availability_closed_form() {
        let (m, up) = up_down(0.1, 1.0);
        let an = Analyzer::generate(&m, &Default::default()).unwrap();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let a = an.steady_reward(&spec).unwrap();
        assert!((a - 10.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn transient_availability_closed_form() {
        let (m, up) = up_down(0.5, 1.5);
        let an = Analyzer::generate(&m, &Default::default()).unwrap();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let t = 0.8;
        let got = an.instant_reward(&spec, t).unwrap();
        // p_up(t) = µ/(λ+µ) + λ/(λ+µ)·e^{−(λ+µ)t}.
        let want = 1.5 / 2.0 + 0.5 / 2.0 * (-2.0f64 * t).exp();
        assert!((got - want).abs() < 1e-9);
    }

    #[test]
    fn accumulated_uptime_closed_form() {
        let (m, up) = up_down(0.5, 1.5);
        let an = Analyzer::generate(&m, &Default::default()).unwrap();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let t = 2.0;
        let got = an.accumulated_reward(&spec, t).unwrap();
        // ∫₀ᵗ p_up = (µ/(λ+µ))·t + (λ/(λ+µ)²)(1 − e^{−(λ+µ)t}).
        let want = 0.75 * t + 0.5 / 4.0 * (1.0 - (-2.0f64 * t).exp());
        assert!((got - want).abs() < 1e-9);
    }

    #[test]
    fn probability_at_complements() {
        let (m, up) = up_down(1.0, 1.0);
        let an = Analyzer::generate(&m, &Default::default()).unwrap();
        let p_up = an
            .probability_at(0.7, move |mk| mk.tokens(up) == 1)
            .unwrap();
        let p_down = an
            .probability_at(0.7, move |mk| mk.tokens(up) == 0)
            .unwrap();
        assert!((p_up + p_down - 1.0).abs() < 1e-12);
    }

    #[test]
    fn steady_distribution_is_cached() {
        let (m, up) = up_down(0.1, 1.0);
        let an = Analyzer::generate(&m, &Default::default()).unwrap();
        let first = an.steady_distribution().unwrap();
        let second = an.steady_distribution().unwrap();
        // Same allocation: the second query reused the cached solve.
        assert!(std::sync::Arc::ptr_eq(&first, &second));

        // The reward reads the cached vector: availability µ/(λ+µ).
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let a = an.steady_reward(&spec).unwrap();
        assert!((a - 10.0 / 11.0).abs() < 1e-8);
        assert!(std::sync::Arc::ptr_eq(
            &first,
            &an.steady_distribution().unwrap()
        ));
    }

    #[test]
    fn steady_reward_of_absorbing_unichain_is_point_mass() {
        // Absorbing failure with no repair: the long-run distribution puts
        // all mass on the failed state (unichain semantics).
        let mut m = SanModel::new("absorbing");
        let up = m.add_place("up", 1);
        m.add_activity(Activity::timed("fail", 1.0).with_input_arc(up, 1))
            .unwrap();
        let an = Analyzer::generate(&m, &Default::default()).unwrap();
        let up_spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        assert_eq!(an.steady_reward(&up_spec).unwrap(), 0.0);
    }

    #[test]
    fn steady_reward_of_truly_reducible_chain_errors() {
        // Two absorbing states reached probabilistically: the long-run
        // distribution depends on chance, so the solver must refuse.
        let mut m2 = SanModel::new("competing");
        let live = m2.add_place("live", 1);
        let x = m2.add_place("x", 0);
        let y = m2.add_place("y", 0);
        m2.add_activity(
            Activity::timed("branch", 1.0)
                .with_input_arc(live, 1)
                .with_case(crate::Case::with_probability(0.5).with_output_arc(x, 1))
                .with_case(crate::Case::with_probability(0.5).with_output_arc(y, 1)),
        )
        .unwrap();
        let an = Analyzer::generate(&m2, &Default::default()).unwrap();
        let spec = RewardSpec::new().rate_when(|_| true, 1.0);
        assert!(an.steady_reward(&spec).is_err());
    }
}
