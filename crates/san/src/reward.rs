//! UltraSAN-style predicate-rate reward structures on SAN state spaces.

use std::collections::BTreeMap;

use markov::reward::RewardStructure;

use crate::model::PredicateFn;
use crate::{ActivityId, Marking, StateSpace};

type RateValueFn = Box<dyn Fn(&Marking) -> f64 + Send + Sync>;

/// A reward variable specified as a list of **predicate–rate pairs** over
/// markings, exactly as UltraSAN's reward editor did (and as the paper's
/// Tables 1 and 2 list them).
///
/// A state's reward rate is the sum of the rates of all pairs whose
/// predicate holds in that state's marking.
///
/// # Example
///
/// ```
/// use san::{Activity, RewardSpec, SanModel, StateSpace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = SanModel::new("d");
/// let up = m.add_place("up", 1);
/// m.add_activity(Activity::timed("fail", 0.1).with_input_arc(up, 1))?;
/// let ss = StateSpace::generate(&m, &Default::default())?;
///
/// // Table-style spec: predicate MARK(up)==1, rate 1.
/// let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
/// let structure = spec.to_structure(&ss);
/// assert_eq!(structure.rates().iter().filter(|&&r| r == 1.0).count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct RewardSpec {
    pairs: Vec<(PredicateFn, RateValueFn)>,
    // Keyed map iterated when translating onto the tangible chain — a
    // BTreeMap keeps that translation order (and the float accumulation it
    // drives) identical across processes.
    impulses: BTreeMap<ActivityId, f64>,
}

impl RewardSpec {
    /// An empty specification (zero reward everywhere).
    pub fn new() -> Self {
        RewardSpec {
            pairs: Vec::new(),
            impulses: BTreeMap::new(),
        }
    }

    /// Adds a pair with a constant rate.
    pub fn rate_when<P>(mut self, predicate: P, rate: f64) -> Self
    where
        P: Fn(&Marking) -> bool + Send + Sync + 'static,
    {
        self.pairs
            .push((Box::new(predicate), Box::new(move |_| rate)));
        self
    }

    /// Adds a pair with a marking-dependent rate.
    pub fn rate_fn<P, R>(mut self, predicate: P, rate: R) -> Self
    where
        P: Fn(&Marking) -> bool + Send + Sync + 'static,
        R: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        self.pairs.push((Box::new(predicate), Box::new(rate)));
        self
    }

    /// Adds (accumulates) an **impulse reward** earned at every completion
    /// of the given timed activity — e.g. a cost per checkpoint or a count
    /// of acceptance tests. Impulse rewards contribute to accumulated and
    /// steady-rate variables, not to instant-of-time ones.
    pub fn impulse_on(mut self, activity: ActivityId, reward: f64) -> Self {
        *self.impulses.entry(activity).or_insert(0.0) += reward;
        self
    }

    /// Number of predicate-rate pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when impulse rewards are present.
    pub fn has_impulses(&self) -> bool {
        !self.impulses.is_empty()
    }

    /// `true` when no pairs have been added.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// For each predicate-rate pair (in insertion order), the number of
    /// reachable tangible states whose marking satisfies the predicate.
    ///
    /// A support of zero usually means the predicate references an
    /// unreachable marking (or a mistyped place) — the pair can never earn
    /// reward, which is almost always a specification bug.
    pub fn pair_support(&self, space: &StateSpace) -> Vec<usize> {
        self.pairs
            .iter()
            .map(|(p, _)| {
                (0..space.n_states())
                    .filter(|&i| p(space.marking(i)))
                    .count()
            })
            .collect()
    }

    /// The activities carrying impulse rewards, in ascending id order.
    pub fn impulse_activities(&self) -> Vec<ActivityId> {
        self.impulses.keys().copied().collect()
    }

    /// The reward rate of a single marking under this spec.
    pub fn rate_of(&self, marking: &Marking) -> f64 {
        self.pairs
            .iter()
            .filter(|(p, _)| p(marking))
            .map(|(_, r)| r(marking))
            .sum()
    }

    /// Maps the spec onto a generated state space, producing a
    /// [`RewardStructure`] usable with the `markov` solvers.
    ///
    /// Impulse rewards are translated onto the tangible chain: a flow
    /// `s → s'` of activity `a` at rate `r` contributes an expected reward
    /// rate `ρ(a)·r` while in `s`. For `s ≠ s'` this becomes a CTMC
    /// transition impulse `ρ(a)·r / q(s,s')`; self-flows (which have no
    /// CTMC transition) are folded into the state's rate reward — the two
    /// are equivalent in expectation.
    pub fn to_structure(&self, space: &StateSpace) -> RewardStructure {
        let mut rates: Vec<f64> = (0..space.n_states())
            .map(|i| self.rate_of(space.marking(i)))
            .collect();
        if self.impulses.is_empty() {
            return RewardStructure::from_rates(rates);
        }
        // Aggregate impulse mass per transition pair (ordered, so the
        // `with_impulse` insertion sequence below is deterministic).
        let mut pair_mass: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for flow in space.flows() {
            let Some(&reward) = self.impulses.get(&flow.activity) else {
                continue;
            };
            if flow.from == flow.to {
                rates[flow.from] += reward * flow.rate;
            } else {
                *pair_mass.entry((flow.from, flow.to)).or_insert(0.0) += reward * flow.rate;
            }
        }
        let mut structure = RewardStructure::from_rates(rates);
        for ((from, to), mass) in pair_mass {
            let q = space.ctmc().generator().get(from, to);
            if q > 0.0 {
                structure = structure.with_impulse(from, to, mass / q);
            }
        }
        structure
    }
}

impl std::fmt::Debug for RewardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RewardSpec")
            .field("pairs", &self.pairs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Activity, SanModel};

    fn two_state_space() -> (StateSpace, crate::PlaceId) {
        let mut m = SanModel::new("d");
        let up = m.add_place("up", 1);
        m.add_activity(Activity::timed("fail", 0.1).with_input_arc(up, 1))
            .unwrap();
        let ss = StateSpace::generate(&m, &Default::default()).unwrap();
        (ss, up)
    }

    #[test]
    fn pairs_sum_when_overlapping() {
        let (ss, up) = two_state_space();
        let spec = RewardSpec::new()
            .rate_when(move |mk| mk.tokens(up) == 1, 1.0)
            .rate_when(|_| true, 0.5);
        let st = spec.to_structure(&ss);
        let up_state = ss
            .state_of(&Marking::from_tokens(vec![1]))
            .expect("up state");
        let down_state = ss.state_of(&Marking::from_tokens(vec![0])).unwrap();
        assert_eq!(st.rates()[up_state], 1.5);
        assert_eq!(st.rates()[down_state], 0.5);
    }

    #[test]
    fn marking_dependent_rate() {
        let (ss, up) = two_state_space();
        let spec = RewardSpec::new().rate_fn(|_| true, move |mk| mk.tokens(up) as f64 * 3.0);
        let st = spec.to_structure(&ss);
        let up_state = ss.state_of(&Marking::from_tokens(vec![1])).unwrap();
        assert_eq!(st.rates()[up_state], 3.0);
    }

    #[test]
    fn empty_spec_is_zero() {
        let (ss, _) = two_state_space();
        let spec = RewardSpec::new();
        assert!(spec.is_empty());
        assert_eq!(spec.len(), 0);
        let st = spec.to_structure(&ss);
        assert!(st.rates().iter().all(|&r| r == 0.0));
    }

    #[test]
    fn impulse_counts_activity_completions() {
        // Pure death 0 -> 1 at rate µ with impulse 1: accumulated reward by
        // time t equals the expected number of completions, 1 − e^{−µt}.
        let mu = 0.4;
        let mut m = SanModel::new("death");
        let up = m.add_place("up", 1);
        let fail = m
            .add_activity(Activity::timed("fail", mu).with_input_arc(up, 1))
            .unwrap();
        let ss = StateSpace::generate(&m, &Default::default()).unwrap();
        let spec = RewardSpec::new().impulse_on(fail, 1.0);
        assert!(spec.has_impulses());
        let structure = spec.to_structure(&ss);
        let t = 2.5;
        let l = markov::transient::occupancy(
            ss.ctmc(),
            ss.initial_distribution(),
            t,
            &Default::default(),
        )
        .unwrap();
        let got = structure.accumulated(ss.ctmc(), &l).unwrap();
        let want = 1.0 - (-mu * t).exp();
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn self_flow_impulses_become_rate_rewards() {
        // An activity whose only case returns to the same marking: the flow
        // is a self-loop, yet its completions must still earn impulses.
        let mut m = SanModel::new("selfloop");
        let p = m.add_place("p", 1);
        let spin = m
            .add_activity(Activity::timed("spin", 3.0).with_enabling(move |mk| mk.tokens(p) == 1))
            .unwrap();
        let ss = StateSpace::generate(&m, &Default::default()).unwrap();
        assert_eq!(ss.n_states(), 1);
        let structure = RewardSpec::new().impulse_on(spin, 2.0).to_structure(&ss);
        // Expected reward rate = impulse · rate = 6 while in the state.
        assert_eq!(structure.rates()[0], 6.0);
    }

    #[test]
    fn throughput_at_steady_state() {
        // M/M/1/2: arrival throughput = λ·(1 − P[full]).
        let (lam, mu) = (1.0, 2.0);
        let mut m = SanModel::new("mm12");
        let q = m.add_place("q", 0);
        let arrive = m
            .add_activity(
                Activity::timed("arrive", lam)
                    .with_enabling(move |mk| mk.tokens(q) < 2)
                    .with_output_arc(q, 1),
            )
            .unwrap();
        m.add_activity(Activity::timed("serve", mu).with_input_arc(q, 1))
            .unwrap();
        let ss = StateSpace::generate(&m, &Default::default()).unwrap();
        let pi = markov::steady::steady_state(ss.ctmc()).unwrap();
        let rho = lam / mu;
        let z = 1.0 + rho + rho * rho;
        let p_full = rho * rho / z;
        let got = ss.activity_throughput(&pi, arrive);
        assert!((got - lam * (1.0 - p_full)).abs() < 1e-10);
    }

    #[test]
    fn rate_of_single_marking() {
        let spec = RewardSpec::new().rate_when(|mk: &Marking| mk.total_tokens() > 0, 2.0);
        assert_eq!(spec.rate_of(&Marking::from_tokens(vec![1])), 2.0);
        assert_eq!(spec.rate_of(&Marking::from_tokens(vec![0])), 0.0);
    }
}
