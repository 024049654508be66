//! UltraSAN-style predicate-rate reward structures on SAN state spaces.

use markov::reward::RewardStructure;

use crate::model::PredicateFn;
use crate::{Marking, StateSpace};

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
}

impl RewardSpec {
    /// An empty specification (zero reward everywhere).
    pub fn new() -> Self {
        RewardSpec { pairs: Vec::new() }
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

    /// Number of predicate-rate pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
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
    pub fn to_structure(&self, space: &StateSpace) -> RewardStructure {
        RewardStructure::from_rates(
            (0..space.n_states())
                .map(|i| self.rate_of(space.marking(i)))
                .collect(),
        )
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
    fn rate_of_single_marking() {
        let spec = RewardSpec::new().rate_when(|mk: &Marking| mk.total_tokens() > 0, 2.0);
        assert_eq!(spec.rate_of(&Marking::from_tokens(vec![1])), 2.0);
        assert_eq!(spec.rate_of(&Marking::from_tokens(vec![0])), 0.0);
    }
}
