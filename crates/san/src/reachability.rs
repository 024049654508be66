//! Reachability-graph generation with vanishing-marking elimination.
//!
//! The generator explores the tangible markings of a SAN breadth-first.
//! Markings that enable an instantaneous activity (*vanishing* markings)
//! never appear in the final state space: they are resolved on the fly into
//! probability distributions over their tangible successors, exactly as
//! UltraSAN's reduced-base-model generator did. The result is a
//! [`markov::Ctmc`] over tangible markings plus the bookkeeping needed to
//! map reward predicates onto states.

use std::collections::{BTreeMap, HashMap, VecDeque};

use markov::Ctmc;

use crate::model::{ActivityId, SanModel};
use crate::semantics;
use crate::{Marking, Result, SanError};

/// Options for [`StateSpace::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReachabilityOptions {
    /// Maximum number of tangible states before generation aborts.
    pub max_states: usize,
    /// Maximum chain length of instantaneous firings while resolving one
    /// vanishing marking (loop guard).
    pub max_vanishing_depth: usize,
}

impl Default for ReachabilityOptions {
    fn default() -> Self {
        ReachabilityOptions {
            max_states: 500_000,
            max_vanishing_depth: 128,
        }
    }
}

/// The tangible state space of a SAN together with its CTMC.
pub struct StateSpace {
    model_name: String,
    states: Vec<Marking>,
    index: HashMap<Marking, usize>,
    ctmc: Ctmc,
    initial_distribution: Vec<f64>,
    /// Total rate of self-loop transitions that were dropped during
    /// generation (a timed firing that leads back to the same tangible
    /// marking is a null event for the CTMC).
    dropped_self_loop_rate: f64,
    /// Whether each activity (by id) completes in some tangible state.
    completes: Vec<bool>,
}

impl StateSpace {
    /// Generates the tangible reachability graph of `model`.
    ///
    /// # Errors
    ///
    /// * [`SanError::StateSpaceLimit`] when more than
    ///   `opts.max_states` tangible markings are reachable.
    /// * [`SanError::VanishingLoop`] when instantaneous activities cycle.
    /// * [`SanError::InvalidFunction`] when a rate or case probability
    ///   evaluates to an invalid value.
    pub fn generate(model: &SanModel, opts: &ReachabilityOptions) -> Result<Self> {
        let mut span = telemetry::span("san.generate");
        span.record("model", model.name());
        let mut states: Vec<Marking> = Vec::new();
        let mut index: HashMap<Marking, usize> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut transitions: Vec<(usize, usize, f64)> = Vec::new();
        let mut completes = vec![false; model.n_activities()];
        let mut dropped_self_loop_rate = 0.0;

        let intern = |mk: Marking,
                      states: &mut Vec<Marking>,
                      index: &mut HashMap<Marking, usize>,
                      queue: &mut VecDeque<usize>|
         -> usize {
            if let Some(&i) = index.get(&mk) {
                return i;
            }
            let i = states.len();
            states.push(mk.clone());
            index.insert(mk, i);
            queue.push_back(i);
            i
        };

        // Resolve the initial marking (it may itself be vanishing).
        let initial = resolve_vanishing(model, model.initial_marking(), opts, 0)?;
        let mut initial_pairs: Vec<(usize, f64)> = Vec::new();
        for (mk, p) in initial {
            let i = intern(mk, &mut states, &mut index, &mut queue);
            initial_pairs.push((i, p));
        }

        while let Some(si) = queue.pop_front() {
            if states.len() > opts.max_states {
                return Err(SanError::StateSpaceLimit {
                    limit: opts.max_states,
                });
            }
            let marking = states[si].clone();
            for (act, rate) in semantics::enabled_timed(model, &marking)? {
                for (case, case_p) in semantics::case_distribution(model, act, &marking)? {
                    let fired = semantics::fire(model, act, case, &marking)?;
                    for (tangible, q) in resolve_vanishing(model, fired, opts, 0)
                        .map_err(|e| annotate_activity(e, model, act))?
                    {
                        let ti = intern(tangible, &mut states, &mut index, &mut queue);
                        let r = rate * case_p * q;
                        completes[act.index()] = true;
                        if ti == si {
                            dropped_self_loop_rate += r;
                        } else {
                            transitions.push((si, ti, r));
                        }
                    }
                }
            }
        }

        let n = states.len();
        if telemetry::enabled() {
            let slug = model.name().to_lowercase().replace([' ', '/'], "_");
            telemetry::counter("san.generations", 1);
            telemetry::counter("san.states.generated", n as u64);
            telemetry::counter("san.transitions.generated", transitions.len() as u64);
            telemetry::gauge(&format!("san.states.{slug}"), n as f64);
            telemetry::gauge(&format!("san.transitions.{slug}"), transitions.len() as f64);
            telemetry::gauge(
                &format!("san.dropped_self_loop_rate.{slug}"),
                dropped_self_loop_rate,
            );
            span.record("states", n);
            span.record("transitions", transitions.len());
            span.record("dropped_self_loop_rate", dropped_self_loop_rate);
            if dropped_self_loop_rate > 0.0 {
                telemetry::warning(&format!(
                    "model {}: dropped tangible self-loop rate {dropped_self_loop_rate:.6e} \
                     during reachability generation",
                    model.name()
                ));
            }
        }
        let ctmc = Ctmc::from_transitions(n, transitions)?;
        let mut initial_distribution = vec![0.0; n];
        for (i, p) in initial_pairs {
            initial_distribution[i] += p;
        }

        Ok(StateSpace {
            model_name: model.name().to_string(),
            states,
            index,
            ctmc,
            initial_distribution,
            dropped_self_loop_rate,
            completes,
        })
    }

    /// Name of the model this space was generated from.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// Number of tangible states.
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// The tangible marking of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_states()`.
    pub fn marking(&self, i: usize) -> &Marking {
        &self.states[i]
    }

    /// The state index of `marking`, if tangible and reachable.
    pub fn state_of(&self, marking: &Marking) -> Option<usize> {
        self.index.get(marking).copied()
    }

    /// The generated CTMC over tangible states.
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }

    /// The initial probability distribution over tangible states (a point
    /// mass unless the initial marking was vanishing with probabilistic
    /// resolution).
    pub fn initial_distribution(&self) -> &[f64] {
        &self.initial_distribution
    }

    /// Indices of all states whose marking satisfies `predicate`.
    pub fn states_where<F: Fn(&Marking) -> bool>(&self, predicate: F) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, m)| predicate(m))
            .map(|(i, _)| i)
            .collect()
    }

    /// Total probability of `predicate` under a state distribution `pi`.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != self.n_states()`.
    pub fn probability_of<F: Fn(&Marking) -> bool>(&self, pi: &[f64], predicate: F) -> f64 {
        assert_eq!(pi.len(), self.n_states(), "probability_of: length mismatch");
        self.states
            .iter()
            .zip(pi)
            .filter(|(m, _)| predicate(m))
            .map(|(_, p)| p)
            .sum()
    }

    /// Total rate mass of dropped tangible self-loops (diagnostic).
    pub fn dropped_self_loop_rate(&self) -> f64 {
        self.dropped_self_loop_rate
    }

    /// `true` when `activity` completes in some reachable tangible state
    /// (self-loop completions included).
    pub(crate) fn fires(&self, activity: ActivityId) -> bool {
        self.completes[activity.index()]
    }
}

impl std::fmt::Debug for StateSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateSpace")
            .field("model", &self.model_name)
            .field("states", &self.states.len())
            .field("transitions", &self.ctmc.transitions().count())
            .finish()
    }
}

fn annotate_activity(e: SanError, model: &SanModel, act: ActivityId) -> SanError {
    match e {
        SanError::VanishingLoop { depth, .. } => SanError::VanishingLoop {
            depth,
            activity: model.activity_name(act).to_string(),
        },
        other => other,
    }
}

/// Resolves a possibly-vanishing marking into its distribution over tangible
/// markings by exhaustively firing instantaneous activities.
fn resolve_vanishing(
    model: &SanModel,
    marking: Marking,
    opts: &ReachabilityOptions,
    depth: usize,
) -> Result<Vec<(Marking, f64)>> {
    let instantaneous = semantics::enabled_instantaneous(model, &marking)?;
    if instantaneous.is_empty() {
        return Ok(vec![(marking, 1.0)]);
    }
    if depth >= opts.max_vanishing_depth {
        return Err(SanError::VanishingLoop {
            depth,
            activity: String::from("<unknown>"),
        });
    }
    // BTreeMap, not HashMap: the successor list this returns drives the BFS
    // discovery order, and with it the state numbering of the tangible
    // chain. Hash order would renumber states from process to process.
    let mut merged: BTreeMap<Marking, f64> = BTreeMap::new();
    for (act, sel_p) in instantaneous {
        for (case, case_p) in semantics::case_distribution(model, act, &marking)? {
            let fired = semantics::fire(model, act, case, &marking)?;
            for (tangible, q) in resolve_vanishing(model, fired, opts, depth + 1)
                .map_err(|e| annotate_activity(e, model, act))?
            {
                *merged.entry(tangible).or_insert(0.0) += sel_p * case_p * q;
            }
        }
    }
    Ok(merged.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Activity, Case};

    #[test]
    fn birth_death_statespace() {
        // M/M/1/3: 4 tangible states, birth rate 2, death rate 3.
        let mut m = SanModel::new("mm13");
        let q = m.add_place("q", 0);
        m.add_activity(
            Activity::timed("arrive", 2.0)
                .with_output_arc(q, 1)
                .with_enabling(move |mk| mk.tokens(q) < 3),
        )
        .unwrap();
        m.add_activity(Activity::timed("serve", 3.0).with_input_arc(q, 1))
            .unwrap();

        let ss = StateSpace::generate(&m, &Default::default()).unwrap();
        assert_eq!(ss.n_states(), 4);
        assert_eq!(ss.initial_distribution()[0], 1.0);
        // Transition structure: i -> i+1 at 2.0, i -> i-1 at 3.0.
        let s0 = ss
            .state_of(&Marking::from_tokens(vec![0]))
            .expect("empty queue state");
        let s1 = ss.state_of(&Marking::from_tokens(vec![1])).unwrap();
        assert_eq!(ss.ctmc().generator().get(s0, s1), 2.0);
        assert_eq!(ss.ctmc().generator().get(s1, s0), 3.0);
        assert_eq!(ss.dropped_self_loop_rate(), 0.0);
    }

    #[test]
    fn vanishing_markings_are_eliminated() {
        // Timed a: p -> q; instantaneous: q -> r. Tangible states never
        // show a token in q.
        let mut m = SanModel::new("van");
        let p = m.add_place("p", 1);
        let q = m.add_place("q", 0);
        let r = m.add_place("r", 0);
        m.add_activity(
            Activity::timed("slow", 1.0)
                .with_input_arc(p, 1)
                .with_output_arc(q, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::instantaneous("fast")
                .with_input_arc(q, 1)
                .with_output_arc(r, 1),
        )
        .unwrap();

        let ss = StateSpace::generate(&m, &Default::default()).unwrap();
        assert_eq!(ss.n_states(), 2);
        for i in 0..ss.n_states() {
            assert_eq!(ss.marking(i).tokens(q), 0, "state {i} should be tangible");
        }
        let dst = ss.state_of(&Marking::from_tokens(vec![0, 0, 1])).unwrap();
        let src = ss.state_of(&Marking::from_tokens(vec![1, 0, 0])).unwrap();
        assert_eq!(ss.ctmc().generator().get(src, dst), 1.0);
    }

    #[test]
    fn vanishing_chain_splits_probability() {
        // Timed -> vanishing with two cases 0.3/0.7 -> two tangible states.
        let mut m = SanModel::new("split");
        let p = m.add_place("p", 1);
        let mid = m.add_place("mid", 0);
        let a = m.add_place("a", 0);
        let b = m.add_place("b", 0);
        m.add_activity(
            Activity::timed("t", 5.0)
                .with_input_arc(p, 1)
                .with_output_arc(mid, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::instantaneous("branch")
                .with_input_arc(mid, 1)
                .with_case(Case::with_probability(0.3).with_output_arc(a, 1))
                .with_case(Case::with_probability(0.7).with_output_arc(b, 1)),
        )
        .unwrap();

        let ss = StateSpace::generate(&m, &Default::default()).unwrap();
        assert_eq!(ss.n_states(), 3);
        let src = ss
            .state_of(&Marking::from_tokens(vec![1, 0, 0, 0]))
            .unwrap();
        let sa = ss
            .state_of(&Marking::from_tokens(vec![0, 0, 1, 0]))
            .unwrap();
        let sb = ss
            .state_of(&Marking::from_tokens(vec![0, 0, 0, 1]))
            .unwrap();
        assert!((ss.ctmc().generator().get(src, sa) - 1.5).abs() < 1e-12);
        assert!((ss.ctmc().generator().get(src, sb) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn vanishing_initial_marking() {
        let mut m = SanModel::new("vinit");
        let p = m.add_place("p", 1);
        let q = m.add_place("q", 0);
        m.add_activity(
            Activity::instantaneous("init")
                .with_input_arc(p, 1)
                .with_output_arc(q, 1),
        )
        .unwrap();
        m.add_activity(Activity::timed("tick", 1.0).with_input_arc(q, 1))
            .unwrap();

        let ss = StateSpace::generate(&m, &Default::default()).unwrap();
        assert_eq!(ss.n_states(), 2);
        let init_state = ss.state_of(&Marking::from_tokens(vec![0, 1])).unwrap();
        assert_eq!(ss.initial_distribution()[init_state], 1.0);
    }

    #[test]
    fn instantaneous_loop_is_detected() {
        let mut m = SanModel::new("loop");
        let p = m.add_place("p", 1);
        let q = m.add_place("q", 0);
        m.add_activity(
            Activity::instantaneous("pq")
                .with_input_arc(p, 1)
                .with_output_arc(q, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::instantaneous("qp")
                .with_input_arc(q, 1)
                .with_output_arc(p, 1),
        )
        .unwrap();
        assert!(matches!(
            StateSpace::generate(&m, &Default::default()),
            Err(SanError::VanishingLoop { .. })
        ));
    }

    #[test]
    fn state_limit_enforced() {
        // Unbounded counter.
        let mut m = SanModel::new("unbounded");
        let p = m.add_place("p", 0);
        m.add_activity(Activity::timed("up", 1.0).with_output_arc(p, 1))
            .unwrap();
        let opts = ReachabilityOptions {
            max_states: 100,
            ..Default::default()
        };
        assert!(matches!(
            StateSpace::generate(&m, &opts),
            Err(SanError::StateSpaceLimit { limit: 100 })
        ));
    }

    #[test]
    fn self_loops_are_dropped_and_reported() {
        // Timed activity with a case that returns to the same marking.
        let mut m = SanModel::new("selfloop");
        let p = m.add_place("p", 1);
        let q = m.add_place("q", 0);
        m.add_activity(
            Activity::timed("maybe", 4.0)
                .with_case(Case::with_probability(0.5)) // no effect: self-loop
                .with_case(Case::with_probability(0.5).with_output_arc(q, 1))
                .with_enabling(move |mk| mk.tokens(q) == 0 && mk.tokens(p) == 1),
        )
        .unwrap();
        let ss = StateSpace::generate(&m, &Default::default()).unwrap();
        assert_eq!(ss.n_states(), 2);
        assert!((ss.dropped_self_loop_rate() - 2.0).abs() < 1e-12);
        let src = ss.state_of(&Marking::from_tokens(vec![1, 0])).unwrap();
        assert!((ss.ctmc().exit_rate(src) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn states_where_and_probability_of() {
        let mut m = SanModel::new("mm12");
        let q = m.add_place("q", 0);
        m.add_activity(
            Activity::timed("in", 1.0)
                .with_output_arc(q, 1)
                .with_enabling(move |mk| mk.tokens(q) < 2),
        )
        .unwrap();
        m.add_activity(Activity::timed("out", 1.0).with_input_arc(q, 1))
            .unwrap();
        let ss = StateSpace::generate(&m, &Default::default()).unwrap();
        let busy = ss.states_where(|mk| mk.tokens(q) > 0);
        assert_eq!(busy.len(), 2);
        let uniform = vec![1.0 / 3.0; 3];
        assert!((ss.probability_of(&uniform, |mk| mk.tokens(q) > 0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn generation_is_deterministic() {
        let build = || {
            let mut m = SanModel::new("det");
            let q = m.add_place("q", 0);
            m.add_activity(
                Activity::timed("in", 1.5)
                    .with_output_arc(q, 1)
                    .with_enabling(move |mk| mk.tokens(q) < 5),
            )
            .unwrap();
            m.add_activity(Activity::timed("out", 2.5).with_input_arc(q, 1))
                .unwrap();
            StateSpace::generate(&m, &Default::default()).unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a.n_states(), b.n_states());
        for i in 0..a.n_states() {
            assert_eq!(a.marking(i), b.marking(i));
        }
        assert_eq!(a.ctmc().generator(), b.ctmc().generator());
    }
}
