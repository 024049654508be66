//! Reachability-graph generation with vanishing-marking elimination.
//!
//! The generator explores the tangible markings of a SAN breadth-first.
//! Markings that enable an instantaneous activity (*vanishing* markings)
//! never appear in the final state space: they are resolved on the fly into
//! probability distributions over their tangible successors, exactly as
//! UltraSAN's reduced-base-model generator did. The result is a
//! [`markov::Ctmc`] over tangible markings plus the bookkeeping needed to
//! map reward predicates onto states.
//!
//! The generator also records what it evaluated, in order: at each tangible
//! state the enabled timed activities and their cases, at each vanishing
//! marking the instantaneous activities and their cases, and the tangible
//! state every term landed on. [`StateSpace::generate_recorded`] returns that
//! tape as a [`Derivation`], and [`Derivation::refresh`] replays it against
//! a model built with other numbers. A refresh re-evaluates rates, case
//! probabilities and instantaneous weights at the stored markings: it fires
//! nothing and searches nothing, and sums the same terms in the same order,
//! so it returns bit for bit the space `generate` would. It declines when
//! the model's shape or zero pattern moved.

use std::sync::Arc;

use markov::Ctmc;

use crate::model::{self, ActivityId, ReplicaGroup, SanModel, ShapeToken};
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
    /// Shared with the [`Derivation`] the space came from or refreshed from.
    markings: Arc<Markings>,
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
        Ok(explore(model, opts)?.0)
    }

    /// Generates like [`StateSpace::generate`] and also returns the
    /// generator's tape, from which [`Derivation::refresh`] rebuilds the
    /// space of a model with the same structure and other numbers.
    ///
    /// # Errors
    ///
    /// The errors of [`StateSpace::generate`].
    pub fn generate_recorded(
        model: &SanModel,
        opts: &ReachabilityOptions,
    ) -> Result<(Self, Derivation)> {
        let (space, tape) = explore(model, opts)?;
        let derivation = Derivation {
            shape: Shape::of(model),
            markings: Arc::clone(&space.markings),
            completes: space.completes.clone(),
            tape,
        };
        Ok((space, derivation))
    }

    /// Name of the model this space was generated from.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// Number of tangible states.
    pub fn n_states(&self) -> usize {
        self.markings.states.len()
    }

    /// The tangible marking of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_states()`.
    pub fn marking(&self, i: usize) -> &Marking {
        &self.markings.states[i]
    }

    /// The state index of `marking`, if tangible and reachable. On the
    /// quotient of a model with replica groups
    /// ([`SanModel::add_replica_group`]) a marking is looked up by its
    /// canonical form, so every permutation of the replicas resolves to the
    /// same state.
    pub fn state_of(&self, marking: &Marking) -> Option<usize> {
        let markings = &*self.markings;
        if marking.n_places() != markings.states[0].n_places() {
            return None;
        }
        let mut canonical = marking.clone();
        model::canonicalize(&markings.replicas, &mut canonical);
        markings.find(&canonical).1
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
        self.markings
            .states
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
        self.markings
            .states
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
            .field("states", &self.n_states())
            .field("transitions", &self.ctmc.transitions().count())
            .finish()
    }
}

/// What [`StateSpace::generate_recorded`] evaluated, in order: the tape
/// [`Derivation::refresh`] replays.
///
/// It holds the model's shape, the tangible markings (shared with every
/// space generated or refreshed from it), and a flat record of the
/// derivation: at each tangible state the enabled timed activities and the
/// cases they take with positive probability, at each vanishing marking the
/// same for its instantaneous activities, and the tangible state every term
/// of the generator landed on.
pub struct Derivation {
    shape: Shape,
    markings: Arc<Markings>,
    completes: Vec<bool>,
    tape: Tape,
}

impl Derivation {
    /// The state space of `model` rebuilt from this tape, or `None` when the
    /// tape does not fit it and the model must be generated cold.
    ///
    /// The refresh re-runs the generator's closure calls at the stored
    /// markings (`enabled_timed`, `case_distribution` and
    /// `enabled_instantaneous`) and nothing else: no firing, no search, no
    /// hashing. It sums the same terms in the same order and builds the chain
    /// from the same transition list, so the space it returns is bit for bit
    /// the one [`StateSpace::generate`] returns for `model`.
    ///
    /// It declines on a different model shape (place and activity names,
    /// kinds and priorities, arcs, gates, enabling predicates, case counts,
    /// initial marking), on a different set of enabled activities or of
    /// positive cases at any stored marking, and on any evaluation error
    /// (the cold generation then reports it).
    ///
    /// Gate functions and arcs are taken as structural: a model whose gates
    /// move tokens differently under the same shape is outside the contract.
    pub fn refresh(&self, model: &SanModel) -> Option<StateSpace> {
        let mut span = telemetry::span("san.refresh");
        span.record("model", model.name());
        let refreshed = self.replay(model);
        if telemetry::enabled() {
            match &refreshed {
                Some((space, transitions)) => {
                    telemetry::counter("san.refreshes", 1);
                    report_space(&mut span, model, space, *transitions);
                }
                None => span.record("declined", 1u64),
            }
        }
        refreshed.map(|(space, _)| space)
    }

    /// The refreshed space and the length of its transition list.
    fn replay(&self, model: &SanModel) -> Option<(StateSpace, usize)> {
        if !self.shape.matches(model) {
            return None;
        }
        let tape = &self.tape;
        let states = &self.markings.states;
        let mut transitions = Vec::with_capacity(tape.targets.len());
        let mut dropped_self_loop_rate = 0.0;
        let mut targets = tape.targets.iter();
        let (mut acts, mut cases) = (tape.acts.iter(), tape.cases.iter());
        let (mut timed, mut distribution) = (Vec::new(), Vec::new());
        for (si, marking) in states.iter().enumerate() {
            if !semantics::enabled_instantaneous(model, marking)
                .ok()?
                .is_empty()
            {
                return None;
            }
            semantics::enabled_timed(model, marking, &mut timed).ok()?;
            if timed.len() != tape.fan[si] {
                return None;
            }
            for &(act, rate) in &timed {
                let &(recorded, n_cases) = acts.next()?;
                semantics::case_distribution(model, act, marking, &mut distribution).ok()?;
                if act != recorded || distribution.len() != n_cases {
                    return None;
                }
                for &(case, case_p) in &distribution {
                    let &(recorded, landing) = cases.next()?;
                    if case != recorded {
                        return None;
                    }
                    let mut land = |q: f64| -> Option<()> {
                        let ti = *targets.next()?;
                        let r = term(rate, case_p, q);
                        if ti == si {
                            dropped_self_loop_rate += r;
                        } else {
                            transitions.push((si, ti, r));
                        }
                        Some(())
                    };
                    match landing {
                        None => land(1.0)?,
                        Some(node) => {
                            for q in self.resolve(model, node)? {
                                land(q)?;
                            }
                        }
                    }
                }
            }
        }

        let n = states.len();
        let mut initial_distribution = vec![0.0; n];
        let (landing, initial_targets) = &tape.initial;
        match *landing {
            None => initial_distribution[initial_targets[0]] += 1.0,
            Some(node) => {
                for (q, &i) in self.resolve(model, node)?.into_iter().zip(initial_targets) {
                    initial_distribution[i] += q;
                }
            }
        }
        let n_transitions = transitions.len();
        let ctmc = Ctmc::from_transitions(n, transitions).ok()?;
        let space = StateSpace {
            model_name: model.name().to_string(),
            markings: Arc::clone(&self.markings),
            ctmc,
            initial_distribution,
            dropped_self_loop_rate,
            completes: self.completes.clone(),
        };
        Some((space, n_transitions))
    }

    /// Re-evaluates the vanishing marking of `node`: its distribution over
    /// tangible markings, in the order the generator merged it.
    fn resolve(&self, model: &SanModel, node: usize) -> Option<Vec<f64>> {
        let node = &self.tape.nodes[node];
        let enabled = semantics::enabled_instantaneous(model, &node.marking).ok()?;
        if enabled.len() != node.acts.len() {
            return None;
        }
        let mut sums = vec![0.0; node.width];
        let mut slots = node.slots.iter();
        let mut cases = node.cases.iter();
        let mut distribution = Vec::new();
        for ((act, sel_p), &(recorded, n_cases)) in enabled.into_iter().zip(&node.acts) {
            semantics::case_distribution(model, act, &node.marking, &mut distribution).ok()?;
            if act != recorded || distribution.len() != n_cases {
                return None;
            }
            for &(case, case_p) in &distribution {
                let &(recorded, landing) = cases.next()?;
                if case != recorded {
                    return None;
                }
                let qs = match landing {
                    None => vec![1.0],
                    Some(child) => self.resolve(model, child)?,
                };
                for q in qs {
                    sums[*slots.next()?] += term(sel_p, case_p, q);
                }
            }
        }
        Some(sums)
    }
}

impl std::fmt::Debug for Derivation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Derivation")
            .field("states", &self.markings.states.len())
            .field("terms", &self.tape.targets.len())
            .field("vanishing", &self.tape.nodes.len())
            .finish()
    }
}

/// Where a firing (or the initial marking) went: `None` for a tangible
/// marking, or the vanishing node it was resolved through.
type Landing = Option<usize>;

/// A distribution over tangible markings, in marking order.
type Distribution = Vec<(Marking, f64)>;

/// The generator's record.
#[derive(Default)]
struct Tape {
    /// Per tangible state, the number of timed activities it enables.
    fan: Vec<usize>,
    /// Per enabled timed activity, in order: its id and the number of its
    /// cases with positive probability.
    acts: Vec<(ActivityId, usize)>,
    /// Per positive case, in order: its index and its landing.
    cases: Vec<(usize, Landing)>,
    /// Per term of the generator, in order: the tangible state it landed on.
    targets: Vec<usize>,
    /// The initial marking's landing and the tangible states it resolved to.
    initial: (Landing, Vec<usize>),
    /// The resolved vanishing markings, each child before its parent.
    nodes: Vec<Node>,
}

/// One resolved vanishing marking.
struct Node {
    marking: Marking,
    /// The enabled instantaneous activities and their positive-case counts.
    acts: Vec<(ActivityId, usize)>,
    /// Per positive case: its index and its landing.
    cases: Vec<(usize, Landing)>,
    /// Per contribution, in order: the position of the tangible marking it
    /// adds to.
    slots: Vec<usize>,
    /// The number of tangible markings the node resolves into.
    width: usize,
}

/// One term of the generator: a rate (or selection probability) times a case
/// probability times the probability of the tangible marking reached.
/// Generation and refresh share it, so both compute the same floats.
fn term(weight: f64, case_p: f64, q: f64) -> f64 {
    weight * case_p * q
}

/// The one generator: breadth-first over tangible markings, recording the
/// tape as it goes. A model with replica groups is generated as its
/// symmetric quotient: every tangible marking, from the initial resolution
/// and from each term, is put into canonical form before it is numbered.
/// Without groups the canonical form is the marking itself.
fn explore(model: &SanModel, opts: &ReachabilityOptions) -> Result<(StateSpace, Tape)> {
    let mut span = telemetry::span("san.generate");
    span.record("model", model.name());
    span.record("replica_groups", model.replicas.len());
    let groups = &model.replicas;
    let mut markings = Markings::new(model.replicas.clone());
    let mut tape = Tape::default();
    let mut transitions: Vec<(usize, usize, f64)> = Vec::new();
    let mut completes = vec![false; model.n_activities()];
    let mut dropped_self_loop_rate = 0.0;

    // Resolve the initial marking (it may itself be vanishing).
    let (initial, landing) =
        resolve_vanishing(model, model.initial_marking(), opts, 0, &mut tape.nodes)?;
    let mut initial_pairs: Vec<(usize, f64)> = Vec::with_capacity(initial.len());
    for (mut mk, p) in initial {
        model::canonicalize(groups, &mut mk);
        let i = markings.intern(mk);
        tape.initial.1.push(i);
        initial_pairs.push((i, p));
    }
    tape.initial.0 = landing;

    // States are numbered in discovery order and expanded in that order, so
    // the breadth-first queue is the states from `si` on. A state's terms
    // are collected before any is interned: the marking is borrowed, not
    // cloned, while the closures run.
    let mut terms: Vec<(Marking, f64)> = Vec::new();
    let (mut timed, mut distribution) = (Vec::new(), Vec::new());
    let mut si = 0;
    while si < markings.states.len() {
        if markings.states.len() > opts.max_states {
            return Err(SanError::StateSpaceLimit {
                limit: opts.max_states,
            });
        }
        let marking = &markings.states[si];
        semantics::enabled_timed(model, marking, &mut timed)?;
        tape.fan.push(timed.len());
        for &(act, rate) in &timed {
            semantics::case_distribution(model, act, marking, &mut distribution)?;
            tape.acts.push((act, distribution.len()));
            for &(case, case_p) in &distribution {
                let fired = semantics::fire(model, act, case, marking)?;
                let (resolved, landing) = resolve_vanishing(model, fired, opts, 0, &mut tape.nodes)
                    .map_err(|e| annotate_activity(e, model, act))?;
                tape.cases.push((case, landing));
                completes[act.index()] = true;
                terms.extend(
                    resolved
                        .into_iter()
                        .map(|(tangible, q)| (tangible, term(rate, case_p, q))),
                );
            }
        }
        for (mut tangible, r) in terms.drain(..) {
            model::canonicalize(groups, &mut tangible);
            let ti = markings.intern(tangible);
            tape.targets.push(ti);
            if ti == si {
                dropped_self_loop_rate += r;
            } else {
                transitions.push((si, ti, r));
            }
        }
        si += 1;
    }

    let n = markings.states.len();
    let n_transitions = transitions.len();
    let ctmc = Ctmc::from_transitions(n, transitions)?;
    let mut initial_distribution = vec![0.0; n];
    for (i, p) in initial_pairs {
        initial_distribution[i] += p;
    }
    let space = StateSpace {
        model_name: model.name().to_string(),
        markings: Arc::new(markings),
        ctmc,
        initial_distribution,
        dropped_self_loop_rate,
        completes,
    };
    if telemetry::enabled() {
        telemetry::counter("san.generations", 1);
        telemetry::counter("san.states.generated", n as u64);
        telemetry::counter("san.transitions.generated", n_transitions as u64);
        report_space(&mut span, model, &space, n_transitions);
    }
    Ok((space, tape))
}

/// The per-model gauges, span arguments and dropped-self-loop warning of a
/// generated or refreshed space.
fn report_space(
    span: &mut telemetry::SpanGuard,
    model: &SanModel,
    space: &StateSpace,
    n_transitions: usize,
) {
    let n = space.n_states();
    let dropped = space.dropped_self_loop_rate;
    let slug = model.name().to_lowercase().replace([' ', '/'], "_");
    telemetry::gauge(&format!("san.states.{slug}"), n as f64);
    telemetry::gauge(&format!("san.transitions.{slug}"), n_transitions as f64);
    telemetry::gauge(&format!("san.dropped_self_loop_rate.{slug}"), dropped);
    span.record("states", n);
    span.record("transitions", n_transitions);
    span.record("dropped_self_loop_rate", dropped);
    if dropped > 0.0 {
        telemetry::warning(&format!(
            "model {}: dropped tangible self-loop rate {dropped:.6e} \
             during reachability generation",
            model.name()
        ));
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
/// markings, in marking order, by exhaustively firing instantaneous
/// activities. Each vanishing marking it passes through is recorded on
/// `nodes`; the landing of `marking` itself is returned beside the
/// distribution.
fn resolve_vanishing(
    model: &SanModel,
    marking: Marking,
    opts: &ReachabilityOptions,
    depth: usize,
    nodes: &mut Vec<Node>,
) -> Result<(Distribution, Landing)> {
    let instantaneous = semantics::enabled_instantaneous(model, &marking)?;
    if instantaneous.is_empty() {
        return Ok((vec![(marking, 1.0)], None));
    }
    if depth >= opts.max_vanishing_depth {
        return Err(SanError::VanishingLoop {
            depth,
            activity: String::from("<unknown>"),
        });
    }
    let mut acts = Vec::with_capacity(instantaneous.len());
    let mut cases = Vec::new();
    let mut parts: Vec<(Marking, f64)> = Vec::new();
    let mut distribution = Vec::new();
    for (act, sel_p) in instantaneous {
        semantics::case_distribution(model, act, &marking, &mut distribution)?;
        acts.push((act, distribution.len()));
        for &(case, case_p) in &distribution {
            let fired = semantics::fire(model, act, case, &marking)?;
            let (resolved, landing) = resolve_vanishing(model, fired, opts, depth + 1, nodes)
                .map_err(|e| annotate_activity(e, model, act))?;
            cases.push((case, landing));
            parts.extend(
                resolved
                    .into_iter()
                    .map(|(tangible, q)| (tangible, term(sel_p, case_p, q))),
            );
        }
    }
    let (merged, slots) = merge(parts);
    nodes.push(Node {
        marking,
        acts,
        cases,
        slots,
        width: merged.len(),
    });
    Ok((merged, Some(nodes.len() - 1)))
}

/// Sums `parts` by marking: the distinct markings in ascending order, each
/// sum accumulated from 0.0 in part order, and the position of every part's
/// sum. The order matters: the returned list drives the breadth-first
/// discovery order, and with it the state numbering of the tangible chain.
fn merge(mut parts: Vec<(Marking, f64)>) -> (Distribution, Vec<usize>) {
    let mut order: Vec<usize> = (0..parts.len()).collect();
    // Stable: equal markings keep part order, so each sum adds its terms in
    // the order they were derived.
    order.sort_by(|&a, &b| parts[a].0.cmp(&parts[b].0));
    let mut merged: Distribution = Vec::new();
    let mut slots = vec![0; parts.len()];
    for k in order {
        let (mk, p) = std::mem::replace(&mut parts[k], (Marking::from_tokens(Vec::new()), 0.0));
        if merged.last().is_none_or(|(last, _)| *last != mk) {
            merged.push((mk, 0.0));
        }
        let at = merged.len() - 1;
        merged[at].1 += p;
        slots[k] = at;
    }
    (merged, slots)
}

/// A model's structure without its numbers, as [`SanModel::visit_shape`]
/// walks it: numbers in one list, names concatenated (their lengths are
/// numbers of the list).
struct Shape {
    numbers: Vec<usize>,
    names: String,
}

impl Shape {
    fn of(model: &SanModel) -> Self {
        let mut shape = Shape {
            numbers: Vec::new(),
            names: String::new(),
        };
        model.visit_shape(&mut |token| match token {
            ShapeToken::Number(n) => shape.numbers.push(n),
            ShapeToken::Name(s) => {
                shape.numbers.push(s.len());
                shape.names.push_str(s);
            }
        });
        shape
    }

    fn matches(&self, model: &SanModel) -> bool {
        let (mut i, mut at, mut same) = (0, 0, true);
        model.visit_shape(&mut |token| {
            if !same {
                return;
            }
            let (n, name) = match token {
                ShapeToken::Number(n) => (n, None),
                ShapeToken::Name(s) => (s.len(), Some(s)),
            };
            same = self.numbers.get(i) == Some(&n)
                && name.is_none_or(|s| self.names.get(at..at + s.len()) == Some(s));
            i += 1;
            at += name.map_or(0, str::len);
        });
        same && i == self.numbers.len()
    }
}

/// The tangible markings in state order, each held once, with an
/// open-addressing index from marking to state number.
struct Markings {
    states: Vec<Marking>,
    /// The model's replica groups: the states are canonical in them.
    replicas: Vec<ReplicaGroup>,
    /// State number + 1 per slot, 0 when empty; linear probing from the
    /// marking's hash, at most half full.
    slots: Vec<usize>,
}

impl Markings {
    fn new(replicas: Vec<ReplicaGroup>) -> Self {
        Markings {
            states: Vec::new(),
            replicas,
            slots: vec![0; 16],
        }
    }

    /// The slot where `marking` is or would go, and its state if present.
    fn find(&self, marking: &Marking) -> (usize, Option<usize>) {
        let mask = self.slots.len() - 1;
        let mut at = home_slot(marking, self.slots.len());
        loop {
            match self.slots[at] {
                0 => return (at, None),
                s if self.states[s - 1] == *marking => return (at, Some(s - 1)),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// The state of `marking`, numbering it next when it is new.
    fn intern(&mut self, marking: Marking) -> usize {
        let (at, found) = self.find(&marking);
        if let Some(i) = found {
            return i;
        }
        self.states.push(marking);
        self.slots[at] = self.states.len();
        if 2 * self.states.len() > self.slots.len() {
            let capacity = 2 * self.slots.len();
            let mut slots = vec![0; capacity];
            for (i, mk) in self.states.iter().enumerate() {
                let mut at = home_slot(mk, capacity);
                while slots[at] != 0 {
                    at = (at + 1) & (capacity - 1);
                }
                slots[at] = i + 1;
            }
            self.slots = slots;
        }
        self.states.len() - 1
    }
}

/// The first probe slot of `marking` in a table of `capacity` (a power of
/// two) slots: an Fx-style multiplicative hash of the token counts, top bits.
/// It is std-only and the same in every process, though only lookups depend
/// on it: state numbers follow discovery order.
fn home_slot(marking: &Marking, capacity: usize) -> usize {
    let mut h: u64 = 0;
    for &t in marking.as_slice() {
        h = (h.rotate_left(5) ^ u64::from(t)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    (h >> (64 - capacity.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Activity, Case, PlaceId};

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
    /// A net whose vanishing resolution nests and merges, with rates, case
    /// probabilities and weights all parameters: timed `t` leads to a
    /// vanishing marking where two instantaneous activities (weights `w`
    /// and 1) compete; the first either reaches `a` (probability `c`) or a
    /// second vanishing marking that splits `c : 1` between `a` and `b`.
    fn split_net(rate: f64, w: f64, c: f64) -> SanModel {
        let mut m = SanModel::new("split");
        let p = m.add_place("p", 1);
        let mid = m.add_place("mid", 0);
        let deep = m.add_place("deep", 0);
        let a = m.add_place("a", 0);
        let b = m.add_place("b", 0);
        m.add_activity(
            Activity::timed("t", rate)
                .with_input_arc(p, 1)
                .with_output_arc(mid, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::instantaneous("left")
                .with_weight(w)
                .with_input_arc(mid, 1)
                .with_case(Case::with_probability(c).with_output_arc(a, 1))
                .with_case(Case::with_probability(1.0 - c).with_output_arc(deep, 1)),
        )
        .unwrap();
        m.add_activity(
            Activity::instantaneous("right")
                .with_input_arc(mid, 1)
                .with_output_arc(b, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::instantaneous("down")
                .with_input_arc(deep, 1)
                .with_case(Case::with_probability(c).with_output_arc(a, 1))
                .with_case(Case::with_probability(1.0).with_output_arc(b, 1)),
        )
        .unwrap();
        m.add_activity(
            Activity::timed("back", rate / 3.0)
                .with_input_arc(a, 1)
                .with_output_arc(p, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::timed("home", 0.7)
                .with_input_arc(b, 1)
                .with_output_arc(p, 1),
        )
        .unwrap();
        m
    }

    fn assert_same_bits(a: &StateSpace, b: &StateSpace) {
        assert_eq!(a.n_states(), b.n_states());
        for i in 0..a.n_states() {
            assert_eq!(a.marking(i), b.marking(i));
        }
        let bits = |s: &StateSpace| {
            s.ctmc()
                .generator()
                .iter()
                .map(|(r, c, v)| (r, c, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(a), bits(b));
        let init = |s: &StateSpace| {
            s.initial_distribution()
                .iter()
                .map(|p| p.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(init(a), init(b));
        assert_eq!(
            a.dropped_self_loop_rate().to_bits(),
            b.dropped_self_loop_rate().to_bits()
        );
        assert_eq!(a.completes, b.completes);
    }

    #[test]
    fn refresh_matches_generation_bit_for_bit() {
        let (_, tape) =
            StateSpace::generate_recorded(&split_net(5.0, 2.0, 0.3), &Default::default()).unwrap();
        for (rate, w, c) in [(5.0, 2.0, 0.3), (1.1, 0.4, 0.77), (9.0, 13.0, 0.01)] {
            let model = split_net(rate, w, c);
            let refreshed = tape.refresh(&model).expect("same structure refreshes");
            let cold = StateSpace::generate(&model, &Default::default()).unwrap();
            assert_same_bits(&refreshed, &cold);
            assert_eq!(refreshed.state_of(cold.marking(1)), Some(1));
        }
    }

    #[test]
    fn refresh_declines_when_the_zero_pattern_or_shape_moves() {
        let (_, tape) =
            StateSpace::generate_recorded(&split_net(5.0, 2.0, 0.3), &Default::default()).unwrap();
        // A case probability at zero drops a case.
        assert!(tape.refresh(&split_net(5.0, 2.0, 1.0)).is_none());
        // A zero rate disables an activity.
        assert!(tape.refresh(&split_net(0.0, 2.0, 0.3)).is_none());
        // Another model entirely.
        let mut other = SanModel::new("split");
        other.add_place("p", 1);
        assert!(tape.refresh(&other).is_none());
    }

    /// `n` independent two-state components (up at `fail`, down at
    /// `repair`, shared by the down ones) behind one instantaneous
    /// dispatcher, each component's `(down, flagged)` pair a replica.
    /// Failures go through a vanishing marking that flags the failed
    /// component with probability `flag`.
    fn components(n: usize, fail: f64, repair: f64, flag: f64, replicas: bool) -> SanModel {
        let mut m = SanModel::new("components");
        let down: Vec<PlaceId> = (0..n).map(|i| m.add_place(format!("down{i}"), 0)).collect();
        let flagged: Vec<PlaceId> = (0..n).map(|i| m.add_place(format!("flag{i}"), 0)).collect();
        let pending: Vec<PlaceId> = (0..n).map(|i| m.add_place(format!("pend{i}"), 0)).collect();
        let all_down: std::sync::Arc<[PlaceId]> = down.iter().copied().collect();
        for i in 0..n {
            let (d, f, p) = (down[i], flagged[i], pending[i]);
            m.add_activity(
                Activity::timed(format!("fail{i}"), fail)
                    .with_enabling(move |mk| mk.tokens(d) == 0)
                    .with_output_arc(p, 1),
            )
            .unwrap();
            m.add_activity(
                Activity::instantaneous(format!("dispatch{i}"))
                    .with_input_arc(p, 1)
                    .with_case(
                        Case::with_probability(flag)
                            .with_output_arc(d, 1)
                            .with_output_arc(f, 1),
                    )
                    .with_case(Case::with_probability(1.0 - flag).with_output_arc(d, 1)),
            )
            .unwrap();
            let all_down = all_down.clone();
            let og = m.add_output_gate(format!("clear{i}"), move |mk| mk.set_tokens(f, 0));
            m.add_activity(
                Activity::timed_fn(format!("repair{i}"), move |mk| {
                    let busy = all_down.iter().map(|&q| mk.tokens(q)).sum::<u32>();
                    repair / f64::from(busy)
                })
                .with_input_arc(d, 1)
                .with_output_gate(og),
            )
            .unwrap();
        }
        if replicas {
            let tuples: Vec<Vec<PlaceId>> = (0..n)
                .map(|i| vec![down[i], flagged[i], pending[i]])
                .collect();
            m.add_replica_group(&tuples).unwrap();
        }
        m
    }

    #[test]
    fn independent_replicas_generate_one_state_per_count() {
        // n two-state components, no flagging: 2ⁿ markings, n + 1 counts.
        for n in 1..=6 {
            let full =
                StateSpace::generate(&components(n, 1.0, 3.0, 0.0, false), &Default::default())
                    .unwrap();
            assert_eq!(full.n_states(), 1 << n);
            let quotient =
                StateSpace::generate(&components(n, 1.0, 3.0, 0.0, true), &Default::default())
                    .unwrap();
            assert_eq!(quotient.n_states(), n + 1);
            // The quotient is the birth–death chain of the count of down
            // components: up at (n − k)·fail, down at the shared repair.
            let q = quotient.ctmc().generator();
            for k in 0..n {
                let count = |j: usize| {
                    let tokens: Vec<u32> =
                        (0..3 * n).map(|p| u32::from(p < n && p >= n - j)).collect();
                    quotient.state_of(&Marking::from_tokens(tokens)).unwrap()
                };
                assert_eq!(q.get(count(k), count(k + 1)), (n - k) as f64);
                assert!((q.get(count(k + 1), count(k)) - 3.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn state_of_resolves_every_permutation_to_one_state() {
        let quotient =
            StateSpace::generate(&components(3, 1.0, 3.0, 0.5, true), &Default::default()).unwrap();
        let full = StateSpace::generate(&components(3, 1.0, 3.0, 0.5, false), &Default::default())
            .unwrap();
        assert!(quotient.n_states() < full.n_states());
        // Swapping two components' (down, flag, pending) triples of any
        // reachable marking resolves to the state of the marking itself.
        for s in 0..full.n_states() {
            let tokens = full.marking(s).as_slice().to_vec();
            let at = quotient
                .state_of(full.marking(s))
                .expect("every marking has a class");
            for (a, b) in [(0, 1), (0, 2), (1, 2)] {
                let mut swapped = tokens.clone();
                for role in 0..3 {
                    swapped.swap(3 * role + a, 3 * role + b);
                }
                assert_eq!(quotient.state_of(&Marking::from_tokens(swapped)), Some(at));
            }
        }
        assert_eq!(quotient.state_of(&Marking::from_tokens(vec![0; 4])), None);
    }

    #[test]
    fn replica_refresh_matches_generation_bit_for_bit() {
        let (_, tape) =
            StateSpace::generate_recorded(&components(3, 1.0, 3.0, 0.5, true), &Default::default())
                .unwrap();
        for (fail, repair, flag) in [(1.0, 3.0, 0.5), (0.2, 7.5, 0.01), (4.0, 0.3, 0.9)] {
            let model = components(3, fail, repair, flag, true);
            let refreshed = tape.refresh(&model).expect("same structure refreshes");
            let cold = StateSpace::generate(&model, &Default::default()).unwrap();
            assert_same_bits(&refreshed, &cold);
        }
        // The groups are part of the shape: a tape recorded without them
        // declines the model that declares them, and the other way round.
        let (_, full_tape) = StateSpace::generate_recorded(
            &components(3, 1.0, 3.0, 0.5, false),
            &Default::default(),
        )
        .unwrap();
        assert!(full_tape
            .refresh(&components(3, 1.0, 3.0, 0.5, true))
            .is_none());
        assert!(tape.refresh(&components(3, 1.0, 3.0, 0.5, false)).is_none());
    }

    #[test]
    fn markings_index_finds_every_state_across_growth() {
        let mut markings = Markings::new(Vec::new());
        for i in 0..1000u32 {
            assert_eq!(
                markings.intern(Marking::from_tokens(vec![i % 7, i / 7, 1])),
                i as usize
            );
        }
        for i in 0..1000u32 {
            let mk = Marking::from_tokens(vec![i % 7, i / 7, 1]);
            assert_eq!(markings.find(&mk).1, Some(i as usize));
            assert_eq!(markings.intern(mk), i as usize);
        }
        assert_eq!(markings.find(&Marking::from_tokens(vec![0, 0, 0])).1, None);
    }
}
