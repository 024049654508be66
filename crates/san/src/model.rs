//! SAN model specification: places, activities, cases, and gates.

use std::fmt;

use crate::{Marking, Result, SanError};

/// Identifier of a place within a [`SanModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(usize);

impl PlaceId {
    #[cfg(test)]
    pub(crate) fn from_index(i: usize) -> Self {
        PlaceId(i)
    }

    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an activity within a [`SanModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActivityId(usize);

impl ActivityId {
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an input gate within a [`SanModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputGateId(usize);

/// Identifier of an output gate within a [`SanModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutputGateId(usize);

/// Marking-dependent boolean function (gate predicates, enabling
/// conditions, reward predicates).
pub(crate) type PredicateFn = Box<dyn Fn(&Marking) -> bool + Send + Sync>;
/// Marking transformation (gate functions).
pub(crate) type MarkingFn = Box<dyn Fn(&mut Marking) + Send + Sync>;
/// Marking-dependent non-negative value (rates, case probabilities).
pub(crate) type ValueFn = Box<dyn Fn(&Marking) -> f64 + Send + Sync>;

pub(crate) struct PlaceDef {
    pub name: String,
    pub initial: u32,
}

pub(crate) struct InputGateDef {
    pub name: String,
    pub predicate: PredicateFn,
    pub function: MarkingFn,
}

pub(crate) struct OutputGateDef {
    pub name: String,
    pub function: MarkingFn,
}

/// Whether an activity takes time to complete.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActivityKind {
    /// Exponentially timed activity.
    Timed,
    /// Zero-duration activity. Among simultaneously enabled instantaneous
    /// activities the highest `priority` fires; ties are broken
    /// probabilistically by `weight`.
    Instantaneous {
        /// Selection priority (higher fires first).
        priority: u32,
        /// Relative selection weight among equal-priority activities.
        weight: f64,
    },
}

/// One probabilistic outcome of an activity completion.
///
/// Build with [`Case::with_probability`] (constant) or
/// [`Case::with_probability_fn`] (marking-dependent), then attach effects.
/// Case probabilities of an activity are normalized at evaluation time, so
/// constant weights need not sum to exactly one.
pub struct Case {
    pub(crate) probability: ValueFn,
    pub(crate) output_arcs: Vec<(PlaceId, u32)>,
    pub(crate) output_gates: Vec<OutputGateId>,
}

impl Case {
    /// A case selected with constant relative probability `p`.
    pub fn with_probability(p: f64) -> Self {
        Case {
            probability: Box::new(move |_| p),
            output_arcs: Vec::new(),
            output_gates: Vec::new(),
        }
    }

    /// A case whose relative probability depends on the marking.
    pub fn with_probability_fn<F>(f: F) -> Self
    where
        F: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        Case {
            probability: Box::new(f),
            output_arcs: Vec::new(),
            output_gates: Vec::new(),
        }
    }

    /// Adds `count` tokens to `place` when this case is chosen.
    pub fn with_output_arc(mut self, place: PlaceId, count: u32) -> Self {
        self.output_arcs.push((place, count));
        self
    }

    /// Applies an output gate's function when this case is chosen.
    pub fn with_output_gate(mut self, gate: OutputGateId) -> Self {
        self.output_gates.push(gate);
        self
    }
}

impl fmt::Debug for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Case")
            .field("output_arcs", &self.output_arcs)
            .field("output_gates", &self.output_gates.len())
            .finish_non_exhaustive()
    }
}

/// Builder for an activity; pass to [`SanModel::add_activity`].
///
/// An activity is **enabled** when every input arc's place holds enough
/// tokens, every inline enabling predicate holds, and every attached input
/// gate's predicate holds. On completion the input-arc tokens are removed,
/// input-gate functions run, a case is selected, and the case's output arcs
/// and gates are applied.
pub struct Activity {
    pub(crate) name: String,
    pub(crate) kind: ActivityKind,
    pub(crate) rate: ValueFn,
    pub(crate) enabling: Vec<PredicateFn>,
    pub(crate) input_arcs: Vec<(PlaceId, u32)>,
    pub(crate) input_gates: Vec<InputGateId>,
    pub(crate) cases: Vec<Case>,
    /// Effects accumulated from `with_output_arc`/`with_output_gate` before
    /// any explicit case was added; turned into a single default case.
    default_case: Case,
    has_explicit_cases: bool,
}

impl Activity {
    /// A timed activity with a constant exponential rate.
    pub fn timed(name: impl Into<String>, rate: f64) -> Self {
        Self::timed_fn(name, move |_| rate)
    }

    /// A timed activity with a marking-dependent exponential rate.
    pub fn timed_fn<F>(name: impl Into<String>, rate: F) -> Self
    where
        F: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        Activity {
            name: name.into(),
            kind: ActivityKind::Timed,
            rate: Box::new(rate),
            enabling: Vec::new(),
            input_arcs: Vec::new(),
            input_gates: Vec::new(),
            cases: Vec::new(),
            default_case: Case::with_probability(1.0),
            has_explicit_cases: false,
        }
    }

    /// An instantaneous activity (priority 0, weight 1).
    pub fn instantaneous(name: impl Into<String>) -> Self {
        Activity {
            name: name.into(),
            kind: ActivityKind::Instantaneous {
                priority: 0,
                weight: 1.0,
            },
            rate: Box::new(|_| 0.0),
            enabling: Vec::new(),
            input_arcs: Vec::new(),
            input_gates: Vec::new(),
            cases: Vec::new(),
            default_case: Case::with_probability(1.0),
            has_explicit_cases: false,
        }
    }

    /// Sets the selection priority (instantaneous activities only; ignored
    /// for timed ones).
    pub fn with_priority(mut self, priority: u32) -> Self {
        if let ActivityKind::Instantaneous { weight, .. } = self.kind {
            self.kind = ActivityKind::Instantaneous { priority, weight };
        }
        self
    }

    /// Sets the selection weight (instantaneous activities only; ignored for
    /// timed ones).
    pub fn with_weight(mut self, weight: f64) -> Self {
        if let ActivityKind::Instantaneous { priority, .. } = self.kind {
            self.kind = ActivityKind::Instantaneous { priority, weight };
        }
        self
    }

    /// Requires (and on completion consumes) `count` tokens in `place`.
    pub fn with_input_arc(mut self, place: PlaceId, count: u32) -> Self {
        self.input_arcs.push((place, count));
        self
    }

    /// Adds an inline enabling predicate (an input gate with an identity
    /// function).
    pub fn with_enabling<F>(mut self, predicate: F) -> Self
    where
        F: Fn(&Marking) -> bool + Send + Sync + 'static,
    {
        self.enabling.push(Box::new(predicate));
        self
    }

    /// Attaches an input gate (predicate + marking function).
    pub fn with_input_gate(mut self, gate: InputGateId) -> Self {
        self.input_gates.push(gate);
        self
    }

    /// Adds `count` tokens to `place` on completion (shorthand when the
    /// activity has a single implicit case).
    pub fn with_output_arc(mut self, place: PlaceId, count: u32) -> Self {
        self.default_case.output_arcs.push((place, count));
        self
    }

    /// Applies an output gate on completion (shorthand for the single
    /// implicit case).
    pub fn with_output_gate(mut self, gate: OutputGateId) -> Self {
        self.default_case.output_gates.push(gate);
        self
    }

    /// Adds an explicit case. Once any explicit case is present the implicit
    /// default case is discarded, and activity-level `with_output_arc` /
    /// `with_output_gate` calls are rejected by
    /// [`SanModel::add_activity`].
    pub fn with_case(mut self, case: Case) -> Self {
        self.cases.push(case);
        self.has_explicit_cases = true;
        self
    }

    pub(crate) fn finalize(mut self) -> Result<Self> {
        if self.has_explicit_cases {
            if !self.default_case.output_arcs.is_empty()
                || !self.default_case.output_gates.is_empty()
            {
                return Err(SanError::InvalidModel {
                    context: format!(
                        "activity '{}' mixes activity-level outputs with explicit cases",
                        self.name
                    ),
                });
            }
        } else {
            self.cases = vec![std::mem::replace(
                &mut self.default_case,
                Case::with_probability(1.0),
            )];
        }
        if self.cases.is_empty() {
            return Err(SanError::InvalidModel {
                context: format!("activity '{}' has no cases", self.name),
            });
        }
        if let ActivityKind::Instantaneous { weight, .. } = self.kind {
            if !weight.is_finite() || weight <= 0.0 {
                return Err(SanError::InvalidModel {
                    context: format!(
                        "instantaneous activity '{}' has invalid weight {weight}",
                        self.name
                    ),
                });
            }
        }
        Ok(self)
    }
}

impl fmt::Debug for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Activity")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("input_arcs", &self.input_arcs)
            .field("cases", &self.cases.len())
            .finish_non_exhaustive()
    }
}

/// Tuples of places that permute together: replicas of one submodel, as
/// declared by [`SanModel::add_replica_group`].
#[derive(Clone)]
pub(crate) struct ReplicaGroup {
    /// Places per tuple, at least one.
    width: usize,
    /// The tuples' place indices, tuple after tuple.
    places: Vec<usize>,
}

impl ReplicaGroup {
    /// Sorts the group's tuples of `tokens` into ascending lexicographic
    /// order, in place: the canonical member of the marking's orbit under
    /// permutations of the tuples. An insertion sort, since groups are
    /// small and the tuples arrive nearly sorted.
    fn canonicalize(&self, tokens: &mut [u32]) {
        let w = self.width;
        let tuple = |k: usize| &self.places[k * w..(k + 1) * w];
        for i in 1..self.places.len() / w {
            let mut j = i;
            while j > 0
                && tuple(j - 1)
                    .iter()
                    .map(|&p| tokens[p])
                    .cmp(tuple(j).iter().map(|&p| tokens[p]))
                    .is_gt()
            {
                for (&a, &b) in tuple(j - 1).iter().zip(tuple(j)) {
                    tokens.swap(a, b);
                }
                j -= 1;
            }
        }
    }
}

/// Puts `marking` into the canonical form of `groups`: each group's tuples
/// sorted in place, without allocating.
///
/// # Panics
///
/// Panics if `marking` has fewer places than a group names.
pub(crate) fn canonicalize(groups: &[ReplicaGroup], marking: &mut Marking) {
    let tokens = marking.tokens_mut();
    for group in groups {
        group.canonicalize(tokens);
    }
}

/// A stochastic activity network model.
///
/// Create places and gates first, then add activities referencing them. See
/// the [crate-level example](crate) for a complete model.
pub struct SanModel {
    name: String,
    pub(crate) places: Vec<PlaceDef>,
    pub(crate) activities: Vec<Activity>,
    pub(crate) input_gates: Vec<InputGateDef>,
    pub(crate) output_gates: Vec<OutputGateDef>,
    pub(crate) replicas: Vec<ReplicaGroup>,
}

impl SanModel {
    /// Creates an empty model.
    pub fn new(name: impl Into<String>) -> Self {
        SanModel {
            name: name.into(),
            places: Vec::new(),
            activities: Vec::new(),
            input_gates: Vec::new(),
            output_gates: Vec::new(),
            replicas: Vec::new(),
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a place holding `initial` tokens in the initial marking.
    pub fn add_place(&mut self, name: impl Into<String>, initial: u32) -> PlaceId {
        self.places.push(PlaceDef {
            name: name.into(),
            initial,
        });
        PlaceId(self.places.len() - 1)
    }

    /// Adds an input gate with an enabling `predicate` and a marking
    /// `function` applied when a connected activity completes.
    pub fn add_input_gate<P, F>(
        &mut self,
        name: impl Into<String>,
        predicate: P,
        function: F,
    ) -> InputGateId
    where
        P: Fn(&Marking) -> bool + Send + Sync + 'static,
        F: Fn(&mut Marking) + Send + Sync + 'static,
    {
        self.input_gates.push(InputGateDef {
            name: name.into(),
            predicate: Box::new(predicate),
            function: Box::new(function),
        });
        InputGateId(self.input_gates.len() - 1)
    }

    /// Adds an output gate with a marking `function` applied when a
    /// connected case is chosen.
    pub fn add_output_gate<F>(&mut self, name: impl Into<String>, function: F) -> OutputGateId
    where
        F: Fn(&mut Marking) + Send + Sync + 'static,
    {
        self.output_gates.push(OutputGateDef {
            name: name.into(),
            function: Box::new(function),
        });
        OutputGateId(self.output_gates.len() - 1)
    }

    /// Adds an activity.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidModel`] when the activity references
    /// places or gates that do not belong to this model, mixes implicit and
    /// explicit cases, or has an invalid weight.
    pub fn add_activity(&mut self, activity: Activity) -> Result<ActivityId> {
        let activity = activity.finalize()?;
        let check_place = |p: PlaceId, what: &str| -> Result<()> {
            if p.0 >= self.places.len() {
                return Err(SanError::InvalidModel {
                    context: format!(
                        "activity '{}': {what} references unknown place #{}",
                        activity.name, p.0
                    ),
                });
            }
            Ok(())
        };
        for &(p, _) in &activity.input_arcs {
            check_place(p, "input arc")?;
        }
        for case in &activity.cases {
            for &(p, _) in &case.output_arcs {
                check_place(p, "output arc")?;
            }
            for g in &case.output_gates {
                if g.0 >= self.output_gates.len() {
                    return Err(SanError::InvalidModel {
                        context: format!(
                            "activity '{}': unknown output gate #{}",
                            activity.name, g.0
                        ),
                    });
                }
            }
        }
        for g in &activity.input_gates {
            if g.0 >= self.input_gates.len() {
                return Err(SanError::InvalidModel {
                    context: format!("activity '{}': unknown input gate #{}", activity.name, g.0),
                });
            }
        }
        self.activities.push(activity);
        Ok(ActivityId(self.activities.len() - 1))
    }

    /// Declares `tuples` as replicas: tuples of places that permute
    /// together, one tuple per replica of a submodel, in the same order of
    /// roles (UltraSAN's `Rep`).
    ///
    /// [`StateSpace::generate`](crate::StateSpace::generate) then generates
    /// the symmetric quotient (Sanders & Meyer's *reduced base model*): it
    /// puts every tangible marking into canonical form, each group's tuples
    /// sorted ascending, before numbering it, and sums the rates that land
    /// on one canonical marking. Markings that differ only by a permutation
    /// of the tuples become one state.
    ///
    /// The quotient is exact only under this contract, which the caller
    /// keeps and the generator does not check: every enabling predicate,
    /// gate predicate and function, rate, case probability, instantaneous
    /// weight and reward predicate read off the space must be invariant
    /// under permuting the tuples, so the chain is strongly lumpable by
    /// the permutation. No reward may name one replica alone (the paper's
    /// `P2` `dirty_bit` is one escort's, so a model with several escorts
    /// measures escorts only through symmetric functions of all of them).
    /// The states' markings are the canonical representatives, so the
    /// structural reports ([`crate::structural`]) read representatives.
    /// Simulation ([`crate::simulate`]) keeps firing the full net.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidModel`] when a tuple is empty or differs
    /// in width from the first, a place is unknown, a place appears twice
    /// in the group, or a place belongs to a group declared before.
    pub fn add_replica_group(&mut self, tuples: &[Vec<PlaceId>]) -> Result<()> {
        let width = tuples.first().map_or(1, Vec::len);
        let invalid = |context: String| Err(SanError::InvalidModel { context });
        let mut places = Vec::with_capacity(width * tuples.len());
        for tuple in tuples {
            if tuple.is_empty() || tuple.len() != width {
                return invalid(format!(
                    "replica group of width {width} has a tuple of width {}",
                    tuple.len()
                ));
            }
            for &p in tuple {
                if p.0 >= self.places.len() {
                    return invalid(format!("replica group names unknown place #{}", p.0));
                }
                if places.contains(&p.0) {
                    return invalid(format!(
                        "replica group names place '{}' twice",
                        self.places[p.0].name
                    ));
                }
                if self.replicas.iter().any(|g| g.places.contains(&p.0)) {
                    return invalid(format!(
                        "place '{}' is already in another replica group",
                        self.places[p.0].name
                    ));
                }
                places.push(p.0);
            }
        }
        self.replicas.push(ReplicaGroup { width, places });
        Ok(())
    }

    /// Number of declared replica groups.
    pub fn n_replica_groups(&self) -> usize {
        self.replicas.len()
    }

    /// Number of places.
    pub fn n_places(&self) -> usize {
        self.places.len()
    }

    /// Number of activities.
    pub fn n_activities(&self) -> usize {
        self.activities.len()
    }

    /// The name of a place.
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to this model.
    pub fn place_name(&self, place: PlaceId) -> &str {
        &self.places[place.0].name
    }

    /// The name of an activity.
    ///
    /// # Panics
    ///
    /// Panics if `activity` does not belong to this model.
    pub fn activity_name(&self, activity: ActivityId) -> &str {
        &self.activities[activity.0].name
    }

    /// The name of the `i`-th place (place-creation order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_places()`.
    pub fn place_name_by_index(&self, i: usize) -> &str {
        &self.places[i].name
    }

    /// The kind (timed / instantaneous) of an activity.
    ///
    /// # Panics
    ///
    /// Panics if `activity` does not belong to this model.
    pub fn activity_kind_of(&self, activity: ActivityId) -> ActivityKind {
        self.activities[activity.0].kind
    }

    /// Looks a place up by name.
    pub fn find_place(&self, name: &str) -> Option<PlaceId> {
        self.places.iter().position(|p| p.name == name).map(PlaceId)
    }

    /// The initial marking (each place at its declared initial token count).
    pub fn initial_marking(&self) -> Marking {
        Marking::from_tokens(self.places.iter().map(|p| p.initial).collect())
    }

    /// The timed activities enabled in `marking` with their validated rates
    /// (maximal progress: suppressed while an instantaneous activity is
    /// enabled).
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidFunction`] when a rate evaluates to a
    /// negative or non-finite value.
    pub fn enabled_timed_activities(&self, marking: &Marking) -> Result<Vec<(ActivityId, f64)>> {
        let mut enabled = Vec::new();
        crate::semantics::enabled_timed(self, marking, &mut enabled)?;
        Ok(enabled)
    }

    /// The normalized case distribution of `activity` in `marking`, as
    /// `(case index, probability)` pairs with zero-probability cases
    /// dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidFunction`] when a case probability is
    /// negative/non-finite or all case probabilities are zero.
    pub fn case_distribution_of(
        &self,
        activity: ActivityId,
        marking: &Marking,
    ) -> Result<Vec<(usize, f64)>> {
        let mut cases = Vec::new();
        crate::semantics::case_distribution(self, activity, marking, &mut cases)?;
        Ok(cases)
    }

    pub(crate) fn activity(&self, id: ActivityId) -> &Activity {
        &self.activities[id.0]
    }

    pub(crate) fn input_gate(&self, id: InputGateId) -> &InputGateDef {
        &self.input_gates[id.0]
    }

    pub(crate) fn output_gate(&self, id: OutputGateId) -> &OutputGateDef {
        &self.output_gates[id.0]
    }

    pub(crate) fn activity_ids(&self) -> impl Iterator<Item = ActivityId> {
        (0..self.activities.len()).map(ActivityId)
    }

    /// Walks the model's structure without its numbers: its name; each
    /// place's name and initial tokens; the gate names; and for each
    /// activity its name, kind and priority (not its weight), its number of
    /// enabling predicates, its input arcs and gates, and for each case its
    /// output arcs and gates (not its probability); then its replica
    /// groups. Two models that walk
    /// alike differ at most in rates, case probabilities, instantaneous
    /// weights and what their closures compute.
    pub(crate) fn visit_shape(&self, visit: &mut impl FnMut(ShapeToken<'_>)) {
        use ShapeToken::{Name, Number};
        visit(Name(&self.name));
        visit(Number(self.places.len()));
        for p in &self.places {
            visit(Name(&p.name));
            visit(Number(p.initial as usize));
        }
        visit(Number(self.input_gates.len()));
        for g in &self.input_gates {
            visit(Name(&g.name));
        }
        visit(Number(self.output_gates.len()));
        for g in &self.output_gates {
            visit(Name(&g.name));
        }
        visit(Number(self.activities.len()));
        for a in &self.activities {
            visit(Name(&a.name));
            match a.kind {
                ActivityKind::Timed => visit(Number(0)),
                ActivityKind::Instantaneous { priority, .. } => {
                    visit(Number(1));
                    visit(Number(priority as usize));
                }
            }
            visit(Number(a.enabling.len()));
            visit(Number(a.input_arcs.len()));
            for &(p, c) in &a.input_arcs {
                visit(Number(p.0));
                visit(Number(c as usize));
            }
            visit(Number(a.input_gates.len()));
            for g in &a.input_gates {
                visit(Number(g.0));
            }
            visit(Number(a.cases.len()));
            for case in &a.cases {
                visit(Number(case.output_arcs.len()));
                for &(p, c) in &case.output_arcs {
                    visit(Number(p.0));
                    visit(Number(c as usize));
                }
                visit(Number(case.output_gates.len()));
                for g in &case.output_gates {
                    visit(Number(g.0));
                }
            }
        }
        visit(Number(self.replicas.len()));
        for group in &self.replicas {
            visit(Number(group.width));
            visit(Number(group.places.len()));
            for &p in &group.places {
                visit(Number(p));
            }
        }
    }
}

/// One token of [`SanModel::visit_shape`].
pub(crate) enum ShapeToken<'a> {
    /// A count, index, kind tag or token number.
    Number(usize),
    /// A model, place, gate or activity name.
    Name(&'a str),
}

impl fmt::Debug for SanModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SanModel")
            .field("name", &self.name)
            .field("places", &self.places.len())
            .field("activities", &self.activities.len())
            .field("input_gates", &self.input_gates.len())
            .field("output_gates", &self.output_gates.len())
            .field("replica_groups", &self.replicas.len())
            .finish()
    }
}

impl fmt::Display for SanModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "SAN '{}': {} places, {} activities",
            self.name,
            self.places.len(),
            self.activities.len()
        )?;
        for p in &self.places {
            writeln!(f, "  place {} (initial {})", p.name, p.initial)?;
        }
        for a in &self.activities {
            let kind = match a.kind {
                ActivityKind::Timed => "timed".to_string(),
                ActivityKind::Instantaneous { priority, weight } => {
                    format!("instantaneous(prio {priority}, w {weight})")
                }
            };
            writeln!(
                f,
                "  activity {} [{kind}], {} case(s)",
                a.name,
                a.cases.len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_lookup() {
        let mut m = SanModel::new("t");
        let a = m.add_place("a", 1);
        let b = m.add_place("b", 2);
        assert_eq!(m.find_place("a"), Some(a));
        assert_eq!(m.find_place("b"), Some(b));
        assert_eq!(m.find_place("c"), None);
        assert_eq!(m.place_name(b), "b");
        assert_eq!(m.n_places(), 2);
    }

    #[test]
    fn initial_marking_matches_declarations() {
        let mut m = SanModel::new("t");
        m.add_place("a", 3);
        m.add_place("b", 0);
        assert_eq!(m.initial_marking().as_slice(), &[3, 0]);
    }

    #[test]
    fn implicit_case_is_synthesized() {
        let mut m = SanModel::new("t");
        let p = m.add_place("p", 0);
        let id = m
            .add_activity(Activity::timed("a", 1.0).with_output_arc(p, 1))
            .unwrap();
        assert_eq!(m.activity(id).cases.len(), 1);
        assert_eq!(m.activity_name(id), "a");
    }

    #[test]
    fn mixing_cases_and_activity_outputs_rejected() {
        let mut m = SanModel::new("t");
        let p = m.add_place("p", 0);
        let act = Activity::timed("a", 1.0)
            .with_output_arc(p, 1)
            .with_case(Case::with_probability(1.0));
        assert!(matches!(
            m.add_activity(act),
            Err(SanError::InvalidModel { .. })
        ));
    }

    #[test]
    fn dangling_references_rejected() {
        let mut m1 = SanModel::new("m1");
        let mut m2 = SanModel::new("m2");
        let p_other = m2.add_place("p", 0);
        assert!(m1
            .add_activity(Activity::timed("a", 1.0).with_input_arc(p_other, 1))
            .is_err());
        assert!(m1
            .add_activity(Activity::timed("b", 1.0).with_output_arc(p_other, 1))
            .is_err());
    }

    #[test]
    fn invalid_weight_rejected() {
        let mut m = SanModel::new("t");
        assert!(m
            .add_activity(Activity::instantaneous("i").with_weight(0.0))
            .is_err());
        assert!(m
            .add_activity(Activity::instantaneous("i").with_weight(f64::NAN))
            .is_err());
    }

    #[test]
    fn priority_and_weight_apply_only_to_instantaneous() {
        let t = Activity::timed("t", 1.0).with_priority(5).with_weight(2.0);
        assert_eq!(t.kind, ActivityKind::Timed);
        let i = Activity::instantaneous("i")
            .with_priority(5)
            .with_weight(2.0);
        assert_eq!(
            i.kind,
            ActivityKind::Instantaneous {
                priority: 5,
                weight: 2.0
            }
        );
    }

    #[test]
    fn replica_groups_are_validated() {
        let mut m = SanModel::new("t");
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|name| m.add_place(name, 0));
        let invalid = |r: Result<()>| matches!(r, Err(SanError::InvalidModel { .. }));
        // Tuples of different widths, or an empty one.
        assert!(invalid(m.add_replica_group(&[vec![a, b], vec![c]])));
        assert!(invalid(m.add_replica_group(&[vec![], vec![]])));
        // A place repeated within the group.
        assert!(invalid(m.add_replica_group(&[vec![a, b], vec![b, c]])));
        assert!(invalid(m.add_replica_group(&[vec![a, a], vec![b, c]])));
        // A place of another model.
        assert!(invalid(m.add_replica_group(&[vec![a], vec![PlaceId(9)]])));
        assert_eq!(m.n_replica_groups(), 0);
        m.add_replica_group(&[vec![a, b], vec![c, d]]).unwrap();
        // A place shared with a group declared before.
        let e = m.add_place("e", 0);
        assert!(invalid(m.add_replica_group(&[vec![e], vec![d]])));
        assert_eq!(m.n_replica_groups(), 1);
    }

    #[test]
    fn canonical_form_sorts_the_tuples() {
        let mut m = SanModel::new("t");
        let places = ["a0", "a1", "a2", "x", "b0", "b1", "b2"].map(|name| m.add_place(name, 0));
        let [a0, a1, a2, _, b0, b1, b2] = places;
        m.add_replica_group(&[vec![a0, b0], vec![a1, b1], vec![a2, b2]])
            .unwrap();
        // Tuples (a_i, b_i) = (1, 0), (0, 5), (1, 0 → 2); the unrelated
        // place x keeps its 7.
        let mut mk = Marking::from_tokens(vec![1, 0, 1, 7, 0, 5, 2]);
        canonicalize(&m.replicas, &mut mk);
        assert_eq!(mk.as_slice(), &[0, 1, 1, 7, 5, 0, 2]);
        let mut again = mk.clone();
        canonicalize(&m.replicas, &mut again);
        assert_eq!(again, mk);
    }

    #[test]
    fn display_mentions_components() {
        let mut m = SanModel::new("demo");
        let p = m.add_place("buf", 1);
        m.add_activity(Activity::timed("go", 1.0).with_input_arc(p, 1))
            .unwrap();
        let s = m.to_string();
        assert!(s.contains("demo"));
        assert!(s.contains("buf"));
        assert!(s.contains("go"));
    }
}
