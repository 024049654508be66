//! Execution semantics: enabling, case selection, and firing.

use crate::model::{Activity, ActivityId, ActivityKind, SanModel};
use crate::{Marking, Result, SanError};

/// Returns `true` when `activity` is enabled in `marking`: all input arcs
/// are covered, all inline enabling predicates hold, and all input gate
/// predicates hold.
pub(crate) fn is_enabled(model: &SanModel, activity: &Activity, marking: &Marking) -> bool {
    activity
        .input_arcs
        .iter()
        .all(|&(p, c)| marking.tokens(p) >= c)
        && activity.enabling.iter().all(|pred| pred(marking))
        && activity
            .input_gates
            .iter()
            .all(|&g| (model.input_gate(g).predicate)(marking))
}

/// Enabled timed activities with their (validated) rates, into `out`
/// (cleared first). Timed activities are suppressed while any instantaneous
/// activity is enabled (maximal progress).
pub(crate) fn enabled_timed(
    model: &SanModel,
    marking: &Marking,
    out: &mut Vec<(ActivityId, f64)>,
) -> Result<()> {
    out.clear();
    for id in model.activity_ids() {
        let a = model.activity(id);
        if a.kind != ActivityKind::Timed || !is_enabled(model, a, marking) {
            continue;
        }
        let rate = (a.rate)(marking);
        if !rate.is_finite() || rate < 0.0 {
            return Err(SanError::InvalidFunction {
                context: format!(
                    "activity '{}' returned rate {rate} in marking {marking}",
                    a.name
                ),
            });
        }
        if rate > 0.0 {
            out.push((id, rate));
        }
    }
    Ok(())
}

/// Enabled instantaneous activities at the highest enabled priority, with
/// their normalized selection probabilities.
pub(crate) fn enabled_instantaneous(
    model: &SanModel,
    marking: &Marking,
) -> Result<Vec<(ActivityId, f64)>> {
    let mut best: Vec<(ActivityId, f64)> = Vec::new();
    let mut best_priority = 0u32;
    for id in model.activity_ids() {
        let a = model.activity(id);
        let (priority, weight) = match a.kind {
            ActivityKind::Instantaneous { priority, weight } => (priority, weight),
            ActivityKind::Timed => continue,
        };
        if !is_enabled(model, a, marking) {
            continue;
        }
        if best.is_empty() || priority > best_priority {
            best_priority = priority;
            best.clear();
            best.push((id, weight));
        } else if priority == best_priority {
            best.push((id, weight));
        }
    }
    let total: f64 = best.iter().map(|&(_, w)| w).sum();
    if total > 0.0 {
        for (_, w) in &mut best {
            *w /= total;
        }
    }
    Ok(best)
}

/// The normalized case distribution of `activity` in `marking`, into `out`
/// (cleared first).
///
/// # Errors
///
/// Returns [`SanError::InvalidFunction`] when a case probability is
/// negative/non-finite or all case probabilities are zero.
pub(crate) fn case_distribution(
    model: &SanModel,
    activity: ActivityId,
    marking: &Marking,
    out: &mut Vec<(usize, f64)>,
) -> Result<()> {
    let a = model.activity(activity);
    out.clear();
    let mut total = 0.0;
    for (i, case) in a.cases.iter().enumerate() {
        let p = (case.probability)(marking);
        if !p.is_finite() || p < 0.0 {
            return Err(SanError::InvalidFunction {
                context: format!(
                    "case {i} of activity '{}' returned probability {p} in marking {marking}",
                    a.name
                ),
            });
        }
        total += p;
        out.push((i, p));
    }
    if total <= 0.0 {
        return Err(SanError::InvalidFunction {
            context: format!(
                "all case probabilities of activity '{}' are zero in marking {marking}",
                a.name
            ),
        });
    }
    out.retain(|&(_, p)| p > 0.0);
    for (_, p) in out.iter_mut() {
        *p /= total;
    }
    Ok(())
}

/// Fires `activity` choosing `case`, producing the successor marking.
///
/// Effect order (UltraSAN semantics): input arc tokens removed, input gate
/// functions applied, case output arcs added, case output gates applied.
///
/// # Errors
///
/// Returns [`SanError::InvalidFunction`] when an input arc cannot be
/// covered — firing a disabled activity is a generator bug surfaced as an
/// error rather than silent corruption.
pub(crate) fn fire(
    model: &SanModel,
    activity: ActivityId,
    case: usize,
    marking: &Marking,
) -> Result<Marking> {
    let a = model.activity(activity);
    let mut next = marking.clone();
    for &(p, c) in &a.input_arcs {
        if !next.remove_tokens(p, c) {
            return Err(SanError::InvalidFunction {
                context: format!(
                    "firing '{}' would drive place {} negative in {marking}",
                    a.name,
                    model.place_name(p)
                ),
            });
        }
    }
    for &g in &a.input_gates {
        (model.input_gate(g).function)(&mut next);
    }
    let case_def = &a.cases[case];
    for &(p, c) in &case_def.output_arcs {
        next.add_tokens(p, c);
    }
    for &g in &case_def.output_gates {
        (model.output_gate(g).function)(&mut next);
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Activity, Case};

    fn timed(m: &SanModel, mk: &Marking) -> Result<Vec<(ActivityId, f64)>> {
        let mut out = Vec::new();
        enabled_timed(m, mk, &mut out).map(|()| out)
    }

    fn cases(m: &SanModel, id: ActivityId, mk: &Marking) -> Result<Vec<(usize, f64)>> {
        let mut out = Vec::new();
        case_distribution(m, id, mk, &mut out).map(|()| out)
    }

    fn model_with_counter() -> (SanModel, crate::PlaceId) {
        let mut m = SanModel::new("t");
        let p = m.add_place("p", 1);
        (m, p)
    }

    #[test]
    fn input_arcs_gate_enabling() {
        let (mut m, p) = model_with_counter();
        let id = m
            .add_activity(Activity::timed("a", 2.0).with_input_arc(p, 1))
            .unwrap();
        let mk = m.initial_marking();
        assert!(is_enabled(&m, m.activity(id), &mk));
        let fired = fire(&m, id, 0, &mk).unwrap();
        assert_eq!(fired.tokens(p), 0);
        assert!(!is_enabled(&m, m.activity(id), &fired));
    }

    #[test]
    fn enabling_predicate_blocks() {
        let (mut m, p) = model_with_counter();
        let id = m
            .add_activity(Activity::timed("a", 2.0).with_enabling(move |mk| mk.tokens(p) >= 5))
            .unwrap();
        assert!(!is_enabled(&m, m.activity(id), &m.initial_marking()));
    }

    #[test]
    fn input_gate_predicate_and_function() {
        let (mut m, p) = model_with_counter();
        let q = m.add_place("q", 0);
        let gate = m.add_input_gate(
            "g",
            move |mk| mk.tokens(p) == 1,
            move |mk| mk.set_tokens(p, 0),
        );
        let id = m
            .add_activity(
                Activity::timed("a", 1.0)
                    .with_input_gate(gate)
                    .with_output_arc(q, 2),
            )
            .unwrap();
        let mk = m.initial_marking();
        assert!(is_enabled(&m, m.activity(id), &mk));
        let fired = fire(&m, id, 0, &mk).unwrap();
        assert_eq!(fired.tokens(p), 0); // input gate function
        assert_eq!(fired.tokens(q), 2); // output arc
    }

    #[test]
    fn timed_rate_validation() {
        let (mut m, p) = model_with_counter();
        m.add_activity(Activity::timed_fn("bad", |_| -1.0).with_input_arc(p, 1))
            .unwrap();
        assert!(matches!(
            timed(&m, &m.initial_marking()),
            Err(SanError::InvalidFunction { .. })
        ));
    }

    #[test]
    fn zero_rate_means_disabled() {
        let (mut m, p) = model_with_counter();
        m.add_activity(Activity::timed("z", 0.0).with_input_arc(p, 1))
            .unwrap();
        assert!(timed(&m, &m.initial_marking()).unwrap().is_empty());
    }

    #[test]
    fn instantaneous_priorities_mask_lower() {
        let (mut m, p) = model_with_counter();
        m.add_activity(
            Activity::instantaneous("low")
                .with_priority(1)
                .with_input_arc(p, 1),
        )
        .unwrap();
        let hi = m
            .add_activity(
                Activity::instantaneous("high")
                    .with_priority(2)
                    .with_input_arc(p, 1),
            )
            .unwrap();
        let enabled = enabled_instantaneous(&m, &m.initial_marking()).unwrap();
        assert_eq!(enabled.len(), 1);
        assert_eq!(enabled[0].0, hi);
        assert!((enabled[0].1 - 1.0).abs() < 1e-15);
    }

    #[test]
    fn instantaneous_weights_normalize() {
        let (mut m, p) = model_with_counter();
        m.add_activity(
            Activity::instantaneous("a")
                .with_weight(1.0)
                .with_input_arc(p, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::instantaneous("b")
                .with_weight(3.0)
                .with_input_arc(p, 1),
        )
        .unwrap();
        let enabled = enabled_instantaneous(&m, &m.initial_marking()).unwrap();
        assert_eq!(enabled.len(), 2);
        assert!((enabled[0].1 - 0.25).abs() < 1e-15);
        assert!((enabled[1].1 - 0.75).abs() < 1e-15);
    }

    #[test]
    fn case_distribution_normalizes_and_drops_zero() {
        let (mut m, p) = model_with_counter();
        let id = m
            .add_activity(
                Activity::timed("a", 1.0)
                    .with_input_arc(p, 1)
                    .with_case(Case::with_probability(0.2))
                    .with_case(Case::with_probability(0.0))
                    .with_case(Case::with_probability(0.6)),
            )
            .unwrap();
        let dist = cases(&m, id, &m.initial_marking()).unwrap();
        assert_eq!(dist.len(), 2);
        assert_eq!(dist[0].0, 0);
        assert!((dist[0].1 - 0.25).abs() < 1e-12);
        assert_eq!(dist[1].0, 2);
        assert!((dist[1].1 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn all_zero_cases_error() {
        let (mut m, p) = model_with_counter();
        let id = m
            .add_activity(
                Activity::timed("a", 1.0)
                    .with_input_arc(p, 1)
                    .with_case(Case::with_probability(0.0)),
            )
            .unwrap();
        assert!(cases(&m, id, &m.initial_marking()).is_err());
    }

    #[test]
    fn marking_dependent_case_probability() {
        let (mut m, p) = model_with_counter();
        let id = m
            .add_activity(
                Activity::timed("a", 1.0)
                    .with_case(Case::with_probability_fn(move |mk| {
                        if mk.tokens(p) > 0 {
                            1.0
                        } else {
                            0.0
                        }
                    }))
                    .with_case(Case::with_probability_fn(move |mk| {
                        if mk.tokens(p) == 0 {
                            1.0
                        } else {
                            0.0
                        }
                    })),
            )
            .unwrap();
        let d1 = cases(&m, id, &m.initial_marking()).unwrap();
        assert_eq!(d1, vec![(0, 1.0)]);
        let mut empty = m.initial_marking();
        empty.set_tokens(p, 0);
        let d2 = cases(&m, id, &empty).unwrap();
        assert_eq!(d2, vec![(1, 1.0)]);
    }

    #[test]
    fn firing_disabled_activity_is_an_error() {
        let (mut m, p) = model_with_counter();
        let id = m
            .add_activity(Activity::timed("a", 1.0).with_input_arc(p, 2))
            .unwrap();
        assert!(fire(&m, id, 0, &m.initial_marking()).is_err());
    }

    #[test]
    fn output_gate_runs_after_output_arcs() {
        let (mut m, p) = model_with_counter();
        // Gate doubles p after the arc deposits 1 token.
        let og = m.add_output_gate("double", move |mk| {
            let t = mk.tokens(p);
            mk.set_tokens(p, t * 2);
        });
        let id = m
            .add_activity(
                Activity::timed("a", 1.0).with_input_arc(p, 1).with_case(
                    Case::with_probability(1.0)
                        .with_output_arc(p, 1)
                        .with_output_gate(og),
                ),
            )
            .unwrap();
        let fired = fire(&m, id, 0, &m.initial_marking()).unwrap();
        // 1 − 1 (input arc) + 1 (output arc) = 1, then ×2 = 2.
        assert_eq!(fired.tokens(p), 2);
    }
}
