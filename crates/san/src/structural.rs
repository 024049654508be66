//! Structural diagnostics on generated state spaces.
//!
//! Model-debugging helpers in the spirit of UltraSAN's structural reports:
//! token bounds per place (is the model safe / k-bounded?), activities that
//! can never fire (dead — usually a mis-specified gate), and reachable
//! markings satisfying a predicate. These operate on the *generated*
//! tangible space, so they are exact for the given initial marking.

use crate::model::ActivityId;
use crate::{SanModel, StateSpace};

/// Token bounds observed for one place across the tangible state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaceBounds {
    /// Minimum marking over reachable tangible states.
    pub min: u32,
    /// Maximum marking over reachable tangible states.
    pub max: u32,
}

/// Computes per-place token bounds over the reachable tangible markings
/// (indexed by place-creation order).
pub fn place_bounds(space: &StateSpace) -> Vec<PlaceBounds> {
    let n_places = space.marking(0).n_places();
    let mut bounds = vec![
        PlaceBounds {
            min: u32::MAX,
            max: 0
        };
        n_places
    ];
    for i in 0..space.n_states() {
        for (p, &tokens) in space.marking(i).as_slice().iter().enumerate() {
            bounds[p].min = bounds[p].min.min(tokens);
            bounds[p].max = bounds[p].max.max(tokens);
        }
    }
    bounds
}

/// `true` when every place holds at most one token in every reachable
/// tangible marking (a *safe* net — all the GSU models are).
pub fn is_safe(space: &StateSpace) -> bool {
    place_bounds(space).iter().all(|b| b.max <= 1)
}

/// Timed activities that never fire in the tangible chain. A dead activity
/// usually indicates an enabling predicate that can never hold or an
/// unreachable input marking.
///
/// Instantaneous activities are not reported: their firings are folded into
/// vanishing resolution.
pub fn dead_timed_activities(model: &SanModel, space: &StateSpace) -> Vec<ActivityId> {
    model
        .activity_ids()
        .filter(|&id| {
            matches!(model.activity_kind_of(id), crate::ActivityKind::Timed) && !space.fires(id)
        })
        .collect()
}

/// A text report of the structural findings.
pub fn report(model: &SanModel, space: &StateSpace) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "structural report for '{}': {} tangible states",
        space.model_name(),
        space.n_states()
    );
    let bounds = place_bounds(space);
    for (i, b) in bounds.iter().enumerate() {
        let _ = writeln!(
            out,
            "  place {:<24} tokens in [{}, {}]",
            model.place_name_by_index(i),
            b.min,
            b.max
        );
    }
    let _ = writeln!(out, "  safe (1-bounded): {}", is_safe(space));
    let dead = dead_timed_activities(model, space);
    if dead.is_empty() {
        let _ = writeln!(out, "  no dead timed activities");
    } else {
        for id in dead {
            let _ = writeln!(out, "  DEAD timed activity: {}", model.activity_name(id));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activity, ReachabilityOptions};

    fn space_of(model: &SanModel) -> StateSpace {
        StateSpace::generate(model, &ReachabilityOptions::default()).unwrap()
    }

    #[test]
    fn bounds_of_bounded_queue() {
        let mut m = SanModel::new("q");
        let q = m.add_place("q", 1);
        m.add_activity(
            Activity::timed("in", 1.0)
                .with_enabling(move |mk| mk.tokens(q) < 3)
                .with_output_arc(q, 1),
        )
        .unwrap();
        m.add_activity(Activity::timed("out", 1.0).with_input_arc(q, 1))
            .unwrap();
        let ss = space_of(&m);
        let b = place_bounds(&ss);
        assert_eq!(b[0], PlaceBounds { min: 0, max: 3 });
        assert!(!is_safe(&ss));
    }

    #[test]
    fn safe_net_detected() {
        let mut m = SanModel::new("safe");
        let p = m.add_place("p", 1);
        let q = m.add_place("q", 0);
        m.add_activity(
            Activity::timed("flip", 1.0)
                .with_input_arc(p, 1)
                .with_output_arc(q, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::timed("flop", 1.0)
                .with_input_arc(q, 1)
                .with_output_arc(p, 1),
        )
        .unwrap();
        assert!(is_safe(&space_of(&m)));
    }

    #[test]
    fn dead_activity_reported() {
        let mut m = SanModel::new("dead");
        let p = m.add_place("p", 1);
        m.add_activity(Activity::timed("live", 1.0).with_input_arc(p, 1))
            .unwrap();
        let dead = m
            .add_activity(Activity::timed("never", 1.0).with_enabling(|_| false))
            .unwrap();
        let ss = space_of(&m);
        assert_eq!(dead_timed_activities(&m, &ss), vec![dead]);
        let rep = report(&m, &ss);
        assert!(rep.contains("DEAD timed activity: never"));
    }

    // The GSU-specific structural assertions (all three paper models are
    // safe and live) are in the workspace integration tests, because
    // `performability` depends on this crate.

    #[test]
    fn report_lists_places() {
        let mut m = SanModel::new("r");
        m.add_place("alpha", 2);
        let rep = report(&m, &space_of(&m));
        assert!(rep.contains("alpha"));
        assert!(rep.contains("[2, 2]"));
    }
}
