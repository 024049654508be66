//! Graphviz (DOT) export of SAN models and state spaces.
//!
//! The paper communicates its models as diagrams (Figures 6–8); this module
//! produces the equivalent renderable artifacts for any model built with
//! this crate — places as circles, timed activities as hollow bars,
//! instantaneous activities as filled bars, following SAN drawing
//! conventions — plus the tangible reachability graph with transition
//! rates.
//!
//! ```console
//! cargo run --release -p gsu-bench -- run export_dot --out results
//! dot -Tsvg results/rmgd_model.dot -o rmgd.svg
//! ```

use std::fmt::Write as _;

use crate::model::ActivityKind;
use crate::{SanModel, StateSpace};

/// Renders the structure of a model as a DOT digraph.
///
/// Input arcs and enabling conditions draw as edges into the activity;
/// output arcs/gates as edges out of it (gates are not expanded — their
/// effects are opaque closures — but their presence is annotated on the
/// activity label).
pub fn model_to_dot(model: &SanModel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(model.name()));
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [fontname=\"Helvetica\"];");

    for (i, place) in model.places.iter().enumerate() {
        let tokens = if place.initial > 0 {
            format!("\\n●{}", place.initial)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  p{i} [shape=circle, label=\"{}{}\"];",
            escape(&place.name),
            tokens
        );
    }

    for (ai, activity) in model.activities.iter().enumerate() {
        let (shape, style) = match activity.kind {
            ActivityKind::Timed => ("rectangle", "filled, rounded"),
            ActivityKind::Instantaneous { .. } => ("rectangle", "filled"),
        };
        let fill = match activity.kind {
            ActivityKind::Timed => "white",
            ActivityKind::Instantaneous { .. } => "black",
        };
        let font = match activity.kind {
            ActivityKind::Timed => "black",
            ActivityKind::Instantaneous { .. } => "white",
        };
        let gates = if activity.input_gates.is_empty() && activity.enabling.is_empty() {
            ""
        } else {
            "\\n[gated]"
        };
        let _ = writeln!(
            out,
            "  a{ai} [shape={shape}, style=\"{style}\", fillcolor={fill}, fontcolor={font}, \
             width=0.15, label=\"{}{}\"];",
            escape(&activity.name),
            gates
        );
        for &(p, mult) in &activity.input_arcs {
            let label = if mult > 1 {
                format!(" [label=\"{mult}\"]")
            } else {
                String::new()
            };
            let _ = writeln!(out, "  p{} -> a{ai}{label};", p.index());
        }
        for (ci, case) in activity.cases.iter().enumerate() {
            let case_tag = if activity.cases.len() > 1 {
                format!(" [label=\"case {ci}\"]")
            } else {
                String::new()
            };
            for &(p, _mult) in &case.output_arcs {
                let _ = writeln!(out, "  a{ai} -> p{}{case_tag};", p.index());
            }
            if !case.output_gates.is_empty() && case.output_arcs.is_empty() {
                // Make gate-only effects visible as a dashed self-edge.
                let _ = writeln!(out, "  a{ai} -> a{ai} [style=dashed, label=\"gate\"];");
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders a generated tangible state space as a DOT digraph with markings
/// as node labels and rates as edge labels.
pub fn state_space_to_dot(space: &StateSpace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}-states\" {{", escape(space.model_name()));
    let _ = writeln!(out, "  node [shape=box, fontname=\"Courier\"];");
    for i in 0..space.n_states() {
        let initial = if space.initial_distribution()[i] > 0.0 {
            ", peripheries=2"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  s{i} [label=\"{}\"{initial}];",
            escape(&space.marking(i).to_string())
        );
    }
    for (from, to, rate) in space.ctmc().transitions() {
        let _ = writeln!(out, "  s{from} -> s{to} [label=\"{rate:.4}\"];");
    }
    let _ = writeln!(out, "}}");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activity, Case, ReachabilityOptions};

    fn sample() -> SanModel {
        let mut m = SanModel::new("dot-sample");
        let q = m.add_place("queue", 1);
        let done = m.add_place("done", 0);
        m.add_activity(
            Activity::timed("serve", 2.0)
                .with_input_arc(q, 1)
                .with_case(Case::with_probability(0.5).with_output_arc(done, 1))
                .with_case(Case::with_probability(0.5).with_output_arc(q, 1)),
        )
        .unwrap();
        m.add_activity(
            Activity::instantaneous("flush")
                .with_input_arc(done, 2)
                .with_output_arc(q, 1),
        )
        .unwrap();
        m
    }

    #[test]
    fn model_dot_is_wellformed() {
        let dot = model_to_dot(&sample());
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("queue"));
        assert!(dot.contains("serve"));
        assert!(dot.contains("flush"));
        assert!(dot.contains("case 0"));
        // Multiplicity 2 input arc labelled.
        assert!(dot.contains("label=\"2\""));
        // Initial token shown.
        assert!(dot.contains("●1"));
    }

    #[test]
    fn statespace_dot_lists_all_states_and_rates() {
        let mut m = SanModel::new("two");
        let p = m.add_place("p", 1);
        m.add_activity(Activity::timed("go", 3.5).with_input_arc(p, 1))
            .unwrap();
        let ss = StateSpace::generate(&m, &ReachabilityOptions::default()).unwrap();
        let dot = state_space_to_dot(&ss);
        assert!(dot.contains("s0"));
        assert!(dot.contains("s1"));
        assert!(dot.contains("3.5000"));
        assert!(dot.contains("peripheries=2")); // initial state marked
    }

    #[test]
    fn quotes_are_escaped() {
        let mut m = SanModel::new("has \"quotes\"");
        m.add_place("p\"lace", 0);
        let dot = model_to_dot(&m);
        assert!(dot.contains("has \\\"quotes\\\""));
        assert!(dot.contains("p\\\"lace"));
    }
}
