//! The catalog's structure census: which scenarios' models refresh from
//! another scenario's tape — one structure (shape and zero pattern) under
//! different numbers — pinned per model. SCENARIOS.md records the groups.
//!
//! Scenarios are taken in catalog order; each joins the first group whose
//! first member's tape refreshes its model, or opens a new group.

use std::path::Path;

use gsu_scenario::model::{build_gd, build_gp, build_np};
use gsu_scenario::ScenarioSpec;
use san::{Derivation, SanModel, StateSpace};

fn catalog() -> Vec<ScenarioSpec> {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"));
    gsu_scenario::load_dir(dir).unwrap()
}

/// The scenarios grouped by the structure of the model `build` makes.
fn census(specs: &[ScenarioSpec], build: impl Fn(&ScenarioSpec) -> SanModel) -> Vec<Vec<String>> {
    let mut groups: Vec<(Derivation, Vec<String>)> = Vec::new();
    for spec in specs {
        let model = build(spec);
        match groups
            .iter_mut()
            .find(|(tape, _)| tape.refresh(&model).is_some())
        {
            Some((_, members)) => members.push(spec.name.clone()),
            None => {
                let (_, tape) = StateSpace::generate_recorded(&model, &Default::default()).unwrap();
                groups.push((tape, vec![spec.name.clone()]));
            }
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

fn show(groups: &[Vec<String>]) -> Vec<String> {
    groups.iter().map(|g| g.join(" ")).collect()
}

#[test]
fn catalog_structure_census() {
    let specs = catalog();
    assert_eq!(specs.len(), 14);
    // RMGd: the nine paper-shaped scenarios are one structure; the
    // safeguard laws do not enter the G-OP model, whose ATs are
    // instantaneous.
    assert_eq!(
        show(&census(&specs, |s| build_gd(s).unwrap().model)),
        [
            "aging-rejuvenation",
            "degrading-coverage two-escorts",
            "det-checkpoint erlang-acceptance hyper-acceptance paper-baseline \
             paper-high-fault-rate paper-low-coverage paper-short-window \
             paper-slow-safeguards small-exact",
            "three-escorts",
            "upgrade-waves",
        ]
    );
    // RMGp: one representative escorted pair whatever the escort count;
    // only a phase-type safeguard law changes its structure.
    assert_eq!(
        show(&census(&specs, |s| build_gp(s).unwrap().model)),
        [
            "aging-rejuvenation degrading-coverage paper-baseline paper-high-fault-rate \
             paper-low-coverage paper-short-window paper-slow-safeguards small-exact \
             three-escorts two-escorts upgrade-waves",
            "det-checkpoint",
            "erlang-acceptance",
            "hyper-acceptance",
        ]
    );
    // RMNd: only the escort count changes the normal mode.
    assert_eq!(
        show(&census(&specs, |s| build_np(s, s.params.mu_new)
            .unwrap()
            .model)),
        [
            "aging-rejuvenation det-checkpoint erlang-acceptance hyper-acceptance \
             paper-baseline paper-high-fault-rate paper-low-coverage paper-short-window \
             paper-slow-safeguards small-exact upgrade-waves",
            "degrading-coverage two-escorts",
            "three-escorts",
        ]
    );
}
