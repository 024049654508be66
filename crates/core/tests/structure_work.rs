//! The generation work of a build, read through a collector: each model
//! structure is generated once and refreshed per parameter set.
//!
//! * `GsuAnalysis::new` generates `RMGp`, `RMGd` and `RMNd` at µ_new, and
//!   refreshes `RMNd` at µ_old from the µ_new tape;
//! * `local_sensitivity` seeds one session with its base build, and its 14
//!   perturbed builds refresh all 56 of their models from it but one:
//!   the coverage-high variant clamps coverage to 1, which removes the AT's
//!   miss cases from `RMGd`, so that refresh declines and `RMGd` is
//!   generated cold;
//! * each generation records its `replica_groups`: none on the paper's
//!   models, one on `RMGd` and `RMNd` with two escorts (their symmetric
//!   quotients).
//!
//! Kept in a test binary of its own: the telemetry sink is process-global,
//! so no other build may run beside the ones being counted.

use performability::gsu::Family;
use performability::sensitivity::local_sensitivity;
use performability::{GsuAnalysis, GsuParams};
use telemetry::{ArgValue, Collector};

/// `(san.generate spans, san.refresh spans, san.generations,
/// san.refreshes)` recorded by `work`.
fn generation_work(collector: &Collector, work: impl FnOnce()) -> (usize, usize, u64, u64) {
    let spans = |name: &str| collector.spans().iter().filter(|s| s.name == name).count();
    let counter = |name: &str| collector.counter_value(name).unwrap_or(0);
    let before = (
        spans("san.generate"),
        spans("san.refresh"),
        counter("san.generations"),
        counter("san.refreshes"),
    );
    work();
    (
        spans("san.generate") - before.0,
        spans("san.refresh") - before.1,
        counter("san.generations") - before.2,
        counter("san.refreshes") - before.3,
    )
}

#[test]
fn each_structure_is_generated_once() {
    let collector = Collector::install();
    let params = GsuParams::paper_baseline();

    let build = generation_work(&collector, || {
        GsuAnalysis::new(params).unwrap();
    });
    assert_eq!(build, (3, 1, 3, 1), "GsuAnalysis::new");

    let tornado = generation_work(&collector, || {
        local_sensitivity(params, 7000.0, 0.10).unwrap();
    });
    // 4 generations: the base build's 3 and the coverage-high RMGd. 57
    // refresh attempts: the base build's 1 and the 14 variants' 56, of
    // which one (coverage-high RMGd) declines.
    assert_eq!(tornado, (4, 57, 4, 56), "local_sensitivity");

    // Each generation records its replica groups: the paper's models
    // declare none, two escorts make `RMGd` and `RMNd` symmetric quotients.
    let replica_groups = || -> Vec<(String, u64)> {
        let arg = |span: &telemetry::FinishedSpan, key: &str| {
            span.args
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        };
        collector
            .spans()
            .iter()
            .filter(|s| s.name == "san.generate")
            .map(|s| match (arg(s, "model"), arg(s, "replica_groups")) {
                (Some(ArgValue::Str(model)), Some(ArgValue::U64(groups))) => (model, groups),
                other => panic!("san.generate args {other:?}"),
            })
            .collect()
    };
    assert!(replica_groups().iter().all(|(_, groups)| *groups == 0));
    let seen = replica_groups().len();
    let family = Family {
        escorts: 2,
        ..Family::paper(&params).unwrap()
    };
    GsuAnalysis::from_family(params, &family).unwrap();
    let named = |model: &str, groups: u64| (model.to_string(), groups);
    assert_eq!(
        replica_groups()[seen..],
        [named("RMGp", 0), named("RMGd", 1), named("RMNd", 1)]
    );

    telemetry::clear_sink();
}
