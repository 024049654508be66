//! The scenario-catalog gate: every committed `.gsu` scenario must
//! (a) reproduce its committed golden Y(φ) curve to near machine precision
//! and (b) agree with an independent Monte-Carlo estimate within confidence
//! bounds ([`gsu_scenario::crossval`] picks the backend per scenario shape).
//!
//! Run at both `GSU_THREADS=1` and `GSU_THREADS=4` by `scripts/check.sh`.

use std::path::Path;

use guarded_upgrade::gsu_scenario::{
    crossval, load_dir, read_golden, Backend, ScenarioAnalysis, ScenarioSpec,
};

fn catalog_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios"))
}

fn golden_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/results/golden"))
}

fn catalog() -> Vec<ScenarioSpec> {
    let specs = load_dir(catalog_dir()).expect("catalog must parse");
    assert!(
        specs.len() >= 10,
        "catalog shrank to {} scenario(s); keep at least 10",
        specs.len()
    );
    specs
}

#[test]
fn catalog_covers_every_scenario_family() {
    let specs = catalog();
    let has = |pred: fn(&ScenarioSpec) -> bool| specs.iter().any(pred);
    assert!(has(|s| s.is_paper_shaped()), "need a paper-shaped scenario");
    assert!(has(|s| s.escorts > 1), "need a multi-escort scenario");
    assert!(has(|s| s.waves.is_some()), "need an upgrade-wave scenario");
    assert!(
        has(|s| s.coverage_decay > 0.0),
        "need a marking-dependent-coverage scenario"
    );
    assert!(has(|s| s.aging.is_some()), "need an aging scenario");
    assert!(
        has(|s| !s.at.is_exponential()),
        "need a phase-type acceptance-test scenario"
    );
    assert!(
        has(|s| !s.ckpt.is_exponential()),
        "need a phase-type checkpoint scenario"
    );
}

#[test]
fn catalog_matches_golden_curves() {
    for spec in catalog() {
        let name = spec.name.clone();
        let golden = read_golden(&golden_dir().join(format!("{name}.json")))
            .unwrap_or_else(|e| panic!("{name}: missing golden: {e}"));
        let analysis =
            ScenarioAnalysis::new(spec).unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
        let curve = analysis
            .curve()
            .unwrap_or_else(|e| panic!("{name}: sweep failed: {e}"));
        let points: Vec<(f64, f64)> = curve.iter().map(|p| (p.phi, p.y)).collect();
        if let Err(why) = golden.check(&points) {
            panic!("{name}: {why}");
        }
    }
}

#[test]
fn catalog_cross_validates_against_simulation() {
    for spec in catalog() {
        let name = spec.name.clone();
        let analysis =
            ScenarioAnalysis::new(spec).unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
        // Extended scenarios fall back to discrete-event simulation of the
        // compiled SAN, which costs far more per φ point than the dedicated
        // MDCD simulator — probe one point there, two elsewhere.
        let max_points = match gsu_scenario::crossval::backend_for(analysis.spec()) {
            Backend::SanDes => 1,
            Backend::MdcdExact | Backend::MdcdHybrid => 2,
        };
        let report = crossval(&analysis, max_points)
            .unwrap_or_else(|e| panic!("{name}: cross-validation errored: {e}"));
        assert!(
            report.failures().is_empty(),
            "{name} [{}]: analytic and simulated estimates disagree: {:#?}",
            report.backend,
            report.failures()
        );
    }
}
