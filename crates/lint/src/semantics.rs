//! Layer 2: the model-semantics pass.
//!
//! Unlike the lexical pass, this layer checks the **actual constructed
//! models**: it builds the paper's three SAN reward models (`RMGd`, `RMGp`,
//! `RMNd`) from [`GsuParams`], generates their tangible state spaces, and
//! verifies the properties every solver in the pipeline silently assumes —
//! generator well-formedness, reachability structure matching the solver
//! the model is fed to, SAN liveness/boundedness, and reward-variable
//! well-formedness over the *reachable* markings. Every finding names the
//! offending state, activity, pair, or parameter.

use markov::graph::{can_reach, strongly_connected_components};
use performability::gsu::{rmgd, rmgp, rmnd, Family};
use performability::GsuParams;
use san::{RewardSpec, SanModel, StateSpace};
use sparsela::CsrMatrix;

use crate::diag::Finding;

/// Which solver family a chain is destined for — determines the structural
/// properties the generator must satisfy on top of well-formedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverIntent {
    /// Steady-state solution: the chain must be a unichain — exactly one
    /// closed recurrent class (transient lead-in states are fine; RMGp's
    /// initial clean-dirty-bit states are transient by design).
    SteadyState,
    /// Absorbing-chain analysis: at least one absorbing state must exist
    /// and every state must be able to reach one.
    Absorbing,
    /// Transient solution only: no structural requirement beyond
    /// well-formedness.
    Transient,
}

/// Absolute row-sum tolerance, scaled to the row's magnitude: construction
/// rounding grows with the exit rate (the GSU chains carry rates up to
/// ~1.3e4), while a genuinely mis-assembled generator is off by far more
/// than 1e-10 relative.
fn row_sum_tolerance(exit_rate: f64) -> f64 {
    f64::max(1e-12, 1e-10 * exit_rate)
}

/// Groups states into strongly connected components and returns the
/// **closed** ones — classes no edge leaves, i.e. the chain's recurrent
/// classes. Each inner vec is sorted ascending.
fn closed_classes(q: &CsrMatrix) -> Vec<Vec<usize>> {
    let (comp, n_comp) = strongly_connected_components(q);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_comp];
    let mut open = vec![false; n_comp];
    for i in 0..q.rows() {
        members[comp[i]].push(i);
        for (j, v) in q.row(i) {
            if v != 0.0 && comp[j] != comp[i] {
                open[comp[i]] = true;
            }
        }
    }
    members
        .into_iter()
        .zip(open)
        .filter(|&(_, is_open)| !is_open)
        .map(|(class, _)| class)
        .collect()
}

/// Checks one CTMC generator matrix for well-formedness and for the
/// structural property demanded by `intent`. `name` labels the model in
/// finding locations.
pub fn check_generator(name: &str, q: &CsrMatrix, intent: SolverIntent) -> Vec<Finding> {
    let mut findings = Vec::new();
    let n = q.rows();
    let mut absorbing = Vec::new();
    for i in 0..n {
        let mut row_sum = 0.0;
        let mut exit = 0.0;
        let mut well_formed = true;
        for (j, v) in q.row(i) {
            if !v.is_finite() {
                findings.push(Finding::new(
                    "ctmc-nonfinite",
                    format!("model {name} / state {i}"),
                    format!("generator entry q[{i},{j}] = {v} is not finite"),
                    "inspect the rate functions feeding this transition",
                ));
                well_formed = false;
                continue;
            }
            if j != i {
                if v < 0.0 {
                    findings.push(Finding::new(
                        "ctmc-negative-rate",
                        format!("model {name} / state {i}"),
                        format!("off-diagonal generator entry q[{i},{j}] = {v} is negative"),
                        "transition rates must be non-negative; check the model generator",
                    ));
                    well_formed = false;
                }
                exit += v.abs();
            }
            row_sum += v;
        }
        if well_formed {
            let tol = row_sum_tolerance(exit);
            if row_sum.abs() > tol {
                findings.push(Finding::new(
                    "ctmc-row-sum",
                    format!("model {name} / state {i}"),
                    format!(
                        "generator row {i} sums to {row_sum:e} (tolerance {tol:e}); \
                         a generator row must sum to 0"
                    ),
                    "the diagonal must equal minus the off-diagonal sum; check the assembly",
                ));
            }
        }
        if exit == 0.0 {
            absorbing.push(i);
        }
    }
    match intent {
        SolverIntent::SteadyState => {
            let closed = closed_classes(q);
            if closed.len() != 1 {
                let reps: Vec<usize> = closed.iter().map(|c| c[0]).collect();
                findings.push(Finding::new(
                    "ctmc-not-irreducible",
                    format!("model {name}"),
                    format!(
                        "chain has {} closed recurrent classes (representative states \
                         {reps:?}) but the steady-state solver requires a unichain",
                        closed.len()
                    ),
                    "merge the recurrent classes or switch to a transient/absorbing solution",
                ));
            }
        }
        SolverIntent::Absorbing => {
            if absorbing.is_empty() {
                findings.push(Finding::new(
                    "ctmc-no-absorbing",
                    format!("model {name}"),
                    "chain is analysed as absorbing but has no absorbing state",
                    "an absorbing analysis needs at least one state with exit rate 0",
                ));
            } else {
                let ok = can_reach(q, &absorbing);
                for (i, reached) in ok.iter().enumerate() {
                    if !reached {
                        findings.push(Finding::new(
                            "ctmc-absorbing-unreachable",
                            format!("model {name} / state {i}"),
                            format!("state {i} cannot reach any absorbing state"),
                            "absorption probabilities are undefined from this state; check \
                             the transition structure",
                        ));
                    }
                }
            }
        }
        SolverIntent::Transient => {}
    }
    findings
}

/// Checks a generated SAN state space: dead timed activities, place bounds,
/// and total evaluation of rate and case-probability functions over every
/// reachable tangible marking.
pub fn check_san(
    name: &str,
    model: &SanModel,
    space: &StateSpace,
    place_bound: u32,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for id in san::structural::dead_timed_activities(model, space) {
        findings.push(Finding::new(
            "san-dead-activity",
            format!("model {name} / activity '{}'", model.activity_name(id)),
            format!(
                "timed activity '{}' never fires in any of the {} reachable markings",
                model.activity_name(id),
                space.n_states()
            ),
            "its enabling predicate can never hold (or its input marking is unreachable); \
             fix the predicate or remove the activity",
        ));
    }
    for (p, b) in san::structural::place_bounds(space).iter().enumerate() {
        if b.max > place_bound {
            findings.push(Finding::new(
                "san-place-bound",
                format!("model {name} / place '{}'", model.place_name_by_index(p)),
                format!(
                    "place '{}' reaches {} tokens (expected bound {place_bound})",
                    model.place_name_by_index(p),
                    b.max
                ),
                "the GSU models are safe nets; an unbounded place usually means a missing \
                 input arc",
            ));
        }
    }
    for i in 0..space.n_states() {
        let marking = space.marking(i);
        match model.enabled_timed_activities(marking) {
            Ok(enabled) => {
                for (id, _) in enabled {
                    if let Err(e) = model.case_distribution_of(id, marking) {
                        findings.push(Finding::new(
                            "san-case-probability",
                            format!(
                                "model {name} / activity '{}' / state {i}",
                                model.activity_name(id)
                            ),
                            format!("case distribution undefined in reachable marking: {e}"),
                            "case probabilities must be finite, non-negative, and not all \
                             zero in every reachable marking where the activity is enabled",
                        ));
                    }
                }
            }
            Err(e) => {
                findings.push(Finding::new(
                    "san-enabling-eval",
                    format!("model {name} / state {i}"),
                    format!("rate evaluation failed in reachable marking {marking}: {e}"),
                    "rate functions must return finite non-negative values in every \
                     reachable marking",
                ));
            }
        }
    }
    findings
}

/// Checks one reward specification against the reachable state space:
/// every predicate-rate pair must hold somewhere and reward rates must stay
/// finite.
pub fn check_reward(
    name: &str,
    spec_name: &str,
    spec: &RewardSpec,
    space: &StateSpace,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (pair, support) in spec.pair_support(space).iter().enumerate() {
        if *support == 0 {
            findings.push(Finding::new(
                "reward-zero-support",
                format!("model {name} / reward '{spec_name}' / pair {pair}"),
                format!(
                    "predicate-rate pair {pair} of reward '{spec_name}' holds in none of \
                     the {} reachable markings",
                    space.n_states()
                ),
                "the predicate describes an unreachable marking; fix the predicate or the \
                 model",
            ));
        }
    }
    for i in 0..space.n_states() {
        let rate = spec.rate_of(space.marking(i));
        if !rate.is_finite() {
            findings.push(Finding::new(
                "reward-nonfinite",
                format!("model {name} / reward '{spec_name}' / state {i}"),
                format!(
                    "reward rate evaluates to {rate} in reachable marking {}",
                    space.marking(i)
                ),
                "reward rates must be finite in every reachable marking",
            ));
        }
    }
    findings
}

/// Checks the parameter domain: every `GsuParams` field in range and each
/// candidate guarded-operation duration within `[0, theta]`.
pub fn check_params(params: &GsuParams, phis: &[f64]) -> Vec<Finding> {
    let mut findings = Vec::new();
    if let Err(e) = params.validate() {
        findings.push(Finding::new(
            "params-domain",
            "GsuParams".to_string(),
            e.to_string(),
            "see GsuParams::validate for the per-field domains",
        ));
    }
    for &phi in phis {
        if let Err(e) = params.validate_phi(phi) {
            findings.push(Finding::new(
                "params-phi-range",
                format!("GsuParams / phi = {phi}"),
                e.to_string(),
                "the guarded-operation duration must satisfy 0 <= phi <= theta",
            ));
        }
    }
    findings
}

/// Expected token bound for the GSU nets (all three paper models are safe,
/// i.e. 1-bounded).
pub const GSU_PLACE_BOUND: u32 = 1;

/// Builds the paper's models from `params` and runs every semantic check:
/// `RMGd` (absorbing, guarded mode), `RMGp` (irreducible, solved for
/// steady-state performance levels), and `RMNd` at both µ_new and µ_old
/// (absorbing, normal mode) — plus the reward variables each one carries.
///
/// Construction failures surface as `model-build` findings rather than
/// errors: a model that cannot even be built is precisely what the gate
/// exists to catch.
pub fn check_gsu_models(params: &GsuParams) -> Vec<Finding> {
    let mut span = telemetry::span("lint.models");
    let mut findings = check_params(params, &[0.0, params.theta * 0.5, params.theta]);
    findings.extend(check_model_family(
        ["RMGd", "RMGp", "RMNd[mu_new]", "RMNd[mu_old]"].map(String::from),
        params,
        Family::paper(params),
    ));
    span.record("findings", findings.len());
    findings
}

/// The semantic battery over the four models of one family member, in
/// order: the G-OP dependability model (absorbing, with the `A'1 ∪ A'2`
/// occupancy reward), the overhead model (steady state, with the Table 2
/// rewards), and the normal-mode model at µ_new and at µ_old (absorbing,
/// with the survival reward). `labels` name the four models in findings.
fn check_model_family<E: std::fmt::Display>(
    labels: [String; 4],
    params: &GsuParams,
    family: Result<Family, E>,
) -> Vec<Finding> {
    let [gd_label, gp_label, np_new_label, np_old_label] = labels;
    let family = match family {
        Ok(family) => family,
        Err(e) => {
            return vec![Finding::new(
                "model-build",
                format!("model {gd_label}"),
                format!("model family failed to compile: {e}"),
                "the family's safeguard laws must compile to phase-type laws",
            )];
        }
    };
    let bound = place_bound(&family);
    let mut findings = check_one_san(
        &gd_label,
        || {
            rmgd::build_family(params, &family).map(|built| {
                let places = built.places.gop;
                let occupancy = RewardSpec::new()
                    .rate_fn(move |mk| places.in_a1(mk) || places.in_a2(mk), |_| 1.0);
                (built.model, vec![("occupancy".to_string(), occupancy)])
            })
        },
        SolverIntent::Absorbing,
        bound,
    );
    findings.extend(check_one_san(
        &gp_label,
        || {
            rmgp::build_family(params, &family).map(|built| {
                let specs = vec![
                    (
                        "1-rho1".to_string(),
                        rmgp::one_minus_rho1_spec(&built.places),
                    ),
                    (
                        "1-rho2".to_string(),
                        rmgp::one_minus_rho2_spec(&built.places),
                    ),
                ];
                (built.model, specs)
            })
        },
        SolverIntent::SteadyState,
        bound,
    ));
    for (label, mu_first) in [(np_new_label, params.mu_new), (np_old_label, params.mu_old)] {
        findings.extend(check_one_san(
            &label,
            || {
                rmnd::build_family(params, &family, mu_first).map(|built| {
                    let failure = built.places.failure;
                    let survival =
                        RewardSpec::new().rate_when(move |mk| mk.tokens(failure) == 0, 1.0);
                    (built.model, vec![("survival".to_string(), survival)])
                })
            },
            SolverIntent::Absorbing,
            bound,
        ));
    }
    findings
}

/// Walks a `.gsu` scenario catalog: every file must parse and match its
/// file stem, and every compiled scenario model (generalized dependability,
/// overhead, and normal-mode SANs) must pass the same generator, SAN, and
/// reward checks the paper-baseline models do — with the solver intent each
/// model is actually fed to.
pub fn check_scenarios(dir: &std::path::Path) -> Vec<Finding> {
    let mut span = telemetry::span("lint.scenarios");
    let mut files: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| path.extension().is_some_and(|ext| ext == "gsu"))
            .collect(),
        Err(e) => {
            return vec![Finding::new(
                "scenario-parse",
                dir.display().to_string(),
                format!("cannot read scenario catalog: {e}"),
                "commit the scenarios/ directory next to the workspace root",
            )];
        }
    };
    files.sort();
    let mut findings = Vec::new();
    let mut checked = 0usize;
    for path in &files {
        let location = path.display().to_string();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                findings.push(Finding::new(
                    "scenario-parse",
                    location,
                    format!("unreadable scenario file: {e}"),
                    "every committed .gsu file must be readable UTF-8",
                ));
                continue;
            }
        };
        let spec = match gsu_scenario::parse(&text) {
            Ok(spec) => spec,
            Err(e) => {
                findings.push(Finding::new(
                    "scenario-parse",
                    format!("{location}:{}:{}", e.line, e.col),
                    e.message.clone(),
                    "fix the scenario source; the catalog must parse cleanly",
                ));
                continue;
            }
        };
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        if spec.name != stem {
            findings.push(Finding::new(
                "scenario-parse",
                location,
                format!(
                    "scenario name `{}` does not match file stem `{stem}`",
                    spec.name
                ),
                "rename the file or the scenario so catalog lookups stay unambiguous",
            ));
            continue;
        }
        checked += 1;
        findings.extend(check_scenario_models(&spec));
    }
    span.record("scenarios", checked);
    span.record("findings", findings.len());
    findings
}

/// Compiles one scenario's models and runs the full semantic battery on
/// each.
pub fn check_scenario_models(spec: &gsu_scenario::ScenarioSpec) -> Vec<Finding> {
    let name = &spec.name;
    let mut findings = check_params(&spec.params, &spec.phi_grid);
    findings.extend(check_model_family(
        ["Gd", "Gp", "Np[mu_new]", "Np[mu_old]"].map(|m| format!("scenario:{name}/{m}")),
        &spec.params,
        gsu_scenario::model::family(spec),
    ));
    findings
}

/// The token bound a family's models are allowed to reach. The paper's
/// nets are safe, but a phase-type expansion counts its stages (or branch
/// indices) in a single place, and staged rollouts count completed waves.
fn place_bound(family: &Family) -> u32 {
    let waves = family
        .waves
        .as_ref()
        .map_or(0, |w| w.count.saturating_sub(1));
    [family.at.n_phases(), family.ckpt.n_phases(), waves]
        .into_iter()
        .fold(GSU_PLACE_BOUND, |bound, n| bound.max(n as u32))
}

/// Builds one model + its reward specs, generates the state space, and
/// runs the generator, SAN, and reward checks.
fn check_one_san<E: std::fmt::Display>(
    name: &str,
    build: impl FnOnce() -> Result<(SanModel, Vec<(String, RewardSpec)>), E>,
    intent: SolverIntent,
    place_bound: u32,
) -> Vec<Finding> {
    let (model, specs) = match build() {
        Ok(built) => built,
        Err(e) => {
            return vec![Finding::new(
                "model-build",
                format!("model {name}"),
                format!("model construction failed: {e}"),
                "the builder rejected its own structure; fix the model definition",
            )];
        }
    };
    let space = match StateSpace::generate(&model, &Default::default()) {
        Ok(space) => space,
        Err(e) => {
            return vec![Finding::new(
                "model-build",
                format!("model {name}"),
                format!("state-space generation failed: {e}"),
                "reachability exploration must terminate cleanly for every GSU model",
            )];
        }
    };
    let mut findings = check_generator(name, space.ctmc().generator(), intent);
    findings.extend(check_san(name, &model, &space, place_bound));
    for (spec_name, spec) in &specs {
        findings.extend(check_reward(name, spec_name, spec, &space));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use san::Activity;

    fn csr(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut data = vec![0.0; n * n];
        for &(i, j, v) in entries {
            data[i * n + j] = v;
        }
        CsrMatrix::from_dense(&sparsela::DenseMatrix::from_vec(n, n, data).unwrap())
    }

    fn rule_at(findings: &[Finding], rule: &str) -> Vec<String> {
        findings
            .iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.location.clone())
            .collect()
    }

    #[test]
    fn clean_generator_passes_all_intents() {
        let q = csr(2, &[(0, 0, -1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, -2.0)]);
        for intent in [SolverIntent::SteadyState, SolverIntent::Transient] {
            assert!(check_generator("m", &q, intent).is_empty());
        }
    }

    #[test]
    fn row_sum_off_by_1e6_names_the_state() {
        // Row 1 sums to 1e-6 — far above tolerance at these rates.
        let q = csr(
            2,
            &[(0, 0, -1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, -2.0 + 1e-6)],
        );
        let findings = check_generator("broken", &q, SolverIntent::Transient);
        assert_eq!(
            rule_at(&findings, "ctmc-row-sum"),
            ["model broken / state 1"]
        );
        // …while fp-noise-sized residue passes.
        let q = csr(
            2,
            &[(0, 0, -1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, -2.0 + 1e-13)],
        );
        assert!(check_generator("ok", &q, SolverIntent::Transient).is_empty());
    }

    #[test]
    fn negative_offdiagonal_and_nonfinite_are_named() {
        let q = csr(2, &[(0, 0, 0.5), (0, 1, -0.5), (1, 1, 0.0)]);
        let findings = check_generator("neg", &q, SolverIntent::Transient);
        assert_eq!(
            rule_at(&findings, "ctmc-negative-rate"),
            ["model neg / state 0"]
        );
        let q = csr(1, &[(0, 0, f64::NAN)]);
        let findings = check_generator("nan", &q, SolverIntent::Transient);
        assert_eq!(
            rule_at(&findings, "ctmc-nonfinite"),
            ["model nan / state 0"]
        );
    }

    #[test]
    fn solver_intent_structure() {
        // Absorbing chain: state 1 absorbs. A unichain, so it passes
        // SteadyState too (the stationary law is the point mass at 1).
        let q = csr(2, &[(0, 0, -1.0), (0, 1, 1.0)]);
        assert!(check_generator("m", &q, SolverIntent::SteadyState).is_empty());
        assert!(check_generator("m", &q, SolverIntent::Absorbing).is_empty());
        // Two absorbing states = two closed classes: not a unichain.
        let q2 = csr(2, &[]);
        let findings = check_generator("m", &q2, SolverIntent::SteadyState);
        assert_eq!(rule_at(&findings, "ctmc-not-irreducible"), ["model m"]);
        assert!(findings[0].message.contains("2 closed recurrent classes"));
        // Irreducible chain: passes SteadyState, fails Absorbing (no absorber).
        let q = csr(2, &[(0, 0, -1.0), (0, 1, 1.0), (1, 0, 2.0), (1, 1, -2.0)]);
        assert!(check_generator("m", &q, SolverIntent::SteadyState).is_empty());
        assert_eq!(
            rule_at(
                &check_generator("m", &q, SolverIntent::Absorbing),
                "ctmc-no-absorbing"
            ),
            ["model m"]
        );
        // Two components, one absorbing but unreachable from the other.
        let q = csr(3, &[(0, 0, -1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, -1.0)]);
        let findings = check_generator("m", &q, SolverIntent::Absorbing);
        let locs = rule_at(&findings, "ctmc-absorbing-unreachable");
        assert_eq!(locs, ["model m / state 0", "model m / state 1"]);
    }

    #[test]
    fn dead_activity_is_named() {
        let mut m = SanModel::new("toy");
        let p = m.add_place("p", 1);
        m.add_activity(Activity::timed("live", 1.0).with_input_arc(p, 1))
            .unwrap();
        m.add_activity(Activity::timed("never", 1.0).with_enabling(|_| false))
            .unwrap();
        let space = StateSpace::generate(&m, &Default::default()).unwrap();
        let findings = check_san("toy", &m, &space, 1);
        assert_eq!(
            rule_at(&findings, "san-dead-activity"),
            ["model toy / activity 'never'"]
        );
    }

    #[test]
    fn place_bound_warns_by_name() {
        let mut m = SanModel::new("q");
        let p = m.add_place("buffer", 0);
        m.add_activity(
            Activity::timed("in", 1.0)
                .with_enabling(move |mk| mk.tokens(p) < 3)
                .with_output_arc(p, 1),
        )
        .unwrap();
        m.add_activity(Activity::timed("out", 1.0).with_input_arc(p, 1))
            .unwrap();
        let space = StateSpace::generate(&m, &Default::default()).unwrap();
        let findings = check_san("q", &m, &space, 1);
        assert_eq!(
            rule_at(&findings, "san-place-bound"),
            ["model q / place 'buffer'"]
        );
        assert_eq!(findings[0].severity, crate::diag::Severity::Warn);
        assert!(check_san("q", &m, &space, 3)
            .iter()
            .all(|f| f.rule != "san-place-bound"));
    }

    #[test]
    fn reward_on_unreachable_marking_is_denied() {
        let mut m = SanModel::new("r");
        let p = m.add_place("p", 1);
        m.add_activity(Activity::timed("drain", 1.0).with_input_arc(p, 1))
            .unwrap();
        let space = StateSpace::generate(&m, &Default::default()).unwrap();
        // Reachable markings hold 0 or 1 tokens; 5 is unreachable.
        let spec = RewardSpec::new()
            .rate_when(move |mk| mk.tokens(p) == 5, 1.0)
            .rate_when(move |mk| mk.tokens(p) == 1, 2.0);
        let findings = check_reward("r", "busted", &spec, &space);
        assert_eq!(
            rule_at(&findings, "reward-zero-support"),
            ["model r / reward 'busted' / pair 0"]
        );
    }

    #[test]
    fn phi_beyond_theta_is_denied() {
        let params = GsuParams::paper_baseline();
        let findings = check_params(&params, &[0.0, params.theta, params.theta + 1.0]);
        assert_eq!(
            rule_at(&findings, "params-phi-range"),
            [format!("GsuParams / phi = {}", params.theta + 1.0)]
        );
        let mut bad = params;
        bad.coverage = 1.5;
        let findings = check_params(&bad, &[]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "params-domain");
        assert!(findings[0].message.contains("coverage"));
    }

    #[test]
    fn shipped_gsu_models_are_clean() {
        let findings = check_gsu_models(&GsuParams::paper_baseline());
        assert!(
            findings.is_empty(),
            "expected a clean bill for the paper models, got: {findings:#?}"
        );
    }

    const GOOD_SCENARIO: &str = "\
scenario \"good\"
theta 50
lambda 40
mu_new 0.02
mu_old 0.0000001
coverage 0.95
p_ext 0.1
at exp 200
ckpt exp 200
escorts 2
phi_grid 0 25 50
";

    fn scenario_fixture_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gsu-lint-scen-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn clean_scenario_catalog_passes() {
        let dir = scenario_fixture_dir("clean");
        std::fs::write(dir.join("good.gsu"), GOOD_SCENARIO).unwrap();
        let findings = check_scenarios(&dir);
        assert!(
            findings.is_empty(),
            "expected a clean bill for the fixture catalog, got: {findings:#?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeded_parse_defect_fires_scenario_parse_with_position() {
        let dir = scenario_fixture_dir("defect");
        // Two seeded defects: a syntax error (line 3: unknown key) and a
        // name/stem mismatch. Both must fire `scenario-parse`, nothing else.
        std::fs::write(
            dir.join("broken.gsu"),
            "scenario \"broken\"\ntheta 50\nlambduh 40\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("misnamed.gsu"),
            GOOD_SCENARIO.replace("\"good\"", "\"other\""),
        )
        .unwrap();
        let findings = check_scenarios(&dir);
        let parse = rule_at(&findings, "scenario-parse");
        assert_eq!(parse.len(), 2, "{findings:#?}");
        assert!(
            parse[0].ends_with("broken.gsu:3:1"),
            "defect location should carry line and column: {}",
            parse[0]
        );
        assert!(parse[1].ends_with("misnamed.gsu"), "{}", parse[1]);
        assert!(
            findings.iter().all(|f| f.rule == "scenario-parse"),
            "a file that fails to load must not cascade into model findings: {findings:#?}"
        );
        let mismatch = findings
            .iter()
            .find(|f| f.location.ends_with("misnamed.gsu"))
            .unwrap();
        assert!(
            mismatch.message.contains("does not match file stem"),
            "{mismatch:#?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scenario_model_defect_is_caught_by_the_battery() {
        // A parseable scenario whose compiled models violate solver
        // contracts: mu_old = 0 makes every old-version process
        // incorruptible, so old-version fault-manifestation activities are
        // dead in the dependability and normal-mode models — the liveness
        // check must fire, and every finding must name a scenario model.
        let text = GOOD_SCENARIO.replace("mu_old 0.0000001", "mu_old 0");
        let spec = gsu_scenario::parse(&text).unwrap();
        let findings = check_scenario_models(&spec);
        assert!(
            !findings.is_empty(),
            "a structurally degenerate scenario must not pass the battery"
        );
        assert!(
            findings.iter().any(|f| f.rule == "san-dead-activity"),
            "dead fault-manifestation activities must be reported: {findings:#?}"
        );
        assert!(
            findings
                .iter()
                .all(|f| f.location.contains("model scenario:good/")),
            "every finding must name the scenario model it came from: {findings:#?}"
        );
    }
}
