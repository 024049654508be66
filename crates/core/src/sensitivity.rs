//! Local sensitivity analysis of the performability index.
//!
//! The paper's §6 explores sensitivity one parameter at a time (µ_new in
//! Figs. 9/12, α/β in Fig. 10, c in Fig. 11). This module systematizes
//! that: central finite differences of `Y(φ)` with respect to every basic
//! parameter, reported as **elasticities** (`%ΔY per %Δparameter`) so
//! different scales are comparable — the tornado view of which knobs
//! actually matter.

use crate::{GsuAnalysis, GsuParams, Result};

/// Sensitivity of `Y(φ)` to one parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSensitivity {
    /// Parameter name.
    pub name: &'static str,
    /// Baseline value of the parameter.
    pub base_value: f64,
    /// Relative perturbation used for the central difference.
    pub relative_step: f64,
    /// `Y` at the decreased parameter value.
    pub y_low: f64,
    /// `Y` at the increased parameter value.
    pub y_high: f64,
    /// Elasticity `(ΔY/Y) / (Δp/p)` at the baseline.
    pub elasticity: f64,
}

impl ParamSensitivity {
    /// Total swing `|y_high − y_low|` — the tornado bar length.
    pub fn swing(&self) -> f64 {
        (self.y_high - self.y_low).abs()
    }
}

/// All basic parameters that can be perturbed multiplicatively.
/// Parameter accessor pair: read the value, write a perturbed value.
type ParamAccessor = (&'static str, fn(&GsuParams) -> f64, fn(&mut GsuParams, f64));

fn parameters() -> Vec<ParamAccessor> {
    vec![
        ("lambda", |p| p.lambda, |p, v| p.lambda = v),
        ("mu_new", |p| p.mu_new, |p, v| p.mu_new = v),
        ("mu_old", |p| p.mu_old, |p, v| p.mu_old = v),
        ("coverage", |p| p.coverage, |p, v| p.coverage = v),
        ("p_ext", |p| p.p_ext, |p, v| p.p_ext = v),
        ("alpha", |p| p.alpha, |p, v| p.alpha = v),
        ("beta", |p| p.beta, |p, v| p.beta = v),
    ]
}

/// Computes the local sensitivity of `Y(φ)` to every basic parameter by
/// central finite differences with a multiplicative step `rel_step`
/// (e.g. `0.05` for ±5%). Parameters bounded by 1 (coverage, `p_ext`) are
/// clamped into `[0, 1]`.
///
/// Results are sorted by decreasing swing.
///
/// # Errors
///
/// Propagates parameter validation and pipeline failures; `rel_step` must
/// lie in `(0, 0.5)`.
pub fn local_sensitivity(
    params: GsuParams,
    phi: f64,
    rel_step: f64,
) -> Result<Vec<ParamSensitivity>> {
    if !(rel_step > 0.0 && rel_step < 0.5) {
        return Err(crate::PerfError::InvalidParameter {
            name: "rel_step",
            value: rel_step,
            expected: "within (0, 0.5)",
        });
    }
    params.validate()?;
    params.validate_phi(phi)?;
    let base_y = GsuAnalysis::new(params)?.evaluate(phi)?.y;

    // Each parameter's two perturbed pipelines (build + solve) are
    // independent given `base_y`, so fan them across the global pool. The
    // per-parameter computation is untouched and results are collected in
    // accessor order, so the outcome is bitwise identical at any thread
    // count.
    let workers = pool::Pool::current();
    let mut span = telemetry::span("performability.local_sensitivity");
    span.record("threads", workers.threads());
    let per_param =
        |_: usize, (name, get, set): ParamAccessor| -> Result<Option<ParamSensitivity>> {
            let base_value = get(&params);
            if base_value == 0.0 {
                return Ok(None); // multiplicative perturbation undefined
            }
            let bounded = matches!(name, "coverage" | "p_ext");
            let clamp = |v: f64| if bounded { v.clamp(0.0, 1.0) } else { v };

            let mut low = params;
            set(&mut low, clamp(base_value * (1.0 - rel_step)));
            let mut high = params;
            set(&mut high, clamp(base_value * (1.0 + rel_step)));

            let y_low = GsuAnalysis::new(low)?.evaluate(phi)?.y;
            let y_high = GsuAnalysis::new(high)?.evaluate(phi)?.y;

            let dp_rel = (get(&high) - get(&low)) / base_value;
            let elasticity = if dp_rel.abs() > 0.0 {
                ((y_high - y_low) / base_y) / dp_rel
            } else {
                0.0
            };

            Ok(Some(ParamSensitivity {
                name,
                base_value,
                relative_step: rel_step,
                y_low,
                y_high,
                elasticity,
            }))
        };
    let sensitivities = workers.try_map_indexed(parameters(), per_param)?;

    let mut out: Vec<ParamSensitivity> = sensitivities.into_iter().flatten().collect();
    out.sort_by(|a, b| b.swing().total_cmp(&a.swing()));
    Ok(out)
}

/// Renders sensitivities as a plain-text tornado table.
pub fn tornado_table(sensitivities: &[ParamSensitivity]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>10} {:>10} {:>12}",
        "parameter", "base", "Y(-step)", "Y(+step)", "elasticity"
    );
    let max_swing = sensitivities
        .iter()
        .map(|s| s.swing())
        .fold(f64::MIN_POSITIVE, f64::max);
    for s in sensitivities {
        let bar_len = ((s.swing() / max_swing) * 30.0).round() as usize;
        let _ = writeln!(
            out,
            "{:>10} {:>12.4e} {:>10.4} {:>10.4} {:>12.4}  {}",
            s.name,
            s.base_value,
            s.y_low,
            s.y_high,
            s.elasticity,
            "#".repeat(bar_len)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_and_mu_dominate_at_baseline() {
        let sens = local_sensitivity(GsuParams::paper_baseline(), 7000.0, 0.1).unwrap();
        assert_eq!(sens.len(), 7);
        // §6: the tradeoff "chiefly involves the reliability of software
        // components" and the benefit is very sensitive to coverage.
        let top2: Vec<&str> = sens.iter().take(2).map(|s| s.name).collect();
        assert!(
            top2.contains(&"coverage") || top2.contains(&"mu_new"),
            "top sensitivities were {top2:?}"
        );
        // µ_old barely matters (it is 4 orders of magnitude smaller).
        let mu_old = sens.iter().find(|s| s.name == "mu_old").unwrap();
        assert!(mu_old.swing() < sens[0].swing() / 10.0);
    }

    #[test]
    fn coverage_elasticity_is_positive() {
        let sens = local_sensitivity(GsuParams::paper_baseline(), 6000.0, 0.05).unwrap();
        let cov = sens.iter().find(|s| s.name == "coverage").unwrap();
        assert!(cov.elasticity > 0.0, "better ATs must increase Y");
        assert!(cov.y_high > cov.y_low);
    }

    #[test]
    fn results_sorted_by_swing() {
        let sens = local_sensitivity(GsuParams::paper_baseline(), 5000.0, 0.1).unwrap();
        for w in sens.windows(2) {
            assert!(w[0].swing() >= w[1].swing());
        }
    }

    #[test]
    fn bad_step_rejected() {
        assert!(local_sensitivity(GsuParams::paper_baseline(), 5000.0, 0.0).is_err());
        assert!(local_sensitivity(GsuParams::paper_baseline(), 5000.0, 0.9).is_err());
    }

    #[test]
    fn tornado_table_renders() {
        let sens = local_sensitivity(GsuParams::paper_baseline(), 5000.0, 0.1).unwrap();
        let table = tornado_table(&sens);
        assert!(table.contains("coverage"));
        assert!(table.contains('#'));
    }
}
