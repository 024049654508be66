//! Markdown reporting of a complete analysis.
//!
//! Produces the artifact an engineering review would circulate: the
//! parameter set, the derived overhead, the full `Y(φ)` sweep, constituent
//! measures at the optimum, and the decision recommendation — everything
//! §6 of the paper walks through, in one document.

use std::fmt::Write as _;

use crate::recommend::{recommend, Constraints, Decision};
use crate::{GsuAnalysis, Result};

/// Options controlling report generation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportOptions {
    /// φ grid intervals for the sweep table.
    pub sweep_steps: usize,
    /// Golden-section refinements for the optimum.
    pub refinements: usize,
    /// Decision thresholds.
    pub constraints: Constraints,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            sweep_steps: 10,
            refinements: 12,
            constraints: Constraints::default(),
        }
    }
}

/// Renders a full markdown report for the analysed parameter set.
///
/// # Errors
///
/// Propagates sweep / recommendation failures.
pub fn markdown(analysis: &GsuAnalysis, opts: &ReportOptions) -> Result<String> {
    let params = *analysis.params();
    let sweep = analysis.sweep_grid(opts.sweep_steps)?;
    let rec = recommend(
        analysis,
        &opts.constraints,
        opts.sweep_steps,
        opts.refinements,
    )?;
    let best = &rec.best;

    let mut md = String::new();
    let _ = writeln!(md, "# Guarded-operation duration analysis\n");
    let _ = writeln!(md, "## Parameters\n\n`{params}`\n");
    let (rho1, rho2) = analysis.rho();
    let _ = writeln!(
        md,
        "Derived overhead (RMGp steady state): ρ1 = {rho1:.4}, ρ2 = {rho2:.4}\n"
    );

    let _ = writeln!(md, "## Recommendation\n");
    match rec.decision {
        Decision::Guard { phi } => {
            let _ = writeln!(
                md,
                "**Guard for φ* ≈ {:.0} h** (Y = {:.4}): guarded operation reduces \
                 expected total performance degradation by a factor of {:.2}; \
                 mission-failure probability drops from {:.3} (unguarded) to {:.3}.\n",
                phi,
                best.y,
                best.y,
                rec.failure_probability_unguarded,
                rec.failure_probability_guarded
            );
        }
        Decision::FlyUnguarded => {
            let _ = writeln!(
                md,
                "**Activate without a guard**: the best achievable index Y = {:.4} \
                 at φ = {:.0} does not clear the benefit threshold ({:.0}%).\n",
                best.y,
                best.phi,
                opts.constraints.min_benefit * 100.0
            );
        }
        Decision::RejectUpgrade => {
            let _ = writeln!(
                md,
                "**Reject / postpone the upgrade**: neither guarded \
                 (P[fail] = {:.3}) nor unguarded (P[fail] = {:.3}) operation meets \
                 the failure cap.\n",
                rec.failure_probability_guarded, rec.failure_probability_unguarded
            );
        }
    }

    let _ = writeln!(md, "## Y(φ) sweep\n");
    let _ = writeln!(md, "| φ (h) | Y | E[Wφ] | S1 worth | S2 worth | γ |");
    let _ = writeln!(md, "|---|---|---|---|---|---|");
    for p in &sweep {
        let _ = writeln!(
            md,
            "| {:.0} | {:.4} | {:.0} | {:.0} | {:.0} | {:.3} |",
            p.phi, p.y, p.e_w_phi, p.y_s1, p.y_s2, p.gamma
        );
    }

    let _ = writeln!(md, "\n## Constituent measures at φ*\n");
    let _ = writeln!(md, "```\n{}\n```", best.measures);

    let dropped: Vec<(String, f64)> = analysis
        .dropped_self_loop_rates()
        .into_iter()
        .filter(|(_, rate)| *rate > 0.0)
        .collect();
    if !dropped.is_empty() {
        let _ = writeln!(md);
        for (model, rate) in dropped {
            let _ = writeln!(
                md,
                "# warning: model {model} dropped tangible self-loop rate \
                 {rate:.6e} during state-space generation"
            );
        }
    }

    Ok(md)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GsuParams;

    #[test]
    fn report_contains_all_sections() {
        let analysis = GsuAnalysis::new(GsuParams::paper_baseline()).unwrap();
        let md = markdown(&analysis, &ReportOptions::default()).unwrap();
        for section in [
            "# Guarded-operation duration analysis",
            "## Parameters",
            "## Recommendation",
            "## Y(φ) sweep",
            "## Constituent measures",
            "Guard for φ*",
        ] {
            assert!(md.contains(section), "missing section: {section}");
        }
        // Sweep table has steps+1 data rows.
        assert_eq!(md.matches("\n| ").count(), 11 + 1 /* header sep */);
    }

    #[test]
    fn skip_decision_renders() {
        // c = 0.20 at high overhead: benefit below the default threshold.
        let params = GsuParams::paper_baseline()
            .with_overhead_rates(2500.0, 2500.0)
            .unwrap()
            .with_coverage(0.20)
            .unwrap();
        let analysis = GsuAnalysis::new(params).unwrap();
        let opts = ReportOptions {
            sweep_steps: 4,
            refinements: 4,
            ..Default::default()
        };
        let md = markdown(&analysis, &opts).unwrap();
        assert!(md.contains("Activate without a guard"));
    }

    #[test]
    fn warning_lines_track_dropped_self_loop_rates() {
        let analysis = GsuAnalysis::new(GsuParams::paper_baseline()).unwrap();
        let md = markdown(&analysis, &ReportOptions::default()).unwrap();
        let any_dropped = analysis
            .dropped_self_loop_rates()
            .iter()
            .any(|(_, rate)| *rate > 0.0);
        assert_eq!(md.contains("# warning:"), any_dropped);
        // Warning lines must never masquerade as sweep-table rows.
        for line in md.lines().filter(|l| l.starts_with("# warning:")) {
            assert!(!line.contains("| "));
        }
    }
}
