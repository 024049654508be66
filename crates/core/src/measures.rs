//! The constituent reward variables produced by the model translation.

use std::fmt;

use crate::{PerfError, Result};

/// The nine constituent reward variables that the successive model
/// translation reduces `Y` to (paper §4.2 summary and Figure 3), each
/// solvable as a single reward variable on one of the three SAN models:
///
/// | field | paper notation | model | reward type |
/// |---|---|---|---|
/// | `p_a1_gop` | `P(X'_φ ∈ A'1)` | RMGd | instant-of-time at φ |
/// | `p_a1_norm_theta` | `P(X''_θ ∈ A''1)` | RMNd(µnew) | instant-of-time at θ |
/// | `p_a1_norm_rem` | `P(X''_{θ−φ} ∈ A''1)` | RMNd(µnew) | instant-of-time at θ−φ |
/// | `rho1`, `rho2` | `ρ1`, `ρ2` | RMGp | steady-state |
/// | `i_h` | `∫₀^φ h(τ)dτ` | RMGd | instant-of-time at φ |
/// | `i_tau_h` | `∫₀^φ τ·h(τ)dτ` | RMGd | accumulated over `[0, φ]` |
/// | `i_hf` | `∫₀^φ∫_τ^φ h(τ)f(x)dxdτ` | RMGd | instant-of-time at φ |
/// | `i_f` | `∫_φ^θ f(x)dx` | RMNd(µold) | 1 − instant-of-time at θ−φ |
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstituentMeasures {
    /// Probability that no error occurs through the G-OP window.
    pub p_a1_gop: f64,
    /// Probability the unprotected upgraded system survives all of θ.
    pub p_a1_norm_theta: f64,
    /// Probability the upgraded system survives the remaining `θ − φ`.
    pub p_a1_norm_rem: f64,
    /// Forward-progress fraction of `P1new` under guarded operation.
    pub rho1: f64,
    /// Forward-progress fraction of `P2` under guarded operation.
    pub rho2: f64,
    /// Probability an error occurs and is detected by φ.
    pub i_h: f64,
    /// Mean time to error detection per the paper's Table 1 reward
    /// structure (which counts paths without detection at weight φ — see
    /// DESIGN.md).
    pub i_tau_h: f64,
    /// The exact truncated first moment `E[τ_d·1{τ_d ≤ φ}]` of the
    /// detection time, by parts over the closed detected set:
    /// `φ·P[τ_d ≤ φ] − ∫₀^φ P[τ_d ≤ t] dt`, read off the G-OP chain's
    /// `π(φ)` and `L(φ)`; always ≤ [`i_tau_h`](Self::i_tau_h).
    pub i_tau_h_exact: f64,
    /// Probability of detection followed by a second failure before φ.
    pub i_hf: f64,
    /// Probability the recovered (old-version) system fails in `[φ, θ]`.
    pub i_f: f64,
}

impl ConstituentMeasures {
    /// Validates the structural invariants every measure must satisfy.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::MeasureInvariant`] naming the violated bound —
    /// these indicate a modelling or solver bug, not bad user input.
    pub fn validate(&self, phi: f64) -> Result<()> {
        let probs: [(&str, f64); 7] = [
            ("P(X'_φ ∈ A'1)", self.p_a1_gop),
            ("P(X''_θ ∈ A''1)", self.p_a1_norm_theta),
            ("P(X''_{θ−φ} ∈ A''1)", self.p_a1_norm_rem),
            ("ρ1", self.rho1),
            ("ρ2", self.rho2),
            ("∫h", self.i_h),
            ("∫f", self.i_f),
        ];
        for (name, v) in probs {
            if !(-1e-9..=1.0 + 1e-9).contains(&v) || !v.is_finite() {
                return Err(PerfError::MeasureInvariant {
                    context: format!("{name} = {v} outside [0, 1]"),
                });
            }
        }
        if !self.i_hf.is_finite() || self.i_hf < -1e-9 || self.i_hf > self.i_h + 1e-9 {
            return Err(PerfError::MeasureInvariant {
                context: format!("∫∫hf = {} outside [0, ∫h = {}]", self.i_hf, self.i_h),
            });
        }
        if !self.i_tau_h.is_finite() || self.i_tau_h < -1e-9 || self.i_tau_h > phi * (1.0 + 1e-9) {
            return Err(PerfError::MeasureInvariant {
                context: format!("∫τh = {} outside [0, φ = {phi}]", self.i_tau_h),
            });
        }
        if !self.i_tau_h_exact.is_finite()
            || self.i_tau_h_exact < -1e-9
            || self.i_tau_h_exact > self.i_tau_h + 1e-6 * phi.max(1.0)
        {
            return Err(PerfError::MeasureInvariant {
                context: format!(
                    "exact ∫τh = {} outside [0, Table-1 ∫τh = {}]",
                    self.i_tau_h_exact, self.i_tau_h
                ),
            });
        }
        // Mutually exclusive outcomes by φ must not exceed total probability.
        let total = self.p_a1_gop + self.i_h + self.i_hf;
        if total > 1.0 + 1e-6 {
            return Err(PerfError::MeasureInvariant {
                context: format!("P(A'1) + ∫h + ∫∫hf = {total} exceeds 1 (sets overlap?)"),
            });
        }
        Ok(())
    }

    /// `ρ1 + ρ2`, the combined forward-progress coefficient of Eq. 4.
    pub fn rho_sum(&self) -> f64 {
        self.rho1 + self.rho2
    }

    /// Mean detection time *conditioned on detection by φ*, computed from
    /// the exact truncated moment: `τ̄ = E[τ·1{detect}] / P[detect]`;
    /// `None` when no detection mass exists. (The paper's γ policy uses the
    /// Table-1 `∫τh` measure directly — see
    /// [`crate::GammaPolicy::MeanDetectionFraction`].)
    pub fn conditional_mean_detection_time(&self) -> Option<f64> {
        let detect_mass = self.i_h + self.i_hf;
        if detect_mass > 0.0 {
            Some(self.i_tau_h_exact / detect_mass)
        } else {
            None
        }
    }

    /// The censoring excess of the Table-1 structure:
    /// `∫τh (Table 1) − E[τ·1{τ ≤ φ}] (exact)`, ≥ 0.
    pub fn tau_censoring_excess(&self) -> f64 {
        (self.i_tau_h - self.i_tau_h_exact).max(0.0)
    }
}

impl fmt::Display for ConstituentMeasures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "P(X'_φ ∈ A'1)        = {:.6}", self.p_a1_gop)?;
        writeln!(f, "P(X''_θ ∈ A''1)      = {:.6}", self.p_a1_norm_theta)?;
        writeln!(f, "P(X''_θ−φ ∈ A''1)    = {:.6}", self.p_a1_norm_rem)?;
        writeln!(f, "ρ1                   = {:.6}", self.rho1)?;
        writeln!(f, "ρ2                   = {:.6}", self.rho2)?;
        writeln!(f, "∫₀^φ h(τ)dτ          = {:.6}", self.i_h)?;
        writeln!(f, "∫₀^φ τh(τ)dτ         = {:.6} (Table 1)", self.i_tau_h)?;
        writeln!(
            f,
            "E[τ·1{{τ≤φ}}]          = {:.6} (exact)",
            self.i_tau_h_exact
        )?;
        writeln!(f, "∫₀^φ∫_τ^φ h·f        = {:.6e}", self.i_hf)?;
        write!(f, "∫_φ^θ f(x)dx         = {:.6e}", self.i_f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> ConstituentMeasures {
        ConstituentMeasures {
            p_a1_gop: 0.5,
            p_a1_norm_theta: 0.37,
            p_a1_norm_rem: 0.74,
            rho1: 0.98,
            rho2: 0.95,
            i_h: 0.45,
            i_tau_h: 3000.0,
            i_tau_h_exact: 1400.0,
            i_hf: 1e-4,
            i_f: 3e-5,
        }
    }

    #[test]
    fn valid_measures_pass() {
        good().validate(7000.0).unwrap();
    }

    #[test]
    fn probability_bounds_enforced() {
        let mut m = good();
        m.p_a1_gop = 1.2;
        assert!(m.validate(7000.0).is_err());
        let mut m = good();
        m.rho1 = -0.1;
        assert!(m.validate(7000.0).is_err());
        let mut m = good();
        m.i_h = f64::NAN;
        assert!(m.validate(7000.0).is_err());
    }

    #[test]
    fn tau_h_bounded_by_phi() {
        let mut m = good();
        m.i_tau_h = 8000.0;
        assert!(m.validate(7000.0).is_err());
        assert!(m.validate(9000.0).is_ok());
    }

    #[test]
    fn hf_bounded_by_h() {
        let mut m = good();
        m.i_hf = 0.5; // exceeds i_h = 0.45
        assert!(m.validate(7000.0).is_err());
    }

    #[test]
    fn outcome_mass_cannot_exceed_one() {
        let mut m = good();
        m.p_a1_gop = 0.7;
        m.i_h = 0.5;
        assert!(m.validate(7000.0).is_err());
    }

    #[test]
    fn conditional_mean_detection_time() {
        let m = good();
        let detect_mass = m.i_h + m.i_hf;
        assert!((m.conditional_mean_detection_time().unwrap() - 1400.0 / detect_mass).abs() < 1e-9);
        let mut m0 = good();
        m0.i_h = 0.0;
        m0.i_hf = 0.0;
        m0.i_tau_h_exact = 0.0;
        assert_eq!(m0.conditional_mean_detection_time(), None);
        assert!((m.rho_sum() - 1.93).abs() < 1e-12);
        assert!((m.tau_censoring_excess() - 1600.0).abs() < 1e-9);
    }

    #[test]
    fn exact_tau_must_not_exceed_table_variant() {
        let mut m = good();
        m.i_tau_h_exact = 3500.0; // above the Table-1 value of 3000
        assert!(m.validate(7000.0).is_err());
    }

    #[test]
    fn display_lists_all_measures() {
        let s = good().to_string();
        assert!(s.contains("ρ1"));
        assert!(s.contains("∫₀^φ h(τ)dτ"));
        assert!(s.contains("∫_φ^θ f(x)dx"));
    }
}
