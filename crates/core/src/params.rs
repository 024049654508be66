//! Parameters of the guarded software upgrading study.

use std::fmt;

use crate::{PerfError, Result};

/// Basic parameters of the GSU performability study (paper §6, Table 3).
///
/// All rates are per hour; durations are in hours, matching the paper's
/// convention (`λ = 1200` ⇒ one message every 3 s; `α = β = 6000` ⇒ 600 ms
/// per acceptance test / checkpoint).
///
/// # Example
///
/// ```
/// use performability::GsuParams;
///
/// let base = GsuParams::paper_baseline();
/// assert_eq!(base.theta, 10_000.0);
/// let tweaked = base.with_coverage(0.75).unwrap();
/// assert_eq!(tweaked.coverage, 0.75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GsuParams {
    /// Time to the next scheduled onboard upgrade, θ (hours).
    pub theta: f64,
    /// Message-sending rate of each process, λ (1/hour).
    pub lambda: f64,
    /// Fault-manifestation rate of the newly upgraded component, µ_new.
    pub mu_new: f64,
    /// Fault-manifestation rate of an old (well-proven) component, µ_old.
    pub mu_old: f64,
    /// Acceptance-test coverage, c ∈ [0, 1].
    pub coverage: f64,
    /// Probability that a message is external, p_ext ∈ [0, 1].
    pub p_ext: f64,
    /// Acceptance-test completion rate, α (1/hour).
    pub alpha: f64,
    /// Checkpoint-establishment completion rate, β (1/hour).
    pub beta: f64,
}

impl GsuParams {
    /// The paper's Table 3 parameter assignment: θ=10000, λ=1200,
    /// µnew=10⁻⁴, µold=10⁻⁸, c=0.95, p_ext=0.1, α=β=6000.
    pub fn paper_baseline() -> Self {
        GsuParams {
            theta: 10_000.0,
            lambda: 1200.0,
            mu_new: 1e-4,
            mu_old: 1e-8,
            coverage: 0.95,
            p_ext: 0.1,
            alpha: 6000.0,
            beta: 6000.0,
        }
    }

    /// Validates every field's domain.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::InvalidParameter`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<()> {
        let positive: [(&'static str, f64); 5] = [
            ("theta", self.theta),
            ("lambda", self.lambda),
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("mu_new", self.mu_new),
        ];
        for (name, value) in positive {
            if !value.is_finite() || value <= 0.0 {
                return Err(PerfError::InvalidParameter {
                    name,
                    value,
                    expected: "finite and > 0",
                });
            }
        }
        if !self.mu_old.is_finite() || self.mu_old < 0.0 {
            return Err(PerfError::InvalidParameter {
                name: "mu_old",
                value: self.mu_old,
                expected: "finite and >= 0",
            });
        }
        for (name, value) in [("coverage", self.coverage), ("p_ext", self.p_ext)] {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return Err(PerfError::InvalidParameter {
                    name,
                    value,
                    expected: "within [0, 1]",
                });
            }
        }
        Ok(())
    }

    /// Checks that `phi` is a valid guarded-operation duration for this θ.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::PhiOutOfRange`] when `phi ∉ [0, θ]`.
    pub fn validate_phi(&self, phi: f64) -> Result<()> {
        if !phi.is_finite() || phi < 0.0 || phi > self.theta {
            return Err(PerfError::PhiOutOfRange {
                phi,
                theta: self.theta,
            });
        }
        Ok(())
    }

    /// Checks that `phis` is a valid φ *grid*: every point within `[0, θ]`
    /// and the sequence ascending (repeated points allowed). This is the
    /// validation gate of [`GsuAnalysis::sweep`](crate::GsuAnalysis::sweep).
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::PhiOutOfRange`] for any out-of-range point and
    /// [`PerfError::InvalidParameter`] when the grid is not ascending.
    pub fn validate_phi_grid(&self, phis: &[f64]) -> Result<()> {
        let mut last = 0.0;
        for &phi in phis {
            self.validate_phi(phi)?;
            if phi < last {
                return Err(PerfError::InvalidParameter {
                    name: "phis",
                    value: phi,
                    expected: "an ascending grid",
                });
            }
            last = phi;
        }
        Ok(())
    }

    /// Returns a copy with a different mission window θ.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::InvalidParameter`] when the result is invalid.
    pub fn with_theta(mut self, theta: f64) -> Result<Self> {
        self.theta = theta;
        self.validate()?;
        Ok(self)
    }

    /// Returns a copy with a different fault-manifestation rate for the new
    /// component.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::InvalidParameter`] when the result is invalid.
    pub fn with_mu_new(mut self, mu_new: f64) -> Result<Self> {
        self.mu_new = mu_new;
        self.validate()?;
        Ok(self)
    }

    /// Returns a copy with a different acceptance-test coverage.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::InvalidParameter`] when the result is invalid.
    pub fn with_coverage(mut self, coverage: f64) -> Result<Self> {
        self.coverage = coverage;
        self.validate()?;
        Ok(self)
    }

    /// Returns a copy with different safeguard completion rates α and β.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::InvalidParameter`] when the result is invalid.
    pub fn with_overhead_rates(mut self, alpha: f64, beta: f64) -> Result<Self> {
        self.alpha = alpha;
        self.beta = beta;
        self.validate()?;
        Ok(self)
    }
}

impl Default for GsuParams {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

impl fmt::Display for GsuParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "θ={} λ={} µnew={:.1e} µold={:.1e} c={} pext={} α={} β={}",
            self.theta,
            self.lambda,
            self.mu_new,
            self.mu_old,
            self.coverage,
            self.p_ext,
            self.alpha,
            self.beta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid_and_matches_table3() {
        let p = GsuParams::paper_baseline();
        p.validate().unwrap();
        assert_eq!(p.lambda, 1200.0);
        assert_eq!(p.mu_new, 1e-4);
        assert_eq!(p.mu_old, 1e-8);
        assert_eq!(p.coverage, 0.95);
        assert_eq!(p.p_ext, 0.1);
        assert_eq!(p.alpha, 6000.0);
        assert_eq!(p.beta, 6000.0);
        assert_eq!(GsuParams::default(), p);
    }

    #[test]
    fn invalid_fields_are_named() {
        let mut p = GsuParams::paper_baseline();
        p.theta = 0.0;
        match p.validate() {
            Err(PerfError::InvalidParameter { name, .. }) => assert_eq!(name, "theta"),
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
        let mut p = GsuParams::paper_baseline();
        p.coverage = 1.5;
        assert!(p.validate().is_err());
        let mut p = GsuParams::paper_baseline();
        p.mu_old = -1.0;
        assert!(p.validate().is_err());
        let mut p = GsuParams::paper_baseline();
        p.p_ext = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn phi_domain() {
        let p = GsuParams::paper_baseline();
        p.validate_phi(0.0).unwrap();
        p.validate_phi(10_000.0).unwrap();
        assert!(p.validate_phi(-1.0).is_err());
        assert!(p.validate_phi(10_001.0).is_err());
        assert!(p.validate_phi(f64::NAN).is_err());
    }

    #[test]
    fn with_builders_validate() {
        let p = GsuParams::paper_baseline();
        assert_eq!(p.with_theta(5000.0).unwrap().theta, 5000.0);
        assert!(p.with_theta(-5.0).is_err());
        assert_eq!(p.with_mu_new(5e-5).unwrap().mu_new, 5e-5);
        assert!(p.with_coverage(2.0).is_err());
        let q = p.with_overhead_rates(2500.0, 2500.0).unwrap();
        assert_eq!((q.alpha, q.beta), (2500.0, 2500.0));
    }

    #[test]
    fn display_mentions_key_values() {
        let s = GsuParams::paper_baseline().to_string();
        assert!(s.contains("θ=10000"));
        assert!(s.contains("c=0.95"));
    }
}
