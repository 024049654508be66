//! Poisson probability windows for uniformization (Fox–Glynn).
//!
//! Uniformization expresses the transient distribution of a CTMC as a
//! Poisson-weighted sum of DTMC powers:
//!
//! ```text
//! π(t) = Σ_{k≥0}  e^{−Λt} (Λt)^k / k!  ·  π(0) P^k
//! ```
//!
//! For large `Λt` almost all Poisson mass lies in a window of width
//! `O(√(Λt))` around the mean, and naive evaluation of `e^{−Λt}(Λt)^k/k!`
//! underflows. Fox & Glynn (CACM 1988) compute a truncated, renormalized
//! window. We implement the numerically robust *normalized recurrence*
//! formulation: anchor the recurrence at the mode (where the pmf is
//! maximal), recurse outward until terms fall below a relative threshold,
//! and normalize the window to sum to the captured mass.

use crate::{MarkovError, Result};

/// A truncated Poisson probability window.
///
/// `weights[i]` approximates `P[N = left + i]` for `N ~ Poisson(lambda)`;
/// the window `[left, right]` captures at least `1 − 2·epsilon` of the mass,
/// and the weights are normalized so that they sum to exactly the captured
/// total mass estimate (≤ 1, numerically ≈ 1).
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonWindow {
    /// First index of the window (inclusive).
    pub left: usize,
    /// Last index of the window (inclusive).
    pub right: usize,
    /// Probabilities for indices `left..=right`.
    pub weights: Vec<f64>,
}

impl PoissonWindow {
    /// Computes the window for `Poisson(lambda)` with per-tail truncation
    /// error at most `epsilon`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidModel`] when `lambda` is negative or not
    /// finite, or when `epsilon` is outside `(0, 1)`.
    pub fn compute(lambda: f64, epsilon: f64) -> Result<Self> {
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(MarkovError::InvalidModel {
                context: format!("Poisson rate must be finite and >= 0, got {lambda}"),
            });
        }
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(MarkovError::InvalidModel {
                context: format!("truncation epsilon must be in (0, 1), got {epsilon}"),
            });
        }
        if lambda == 0.0 {
            return Ok(PoissonWindow {
                left: 0,
                right: 0,
                weights: vec![1.0],
            });
        }

        let mode = lambda.floor() as usize;
        // Unnormalized weights anchored at w[mode] = 1; the true pmf is
        // w_k · pmf(mode), but we only need ratios because we renormalize.
        //
        // Window size heuristic: k standard deviations where the Gaussian
        // tail bound guarantees the requested epsilon; widen generously,
        // extra terms are cheap to store.
        let half_width = half_width(lambda, epsilon);

        let left_guess = mode.saturating_sub(half_width);
        let right_guess = mode + half_width;

        // Downward recurrence: w_{k-1} = w_k * k / lambda.
        let mut down: Vec<f64> = Vec::new();
        {
            let mut w = 1.0f64;
            let mut k = mode;
            while k > left_guess {
                w *= k as f64 / lambda;
                if w < f64::MIN_POSITIVE * 1e10 {
                    break;
                }
                down.push(w);
                k -= 1;
            }
        }
        // Upward recurrence: w_{k+1} = w_k * lambda / (k+1).
        let mut up: Vec<f64> = Vec::new();
        {
            let mut w = 1.0f64;
            let mut k = mode;
            while k < right_guess {
                w *= lambda / (k + 1) as f64;
                if w < f64::MIN_POSITIVE * 1e10 {
                    break;
                }
                up.push(w);
                k += 1;
            }
        }

        let left = mode - down.len();
        let right = mode + up.len();
        let mut weights: Vec<f64> = Vec::with_capacity(right - left + 1);
        weights.extend(down.iter().rev());
        weights.push(1.0);
        weights.extend(up.iter());

        // Trim relative-negligible tails, then normalize. We keep terms down
        // to epsilon/width relative to the total so the truncation error per
        // tail stays below epsilon.
        let total: f64 = weights.iter().sum();
        let cutoff = total * epsilon / (weights.len() as f64);
        let mut lo = 0usize;
        while lo + 1 < weights.len() && weights[lo] < cutoff {
            lo += 1;
        }
        let mut hi = weights.len() - 1;
        while hi > lo && weights[hi] < cutoff {
            hi -= 1;
        }
        let trimmed: Vec<f64> = weights[lo..=hi].to_vec();
        let left = left + lo;
        let right = left + trimmed.len() - 1;

        let trimmed_total: f64 = trimmed.iter().sum();
        let norm = 1.0 / trimmed_total;
        let weights: Vec<f64> = trimmed.iter().map(|w| w * norm).collect();

        if telemetry::enabled() {
            // The unnormalized weights are ratios anchored at the mode
            // (w[mode] = 1), so the captured probability mass is
            // trimmed_total · pmf(mode) and the truncated remainder follows.
            let captured = trimmed_total * poisson_pmf(lambda, mode);
            telemetry::counter("fox_glynn.windows", 1);
            telemetry::observe("fox_glynn.window_len", weights.len() as f64);
            telemetry::observe("fox_glynn.truncated_mass", (1.0 - captured).max(0.0));
            telemetry::gauge("fox_glynn.last_lambda", lambda);
            telemetry::gauge("fox_glynn.last_window_len", weights.len() as f64);
        }

        Ok(PoissonWindow {
            left,
            right,
            weights,
        })
    }

    /// Number of terms in the window.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when the window is empty (cannot happen for valid inputs).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight for count `k`, zero outside the window.
    pub fn weight(&self, k: usize) -> f64 {
        if k < self.left || k > self.right {
            0.0
        } else {
            self.weights[k - self.left]
        }
    }

    /// Cumulative right-tail sums: `tail(k) = Σ_{j>k} weight(j)`, used by the
    /// accumulated-reward uniformization formula.
    pub fn right_tails(&self) -> Vec<f64> {
        // tails[i] = sum of weights strictly after index i.
        let mut tails = vec![0.0; self.weights.len()];
        let mut acc = 0.0;
        for i in (0..self.weights.len()).rev() {
            tails[i] = acc;
            acc += self.weights[i];
        }
        tails
    }
}

/// The half width of the window [`PoissonWindow::compute`] starts from
/// around the mode of `Poisson(lambda)`, before trimming: `k` standard
/// deviations where the Gaussian tail bound guarantees `epsilon`, plus 10.
/// The transient cost model prices a pass with it.
pub(crate) fn half_width(lambda: f64, epsilon: f64) -> usize {
    ((2.0 * (1.0 / epsilon).ln()).sqrt() * lambda.sqrt()).ceil() as usize + 10
}

/// Exact Poisson pmf by direct computation in log space; reference for tests
/// and for small rates.
pub fn poisson_pmf(lambda: f64, k: usize) -> f64 {
    if lambda == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    let kf = k as f64;
    let log_p = -lambda + kf * lambda.ln() - ln_factorial(k);
    log_p.exp()
}

/// `ln(k!)` via Stirling's series for large `k`, exact accumulation for
/// small `k`.
pub fn ln_factorial(k: usize) -> f64 {
    if k < 2 {
        return 0.0;
    }
    if k < 256 {
        return (2..=k).map(|i| (i as f64).ln()).sum();
    }
    let x = (k + 1) as f64;
    // Stirling series for ln Γ(x).
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    (x - 0.5) * x.ln() - x
        + 0.5 * (2.0 * std::f64::consts::PI).ln()
        + inv / 12.0 * (1.0 - inv2 / 30.0 * (1.0 - inv2 / 3.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_lambda_is_point_mass() {
        let w = PoissonWindow::compute(0.0, 1e-10).unwrap();
        assert_eq!(w.left, 0);
        assert_eq!(w.right, 0);
        assert_eq!(w.weights, vec![1.0]);
    }

    #[test]
    fn small_lambda_matches_exact_pmf() {
        let lambda = 3.7;
        let w = PoissonWindow::compute(lambda, 1e-12).unwrap();
        for k in w.left..=w.right {
            let exact = poisson_pmf(lambda, k);
            assert!(
                (w.weight(k) - exact).abs() < 1e-10,
                "k={k}: window {} vs exact {exact}",
                w.weight(k)
            );
        }
    }

    #[test]
    fn large_lambda_does_not_underflow() {
        let lambda = 2.0e7;
        let w = PoissonWindow::compute(lambda, 1e-10).unwrap();
        assert!((w.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Window is centred on the mode and much narrower than [0, 2λ].
        assert!(w.left > 1_000_000);
        assert!((w.len() as f64) < 100.0 * lambda.sqrt());
        // Mode weight should be ≈ 1/√(2πλ).
        let mode = lambda as usize;
        let expect = 1.0 / (2.0 * std::f64::consts::PI * lambda).sqrt();
        assert!((w.weight(mode) - expect).abs() / expect < 1e-2);
    }

    #[test]
    fn weights_sum_to_one_after_normalization() {
        for &lambda in &[0.5, 1.0, 10.0, 123.456, 9999.0] {
            let w = PoissonWindow::compute(lambda, 1e-11).unwrap();
            assert!(
                (w.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12,
                "lambda={lambda}"
            );
        }
    }

    #[test]
    fn mean_is_recovered() {
        let lambda = 500.0;
        let w = PoissonWindow::compute(lambda, 1e-13).unwrap();
        let mean: f64 = (w.left..=w.right).map(|k| k as f64 * w.weight(k)).sum();
        assert!((mean - lambda).abs() < 1e-6 * lambda);
    }

    #[test]
    fn right_tails_are_decreasing_partial_sums() {
        let w = PoissonWindow::compute(20.0, 1e-12).unwrap();
        let tails = w.right_tails();
        assert_eq!(tails.len(), w.len());
        assert!(tails[0] <= 1.0);
        assert_eq!(*tails.last().unwrap(), 0.0);
        for i in 1..tails.len() {
            assert!(tails[i] <= tails[i - 1] + 1e-15);
        }
        // tails[0] = 1 - weight(left).
        assert!((tails[0] - (1.0 - w.weights[0])).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(PoissonWindow::compute(-1.0, 1e-9).is_err());
        assert!(PoissonWindow::compute(f64::NAN, 1e-9).is_err());
        assert!(PoissonWindow::compute(1.0, 0.0).is_err());
        assert!(PoissonWindow::compute(1.0, 1.5).is_err());
    }

    #[test]
    fn ln_factorial_matches_direct() {
        // Check the Stirling branch against the exact accumulation branch.
        let exact: f64 = (2..=300usize).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(300) - exact).abs() < 1e-8);
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn weight_outside_window_is_zero() {
        let w = PoissonWindow::compute(100.0, 1e-10).unwrap();
        assert_eq!(w.weight(0), 0.0);
        assert_eq!(w.weight(10_000), 0.0);
    }

    proptest! {
        #[test]
        fn window_mass_and_mean(lambda in 0.1..5000.0f64) {
            let w = PoissonWindow::compute(lambda, 1e-10).unwrap();
            prop_assert!((w.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            let mean: f64 = (w.left..=w.right).map(|k| k as f64 * w.weight(k)).sum();
            prop_assert!((mean - lambda).abs() < 1e-4 * lambda.max(1.0));
        }

        #[test]
        fn window_matches_exact_for_moderate_lambda(lambda in 0.1..200.0f64) {
            let w = PoissonWindow::compute(lambda, 1e-12).unwrap();
            let mode = lambda.floor() as usize;
            let exact = poisson_pmf(lambda, mode);
            prop_assert!((w.weight(mode) - exact).abs() < 1e-8);
        }
    }
}
