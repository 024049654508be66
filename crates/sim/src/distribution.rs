//! The empirical distribution of mission worth — performability in Meyer's
//! original sense.
//!
//! The paper works with the *expectation* `E[W_φ]` because that is what the
//! translated reward variables deliver; Meyer's performability (its ref \[4\])
//! is the full probability distribution of accumulated performance. The
//! simulator sees every sample path's worth, so it can estimate that
//! distribution directly: this module collects it with quantiles and the
//! three-class decomposition made visible (the atom
//! at 0 from `S3`, the `S2` mass discounted by γ, and the `S1` mass near
//! `2θ − (2−ρΣ)φ`).

use crate::{simulate_run_hybrid, Calibration, SimConfig, SimRng};

/// The empirical worth distribution from replicated simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorthDistribution {
    /// Sorted sample of accrued worths (one per replication).
    samples: Vec<f64>,
    /// The scenario's ideal worth `2θ`, for normalization.
    ideal: f64,
}

impl WorthDistribution {
    /// Collects `replications` worth samples for the configuration using
    /// the hybrid engine.
    pub fn collect(config: &SimConfig, replications: usize, seed: u64) -> Self {
        // Calibrate once, like MonteCarlo does.
        let mut cal_rng = SimRng::stream(seed, u64::MAX);
        let cal = crate::calibrate(&config.params, 40_000, &mut cal_rng);
        Self::collect_with_calibration(config, &cal, replications, seed)
    }

    /// Like [`WorthDistribution::collect`] with a pre-computed calibration.
    pub fn collect_with_calibration(
        config: &SimConfig,
        cal: &Calibration,
        replications: usize,
        seed: u64,
    ) -> Self {
        let n = replications.max(1);
        let mut samples: Vec<f64> = (0..n)
            .map(|i| {
                let mut rng = SimRng::stream(seed, i as u64);
                simulate_run_hybrid(config, cal, &mut rng).worth
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        WorthDistribution {
            samples,
            ideal: 2.0 * config.params.theta,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were collected (cannot happen via `collect`).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (by the nearest-rank rule).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile level in [0, 1]");
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        self.samples[rank - 1]
    }

    /// Sample mean — converges to the paper's `E[W_φ]`.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// The atom at zero, `P[W = 0]` — the worthless `S3` mass.
    pub fn zero_mass(&self) -> f64 {
        self.samples.iter().take_while(|&&w| w == 0.0).count() as f64 / self.samples.len() as f64
    }

    /// A fixed-width ASCII histogram over `[0, 2θ]` with `bins` bins.
    pub fn histogram(&self, bins: usize) -> String {
        use std::fmt::Write as _;
        let bins = bins.max(1);
        let mut counts = vec![0usize; bins];
        for &w in &self.samples {
            let b = ((w / self.ideal) * bins as f64) as usize;
            counts[b.min(bins - 1)] += 1;
        }
        let max = counts.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (b, &c) in counts.iter().enumerate() {
            let lo = self.ideal * b as f64 / bins as f64;
            let bar = "#".repeat((c * 40).div_ceil(max).min(40));
            let _ = writeln!(
                out,
                "{:>9.0}..{:<9.0} {:>6} {}",
                lo,
                self.ideal * (b + 1) as f64 / bins as f64,
                c,
                bar
            );
        }
        out
    }
}

/// Convenience: the worth distributions of the guarded and unguarded
/// scenarios side by side (what Meyer-style performability evaluation of
/// the duration decision looks like).
///
/// # Errors
///
/// Propagates configuration validation failures.
pub fn compare_guarded_unguarded(
    params: performability::GsuParams,
    phi: f64,
    replications: usize,
    seed: u64,
) -> Result<(WorthDistribution, WorthDistribution), performability::PerfError> {
    let guarded = WorthDistribution::collect(&SimConfig::new(params, phi)?, replications, seed);
    let unguarded = WorthDistribution::collect(
        &SimConfig::new(params, 0.0)?,
        replications,
        seed.wrapping_add(0x5EED),
    );
    Ok((guarded, unguarded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MonteCarlo;
    use performability::GsuParams;

    fn dist(phi: f64, n: usize) -> WorthDistribution {
        let params = GsuParams::paper_baseline();
        WorthDistribution::collect(&SimConfig::new(params, phi).unwrap(), n, 5)
    }

    #[test]
    fn zero_atom_matches_s3_mass() {
        let params = GsuParams::paper_baseline();
        let cfg = SimConfig::new(params, 7000.0).unwrap();
        let d = WorthDistribution::collect(&cfg, 3000, 9);
        let mc = MonteCarlo::new(cfg)
            .with_replications(3000)
            .with_seed(9)
            .run();
        assert!(
            (d.zero_mass() - mc.p_s3).abs() < 1e-9,
            "atom {} vs P(S3) {}",
            d.zero_mass(),
            mc.p_s3
        );
        assert!((d.mean() - mc.mean_worth).abs() < 1e-9);
    }

    #[test]
    fn quantiles_bracket_and_order() {
        let d = dist(6000.0, 2000);
        assert_eq!(d.len(), 2000);
        assert!(!d.is_empty());
        let q10 = d.quantile(0.1);
        let q50 = d.quantile(0.5);
        let q90 = d.quantile(0.9);
        assert!(q10 <= q50 && q50 <= q90);
        assert!(d.quantile(0.0) >= 0.0 && d.quantile(1.0) <= 2.0 * 10_000.0);
        assert_eq!(d.quantile(0.0), d.quantile(1e-9));
    }

    #[test]
    fn guarding_removes_mass_from_zero() {
        let params = GsuParams::paper_baseline();
        let (guarded, unguarded) = compare_guarded_unguarded(params, 7000.0, 2500, 3).unwrap();
        // Unguarded: failure nullifies worth with prob ≈ 1 − e^{−1} ≈ 0.63.
        assert!((unguarded.zero_mass() - 0.632).abs() < 0.04);
        // Guarding converts most of that atom into discounted S2 worth.
        assert!(guarded.zero_mass() < 0.25);
        assert!(guarded.mean() > unguarded.mean());
    }

    #[test]
    fn histogram_renders_all_bins() {
        let d = dist(5000.0, 500);
        let h = d.histogram(10);
        assert_eq!(h.lines().count(), 10);
        assert!(h.contains('#'));
    }

    #[test]
    #[should_panic(expected = "quantile level")]
    fn quantile_domain_checked() {
        dist(1000.0, 10).quantile(1.5);
    }
}
