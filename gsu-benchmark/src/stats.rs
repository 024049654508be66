//! Sample statistics, the metric record every workload emits, and the
//! process-memory probe.

use gsu_bench::scenarios::GOLDEN_REL_TOL;

/// The fewest samples that must lie beyond a reported tail percentile.
/// Fewer than this and the "tail" is a handful of outliers, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile of `samples` (any order); `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie above the nearest-rank quantile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// Whether `n` samples support reporting quantile `q` as a tail
/// ([`MIN_BEYOND`] samples beyond it).
pub fn tail_supported(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// The conventional median (mean of the middle pair for even counts), used
/// to summarize one metric across runs; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Relative agreement at the goldens' tolerance, with a unit floor on the
/// scale (the rule `gsu-bench scenarios` checks goldens by).
pub fn check_close(got: f64, want: f64) -> Result<(), String> {
    let rel = (got - want).abs() / want.abs().max(1.0);
    if rel <= GOLDEN_REL_TOL {
        Ok(())
    } else {
        Err(format!(
            "{got} differs from the reference {want} (rel err {rel:.2e} > {GOLDEN_REL_TOL:.0e})"
        ))
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples the value summarizes (1 for a single measurement or count).
    pub n: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, n: usize) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n,
        }
    }
}

/// The end-to-end metrics every workload reports: the median of its set-up
/// times (s), the median and tail percentile `tail_q` of its operation
/// times (ms), `(operations per second, operations)` of its capacity phase,
/// and its peak RSS.
pub fn end_to_end(
    workload: &str,
    setups_s: &[f64],
    op_ms: &[f64],
    tail_q: f64,
    (ops_per_s, ops): (f64, usize),
    peak_mib: f64,
) -> Vec<Metric> {
    if !tail_supported(op_ms.len(), tail_q) {
        eprintln!(
            "{workload}: op_ms.tail (p{}) has fewer than {MIN_BEYOND} of {} samples beyond it",
            tail_q * 100.0,
            op_ms.len()
        );
    }
    vec![
        Metric::new("setup_s", quantile(setups_s, 0.5), "s", setups_s.len()),
        Metric::new("op_ms.p50", quantile(op_ms, 0.5), "ms", op_ms.len()),
        Metric::new("op_ms.tail", quantile(op_ms, tail_q), "ms", op_ms.len()),
        Metric::new("capacity_ops_s", ops_per_s, "1/s", ops),
        Metric::new("peak_rss_mib", peak_mib, "MiB", 1),
    ]
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: verified passes on batch workloads, requests
    /// on serve workloads.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// The first few failure descriptions, for the operator.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// Records one attempted operation and its verdict.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// `(VmRSS, VmHWM)` of process `pid` in MiB, from `/proc/<pid>/status`.
///
/// # Errors
///
/// The status file is unreadable or lacks either field.
pub fn memory_mib(pid: u32) -> Result<(f64, f64), String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path} has no {key} line"))
    };
    Ok((field("VmRSS:")?, field("VmHWM:")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.9), 90.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly 10 beyond.
        assert_eq!(beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        // p99 needs 1000 samples; p75 needs 40.
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(40, 0.75));
        assert!(!tail_supported(39, 0.75));
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn closeness_is_relative_with_a_unit_floor() {
        assert!(check_close(1.5, 1.5 + 1e-10).is_ok());
        assert!(check_close(1.5, 1.5 + 1e-8).is_err());
        assert!(check_close(7000.0, 7000.0 * (1.0 + 5e-10)).is_ok());
        assert!(check_close(0.0, 1e-10).is_ok());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn outcome_counts_failures() {
        let mut o = Outcome::default();
        assert!(!o.correct(), "nothing attempted is not a pass");
        o.record(Ok(()));
        assert!(o.correct());
        o.record(Err("wrong".into()));
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert!(!o.correct());
    }

    #[test]
    fn reads_own_memory() {
        let (rss, hwm) = memory_mib(std::process::id()).unwrap();
        assert!(rss > 0.0 && hwm >= rss * 0.5, "rss {rss} hwm {hwm}");
    }
}
