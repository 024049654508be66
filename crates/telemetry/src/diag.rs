//! Structured per-solve diagnostics — the flight-recorder payload each
//! numerical solve attaches to its span.
//!
//! The solvers in `markov` fill in a [`SolveDiag`] as they run and call
//! [`SolveDiag::record_on`] before the solve span closes. The
//! diagnostics then travel with the span through the [`Collector`] and out
//! to the Chrome trace, the per-request span tree (`/trace?id=`), and the
//! wide-event line each `/eval` request produces.
//!
//! [`Collector`]: crate::Collector

use crate::json::fmt_f64;
use crate::SpanGuard;

/// How many trailing residuals [`SolveDiag::push_residual`] retains.
const RESIDUAL_TAIL_LEN: usize = 8;

/// Diagnostics for one numerical solve.
///
/// Only the fields a given method produces are recorded: uniformization has
/// a rate, a Fox-Glynn window and a residual trajectory, and its
/// "iterations" are Poisson terms; the matrix exponential's are its
/// squarings; a direct LU solve records its method alone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveDiag {
    /// Method label: `"direct"`, `"expm"` or `"uniformization"`.
    pub method: &'static str,
    /// Iterations (or Poisson terms) the solve consumed.
    pub iterations: u64,
    /// Trailing residuals/deltas, oldest first (at most the eight newest,
    /// see [`SolveDiag::push_residual`]).
    pub residual_tail: Vec<f64>,
    /// Uniformization rate Λ, when the method uniformizes.
    pub uniformization_rate: Option<f64>,
    /// Fox-Glynn window `[left, right]`, when the method truncates a
    /// Poisson distribution.
    pub fox_glynn_window: Option<(u64, u64)>,
    /// Sparse matrix-vector products performed by this solve.
    pub spmv_ops: u64,
    /// Vector axpy-class updates performed by this solve.
    pub axpy_ops: u64,
    /// Step at which steady-state detection cut the solve short, when it
    /// triggered.
    pub ssd_trigger_step: Option<u64>,
}

impl SolveDiag {
    /// Starts an empty diagnostic for `method`.
    pub fn new(method: &'static str) -> Self {
        SolveDiag {
            method,
            ..SolveDiag::default()
        }
    }

    /// Appends a residual observation, keeping only the eight most recent
    /// values (the interesting end of the trajectory).
    pub fn push_residual(&mut self, residual: f64) {
        if self.residual_tail.len() == RESIDUAL_TAIL_LEN {
            self.residual_tail.remove(0);
        }
        self.residual_tail.push(residual);
    }

    /// Attaches the diagnostics to `span` as `solve.*` arguments. Fields a
    /// method did not produce are omitted.
    pub fn record_on(&self, span: &mut SpanGuard) {
        span.record("solve.method", self.method);
        span.record("solve.iterations", self.iterations);
        if !self.residual_tail.is_empty() {
            let tail = self
                .residual_tail
                .iter()
                .map(|r| fmt_f64(*r))
                .collect::<Vec<_>>()
                .join(",");
            span.record("solve.residual_tail", tail);
        }
        if let Some(rate) = self.uniformization_rate {
            span.record("solve.uniformization_rate", rate);
        }
        if let Some((left, right)) = self.fox_glynn_window {
            span.record("solve.fox_glynn_left", left);
            span.record("solve.fox_glynn_right", right);
        }
        if self.spmv_ops > 0 {
            span.record("solve.spmv_ops", self.spmv_ops);
        }
        if self.axpy_ops > 0 {
            span.record("solve.axpy_ops", self.axpy_ops);
        }
        if let Some(step) = self.ssd_trigger_step {
            span.record("solve.ssd_trigger_step", step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{clear_sink, ArgValue, Collector};

    #[test]
    fn residual_tail_is_bounded_and_keeps_the_newest() {
        let mut diag = SolveDiag::new("uniformization");
        for i in 0..20 {
            diag.push_residual(i as f64);
        }
        assert_eq!(diag.residual_tail.len(), RESIDUAL_TAIL_LEN);
        assert_eq!(diag.residual_tail[0], (20 - RESIDUAL_TAIL_LEN) as f64);
        assert_eq!(*diag.residual_tail.last().unwrap(), 19.0);
    }

    #[test]
    fn record_on_attaches_only_produced_fields() {
        let _guard = crate::TEST_SINK_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let collector = Collector::install();
        {
            let mut span = crate::span("solve.test");
            let mut diag = SolveDiag::new("uniformization");
            diag.iterations = 42;
            diag.uniformization_rate = Some(1e7);
            diag.fox_glynn_window = Some((3, 91));
            diag.spmv_ops = 88;
            diag.ssd_trigger_step = Some(37);
            diag.push_residual(1e-13);
            diag.record_on(&mut span);
        }
        {
            let mut span = crate::span("solve.direct");
            SolveDiag::new("direct").record_on(&mut span);
        }
        let spans = collector.spans();
        let of = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let args = &of("solve.test").args;
        let arg = |k: &str| {
            args.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(
            arg("solve.method"),
            Some(ArgValue::Str("uniformization".into()))
        );
        assert_eq!(arg("solve.iterations"), Some(ArgValue::U64(42)));
        assert_eq!(arg("solve.fox_glynn_right"), Some(ArgValue::U64(91)));
        assert_eq!(arg("solve.spmv_ops"), Some(ArgValue::U64(88)));
        assert_eq!(
            arg("solve.residual_tail"),
            Some(ArgValue::Str("0.0000000000001".into()))
        );
        assert_eq!(arg("solve.uniformization_rate"), Some(ArgValue::F64(1e7)));
        assert_eq!(arg("solve.ssd_trigger_step"), Some(ArgValue::U64(37)));
        let direct = &of("solve.direct").args;
        assert!(direct
            .iter()
            .all(|(k, _)| k == "solve.method" || k == "solve.iterations"));
        clear_sink();
    }
}
