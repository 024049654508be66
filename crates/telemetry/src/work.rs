//! Deterministic, machine-independent work counters.
//!
//! Unlike every other emission in this crate, these counters are **always
//! on** — they are process-global relaxed atomics, not routed through the
//! pluggable sink. Each is incremented once per whole operation (one per
//! sparse matrix-vector product, one per solver sweep), so the overhead is
//! a single relaxed add amortised over thousands of floating-point
//! operations, and the totals are identical across machines, thread counts,
//! and load. That determinism is the point: the bench harness snapshots
//! these counters around each experiment and ratchets on the *work*
//! performed (`gsu-bench regress`), a signal a noisy 1-CPU container cannot
//! corrupt the way it corrupts wall time.

use std::sync::atomic::{AtomicU64, Ordering};

static SPMV_OPS: AtomicU64 = AtomicU64::new(0);
static SPMV_NNZ: AtomicU64 = AtomicU64::new(0);
static AXPY_OPS: AtomicU64 = AtomicU64::new(0);
static SOLVER_ITERATIONS: AtomicU64 = AtomicU64::new(0);
static EXPM_SOLVES: AtomicU64 = AtomicU64::new(0);
static FLOPS: AtomicU64 = AtomicU64::new(0);

/// Counts one sparse matrix-vector product that touched `nnz` stored
/// entries: `nnz` flops.
#[inline]
pub fn count_spmv(nnz: usize) {
    SPMV_OPS.fetch_add(1, Ordering::Relaxed);
    SPMV_NNZ.fetch_add(nnz as u64, Ordering::Relaxed);
    FLOPS.fetch_add(nnz as u64, Ordering::Relaxed);
}

/// Counts `n` multiply-adds of dense work (the products of a matrix
/// exponential) into the flops tally.
#[inline]
pub fn count_dense_flops(n: u64) {
    FLOPS.fetch_add(n, Ordering::Relaxed);
}

/// Counts `n` vector `axpy`-class updates (scale-and-accumulate passes).
#[inline]
pub fn count_axpy(n: u64) {
    AXPY_OPS.fetch_add(n, Ordering::Relaxed);
}

/// Counts `n` solver iterations: uniformization steps, or the squarings
/// of a matrix exponential. The one tally of solver work: an installed
/// sink sees the same `n` as the `solver.iterations` counter.
#[inline]
pub fn count_iterations(n: u64) {
    SOLVER_ITERATIONS.fetch_add(n, Ordering::Relaxed);
    crate::counter("solver.iterations", n);
}

/// Counts `n` dense matrix-exponential solves.
#[inline]
pub fn count_expm(n: u64) {
    EXPM_SOLVES.fetch_add(n, Ordering::Relaxed);
}

/// A point-in-time copy of every work counter.
///
/// Counters are monotone, so the cost of a region is the field-wise
/// difference of two snapshots ([`WorkSnapshot::delta_since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkSnapshot {
    /// Sparse matrix-vector products performed.
    pub spmv_ops: u64,
    /// Stored matrix entries those products touched: the products weighted
    /// by the size of the chain they ran on.
    pub spmv_nnz: u64,
    /// Vector axpy-class updates performed.
    pub axpy_ops: u64,
    /// Iterative-solver iterations performed.
    pub solver_iterations: u64,
    /// Dense matrix-exponential solves performed.
    pub expm_solves: u64,
    /// Multiply-adds of the transient engines: the stored entries every
    /// sparse product touched, plus the structured multiply-adds of every
    /// product of every matrix exponential (`n²·m` for an `n × n` by
    /// `n × m` product of one diagonal block). One number for the work of
    /// both engines, so trading one engine for the other shows as one
    /// count that must fall.
    pub flops: u64,
}

impl WorkSnapshot {
    /// The work performed between `earlier` and `self`, field-wise.
    pub fn delta_since(&self, earlier: &WorkSnapshot) -> WorkSnapshot {
        WorkSnapshot {
            spmv_ops: self.spmv_ops.saturating_sub(earlier.spmv_ops),
            spmv_nnz: self.spmv_nnz.saturating_sub(earlier.spmv_nnz),
            axpy_ops: self.axpy_ops.saturating_sub(earlier.axpy_ops),
            solver_iterations: self
                .solver_iterations
                .saturating_sub(earlier.solver_iterations),
            expm_solves: self.expm_solves.saturating_sub(earlier.expm_solves),
            flops: self.flops.saturating_sub(earlier.flops),
        }
    }
}

/// Reads every work counter.
pub fn snapshot() -> WorkSnapshot {
    WorkSnapshot {
        spmv_ops: SPMV_OPS.load(Ordering::Relaxed),
        spmv_nnz: SPMV_NNZ.load(Ordering::Relaxed),
        axpy_ops: AXPY_OPS.load(Ordering::Relaxed),
        solver_iterations: SOLVER_ITERATIONS.load(Ordering::Relaxed),
        expm_solves: EXPM_SOLVES.load(Ordering::Relaxed),
        flops: FLOPS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_are_fieldwise_and_monotone() {
        let before = snapshot();
        count_spmv(7);
        count_axpy(2);
        count_iterations(5);
        count_expm(1);
        count_dense_flops(11);
        let after = snapshot();
        let delta = after.delta_since(&before);
        // Other tests may run concurrently in this process, so the deltas
        // are lower bounds, not exact.
        assert!(delta.spmv_ops >= 1);
        assert!(delta.spmv_nnz >= 7);
        assert!(delta.axpy_ops >= 2);
        assert!(delta.solver_iterations >= 5);
        assert!(delta.expm_solves >= 1);
        assert!(delta.flops >= 7 + 11);
        assert_eq!(before.delta_since(&after), WorkSnapshot::default());
    }
}
