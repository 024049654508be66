//! Sliding-window histogram: a ring of per-second log₁₀-bucket frames.
//!
//! The cumulative histograms in [`Collector`](crate::Collector) aggregate
//! since process start, which makes their quantile gauges useless for "how
//! is the service doing *right now*". A [`WindowHistogram`] keeps one frame
//! per wall-clock second in a fixed ring of `window_secs + 1` slots (the
//! current, still-filling second plus `window_secs` complete ones). Each
//! frame holds the same fixed log₁₀ bucket array the cumulative histograms
//! use (one bucket per power of ten between `1e-15` and `1e15`, plus an
//! underflow and an overflow bucket), plus count/sum/min/max and a "good"
//! count of observations at or below an optional SLO bound.
//!
//! Recording is O(1): the frame for the current second is found by
//! `second % ring_len`; a stale frame (left over from `ring_len` seconds
//! ago) is reset in place the first time the new second touches it, so no
//! background sweeper is needed. A [`WindowSnapshot`] merges the frames
//! still inside the window into one bucket array; merging snapshots is
//! associative and commutative (element-wise sums, min/min, max/max), which
//! is what lets per-route windows be combined into service-level views and
//! is pinned by a unit test.
//!
//! The clock is injectable: `record_at` / `snapshot_at` take an absolute
//! second index so rotation and expiry are unit-testable without sleeping;
//! `record` / `snapshot` use seconds elapsed since the histogram's creation.

use std::sync::Mutex;
use std::time::Instant;

use crate::buckets::{bucket_index, estimate_quantile, BUCKETS};

/// Default window width, in seconds, used by serving-side telemetry.
pub const DEFAULT_WINDOW_SECS: u64 = 60;

/// Sentinel for a ring slot that has never been written (or was reset).
const EMPTY_SECOND: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Frame {
    /// Absolute second index this frame holds data for; `EMPTY_SECOND` when
    /// the slot is unused.
    second: u64,
    buckets: [u64; BUCKETS],
    count: u64,
    good: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Frame {
    fn empty() -> Self {
        Frame {
            second: EMPTY_SECOND,
            buckets: [0; BUCKETS],
            count: 0,
            good: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn reset_for(&mut self, second: u64) {
        *self = Frame::empty();
        self.second = second;
    }
}

/// A sliding-window histogram with per-second resolution.
///
/// Thread-safe; observers take a short `Mutex` critical section (the ring is
/// tiny and updates are a few adds), which is fine for request-rate — not
/// SpMV-rate — instrumentation.
#[derive(Debug)]
pub struct WindowHistogram {
    epoch: Instant,
    window_secs: u64,
    /// Observations `<= slo_bound` count as "good" for SLO attainment.
    slo_bound: Option<f64>,
    frames: Mutex<Vec<Frame>>,
}

impl WindowHistogram {
    /// A histogram covering the last `window_secs` seconds (clamped to at
    /// least 1). `slo_bound`, if given, is the threshold (in the same unit
    /// as the observed values) at or below which an observation counts as
    /// "good" for [`WindowSnapshot::attainment`] — counted exactly per
    /// observation, not reconstructed from bucket boundaries.
    pub fn new(window_secs: u64, slo_bound: Option<f64>) -> Self {
        let window_secs = window_secs.max(1);
        WindowHistogram {
            epoch: Instant::now(),
            window_secs,
            slo_bound,
            // One slot per covered second plus the still-filling current one.
            frames: Mutex::new(vec![Frame::empty(); (window_secs + 1) as usize]),
        }
    }

    /// Width of the window, in seconds.
    pub fn window_secs(&self) -> u64 {
        self.window_secs
    }

    /// The SLO bound observations are judged against, if any.
    pub fn slo_bound(&self) -> Option<f64> {
        self.slo_bound
    }

    /// Seconds elapsed since this histogram was created — the "now" used by
    /// [`record`](Self::record) and [`snapshot`](Self::snapshot).
    pub fn now_second(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// Records `value` into the current second's frame.
    pub fn record(&self, value: f64) {
        self.record_at(value, self.now_second());
    }

    /// Records `value` into the frame for absolute second `second`
    /// (injectable clock for tests).
    pub fn record_at(&self, value: f64, second: u64) {
        let mut frames = self.frames.lock().unwrap_or_else(|e| e.into_inner());
        let len = frames.len();
        let frame = &mut frames[(second % len as u64) as usize];
        if frame.second != second {
            // The slot still holds a frame from >= ring_len seconds ago (or
            // nothing): it has expired from the window, reclaim it in place.
            frame.reset_for(second);
        }
        frame.buckets[bucket_index(value)] += 1;
        frame.count += 1;
        frame.sum += value;
        frame.min = frame.min.min(value);
        frame.max = frame.max.max(value);
        if self.slo_bound.is_none_or(|bound| value <= bound) {
            frame.good += 1;
        }
    }

    /// Merges the frames inside the window ending at the current second.
    pub fn snapshot(&self) -> WindowSnapshot {
        self.snapshot_at(self.now_second())
    }

    /// Merges the frames covering seconds `(now - window_secs, now]`
    /// (injectable clock for tests). Frames older than the window are
    /// excluded even if they still sit in the ring.
    pub fn snapshot_at(&self, now: u64) -> WindowSnapshot {
        let mut snap = WindowSnapshot::empty(self.window_secs, self.slo_bound);
        let frames = self.frames.lock().unwrap_or_else(|e| e.into_inner());
        for frame in frames.iter() {
            if frame.second == EMPTY_SECOND
                || frame.second > now
                || now - frame.second >= self.window_secs
            {
                continue;
            }
            snap.count += frame.count;
            snap.good += frame.good;
            snap.sum += frame.sum;
            snap.min = snap.min.min(frame.min);
            snap.max = snap.max.max(frame.max);
            for (acc, &c) in snap.buckets.iter_mut().zip(frame.buckets.iter()) {
                *acc += c;
            }
        }
        snap
    }
}

/// A point-in-time merge of the frames inside a [`WindowHistogram`] window.
///
/// Snapshots are plain data and can be merged with [`merge`](Self::merge):
/// the operation is associative and commutative, so per-route snapshots
/// combine into service-level ones in any order.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Width of the originating window, in seconds.
    pub window_secs: u64,
    /// Observations in the window.
    pub count: u64,
    /// Observations at or below the SLO bound (all of them when no bound).
    pub good: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (`+inf` when empty).
    pub min: f64,
    /// Largest observed value (`-inf` when empty).
    pub max: f64,
    /// SLO bound the `good` count was judged against, if any.
    pub slo_bound: Option<f64>,
    buckets: [u64; BUCKETS],
}

impl WindowSnapshot {
    fn empty(window_secs: u64, slo_bound: Option<f64>) -> Self {
        WindowSnapshot {
            window_secs,
            count: 0,
            good: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            slo_bound,
            buckets: [0; BUCKETS],
        }
    }

    /// Combines two snapshots element-wise. Associative and commutative;
    /// `window_secs` takes the wider of the two and the SLO bound is kept
    /// from whichever side has one (callers merge like-configured windows).
    pub fn merge(&self, other: &WindowSnapshot) -> WindowSnapshot {
        let mut buckets = self.buckets;
        for (acc, &c) in buckets.iter_mut().zip(other.buckets.iter()) {
            *acc += c;
        }
        WindowSnapshot {
            window_secs: self.window_secs.max(other.window_secs),
            count: self.count + other.count,
            good: self.good + other.good,
            sum: self.sum + other.sum,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            slo_bound: self.slo_bound.or(other.slo_bound),
            buckets,
        }
    }

    /// Estimated `q`-quantile of the windowed observations (`NaN` when the
    /// window is empty), with the same log-bucket resolution guarantees as
    /// the cumulative histograms.
    pub fn quantile(&self, q: f64) -> f64 {
        estimate_quantile(&self.buckets, self.count, self.min, self.max, q)
    }

    /// Mean of the windowed observations (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Fraction of windowed observations at or below the SLO bound; `None`
    /// when the window is empty or the histogram has no bound.
    pub fn attainment(&self) -> Option<f64> {
        match (self.slo_bound, self.count) {
            (Some(_), n) if n > 0 => Some(self.good as f64 / n as f64),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_expire_after_the_window() {
        let w = WindowHistogram::new(10, None);
        w.record_at(5.0, 0);
        w.record_at(7.0, 3);
        // Both inside a 10 s window ending at second 9.
        let snap = w.snapshot_at(9);
        assert_eq!(snap.count, 2);
        assert_eq!(snap.min, 5.0);
        assert_eq!(snap.max, 7.0);
        // At second 10 the frame from second 0 is exactly window_secs old
        // and falls out; the one from second 3 remains.
        let snap = w.snapshot_at(10);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.min, 7.0);
        // Far in the future everything has expired, even though the frames
        // still physically sit in the ring.
        let snap = w.snapshot_at(1000);
        assert_eq!(snap.count, 0);
    }

    #[test]
    fn ring_slots_are_reclaimed_in_place() {
        let w = WindowHistogram::new(4, None);
        // Seconds 0 and 5 map to the same slot in a 5-slot ring; the second
        // write must replace, not accumulate onto, the first.
        w.record_at(1.0, 0);
        w.record_at(2.0, 5);
        let snap = w.snapshot_at(5);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.min, 2.0);
        assert_eq!(snap.max, 2.0);
    }

    #[test]
    fn empty_window_quantiles_are_nan() {
        let w = WindowHistogram::new(5, None);
        let snap = w.snapshot_at(0);
        assert_eq!(snap.count, 0);
        assert!(snap.quantile(0.5).is_nan());
        assert!(snap.quantile(0.999).is_nan());
        assert!(snap.mean().is_nan());
        assert!(snap.attainment().is_none());
    }

    #[test]
    fn single_valued_window_quantiles_are_exact() {
        let w = WindowHistogram::new(60, None);
        for sec in 0..5 {
            w.record_at(1234.0, sec);
        }
        let snap = w.snapshot_at(5);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.quantile(0.50), 1234.0);
        assert_eq!(snap.quantile(0.999), 1234.0);
        assert_eq!(snap.mean(), 1234.0);
    }

    #[test]
    fn snapshot_merge_is_associative_and_commutative() {
        // Three histograms with distinct data stand in for three per-route
        // windows being combined into a service-level view.
        let ha = WindowHistogram::new(30, Some(100.0));
        let hb = WindowHistogram::new(30, Some(100.0));
        let hc = WindowHistogram::new(30, Some(100.0));
        for &v in &[10.0, 50.0, 200.0] {
            ha.record_at(v, 0);
        }
        for &v in &[99.0, 101.0] {
            hb.record_at(v, 0);
        }
        hc.record_at(3.0, 0);
        let (a, b, c) = (ha.snapshot_at(0), hb.snapshot_at(0), hc.snapshot_at(0));
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        assert_eq!(left, right, "merge must be associative");
        assert_eq!(a.merge(&b), b.merge(&a), "merge must be commutative");
        assert_eq!(left.count, 6);
        assert_eq!(left.good, 4); // 10, 50, 99, 3 are <= 100
        assert_eq!(left.attainment(), Some(4.0 / 6.0));
    }

    #[test]
    fn attainment_counts_good_observations_exactly() {
        let w = WindowHistogram::new(10, Some(250.0));
        // 249, 250 are good; 251 is not — a bucket-based reconstruction
        // could not distinguish these (all live in the (100, 1000] bucket).
        w.record_at(249.0, 1);
        w.record_at(250.0, 1);
        w.record_at(251.0, 1);
        let snap = w.snapshot_at(1);
        assert_eq!(snap.good, 2);
        assert_eq!(snap.attainment(), Some(2.0 / 3.0));
    }

    #[test]
    fn live_clock_record_and_snapshot_agree() {
        let w = WindowHistogram::new(60, None);
        w.record(42.0);
        let snap = w.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.quantile(0.5), 42.0);
    }
}
