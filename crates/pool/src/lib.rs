//! A std-only, order-preserving parallel map.
//!
//! The workspace's offline build policy (see DESIGN.md, "Dependency policy")
//! rules out `rayon` and `crossbeam`, so this crate implements the one
//! parallel shape the pipeline needs, in safe Rust: [`Pool::map_indexed`].
//!
//! * **Scoped** — each call runs inside [`std::thread::scope`], so the
//!   closure borrows from the caller's stack (`GsuAnalysis`, calibration
//!   tables) with no `'static` bounds and no `Arc` plumbing.
//! * **Self-scheduling** — `threads − 1` helper threads and the caller each
//!   claim the next input index from one shared atomic cursor until the
//!   inputs run out, so a slow item never leaves the others idle behind it.
//! * **Deterministic collection** — each result is written into the slot of
//!   its input index, so the output order (and therefore every downstream
//!   floating-point reduction) is identical at any thread count.
//!
//! The width comes from the `GSU_THREADS` environment variable (default:
//! [`std::thread::available_parallelism`]). `GSU_THREADS=1` runs every item
//! inline on the caller's thread — byte-identical to a serial loop by
//! construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use telemetry::TraceContext;

/// Locks `m`, recovering the guard if a previous holder panicked. Item
/// panics are caught ([`Claims::work`]) and re-raised by the caller, so
/// lock poisoning carries no information here.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Mutex::into_inner`], recovering the value as [`lock_unpoisoned`] does.
fn unpoisoned<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Environment variable selecting the pool width.
pub const THREADS_ENV: &str = "GSU_THREADS";

/// Environment variable carrying an adversarial schedule-permutation seed
/// (the `gsu-lint sanitize` debug hook). When set, the order in which
/// threads claim input indices is a SplitMix64-driven Fisher–Yates shuffle
/// seeded from it, so items run in an order that has nothing to do with
/// input order. The pool's determinism contract says results must not
/// care; the sanitizer diffs outputs bitwise across seeds to prove it.
pub const PERMUTE_ENV: &str = "GSU_POOL_PERMUTE";

/// Environment variable enabling the **deliberately order-sensitive**
/// collection defect (`completion-order`). Test-only: it makes
/// [`Pool::map_indexed`] return results in item *completion* order instead
/// of input order whenever more than one thread is configured — exactly the
/// hazard class (order-sensitive parallel reduction) the determinism lint
/// and the differential sanitizer exist to catch. Never set this outside
/// the sanitizer's own negative tests.
pub const DEFECT_ENV: &str = "GSU_POOL_DEFECT";

/// The schedule-permutation seed selected by [`PERMUTE_ENV`], if any. A
/// value that parses as `u64` is used directly; any other non-empty value
/// is FNV-1a-hashed so `GSU_POOL_PERMUTE=adversarial` also works.
pub fn configured_permutation() -> Option<u64> {
    let raw = std::env::var(PERMUTE_ENV).ok()?;
    let raw = raw.trim();
    if raw.is_empty() {
        return None;
    }
    Some(raw.parse::<u64>().unwrap_or_else(|_| {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in raw.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }))
}

/// `true` when [`DEFECT_ENV`] asks for the order-sensitive collection
/// defect.
fn defect_completion_order() -> bool {
    std::env::var(DEFECT_ENV)
        .map(|v| {
            let v = v.trim();
            v == "completion-order" || v == "1"
        })
        .unwrap_or(false)
}

/// SplitMix64 step — the permutation stream behind [`PERMUTE_ENV`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The thread count selected by [`THREADS_ENV`], or
/// [`std::thread::available_parallelism`] when unset or unparsable.
///
/// Re-read on every call so tests (and long-lived processes) can switch
/// widths at run time; the determinism guarantee makes the switch
/// observable only through wall time.
pub fn configured_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The width and debug hooks of a parallel map. A plain configuration
/// value: threads live only for the duration of one [`Pool::map_indexed`]
/// call. For the workloads this workspace maps — tens of items, each
/// milliseconds to seconds — thread setup cost is noise.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
    /// Claim-order permutation seed (see [`PERMUTE_ENV`]); `None` claims in
    /// input order.
    permute: Option<u64>,
    /// Order-sensitive collection defect (see [`DEFECT_ENV`]); test-only.
    defect: bool,
}

impl Pool {
    /// Creates a pool that maps on `threads` threads (minimum 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
            permute: None,
            defect: false,
        }
    }

    /// The pool described by the current environment ([`configured_threads`],
    /// [`configured_permutation`], and [`DEFECT_ENV`]).
    pub fn current() -> Self {
        Pool::new(configured_threads())
            .with_permutation(configured_permutation())
            .with_completion_order_defect(defect_completion_order())
    }

    /// Returns the pool with the given claim-order permutation seed (the
    /// `gsu-lint sanitize` debug hook; see [`PERMUTE_ENV`]).
    pub fn with_permutation(mut self, seed: Option<u64>) -> Self {
        self.permute = seed;
        self
    }

    /// Returns the pool with the order-sensitive collection defect toggled
    /// (see [`DEFECT_ENV`]). Only the sanitizer's negative tests set this.
    pub fn with_completion_order_defect(mut self, on: bool) -> Self {
        self.defect = on;
        self
    }

    /// Number of threads a map runs on, including the caller's.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning results **in input
    /// order**.
    ///
    /// Each result is written into the slot of its input index, so the output
    /// is a pure function of the inputs — bitwise identical at any thread
    /// count *and under any claim permutation* ([`PERMUTE_ENV`]). With one
    /// thread (or one item) the map runs inline on the caller's thread with
    /// no synchronisation at all. The one deliberate exception is the seeded
    /// [`DEFECT_ENV`] hook, which breaks this contract on purpose so the
    /// sanitizer has a known-bad schedule-sensitive reduction to catch.
    ///
    /// Spans `f` opens parent under a `pool.map_indexed` span, which parents
    /// under the caller's: the caller's [`TraceContext`] is attached on every
    /// helper thread. If an item panics, the first payload is re-raised here
    /// after every other item has run.
    pub fn map_indexed<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, x)| f(i, x))
                .collect();
        }
        let mut span = telemetry::span("pool.map_indexed");
        span.record("items", items.len());
        span.record("threads", self.threads);
        let n = items.len();
        let mut order: Vec<usize> = (0..n).collect();
        if let Some(seed) = self.permute {
            // Fisher–Yates driven by the SplitMix64 stream.
            let mut s = splitmix64(seed);
            for i in (1..n).rev() {
                s = splitmix64(s);
                order.swap(i, (s % (i as u64 + 1)) as usize);
            }
        }
        let claims = Claims {
            items: items.into_iter().map(|x| Mutex::new(Some(x))).collect(),
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            order,
            cursor: AtomicUsize::new(0),
            completion: self.defect.then(|| Mutex::new(Vec::with_capacity(n))),
            panic: Mutex::new(None),
            ctx: TraceContext::current(),
            f: &f,
        };
        std::thread::scope(|ts| {
            for _ in 1..self.threads.min(n) {
                ts.spawn(|| claims.work());
            }
            claims.work();
        });
        if let Some(payload) = unpoisoned(claims.panic) {
            resume_unwind(payload);
        }
        let mut results: Vec<Option<R>> = claims.results.into_iter().map(unpoisoned).collect();
        // The seeded defect hands results back in completion order: the
        // order-sensitive parallel reduction the determinism lint and
        // `gsu-lint sanitize` exist to catch. The inline path above is
        // untouched, so the 1-thread baseline stays correct and the
        // differential diff lights up.
        let order = claims
            .completion
            .map_or_else(|| (0..n).collect(), unpoisoned);
        order
            .into_iter()
            .map(|i| match results[i].take() {
                Some(result) => result,
                None => unreachable!("the scope ran every claimed item"),
            })
            .collect()
    }

    /// Fallible [`Pool::map_indexed`]: returns the first error **by input
    /// index** (not by completion time), so the reported failure is also
    /// deterministic.
    ///
    /// Unlike a serial `collect::<Result<_, _>>`, all items run to completion
    /// even when an early item fails; only the reported value matches the
    /// serial path.
    pub fn try_map_indexed<T, R, E, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, E>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(usize, T) -> Result<R, E> + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, x)| f(i, x))
                .collect();
        }
        self.map_indexed(items, f).into_iter().collect()
    }
}

/// The shared state of one parallel [`Pool::map_indexed`] call.
struct Claims<'f, T, R, F> {
    /// Inputs; each is taken by the thread that claims its index.
    items: Vec<Mutex<Option<T>>>,
    /// Results, by input index.
    results: Vec<Mutex<Option<R>>>,
    /// Claim order: the identity, or a [`PERMUTE_ENV`] shuffle of it.
    order: Vec<usize>,
    /// Next position of `order` to claim.
    cursor: AtomicUsize,
    /// Completion order, kept only under the [`DEFECT_ENV`] defect.
    completion: Option<Mutex<Vec<usize>>>,
    /// First panic payload raised by an item; re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The caller's trace context, attached on every thread.
    ctx: TraceContext,
    f: &'f F,
}

impl<T, R, F: Fn(usize, T) -> R> Claims<'_, T, R, F> {
    /// Claims and runs items until none is left. A panicking item is
    /// recorded and the loop goes on, so every other item still runs.
    fn work(&self) {
        let _ctx = self.ctx.attach();
        loop {
            let claim = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&i) = self.order.get(claim) else {
                return;
            };
            let Some(item) = lock_unpoisoned(&self.items[i]).take() else {
                unreachable!("each index is claimed once");
            };
            match catch_unwind(AssertUnwindSafe(|| (self.f)(i, item))) {
                Ok(result) => *lock_unpoisoned(&self.results[i]) = Some(result),
                Err(payload) => {
                    lock_unpoisoned(&self.panic).get_or_insert(payload);
                }
            }
            if let Some(completion) = &self.completion {
                lock_unpoisoned(completion).push(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        // Lengths around the thread counts, empty included, and every 4th
        // item expensive so threads race for the cursor.
        for threads in [1, 2, 4, 7] {
            for n in [0, 1, 2, 3, 5, 8, 64] {
                let out = Pool::new(threads).map_indexed((0..n).collect(), |i, x: usize| {
                    assert_eq!(i, x);
                    let spin = if i % 4 == 0 { 20_000 } else { 10 };
                    std::hint::black_box(
                        (0..spin).fold(x, |a, _| a.wrapping_mul(31).wrapping_add(1)),
                    );
                    x * x
                });
                assert_eq!(out, (0..n).map(|x| x * x).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let items: Vec<f64> = (0..40).map(|i| 0.1 + i as f64 * 0.37).collect();
        let f = |_: usize, x: f64| (x.sin() * x.exp()).sqrt().ln_1p();
        let serial = Pool::new(1).map_indexed(items.clone(), f);
        let parallel = Pool::new(4).map_indexed(items, f);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn try_map_reports_first_error_by_index() {
        let pool = Pool::new(4);
        let out: Result<Vec<usize>, String> =
            pool.try_map_indexed((0..32).collect(), |_, x: usize| {
                if x % 10 == 7 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            });
        assert_eq!(out.unwrap_err(), "bad 7");
    }

    #[test]
    fn task_panic_propagates_after_drain() {
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(4).map_indexed((0..20).collect(), |_, i: usize| {
                if i == 5 {
                    panic!("task 5 exploded");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = result.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "task 5 exploded");
        // Every non-panicking sibling still ran; no thread deadlocked.
        assert_eq!(finished.load(Ordering::Relaxed), 19);
    }

    #[test]
    fn configured_threads_parses_env() {
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(configured_threads(), 3);
        assert_eq!(Pool::current().threads(), 3);
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(configured_threads(), default_threads());
        std::env::set_var(THREADS_ENV, "not a number");
        assert_eq!(configured_threads(), default_threads());
        std::env::remove_var(THREADS_ENV);
        assert_eq!(configured_threads(), default_threads());
    }

    #[test]
    fn spawned_tasks_inherit_the_submitting_trace() {
        let collector = telemetry::Collector::install();
        let submit_ctx = {
            let span = telemetry::span("submit.sweep");
            let ctx = span.context().expect("live span");
            Pool::new(4).map_indexed((0..8u64).collect(), |_, i| {
                let mut s = telemetry::span("sweep.point");
                s.record("i", i);
            });
            ctx
        };
        telemetry::clear_sink();
        // Maps of tests running alongside record spans too; this one's is
        // the map span under the submitting span.
        let spans = collector.spans();
        let map = spans
            .iter()
            .find(|s| s.name == "pool.map_indexed" && s.parent_id == submit_ctx.span_id)
            .expect("map span under the submitter");
        assert_eq!(map.trace_id, submit_ctx.trace_id);
        let points: Vec<_> = spans.iter().filter(|s| s.name == "sweep.point").collect();
        assert_eq!(points.len(), 8);
        for p in &points {
            assert_eq!(p.trace_id, submit_ctx.trace_id);
            assert_eq!(p.parent_id, map.span_id);
        }
    }

    #[test]
    fn permuted_schedule_is_bitwise_invisible() {
        let items: Vec<f64> = (0..48).map(|i| 0.05 + i as f64 * 0.21).collect();
        let f = |_: usize, x: f64| (x.cos() * x.exp_m1()).abs().sqrt();
        let baseline = Pool::new(1).map_indexed(items.clone(), f);
        for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
            for threads in [2, 4, 7] {
                let pool = Pool::new(threads).with_permutation(Some(seed));
                let permuted = pool.map_indexed(items.clone(), f);
                for (a, b) in baseline.iter().zip(&permuted) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn completion_order_defect_reorders_results() {
        // The defect returns results in completion order. A permuted claim
        // order makes completion order differ from input order even when
        // one thread happens to run every item.
        let pool = Pool::new(2)
            .with_permutation(Some(7))
            .with_completion_order_defect(true);
        let out = pool.map_indexed((0..64).collect(), |_, x: usize| x);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..64).collect::<Vec<_>>(),
            "no item lost or duplicated"
        );
        assert_ne!(
            out,
            (0..64).collect::<Vec<_>>(),
            "defect must scramble order"
        );
        // The inline path is immune: a 1-thread pool ignores the defect.
        let serial = Pool::new(1)
            .with_permutation(Some(7))
            .with_completion_order_defect(true)
            .map_indexed((0..64).collect(), |_, x: usize| x);
        assert_eq!(serial, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn configured_permutation_parses_and_hashes() {
        std::env::set_var(PERMUTE_ENV, "42");
        assert_eq!(configured_permutation(), Some(42));
        std::env::set_var(PERMUTE_ENV, "adversarial");
        let hashed = configured_permutation();
        assert!(hashed.is_some());
        assert_ne!(hashed, Some(42));
        std::env::set_var(PERMUTE_ENV, "  ");
        assert_eq!(configured_permutation(), None);
        std::env::remove_var(PERMUTE_ENV);
        assert_eq!(configured_permutation(), None);
    }
}
