//! Transient solution of CTMCs: the distribution `π(t)` and the accumulated
//! occupancy `L(t) = ∫₀ᵗ π(s) ds`.
//!
//! Two engines are provided and selected automatically:
//!
//! * **Uniformization** with Fox–Glynn Poisson windows — exact up to
//!   truncation, cost `O(Λt · nnz)`. Preferred when `Λt` is moderate.
//! * **Dense matrix exponential** (scaling and squaring) — cost
//!   `O(n³ · log(Λt))`, immune to stiffness. Preferred for the
//!   guarded-operation models where `Λt ~ 10⁷`.
//!
//! A call resolves **one** engine for all its horizons. The `Auto` method
//! weighs one uniformization pass, stepped to the largest horizon's right
//! truncation point, against one dense chain along the horizons, with the
//! deterministic cost model of DESIGN.md §9 (`transient/cost.rs`): a
//! pass costs a fixed per-step overhead plus the sparse product and the
//! vector work of every open horizon; a chain costs one exponential per
//! distinct gap — `2P` multiply-adds per squaring for the `(π, L)` slab,
//! `P` for `π` alone, where `P` is one `n × n` product in the chain's
//! block-triangular layout (`n³` for an irreducible chain, see
//! [`expm`]) — plus its vector–matrix products. It takes the cheaper one
//! that fits its budget (step budget for uniformization, state limit for
//! the dense exponential). The constants were calibrated once; nothing is
//! timed at run time, so the choice is a pure function of the chain, the
//! horizons and the [`Options`]. On the lumped chains of a few dozen
//! states a dense chain wins from a few hundred expected Poisson steps
//! on; short horizons (`Λt` of tens) and chains past the dense limit stay
//! on uniformization.
//!
//! A uniformization step is one [`BlockedKernel::apply`] of the
//! uniformized matrix `P`, built once per pass; `epsilon` bounds the
//! Fox–Glynn truncation and nothing else.
//!
//! Every uniformization solve is one stepping loop over the power sequence
//! `π₀·P^k`. The sequence does not depend on the horizon — only the Poisson
//! weights do — so one loop serves any number of horizons, each with its
//! own Fox–Glynn window and its own accumulators: the Poisson pmf for
//! `π(t)`, the right tails for `L(t)`. Below a window's left point every
//! tail weight is 1, so that part of each `L(t)` is one shared running sum
//! of the powers, copied when the window opens.
//! [`distribution_and_occupancy_at_times`] and [`distribution_at_times`]
//! step the sequence once, up to the largest right truncation point, for
//! all their horizons when the call resolves to uniformization;
//! [`distribution_and_occupancy`] is the one-horizon case and returns the
//! bits of the two separate calls on the pair's engine at half the sparse
//! products.
//!
//! Every dense solve is one chain along its horizons, taken in ascending
//! order from `(π₀, 0)` at `t = 0`:
//!
//! ```text
//! π(t+Δ) = π(t)·e^{QΔ},    L(t+Δ) = L(t) + π(t)·∫₀^Δ e^{Qs} ds
//! ```
//!
//! A pair gap `Δ` costs **one** structured exponential
//! ([`expm::expm_with_integral_scaled`]), whose `e^{QΔ}` steps `π` and
//! whose `∫₀^Δ e^{Qs} ds` steps `L`; a π-only gap costs the `n × n`
//! `e^{QΔ}`. The chain runs in the topological order of the chain's
//! strongly connected components, found once per call in `O(n + nnz)`:
//! `Q` and `π₀` are permuted in and every answer back, so every
//! exponential is block upper triangular and skips its zero blocks. A
//! run of equal gaps (exact `f64` equality) reuses it, so a
//! uniform grid costs one exponential and one vector–matrix product per
//! horizon and output. A call that resolves to the matrix exponential
//! chains all its horizons; the one-horizon [`distribution`] and
//! [`occupancy`] are the one-gap chain.
//!
//! The contract between a grid and its points: on uniformization every
//! horizon of a grid is its one-horizon solve bit for bit, since the
//! iterates and the steady-state stop do not depend on the windows. On
//! the matrix exponential a horizon of a longer grid differs from its
//! one-horizon solve by rounding only: it rounds through its gaps'
//! exponentials instead of one exponential of `Qt`. Where the grid's
//! engine is not the one the horizon alone resolves to, the two differ by
//! the engines' tolerances instead. Each gap's exponential needs fewer
//! squarings than the full horizon's, and on the paper's stiff `RMGd` the
//! chained `π(θ)` and `L(θ)` are the closer ones to a tight
//! uniformization reference.

use sparsela::{vector, BlockedKernel, DenseMatrix};

use crate::fox_glynn::PoissonWindow;
use crate::{expm, graph};
use crate::{Ctmc, MarkovError, Result};

mod cost;

use cost::{Shape, Want};

/// Engine used for transient solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Take the cheaper engine for the call's horizons by the calibrated
    /// cost model (see the module docs), among those within their budgets.
    #[default]
    Auto,
    /// Force uniformization (errors out when the step budget is exceeded).
    Uniformization,
    /// Force the dense matrix exponential (errors out above the dense state
    /// limit).
    MatrixExponential,
}

/// Options for the transient solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Engine selection.
    pub method: Method,
    /// Per-tail truncation error for the Poisson window.
    pub epsilon: f64,
    /// Maximum number of uniformization steps (`≈ Λt` plus window width,
    /// at the largest horizon of a call): past it uniformization does not
    /// fit, and `Auto` takes the matrix exponential.
    pub max_uniformization_steps: usize,
    /// Maximum state count for the dense matrix exponential.
    pub dense_state_limit: usize,
    /// When `true`, uniformization stops early once the uniformized DTMC
    /// iterates stop changing (steady-state detection).
    pub steady_state_detection: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            method: Method::Auto,
            epsilon: 1e-12,
            max_uniformization_steps: 2_000_000,
            dense_state_limit: 1500,
            steady_state_detection: true,
        }
    }
}

/// Computes the state distribution `π(t)` from the initial distribution
/// `pi0`: the one-horizon case of [`distribution_at_times`].
///
/// # Errors
///
/// * [`MarkovError::InvalidDistribution`] when `pi0` is not a distribution
///   over the chain's states.
/// * [`MarkovError::InvalidModel`] when `t` is negative or non-finite.
/// * [`MarkovError::LimitExceeded`] when the selected engine exceeds its
///   budget.
pub fn distribution(ctmc: &Ctmc, pi0: &[f64], t: f64, opts: &Options) -> Result<Vec<f64>> {
    let mut out = distribution_at_times(ctmc, pi0, &[t], opts)?;
    Ok(out.remove(0))
}

/// Computes the accumulated occupancy `L(t) = ∫₀ᵗ π(s) ds`.
///
/// `L(t)[s]` is the expected total time spent in state `s` during `[0, t]`;
/// `Σ_s L(t)[s] = t`.
///
/// # Errors
///
/// Same failure modes as [`distribution`].
pub fn occupancy(ctmc: &Ctmc, pi0: &[f64], t: f64, opts: &Options) -> Result<Vec<f64>> {
    let want = Want { pi: false, l: true };
    let mut out = solve(ctmc, pi0, &[t], want, opts, "markov.transient.occupancy")?;
    Ok(out.remove(0).1)
}

/// Computes the distribution `π(t)` and the occupancy `L(t)` together, on
/// one engine: the one [`pair_method`] resolves to.
///
/// Both are weightings of one power sequence `π₀·P^k` of the uniformized
/// chain: the Poisson pmf gives `π(t)`, the right tails give `L(t)`. On
/// uniformization one pass steps the sequence once and feeds both
/// accumulators, at half the sparse products of two passes; on the matrix
/// exponential it is one link of the dense chain, whose one exponential
/// gives both. `L(t)` is bitwise [`occupancy`] forced to the pair's engine,
/// and so is `π(t)` [`distribution`], except on the exponential when the
/// integral block takes one more squaring than the `n × n` exponential of
/// `Qt` (its norm is `‖Qt‖∞ + 1`); `π(t)` then differs by rounding only.
///
/// This is the one-horizon case of [`distribution_and_occupancy_at_times`].
///
/// # Errors
///
/// Same failure modes as [`distribution`] and [`occupancy`].
pub fn distribution_and_occupancy(
    ctmc: &Ctmc,
    pi0: &[f64],
    t: f64,
    opts: &Options,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let mut out = distribution_and_occupancy_at_times(ctmc, pi0, &[t], opts)?;
    Ok(out.remove(0))
}

/// Computes `(π(t), L(t))` for every horizon in `times`, in order.
///
/// The call resolves **one** engine for all its horizons (see the module
/// docs). On uniformization, one pass steps the power sequence `π₀·P^k`
/// once, up to the largest right truncation point, and each horizon
/// accumulates its own Fox–Glynn window of it; steady-state detection, when
/// it stops the pass, applies the remaining weights of every unfinished
/// horizon. On the matrix exponential, every horizon is a link of one
/// dense chain. The trivial horizons (`t = 0`, a chain without
/// transitions) are `(π₀, π₀·t)` on either engine.
///
/// With one horizon this is the one-horizon solve, bit for bit. With
/// several, each horizon's answer is its one-horizon solve bit for bit on
/// uniformization, and differs from it by rounding only on the matrix
/// exponential, through the gap exponentials of the chain; where the
/// one-horizon solve resolves to the other engine, the two differ by the
/// engines' tolerances.
///
/// # Errors
///
/// Same failure modes as [`distribution`] and [`occupancy`]; every horizon
/// is checked before the engine is resolved.
pub fn distribution_and_occupancy_at_times(
    ctmc: &Ctmc,
    pi0: &[f64],
    times: &[f64],
    opts: &Options,
) -> Result<Vec<(Vec<f64>, Vec<f64>)>> {
    let want = Want { pi: true, l: true };
    solve(
        ctmc,
        pi0,
        times,
        want,
        opts,
        "markov.transient.distribution_and_occupancy",
    )
}

/// Computes `π(t)` for every horizon in `times`, in order, on one engine
/// for the whole call: one uniformization pass that feeds every horizon
/// its own window of the power sequence, or one dense chain, whose
/// horizons are taken in ascending order, each stepped from the one before
/// by `e^{QΔ}`, computed once per run of equal gaps. With one horizon this
/// is [`distribution`], bit for bit; with several, an answer relates to
/// its one-horizon solve as in [`distribution_and_occupancy_at_times`].
///
/// # Errors
///
/// Same failure modes as [`distribution`]; every horizon is checked before
/// the engine is resolved.
pub fn distribution_at_times(
    ctmc: &Ctmc,
    pi0: &[f64],
    times: &[f64],
    opts: &Options,
) -> Result<Vec<Vec<f64>>> {
    let want = Want { pi: true, l: false };
    let out = solve(
        ctmc,
        pi0,
        times,
        want,
        opts,
        "markov.transient.distribution",
    )?;
    Ok(out.into_iter().map(|(pi, _)| pi).collect())
}

/// The one engine a `(π(t), L(t))` pair resolves to at horizon `t`: the
/// engine of a one-horizon [`distribution_and_occupancy`]. `Auto` weighs
/// one uniformization pass feeding both sums against one structured
/// exponential (see the module docs); a forced method is checked against
/// its budget.
///
/// # Errors
///
/// [`MarkovError::LimitExceeded`] when the selected engine exceeds its
/// budget.
pub fn pair_method(ctmc: &Ctmc, t: f64, opts: &Options) -> Result<Method> {
    let (_, blocks) = topological_order(ctmc);
    select_method(
        Shape::of(ctmc, &blocks),
        &[t],
        Want { pi: true, l: true },
        opts,
    )
}

/// The one solve behind the four public calls: `want`'s outputs at every
/// horizon of `times`, in order, on one engine. An output not wanted
/// comes back empty.
fn solve(
    ctmc: &Ctmc,
    pi0: &[f64],
    times: &[f64],
    want: Want,
    opts: &Options,
    span_name: &'static str,
) -> Result<Vec<(Vec<f64>, Vec<f64>)>> {
    ctmc.check_distribution(pi0)?;
    for &t in times {
        check_time(t)?;
    }
    let moves = ctmc.max_exit_rate() > 0.0;
    let mut out = Vec::with_capacity(times.len());
    let mut slots = Vec::new();
    let mut horizons = Vec::new();
    for &t in times {
        if t > 0.0 && moves {
            slots.push(out.len());
            horizons.push(t);
            out.push((Vec::new(), Vec::new()));
        } else {
            let pi = if want.pi { pi0.to_vec() } else { Vec::new() };
            let l = if want.l {
                pi0.iter().map(|p| p * t).collect()
            } else {
                Vec::new()
            };
            out.push((pi, l));
        }
    }
    if horizons.is_empty() {
        return Ok(out);
    }
    let (order, blocks) = topological_order(ctmc);
    let method = select_method(Shape::of(ctmc, &blocks), &horizons, want, opts)?;
    let mut span = telemetry::span(span_name);
    span.record("states", ctmc.n_states());
    span.record("horizons", horizons.len());
    span.record("method", method_name(method));
    let solved = match method {
        Method::Uniformization => uniformized(ctmc, pi0, &horizons, want, opts)?,
        Method::MatrixExponential => expm_chain(ctmc, &order, pi0, &horizons, want)?,
        Method::Auto => unreachable!("select_method resolves Auto"),
    };
    for (slot, answer) in slots.into_iter().zip(solved) {
        out[slot] = answer;
    }
    Ok(out)
}

fn method_name(m: Method) -> &'static str {
    match m {
        Method::Auto => "auto",
        Method::Uniformization => "uniformization",
        Method::MatrixExponential => "matrix_exponential",
    }
}

fn check_time(t: f64) -> Result<()> {
    if !t.is_finite() || t < 0.0 {
        return Err(MarkovError::InvalidModel {
            context: format!("time horizon must be finite and >= 0, got {t}"),
        });
    }
    Ok(())
}

/// Resolves the engine of a call over `times` (each `> 0`) into a concrete
/// one, validating budgets: uniformization must reach the largest horizon
/// within its step budget, the exponential needs the chain within the
/// dense state limit. Under `Auto`, when both fit, the cheaper by the cost
/// model ([`cost`]) wins; a tie goes to uniformization.
fn select_method(shape: Shape, times: &[f64], want: Want, opts: &Options) -> Result<Method> {
    let lambda = shape.rate * UNIFORMIZATION_INFLATION;
    let expected_steps = lambda * times.iter().copied().fold(0.0, f64::max);
    let uniform_ok = expected_steps.is_finite()
        && expected_steps + 10.0 * expected_steps.sqrt() + 50.0
            <= opts.max_uniformization_steps as f64;
    let dense_ok = shape.states <= opts.dense_state_limit;
    match opts.method {
        Method::Uniformization => {
            if uniform_ok {
                Ok(Method::Uniformization)
            } else {
                Err(MarkovError::LimitExceeded {
                    context: format!(
                        "uniformization needs ~{expected_steps:.3e} steps, budget is {}",
                        opts.max_uniformization_steps
                    ),
                })
            }
        }
        Method::MatrixExponential => {
            if dense_ok {
                Ok(Method::MatrixExponential)
            } else {
                Err(MarkovError::LimitExceeded {
                    context: format!(
                        "matrix exponential limited to {} states, model has {}",
                        opts.dense_state_limit, shape.states
                    ),
                })
            }
        }
        Method::Auto => {
            if uniform_ok && dense_ok {
                let pass = cost::uniformization(shape, lambda, times, want, opts.epsilon);
                if pass <= cost::exponential(shape, times, want) {
                    Ok(Method::Uniformization)
                } else {
                    Ok(Method::MatrixExponential)
                }
            } else if uniform_ok {
                Ok(Method::Uniformization)
            } else if dense_ok {
                Ok(Method::MatrixExponential)
            } else {
                Err(MarkovError::LimitExceeded {
                    context: format!(
                        "no transient engine fits: ~{expected_steps:.3e} uniformization steps \
                         (budget {}) and {} states (dense limit {})",
                        opts.max_uniformization_steps, shape.states, opts.dense_state_limit
                    ),
                })
            }
        }
    }
}

/// The uniformization rate is the largest exit rate inflated by this
/// factor: the slack guarantees aperiodicity of the uniformized chain and
/// tolerates rounding in the max exit rate.
const UNIFORMIZATION_INFLATION: f64 = 1.02;

fn uniformization_rate(ctmc: &Ctmc) -> f64 {
    ctmc.max_exit_rate() * UNIFORMIZATION_INFLATION
}

/// Steady-state detection for the uniformized power sequence.
///
/// The plain criterion stops once successive iterates differ by less than
/// the tolerance in the ∞-norm. On top of that, a geometric extrapolation
/// tightens the cutoff: when diffs decay at an observed rate `r < 1/2`,
/// the total remaining change is bounded by `diff·r/(1−r) < diff`, so the
/// pass can stop as soon as that projection clears the tolerance — a few
/// steps earlier than the plain check, with the same error guarantee as
/// long as the decay stays geometric.
struct SsdTracker {
    tol: f64,
    prev_diff: f64,
    trigger_step: Option<u64>,
}

impl SsdTracker {
    fn new(tol: f64) -> Self {
        SsdTracker {
            tol,
            prev_diff: f64::INFINITY,
            trigger_step: None,
        }
    }

    /// Returns `true` when the iterates have converged tightly enough that
    /// all remaining Poisson mass can be applied to the current vector.
    fn converged(&mut self, diff: f64, step: u64) -> bool {
        let extrapolated = if self.prev_diff.is_finite() && diff < self.prev_diff {
            let r = diff / self.prev_diff;
            r < 0.5 && diff * r / (1.0 - r) < self.tol
        } else {
            false
        };
        self.prev_diff = diff;
        let hit = diff < self.tol || extrapolated;
        if hit && self.trigger_step.is_none() {
            self.trigger_step = Some(step);
        }
        hit
    }
}

fn record_uniformization(lambda: f64) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter("markov.uniformization.solves", 1);
    telemetry::gauge("markov.uniformization.rate", lambda);
}

/// Closes a uniformization flight record: tallies the executed steps into
/// the global work counters (and the sink's `solver.iterations`) and the
/// step histogram, and attaches the diagnostics to the solve span. Each
/// step is one vector–matrix product: the transient engine's analogue of a
/// linear-solver sweep.
fn finish_uniformized(
    flight: &mut telemetry::SolveDiag,
    span: &mut telemetry::SpanGuard,
    steps: u64,
    axpys: u64,
) {
    telemetry::work::count_iterations(steps);
    telemetry::observe("markov.uniformization.steps", steps as f64);
    flight.iterations = steps;
    flight.spmv_ops = steps;
    flight.axpy_ops = axpys;
    flight.record_on(span);
}

/// One horizon `t` of a uniformization pass: its Poisson window over the
/// power sequence `π₀·P^k` and the sums it accumulates, unnormalized.
struct Horizon {
    window: PoissonWindow,
    /// `Σ_k P[N = k]·π₀·P^k` (`π(t)`), when wanted.
    pi: Option<Vec<f64>>,
    /// The right tails `P[N > k]` on the window, when `L(t)` is wanted.
    tails: Option<Vec<f64>>,
    /// `Σ_k P[N > k]·π₀·P^k` (`Λ·L(t)`): the shared running sum copied at
    /// the window's left point, then fed the window's tails.
    l: Option<Vec<f64>>,
}

impl Horizon {
    fn new(window: PoissonWindow, want_pi: bool, want_l: bool, n: usize) -> Self {
        Horizon {
            pi: want_pi.then(|| vec![0.0; n]),
            tails: want_l.then(|| window.right_tails()),
            l: None,
            window,
        }
    }

    /// The occupancy weight `P[N > k]`: 1 below the window, the tails
    /// inside it, 0 past it.
    fn tail(&self, tails: &[f64], k: usize) -> f64 {
        if k < self.window.left {
            1.0
        } else {
            tails.get(k - self.window.left).copied().unwrap_or(0.0)
        }
    }

    /// Starts `L` from the shared running sum `Σ_{j<k} π₀·P^j` when it is
    /// wanted and not started yet.
    fn open_l(&mut self, below: &[f64]) {
        if self.tails.is_some() && self.l.is_none() {
            self.l = Some(below.to_vec());
        }
    }

    /// Adds power `k` (`x`) under this horizon's weights; `below` holds the
    /// powers before `k`. Returns the axpys run.
    fn absorb(&mut self, k: usize, x: &[f64], below: &[f64]) -> u64 {
        if k < self.window.left || k > self.window.right {
            return 0;
        }
        self.open_l(below);
        let tail = self
            .tails
            .as_deref()
            .map_or(0.0, |tails| self.tail(tails, k));
        add(self.pi.as_mut(), self.window.weight(k), x) + add(self.l.as_mut(), tail, x)
    }

    /// Steady-state stop after power `k`: every later power equals `next`,
    /// so it takes the weight still owed after `k`. `below` holds the
    /// powers up to `k`. Returns the axpys run.
    fn absorb_remaining(&mut self, k: usize, next: &[f64], below: &[f64]) -> u64 {
        self.open_l(below);
        let later = (k + 1)..=self.window.right;
        let pmf: f64 = later.clone().map(|j| self.window.weight(j)).sum();
        let tail: f64 = self
            .tails
            .as_deref()
            .map_or(0.0, |tails| later.map(|j| self.tail(tails, j)).sum());
        add(self.pi.as_mut(), pmf, next) + add(self.l.as_mut(), tail, next)
    }

    /// The `(π, Λ·L)` sums; an unwanted one is empty.
    fn into_sums(self) -> (Vec<f64>, Vec<f64>) {
        (self.pi.unwrap_or_default(), self.l.unwrap_or_default())
    }
}

/// `sum += weight·x` unless the sum is absent or the weight is zero;
/// returns the axpys run.
fn add(sum: Option<&mut Vec<f64>>, weight: f64, x: &[f64]) -> u64 {
    match sum {
        Some(sum) if weight != 0.0 => {
            vector::axpy(weight, x, sum);
            1
        }
        _ => 0,
    }
}

/// The one uniformization stepping loop: steps the power sequence
/// `π₀·P^k` once, up to the largest right truncation point of `horizons`,
/// and adds every power into every horizon under its own window.
///
/// Below a window's left point the occupancy weight is 1, so that part of
/// every `L` is one shared running sum `Σ_{j<k} π₀·P^j`; each horizon
/// copies it when its window opens and from then on pays separate axpys
/// only inside its window. Each step is the same `BlockedKernel::apply` of
/// `P`, whatever the windows, so the iterates and the steady-state stop
/// depend only on `π₀` and `P`: a horizon's sums come out bit for bit the
/// same in every pass that includes it.
fn uniformized_pass(
    ctmc: &Ctmc,
    pi0: &[f64],
    lambda: f64,
    horizons: &mut [Horizon],
    opts: &Options,
) -> Result<()> {
    let p = ctmc.uniformized(lambda)?;
    let k_max = horizons.iter().map(|h| h.window.right).max().unwrap_or(0);
    let shared_until = horizons
        .iter()
        .filter(|h| h.tails.is_some())
        .map(|h| h.window.left)
        .max()
        .unwrap_or(0);
    record_uniformization(lambda);
    let mut span = telemetry::span("markov.solve.uniformization");
    let mut flight = telemetry::SolveDiag::new("uniformization");
    flight.uniformization_rate = Some(lambda);
    let k_min = horizons.iter().map(|h| h.window.left).min().unwrap_or(0);
    flight.fox_glynn_window = Some((k_min as u64, k_max as u64));

    let n = ctmc.n_states();
    let kernel = BlockedKernel::from_csr(p.matrix());
    let mut cur = pi0.to_vec();
    let mut next = vec![0.0; n];
    let mut below = vec![0.0; n];
    let mut steps = 0u64;
    let mut axpys = 0u64;

    let mut ssd = SsdTracker::new(opts.epsilon.max(1e-15));
    for k in 0..=k_max {
        for h in horizons.iter_mut() {
            axpys += h.absorb(k, &cur, &below);
        }
        if k == k_max {
            break;
        }
        // The shared running sum takes power k while some window has not
        // opened yet.
        if k < shared_until {
            vector::axpy(1.0, &cur, &mut below);
            axpys += 1;
        }
        kernel.apply(&cur, &mut next);
        steps += 1;
        if opts.steady_state_detection {
            let diff = vector::diff_norm_inf(&cur, &next);
            if telemetry::enabled() {
                flight.push_residual(diff);
            }
            if ssd.converged(diff, steps) {
                for h in horizons.iter_mut() {
                    axpys += h.absorb_remaining(k, &next, &below);
                }
                break;
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    flight.ssd_trigger_step = ssd.trigger_step;
    finish_uniformized(&mut flight, &mut span, steps, axpys);
    Ok(())
}

/// Every horizon of `times` (each `> 0`) from one uniformization pass: its
/// `π(t)` (the pmf-weighted sum, normalized) and `L(t)` (the tail-weighted
/// sum over `Λ`), as `want` asks; an output not wanted comes back empty.
fn uniformized(
    ctmc: &Ctmc,
    pi0: &[f64],
    times: &[f64],
    want: Want,
    opts: &Options,
) -> Result<Vec<(Vec<f64>, Vec<f64>)>> {
    let lambda = uniformization_rate(ctmc);
    let n = ctmc.n_states();
    let mut horizons = times
        .iter()
        .map(|&t| {
            let window = PoissonWindow::compute(lambda * t, opts.epsilon)?;
            Ok(Horizon::new(window, want.pi, want.l, n))
        })
        .collect::<Result<Vec<_>>>()?;
    uniformized_pass(ctmc, pi0, lambda, &mut horizons, opts)?;
    Ok(horizons
        .into_iter()
        .map(|horizon| {
            let (mut pi, mut l) = horizon.into_sums();
            vector::normalize_l1(&mut pi);
            vector::scale(1.0 / lambda, &mut l);
            (pi, l)
        })
        .collect())
}

/// The chain's states in topological order of its strongly connected
/// components, and the components' sizes in that order: `order[p]` is the
/// state at position `p`, every transition between components goes from
/// an earlier one to a later one, and a component keeps its states in
/// ascending number. In this order the generator is block upper
/// triangular with the components as its diagonal blocks, the finest
/// contiguous layout [`expm`] finds. One Tarjan pass (`O(n + nnz)`) and a
/// stable sort.
fn topological_order(ctmc: &Ctmc) -> (Vec<usize>, Vec<usize>) {
    let (component, count) = graph::strongly_connected_components(ctmc.generator());
    // Tarjan numbers the components in reverse topological order.
    let mut order: Vec<usize> = (0..component.len()).collect();
    order.sort_by_key(|&state| std::cmp::Reverse(component[state]));
    let mut blocks = vec![0; count];
    for &c in &component {
        blocks[count - 1 - c] += 1;
    }
    (order, blocks)
}

/// The dense chain of the module docs: `(π(t), L(t))` at every horizon of
/// `times` (each `> 0`, in any order; answered in order), with the gap's
/// exponential computed once per run of equal gaps: `e^{QΔ}` alone for a
/// chain without `L`, else one [`expm::expm_with_integral_scaled`], whose
/// `e^{QΔ}` also steps `π`. An output not wanted comes back empty; a
/// repeated horizon (`Δ = 0`) repeats the answer. With one horizon the gap
/// is `t` itself, so the answer is the one-shot `π₀·e^{Qt}` and
/// `π₀·∫₀ᵗ e^{Qs} ds`, bit for bit.
///
/// The chain runs in `order` ([`topological_order`]): `Q` and `π₀` are
/// permuted in once, so every exponential is block upper triangular, and
/// every answer is permuted back.
fn expm_chain(
    ctmc: &Ctmc,
    order: &[usize],
    pi0: &[f64],
    times: &[f64],
    want: Want,
) -> Result<Vec<(Vec<f64>, Vec<f64>)>> {
    let Want {
        pi: want_pi,
        l: want_l,
    } = want;
    let n = ctmc.n_states();
    let mut position = vec![0; n];
    for (p, &state) in order.iter().enumerate() {
        position[state] = p;
    }
    let mut q = DenseMatrix::zeros(n, n);
    for (r, c, rate) in ctmc.generator().iter() {
        q[(position[r], position[c])] = rate;
    }
    let unpermute = |v: &[f64]| -> Vec<f64> { position.iter().map(|&p| v[p]).collect() };
    let mut propagators: Option<GapPropagators> = None;
    let mut sorted: Vec<usize> = (0..times.len()).collect();
    sorted.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
    let mut pi: Vec<f64> = order.iter().map(|&state| pi0[state]).collect();
    // `None` is L(0) = 0: the first gap's integral term is then L itself,
    // bit for bit, instead of a sum with a zero vector.
    let mut l: Option<Vec<f64>> = None;
    let mut now = 0.0;
    let mut out = vec![(Vec::new(), Vec::new()); times.len()];
    for (i, &slot) in sorted.iter().enumerate() {
        let t = times[slot];
        let delta = t - now;
        if delta > 0.0 {
            let gap = match propagators.take() {
                Some(gap) if gap.gap == delta => gap,
                _ => GapPropagators::new(&q, delta, want_l)?,
            };
            let gap = propagators.insert(gap);
            let next_pi = if want_pi || i + 1 < sorted.len() {
                let mut next = gap.e.vec_mul(&pi);
                clamp_probabilities(&mut next);
                Some(next)
            } else {
                None
            };
            if let Some(f) = &gap.f {
                let mut next = f.vec_mul(&pi);
                if let Some(prev) = &l {
                    for (o, p) in next.iter_mut().zip(prev) {
                        *o += p;
                    }
                }
                for o in &mut next {
                    if *o < 0.0 && *o > -1e-9 {
                        *o = 0.0;
                    }
                }
                l = Some(next);
            }
            if let Some(next) = next_pi {
                pi = next;
            }
            now = t;
        }
        if want_pi {
            out[slot].0 = unpermute(&pi);
        }
        if let Some(l) = &l {
            out[slot].1 = unpermute(l);
        }
    }
    Ok(out)
}

/// The propagators of one gap `Δ` of a dense chain: `e^{QΔ}` and, on a
/// chain that wants `L`, `∫₀^Δ e^{Qs} ds` from the same exponential.
struct GapPropagators {
    gap: f64,
    e: DenseMatrix,
    f: Option<DenseMatrix>,
}

impl GapPropagators {
    fn new(q: &DenseMatrix, gap: f64, integral: bool) -> Result<Self> {
        telemetry::counter("markov.expm.solves", 1);
        let (e, f) = if integral {
            let (e, f) = expm::expm_with_integral_scaled(q, gap)?;
            (e, Some(f))
        } else {
            let mut q_gap = q.clone();
            q_gap.scale(gap);
            (expm::expm(&q_gap)?, None)
        };
        Ok(GapPropagators { gap, e, f })
    }
}

fn clamp_probabilities(pi: &mut [f64]) {
    for p in pi.iter_mut() {
        if *p < 0.0 && *p > -1e-9 {
            *p = 0.0;
        }
    }
    vector::normalize_l1(pi);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> Ctmc {
        // 0 -> 1 at rate a, 1 -> 0 at rate b.
        Ctmc::from_transitions(2, [(0, 1, 2.0), (1, 0, 3.0)]).unwrap()
    }

    /// Closed form for the two-state chain starting in state 0:
    /// p0(t) = b/(a+b) + a/(a+b)·exp(−(a+b)t).
    fn two_state_p0(t: f64) -> f64 {
        let (a, b) = (2.0, 3.0);
        b / (a + b) + a / (a + b) * (-(a + b) * t).exp()
    }

    #[test]
    fn matches_closed_form_uniformization() {
        let c = two_state();
        let opts = Options {
            method: Method::Uniformization,
            ..Default::default()
        };
        for &t in &[0.01, 0.1, 0.5, 1.0, 5.0] {
            let pi = distribution(&c, &[1.0, 0.0], t, &opts).unwrap();
            assert!(
                (pi[0] - two_state_p0(t)).abs() < 1e-9,
                "t={t}: {} vs {}",
                pi[0],
                two_state_p0(t)
            );
        }
    }

    #[test]
    fn matches_closed_form_expm() {
        let c = two_state();
        let opts = Options {
            method: Method::MatrixExponential,
            ..Default::default()
        };
        for &t in &[0.01, 0.5, 5.0] {
            let pi = distribution(&c, &[1.0, 0.0], t, &opts).unwrap();
            assert!((pi[0] - two_state_p0(t)).abs() < 1e-9);
        }
    }

    #[test]
    fn engines_agree_on_erlang_chain() {
        // 5-stage Erlang: absorbing chain, P[absorbed by t] = Erlang CDF.
        let n = 6;
        let rate = 1.7;
        let trans: Vec<_> = (0..5).map(|i| (i, i + 1, rate)).collect();
        let c = Ctmc::from_transitions(n, trans).unwrap();
        let pi0 = c.point_distribution(0);
        let t = 3.0;

        let uopts = Options {
            method: Method::Uniformization,
            ..Default::default()
        };
        let eopts = Options {
            method: Method::MatrixExponential,
            ..Default::default()
        };

        let pu = distribution(&c, &pi0, t, &uopts).unwrap();
        let pe = distribution(&c, &pi0, t, &eopts).unwrap();
        for (a, b) in pu.iter().zip(&pe) {
            assert!((a - b).abs() < 1e-9);
        }
        // Erlang(5, rate) CDF at t.
        let x = rate * t;
        let mut cdf = 1.0;
        let mut term = 1.0;
        for k in 1..5 {
            term *= x / k as f64;
            cdf += term;
        }
        let cdf = 1.0 - cdf * (-x).exp();
        assert!((pu[5] - cdf).abs() < 1e-9);
    }

    #[test]
    fn occupancy_sums_to_t() {
        let c = two_state();
        for &t in &[0.5, 2.0, 10.0] {
            let l = occupancy(&c, &[1.0, 0.0], t, &Options::default()).unwrap();
            assert!((l.iter().sum::<f64>() - t).abs() < 1e-8, "t={t}");
        }
    }

    #[test]
    fn occupancy_matches_closed_form() {
        // ∫₀ᵗ p0(s) ds for the two-state chain.
        let c = two_state();
        let (a, b): (f64, f64) = (2.0, 3.0);
        let t = 1.25;
        let want = b / (a + b) * t + a / (a + b) / (a + b) * (1.0 - (-(a + b) * t).exp());
        let uopts = Options {
            method: Method::Uniformization,
            ..Default::default()
        };
        let eopts = Options {
            method: Method::MatrixExponential,
            ..Default::default()
        };
        let lu = occupancy(&c, &[1.0, 0.0], t, &uopts).unwrap();
        let le = occupancy(&c, &[1.0, 0.0], t, &eopts).unwrap();
        assert!(
            (lu[0] - want).abs() < 1e-8,
            "uniformization: {} vs {want}",
            lu[0]
        );
        assert!((le[0] - want).abs() < 1e-8, "expm: {} vs {want}", le[0]);
    }

    #[test]
    fn auto_switches_to_expm_when_stiff() {
        // Λt = 5000·1e4 = 5e7 > default budget: Auto must still succeed.
        let c = Ctmc::from_transitions(2, [(0, 1, 5000.0), (1, 0, 1000.0)]).unwrap();
        let pi = distribution(&c, &[1.0, 0.0], 10_000.0, &Options::default()).unwrap();
        assert!((pi[0] - 1.0 / 6.0).abs() < 1e-6);
        let forced = Options {
            method: Method::Uniformization,
            ..Default::default()
        };
        assert!(matches!(
            distribution(&c, &[1.0, 0.0], 10_000.0, &forced),
            Err(MarkovError::LimitExceeded { .. })
        ));
    }

    #[test]
    fn stiff_occupancy_is_consistent() {
        let c = Ctmc::from_transitions(2, [(0, 1, 5000.0), (1, 0, 1000.0)]).unwrap();
        let t = 10_000.0;
        let l = occupancy(&c, &[1.0, 0.0], t, &Options::default()).unwrap();
        // ~24 squarings of the augmented block matrix leave ~1e-9 relative
        // error; that is far below what the performability measures need.
        assert!((l.iter().sum::<f64>() - t).abs() < t * 1e-7);
        // Long-run fractions 1/6, 5/6.
        assert!((l[0] / t - 1.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn t_zero_is_initial_distribution() {
        let c = two_state();
        let pi = distribution(&c, &[0.3, 0.7], 0.0, &Options::default()).unwrap();
        assert_eq!(pi, vec![0.3, 0.7]);
        let l = occupancy(&c, &[0.3, 0.7], 0.0, &Options::default()).unwrap();
        assert_eq!(l, vec![0.0, 0.0]);
    }

    #[test]
    fn all_absorbing_chain() {
        let c = Ctmc::from_transitions(2, std::iter::empty()).unwrap();
        let pi = distribution(&c, &[0.4, 0.6], 7.0, &Options::default()).unwrap();
        assert_eq!(pi, vec![0.4, 0.6]);
        let l = occupancy(&c, &[0.4, 0.6], 5.0, &Options::default()).unwrap();
        assert!((l[0] - 2.0).abs() < 1e-12);
        assert!((l[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let c = two_state();
        assert!(distribution(&c, &[0.5, 0.6], 1.0, &Options::default()).is_err());
        assert!(distribution(&c, &[1.0, 0.0], -1.0, &Options::default()).is_err());
        assert!(distribution(&c, &[1.0, 0.0], f64::NAN, &Options::default()).is_err());
    }

    #[test]
    fn steady_state_detection_matches_exact() {
        let c = two_state();
        let with_sse = Options {
            method: Method::Uniformization,
            steady_state_detection: true,
            ..Default::default()
        };
        let mut without = with_sse.clone();
        without.steady_state_detection = false;
        let t = 50.0; // far past mixing
        let a = distribution(&c, &[1.0, 0.0], t, &with_sse).unwrap();
        let b = distribution(&c, &[1.0, 0.0], t, &without).unwrap();
        assert!(sparsela::vector::diff_norm_inf(&a, &b) < 1e-9);
        // And both equal the steady state 3/5, 2/5.
        assert!((a[0] - 0.6).abs() < 1e-9);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The fused solve against the two separate calls forced to the pair's
    /// engine. `L` is bitwise [`occupancy`]. `π` is bitwise [`distribution`]
    /// unless the pair is dense and its block exponential takes more
    /// squarings than the `n × n` one (the identity adds 1 to the block's
    /// norm); then `π` is within 1e-14 relative. Returns whether `π` was in
    /// that second case.
    fn assert_fused_matches_separate(c: &Ctmc, pi0: &[f64], t: f64, opts: &Options) -> bool {
        let (pi, l) = distribution_and_occupancy(c, pi0, t, opts).unwrap();
        let method = pair_method(c, t, opts).unwrap();
        let forced = Options {
            method,
            ..opts.clone()
        };
        let want_pi = distribution(c, pi0, t, &forced).unwrap();
        let want_l = occupancy(c, pi0, t, &forced).unwrap();
        assert_eq!(bits(&l), bits(&want_l), "L at t = {t}, {opts:?}");
        let mut qt = c.generator().to_dense();
        qt.scale(t);
        let norm = qt.norm_inf();
        let more_squarings = method == Method::MatrixExponential
            && t > 0.0
            && c.max_exit_rate() > 0.0
            && expm::squarings(norm + 1.0) != expm::squarings(norm);
        if more_squarings {
            for (got, want) in pi.iter().zip(&want_pi) {
                assert!(
                    (got - want).abs() <= 1e-14 * want.abs(),
                    "π at t = {t}, {opts:?}: {got} vs {want}"
                );
            }
        } else {
            assert_eq!(bits(&pi), bits(&want_pi), "π at t = {t}, {opts:?}");
        }
        more_squarings
    }

    #[test]
    fn fused_solve_matches_separate_calls_bitwise() {
        let erlang = Ctmc::from_transitions(6, (0..5).map(|i| (i, i + 1, 1.7))).unwrap();
        let absorbing = Ctmc::from_transitions(2, std::iter::empty()).unwrap();
        let two = two_state();
        let cases: [(&str, &Ctmc, Vec<f64>); 4] = [
            ("two-state", &two, vec![1.0, 0.0]),
            ("two-state mixed", &two, vec![0.3, 0.7]),
            ("erlang", &erlang, erlang.point_distribution(0)),
            ("absorbing", &absorbing, vec![0.4, 0.6]),
        ];
        for method in [
            Method::Auto,
            Method::Uniformization,
            Method::MatrixExponential,
        ] {
            for steady_state_detection in [true, false] {
                let opts = Options {
                    method,
                    steady_state_detection,
                    ..Default::default()
                };
                // t = 50 on the two-state chain mixes fully, so detection
                // stops the pass early when it is on.
                let mut off_by_a_squaring = Vec::new();
                for t in [0.0, 0.01, 0.5, 3.0, 50.0] {
                    for (name, chain, pi0) in &cases {
                        if assert_fused_matches_separate(chain, pi0, t, &opts) {
                            off_by_a_squaring.push((*name, t));
                        }
                    }
                }
                // ‖Qt‖∞ = 10.2 on the Erlang chain at t = 3 takes one
                // squaring; the block's 11.2 takes two. Every other dense
                // point keeps its squarings, so its π is bitwise. Whether
                // that point is dense is the engine its pair resolves to.
                let erlang_dense =
                    pair_method(&erlang, 3.0, &opts).unwrap() == Method::MatrixExponential;
                let want: &[(&str, f64)] = if erlang_dense {
                    &[("erlang", 3.0)]
                } else {
                    &[]
                };
                assert_eq!(off_by_a_squaring, want, "{opts:?}");
            }
        }
    }

    #[test]
    fn fused_solve_takes_one_engine_on_mixed_selection() {
        // On two states at t = 8 (Λt ≈ 24.5) the 2 × 2 and the 2 × 4
        // exponentials cost about the same, while the pair's pass pays the
        // axpys of a second sum: π alone resolves to uniformization, the
        // pair to the matrix exponential.
        let c = two_state();
        let t = 8.0;
        let opts = Options::default();
        let pi_only = Want { pi: true, l: false };
        assert_eq!(
            select_method(
                Shape::of(&c, &topological_order(&c).1),
                &[t],
                pi_only,
                &opts
            )
            .unwrap(),
            Method::Uniformization
        );
        assert_eq!(
            pair_method(&c, t, &opts).unwrap(),
            Method::MatrixExponential
        );
        assert!(!assert_fused_matches_separate(&c, &[1.0, 0.0], t, &opts));
        // The pair's π is the dense π, not the lone uniformization one.
        let (pi, _) = distribution_and_occupancy(&c, &[1.0, 0.0], t, &opts).unwrap();
        let lone_pi = distribution(&c, &[1.0, 0.0], t, &opts).unwrap();
        assert_ne!(bits(&pi), bits(&lone_pi));
        assert!(vector::diff_norm_inf(&pi, &lone_pi) < 1e-9);
        // Both past the uniformization budget: both on the exponential.
        let stiff = Ctmc::from_transitions(2, [(0, 1, 5000.0), (1, 0, 1000.0)]).unwrap();
        assert!(!assert_fused_matches_separate(
            &stiff,
            &[1.0, 0.0],
            10_000.0,
            &opts
        ));
    }

    #[test]
    fn a_call_takes_one_engine_for_all_its_horizons() {
        // Alone, t = 0.05 (Λt ≈ 0.15) resolves to uniformization and
        // t = 1000 (Λt ≈ 3060) to the exponential. Together they are one
        // dense chain: each answer is bitwise the call forced to it.
        let c = two_state();
        let pi0 = [1.0, 0.0];
        let (short, long) = (0.05, 1000.0);
        let opts = Options::default();
        assert_eq!(
            pair_method(&c, short, &opts).unwrap(),
            Method::Uniformization
        );
        assert_eq!(
            pair_method(&c, long, &opts).unwrap(),
            Method::MatrixExponential
        );
        let times = [short, long];
        let forced = Options {
            method: Method::MatrixExponential,
            ..Default::default()
        };
        let pairs = distribution_and_occupancy_at_times(&c, &pi0, &times, &opts).unwrap();
        let want = distribution_and_occupancy_at_times(&c, &pi0, &times, &forced).unwrap();
        assert_eq!(pairs, want);
        let pis = distribution_at_times(&c, &pi0, &times, &opts).unwrap();
        let want = distribution_at_times(&c, &pi0, &times, &forced).unwrap();
        assert_eq!(pis, want);
        // The short horizon's π differs from its own (uniformization)
        // solve by the engines' tolerances only.
        let alone = distribution(&c, &pi0, short, &opts).unwrap();
        assert_ne!(bits(&pis[0]), bits(&alone));
        assert!(vector::diff_norm_inf(&pis[0], &alone) < 1e-9);
    }

    #[test]
    fn distribution_at_times_runs_one_pass_for_all_its_horizons() {
        // Forced to uniformization, the π-only call feeds every horizon
        // from one power sequence: each answer is its one-horizon solve
        // bit for bit.
        let erlang = Ctmc::from_transitions(6, (0..5).map(|i| (i, i + 1, 1.7))).unwrap();
        let pi0 = erlang.point_distribution(0);
        let opts = Options {
            method: Method::Uniformization,
            ..Default::default()
        };
        let times = [2.5, 0.0, 0.5, 3.0, 1.25];
        let all = distribution_at_times(&erlang, &pi0, &times, &opts).unwrap();
        let pairs = distribution_and_occupancy_at_times(&erlang, &pi0, &times, &opts).unwrap();
        for ((&t, pi), (pair_pi, _)) in times.iter().zip(&all).zip(&pairs) {
            // One pass, one power sequence: the pair's π is the same sum.
            assert_eq!(bits(pi), bits(pair_pi), "t = {t}");
            let alone = distribution(&erlang, &pi0, t, &opts).unwrap();
            assert_eq!(bits(pi), bits(&alone), "t = {t}");
        }
        let one = distribution_at_times(&erlang, &pi0, &[3.0], &opts).unwrap();
        assert_eq!(
            bits(&one[0]),
            bits(&distribution(&erlang, &pi0, 3.0, &opts).unwrap())
        );
    }

    /// The engine `Auto` picks for a call's non-trivial horizons.
    fn auto_engine(shape: Shape, times: &[f64], want: Want) -> Method {
        let horizons: Vec<f64> = times.iter().copied().filter(|&t| t > 0.0).collect();
        select_method(shape, &horizons, want, &Options::default()).unwrap()
    }

    #[test]
    fn auto_selection_table() {
        use Method::{MatrixExponential as Dense, Uniformization as Uni};
        const PAIR: Want = Want { pi: true, l: true };
        const PI: Want = Want { pi: true, l: false };
        const CATALOG: &[f64] = &[0.0, 10.0, 20.0, 30.0, 40.0, 50.0];
        const WINDOWS: &[f64] = &[50.0, 40.0, 30.0, 20.0, 10.0, 0.0];
        const PAPER: &[f64] = &[0.0, 1000.0, 2500.0, 5000.0, 7500.0, 10000.0];
        const SHORT_WINDOW: &[f64] = &[0.0, 500.0, 1250.0, 2500.0, 3750.0, 5000.0];
        const FIG9: &[f64] = &[
            0.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0, 9000.0, 10000.0,
        ];
        // The tiny-φ probes of the telemetry tests, on the paper's RMGd.
        const TINY: &[f64] = &[0.0, 0.000_244_140_625, 0.000_488_281_25];
        // (what, states, generator entries, largest exit rate, multiply-adds
        // of an n × n product in topological order, horizons, outputs,
        // engine): the lumped chains the workloads solve, and the edges of
        // the model.
        type Row = (
            &'static str,
            usize,
            usize,
            f64,
            f64,
            &'static [f64],
            Want,
            Method,
        );
        #[rustfmt::skip]
        let table: &[Row] = &[
            ("aging-rejuvenation G-OP", 24, 105, 76.22, 3084.0, CATALOG, PAIR, Dense),
            ("degrading-coverage G-OP", 48, 257, 120.0000001, 20824.0, CATALOG, PAIR, Dense),
            ("det-checkpoint G-OP", 13, 41, 76.02, 485.0, CATALOG, PAIR, Dense),
            ("erlang-acceptance G-OP", 13, 41, 76.02, 485.0, CATALOG, PAIR, Dense),
            ("hyper-acceptance G-OP", 13, 41, 76.02, 485.0, CATALOG, PAIR, Dense),
            ("paper-baseline G-OP", 13, 41, 2280.0001, 485.0, PAPER, PAIR, Dense),
            ("paper-high-fault-rate G-OP", 13, 41, 2280.0004, 485.0, PAPER, PAIR, Dense),
            ("paper-low-coverage G-OP", 13, 41, 2280.0001, 485.0, PAPER, PAIR, Dense),
            ("paper-short-window G-OP", 13, 41, 2280.0001, 485.0, SHORT_WINDOW, PAIR, Dense),
            ("paper-slow-safeguards G-OP", 13, 41, 2280.0001, 485.0, PAPER, PAIR, Dense),
            ("small-exact G-OP", 13, 41, 76.02, 485.0, CATALOG, PAIR, Dense),
            ("three-escorts G-OP", 50, 264, 156.02, 24380.0, CATALOG, PAIR, Dense),
            ("two-escorts G-OP", 28, 124, 116.02, 4432.0, CATALOG, PAIR, Dense),
            ("upgrade-waves G-OP", 21, 83, 76.12, 1909.0, CATALOG, PAIR, Dense),
            ("three-escorts normal mode", 9, 25, 120.02, 165.0, WINDOWS, PI, Dense),
            ("small-exact normal mode", 5, 11, 40.02, 35.0, WINDOWS, PI, Dense),
            ("RMGd, fig9 grid", 13, 41, 2280.0001, 485.0, FIG9, PAIR, Dense),
            ("RMGd, tiny φ", 13, 41, 2280.0001, 485.0, TINY, PAIR, Uni),
            ("RMGd, φ = 2⁻¹¹", 13, 41, 2280.0001, 485.0, &[0.000_488_281_25], PAIR, Uni),
            ("three-escorts G-OP, Λt ≈ 160", 50, 264, 156.02, 24380.0, &[1.0], PAIR, Uni),
            ("three-escorts G-OP, Λt ≈ 480", 50, 264, 156.02, 24380.0, &[3.0], PI, Dense),
            ("2,000 states, past the dense limit", 2000, 10_000, 10.0, 8_000_000_000.0, &[100.0], PAIR, Uni),
        ];
        let got: Vec<_> = table
            .iter()
            .map(|&(what, states, entries, rate, madds, times, want, _)| {
                let shape = Shape {
                    states,
                    entries,
                    rate,
                    madds,
                };
                (what, auto_engine(shape, times, want))
            })
            .collect();
        let want: Vec<_> = table.iter().map(|row| (row.0, row.7)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fused_solve_rejects_what_the_separate_calls_reject() {
        let c = two_state();
        let opts = Options::default();
        assert!(distribution_and_occupancy(&c, &[0.5, 0.6], 1.0, &opts).is_err());
        assert!(distribution_and_occupancy(&c, &[1.0, 0.0], -1.0, &opts).is_err());
        let stiff = Ctmc::from_transitions(2, [(0, 1, 5000.0), (1, 0, 1000.0)]).unwrap();
        let forced = Options {
            method: Method::Uniformization,
            ..Default::default()
        };
        assert!(matches!(
            distribution_and_occupancy(&stiff, &[1.0, 0.0], 10_000.0, &forced),
            Err(MarkovError::LimitExceeded { .. })
        ));
    }

    #[test]
    fn absorbing_probability_is_monotone() {
        let c = Ctmc::from_transitions(2, [(0, 1, 0.3)]).unwrap();
        let mut last = 0.0;
        for &t in &[0.5, 1.0, 2.0, 4.0, 8.0] {
            let pi = distribution(&c, &[1.0, 0.0], t, &Options::default()).unwrap();
            assert!(pi[1] >= last);
            assert!((pi[1] - (1.0 - (-0.3 * t).exp())).abs() < 1e-9);
            last = pi[1];
        }
    }
}
