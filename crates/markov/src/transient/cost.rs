//! The prices `Method::Auto` weighs: one uniformization pass against one
//! dense chain, for the whole horizon set of a call.
//!
//! Both prices are estimated nanoseconds on the calibration host
//! (DESIGN.md §9, "Method selection", has the host, the runs and the fit).
//! They are constants, so the choice is a pure function of the chain's
//! [`Shape`], the horizons and the options: nothing is timed at run time,
//! and no host or thread count can move an engine.

use crate::{expm, fox_glynn, Ctmc};

/// Fixed cost of a uniformization pass: the uniformized matrix, the
/// Poisson windows and the work vectors.
const PASS_NS: f64 = 8_000.0;
/// Cost of one power step that does not grow with the chain: the loop, the
/// steady-state check and the horizon bookkeeping.
const STEP_NS: f64 = 70.0;
/// Cost of a power step per stored entry of `P` (taken as `nnz(Q) + n`).
const STEP_ENTRY_NS: f64 = 1.75;
/// Cost of one accumulation `acc += w·x` of an open horizon, per call and
/// per vector entry.
const AXPY_NS: f64 = 30.0;
const AXPY_ENTRY_NS: f64 = 0.25;
/// Fixed cost of one matrix exponential.
const EXPM_NS: f64 = 5_000.0;
/// Cost of one product of the exponential, per call and per structured
/// multiply-add (see [`expm::product_madds`]). A multiply-add of the
/// block-triangular kernel also pays for its row span's loop, so it is
/// priced above the bare dense one.
const PRODUCT_NS: f64 = 1_000.0;
const MADD_NS: f64 = 0.65;
/// Cost of one multiply-add of a vector–matrix product, which runs over
/// full rows at the bare dense price.
const VEC_MADD_NS: f64 = 0.25;

/// What the prices read of a chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Shape {
    /// States.
    pub states: usize,
    /// Stored entries of the generator.
    pub entries: usize,
    /// The largest exit rate.
    pub rate: f64,
    /// The multiply-adds of one `n × n` product in the chain's topological
    /// order (see [`expm::product_madds`]).
    pub madds: f64,
}

impl Shape {
    /// The shape of `ctmc`, whose strongly connected components have the
    /// sizes `blocks` in topological order.
    pub(super) fn of(ctmc: &Ctmc, blocks: &[usize]) -> Self {
        Shape {
            states: ctmc.n_states(),
            entries: ctmc.generator().nnz(),
            rate: ctmc.max_exit_rate(),
            madds: expm::product_madds(blocks) as f64,
        }
    }
}

/// The outputs a call wants at each horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Want {
    /// `π(t)`.
    pub pi: bool,
    /// `L(t)`.
    pub l: bool,
}

impl Want {
    fn outputs(self) -> f64 {
        f64::from(u8::from(self.pi) + u8::from(self.l))
    }
}

/// One uniformization pass that serves every horizon of `times`: the
/// power steps up to the largest right truncation point, plus the
/// accumulations of every output while its horizon's window is open.
pub(super) fn uniformization(
    shape: Shape,
    lambda: f64,
    times: &[f64],
    want: Want,
    epsilon: f64,
) -> f64 {
    let n = shape.states as f64;
    let t_max = times.iter().copied().fold(0.0, f64::max);
    let steps = lambda * t_max + fox_glynn::half_width(lambda * t_max, epsilon) as f64;
    let open: f64 = times
        .iter()
        .map(|&t| 2.0 * fox_glynn::half_width(lambda * t, epsilon) as f64)
        .sum();
    PASS_NS
        + steps * (STEP_NS + STEP_ENTRY_NS * (shape.entries as f64 + n))
        + open * want.outputs() * (AXPY_NS + AXPY_ENTRY_NS * n)
}

/// One dense chain along `times`: an exponential per run of equal gaps,
/// as the chain computes them (the `n × 2n` slab when `L` is wanted, else
/// `n × n`, both block upper triangular in the chain's topological order),
/// plus the vector–matrix products of every horizon.
pub(super) fn exponential(shape: Shape, times: &[f64], want: Want) -> f64 {
    let n = shape.states as f64;
    let halves = if want.l { 2.0 } else { 1.0 };
    let product = PRODUCT_NS + MADD_NS * shape.madds * halves;
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut price = 0.0;
    let mut now = 0.0;
    let mut last_gap = None;
    for t in sorted {
        let gap = t - now;
        if gap > 0.0 && last_gap != Some(gap) {
            // The block's norm: ‖QΔ‖∞ = 2·(largest exit rate)·Δ, plus the
            // identity's 1 on the integral block.
            let norm = 2.0 * shape.rate * gap + if want.l { 1.0 } else { 0.0 };
            let products = expm::squarings(norm) + expm::PADE_PRODUCTS;
            price += EXPM_NS + f64::from(products) * product;
            last_gap = Some(gap);
        }
        now = t;
    }
    let products_per_horizon = if want.l { 2.0 } else { 1.0 };
    price + times.len() as f64 * products_per_horizon * VEC_MADD_NS * n * n
}
