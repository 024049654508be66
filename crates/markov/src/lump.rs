//! Ordinary lumping: the smallest chain that answers a measure exactly.
//!
//! A measure that reads a state only through an observation — a label per
//! state, such as which reward sets it belongs to — needs only the class
//! sums of `π(t)` and `L(t)` over the observation's classes. When a
//! partition of the states refines the observation and is **ordinarily
//! lumpable** — every state of a block has the same summed rate into each
//! other block — the aggregated process is itself a CTMC, the *quotient*:
//! its block probabilities at every `t` are exactly the full chain's block
//! sums, for any initial distribution aggregated the same way. So every
//! class sum, and every rate reward constant on blocks, comes off the
//! quotient unchanged.
//!
//! [`Lumping::coarsest`] finds the coarsest such partition by signature
//! refinement (Derisavi, Hermanns & Sanders, "Optimal state-space lumping
//! in Markov chains", IPL 2003, with the naive splitter): starting from the
//! observation's classes, each round gives every state the signature of
//! its summed rates into every other block and splits each block by
//! signature, until a round splits nothing.
//!
//! Rates are compared to a fixed relative tolerance, [`RATE_REL_TOL`], not
//! bit for bit: exchangeable states of a generated model reach their rates
//! through different orders of vanishing-marking elimination and differ in
//! their last bits. A state's sums are taken over its rates in sorted order,
//! so they do not depend on how the states are numbered. Agreement within a
//! tolerance is not transitive, so a round keeps two states of a block
//! together when a chain of pairwise-agreeing states of that block links
//! them: the connected components of the agreement relation. That split
//! depends only on the set partition, never on state numbers, so the final
//! partition does not either. It is the coarsest one up to
//! [`RATE_REL_TOL`]: agreement survives merging blocks, so no round splits
//! a block of any partition whose blocks are all linked this way.
//!
//! The quotient takes each block's rates from its lowest-index state; a
//! member differs from it by at most [`RATE_REL_TOL`] per link of the chain
//! that joins them. Block ids are assigned in order of each block's
//! lowest-index state, never a hash order, so the result is a pure function
//! of the chain and the observation, and lumping a quotient again returns
//! it unchanged.

use crate::{Ctmc, MarkovError, Result};

/// Two summed rates belong to the same signature when they agree to this
/// relative tolerance: `|a − b| ≤ RATE_REL_TOL · max(|a|, |b|)`.
pub const RATE_REL_TOL: f64 = 1e-12;

/// The coarsest ordinarily lumpable partition of a chain that refines an
/// observation, with its quotient chain.
#[derive(Debug, Clone)]
pub struct Lumping {
    /// The block of every state of the full chain.
    block_of: Vec<usize>,
    /// The quotient: one state per block.
    quotient: Ctmc,
    /// Refinement rounds run, the final (stable) one included.
    rounds: usize,
}

/// The signatures of one refinement round, stored flat: state `s` owns
/// `entries[start[s]..start[s + 1]]`, its `(block, summed rate)` pairs into
/// every other block, ascending by block.
struct Signatures {
    entries: Vec<(usize, f64)>,
    start: Vec<usize>,
}

impl Signatures {
    fn compute(ctmc: &Ctmc, block_of: &[usize]) -> Self {
        let n = ctmc.n_states();
        let mut entries = Vec::with_capacity(ctmc.generator().nnz());
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        for (s, &own) in block_of.iter().enumerate() {
            let first = entries.len();
            entries.extend(
                ctmc.generator()
                    .row(s)
                    .filter(|&(t, _)| block_of[t] != own)
                    .map(|(t, rate)| (block_of[t], rate)),
            );
            let run = &mut entries[first..];
            run.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            // Fold each block's rates, in sorted order, into its first entry.
            let mut kept = first;
            for i in first..entries.len() {
                if kept > first && entries[kept - 1].0 == entries[i].0 {
                    entries[kept - 1].1 += entries[i].1;
                } else {
                    entries[kept] = entries[i];
                    kept += 1;
                }
            }
            entries.truncate(kept);
            start.push(kept);
        }
        Signatures { entries, start }
    }

    fn of(&self, s: usize) -> &[(usize, f64)] {
        &self.entries[self.start[s]..self.start[s + 1]]
    }

    /// Same target blocks, and every summed rate within [`RATE_REL_TOL`].
    fn agree(&self, a: usize, b: usize) -> bool {
        let (a, b) = (self.of(a), self.of(b));
        a.len() == b.len()
            && a.iter().zip(b).all(|(&(ba, ra), &(bb, rb))| {
                ba == bb && (ra - rb).abs() <= RATE_REL_TOL * ra.abs().max(rb.abs())
            })
    }
}

impl Lumping {
    /// The coarsest ordinarily lumpable partition of `ctmc` that refines
    /// `observation` (one label per state; states with equal labels start
    /// in one block), and its quotient.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidModel`] when `observation` does not
    /// have one label per state.
    pub fn coarsest(ctmc: &Ctmc, observation: &[u64]) -> Result<Self> {
        let n = ctmc.n_states();
        if observation.len() != n {
            return Err(MarkovError::InvalidModel {
                context: format!(
                    "observation has {} labels for {n} states",
                    observation.len()
                ),
            });
        }
        let mut span = telemetry::span("markov.lump");
        span.record("states", n);
        let mut labels = observation.to_vec();
        labels.sort_unstable();
        labels.dedup();
        let (mut block_of, mut n_blocks) = number_by_first_state(
            observation
                .iter()
                .map(|label| labels.partition_point(|l| l < label)),
            labels.len(),
        );
        let mut rounds = 0;
        let signatures = loop {
            rounds += 1;
            let signatures = Signatures::compute(ctmc, &block_of);
            let (next, count) = split(&block_of, &signatures);
            if count == n_blocks {
                break signatures;
            }
            block_of = next;
            n_blocks = count;
        };
        // Each block's rates from its lowest-index state, which the stable
        // round just linked every member to.
        let mut seen = vec![false; n_blocks];
        let mut transitions = Vec::new();
        for (s, &b) in block_of.iter().enumerate() {
            if !std::mem::replace(&mut seen[b], true) {
                transitions.extend(signatures.of(s).iter().map(|&(c, rate)| (b, c, rate)));
            }
        }
        let quotient = Ctmc::from_transitions(n_blocks, transitions)?;
        span.record("blocks", n_blocks);
        span.record("rounds", rounds);
        Ok(Lumping {
            block_of,
            quotient,
            rounds,
        })
    }

    /// The block of every state of the full chain.
    pub fn block_of(&self) -> &[usize] {
        &self.block_of
    }

    /// The number of blocks: the quotient's state count.
    pub fn n_blocks(&self) -> usize {
        self.quotient.n_states()
    }

    /// The quotient chain, one state per block.
    pub fn quotient(&self) -> &Ctmc {
        &self.quotient
    }

    /// Refinement rounds run, the final stable one included.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The block sums of a vector over the full chain's states — the
    /// quotient's initial distribution, when `v` is the full chain's.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not have one entry per state of the full chain.
    pub fn aggregate(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.block_of.len(), "Lumping::aggregate: length");
        let mut out = vec![0.0; self.n_blocks()];
        for (&b, &x) in self.block_of.iter().zip(v) {
            out[b] += x;
        }
        out
    }

    /// The blocks holding any of `states`, ascending and deduplicated.
    pub fn blocks_of(&self, states: &[usize]) -> Vec<usize> {
        let mut blocks: Vec<usize> = states.iter().map(|&s| self.block_of[s]).collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }
}

/// Renumbers provisional ids (each below `bound`) in order of their first
/// state; returns the new id of every state and the id count.
fn number_by_first_state(ids: impl Iterator<Item = usize>, bound: usize) -> (Vec<usize>, usize) {
    let mut renumbered = vec![usize::MAX; bound];
    let mut count = 0;
    let block_of = ids
        .map(|id| {
            if renumbered[id] == usize::MAX {
                renumbered[id] = count;
                count += 1;
            }
            renumbered[id]
        })
        .collect();
    (block_of, count)
}

/// One refinement round: splits every block into the connected components
/// of signature agreement, numbered by their lowest-index state.
fn split(block_of: &[usize], signatures: &Signatures) -> (Vec<usize>, usize) {
    let n = block_of.len();
    // Rates are non-negative, so signatures that agree entry by entry have
    // totals within RATE_REL_TOL·(a + b) of each other; sorting each block
    // by total bounds the pairs worth comparing. The window is twice that,
    // to absorb the rounding of the totals themselves.
    let totals: Vec<f64> = (0..n)
        .map(|s| signatures.of(s).iter().map(|&(_, rate)| rate).sum())
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        (block_of[a].cmp(&block_of[b]))
            .then(totals[a].total_cmp(&totals[b]))
            .then(a.cmp(&b))
    });
    // Union–find whose root is always the component's lowest-index state.
    let mut root: Vec<usize> = (0..n).collect();
    for (i, &a) in order.iter().enumerate() {
        for &b in &order[i + 1..] {
            if block_of[b] != block_of[a]
                || totals[b] - totals[a] > 2.0 * RATE_REL_TOL * (totals[a] + totals[b])
            {
                break;
            }
            if signatures.agree(a, b) {
                let (ra, rb) = (find(&mut root, a), find(&mut root, b));
                root[ra.max(rb)] = ra.min(rb);
            }
        }
    }
    number_by_first_state((0..n).map(|s| find(&mut root, s)), n)
}

/// The root of `s` in a union–find forest, halving the path on the way.
fn find(root: &mut [usize], mut s: usize) -> usize {
    while root[s] != s {
        root[s] = root[root[s]];
        s = root[s];
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchangeable_copies_collapse() {
        // 0 → {1, 2} at 1 each; 1, 2 → 3 at 2 each: 1 and 2 are
        // exchangeable once observed alike.
        let c = Ctmc::from_transitions(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 2.0), (2, 3, 2.0)])
            .unwrap();
        let l = Lumping::coarsest(&c, &[0, 0, 0, 1]).unwrap();
        assert_eq!(l.block_of(), &[0, 1, 1, 2]);
        let q = l.quotient();
        assert_eq!(q.generator().get(0, 1), 2.0);
        assert_eq!(q.generator().get(1, 2), 2.0);
        assert_eq!(l.aggregate(&[0.1, 0.2, 0.3, 0.4]), vec![0.1, 0.5, 0.4]);
        assert_eq!(l.blocks_of(&[3, 2, 1]), vec![1, 2]);
    }

    #[test]
    fn unequal_rates_split_the_block() {
        let c = Ctmc::from_transitions(3, [(0, 2, 1.0), (1, 2, 1.5)]).unwrap();
        let l = Lumping::coarsest(&c, &[7, 7, 9]).unwrap();
        assert_eq!(l.n_blocks(), 3);
        assert_eq!(l.rounds(), 2);
    }

    #[test]
    fn last_bit_differences_are_one_rate() {
        let rate = 0.1 + 0.2;
        let c = Ctmc::from_transitions(3, [(0, 2, 0.3), (1, 2, rate)]).unwrap();
        assert_ne!(rate, 0.3);
        let l = Lumping::coarsest(&c, &[0, 0, 1]).unwrap();
        assert_eq!(l.block_of(), &[0, 0, 1]);
        // The block's rate is its lowest-index state's.
        assert_eq!(l.quotient().generator().get(0, 1), 0.3);
    }

    #[test]
    fn drifting_rates_form_one_block_under_any_numbering() {
        // a ~ b and b ~ c within RATE_REL_TOL, but not a ~ c: the chain
        // b links them, whichever of them is numbered first.
        let r = 1.0;
        let rates = [r, r * (1.0 + 0.9e-12), r * (1.0 + 1.8e-12)];
        let tol = |x: f64, y: f64| (x - y).abs() <= RATE_REL_TOL * x.max(y);
        assert!(tol(rates[0], rates[1]) && tol(rates[1], rates[2]));
        assert!(!tol(rates[0], rates[2]));
        for order in [[0, 1, 2], [0, 2, 1], [2, 0, 1], [1, 2, 0]] {
            // States 0–2 carry the rates in `order`; state 3 is the target.
            let c =
                Ctmc::from_transitions(4, order.iter().enumerate().map(|(s, &k)| (s, 3, rates[k])))
                    .unwrap();
            let l = Lumping::coarsest(&c, &[0, 0, 0, 1]).unwrap();
            assert_eq!(l.block_of(), &[0, 0, 0, 1], "order {order:?}");
            assert_eq!(l.quotient().generator().get(0, 1), rates[order[0]]);
        }
    }

    #[test]
    fn observation_length_is_checked() {
        let c = Ctmc::from_transitions(2, [(0, 1, 1.0)]).unwrap();
        assert!(Lumping::coarsest(&c, &[0]).is_err());
    }
}
