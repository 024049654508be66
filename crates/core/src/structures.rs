//! Caller-owned structure sessions: generate each model's structure once,
//! refresh its numbers per parameter set.
//!
//! A [`Structures`] session keeps the generator's tape ([`san::Derivation`])
//! of each model of a family member. A build through the session refreshes
//! a model's state space from its tape when the tape fits (the same shape
//! and zero pattern), and generates it cold otherwise. A refresh is bit for
//! bit the cold generation, so a session changes what a build costs, never
//! what it computes. Lumping and the ρ solve are redone on every build.
//!
//! The caller owns the session and its lifetime: there is no process-wide
//! memo, so a cold build stays a cold build unless its caller opts in.

use san::{Derivation, SanModel, StateSpace};

/// The models of a family member a session keeps a tape for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// `RMGp`, the overhead model.
    Overhead,
    /// `RMGd`, the G-OP dependability model.
    Gop,
    /// `RMNd`, the normal-mode model (at µ_new and at µ_old).
    Normal,
}

/// A caller-owned structure session: at most one generator tape per model
/// of a family member — `RMGp`, `RMGd` and `RMNd` — from which later builds
/// with other parameters refresh their state spaces.
///
/// # Example
///
/// ```
/// use performability::gsu::Family;
/// use performability::{GsuAnalysis, GsuParams, Structures};
///
/// # fn main() -> Result<(), performability::PerfError> {
/// let mut structures = Structures::new();
/// let base = GsuParams::paper_baseline();
/// // The first build generates every model; the next refreshes from its
/// // tapes and computes exactly what a cold build does.
/// GsuAnalysis::from_family_with(base, &Family::paper(&base)?, &mut structures)?;
/// let slow = base.with_mu_new(5e-5)?;
/// let refreshed = GsuAnalysis::from_family_with(slow, &Family::paper(&slow)?, &mut structures)?;
/// let cold = GsuAnalysis::new(slow)?;
/// assert_eq!(refreshed.evaluate(7000.0)?.y.to_bits(), cold.evaluate(7000.0)?.y.to_bits());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Structures {
    tapes: [Option<Derivation>; 3],
}

impl Structures {
    /// An empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// The state space of `model`: refreshed from the slot's tape when it
    /// fits, else generated cold, keeping the new tape in the slot.
    fn record(&mut self, slot: Slot, model: &SanModel) -> san::Result<StateSpace> {
        if let Some(space) = self.refresh(slot, model) {
            return Ok(space);
        }
        let (space, tape) = StateSpace::generate_recorded(model, &Default::default())?;
        self.tapes[slot as usize] = Some(tape);
        Ok(space)
    }

    /// The state space of `model`: refreshed from the slot's tape when it
    /// fits, else generated cold; the session is left as it is.
    fn read(&self, slot: Slot, model: &SanModel) -> san::Result<StateSpace> {
        match self.refresh(slot, model) {
            Some(space) => Ok(space),
            None => StateSpace::generate(model, &Default::default()),
        }
    }

    fn refresh(&self, slot: Slot, model: &SanModel) -> Option<StateSpace> {
        self.tapes[slot as usize].as_ref()?.refresh(model)
    }
}

/// How one build uses a session.
pub(crate) enum Session<'a> {
    /// Keep the tape of every cold generation.
    Record(&'a mut Structures),
    /// Refresh from the tapes already there; change nothing (a session
    /// shared across threads).
    Read(&'a Structures),
}

impl Session<'_> {
    /// The state space of `model`, the session's model in `slot`.
    pub(crate) fn space(&mut self, slot: Slot, model: &SanModel) -> san::Result<StateSpace> {
        match self {
            Session::Record(structures) => structures.record(slot, model),
            Session::Read(structures) => structures.read(slot, model),
        }
    }
}
