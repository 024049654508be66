//! The scenario abstract syntax: parameterized GSU families.
//!
//! A [`ScenarioSpec`] is the parsed form of a `.gsu` file. It embeds the
//! paper's basic parameters ([`GsuParams`]) and the generalizations the
//! catalog exercises: multiple escorted processes, staged upgrade waves,
//! marking-dependent (degrading) acceptance-test coverage, aging /
//! rejuvenation of escort processes, and non-exponential safeguard
//! durations expanded through [`markov::phase_type::PhaseType`].

pub use performability::gsu::{AgingSpec, WaveSpec};
use performability::GsuParams;

/// Upper bound on escorted processes — keeps the generalized state spaces
/// comfortably small for exact transient solution.
pub const MAX_ESCORTS: usize = 4;
/// Upper bound on upgrade waves.
pub const MAX_WAVES: usize = 8;
/// Upper bound on Erlang / deterministic-approximation stages.
pub const MAX_STAGES: usize = 16;
/// Upper bound on hyperexponential branches.
pub const MAX_BRANCHES: usize = 4;

/// A duration distribution for a safeguard activity, compiled to a
/// phase-type representation for the overhead model.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Exponential with the given rate (the paper's assumption).
    Exp {
        /// Completion rate (1/hour).
        rate: f64,
    },
    /// Erlang with `k` stages of the given per-stage rate (mean `k/rate`).
    Erlang {
        /// Number of stages.
        k: usize,
        /// Per-stage rate.
        rate: f64,
    },
    /// Hyperexponential mixture of `(weight, rate)` branches.
    Hyper {
        /// `(weight, rate)` pairs; weights must sum to 1.
        branches: Vec<(f64, f64)>,
    },
    /// Deterministic duration approximated by an Erlang with the given
    /// number of stages (mean preserved, variance `mean²/stages`).
    Det {
        /// The deterministic duration being approximated.
        mean: f64,
        /// Erlang stages of the approximation.
        stages: usize,
    },
}

impl Dist {
    /// The mean duration.
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Exp { rate } => 1.0 / rate,
            Dist::Erlang { k, rate } => *k as f64 / rate,
            Dist::Hyper { branches } => branches.iter().map(|(w, r)| w / r).sum(),
            Dist::Det { mean, .. } => *mean,
        }
    }

    /// The equivalent completion rate `1/mean` (exact for exponentials).
    pub fn mean_rate(&self) -> f64 {
        match self {
            Dist::Exp { rate } => *rate,
            other => 1.0 / other.mean(),
        }
    }

    /// `true` for a plain exponential (no phase expansion needed).
    pub fn is_exponential(&self) -> bool {
        matches!(self, Dist::Exp { .. })
    }

    /// Compiles the distribution to its phase-type representation via the
    /// [`markov::phase_type::PhaseType`] constructors.
    ///
    /// # Errors
    ///
    /// Propagates constructor validation failures (non-positive rates,
    /// weights not summing to one, …).
    pub fn to_phase_type(&self) -> Result<markov::phase_type::PhaseType, markov::MarkovError> {
        match self {
            Dist::Exp { rate } => markov::phase_type::PhaseType::exponential(*rate),
            Dist::Erlang { k, rate } => markov::phase_type::PhaseType::erlang(*k, *rate),
            Dist::Hyper { branches } => markov::phase_type::PhaseType::hyperexponential(branches),
            Dist::Det { mean, stages } => {
                markov::phase_type::PhaseType::deterministic_approx(*mean, *stages)
            }
        }
    }

    fn serialize(&self, out: &mut String) {
        match self {
            Dist::Exp { rate } => {
                out.push_str("exp ");
                out.push_str(&rate.to_string());
            }
            Dist::Erlang { k, rate } => {
                out.push_str(&format!("erlang {k} {rate}"));
            }
            Dist::Hyper { branches } => {
                out.push_str("hyper");
                for (w, r) in branches {
                    out.push_str(&format!(" {w} {r}"));
                }
            }
            Dist::Det { mean, stages } => {
                out.push_str(&format!("det {mean} {stages}"));
            }
        }
    }
}

/// One fully parsed scenario: the paper's parameters plus the catalog's
/// generalizations and the evaluation/simulation settings.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (the catalog key; `[A-Za-z0-9._-]+`).
    pub name: String,
    /// The basic GSU parameters; `alpha`/`beta` are derived from the mean
    /// of [`ScenarioSpec::at`] / [`ScenarioSpec::ckpt`].
    pub params: GsuParams,
    /// Acceptance-test duration distribution.
    pub at: Dist,
    /// Checkpoint-establishment duration distribution.
    pub ckpt: Dist,
    /// Number of escorted processes (the paper's model has one: `P2`).
    pub escorts: usize,
    /// Staged upgrade waves, when more than one reliability level exists.
    pub waves: Option<WaveSpec>,
    /// Coverage lost per additional contaminated process beyond the sender
    /// (marking-dependent coverage), in `[0, 1]`.
    pub coverage_decay: f64,
    /// Escort aging/rejuvenation, when modelled.
    pub aging: Option<AgingSpec>,
    /// The φ grid of the golden curve (ascending, within `[0, θ]`).
    pub phi_grid: Vec<f64>,
    /// Monte-Carlo replications for cross-validation.
    pub sim_replications: usize,
    /// Base seed for cross-validation runs.
    pub sim_seed: u64,
}

impl ScenarioSpec {
    /// `true` when the scenario is exactly the paper's model shape (one
    /// escort, one wave, constant coverage, exponential safeguards, no
    /// aging) — such scenarios can be cross-validated against the dedicated
    /// MDCD simulator in addition to SAN-level simulation.
    pub fn is_paper_shaped(&self) -> bool {
        self.escorts == 1
            && self.waves.is_none()
            && self.coverage_decay == 0.0
            && self.aging.is_none()
            && self.at.is_exponential()
            && self.ckpt.is_exponential()
    }

    /// Expected number of discrete events per exact-simulation trajectory —
    /// used to pick the cross-validation backend.
    pub fn events_per_trajectory(&self) -> f64 {
        let horizon = self.phi_grid.last().copied().unwrap_or(self.params.theta);
        self.params.lambda * horizon * (self.escorts as f64 + 1.0)
    }

    /// Serializes the scenario to canonical DSL text; parsing the result
    /// yields an identical spec (the round-trip property tests assert
    /// this).
    pub fn to_dsl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario \"{}\"\n", self.name));
        let p = &self.params;
        out.push_str(&format!("theta {}\n", p.theta));
        out.push_str(&format!("lambda {}\n", p.lambda));
        out.push_str(&format!("mu_new {}\n", p.mu_new));
        out.push_str(&format!("mu_old {}\n", p.mu_old));
        out.push_str(&format!("coverage {}\n", p.coverage));
        out.push_str(&format!("p_ext {}\n", p.p_ext));
        out.push_str("at ");
        self.at.serialize(&mut out);
        out.push('\n');
        out.push_str("ckpt ");
        self.ckpt.serialize(&mut out);
        out.push('\n');
        if self.escorts != 1 {
            out.push_str(&format!("escorts {}\n", self.escorts));
        }
        if let Some(w) = &self.waves {
            out.push_str(&format!("waves {} {} {}\n", w.count, w.rate, w.factor));
        }
        if self.coverage_decay != 0.0 {
            out.push_str(&format!("coverage_decay {}\n", self.coverage_decay));
        }
        if let Some(a) = &self.aging {
            match a.rejuvenation {
                Some(r) => {
                    out.push_str(&format!("aging {} {} rejuvenate {}\n", a.rate, a.factor, r))
                }
                None => out.push_str(&format!("aging {} {}\n", a.rate, a.factor)),
            }
        }
        out.push_str("phi_grid");
        for phi in &self.phi_grid {
            out.push_str(&format!(" {phi}"));
        }
        out.push('\n');
        out.push_str(&format!("sim_reps {}\n", self.sim_replications));
        out.push_str(&format!("sim_seed {}\n", self.sim_seed));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_means() {
        assert_eq!(Dist::Exp { rate: 6000.0 }.mean_rate(), 6000.0);
        assert_eq!(Dist::Erlang { k: 3, rate: 6.0 }.mean(), 0.5);
        let h = Dist::Hyper {
            branches: vec![(0.5, 1.0), (0.5, 2.0)],
        };
        assert!((h.mean() - 0.75).abs() < 1e-12);
        assert_eq!(
            Dist::Det {
                mean: 0.25,
                stages: 8
            }
            .mean(),
            0.25
        );
    }

    #[test]
    fn wave_rate_floors_at_mu_old() {
        let w = WaveSpec {
            count: 4,
            rate: 0.1,
            factor: 0.1,
        };
        assert_eq!(w.mu_at(0, 1e-2, 1e-8), 1e-2);
        assert!((w.mu_at(2, 1e-2, 1e-8) - 1e-4).abs() < 1e-18);
        assert_eq!(w.mu_at(3, 1e-4, 1e-6), 1e-6);
    }
}
