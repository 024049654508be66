//! Discrete-event simulation of SAN models.
//!
//! UltraSAN shipped a simulator next to its analytic solvers, for models too
//! large to generate and as an independent check on reward solutions. This
//! module plays that role: it executes any [`SanModel`]
//! trajectory-by-trajectory — timed activities race with exponential
//! samples, instantaneous activities resolve by priority and weight — and
//! estimates the same reward variables the analytic layer solves, without
//! ever generating the state space.
//!
//! The estimator intentionally shares **no code** with the reachability /
//! CTMC path, so agreement between the two is a meaningful end-to-end test
//! (see `estimate_instant_reward` tests and the workspace integration
//! suite). It ignores replica groups
//! ([`SanModel::add_replica_group`]) and fires the full net, so on a model
//! that declares them it also checks the generated symmetric quotient.

use crate::model::ActivityKind;
use crate::semantics;
use crate::{Marking, Result, RewardSpec, SanError, SanModel};

/// A deterministic pseudo-random source for SAN simulation (SplitMix64 —
/// kept dependency-free because this crate otherwise needs no RNG).
#[derive(Debug, Clone)]
pub struct SanRng {
    state: u64,
}

impl SanRng {
    /// Creates a generator from a seed.
    pub fn from_seed(seed: u64) -> Self {
        SanRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential draw with the given rate (∞ for rate 0).
    pub fn exp(&mut self, rate: f64) -> f64 {
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Index drawn from normalized weights.
    fn pick(&mut self, weights: &[(usize, f64)]) -> usize {
        let u = self.uniform();
        let mut acc = 0.0;
        for &(idx, w) in weights {
            acc += w;
            if u < acc {
                return idx;
            }
        }
        weights.last().map(|&(idx, _)| idx).unwrap_or(0)
    }
}

/// Execution limits for a simulated trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOptions {
    /// Hard cap on fired events per trajectory (guards against immortal
    /// models).
    pub max_events: usize,
    /// Cap on consecutive instantaneous firings (vanishing-loop guard,
    /// mirroring the analytic generator).
    pub max_vanishing_depth: usize,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        SimulationOptions {
            max_events: 10_000_000,
            max_vanishing_depth: 128,
        }
    }
}

/// One simulated trajectory's summary against a reward spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Marking at the end of the horizon.
    pub final_marking: Marking,
    /// Rate reward accumulated over `[0, horizon]`.
    pub accumulated_reward: f64,
    /// Rate reward value at the horizon instant.
    pub final_rate: f64,
    /// Number of timed firings.
    pub timed_events: usize,
}

/// Simulates one trajectory over `[0, horizon]`, accumulating the spec's
/// rate reward along the way.
///
/// # Errors
///
/// * [`SanError::VanishingLoop`] when instantaneous activities cycle.
/// * [`SanError::InvalidFunction`] on invalid rates/probabilities.
/// * [`SanError::StateSpaceLimit`] when `max_events` is exceeded (reusing
///   the limit error to mean "simulation budget exhausted").
pub fn simulate_trajectory(
    model: &SanModel,
    spec: &RewardSpec,
    horizon: f64,
    opts: &SimulationOptions,
    rng: &mut SanRng,
) -> Result<Trajectory> {
    let mut marking = model.initial_marking();
    let mut t = 0.0;
    let mut accumulated = 0.0;
    let mut events = 0usize;

    // Resolve any initial vanishing state.
    resolve_instantaneous(model, &mut marking, opts, rng)?;

    let (mut enabled, mut cases) = (Vec::new(), Vec::new());
    loop {
        semantics::enabled_timed(model, &marking, &mut enabled)?;
        let total_rate: f64 = enabled.iter().map(|&(_, r)| r).sum();
        let dwell = rng.exp(total_rate);
        let rate_now = spec.rate_of(&marking);

        if t + dwell >= horizon || enabled.is_empty() {
            accumulated += rate_now * (horizon - t);
            return Ok(Trajectory {
                final_rate: rate_now,
                final_marking: marking,
                accumulated_reward: accumulated,
                timed_events: events,
            });
        }
        accumulated += rate_now * dwell;
        t += dwell;
        events += 1;
        if events > opts.max_events {
            return Err(SanError::StateSpaceLimit {
                limit: opts.max_events,
            });
        }

        // Select the firing activity proportionally to its rate.
        let weighted: Vec<(usize, f64)> = enabled
            .iter()
            .enumerate()
            .map(|(k, &(_, r))| (k, r / total_rate))
            .collect();
        let (act, _) = enabled[rng.pick(&weighted)];

        // Select a case and fire.
        semantics::case_distribution(model, act, &marking, &mut cases)?;
        let case = cases[rng.pick(
            &cases
                .iter()
                .enumerate()
                .map(|(k, &(_, p))| (k, p))
                .collect::<Vec<_>>(),
        )]
        .0;
        marking = semantics::fire(model, act, case, &marking)?;
        resolve_instantaneous(model, &mut marking, opts, rng)?;
    }
}

fn resolve_instantaneous(
    model: &SanModel,
    marking: &mut Marking,
    opts: &SimulationOptions,
    rng: &mut SanRng,
) -> Result<()> {
    for _ in 0..opts.max_vanishing_depth {
        let enabled = semantics::enabled_instantaneous(model, marking)?;
        if enabled.is_empty() {
            return Ok(());
        }
        let weighted: Vec<(usize, f64)> = enabled
            .iter()
            .enumerate()
            .map(|(k, &(_, p))| (k, p))
            .collect();
        let (act, _) = enabled[rng.pick(&weighted)];
        let mut cases = Vec::new();
        semantics::case_distribution(model, act, marking, &mut cases)?;
        let case = cases[rng.pick(
            &cases
                .iter()
                .enumerate()
                .map(|(k, &(_, p))| (k, p))
                .collect::<Vec<_>>(),
        )]
        .0;
        *marking = semantics::fire(model, act, case, marking)?;
    }
    // Exhausted the depth: find a name for the error.
    let name = model
        .activity_ids()
        .map(|id| model.activity(id))
        .find(|a| matches!(a.kind, ActivityKind::Instantaneous { .. }))
        .map(|a| a.name.clone())
        .unwrap_or_else(|| "<unknown>".to_string());
    Err(SanError::VanishingLoop {
        depth: opts.max_vanishing_depth,
        activity: name,
    })
}

/// Monte-Carlo estimate of an expected reward variable by simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimEstimate {
    /// Sample mean.
    pub mean: f64,
    /// 95% confidence half-width (normal approximation).
    pub half_width_95: f64,
    /// Replications used.
    pub replications: usize,
}

/// Estimates the expected **instant-of-time** rate reward at `t` from
/// `replications` independent trajectories.
///
/// # Errors
///
/// Propagates trajectory failures.
pub fn estimate_instant_reward(
    model: &SanModel,
    spec: &RewardSpec,
    t: f64,
    replications: usize,
    seed: u64,
    opts: &SimulationOptions,
) -> Result<SimEstimate> {
    estimate(model, spec, t, replications, seed, opts, |tr| tr.final_rate)
}

/// Estimates the expected **accumulated** rate reward over `[0, t]`.
///
/// # Errors
///
/// Propagates trajectory failures.
pub fn estimate_accumulated_reward(
    model: &SanModel,
    spec: &RewardSpec,
    t: f64,
    replications: usize,
    seed: u64,
    opts: &SimulationOptions,
) -> Result<SimEstimate> {
    estimate(model, spec, t, replications, seed, opts, |tr| {
        tr.accumulated_reward
    })
}

fn estimate<F: Fn(&Trajectory) -> f64>(
    model: &SanModel,
    spec: &RewardSpec,
    t: f64,
    replications: usize,
    seed: u64,
    opts: &SimulationOptions,
    extract: F,
) -> Result<SimEstimate> {
    let n = replications.max(1);
    let mut sum = 0.0;
    let mut sq = 0.0;
    for i in 0..n {
        let mut rng = SanRng::from_seed(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
        let tr = simulate_trajectory(model, spec, t, opts, &mut rng)?;
        let v = extract(&tr);
        sum += v;
        sq += v * v;
    }
    let mean = sum / n as f64;
    let var = (sq / n as f64 - mean * mean).max(0.0);
    Ok(SimEstimate {
        mean,
        half_width_95: 1.96 * (var / n as f64).sqrt(),
        replications: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activity, Analyzer, Case};

    fn up_down() -> (SanModel, crate::PlaceId) {
        let mut m = SanModel::new("updown");
        let up = m.add_place("up", 1);
        m.add_activity(Activity::timed("fail", 0.5).with_input_arc(up, 1))
            .unwrap();
        m.add_activity(
            Activity::timed("repair", 1.5)
                .with_enabling(move |mk| mk.tokens(up) == 0)
                .with_output_arc(up, 1),
        )
        .unwrap();
        (m, up)
    }

    #[test]
    fn trajectory_is_deterministic_per_seed() {
        let (m, up) = up_down();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let mut a = SanRng::from_seed(3);
        let mut b = SanRng::from_seed(3);
        let ta = simulate_trajectory(&m, &spec, 10.0, &Default::default(), &mut a).unwrap();
        let tb = simulate_trajectory(&m, &spec, 10.0, &Default::default(), &mut b).unwrap();
        assert_eq!(ta, tb);
    }

    #[test]
    fn simulated_availability_matches_analytic() {
        let (m, up) = up_down();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let t = 2.0;
        let analytic = Analyzer::generate(&m, &Default::default())
            .unwrap()
            .instant_reward(&spec, t)
            .unwrap();
        let spec2 = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let est = estimate_instant_reward(&m, &spec2, t, 4000, 7, &Default::default()).unwrap();
        assert!(
            (est.mean - analytic).abs() < est.half_width_95.max(0.03),
            "simulated {} ± {} vs analytic {analytic}",
            est.mean,
            est.half_width_95
        );
    }

    #[test]
    fn simulated_accumulated_matches_analytic() {
        let (m, up) = up_down();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let t = 5.0;
        let analytic = Analyzer::generate(&m, &Default::default())
            .unwrap()
            .accumulated_reward(&spec, t)
            .unwrap();
        let spec2 = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let est =
            estimate_accumulated_reward(&m, &spec2, t, 4000, 11, &Default::default()).unwrap();
        assert!(
            (est.mean - analytic).abs() < 2.0 * est.half_width_95.max(0.02),
            "simulated {} ± {} vs analytic {analytic}",
            est.mean,
            est.half_width_95
        );
    }

    #[test]
    fn absorbing_model_stops_quietly() {
        // After absorption no activity is enabled; the trajectory coasts to
        // the horizon.
        let mut m = SanModel::new("absorbing");
        let p = m.add_place("p", 1);
        m.add_activity(Activity::timed("die", 10.0).with_input_arc(p, 1))
            .unwrap();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(p) == 0, 1.0);
        let mut rng = SanRng::from_seed(1);
        let tr = simulate_trajectory(&m, &spec, 100.0, &Default::default(), &mut rng).unwrap();
        assert_eq!(tr.final_marking.tokens(p), 0);
        assert!(tr.accumulated_reward > 90.0);
        assert_eq!(tr.timed_events, 1);
    }

    #[test]
    fn cases_split_by_probability() {
        // Branch with 0.3/0.7 cases; over many trajectories the terminal
        // markings should split accordingly.
        let mut m = SanModel::new("branch");
        let src = m.add_place("src", 1);
        let a = m.add_place("a", 0);
        let b = m.add_place("b", 0);
        m.add_activity(
            Activity::timed("go", 100.0)
                .with_input_arc(src, 1)
                .with_case(Case::with_probability(0.3).with_output_arc(a, 1))
                .with_case(Case::with_probability(0.7).with_output_arc(b, 1)),
        )
        .unwrap();
        let spec = RewardSpec::new();
        let mut hits_a = 0;
        let n = 3000;
        for seed in 0..n {
            let mut rng = SanRng::from_seed(seed);
            let tr = simulate_trajectory(&m, &spec, 1.0, &Default::default(), &mut rng).unwrap();
            if tr.final_marking.tokens(a) == 1 {
                hits_a += 1;
            }
        }
        let frac = hits_a as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "case split {frac}");
    }

    #[test]
    fn instantaneous_activities_resolve_during_simulation() {
        let mut m = SanModel::new("vanish");
        let p = m.add_place("p", 1);
        let mid = m.add_place("mid", 0);
        let done = m.add_place("done", 0);
        m.add_activity(
            Activity::timed("slow", 5.0)
                .with_input_arc(p, 1)
                .with_output_arc(mid, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::instantaneous("fast")
                .with_input_arc(mid, 1)
                .with_output_arc(done, 1),
        )
        .unwrap();
        let spec = RewardSpec::new();
        let mut rng = SanRng::from_seed(9);
        let tr = simulate_trajectory(&m, &spec, 50.0, &Default::default(), &mut rng).unwrap();
        assert_eq!(tr.final_marking.tokens(mid), 0);
        assert_eq!(tr.final_marking.tokens(done), 1);
    }

    #[test]
    fn vanishing_loop_detected_in_simulation() {
        let mut m = SanModel::new("loop");
        let p = m.add_place("p", 1);
        let q = m.add_place("q", 0);
        m.add_activity(
            Activity::instantaneous("pq")
                .with_input_arc(p, 1)
                .with_output_arc(q, 1),
        )
        .unwrap();
        m.add_activity(
            Activity::instantaneous("qp")
                .with_input_arc(q, 1)
                .with_output_arc(p, 1),
        )
        .unwrap();
        let spec = RewardSpec::new();
        let mut rng = SanRng::from_seed(2);
        assert!(matches!(
            simulate_trajectory(&m, &spec, 1.0, &Default::default(), &mut rng),
            Err(SanError::VanishingLoop { .. })
        ));
    }

    #[test]
    fn event_budget_enforced() {
        let (m, up) = up_down();
        let spec = RewardSpec::new().rate_when(move |mk| mk.tokens(up) == 1, 1.0);
        let opts = SimulationOptions {
            max_events: 5,
            ..Default::default()
        };
        let mut rng = SanRng::from_seed(4);
        assert!(matches!(
            simulate_trajectory(&m, &spec, 1e9, &opts, &mut rng),
            Err(SanError::StateSpaceLimit { limit: 5 })
        ));
    }
}
