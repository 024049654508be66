//! The single-run discrete-event engine.

use crate::{SimConfig, SimRng};

/// Sample-path classification of §3.2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathClass {
    /// `S1`: no error through φ; the upgraded system serves the rest of the
    /// mission window successfully.
    S1,
    /// `S2`: an error was detected during guarded operation and the system
    /// safely downgraded; the recovered system survives to θ.
    S2,
    /// The worthless third category: failure at any point (undetected
    /// error, AT coverage miss, or post-recovery/post-upgrade failure).
    S3,
}

/// The result of one simulated mission window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Path classification.
    pub class: PathClass,
    /// Accrued mission worth `W_φ` per Eq. 4 (0 for `S3`).
    pub worth: f64,
    /// Detection time τ, when an error was detected.
    pub detection_time: Option<f64>,
    /// Failure time, when the system failed.
    pub failure_time: Option<f64>,
    /// Forward-progress time of the active first process within the guarded
    /// segment (the measured `ρ_{τ,1}·τ` of Eq. 4).
    pub progress_p1: f64,
    /// Forward-progress time of `P2` within the guarded segment.
    pub progress_p2: f64,
    /// Number of acceptance tests executed.
    pub at_count: u64,
    /// Number of checkpoints established.
    pub checkpoint_count: u64,
    /// Fraction of the guarded segment during which `P2` was considered
    /// potentially contaminated (dirty bit set) — used to calibrate the
    /// hybrid engine's episode initialization.
    pub p2_dirty_fraction: f64,
}

/// Index of the three processes.
// The paper names the processes P1new/P1old/P2; keep its vocabulary even
// though every variant shares the enum's `P` prefix.
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum P {
    P1New = 0,
    P1Old = 1,
    P2 = 2,
}

/// What a blocked process is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Acceptance test on the process's own external message.
    AcceptanceTest,
    /// Checkpoint establishment triggered by a message receipt.
    Checkpoint,
}

#[derive(Debug, Clone, Copy)]
struct ProcState {
    contaminated: bool,
    dirty: bool,
    /// Completion time and kind of the current blocking operation.
    block: Option<(f64, Block)>,
    /// When the block started (for progress accounting).
    block_start: f64,
    /// Next message emission time (meaningful while unblocked).
    next_msg: f64,
    /// Next fault manifestation.
    fault_time: f64,
    /// Accumulated blocking time, clipped to the guarded segment.
    blocked_total: f64,
}

impl ProcState {
    fn new() -> Self {
        ProcState {
            contaminated: false,
            dirty: false,
            block: None,
            block_start: 0.0,
            next_msg: f64::INFINITY,
            fault_time: f64::INFINITY,
            blocked_total: 0.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Guarded operation: P1new active under escort.
    Gop,
    /// Normal mode with the upgraded pair (P1new, P2) — after a successful φ.
    NormalUpgraded,
    /// Normal mode with the downgraded pair (P1old, P2) — after recovery.
    NormalRecovered,
}

/// Simulates one mission window `[0, θ]` and returns its outcome.
///
/// The engine advances a three-process state machine from event to event;
/// there are at most seven pending timestamps (per-process message, fault,
/// and block-completion timers plus the φ boundary), so a priority queue is
/// unnecessary.
pub fn simulate_run(config: &SimConfig, rng: &mut SimRng) -> RunOutcome {
    Engine::new(config, rng).run()
}

struct Engine<'a> {
    cfg: &'a SimConfig,
    rng: &'a mut SimRng,
    t: f64,
    mode: Mode,
    procs: [ProcState; 3],
    detection_time: Option<f64>,
    failure_time: Option<f64>,
    /// End of the guarded worth-measurement segment: min(φ, τ). Set when
    /// the segment closes.
    guarded_end: f64,
    at_count: u64,
    checkpoint_count: u64,
    /// When P2's dirty bit was last set (None while clear).
    p2_dirty_since: Option<f64>,
    /// Accumulated dirty time, clipped to the guarded segment.
    p2_dirty_total: f64,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a SimConfig, rng: &'a mut SimRng) -> Self {
        Engine {
            cfg,
            rng,
            t: 0.0,
            mode: Mode::Gop,
            procs: [ProcState::new(), ProcState::new(), ProcState::new()],
            detection_time: None,
            failure_time: None,
            guarded_end: cfg.phi,
            at_count: 0,
            checkpoint_count: 0,
            p2_dirty_since: None,
            p2_dirty_total: 0.0,
        }
    }

    /// Sets P2's dirty bit, accumulating its occupancy time (clipped to the
    /// guarded segment).
    fn set_p2_dirty(&mut self, value: bool) {
        let t = self.t;
        let seg = self.guarded_end;
        let was = self.procs[P::P2 as usize].dirty;
        if value && !was {
            self.p2_dirty_since = Some(t);
        } else if !value && was {
            if let Some(since) = self.p2_dirty_since.take() {
                self.p2_dirty_total += (t.min(seg) - since.min(seg)).max(0.0);
            }
        }
        self.p(P::P2).dirty = value;
    }

    fn p(&mut self, which: P) -> &mut ProcState {
        &mut self.procs[which as usize]
    }

    fn run(mut self) -> RunOutcome {
        let mut events: u64 = 0;
        let params = self.cfg.params;
        let theta = params.theta;
        let phi = self.cfg.phi;

        // Initial timers.
        self.p(P::P1New).fault_time = self.rng.exp(params.mu_new);
        self.p(P::P1Old).fault_time = self.rng.exp(params.mu_old);
        self.p(P::P2).fault_time = self.rng.exp(params.mu_old);
        self.p(P::P1New).next_msg = self.rng.exp(params.lambda);
        self.p(P::P2).next_msg = self.rng.exp(params.lambda);
        if phi == 0.0 {
            self.mode = Mode::NormalUpgraded;
            self.guarded_end = 0.0;
        }

        while self.failure_time.is_none() {
            // Collect candidate events.
            let mut next_time = theta;
            #[derive(Clone, Copy, PartialEq, Eq)]
            enum Ev {
                End,
                PhiBoundary,
                Fault(P),
                Message(P),
                BlockDone(P),
            }
            let mut next_ev = Ev::End;
            let consider = |time: f64, ev: Ev, next_time: &mut f64, next_ev: &mut Ev| {
                if time < *next_time {
                    *next_time = time;
                    *next_ev = ev;
                }
            };

            if self.mode == Mode::Gop {
                consider(phi, Ev::PhiBoundary, &mut next_time, &mut next_ev);
            }
            for which in [P::P1New, P::P1Old, P::P2] {
                let ps = self.procs[which as usize];
                consider(
                    ps.fault_time,
                    Ev::Fault(which),
                    &mut next_time,
                    &mut next_ev,
                );
                if let Some((done, _)) = ps.block {
                    consider(done, Ev::BlockDone(which), &mut next_time, &mut next_ev);
                } else if self.sends_messages(which) {
                    consider(
                        ps.next_msg,
                        Ev::Message(which),
                        &mut next_time,
                        &mut next_ev,
                    );
                }
            }

            self.t = next_time;
            events += 1;
            match next_ev {
                Ev::End => break,
                Ev::PhiBoundary => {
                    // Guarded operation concludes; the upgraded pair
                    // continues in normal mode with whatever latent state it
                    // has (the paper argues dormant contamination here is
                    // negligible; the simulator keeps it, which lets tests
                    // quantify that claim).
                    self.mode = Mode::NormalUpgraded;
                    self.guarded_end = phi;
                }
                Ev::Fault(which) => {
                    self.p(which).contaminated = true;
                    self.p(which).fault_time = f64::INFINITY;
                }
                Ev::Message(which) => self.handle_message(which),
                Ev::BlockDone(which) => self.handle_block_done(which),
            }
        }

        // Wall-clock reads stay out of this crate (the trajectory must be a
        // pure function of the seed); throughput is derivable from the
        // enclosing span's duration and these counters.
        if telemetry::enabled() {
            telemetry::counter("sim.engine.runs", 1);
            telemetry::counter("sim.engine.events", events);
            telemetry::observe("sim.engine.events_per_run", events as f64);
        }
        self.finish()
    }

    /// Whether a process emits messages in the current mode.
    fn sends_messages(&self, which: P) -> bool {
        match (self.mode, which) {
            // P1old's outputs are suppressed during G-OP and it is retired
            // after a successful upgrade.
            (Mode::Gop, P::P1Old) | (Mode::NormalUpgraded, P::P1Old) => false,
            // P1new is retired after recovery.
            (Mode::NormalRecovered, P::P1New) => false,
            _ => true,
        }
    }

    fn handle_message(&mut self, which: P) {
        let params = self.cfg.params;
        let external = self.rng.bernoulli(params.p_ext);
        let t = self.t;
        // Schedule the sender's next message now; a block will simply delay
        // its delivery past the completion.
        let gap = self.rng.exp(params.lambda);
        self.p(which).next_msg = t + gap;

        match self.mode {
            Mode::Gop => self.gop_message(which, external),
            Mode::NormalUpgraded | Mode::NormalRecovered => self.normal_message(which, external),
        }
    }

    fn gop_message(&mut self, which: P, external: bool) {
        let params = self.cfg.params;
        let t = self.t;
        match which {
            P::P1New => {
                if external {
                    // Always potentially contaminated => AT.
                    let d = self.rng.exp(params.alpha);
                    self.start_block(P::P1New, Block::AcceptanceTest, d);
                } else {
                    // Internal receipt by P2: actual propagation plus the
                    // confidence drop (dirty bit; checkpoint if P2 was
                    // believed clean and is free to take one).
                    if self.procs[P::P1New as usize].contaminated {
                        self.p(P::P2).contaminated = true;
                    }
                    let p2 = &self.procs[P::P2 as usize];
                    if !p2.dirty && p2.block.is_none() {
                        let d = self.rng.exp(params.beta);
                        self.start_block(P::P2, Block::Checkpoint, d);
                    }
                    self.set_p2_dirty(true);
                }
            }
            P::P2 => {
                if external {
                    if self.procs[P::P2 as usize].dirty {
                        let d = self.rng.exp(params.alpha);
                        self.start_block(P::P2, Block::AcceptanceTest, d);
                    } else if self.procs[P::P2 as usize].contaminated {
                        // Believed clean, actually contaminated, no AT: the
                        // erroneous message reaches the external world.
                        self.fail(t);
                    }
                } else {
                    // Internal receipt by P1new and the shadow P1old.
                    if self.procs[P::P2 as usize].contaminated {
                        self.p(P::P1New).contaminated = true;
                        self.p(P::P1Old).contaminated = true;
                    }
                    // P1old checkpoints on a confidence-lowering receipt.
                    if self.procs[P::P2 as usize].dirty {
                        let p1o = &mut self.procs[P::P1Old as usize];
                        if !p1o.dirty && p1o.block.is_none() {
                            let d = self.rng.exp(params.beta);
                            self.start_block(P::P1Old, Block::Checkpoint, d);
                        }
                        self.p(P::P1Old).dirty = true;
                    }
                }
            }
            P::P1Old => unreachable!("P1old does not send during G-OP"),
        }
    }

    fn normal_message(&mut self, which: P, external: bool) {
        let t = self.t;
        let peer = match which {
            P::P2 => match self.mode {
                Mode::NormalUpgraded => P::P1New,
                _ => P::P1Old,
            },
            other => {
                // `sends_messages` retires P1old after a successful upgrade
                // and P1new after a recovery; whichever first process is
                // still active talks to P2.
                debug_assert!(
                    !(other == P::P1Old && self.mode == Mode::NormalUpgraded),
                    "retired P1old sent a message"
                );
                debug_assert!(
                    !(other == P::P1New && self.mode == Mode::NormalRecovered),
                    "retired P1new sent a message"
                );
                P::P2
            }
        };
        if self.procs[which as usize].contaminated {
            if external {
                self.fail(t);
            } else {
                self.p(peer).contaminated = true;
            }
        }
    }

    fn start_block(&mut self, which: P, kind: Block, duration: f64) {
        let t = self.t;
        if kind == Block::AcceptanceTest {
            self.at_count += 1;
        } else {
            self.checkpoint_count += 1;
        }
        let ps = self.p(which);
        debug_assert!(ps.block.is_none(), "process already blocked");
        ps.block = Some((t + duration, kind));
        ps.block_start = t;
    }

    fn handle_block_done(&mut self, which: P) {
        let params = self.cfg.params;
        let t = self.t;
        let Some((_, kind)) = self.procs[which as usize].block else {
            unreachable!("block-done event fired for a process with no pending block");
        };
        // Account blocking time against the guarded worth segment, and
        // restart the process's message clock from the completion instant
        // (emissions queued behind the block would otherwise fire in the
        // past; the restart is equivalent by memorylessness).
        {
            let segment_end = self.guarded_end;
            let next_msg = t + self.rng.exp(params.lambda);
            let ps = self.p(which);
            let start = ps.block_start.min(segment_end);
            let end = t.min(segment_end);
            ps.blocked_total += (end - start).max(0.0);
            ps.block = None;
            ps.next_msg = next_msg;
        }

        match kind {
            Block::Checkpoint => {
                if which == P::P2 {
                    self.set_p2_dirty(true);
                } else {
                    self.p(which).dirty = true;
                }
            }
            Block::AcceptanceTest => {
                if self.procs[which as usize].contaminated {
                    if self.rng.bernoulli(params.coverage) {
                        self.detect(t);
                    } else {
                        self.fail(t);
                    }
                } else {
                    // Scenario 1/2 of the paper: the AT passes and the
                    // process (and its message lineage) is judged clean.
                    self.set_p2_dirty(false);
                }
            }
        }
    }

    /// Successful error detection: MDCD recovery rolls the system back to a
    /// validity-consistent global state and downgrades to (P1old, P2).
    fn detect(&mut self, t: f64) {
        debug_assert!(self.detection_time.is_none(), "detection happens once");
        // Only a manifested fault contaminates a process (directly, or by
        // propagation from one it contaminated), so a detection without a
        // contaminated process would be a detection without a prior fault.
        debug_assert!(
            self.procs.iter().any(|p| p.contaminated),
            "detection without a contaminated process"
        );
        self.detection_time = Some(t);
        self.guarded_end = self.guarded_end.min(t);
        self.mode = Mode::NormalRecovered;
        let params = self.cfg.params;
        // Interrupted safeguard operations are abandoned (account their
        // blocking up to τ).
        for which in [P::P1New, P::P1Old, P::P2] {
            let segment_end = self.guarded_end;
            let ps = self.p(which);
            if ps.block.is_some() {
                let start = ps.block_start.min(segment_end);
                ps.blocked_total += (t.min(segment_end) - start).max(0.0);
                ps.block = None;
            }
        }
        // Rollback restores validated states; latent bugs remain, so fresh
        // manifestation clocks are drawn for the surviving processes.
        self.p(P::P1Old).contaminated = false;
        self.p(P::P2).contaminated = false;
        self.p(P::P1Old).dirty = false;
        self.set_p2_dirty(false);
        self.p(P::P1Old).fault_time = t + self.rng.exp(params.mu_old);
        self.p(P::P2).fault_time = t + self.rng.exp(params.mu_old);
        self.p(P::P1Old).next_msg = t + self.rng.exp(params.lambda);
        self.p(P::P2).next_msg = t + self.rng.exp(params.lambda);
    }

    fn fail(&mut self, t: f64) {
        if self.failure_time.is_none() {
            self.failure_time = Some(t);
            self.guarded_end = self.guarded_end.min(t);
        }
    }

    fn finish(mut self) -> RunOutcome {
        let theta = self.cfg.params.theta;
        let seg = self.guarded_end;
        if let Some(since) = self.p2_dirty_since.take() {
            let end = self.t.max(seg);
            self.p2_dirty_total += (end.min(seg) - since.min(seg)).max(0.0);
        }

        // Residual blocking at the end of the measured segment.
        let blocked = |ps: &ProcState| -> f64 {
            let mut total = ps.blocked_total;
            if let Some((_, _)) = ps.block {
                let start = ps.block_start.min(seg);
                total += (seg - start).max(0.0);
            }
            total
        };
        let progress_p1 = (seg - blocked(&self.procs[P::P1New as usize])).max(0.0);
        let progress_p2 = (seg - blocked(&self.procs[P::P2 as usize])).max(0.0);

        let (class, worth) = if self.failure_time.is_some() {
            (PathClass::S3, 0.0)
        } else if let Some(tau) = self.detection_time {
            let gamma = self.cfg.gamma_for(tau);
            let w = gamma * (progress_p1 + progress_p2 + 2.0 * (theta - tau));
            (PathClass::S2, w)
        } else {
            let w = progress_p1 + progress_p2 + 2.0 * (theta - self.cfg.phi);
            (PathClass::S1, w)
        };

        RunOutcome {
            class,
            worth,
            detection_time: self.detection_time,
            failure_time: self.failure_time,
            progress_p1,
            progress_p2,
            at_count: self.at_count,
            checkpoint_count: self.checkpoint_count,
            p2_dirty_fraction: if seg > 0.0 {
                (self.p2_dirty_total / seg).clamp(0.0, 1.0)
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use performability::GsuParams;

    /// Scaled-down parameters: same structure as Table 3 (λ ≫ µ, α = β ≫ λ)
    /// but ~4000 message events per run instead of ~24 million, so the
    /// event-exact engine is testable in debug builds.
    fn small_params() -> GsuParams {
        GsuParams {
            theta: 50.0,
            lambda: 40.0,
            mu_new: 0.02,
            mu_old: 1e-7,
            coverage: 0.95,
            p_ext: 0.1,
            alpha: 200.0,
            beta: 200.0,
        }
    }

    fn run_one(params: GsuParams, phi: f64, seed: u64) -> RunOutcome {
        let cfg = SimConfig::new(params, phi).unwrap();
        let mut rng = SimRng::from_seed(seed);
        simulate_run(&cfg, &mut rng)
    }

    #[test]
    fn deterministic_given_seed() {
        let p = small_params();
        let a = run_one(p, 30.0, 123);
        let b = run_one(p, 30.0, 123);
        assert_eq!(a, b);
    }

    #[test]
    fn perfect_software_yields_s1_with_overhead_shaped_worth() {
        let mut p = small_params();
        p.mu_new = 1e-12;
        p.mu_old = 0.0;
        let phi = 30.0;
        let out = run_one(p, phi, 5);
        assert_eq!(out.class, PathClass::S1);
        assert!(out.failure_time.is_none());
        assert!(out.detection_time.is_none());
        // Worth = ρ1·φ + ρ2·φ + 2(θ−φ) < 2θ because overhead is still paid.
        assert!(out.worth < 2.0 * p.theta);
        assert!(out.worth > 0.95 * 2.0 * p.theta);
        assert!(out.at_count > 0);
        assert!(out.checkpoint_count > 0);
        assert!(out.p2_dirty_fraction > 0.5);
    }

    #[test]
    fn phi_zero_is_unguarded() {
        let p = small_params();
        let out = run_one(p, 0.0, 11);
        assert_eq!(out.at_count, 0);
        assert_eq!(out.checkpoint_count, 0);
        assert!(out.detection_time.is_none());
        match out.class {
            PathClass::S1 => assert_eq!(out.worth, 2.0 * p.theta),
            PathClass::S3 => assert_eq!(out.worth, 0.0),
            PathClass::S2 => panic!("cannot detect without guarded operation"),
        }
    }

    #[test]
    fn very_unreliable_software_mostly_detected_or_failed() {
        let mut p = small_params();
        p.mu_new = 2.0; // fault manifests almost immediately
        let mut s2 = 0;
        let mut s3 = 0;
        for seed in 0..200 {
            let out = run_one(p, 40.0, seed);
            match out.class {
                PathClass::S1 => panic!("fault should manifest: {out:?}"),
                PathClass::S2 => s2 += 1,
                PathClass::S3 => s3 += 1,
            }
        }
        // Coverage 0.95 per erroneous message, though a contaminated P2 can
        // slip; detection should still dominate.
        assert!(s2 > s3, "s2={s2} s3={s3}");
    }

    #[test]
    fn detection_implies_consistent_outcome() {
        let mut p = small_params();
        p.mu_new = 0.05;
        for seed in 0..200 {
            let out = run_one(p, 45.0, seed);
            if out.class == PathClass::S2 {
                let tau = out.detection_time.expect("S2 has a detection time");
                assert!(out.failure_time.is_none());
                assert!(tau < p.theta);
                assert!(out.worth <= 2.0 * p.theta);
            }
            if out.class == PathClass::S3 {
                assert!(out.failure_time.is_some());
                assert_eq!(out.worth, 0.0);
            }
            if out.class == PathClass::S1 {
                assert!(out.detection_time.is_none() && out.failure_time.is_none());
            }
        }
    }

    #[test]
    fn detection_is_preceded_by_a_fault() {
        // `Engine::detect` asserts (in debug builds, as here) that some
        // process is contaminated, which only a manifested fault causes.
        let mut p = small_params();
        p.mu_new = 0.05;
        let detections = (0..60)
            .filter(|&seed| run_one(p, 45.0, seed).detection_time.is_some())
            .count();
        assert!(detections > 0, "no run reached a detection");
    }

    #[test]
    fn progress_never_exceeds_segment() {
        let p = small_params();
        for seed in 0..100 {
            let out = run_one(p, 30.0, seed);
            let seg = out.detection_time.unwrap_or(30.0).min(30.0);
            assert!(out.progress_p1 <= seg + 1e-9);
            assert!(out.progress_p2 <= seg + 1e-9);
            assert!((0.0..=1.0).contains(&out.p2_dirty_fraction));
        }
    }

    #[test]
    fn overhead_counts_scale_with_phi() {
        let mut p = small_params();
        p.mu_new = 1e-12; // isolate the overhead process
        let short: u64 = (0..20).map(|s| run_one(p, 5.0, s).at_count).sum();
        let long: u64 = (0..20).map(|s| run_one(p, 40.0, s).at_count).sum();
        assert!(long > 4 * short, "short={short} long={long}");
    }

    #[test]
    fn measured_overhead_matches_renewal_formula() {
        let mut p = small_params();
        p.mu_new = 1e-12;
        p.mu_old = 0.0;
        let phi = 50.0;
        let mut progress = 0.0;
        for seed in 0..50 {
            progress += run_one(p, phi, seed).progress_p1;
        }
        let rho1 = progress / (50.0 * phi);
        let want = 1.0 - (p.p_ext / p.alpha) / (1.0 / p.lambda + p.p_ext / p.alpha);
        assert!((rho1 - want).abs() < 0.01, "{rho1} vs {want}");
    }

    #[test]
    fn gamma_none_increases_s2_worth() {
        let mut p = small_params();
        p.mu_new = 0.05;
        let cfg = SimConfig::new(p, 40.0).unwrap();
        for seed in 0..200 {
            let mut r1 = SimRng::from_seed(seed);
            let mut r2 = SimRng::from_seed(seed);
            let with = simulate_run(&cfg, &mut r1);
            let without = simulate_run(&cfg.with_gamma(crate::GammaMode::None), &mut r2);
            if with.class == PathClass::S2 {
                assert!(without.worth >= with.worth);
            }
        }
    }
}
