//! The experiment table behind `gsu-bench run <name>|all`.
//!
//! Each [`Experiment`] regenerates one table, figure, or study of the
//! paper's evaluation (see `DESIGN.md` §6 for the index). The runner shares
//! the plumbing once: the banner, the telemetry session, and the output
//! directory, under which every file an experiment writes lands. No
//! experiment records timings: the repository benchmark (`gsu-benchmark`,
//! workload `figures`) runs the fig9–fig12 sweeps and the tornado and gates
//! their work counters.

use std::error::Error;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use mdcd_sim::distribution::compare_guarded_unguarded;
use mdcd_sim::{estimate_y, estimate_y_matched, EngineKind, MonteCarlo, SimConfig};
use performability::gsu::{rmgd, rmgp, rmnd};
use performability::report::{markdown, ReportOptions};
use performability::sensitivity::{local_sensitivity, tornado_table};
use performability::{GammaPolicy, GsuAnalysis, GsuParams};
use san::{dot, Analyzer, RewardSpec, StateSpace};

use crate::{ascii_chart, curve_table, write_csv, Curve, TelemetrySession};

/// Outcome of one experiment.
pub type ExperimentResult = Result<(), Box<dyn Error>>;

/// Settings shared by every experiment of one `gsu-bench run`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunContext {
    /// φ grid intervals for fig9–fig12 (`--steps N`; default 10, the θ/10
    /// spacing of the paper's figures).
    pub steps: usize,
    /// Directory every output file is written under (`--out DIR`; default
    /// `results`).
    pub out_dir: PathBuf,
}

impl Default for RunContext {
    fn default() -> Self {
        RunContext {
            steps: 10,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl RunContext {
    fn write_curves(&self, file: &str, curves: &[Curve]) -> ExperimentResult {
        let path = self.out_dir.join(file);
        write_csv(&path, curves)?;
        println!("\nwrote {}", path.display());
        Ok(())
    }

    fn write_file(&self, file: &str, body: &str) -> Result<PathBuf, std::io::Error> {
        let path = self.out_dir.join(file);
        std::fs::write(&path, body)?;
        Ok(path)
    }
}

/// One entry of the experiment table.
#[derive(Debug)]
pub struct Experiment {
    /// Name on the command line (`gsu-bench run fig9`).
    pub name: &'static str,
    /// Banner line printed before the run.
    pub title: &'static str,
    /// The experiment itself.
    pub run: fn(&RunContext) -> ExperimentResult,
}

/// Every experiment, in the order `gsu-bench run all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table3",
        title: "Table 3: Parameter value assignment (times in hours)",
        run: table3,
    },
    Experiment {
        name: "table1",
        title: "Table 1: Constituent measures and SAN reward structures in RMGd",
        run: table1,
    },
    Experiment {
        name: "table2",
        title: "Table 2: Constituent measures and SAN reward structures in RMGp",
        run: table2,
    },
    Experiment {
        name: "fig9",
        title: "Figure 9: Effect of fault-manifestation rate on optimal G-OP duration (θ=10000)",
        run: fig9,
    },
    Experiment {
        name: "fig10",
        title: "Figure 10: Effect of performance overhead on optimal G-OP duration (θ=10000)",
        run: fig10,
    },
    Experiment {
        name: "fig11",
        title: "Figure 11: Effect of AT coverage on optimal G-OP duration (θ=10000)",
        run: fig11,
    },
    Experiment {
        name: "fig12",
        title: "Figure 12: Effect of fault-manifestation rate on optimal G-OP duration (θ=5000)",
        run: fig12,
    },
    Experiment {
        name: "lowcov",
        title: "§6 low-coverage study: Guarded operation under very low AT coverage \
                (θ=10000, α=β=2500)",
        run: lowcov,
    },
    Experiment {
        name: "ablation_tau",
        title: "ablation: ∫τh censoring & γ policy: Table-1 reward structure vs exact \
                first-passage moments (θ=10000)",
        run: ablation_tau,
    },
    Experiment {
        name: "tornado",
        title: "Sensitivity tornado: Elasticity of Y at the optimal φ, ±10% parameter \
                perturbations",
        run: tornado,
    },
    Experiment {
        name: "export_dot",
        title: "Model export: GSU SAN models (Figs. 6-8) and state spaces as Graphviz DOT",
        run: export_dot,
    },
    Experiment {
        name: "worth_distribution",
        title: "Worth distribution: Empirical distribution of W_φ at φ = 7000 vs unguarded \
                (10000 reps)",
        run: worth_distribution,
    },
    Experiment {
        name: "report",
        title: "Analysis report: Full markdown report for the Table 3 baseline",
        run: report,
    },
    Experiment {
        name: "validate_sim",
        title: "Simulation validation: Analytic translation pipeline vs MDCD discrete-event \
                simulation",
        run: validate_sim,
    },
];

/// Looks up an experiment by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Runs `experiments` in order under one telemetry session, continuing past
/// failures, and returns the names of the experiments that failed (each
/// failure is reported on stderr as it happens).
///
/// # Errors
///
/// Returns the error when the output directory cannot be created.
pub fn run(
    experiments: &[&Experiment],
    ctx: &RunContext,
) -> Result<Vec<&'static str>, std::io::Error> {
    std::fs::create_dir_all(&ctx.out_dir)?;
    let _telemetry = TelemetrySession::new(&ctx.out_dir);
    let mut failed = Vec::new();
    for (i, experiment) in experiments.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("==============================================================");
        println!("{}", experiment.title);
        println!("==============================================================");
        if let Err(e) = (experiment.run)(ctx) {
            eprintln!("{}: {e}", experiment.name);
            failed.push(experiment.name);
        }
    }
    Ok(failed)
}

/// Sweeps `entries` on the figure grid, prints the table, chart and optima,
/// and writes the curves to `csv`.
fn figure(
    ctx: &RunContext,
    csv: &str,
    entries: &[(&str, &GsuAnalysis)],
    paper: &str,
) -> ExperimentResult {
    let curves = Curve::sweep_many(entries, ctx.steps)?;
    println!("{}", curve_table(&curves));
    println!("{}", ascii_chart(&curves, 18));
    for c in &curves {
        let b = c.best().expect("swept curve is non-empty");
        println!("{}: optimal φ = {} with Y = {:.4}", c.label, b.phi, b.y);
    }
    println!("(paper: {paper})");
    ctx.write_curves(csv, &curves)
}

fn table3(_: &RunContext) -> ExperimentResult {
    let p = GsuParams::paper_baseline();
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>6} {:>6} {:>8} {:>8}",
        "θ", "λ", "µnew", "µold", "c", "pext", "α", "β"
    );
    println!(
        "{:>8} {:>8} {:>10.0e} {:>10.0e} {:>6} {:>6} {:>8} {:>8}",
        p.theta, p.lambda, p.mu_new, p.mu_old, p.coverage, p.p_ext, p.alpha, p.beta
    );
    println!();
    println!("Interpretation:");
    println!(
        "  λ = {} per hour  => one message every {:.1} s per process",
        p.lambda,
        3600.0 / p.lambda
    );
    println!(
        "  α = β = {} per hour => AT / checkpoint completion in {:.0} ms",
        p.alpha,
        3.6e6 / p.alpha
    );
    println!(
        "  µnew = {:.0e} per hour => mean time to fault manifestation {:.0} h",
        p.mu_new,
        1.0 / p.mu_new
    );
    Ok(())
}

fn table1(_: &RunContext) -> ExperimentResult {
    let params = GsuParams::paper_baseline();
    let model = rmgd::build(&params)?;
    let analyzer = Analyzer::generate(&model.model, &Default::default())?;
    let p = model.places.gop;

    println!(
        "RMGd state space: {} tangible states\n",
        analyzer.state_space().n_states()
    );
    println!(
        "{:<24} {:<34} {:<46} {:>12}",
        "Measure", "Reward type", "Predicate-rate pair", "value@φ=7000"
    );
    println!("{}", "-".repeat(120));

    let phi = 7000.0;

    let i_h = analyzer.probability_at(phi, |mk| p.in_a3(mk))?;
    println!(
        "{:<24} {:<34} {:<46} {:>12.6}",
        "∫₀^φ h(τ)dτ", "instant-of-time at φ", "MARK(detected)==1 && MARK(failure)==0 -> 1", i_h
    );

    let spec = RewardSpec::new()
        .rate_when(move |mk| p.in_a2(mk), 1.0)
        .rate_when(move |mk| p.in_a4(mk), -1.0);
    let i_tau_h = analyzer.accumulated_reward(&spec, phi)?;
    println!(
        "{:<24} {:<34} {:<46} {:>12.4}",
        "∫₀^φ τh(τ)dτ",
        "accumulated over [0, φ]",
        "MARK(detected)==0 -> 1 ; ... && failure==1 -> -1",
        i_tau_h
    );

    let i_hf = analyzer.probability_at(phi, |mk| p.detected_then_failed(mk))?;
    println!(
        "{:<24} {:<34} {:<46} {:>12.4e}",
        "∫₀^φ∫_τ^φ h·f dx dτ",
        "instant-of-time at φ",
        "MARK(detected)==1 && MARK(failure)==1 -> 1",
        i_hf
    );

    let a1 = analyzer.probability_at(phi, |mk| p.in_a1(mk))?;
    println!(
        "{:<24} {:<34} {:<46} {:>12.6}",
        "P(X'_φ ∈ A'1)", "instant-of-time at φ", "MARK(detected)==0 && MARK(failure)==0 -> 1", a1
    );

    println!("\nFull constituent-measure vector through the pipeline at φ = 7000:");
    let analysis = GsuAnalysis::new(params)?;
    println!("{}", analysis.measures(phi)?);
    Ok(())
}

fn table2(_: &RunContext) -> ExperimentResult {
    println!(
        "{:<10} {:<30} Predicate-rate pair",
        "Measure", "Reward type"
    );
    println!("{}", "-".repeat(110));
    println!(
        "{:<10} {:<30} MARK(P1nExt)==1 -> 1",
        "1 − ρ1", "steady-state instant-of-time"
    );
    println!(
        "{:<10} {:<30} (MARK(P1nInt)==1 && MARK(P2DB)==0) || (MARK(P2Ext)==1 && MARK(P2DB)==1) -> 1",
        "1 − ρ2", "steady-state instant-of-time"
    );

    println!("\nSolved values (paper reports ρ1/ρ2 = 0.98/0.95 and 0.95/0.90):");
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "α", "β", "1-ρ1", "1-ρ2", "ρ1", "ρ2"
    );
    for (alpha, beta) in [(6000.0, 6000.0), (2500.0, 2500.0)] {
        let params = GsuParams::paper_baseline().with_overhead_rates(alpha, beta)?;
        let (rho1, rho2) = rmgp::solve_rho(&params)?;
        println!(
            "{alpha:>8} {beta:>8} {:>10.5} {:>10.5} {:>8.4} {:>8.4}",
            1.0 - rho1,
            1.0 - rho2,
            rho1,
            rho2
        );
    }
    Ok(())
}

fn fig9(ctx: &RunContext) -> ExperimentResult {
    let base = GsuParams::paper_baseline();
    let fast = GsuAnalysis::new(base)?;
    let slow = GsuAnalysis::new(base.with_mu_new(5e-5)?)?;
    figure(
        ctx,
        "fig9.csv",
        &[("µnew = 0.0001", &fast), ("µnew = 0.00005", &slow)],
        "7000 / 5000",
    )
}

fn fig10(ctx: &RunContext) -> ExperimentResult {
    let base = GsuParams::paper_baseline();
    let fast = GsuAnalysis::new(base)?;
    let slow = GsuAnalysis::new(base.with_overhead_rates(2500.0, 2500.0)?)?;
    println!(
        "computed overhead fractions: α=β=6000 ⇒ ρ = {:.4}/{:.4};  α=β=2500 ⇒ ρ = {:.4}/{:.4}",
        fast.rho().0,
        fast.rho().1,
        slow.rho().0,
        slow.rho().1
    );
    figure(
        ctx,
        "fig10.csv",
        &[
            ("ρ1=0.98, ρ2=0.95 (α=β=6000)", &fast),
            ("ρ1=0.95, ρ2=0.90 (α=β=2500)", &slow),
        ],
        "7000 / 6000",
    )
}

fn fig11(ctx: &RunContext) -> ExperimentResult {
    let base = GsuParams::paper_baseline().with_overhead_rates(2500.0, 2500.0)?;
    let mut analyses = Vec::new();
    for c in [0.95, 0.75, 0.50] {
        analyses.push((
            format!("c = {c:.2}"),
            GsuAnalysis::new(base.with_coverage(c)?)?,
        ));
    }
    let entries: Vec<(&str, &GsuAnalysis)> = analyses
        .iter()
        .map(|(label, analysis)| (label.as_str(), analysis))
        .collect();
    figure(
        ctx,
        "fig11.csv",
        &entries,
        "optimum stays at 6000 for all three; max Y ≈ 1.45 → ≈1.15",
    )
}

fn fig12(ctx: &RunContext) -> ExperimentResult {
    let base = GsuParams::paper_baseline().with_theta(5000.0)?;
    let fast = GsuAnalysis::new(base)?;
    let slow = GsuAnalysis::new(base.with_mu_new(5e-5)?)?;
    figure(
        ctx,
        "fig12.csv",
        &[("µnew = 0.0001", &fast), ("µnew = 0.00005", &slow)],
        "2500 / 2000",
    )
}

fn lowcov(ctx: &RunContext) -> ExperimentResult {
    let base = GsuParams::paper_baseline().with_overhead_rates(2500.0, 2500.0)?;
    let mut curves = Vec::new();
    for c in [0.20, 0.10] {
        let analysis = GsuAnalysis::new(base.with_coverage(c)?)?;
        curves.push(Curve::sweep(format!("c = {c:.2}"), &analysis, 20)?);
    }
    println!("{}", curve_table(&curves));

    let b20 = curves[0].best().expect("swept curve is non-empty");
    println!(
        "c = 0.20: max Y = {:.4} at φ = {} (paper: ≈1.06 at 4000 — benefit insignificant)",
        b20.y, b20.phi
    );
    let c10 = &curves[1];
    let b10 = c10.best().expect("swept curve is non-empty");
    let decreasing_tail = c10
        .points
        .windows(2)
        .filter(|w| w[0].phi >= b10.phi)
        .all(|w| w[1].y <= w[0].y + 1e-9);
    let below_one_late = c10
        .points
        .iter()
        .filter(|p| p.phi >= 4000.0)
        .all(|p| p.y < 1.0);
    println!(
        "c = 0.10: max Y = {:.4}; Y < 1 for φ ≥ 4000: {}; decreasing past the max: {}",
        b10.y, below_one_late, decreasing_tail
    );
    println!("(paper: Y < 1 and decreasing — G-OP not worthwhile at c = 0.10)");
    ctx.write_curves("lowcov.csv", &curves)
}

fn ablation_tau(_: &RunContext) -> ExperimentResult {
    let params = GsuParams::paper_baseline();
    let paper = GsuAnalysis::new(params)?;
    let exact =
        GsuAnalysis::new(params)?.with_gamma_policy(GammaPolicy::ExactMeanDetectionFraction);

    println!(
        "{:>8} {:>14} {:>14} {:>10} | {:>10} {:>10} {:>12}",
        "phi", "∫τh (Table1)", "E[τ·1{τ≤φ}]", "excess", "Y paper-γ", "Y exact-γ", "Y sim γ/path"
    );
    for phi in [1000.0, 3000.0, 5000.0, 7000.0, 9000.0, 10_000.0] {
        let m = paper.measures(phi)?;
        let y_paper = paper.evaluate(phi)?.y;
        let y_exact = exact.evaluate(phi)?.y;
        let y_path = estimate_y(params, phi, 3000, 31)?.y;
        println!(
            "{phi:>8} {:>14.1} {:>14.1} {:>10.1} | {y_paper:>10.4} {y_exact:>10.4} {y_path:>12.4}",
            m.i_tau_h,
            m.i_tau_h_exact,
            m.tau_censoring_excess(),
        );
    }

    let best_paper = Curve::sweep("paper", &paper, 20)?;
    let best_exact = Curve::sweep("exact", &exact, 20)?;
    let bp = best_paper.best().expect("swept curve is non-empty");
    let be = best_exact.best().expect("swept curve is non-empty");
    println!(
        "\noptima: paper-γ at φ = {} (Y = {:.4}); exact-γ at φ = {} (Y = {:.4})",
        bp.phi, bp.y, be.phi, be.y
    );
    println!("(the paper's published optimum of 7000 emerges only under its own γ reading)");
    Ok(())
}

fn tornado(_: &RunContext) -> ExperimentResult {
    let params = GsuParams::paper_baseline();
    let best = GsuAnalysis::new(params)?.optimal_phi(10, 12)?;
    println!(
        "baseline optimum: φ* = {:.0}, Y = {:.4}\n",
        best.phi, best.y
    );

    let sens = local_sensitivity(params, best.phi, 0.10)?;
    println!("{}", tornado_table(&sens));

    println!("Reading: positive elasticity = increasing the parameter increases Y.");
    println!("The paper's §6 findings appear quantitatively: coverage c and the");
    println!("fault-manifestation rate µnew dominate; µold is irrelevant; the");
    println!("safeguard completion rates matter only through ρ1/ρ2.");
    Ok(())
}

fn export_dot(ctx: &RunContext) -> ExperimentResult {
    let params = GsuParams::paper_baseline();
    let rmgd = rmgd::build(&params)?;
    let rmgp = rmgp::build(&params)?;
    let rmnd = rmnd::build(&params, params.mu_new)?;

    for (name, model) in [
        ("rmgd", &rmgd.model),
        ("rmgp", &rmgp.model),
        ("rmnd", &rmnd.model),
    ] {
        let model_path = ctx.write_file(&format!("{name}_model.dot"), &dot::model_to_dot(model))?;
        let space = StateSpace::generate(model, &Default::default())?;
        let space_path = ctx.write_file(
            &format!("{name}_states.dot"),
            &dot::state_space_to_dot(&space),
        )?;
        println!(
            "{name}: {} places, {} activities, {} tangible states -> {}, {}",
            model.n_places(),
            model.n_activities(),
            space.n_states(),
            model_path.display(),
            space_path.display()
        );
    }
    println!(
        "\nrender with e.g.: dot -Tsvg {} -o rmgd.svg",
        ctx.out_dir.join("rmgd_model.dot").display()
    );
    Ok(())
}

fn worth_distribution(_: &RunContext) -> ExperimentResult {
    let params = GsuParams::paper_baseline();
    let (guarded, unguarded) = compare_guarded_unguarded(params, 7000.0, 10_000, 7)?;

    println!("unguarded (φ = 0):");
    println!("{}", unguarded.histogram(10));
    println!(
        "  P[W = 0] = {:.3}   median = {:.0}   mean = {:.0}",
        unguarded.zero_mass(),
        unguarded.quantile(0.5),
        unguarded.mean()
    );

    println!("\nguarded (φ = 7000):");
    println!("{}", guarded.histogram(10));
    println!(
        "  P[W = 0] = {:.3}   median = {:.0}   mean = {:.0}",
        guarded.zero_mass(),
        guarded.quantile(0.5),
        guarded.mean()
    );

    println!(
        "\n25th-percentile worth improves from {:.0} to {:.0}: the guard's value is",
        unguarded.quantile(0.25),
        guarded.quantile(0.25)
    );
    println!("exactly the removal of the catastrophic atom at zero, at a small cost");
    println!("to the best-case mass (safeguard overhead + γ discount).");
    Ok(())
}

fn report(ctx: &RunContext) -> ExperimentResult {
    let params = GsuParams::paper_baseline();
    let analysis = GsuAnalysis::new(params)?;
    let best = analysis.optimal_phi(10, 16)?;
    let sens = local_sensitivity(params, best.phi, 0.10)?;
    let sim = estimate_y(params, best.phi, 3000, 1234)?;

    let mut md = markdown(&analysis, &ReportOptions::default())?;

    let _ = writeln!(md, "\n## Sensitivity (±10%)\n");
    let _ = writeln!(md, "| parameter | base | Y(−) | Y(+) | elasticity |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    for s in &sens {
        let _ = writeln!(
            md,
            "| {} | {:.3e} | {:.4} | {:.4} | {:+.3} |",
            s.name, s.base_value, s.y_low, s.y_high, s.elasticity
        );
    }

    let _ = writeln!(md, "\n## Simulation cross-check\n");
    let _ = writeln!(
        md,
        "Monte-Carlo (hybrid engine, {} replications, per-path γ): \
         Y = {:.4} ± {:.4}; sample-path classes S1/S2/S3 = {:.3}/{:.3}/{:.3}.",
        sim.guarded.replications,
        sim.y,
        sim.half_width_95,
        sim.guarded.p_s1,
        sim.guarded.p_s2,
        sim.guarded.p_s3
    );

    let path = ctx.write_file("analysis_report.md", &md)?;
    println!("{md}");
    println!("wrote {}", path.display());
    Ok(())
}

fn validate_sim(_: &RunContext) -> ExperimentResult {
    // Part 1, mission scale. The paper applies γ = 1 − τ/θ as a constant,
    // with τ the Table-1 "mean time to error detection" measure; the
    // simulator's natural discount is per sample path, γ(τ) = 1 − τ_path/θ,
    // which yields a systematically higher Y (DESIGN.md). Under the
    // analytic convention the two pipelines agree.
    let params = GsuParams::paper_baseline();
    let analysis = GsuAnalysis::new(params)?;
    println!("Part 1 — paper baseline, analytic vs hybrid simulation (4000 reps):");
    println!(
        "{:>8} {:>11} {:>17} {:>10} {:>8} {:>14}",
        "phi", "Y analytic", "Y sim(γ=paper)", "95% ±", "agree?", "Y sim(γ/path)"
    );
    let phis = [2000.0, 4000.0, 6000.0, 8000.0, 10_000.0];
    let work_start = telemetry::work::snapshot();
    let start = Instant::now();
    let analytic = phis
        .iter()
        .map(|&phi| analysis.evaluate(phi))
        .collect::<Result<Vec<_>, _>>()?;
    let analytic_ms = start.elapsed().as_secs_f64() * 1e3;
    let work = telemetry::work::snapshot().delta_since(&work_start);
    let mut simulation_ms = 0.0;
    let mut worst: f64 = 0.0;
    for (&phi, a) in phis.iter().zip(&analytic) {
        let start = Instant::now();
        let s_paper = estimate_y_matched(params, phi, a.gamma, 4000, 42, EngineKind::Hybrid)?;
        let s_path = estimate_y(params, phi, 4000, 42)?;
        simulation_ms += start.elapsed().as_secs_f64() * 1e3;
        let gap = (a.y - s_paper.y).abs();
        worst = worst.max(gap / a.y);
        println!(
            "{phi:>8} {:>11.4} {:>17.4} {:>10.4} {:>8} {:>14.4}",
            a.y,
            s_paper.y,
            s_paper.half_width_95,
            if gap <= s_paper.half_width_95.max(0.04 * a.y) {
                "yes"
            } else {
                "no"
            },
            s_path.y,
        );
    }
    println!(
        "worst relative gap (paper-γ convention): {:.2}%",
        worst * 100.0
    );
    println!("(residual bias: the Table-1 ∫τh reward structure counts censored paths");
    println!(" at weight φ, a documented approximation the simulator does not share)");
    println!(
        "translation vs monolithic simulation: {} analytic evaluations {analytic_ms:.1} ms \
         ({} iterations, {} SpMV, {} expm) vs {} simulated estimates {simulation_ms:.0} ms",
        phis.len(),
        work.solver_iterations,
        work.spmv_ops,
        work.expm_solves,
        2 * phis.len(),
    );

    // Part 2, exact vs hybrid engine at scaled parameters.
    println!("\nPart 2 — scaled scenario (θ=50, λ=40): exact vs hybrid engine (3000 reps):");
    let small = GsuParams {
        theta: 50.0,
        lambda: 40.0,
        mu_new: 0.02,
        mu_old: 1e-7,
        coverage: 0.95,
        p_ext: 0.1,
        alpha: 200.0,
        beta: 200.0,
    };
    println!(
        "{:>8} {:>9} {:>22} {:>22}",
        "phi", "engine", "E[Wφ] (± 95%)", "P(S1)/P(S2)/P(S3)"
    );
    for phi in [15.0, 30.0, 45.0] {
        let cfg = SimConfig::new(small, phi)?;
        for (engine, name) in [(EngineKind::Exact, "exact"), (EngineKind::Hybrid, "hybrid")] {
            let s = MonteCarlo::new(cfg)
                .with_engine(engine)
                .with_replications(3000)
                .with_seed(7)
                .run();
            println!(
                "{phi:>8} {name:>9} {:>14.2} ± {:>5.2} {:>8.3}/{:.3}/{:.3}",
                s.mean_worth, s.worth_half_width_95, s.p_s1, s.p_s2, s.p_s3
            );
        }
    }
    println!("\n(The hybrid engine is the one used at mission scale, where the exact");
    println!(" engine would need ~2.4e7 events per replication.)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.name != e.name),
                "{}",
                e.name
            );
            assert_eq!(find(e.name).map(|f| f.name), Some(e.name));
        }
        assert!(find("all").is_none());
    }
}
