//! The in-process workloads: `figures` (the paper's Figures 9–12 plus the
//! sensitivity tornado) and `catalog` (all `.gsu` scenarios).
//!
//! Both run one pass after another on a 1-thread pool (two threads
//! measured no faster on the 2-CPU reference box) and check every pass
//! against committed results. The untraced passes give the end-to-end
//! numbers; with tracing on, ten more passes run under a collector, each
//! wrapped in `bench.*` spans around the benchmark's own calls into a
//! layer, followed by a layer probe that lowers, generates and
//! steady-solves every model of the pass outside the pass itself.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

use gsu_bench::profile::{build_profile, SpanEvent};
use gsu_bench::Curve;
use gsu_scenario::{GoldenCurve, ScenarioAnalysis, ScenarioSpec};
use mdcd_sim::SimRng;
use performability::gsu::{rmgd, rmgp, rmnd};
use performability::sensitivity::local_sensitivity;
use performability::{GsuAnalysis, GsuParams, SweepPoint};
use san::{SanModel, StateSpace};
use telemetry::work::WorkSnapshot;
use telemetry::{Collector, FinishedSpan};

use crate::stats::{check_close, end_to_end, median, memory_mib, quantile, Metric, Outcome};
use crate::{calib, RunConfig};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Unmeasured passes between set-up and the timed phase.
const WARMUPS: usize = 3;
/// Traced passes per run.
const TRACED_PASSES: usize = 10;
/// φ grid intervals of the paper's figures.
const FIGURE_STEPS: usize = 10;

/// One in-process workload.
trait Batch: Sized {
    /// The tail percentile `op_ms.tail` reports. Chosen so that a run of the
    /// default length has at least ten passes beyond it.
    const TAIL_Q: f64;
    /// Metric each `bench.build` / `bench.curve` span total feeds.
    const BUILD_METRIC: &'static str;
    const CURVE_METRIC: Option<&'static str>;
    type Output;

    /// Reads the committed references the passes are checked against; the
    /// seed fixes the order in which a pass visits its parts.
    fn load(root: &Path, seed: u64) -> Result<Self, String>;
    /// One full pass, from scratch.
    fn pass(&self) -> Result<Self::Output, String>;
    /// Checks a pass's output against the committed references.
    fn verify(&self, output: &Self::Output) -> Result<(), String>;
    /// The models one pass lowers, for the layer probe.
    fn lower(&self) -> Result<Vec<SanModel>, String>;
    /// The steady-state (ρ) solves one pass performs, for the layer probe.
    fn steady(&self) -> Result<(), String>;
    /// Extra per-layer measurements of this workload (traced runs only).
    fn extra_layers(&self) -> Result<Vec<Metric>, String> {
        Ok(Vec::new())
    }
}

/// A figure family: the labelled parameter sets of one figure and the
/// committed CSV its curves must reproduce.
struct Family {
    csv: &'static str,
    curves: Vec<(String, GsuParams)>,
    expected: Vec<Vec<f64>>,
}

/// The `figures` workload.
pub struct Figures {
    families: Vec<Family>,
    /// Baseline parameters of the tornado.
    tornado: GsuParams,
    /// Largest committed Y on the Figure 9 baseline curve: the refined
    /// optimum can only beat it.
    grid_best_y: f64,
}

/// What one `figures` pass produces: per family, its curves; plus the
/// tornado's optimum and sensitivities.
pub struct FiguresOutput {
    curves: Vec<Vec<Curve>>,
    optimum: SweepPoint,
    elasticities: Vec<(&'static str, f64)>,
}

impl Batch for Figures {
    const TAIL_Q: f64 = 0.90;
    const BUILD_METRIC: &'static str = "core.build_ms";
    const CURVE_METRIC: Option<&'static str> = None;
    type Output = FiguresOutput;

    fn load(root: &Path, seed: u64) -> Result<Self, String> {
        let p = |r: Result<GsuParams, performability::PerfError>| r.map_err(|e| e.to_string());
        let base = GsuParams::paper_baseline();
        let slow_safeguards = p(base.with_overhead_rates(2500.0, 2500.0))?;
        let short = p(base.with_theta(5000.0))?;
        let specs = vec![
            (
                "fig9.csv",
                vec![
                    ("µnew = 0.0001", base),
                    ("µnew = 0.00005", p(base.with_mu_new(5e-5))?),
                ],
            ),
            (
                "fig10.csv",
                vec![
                    ("ρ1=0.98, ρ2=0.95 (α=β=6000)", base),
                    ("ρ1=0.95, ρ2=0.90 (α=β=2500)", slow_safeguards),
                ],
            ),
            (
                "fig11.csv",
                vec![
                    ("c = 0.95", p(slow_safeguards.with_coverage(0.95))?),
                    ("c = 0.75", p(slow_safeguards.with_coverage(0.75))?),
                    ("c = 0.50", p(slow_safeguards.with_coverage(0.50))?),
                ],
            ),
            (
                "fig12.csv",
                vec![
                    ("µnew = 0.0001", short),
                    ("µnew = 0.00005", p(short.with_mu_new(5e-5))?),
                ],
            ),
        ];
        let mut families = Vec::new();
        for (csv, curves) in specs {
            let expected = read_csv(&root.join("results").join(csv))?;
            let width = 1 + 4 * curves.len();
            if expected.len() != FIGURE_STEPS + 1 || expected.iter().any(|r| r.len() != width) {
                return Err(format!(
                    "results/{csv}: want {} rows of {width} columns",
                    FIGURE_STEPS + 1
                ));
            }
            families.push(Family {
                csv,
                curves: curves
                    .into_iter()
                    .map(|(label, params)| (label.to_string(), params))
                    .collect(),
                expected,
            });
        }
        shuffle(&mut families, seed);
        let fig9 = families
            .iter()
            .find(|f| f.csv == "fig9.csv")
            .ok_or("fig9 family missing")?;
        let grid_best_y = fig9.expected.iter().map(|r| r[1]).fold(f64::MIN, f64::max);
        Ok(Figures {
            families,
            tornado: base,
            grid_best_y,
        })
    }

    fn pass(&self) -> Result<FiguresOutput, String> {
        let e = |err: performability::PerfError| err.to_string();
        let mut curves = Vec::with_capacity(self.families.len());
        for family in &self.families {
            let analyses = {
                let _span = telemetry::span("bench.build");
                family
                    .curves
                    .iter()
                    .map(|(_, params)| GsuAnalysis::new(*params))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(e)?
            };
            let entries: Vec<(&str, &GsuAnalysis)> = family
                .curves
                .iter()
                .map(|(label, _)| label.as_str())
                .zip(&analyses)
                .collect();
            let _span = telemetry::span("bench.curve");
            curves.push(Curve::sweep_many(&entries, FIGURE_STEPS).map_err(e)?);
        }
        let analysis = {
            let _span = telemetry::span("bench.build");
            GsuAnalysis::new(self.tornado).map_err(e)?
        };
        let optimum = {
            let _span = telemetry::span("bench.optimal_phi");
            analysis.optimal_phi(10, 12).map_err(e)?
        };
        let sensitivities = {
            let _span = telemetry::span("bench.sensitivity");
            local_sensitivity(self.tornado, optimum.phi, 0.10).map_err(e)?
        };
        Ok(FiguresOutput {
            curves,
            optimum,
            elasticities: sensitivities
                .iter()
                .map(|s| (s.name, s.elasticity))
                .collect(),
        })
    }

    fn verify(&self, output: &FiguresOutput) -> Result<(), String> {
        for (family, curves) in self.families.iter().zip(&output.curves) {
            for (c, curve) in curves.iter().enumerate() {
                if curve.points.len() != family.expected.len() {
                    return Err(format!("{}: curve {c} has the wrong length", family.csv));
                }
                for (point, row) in curve.points.iter().zip(&family.expected) {
                    let fields = [
                        (point.phi, row[0]),
                        (point.y, row[1 + 4 * c]),
                        (point.y_s1, row[2 + 4 * c]),
                        (point.y_s2, row[3 + 4 * c]),
                        (point.gamma, row[4 + 4 * c]),
                    ];
                    for (got, want) in fields {
                        check_close(got, want).map_err(|e| {
                            format!("{} curve {c} at phi {}: {e}", family.csv, row[0])
                        })?;
                    }
                }
            }
        }
        // The refined optimum lies in the bracket around the grid's best
        // point (φ = 7000) and cannot be worse than that point.
        let best = &output.optimum;
        if !(6000.0..=8000.0).contains(&best.phi) || best.y < self.grid_best_y * (1.0 - 1e-12) {
            return Err(format!(
                "tornado optimum phi {} y {} is off the committed Figure 9 curve (best y {})",
                best.phi, best.y, self.grid_best_y
            ));
        }
        let names: BTreeSet<&str> = output.elasticities.iter().map(|(n, _)| *n).collect();
        let want: BTreeSet<&str> = [
            "lambda", "mu_new", "mu_old", "coverage", "p_ext", "alpha", "beta",
        ]
        .into_iter()
        .collect();
        if names != want || output.elasticities.iter().any(|(_, e)| !e.is_finite()) {
            return Err(format!(
                "tornado sensitivities malformed: {:?}",
                output.elasticities
            ));
        }
        Ok(())
    }

    fn lower(&self) -> Result<Vec<SanModel>, String> {
        let e = |err: san::SanError| err.to_string();
        let mut models = Vec::new();
        for params in self.distinct_params() {
            models.push(rmgd::build(&params).map_err(e)?.model);
            models.push(rmnd::build(&params, params.mu_new).map_err(e)?.model);
            models.push(rmnd::build(&params, params.mu_old).map_err(e)?.model);
            models.push(rmgp::build(&params).map_err(e)?.model);
        }
        Ok(models)
    }

    fn steady(&self) -> Result<(), String> {
        for params in self.distinct_params() {
            rmgp::solve_rho(&params).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

impl Figures {
    /// The parameter sets whose analyses a pass builds, each once (the
    /// sensitivity fan's perturbed points excluded).
    fn distinct_params(&self) -> Vec<GsuParams> {
        let mut out: Vec<GsuParams> = Vec::new();
        let all = self
            .families
            .iter()
            .flat_map(|f| f.curves.iter().map(|(_, p)| *p))
            .chain(std::iter::once(self.tornado));
        for params in all {
            if !out.contains(&params) {
                out.push(params);
            }
        }
        out
    }
}

/// The `catalog` workload.
pub struct Catalog {
    specs: Vec<(ScenarioSpec, GoldenCurve)>,
}

impl Batch for Catalog {
    // About 90 passes fit a 40 s run on the reference box: p90 would have
    // only nine beyond it.
    const TAIL_Q: f64 = 0.75;
    const BUILD_METRIC: &'static str = "scenario.build_ms";
    const CURVE_METRIC: Option<&'static str> = Some("scenario.curve_ms");
    type Output = Vec<Vec<SweepPoint>>;

    fn load(root: &Path, seed: u64) -> Result<Self, String> {
        let specs = gsu_scenario::load_dir(&root.join("scenarios")).map_err(|e| e.to_string())?;
        if specs.is_empty() {
            return Err("scenarios/ holds no .gsu files".to_string());
        }
        let mut specs = specs
            .into_iter()
            .map(|spec| {
                let golden = root
                    .join("results/golden")
                    .join(format!("{}.json", spec.name));
                gsu_scenario::read_golden(&golden)
                    .map(|g| (spec, g))
                    .map_err(|e| format!("{}: {e}", golden.display()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        shuffle(&mut specs, seed);
        Ok(Catalog { specs })
    }

    fn pass(&self) -> Result<Self::Output, String> {
        self.specs
            .iter()
            .map(|(spec, _)| {
                let analysis = {
                    let _span = telemetry::span("bench.build");
                    ScenarioAnalysis::new(spec.clone())
                }
                .map_err(|e| format!("{}: {e}", spec.name))?;
                let _span = telemetry::span("bench.curve");
                analysis.curve().map_err(|e| format!("{}: {e}", spec.name))
            })
            .collect()
    }

    fn verify(&self, output: &Self::Output) -> Result<(), String> {
        for ((spec, golden), curve) in self.specs.iter().zip(output) {
            if curve.len() != golden.points.len() {
                return Err(format!("{}: curve length differs from golden", spec.name));
            }
            for (point, &(phi, y)) in curve.iter().zip(&golden.points) {
                check_close(point.phi, phi)
                    .and_then(|()| check_close(point.y, y))
                    .map_err(|e| format!("{} at phi {phi}: {e}", spec.name))?;
            }
        }
        Ok(())
    }

    fn lower(&self) -> Result<Vec<SanModel>, String> {
        use gsu_scenario::model::{build_gd, build_gp, build_np};
        let e = |err: performability::PerfError| err.to_string();
        let mut models = Vec::new();
        for (spec, _) in &self.specs {
            models.push(build_gd(spec).map_err(e)?.model);
            models.push(build_np(spec, spec.params.mu_new).map_err(e)?.model);
            models.push(build_np(spec, spec.params.mu_old).map_err(e)?.model);
            models.push(build_gp(spec).map_err(e)?.model);
        }
        Ok(models)
    }

    fn steady(&self) -> Result<(), String> {
        for (spec, _) in &self.specs {
            gsu_scenario::model::solve_rho(spec).map_err(|e| format!("{}: {e}", spec.name))?;
        }
        Ok(())
    }

    /// `BlockedKernel::apply` on the uniformized generator of the largest
    /// transient model, `three-escorts`' Gd, in ns per stored entry.
    fn extra_layers(&self) -> Result<Vec<Metric>, String> {
        let (spec, _) = self
            .specs
            .iter()
            .find(|(s, _)| s.name == "three-escorts")
            .ok_or("catalog lacks three-escorts")?;
        let gd = gsu_scenario::model::build_gd(spec).map_err(|e| e.to_string())?;
        let space =
            StateSpace::generate(&gd.model, &Default::default()).map_err(|e| e.to_string())?;
        let ctmc = space.ctmc();
        let dtmc = ctmc
            .uniformized(ctmc.max_exit_rate())
            .map_err(|e| e.to_string())?;
        let kernel = sparsela::BlockedKernel::from_csr(dtmc.matrix());
        let n = kernel.rows();
        let x = vec![1.0 / n as f64; n];
        let mut y = vec![0.0; n];
        let mut per_nnz = Vec::new();
        for _ in 0..5 {
            let start = Instant::now();
            let mut applies = 0u64;
            while start.elapsed() < Duration::from_millis(40) {
                kernel.apply(std::hint::black_box(&x), &mut y);
                applies += 1;
            }
            let ns = start.elapsed().as_nanos() as f64;
            per_nnz.push(ns / (applies as f64 * kernel.nnz() as f64));
        }
        std::hint::black_box(&y);
        Ok(vec![Metric::new(
            "sparse.spmv_ns_per_nnz",
            quantile(&per_nnz, 0.5),
            "ns",
            per_nnz.len(),
        )])
    }
}

/// Runs the `figures` workload.
pub fn figures(config: &RunConfig) -> Result<Outcome, String> {
    drive::<Figures>(config, "figures")
}

/// Runs the `catalog` workload.
pub fn catalog(config: &RunConfig) -> Result<Outcome, String> {
    drive::<Catalog>(config, "catalog")
}

fn drive<W: Batch>(config: &RunConfig, name: &str) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let pid = std::process::id();

    // Set-up: read the references and run one checked pass from scratch,
    // several times, each between two calibration kernel runs like the
    // timed passes; `setup_s` is the median.
    let mut setup_ms = Vec::with_capacity(SETUPS);
    let mut setup_kernel_ms = vec![calib::kernel_ms()];
    let mut workload = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let w = W::load(&config.root, config.seed)?;
        let checked = w.pass().and_then(|out| w.verify(&out));
        setup_ms.push(start.elapsed().as_secs_f64() * 1e3);
        setup_kernel_ms.push(calib::kernel_ms());
        outcome.record(checked);
        workload = Some(w);
    }
    let w = workload.ok_or("no set-up ran")?;
    for _ in 0..WARMUPS {
        outcome.record(w.pass().and_then(|out| w.verify(&out)));
    }
    let rss_warm = memory_mib(pid)?.0;

    let (pass_ms, kernel_ms) = timed_passes(&w, &mut outcome, config.seconds);
    let (rss_end, peak) = memory_mib(pid)?;
    let at_reference = calib::at_reference(&pass_ms, &kernel_ms);
    let setups: Vec<f64> = calib::at_reference(&setup_ms, &setup_kernel_ms)
        .iter()
        .map(|ms| ms / 1e3)
        .collect();
    // Capacity counts pass time only, not the checks and kernel runs
    // between passes.
    let busy_s = at_reference.iter().sum::<f64>() / 1e3;
    outcome.end_to_end = end_to_end(
        name,
        &setups,
        &at_reference,
        W::TAIL_Q,
        (pass_ms.len() as f64 / busy_s, pass_ms.len()),
        peak,
    );
    outcome.per_layer = vec![
        Metric::new("process.rss_growth_mib", rss_end - rss_warm, "MiB", 1),
        Metric::new(
            "harness.calib_ms",
            median(&kernel_ms),
            "ms",
            kernel_ms.len(),
        ),
    ];
    if config.trace {
        let p50 = quantile(&pass_ms, 0.5);
        let mut layers = traced(&w, &mut outcome, config, name, p50)?;
        outcome.per_layer.append(&mut layers);
    }
    Ok(outcome)
}

/// Checked passes until `seconds` have elapsed, with a run of the
/// calibration kernel before the first pass and after every pass; returns
/// the pass times and the kernel times (one more), in ms.
fn timed_passes<W: Batch>(w: &W, outcome: &mut Outcome, seconds: f64) -> (Vec<f64>, Vec<f64>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pass_ms = Vec::new();
    let mut kernel_ms = vec![calib::kernel_ms()];
    while Instant::now() < deadline {
        let t = Instant::now();
        let out = w.pass();
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        kernel_ms.push(calib::kernel_ms());
        outcome.record(out.and_then(|out| w.verify(&out)));
    }
    (pass_ms, kernel_ms)
}

/// The traced phase: passes under a collector, then the layer probe, then
/// the telemetry layer's own costs. Returns the per-layer metrics.
fn traced<W: Batch>(
    w: &W,
    outcome: &mut Outcome,
    config: &RunConfig,
    name: &str,
    untraced_p50: f64,
) -> Result<Vec<Metric>, String> {
    let collector = Collector::install();
    let result = traced_with(w, outcome, &collector, untraced_p50);
    telemetry::clear_sink();
    let trace_path = config.out.join(format!("{name}.trace.json"));
    collector
        .write_chrome_trace(&trace_path)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    result
}

fn traced_with<W: Batch>(
    w: &W,
    outcome: &mut Outcome,
    collector: &Collector,
    untraced_p50: f64,
) -> Result<Vec<Metric>, String> {
    let mut work = WorkSnapshot::default();
    let mut pass_traces = BTreeSet::new();
    let mut traced_ms = Vec::with_capacity(TRACED_PASSES);
    let mut states = 0usize;
    let mut nnz = 0usize;
    for _ in 0..TRACED_PASSES {
        let before = telemetry::work::snapshot();
        let t = Instant::now();
        let out = {
            let root = telemetry::span("bench.pass");
            if let Some(ctx) = root.context() {
                pass_traces.insert(ctx.trace_id);
            }
            w.pass()
        };
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let delta = telemetry::work::snapshot().delta_since(&before);
        work.spmv_ops += delta.spmv_ops;
        work.solver_iterations += delta.solver_iterations;
        work.expm_solves += delta.expm_solves;
        outcome.record(out.and_then(|out| w.verify(&out)));

        // The layer probe: the same models, lowered, generated and
        // steady-solved on their own, outside the pass.
        let _probe = telemetry::span("bench.probe");
        let models = {
            let _span = telemetry::span("bench.lower");
            w.lower()?
        };
        for model in &models {
            let _span = telemetry::span("bench.generate");
            let space = StateSpace::generate(model, &Default::default())
                .map_err(|e| format!("generating {}: {e}", model.name()))?;
            states += space.n_states();
            nnz += space.ctmc().generator().nnz();
        }
        let _span = telemetry::span("bench.steady");
        w.steady()?;
    }

    let spans = collector.spans();
    let (pass_spans, probe_spans): (Vec<&FinishedSpan>, Vec<&FinishedSpan>) = spans
        .iter()
        .partition(|s| pass_traces.contains(&s.trace_id));
    let events: Vec<SpanEvent> = pass_spans
        .iter()
        .map(|s| SpanEvent {
            name: s.name.clone(),
            dur_us: s.dur_us,
            span_id: s.span_id,
            parent_id: s.parent_id,
            trace_id: telemetry::format_trace_id(s.trace_id),
        })
        .collect();
    let profile = build_profile(&events);
    let per_name = |span: &str| {
        profile
            .by_name
            .iter()
            .find(|(n, ..)| n == span)
            .map_or((0, 0), |&(_, _, total, self_us)| (total, self_us))
    };
    let passes = TRACED_PASSES as f64;
    let ms_per_pass = |us: u64| us as f64 / 1e3 / passes;
    let probe_ms = |span: &str| {
        let us: u64 = probe_spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.dur_us)
            .sum();
        ms_per_pass(us)
    };
    let evaluate_us: Vec<f64> = pass_spans
        .iter()
        .filter(|s| s.name == "performability.evaluate")
        .map(|s| s.dur_us as f64)
        .collect();
    let (pass_total, pass_self) = per_name("bench.pass");

    let mut layers = vec![
        Metric::new(
            "markov.spmv_ops",
            work.spmv_ops as f64 / passes,
            "count",
            TRACED_PASSES,
        ),
        Metric::new(
            "markov.iterations",
            work.solver_iterations as f64 / passes,
            "count",
            TRACED_PASSES,
        ),
        Metric::new(
            "markov.expm_solves",
            work.expm_solves as f64 / passes,
            "count",
            TRACED_PASSES,
        ),
        Metric::new(
            "markov.expm_self_ms",
            ms_per_pass(per_name("markov.solve.expm").1),
            "ms",
            TRACED_PASSES,
        ),
        Metric::new(
            "markov.uniformization_self_ms",
            ms_per_pass(per_name("markov.solve.uniformization").1),
            "ms",
            TRACED_PASSES,
        ),
        Metric::new(
            "markov.steady_ms",
            probe_ms("bench.steady"),
            "ms",
            TRACED_PASSES,
        ),
        Metric::new(
            W::BUILD_METRIC,
            ms_per_pass(per_name("bench.build").0),
            "ms",
            TRACED_PASSES,
        ),
        Metric::new(
            "core.evaluate_us.p50",
            if evaluate_us.is_empty() {
                0.0
            } else {
                quantile(&evaluate_us, 0.5)
            },
            "us",
            evaluate_us.len(),
        ),
        Metric::new(
            "core.sensitivity_ms",
            ms_per_pass(per_name("bench.sensitivity").0),
            "ms",
            TRACED_PASSES,
        ),
        Metric::new(
            "san.generate_ms",
            probe_ms("bench.generate"),
            "ms",
            TRACED_PASSES,
        ),
        Metric::new("san.states", states as f64 / passes, "count", TRACED_PASSES),
        Metric::new("san.nnz", nnz as f64 / passes, "count", TRACED_PASSES),
        Metric::new(
            "trace.overhead_pct",
            (quantile(&traced_ms, 0.5) / untraced_p50 - 1.0) * 100.0,
            "%",
            TRACED_PASSES,
        ),
        Metric::new(
            "trace.coverage",
            1.0 - pass_self as f64 / pass_total.max(1) as f64,
            "ratio",
            TRACED_PASSES,
        ),
    ];
    if let Some(metric) = W::CURVE_METRIC {
        layers.push(Metric::new(
            metric,
            ms_per_pass(per_name("bench.curve").0),
            "ms",
            TRACED_PASSES,
        ));
    }
    layers.append(&mut telemetry_costs(collector, &pass_traces));
    layers.append(&mut w.extra_layers()?);
    Ok(layers)
}

/// What the collector itself costs after the traced passes: the scrape a
/// `/metrics` request pays, and the per-request span lookup `/eval` pays.
fn telemetry_costs(collector: &Collector, pass_traces: &BTreeSet<u64>) -> Vec<Metric> {
    const REPEATS: usize = 5;
    let mut scrape_ms = Vec::with_capacity(REPEATS);
    let mut bytes = 0;
    for _ in 0..REPEATS {
        let t = Instant::now();
        bytes = collector.snapshot().prometheus_text().len();
        scrape_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let last = pass_traces.last().copied().unwrap_or(0);
    let mut lookup_us = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t = Instant::now();
        std::hint::black_box(collector.trace_spans(last));
        lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    vec![
        Metric::new(
            "telemetry.spans_retained",
            collector.spans().len() as f64,
            "count",
            1,
        ),
        Metric::new("telemetry.scrape_bytes", bytes as f64, "B", 1),
        Metric::new(
            "telemetry.scrape_ms.p50",
            quantile(&scrape_ms, 0.5),
            "ms",
            REPEATS,
        ),
        Metric::new(
            "telemetry.trace_spans_us",
            quantile(&lookup_us, 0.5),
            "us",
            REPEATS,
        ),
    ]
}

/// Reads a committed figure CSV: the header line is skipped, every other
/// line must be all numbers.
fn read_csv(path: &Path) -> Result<Vec<Vec<f64>>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            line.split(',')
                .map(|cell| cell.trim().parse::<f64>())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("{}: bad number in {line:?}: {e}", path.display()))
        })
        .collect()
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SimRng::stream(seed, 7);
    for i in (1..items.len()).rev() {
        let j = ((rng.uniform() * (i + 1) as f64) as usize).min(i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..14).collect();
        let mut b = a.clone();
        shuffle(&mut a, 5);
        shuffle(&mut b, 5);
        assert_eq!(a, b, "same seed, same order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..14).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..14).collect();
        shuffle(&mut c, 6);
        assert_ne!(a, c, "the seed matters");
    }
}
