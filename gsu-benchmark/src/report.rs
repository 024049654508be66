//! The metric catalog, the run-set file (`<out>/benchmark.json`), and the
//! `compare` rule that checks one run set against another.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Value};
use crate::stats::{median, Metric};

/// End-to-end metrics, `(name, unit)`, in output order. Every workload
/// reports every one of them; `BENCHMARK.json` lists the same names.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("capacity_ops_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the gated workloads, `(name, unit)`, in output
/// order. A workload that does not exercise a layer reports it as 0 (the
/// README says which do). Serve workloads report their serve-only layer
/// metrics after these.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("markov.spmv_ops", "count"),
    ("markov.iterations", "count"),
    ("markov.expm_solves", "count"),
    ("markov.expm_self_ms", "ms"),
    ("markov.uniformization_self_ms", "ms"),
    ("markov.steady_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.evaluate_us.p50", "us"),
    ("core.sensitivity_ms", "ms"),
    ("scenario.build_ms", "ms"),
    ("scenario.curve_ms", "ms"),
    ("san.generate_ms", "ms"),
    ("san.states", "count"),
    ("san.nnz", "count"),
    ("sparse.spmv_ns_per_nnz", "ns"),
    ("telemetry.spans_retained", "count"),
    ("telemetry.scrape_bytes", "B"),
    ("telemetry.scrape_ms.p50", "ms"),
    ("telemetry.trace_spans_us", "us"),
    ("process.rss_growth_mib", "MiB"),
    ("harness.calib_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
];

/// Absolute slack added to a metric's relative bound: a regression must
/// exceed both. Set-up times of a few tens of milliseconds jitter by more
/// than their relative bound.
const ABSOLUTE_FLOORS: &[(&str, f64)] = &[("setup_s", 0.01)];

/// Schema tag of the run-set file.
pub const SCHEMA: &str = "gsu-benchmark-v1";

/// One recorded run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Run {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": [",
            json::quote(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"n\": {}}}",
                json::quote(&m.name),
                json::number(m.value),
                json::quote(&m.unit),
                m.n
            );
        }
        out.push_str("]}");
        out
    }

    fn from_json(v: &Value) -> Result<Run, String> {
        let metrics = v
            .get("metrics")
            .and_then(Value::as_array)
            .ok_or("run without a metrics array")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: m.string("name")?.to_string(),
                    // A non-finite value was written as null.
                    value: m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                    unit: m.string("unit")?.to_string(),
                    n: m.num("n")? as usize,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Run {
            workload: v.string("workload")?.to_string(),
            seed: v.num("seed")? as u64,
            seconds: v.num("seconds")? as u64,
            trace: v
                .get("trace")
                .and_then(Value::as_bool)
                .ok_or("missing boolean field \"trace\"")?,
            attempted: v.num("attempted")? as u64,
            failed: v.num("failed")? as u64,
            metrics,
        })
    }
}

/// Renders a run set, one run per line.
pub fn render_runs(runs: &[Run]) -> String {
    let mut out = format!("{{\"schema\": {}, \"runs\": [", json::quote(SCHEMA));
    for (i, run) in runs.iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        out.push_str(&run.to_json());
    }
    out.push_str("\n]}\n");
    out
}

/// Parses a run set.
///
/// # Errors
///
/// Malformed JSON, a wrong schema tag, or a malformed run.
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} run set"));
    }
    doc.get("runs")
        .and_then(Value::as_array)
        .ok_or("run set without a runs array")?
        .iter()
        .map(Run::from_json)
        .collect()
}

/// Reads the run set at `path`.
///
/// # Errors
///
/// Unreadable or malformed file.
pub fn read_runs(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_runs(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends `run` to the run set at `path`, creating it (and its directory)
/// when absent.
///
/// # Errors
///
/// I/O failures, or an existing file that is not a run set.
pub fn append_run(path: &Path, run: Run) -> Result<(), String> {
    let mut runs = if path.exists() {
        read_runs(path)?
    } else {
        Vec::new()
    };
    runs.push(run);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, render_runs(&runs))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// How far one end-to-end metric may worsen, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the reference median.
    pub share: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Malformed document or entry.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    json::parse(text)?
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end array")?
        .iter()
        .map(|m| {
            let better = m.string("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("better must be lower or higher, got {better:?}"));
            }
            Ok(Bound {
                name: m.string("name")?.to_string(),
                lower_is_better: better == "lower",
                share: m.num("bound")?,
            })
        })
        .collect()
}

/// The comparison of one (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub workload: String,
    pub metric: String,
    pub reference: f64,
    pub candidate: f64,
    /// The largest worsening the bound allows.
    pub allowed: f64,
    pub ok: bool,
}

/// Compares the candidate run set against the reference: for every
/// (workload, end-to-end metric) pair present in both, the candidate's
/// median may be worse than the reference median by at most the metric's
/// bound (and its absolute floor, if any). The error rate (failed over
/// attempted) may not rise at all.
pub fn compare(reference: &[Run], candidate: &[Run], bounds: &[Bound]) -> Vec<Verdict> {
    let values = |runs: &[Run]| {
        let mut by_pair: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        let mut errors: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for run in runs {
            let e = errors.entry(run.workload.clone()).or_default();
            e.0 += run.failed;
            e.1 += run.attempted;
            for m in &run.metrics {
                by_pair
                    .entry((run.workload.clone(), m.name.clone()))
                    .or_default()
                    .push(m.value);
            }
        }
        (by_pair, errors)
    };
    let (ref_values, ref_errors) = values(reference);
    let (cand_values, cand_errors) = values(candidate);

    let mut verdicts = Vec::new();
    for ((workload, metric), ref_vals) in &ref_values {
        let Some(bound) = bounds.iter().find(|b| &b.name == metric) else {
            continue; // per-layer metrics carry no bound
        };
        let Some(cand_vals) = cand_values.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (r, c) = (median(ref_vals), median(cand_vals));
        let floor = ABSOLUTE_FLOORS
            .iter()
            .find(|(name, _)| name == metric)
            .map_or(0.0, |(_, f)| *f);
        let allowed = (bound.share * r.abs()).max(floor);
        let worse = if bound.lower_is_better { c - r } else { r - c };
        verdicts.push(Verdict {
            workload: workload.clone(),
            metric: metric.clone(),
            reference: r,
            candidate: c,
            allowed,
            ok: worse <= allowed,
        });
    }
    for (workload, &(ref_failed, ref_attempted)) in &ref_errors {
        let Some(&(cand_failed, cand_attempted)) = cand_errors.get(workload) else {
            continue;
        };
        let rate = |failed: u64, attempted: u64| failed as f64 / attempted.max(1) as f64;
        let (r, c) = (
            rate(ref_failed, ref_attempted),
            rate(cand_failed, cand_attempted),
        );
        verdicts.push(Verdict {
            workload: workload.clone(),
            metric: "error_rate".to_string(),
            reference: r,
            candidate: c,
            allowed: 0.0,
            ok: c <= r,
        });
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, metrics: &[(&str, f64)], failed: u64) -> Run {
        Run {
            workload: workload.to_string(),
            seed,
            seconds: 20,
            trace: false,
            attempted: 100,
            failed,
            metrics: metrics
                .iter()
                .map(|&(name, value)| Metric::new(name, value, "ms", 50))
                .collect(),
        }
    }

    fn bounds() -> Vec<Bound> {
        parse_bounds(
            r#"{"end_to_end": [
                {"name": "op_ms.p50", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "capacity_ops_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap()
    }

    fn verdict<'a>(verdicts: &'a [Verdict], metric: &str) -> &'a Verdict {
        verdicts.iter().find(|v| v.metric == metric).unwrap()
    }

    #[test]
    fn run_set_round_trips() {
        let runs = vec![
            run("figures", 1, &[("op_ms.p50", 91.25), ("setup_s", 0.1)], 0),
            run("serve-churn", 2, &[("op_ms.p50", f64::NAN)], 3),
        ];
        let parsed = parse_runs(&render_runs(&runs)).unwrap();
        assert_eq!(parsed[0], runs[0]);
        assert_eq!(parsed[1].failed, 3);
        assert!(parsed[1].metrics[0].value.is_nan(), "NaN travels as null");
        assert!(parse_runs("{\"schema\": \"other\", \"runs\": []}").is_err());
    }

    #[test]
    fn append_creates_then_extends() {
        let dir = std::env::temp_dir().join(format!("gsu-benchmark-append-{}", std::process::id()));
        let path = dir.join("nested").join("benchmark.json");
        append_run(&path, run("catalog", 1, &[("op_ms.p50", 1.0)], 0)).unwrap();
        append_run(&path, run("catalog", 2, &[("op_ms.p50", 2.0)], 0)).unwrap();
        let runs = read_runs(&path).unwrap();
        assert_eq!(runs.iter().map(|r| r.seed).collect::<Vec<_>>(), [1, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn relative_bounds_follow_the_better_direction() {
        let reference = [run(
            "w",
            1,
            &[("op_ms.p50", 100.0), ("capacity_ops_s", 50.0)],
            0,
        )];
        let slower = [run(
            "w",
            2,
            &[("op_ms.p50", 111.0), ("capacity_ops_s", 44.0)],
            0,
        )];
        let v = compare(&reference, &slower, &bounds());
        assert!(
            !verdict(&v, "op_ms.p50").ok,
            "11% slower breaks a 10% bound"
        );
        assert!(!verdict(&v, "capacity_ops_s").ok, "12% less capacity too");
        let within = [run(
            "w",
            2,
            &[("op_ms.p50", 109.0), ("capacity_ops_s", 46.0)],
            0,
        )];
        assert!(compare(&reference, &within, &bounds()).iter().all(|v| v.ok));
        // Improvements never fail, however large.
        let faster = [run(
            "w",
            2,
            &[("op_ms.p50", 10.0), ("capacity_ops_s", 500.0)],
            0,
        )];
        assert!(compare(&reference, &faster, &bounds()).iter().all(|v| v.ok));
    }

    #[test]
    fn absolute_floor_covers_short_setups() {
        let reference = [run("w", 1, &[("setup_s", 0.020)], 0)];
        // +50% but only +8 ms: inside the 10 ms floor.
        let jitter = [run("w", 2, &[("setup_s", 0.030)], 0)];
        let v = compare(&reference, &jitter, &bounds());
        assert!(verdict(&v, "setup_s").ok);
        assert_eq!(verdict(&v, "setup_s").allowed, 0.01);
        let slow = [run("w", 2, &[("setup_s", 0.031)], 0)];
        assert!(!verdict(&compare(&reference, &slow, &bounds()), "setup_s").ok);
        // Above the floor the relative bound governs.
        let reference = [run("w", 1, &[("setup_s", 1.0)], 0)];
        let slow = [run("w", 2, &[("setup_s", 1.2)], 0)];
        assert!(verdict(&compare(&reference, &slow, &bounds()), "setup_s").ok);
    }

    #[test]
    fn medians_across_runs_and_error_rate_may_not_rise() {
        let reference = [
            run("w", 1, &[("op_ms.p50", 100.0)], 0),
            run("w", 2, &[("op_ms.p50", 300.0)], 0),
            run("w", 3, &[("op_ms.p50", 101.0)], 0),
        ];
        // One outlier run does not move the median.
        let candidate = [
            run("w", 4, &[("op_ms.p50", 102.0)], 0),
            run("w", 5, &[("op_ms.p50", 90.0)], 0),
            run("w", 6, &[("op_ms.p50", 500.0)], 0),
        ];
        let v = compare(&reference, &candidate, &bounds());
        assert_eq!(verdict(&v, "op_ms.p50").reference, 101.0);
        assert!(v.iter().all(|v| v.ok));
        let failing = [run("w", 4, &[("op_ms.p50", 100.0)], 1)];
        assert!(!verdict(&compare(&reference, &failing, &bounds()), "error_rate").ok);
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| m.string(k).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let bounds = parse_bounds(&text).unwrap();
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(bounds
            .iter()
            .all(|b| b.share <= setup.share && b.share <= 0.25));
    }
}
