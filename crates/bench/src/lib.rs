//! Shared harness utilities for `gsu-bench`.
//!
//! [`experiments`] is the table of paper experiments behind
//! `gsu-bench run` (see `DESIGN.md` §6 for the index); this library also
//! provides their common plumbing: φ grids, labelled curve sweeps, ASCII
//! plotting for the terminal and CSV emission, plus the [`BenchRecord`]s
//! that [`regress`] gates: the record log (`BENCH_sweep.json`, the
//! baselines) and its reader, which also reads a `gsu-benchmark` run set
//! and a `gsu-bench loadgen` report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use performability::{GsuAnalysis, PerfError, SweepPoint};
use telemetry::json::{self, Value};

pub mod experiments;
pub mod loadgen;
pub mod profile;
pub mod regress;
pub mod scenarios;

/// A labelled `Y(φ)` curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Legend label (e.g. `µnew = 0.0001`).
    pub label: String,
    /// The swept points, ascending in φ.
    pub points: Vec<SweepPoint>,
}

impl Curve {
    /// Sweeps `analysis` over the standard figure grid: `steps + 1` evenly
    /// spaced φ values covering `[0, θ]` (the paper's figures use 10
    /// intervals of θ/10).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn sweep(
        label: impl Into<String>,
        analysis: &GsuAnalysis,
        steps: usize,
    ) -> Result<Self, PerfError> {
        Ok(Curve {
            label: label.into(),
            points: analysis.sweep_grid(steps)?,
        })
    }

    /// Sweeps several analyses over their standard figure grids through
    /// **one** pool fan-out with one task per curve: each task is one
    /// [`GsuAnalysis::sweep_grid`], whose φ values share one transient pass,
    /// so curves run in parallel and every φ of a curve runs in the one
    /// engine. Produces exactly the curves that per-analysis
    /// [`Curve::sweep`] calls would (asserted by tests).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures (lowest curve index first).
    pub fn sweep_many(
        entries: &[(&str, &GsuAnalysis)],
        steps: usize,
    ) -> Result<Vec<Curve>, PerfError> {
        let workers = pool::Pool::current();
        let mut span = telemetry::span("bench.sweep_many");
        span.record("curves", entries.len());
        span.record("threads", workers.threads());
        workers.try_map_indexed(entries.to_vec(), |_, (label, analysis)| {
            Curve::sweep(label, analysis, steps)
        })
    }

    /// The point with the largest `Y`, or `None` for an empty curve.
    pub fn best(&self) -> Option<&SweepPoint> {
        self.points.iter().max_by(|a, b| a.y.total_cmp(&b.y))
    }
}

/// One record of the regress gate, keyed on `(name, threads)`: a
/// `scenario:*` record of `gsu-bench scenarios`, a `benchmark:*` record of
/// a `gsu-benchmark` run set, or a `serve:*` record of a loadgen report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Record name (e.g. `scenario:paper-baseline`, `serve:open:p99`).
    pub name: String,
    /// Pool width (`GSU_THREADS`) or loadgen connections of the run, where
    /// it has one.
    pub threads: Option<usize>,
    /// φ grid points the run swept (request count for `serve:*` records),
    /// where it has one; never gated.
    pub grid: Option<usize>,
    /// Wall time in milliseconds, where the run was timed.
    pub wall_ms: Option<f64>,
    /// Deterministic work counters, `(name, value)` in document order
    /// (`iterations`, `spmv_ops`, `spmv_nnz` and `flops` of
    /// [`telemetry::work`] on `scenario:*` records).
    pub counters: Vec<(String, f64)>,
}

impl BenchRecord {
    /// Reads one log object: `name`, the optional `threads`, `grid` and
    /// `wall_ms`, and every other member as a numeric work counter.
    fn from_json(record: &Value) -> Result<BenchRecord, String> {
        let members = record.as_object().ok_or("a record is not an object")?;
        let count = |key: &str| {
            record
                .get(key)
                .map(|_| record.uint(key).map(|n| n as usize))
                .transpose()
        };
        let counters = members
            .iter()
            .filter(|(key, _)| !matches!(key.as_str(), "name" | "threads" | "grid" | "wall_ms"))
            .map(|(key, _)| Ok((key.clone(), record.num(key)?)))
            .collect::<Result<_, String>>()?;
        Ok(BenchRecord {
            name: record.string("name")?.to_string(),
            threads: count("threads")?,
            grid: count("grid")?,
            wall_ms: record
                .get("wall_ms")
                .map(|_| record.num("wall_ms"))
                .transpose()?,
            counters,
        })
    }

    /// The log object [`BenchRecord::from_json`] reads back.
    fn to_json(&self) -> String {
        let mut out = format!("{{\"name\": \"{}\"", json::escape(&self.name));
        if let Some(wall_ms) = self.wall_ms {
            let _ = write!(out, ", \"wall_ms\": {wall_ms:.3}");
        }
        for (key, value) in [("threads", self.threads), ("grid", self.grid)] {
            if let Some(value) = value {
                let _ = write!(out, ", \"{key}\": {value}");
            }
        }
        for (counter, value) in &self.counters {
            let _ = write!(out, ", \"{}\": {value}", json::escape(counter));
        }
        out.push('}');
        out
    }
}

/// Merges `records` into the record log at `path`, each replacing any
/// existing entry with the same `(name, threads)` key; a missing log is
/// created.
///
/// # Errors
///
/// Returns I/O errors from reading or writing the log, and a log that does
/// not read (see [`read_bench_records`]).
pub fn merge_bench_records(path: &Path, records: Vec<BenchRecord>) -> std::io::Result<()> {
    let mut merged = match read_bench_records(path) {
        Ok(merged) => merged,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    for record in records {
        match merged
            .iter_mut()
            .find(|r| r.name == record.name && r.threads == record.threads)
        {
            Some(existing) => *existing = record,
            None => merged.push(record),
        }
    }
    write_bench_records(path, &merged)
}

/// Reads the gate records of a document, whose kind is read from the
/// document itself: a JSON array is a record log (`BENCH_sweep.json`, a
/// baseline); a `gsu-benchmark-v1` object is a run set, read by
/// [`regress::parse_run_set`]; a `gsu-loadgen-v1` object is a loadgen
/// report, read by [`loadgen::parse_report`] into its
/// [`bench_records`](loadgen::LoadgenReport::bench_records).
///
/// # Errors
///
/// The underlying read error (`NotFound` for an absent file), or
/// `InvalidData` for a document of none of these kinds or one that does
/// not read as its kind (a log record without a `name`, a counter that is
/// not a number, ...).
pub fn read_bench_records(path: &Path) -> io::Result<Vec<BenchRecord>> {
    let text = std::fs::read_to_string(path)?;
    let records = match json::parse(&text) {
        Ok(Value::Arr(records)) => records.iter().map(BenchRecord::from_json).collect(),
        Ok(doc) => match doc.string("schema") {
            Ok(regress::RUN_SET_SCHEMA) => regress::parse_run_set(&text),
            Ok(loadgen::REPORT_SCHEMA) => loadgen::parse_report(&text).map(|r| r.bench_records()),
            _ => Err(format!(
                "neither a record log, a {} run set nor a {} report",
                regress::RUN_SET_SCHEMA,
                loadgen::REPORT_SCHEMA
            )),
        },
        Err(e) => Err(e),
    };
    records.map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Writes `records` as a record log, one object per line sorted by
/// `(name, threads)`, creating parent directories as needed.
///
/// # Errors
///
/// Returns I/O errors from directory creation or the write.
pub fn write_bench_records(path: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut records: Vec<&BenchRecord> = records.iter().collect();
    records.sort_by(|a, b| a.name.cmp(&b.name).then(a.threads.cmp(&b.threads)));
    let lines: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.to_json()))
        .collect();
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
}

/// Run-scoped telemetry session for `gsu-bench run`.
///
/// When the `GSU_TELEMETRY` environment variable is `1`, construction
/// installs a [`telemetry::Collector`] as the global collector; dropping
/// the session writes `trace.json` (Chrome `trace_event` JSON, loadable in
/// Perfetto or `chrome://tracing`, and the input of `gsu-bench profile`)
/// into the experiment's output directory. When the variable is unset or
/// different the session is inert and every instrumentation call in the
/// pipeline stays a no-op, so output files are byte-identical to an
/// uninstrumented run.
pub struct TelemetrySession {
    collector: Option<std::sync::Arc<telemetry::Collector>>,
    out_dir: std::path::PathBuf,
}

impl TelemetrySession {
    /// Starts a session writing into `out_dir`.
    pub fn new(out_dir: &Path) -> Self {
        telemetry::init_log_from_env("GSU_LOG");
        TelemetrySession {
            collector: telemetry::init_from_env("GSU_TELEMETRY"),
            out_dir: out_dir.to_path_buf(),
        }
    }
}

impl Drop for TelemetrySession {
    fn drop(&mut self) {
        let Some(collector) = self.collector.take() else {
            return;
        };
        telemetry::clear_sink();
        let trace = self.out_dir.join("trace.json");
        match collector.write_chrome_trace(&trace) {
            Ok(()) => println!("telemetry: wrote {}", trace.display()),
            Err(e) => eprintln!("telemetry: failed to write {}: {e}", trace.display()),
        }
    }
}

/// Renders curves as a fixed-width ASCII chart (φ on the x-axis, `Y` on the
/// y-axis), mirroring the paper's figure layout well enough to eyeball
/// optima in a terminal.
pub fn ascii_chart(curves: &[Curve], height: usize) -> String {
    let mut out = String::new();
    let markers = ['*', 'o', '^', '+', 'x', '#'];
    let all: Vec<&SweepPoint> = curves.iter().flat_map(|c| &c.points).collect();
    if all.is_empty() {
        return out;
    }
    let y_min = all.iter().map(|p| p.y).fold(f64::INFINITY, f64::min);
    let y_max = all.iter().map(|p| p.y).fold(f64::NEG_INFINITY, f64::max);
    let span = (y_max - y_min).max(1e-9);
    let height = height.max(4);
    let width = curves.iter().map(|c| c.points.len()).max().unwrap_or(0);

    let mut rows = vec![vec![' '; width * 3 + 2]; height];
    for (ci, curve) in curves.iter().enumerate() {
        let marker = markers[ci % markers.len()];
        for (xi, p) in curve.points.iter().enumerate() {
            let row = ((y_max - p.y) / span * (height - 1) as f64).round() as usize;
            let col = xi * 3 + 1;
            let cell = &mut rows[row.min(height - 1)][col];
            // Overlapping curves show the later marker.
            *cell = marker;
        }
    }
    let _ = writeln!(out, "Y range [{y_min:.3}, {y_max:.3}]");
    for row in rows {
        let line: String = row.into_iter().collect();
        let _ = writeln!(out, "|{line}");
    }
    let _ = writeln!(out, "+{}", "-".repeat(width * 3 + 2));
    for (ci, curve) in curves.iter().enumerate() {
        let _ = writeln!(out, "  {} {}", markers[ci % markers.len()], curve.label);
    }
    out
}

/// Formats curves as a φ-indexed table (one row per φ, one `Y` column per
/// curve), marking each curve's optimum with `*`.
pub fn curve_table(curves: &[Curve]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:>10}", "phi");
    for c in curves {
        let _ = write!(out, "  {:>18}", c.label);
    }
    let _ = writeln!(out);
    let n = curves.iter().map(|c| c.points.len()).max().unwrap_or(0);
    let bests: Vec<Option<f64>> = curves.iter().map(|c| c.best().map(|p| p.phi)).collect();
    for i in 0..n {
        if let Some(p0) = curves.iter().find_map(|c| c.points.get(i)) {
            let _ = write!(out, "{:>10.0}", p0.phi);
        }
        for (c, &best_phi) in curves.iter().zip(&bests) {
            match c.points.get(i) {
                Some(p) => {
                    let mark = if Some(p.phi) == best_phi { "*" } else { " " };
                    let _ = write!(out, "  {:>17.4}{mark}", p.y);
                }
                None => {
                    let _ = write!(out, "  {:>18}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Writes curves to a CSV file (`phi` column plus one `Y` column per curve,
/// then per-curve S1/S2/γ diagnostics).
///
/// # Errors
///
/// Returns I/O errors from file creation or writing.
pub fn write_csv(path: &Path, curves: &[Curve]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut body = String::new();
    let _ = write!(body, "phi");
    for c in curves {
        let label = c.label.replace(',', ";");
        let _ = write!(body, ",Y[{label}],S1[{label}],S2[{label}],gamma[{label}]");
    }
    let _ = writeln!(body);
    let n = curves.iter().map(|c| c.points.len()).max().unwrap_or(0);
    for i in 0..n {
        if let Some(p0) = curves.iter().find_map(|c| c.points.get(i)) {
            let _ = write!(body, "{}", p0.phi);
        }
        for c in curves {
            match c.points.get(i) {
                Some(p) => {
                    let _ = write!(body, ",{},{},{},{}", p.y, p.y_s1, p.y_s2, p.gamma);
                }
                None => {
                    let _ = write!(body, ",,,,");
                }
            }
        }
        let _ = writeln!(body);
    }
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use performability::GsuParams;

    fn small_curve() -> Curve {
        let an = GsuAnalysis::new(GsuParams::paper_baseline()).expect("baseline is valid");
        Curve::sweep("test", &an, 4).unwrap()
    }

    #[test]
    fn sweep_produces_grid() {
        let c = small_curve();
        assert_eq!(c.points.len(), 5);
        assert_eq!(c.points[0].phi, 0.0);
    }

    #[test]
    fn best_is_max_y() {
        let c = small_curve();
        let best = c.best().expect("non-empty curve has a best point");
        assert!(c.points.iter().all(|p| p.y <= best.y));
    }

    #[test]
    fn best_of_empty_curve_is_none() {
        let c = Curve {
            label: "empty".into(),
            points: Vec::new(),
        };
        assert!(c.best().is_none());
        // And an empty curve must not break the table renderer either.
        let t = curve_table(&[c]);
        assert!(t.contains("phi"));
    }

    #[test]
    fn table_marks_optimum() {
        let c = small_curve();
        let t = curve_table(&[c]);
        assert!(t.contains('*'));
        assert!(t.contains("phi"));
    }

    #[test]
    fn chart_renders_all_labels() {
        let c1 = small_curve();
        let mut c2 = small_curve();
        c2.label = "second".into();
        let chart = ascii_chart(&[c1, c2], 10);
        assert!(chart.contains("test"));
        assert!(chart.contains("second"));
        assert!(chart.contains("Y range"));
    }

    #[test]
    fn chart_of_empty_is_empty() {
        assert_eq!(ascii_chart(&[], 10), "");
    }

    #[test]
    fn sweep_many_matches_per_curve_sweeps() {
        let base = GsuParams::paper_baseline();
        let a = GsuAnalysis::new(base).unwrap();
        let b = GsuAnalysis::new(base.with_mu_new(5e-5).unwrap()).unwrap();
        let merged = Curve::sweep_many(&[("a", &a), ("b", &b)], 4).unwrap();
        let solo_a = Curve::sweep("a", &a, 4).unwrap();
        let solo_b = Curve::sweep("b", &b, 4).unwrap();
        assert_eq!(merged.len(), 2);
        for (merged, solo) in merged.iter().zip([&solo_a, &solo_b]) {
            assert_eq!(merged.label, solo.label);
            assert_eq!(merged.points.len(), solo.points.len());
            for (p, q) in merged.points.iter().zip(&solo.points) {
                assert_eq!(p.phi.to_bits(), q.phi.to_bits());
                assert_eq!(p.y.to_bits(), q.y.to_bits());
            }
        }
    }

    #[test]
    fn bench_records_merge_and_roundtrip() {
        let dir = std::env::temp_dir().join("gsu-bench-records-test");
        let path = dir.join("BENCH_sweep.json");
        std::fs::remove_file(&path).ok();
        let rec = |name: &str, wall_ms: f64, threads: usize| BenchRecord {
            name: name.to_string(),
            threads: Some(threads),
            grid: Some(10),
            wall_ms: Some(wall_ms),
            counters: vec![
                ("iterations".to_string(), 128.0),
                ("flops".to_string(), 9000.0),
            ],
        };
        merge_bench_records(&path, vec![rec("fig9", 250.0, 1), rec("fig9", 80.0, 4)]).unwrap();
        merge_bench_records(&path, vec![rec("fig10", 410.5, 1)]).unwrap();
        // Same (name, threads) key updates in place.
        merge_bench_records(&path, vec![rec("fig9", 245.125, 1)]).unwrap();
        // A name is written escaped and reads back as it was.
        let odd = "serve:a\"b\\{,}\n:p50";
        merge_bench_records(&path, vec![rec(odd, 1.5, 2)]).unwrap();
        let records = read_bench_records(&path).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[3], rec(odd, 1.5, 2));
        assert_eq!(records[1], rec("fig9", 245.125, 1));
        assert_eq!(records[2].threads, Some(4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("gsu-bench-test");
        let path = dir.join("curve.csv");
        let c = small_curve();
        write_csv(&path, &[c]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("phi,"));
        assert_eq!(text.lines().count(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }
}
