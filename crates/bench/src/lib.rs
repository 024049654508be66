//! Shared harness utilities for `gsu-bench`.
//!
//! [`experiments`] is the table of paper experiments behind
//! `gsu-bench run` (see `DESIGN.md` §6 for the index); this library also
//! provides their common plumbing: φ grids, labelled curve sweeps, ASCII
//! plotting for the terminal and CSV emission, plus the [`BenchRecord`] log
//! format (`BENCH_sweep.json`) that `gsu-bench scenarios` and
//! `gsu-bench loadgen` write and [`regress`] gates.

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

/// One record of the `BENCH_sweep.json` performance log, keyed on
/// `(name, threads)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Record name (e.g. `scenario:paper-baseline`, `serve:open:p99`).
    pub name: String,
    /// End-to-end wall time of the run in milliseconds.
    pub wall_ms: f64,
    /// Pool width the run used (`GSU_THREADS`).
    pub threads: usize,
    /// φ grid points the run swept (request count for `serve:*` records).
    pub grid: usize,
    /// Solver iterations the run performed (deterministic work metric:
    /// sweep/uniformization steps plus expm squarings; see
    /// [`telemetry::work`]). `0` when absent from the log.
    pub iterations: u64,
    /// Sparse matrix-vector products the run performed. `0` when absent.
    pub spmv_ops: u64,
    /// Stored matrix entries those products touched — the SpMV count
    /// weighted by chain size. `0` when absent.
    pub spmv_nnz: u64,
    /// Multiply-adds of both transient engines (see
    /// [`telemetry::work::WorkSnapshot::flops`]). `0` when absent.
    pub flops: u64,
}

/// Merges `record` into the JSON log at `path`, replacing any existing entry
/// with the same `(name, threads)` key; a missing log is created.
///
/// # Errors
///
/// Returns I/O errors from reading or writing the log, and a log that does
/// not read (see [`read_bench_records`]).
pub fn merge_bench_record(path: &Path, record: BenchRecord) -> std::io::Result<()> {
    let mut records = match read_bench_records(path) {
        Ok(records) => records,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    match records
        .iter_mut()
        .find(|r| r.name == record.name && r.threads == record.threads)
    {
        Some(existing) => *existing = record,
        None => records.push(record),
    }
    write_bench_records(path, &records)
}

/// Reads the sweep records of a `BENCH_sweep.json`-format log, skipping
/// the `benchmark:` counter records a baseline also holds (see
/// [`regress::read_counter_records`]). Work counters absent from a record
/// read as 0, so logs from before the counters existed keep reading (the
/// regress gate then fails any positive count).
///
/// # Errors
///
/// The underlying read error (`NotFound` for an absent log), or
/// `InvalidData` for a log that is not a JSON array of objects or a sweep
/// record without `name`, `wall_ms`, `threads` and `grid`.
pub fn read_bench_records(path: &Path) -> io::Result<Vec<BenchRecord>> {
    read_log(path)?
        .iter()
        .filter(|record| !regress::is_counter_record(record))
        .map(BenchRecord::from_json)
        .collect::<Result<_, _>>()
        .map_err(|e| invalid_log(path, e))
}

/// The records of a JSON log: the items of its top-level array.
pub(crate) fn read_log(path: &Path) -> io::Result<Vec<Value>> {
    match json::parse(&std::fs::read_to_string(path)?) {
        Ok(Value::Arr(records)) => Ok(records),
        Ok(_) => Err(invalid_log(path, "not a JSON array".to_string())),
        Err(e) => Err(invalid_log(path, e)),
    }
}

pub(crate) fn invalid_log(path: &Path, message: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {message}", path.display()),
    )
}

impl BenchRecord {
    fn from_json(record: &Value) -> Result<BenchRecord, String> {
        let work = |key: &str| match record.get(key) {
            Some(_) => record.uint(key),
            None => Ok(0),
        };
        Ok(BenchRecord {
            name: record.string("name")?.to_string(),
            wall_ms: record.num("wall_ms")?,
            threads: record.uint("threads")? as usize,
            grid: record.uint("grid")? as usize,
            iterations: work("iterations")?,
            spmv_ops: work("spmv_ops")?,
            spmv_nnz: work("spmv_nnz")?,
            flops: work("flops")?,
        })
    }
}

/// Writes `records` in the `BENCH_sweep.json` format, sorted by
/// `(name, threads)`, creating parent directories as needed.
///
/// # Errors
///
/// Returns I/O errors from directory creation or the write.
pub fn write_bench_records(path: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    write_json_lines(path, &bench_record_lines(records))
}

/// One JSON object per record, sorted by `(name, threads)`.
pub(crate) fn bench_record_lines(records: &[BenchRecord]) -> Vec<String> {
    let mut records: Vec<&BenchRecord> = records.iter().collect();
    records.sort_by(|a, b| a.name.cmp(&b.name).then(a.threads.cmp(&b.threads)));
    records
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": \"{}\", \"wall_ms\": {:.3}, \"threads\": {}, \"grid\": {}, \
                 \"iterations\": {}, \"spmv_ops\": {}, \"spmv_nnz\": {}, \"flops\": {}}}",
                json::escape(&r.name),
                r.wall_ms,
                r.threads,
                r.grid,
                r.iterations,
                r.spmv_ops,
                r.spmv_nnz,
                r.flops
            )
        })
        .collect()
}

/// Writes `objects` as a JSON array, one per line, creating parent
/// directories as needed.
pub(crate) fn write_json_lines(path: &Path, objects: &[String]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut body = String::from("[\n");
    for (i, object) in objects.iter().enumerate() {
        let comma = if i + 1 < objects.len() { "," } else { "" };
        let _ = writeln!(body, "  {object}{comma}");
    }
    body.push_str("]\n");
    std::fs::write(path, body)
}

/// Run-scoped telemetry session for `gsu-bench run`.
///
/// When the `GSU_TELEMETRY` environment variable is `1`, construction
/// installs a [`telemetry::Collector`] as the global sink; dropping the
/// session writes `telemetry.json` (the structured run report) and
/// `trace.json` (Chrome `trace_event` JSON, loadable in Perfetto or
/// `chrome://tracing`) into the experiment's output directory. When the
/// variable is unset or different the session is inert and every
/// instrumentation call in the pipeline stays a no-op, so output files are
/// byte-identical to an uninstrumented run.
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
        let report = self.out_dir.join("telemetry.json");
        let trace = self.out_dir.join("trace.json");
        match collector
            .write_run_report(&report)
            .and_then(|()| collector.write_chrome_trace(&trace))
        {
            Ok(()) => println!(
                "telemetry: wrote {} and {}",
                report.display(),
                trace.display()
            ),
            Err(e) => eprintln!("telemetry: failed to write reports: {e}"),
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
        let an = GsuAnalysis::with_fixed_overhead(GsuParams::paper_baseline(), 0.98, 0.95)
            .expect("baseline is valid");
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
        let a = GsuAnalysis::with_fixed_overhead(base, 0.98, 0.95).unwrap();
        let b =
            GsuAnalysis::with_fixed_overhead(base.with_mu_new(5e-5).unwrap(), 0.98, 0.95).unwrap();
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
            wall_ms,
            threads,
            grid: 10,
            iterations: 128,
            spmv_ops: 640,
            spmv_nnz: 5120,
            flops: 9000,
        };
        merge_bench_record(&path, rec("fig9", 250.0, 1)).unwrap();
        merge_bench_record(&path, rec("fig9", 80.0, 4)).unwrap();
        merge_bench_record(&path, rec("fig10", 410.5, 1)).unwrap();
        // Same (name, threads) key updates in place.
        merge_bench_record(&path, rec("fig9", 245.125, 1)).unwrap();
        // A name is written escaped and reads back as it was.
        let odd = "serve:a\"b\\{,}\n:p50";
        merge_bench_record(&path, rec(odd, 1.5, 2)).unwrap();
        let records = read_bench_records(&path).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[3], rec(odd, 1.5, 2));
        assert_eq!(
            records[1],
            BenchRecord {
                name: "fig9".into(),
                wall_ms: 245.125,
                threads: 1,
                grid: 10,
                iterations: 128,
                spmv_ops: 640,
                spmv_nnz: 5120,
                flops: 9000,
            }
        );
        assert_eq!(records[2].threads, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn logs_without_work_metrics_parse_with_zeroes() {
        let dir = std::env::temp_dir().join("gsu-bench-old-log-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sweep.json");
        let old = "[\n  {\"name\": \"fig9\", \"wall_ms\": 100.000, \
                   \"threads\": 1, \"grid\": 10}\n]\n";
        std::fs::write(&path, old).unwrap();
        let records = read_bench_records(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].iterations, 0);
        assert_eq!(records[0].spmv_ops, 0);
        assert_eq!(records[0].spmv_nnz, 0);
        assert_eq!(records[0].flops, 0);
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
