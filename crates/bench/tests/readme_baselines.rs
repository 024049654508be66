//! README's two baseline tables (scenario records and benchmark workloads)
//! quote `results/BENCH_baseline.json`: every row they show must equal the
//! committed record, column for column, so a re-bless that forgets the
//! README fails here.

use std::path::Path;

use gsu_bench::{read_bench_records, BenchRecord};

/// The repository root (README.md and `results/`).
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The cells of a markdown table row, trimmed, without the outer pipes.
fn cells(row: &str) -> Vec<&str> {
    let row = row.trim().trim_start_matches('|').trim_end_matches('|');
    row.split('|').map(str::trim).collect()
}

/// The markdown tables of `text` that follow `anchor`, up to the next
/// heading: each as its header cells and its body rows' cells.
fn tables_after<'a>(text: &'a str, anchor: &str) -> Vec<(Vec<&'a str>, Vec<Vec<&'a str>>)> {
    let start = text
        .find(anchor)
        .expect("README keeps its baseline paragraph");
    let mut tables = Vec::new();
    let mut lines = text[start..].lines().skip(1).peekable();
    while let Some(line) = lines.next() {
        if line.starts_with('#') {
            break;
        }
        if !line.starts_with('|') {
            continue;
        }
        let header = cells(line);
        lines.next(); // the alignment row
        let mut body = Vec::new();
        while let Some(row) = lines.next_if(|l| l.starts_with('|')) {
            body.push(cells(row));
        }
        tables.push((header, body));
    }
    tables
}

/// A cell's number: digits grouped by spaces, or a decimal.
fn number(cell: &str) -> f64 {
    cell.replace(' ', "")
        .parse()
        .unwrap_or_else(|e| panic!("cell {cell:?}: {e}"))
}

/// The committed value of `column` in `record`: `wall (ms)` is its wall
/// time, any other column (backticks stripped) a work counter.
fn committed_value(record: &BenchRecord, column: &str) -> f64 {
    if column == "wall (ms)" {
        return record.wall_ms.expect("a timed record");
    }
    let counter = column.trim_matches('`');
    record
        .counters
        .iter()
        .find(|(name, _)| name == counter)
        .unwrap_or_else(|| panic!("{}: no counter {counter}", record.name))
        .1
}

#[test]
fn readme_baseline_tables_equal_the_committed_records() {
    let readme = std::fs::read_to_string(Path::new(ROOT).join("README.md")).unwrap();
    let records = read_bench_records(&Path::new(ROOT).join("results/BENCH_baseline.json")).unwrap();
    let tables = tables_after(&readme, "Current committed single-threaded baselines");
    assert_eq!(
        tables.len(),
        2,
        "the scenario table and the benchmark table"
    );
    let mut rows = 0;
    for (header, body) in &tables {
        for row in body {
            assert_eq!(row.len(), header.len(), "{row:?}");
            // The benchmark table names its rows by workload alone.
            let label = row[0].trim_matches('`');
            let name = match header[0] {
                "benchmark workload" => format!("benchmark:{label}"),
                _ => label.to_string(),
            };
            let record = records
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("README row {name} has no committed record"));
            for (column, cell) in header.iter().zip(row).skip(1) {
                let (shown, committed) = (number(cell), committed_value(record, column));
                assert_eq!(shown, committed, "README {name} {column}: {cell}");
            }
            rows += 1;
        }
    }
    assert_eq!(rows, 6, "four scenario rows and two workload rows");
}
