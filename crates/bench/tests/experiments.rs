//! End-to-end tests of `gsu-bench run`: each experiment writes only under
//! `--out`, its CSV, markdown and DOT outputs match the committed
//! `results/` files byte for byte, it leaves no timing record, and
//! malformed invocations exit 2 through the usage path.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The committed results directory.
const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

fn gsu_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gsu-bench"))
        .args(args)
        .output()
        .expect("launch gsu-bench")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gsu-run-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one experiment into a fresh directory and returns it.
fn run_into_fresh_dir(name: &str) -> PathBuf {
    let out = fresh_dir(name);
    let output = gsu_bench(&["run", name, "--out", out.to_str().expect("utf-8 temp path")]);
    assert!(
        output.status.success(),
        "run {name} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    out
}

/// No experiment records timings, so none may leave a `BENCH_sweep.json`.
fn assert_no_timing_record(out: &Path, name: &str) {
    let sweep = out.join("BENCH_sweep.json");
    assert!(!sweep.exists(), "{name} wrote {}", sweep.display());
}

#[test]
fn outputs_match_the_committed_results() {
    let cases: &[(&str, &[&str])] = &[
        ("fig9", &["fig9.csv"]),
        ("fig10", &["fig10.csv"]),
        ("fig11", &["fig11.csv"]),
        ("fig12", &["fig12.csv"]),
        ("lowcov", &["lowcov.csv"]),
        ("tornado", &[]),
        ("report", &["analysis_report.md"]),
        (
            "export_dot",
            &[
                "rmgd_model.dot",
                "rmgd_states.dot",
                "rmgp_model.dot",
                "rmgp_states.dot",
                "rmnd_model.dot",
                "rmnd_states.dot",
            ],
        ),
    ];
    for (name, files) in cases {
        let out = run_into_fresh_dir(name);
        for file in *files {
            let got = std::fs::read(out.join(file))
                .unwrap_or_else(|e| panic!("{name} did not write {file}: {e}"));
            let want = std::fs::read(Path::new(RESULTS).join(file)).unwrap();
            assert!(got == want, "{name}: {file} differs from results/{file}");
        }
        assert_no_timing_record(&out, name);
        std::fs::remove_dir_all(&out).ok();
    }
}

#[test]
fn usage_errors_exit_2_and_list_the_experiments() {
    let out = fresh_dir("usage");
    let out_arg = out.to_str().expect("utf-8 temp path");
    for rest in [
        &[][..],
        &["nosuch"],
        &["fig9", "--bogus"],
        &["fig9", "--steps", "x"],
        &["fig9", "--steps", "0"],
        &["fig9", "--steps"],
        &["fig9", "fig10"],
        &["fig9", "--out"],
    ] {
        let args: Vec<&str> = ["run", "--out", out_arg]
            .into_iter()
            .chain(rest.iter().copied())
            .collect();
        let output = gsu_bench(&args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("usage:") && stderr.contains("fig9, fig10"),
            "{args:?}: {stderr}"
        );
    }
    assert!(!out.exists(), "a rejected invocation must not write output");
}
