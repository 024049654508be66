//! `gsu-bench scenarios` writes its timing records only under `--out`: a
//! goldens-only check leaves the tree it runs in untouched.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root (the catalog and the committed goldens).
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Every file under `dir`, relative to it, sorted.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        for entry in std::fs::read_dir(&next).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                pending.push(path);
            } else {
                files.push(path.strip_prefix(dir).unwrap().to_path_buf());
            }
        }
    }
    files.sort();
    files
}

#[test]
fn check_without_out_writes_no_file() {
    // A one-scenario copy of the default layout (`scenarios/`,
    // `results/golden/`), so a default write would land inside it.
    let tree = std::env::temp_dir().join(format!("gsu-scenarios-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tree);
    for file in [
        "scenarios/small-exact.gsu",
        "results/golden/small-exact.json",
    ] {
        let to = tree.join(file);
        std::fs::create_dir_all(to.parent().unwrap()).unwrap();
        std::fs::copy(Path::new(ROOT).join(file), to).expect("copy catalog file");
    }
    let before = files_under(&tree);

    let scenarios = |extra: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_gsu-bench"))
            .args(["scenarios", "--check"])
            .args(extra)
            .current_dir(&tree)
            .output()
            .expect("launch gsu-bench");
        assert!(
            output.status.success(),
            "scenarios --check {extra:?} failed: {}{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );
    };
    scenarios(&[]);
    assert_eq!(files_under(&tree), before, "a check without --out wrote");

    // With --out the records land there, and only there.
    scenarios(&["--out", "out"]);
    let sweep = std::fs::read_to_string(tree.join("out/BENCH_sweep.json")).expect("sweep log");
    assert!(sweep.contains("\"scenario:small-exact\""), "{sweep}");
    let mut expected = before;
    expected.push(PathBuf::from("out/BENCH_sweep.json"));
    expected.sort();
    assert_eq!(files_under(&tree), expected);
    let _ = std::fs::remove_dir_all(&tree);
}
