#!/usr/bin/env bash
# Builds gsu-serve and gsu-benchmark from source, offline, into one target
# directory, then runs the benchmark with the given arguments:
#
#   bash gsu-benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. CARGO_TARGET_DIR picks the target
# directory (default: .bench_build); cargo's progress goes to stderr so the
# benchmark's last stdout line stays its JSON result.
set -euo pipefail

here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --offline --release --quiet --manifest-path Cargo.toml \
    -p gsu-serve --bin gsu-serve >&2
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/gsu-benchmark" run "$@"
