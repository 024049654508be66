#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
# Run from the repository root before sending a change for review.
set -euo pipefail

cd "$(dirname "$0")/.."

# Stamp builds with the commit under test so gsu_build_info / /version can
# identify what was deployed (option_env! keeps builds working without it).
GSU_GIT_HASH="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export GSU_GIT_HASH

echo "==> cargo fmt --check ($(cargo fmt --version))"
# Style is pinned in rustfmt.toml so the check is toolchain-stable.
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings ($(cargo clippy --version))"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Rustdoc link gate: a dangling or private intra-doc link (one left behind
# by a deleted item, say) fails here. The vendored stand-ins are excluded,
# as they are from the line count below.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace \
    --exclude proptest --exclude rand

# The suite runs twice: once serial, once on a 4-wide pool. Results must be
# identical (the pool's determinism guarantee); the second run also exercises
# the parallel claim path of `map_indexed` under every test workload.
echo "==> cargo test -q (GSU_THREADS=1)"
GSU_THREADS=1 cargo test --offline --workspace -q

echo "==> cargo test -q (GSU_THREADS=4)"
GSU_THREADS=4 cargo test --offline --workspace -q

# Accuracy of the dense chain: the chained RMGd φ grid against a tight
# uniformization reference. The reference needs ~6e7 sparse steps (~7 s in
# release), so the test is #[ignore]d in the suites above.
echo "==> cargo test --release -- --ignored (dense chain accuracy)"
cargo test --offline --release -p performability --test dense_chain_accuracy -- --ignored

# The lumped G-OP measures at the stiff catalog horizons where the full
# chain's default solve is the less accurate side, against a tight
# full-chain uniformization reference (~6e7 sparse steps per horizon).
echo "==> cargo test --release -- --ignored (lumped stiff points)"
cargo test --offline --release -p gsu-scenario --test gop_single_pass -- --ignored

cargo build --offline --release -p gsu-serve -p gsu-bench -p gsu-lint --bins

# Examples: the suites above only compile them. Each drives the public API
# (GsuAnalysis, the SAN builders) end to end and must exit 0.
echo "==> examples"
cargo build --offline --release -p guarded-upgrade --examples
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "    $name"
    "target/release/examples/$name" > /dev/null
done

# Benchmark link gate: gsu-benchmark/ is a workspace of its own that links
# these crates through path dependencies, so a public-API change that breaks
# it fails here instead of when the benchmark next runs. The line count is
# the non-vendor Rust size the ROADMAP tracks.
echo "==> cargo build gsu-benchmark (--locked)"
CARGO_TARGET_DIR=target cargo build --offline --release --locked \
    --manifest-path gsu-benchmark/Cargo.toml
echo "non-vendor Rust lines: $(git ls-files '*.rs' \
    | grep -v -e '^crates/vendor/' -e '^gsu-benchmark/' | xargs cat | wc -l)"

# Benchmark answer gate: short traced runs of the paper figures and the
# scenario catalog. The benchmark checks its own answers (fig CSVs and the
# catalog goldens at 1e-9) and exits non-zero when any check fails. Both
# binaries were built into target/ above, so run.sh rebuilds nothing.
echo "==> gsu-benchmark run (figures, catalog)"
BENCH_OUT="$(mktemp -d)"
for workload in figures catalog; do
    CARGO_TARGET_DIR=target bash gsu-benchmark/run.sh --workload "$workload" \
        --seconds 2 --trace 1 --out "$BENCH_OUT"
done
# Benchmark work ratchet: the traced runs of the run set just written hold
# the per-layer work counters (markov.{spmv_ops,iterations,expm_solves},
# san.{states,nnz}) of each workload; none may exceed its
# benchmark:<workload> record in results/BENCH_baseline.json.
echo "==> gsu-bench regress (benchmark counters)"
target/release/gsu-bench regress --current "$BENCH_OUT/benchmark.json" --no-update
rm -rf "$BENCH_OUT"

# Static-analysis gate: the linter first proves it can catch seeded
# violations (self-test), then must find nothing deniable in the tree.
# --emit-telemetry refreshes results/lint-findings.jsonl for /metrics.
echo "==> gsu-lint self-test"
target/release/gsu-lint self-test

echo "==> gsu-lint --all"
target/release/gsu-lint --all --emit-telemetry

# Runtime sanitizer: replay fig9 + the smallest catalog scenarios under
# permuted worker schedules at 1/2/4 threads and diff bitwise. --quick
# keeps the stage comfortably inside a 10 s CI budget (measured ~0.1 s).
echo "==> gsu-lint sanitize --quick"
target/release/gsu-lint sanitize --quick

echo "==> gsu-lint jsonl round-trip"
LINT_JSONL="$(mktemp)"
target/release/gsu-lint --all --format jsonl > "$LINT_JSONL"
target/release/gsu-lint validate-jsonl "$LINT_JSONL"
rm -f "$LINT_JSONL"

# Observability smoke: boot the daemon on an ephemeral port, probe the
# endpoints a scraper would hit, and validate the exposition shape.
echo "==> gsu-serve smoke"
SERVE_LOG="$(mktemp)"
target/release/gsu-serve --addr 127.0.0.1:0 --workers 2 > "$SERVE_LOG" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$SERVE_LOG"' EXIT
SERVE_URL=""
for _ in $(seq 1 50); do
    SERVE_URL="$(sed -n 's#^gsu-serve listening on \(http://.*\)$#\1#p' "$SERVE_LOG")"
    [ -n "$SERVE_URL" ] && break
    sleep 0.1
done
[ -n "$SERVE_URL" ] || { echo "gsu-serve never reported its address"; exit 1; }
if command -v curl > /dev/null; then
    # The greps drain their input (no -q): under pipefail, grep -q exiting
    # at the first match can hand curl an EPIPE and fail a passing probe.
    curl -fsS "$SERVE_URL/healthz" | grep -x 'ok' >/dev/null
    curl -fsS "$SERVE_URL/metrics" | grep '^# TYPE gsu_' >/dev/null
    curl -fsS "$SERVE_URL/metrics" | grep '^gsu_lint_findings_total' >/dev/null
    curl -fsS "$SERVE_URL/metrics" | grep '^gsu_build_info{version=' >/dev/null
    curl -fsS "$SERVE_URL/version" | grep '"name":"gsu-serve"' >/dev/null
    # Request-scoped tracing round trip: the trace id /eval returns must
    # resolve to its span tree on /trace?id= and to a wide-event line
    # (with solver diagnostics) on /requests.
    EVAL_BODY="$(curl -fsS "$SERVE_URL/eval?phi=0.5")"
    echo "$EVAL_BODY" | grep '"y":' >/dev/null
    TRACE_ID="$(echo "$EVAL_BODY" | sed -n 's#.*"trace_id":"\([0-9a-f]*\)".*#\1#p')"
    [ -n "$TRACE_ID" ] || { echo "/eval returned no trace id: $EVAL_BODY"; exit 1; }
    curl -fsS "$SERVE_URL/trace?id=$TRACE_ID" | grep '"serve.eval"' >/dev/null
    curl -fsS "$SERVE_URL/requests" | grep "$TRACE_ID" | grep '"solves":\[' >/dev/null
    # Scenario route: the daemon runs from the workspace root, so the
    # committed catalog must be loaded and evaluable by name.
    curl -fsS "$SERVE_URL/eval?scenario=paper-baseline&phi=5000" \
        | grep '"scenario":"paper-baseline"' >/dev/null
    echo "curl probes ok ($SERVE_URL, trace $TRACE_ID)"
fi
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
# The built-in self-test re-validates every endpoint (including error paths)
# through the real TCP stack, with or without curl present.
target/release/gsu-serve smoke --workers 2

# Serving-SLO gate: boot the daemon from the workspace root (so the
# committed SLO.json and scenario catalog load), drive it with the seeded
# open-loop workload at the SLO's pinned rate, and gate on attainment,
# report shape, and client-vs-/stats quantile agreement. A closed-loop
# pass and a no-keepalive pass ride along to quantify capacity and the
# keep-alive win; only the open-loop keep-alive run feeds the ratchet.
echo "==> gsu-bench loadgen --check"
SERVE_LOG="$(mktemp)"
LOADGEN_DIR="$(mktemp -d)"
target/release/gsu-serve --addr 127.0.0.1:0 --workers 2 > "$SERVE_LOG" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$SERVE_LOG"; rm -rf "$LOADGEN_DIR"' EXIT
SERVE_ADDR=""
for _ in $(seq 1 50); do
    SERVE_ADDR="$(sed -n 's#^gsu-serve listening on http://\(.*\)$#\1#p' "$SERVE_LOG")"
    [ -n "$SERVE_ADDR" ] && break
    sleep 0.1
done
[ -n "$SERVE_ADDR" ] || { echo "gsu-serve never reported its address"; exit 1; }
target/release/gsu-bench loadgen --addr "$SERVE_ADDR" --mode open --duration 5 \
    --label open --report "$LOADGEN_DIR/loadgen-open.json" --check
target/release/gsu-bench loadgen --addr "$SERVE_ADDR" --mode closed --duration 2 \
    --report "$LOADGEN_DIR/loadgen-closed.json"
target/release/gsu-bench loadgen --addr "$SERVE_ADDR" --mode open --duration 2 \
    --no-keepalive --report "$LOADGEN_DIR/loadgen-nokeepalive.json"
if command -v curl > /dev/null; then
    curl -fsS "http://$SERVE_ADDR/stats" | grep '"schema":"gsu-stats-v1"' >/dev/null
    curl -fsS "http://$SERVE_ADDR/stats" | grep '"slos":\[{"endpoint":"/eval"' >/dev/null
fi
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true

# Serving-latency ratchet: the overall open-loop quantiles of the loadgen
# report just written must stay within 2x of the committed baseline
# (latency on a shared CI box is noisy, hence the wide threshold; the SLO
# attainment check above is the tight gate).
echo "==> gsu-bench regress (serve latency)"
target/release/gsu-bench regress --baseline results/BENCH_serve_baseline.json \
    --current "$LOADGEN_DIR/loadgen-open.json" --threshold 1.0 --no-update

# Flight-recorder round trip: a telemetry-enabled fig9 run must produce a
# Chrome trace that gsu-bench profile can rebuild into folded flamegraph
# stacks (`path;to;span N`) and a per-span self-time table.
echo "==> gsu-bench profile (fig9 flight recorder)"
PROFILE_DIR="$(mktemp -d)"
GSU_TELEMETRY=1 target/release/gsu-bench run fig9 --steps 4 --out "$PROFILE_DIR" > /dev/null
[ -s "$PROFILE_DIR/trace.json" ] || { echo "fig9 wrote no trace.json"; exit 1; }
FOLDED="$(target/release/gsu-bench profile --trace "$PROFILE_DIR/trace.json" --folded)"
echo "$FOLDED" | grep -Eq '^[^ ;]+(;[^ ;]+)+ [0-9]+$' \
    || { echo "profile emitted no nested folded stack:"; echo "$FOLDED"; exit 1; }
echo "$FOLDED" | grep -q 'markov.solve' \
    || { echo "profile shows no solver spans:"; echo "$FOLDED"; exit 1; }
target/release/gsu-bench profile --trace "$PROFILE_DIR/trace.json" --table \
    | grep -Eq '^span +count +total_us +self_us$' \
    || { echo "profile self-time table malformed"; exit 1; }
rm -rf "$PROFILE_DIR"

# Hot-path pin: fig12's 22-state models at long horizons are stiff, so
# their transients must stay on the dense matrix exponential. The pin is on
# the solver spans, not on the whole profile: fig12 runs no uniformization
# solve at all, and expm leads every other markov.solve.* span in self time.
# If uniformization (or another solver) creeps onto these horizons, the hot
# path drifted and this fails next to the wall/work ratchet.
echo "==> gsu-bench profile (fig12 hot-path pin)"
PROFILE_DIR="$(mktemp -d)"
GSU_TELEMETRY=1 target/release/gsu-bench run fig12 --steps 4 --out "$PROFILE_DIR" > /dev/null
[ -s "$PROFILE_DIR/trace.json" ] || { echo "fig12 wrote no trace.json"; exit 1; }
PROFILE_TABLE="$(target/release/gsu-bench profile --trace "$PROFILE_DIR/trace.json" --table)"
UNIFORMIZED="$(echo "$PROFILE_TABLE" | awk '$1 == "markov.solve.uniformization" {print $2}')"
[ -z "$UNIFORMIZED" ] \
    || { echo "fig12 ran $UNIFORMIZED uniformization solves, expected none"; exit 1; }
TOP_SOLVE="$(echo "$PROFILE_TABLE" \
    | awk '$1 ~ /^markov[.]solve[.]/ && top == "" {top = $1} END {print top}')"
[ "$TOP_SOLVE" = "markov.solve.expm" ] \
    || { echo "fig12 top solver span is '$TOP_SOLVE', expected markov.solve.expm"; exit 1; }
rm -rf "$PROFILE_DIR"

# Scenario-catalog gate: every committed .gsu scenario must reproduce its
# committed golden Y(phi) curve bit-tightly; the per-scenario timing/work
# records land in a temporary BENCH_sweep.json and feed the regress gate
# below. Pinned to one thread like the test stages: the baseline holds
# threads=1 scenario records, and regress only compares records of equal
# thread count.
echo "==> gsu-bench scenarios --check"
SWEEP_DIR="$(mktemp -d)"
GSU_THREADS=1 target/release/gsu-bench scenarios --check --out "$SWEEP_DIR"

# Bench regression gate: the scenario records just measured vs the committed
# baseline — wall time plus the deterministic work metrics (solver
# iterations, SpMV ops, a zero baseline included), so an algorithmic
# slowdown fails even when wall-clock noise hides it. --no-update keeps the
# gate read-only so the tree stays clean under CI.
echo "==> gsu-bench regress"
target/release/gsu-bench regress --current "$SWEEP_DIR/BENCH_sweep.json" --no-update
rm -rf "$SWEEP_DIR"

echo "All checks passed."
