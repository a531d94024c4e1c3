#!/usr/bin/env bash
# Local CI gate: build, test, format, lint.
#
# Build and test failures always fail the script (the tier-1 gate).
# fmt/clippy findings are advisory by default — the inherited tree is
# not yet rustfmt-clean and lint surface varies with toolchains — and
# become fatal with STRICT=1. Offline-friendly: pass extra cargo args
# (e.g. --offline) via CARGO_ARGS.
set -uo pipefail
cd "$(dirname "$0")/.."

CARGO_ARGS=${CARGO_ARGS:-}
STRICT=${STRICT:-0}
rc=0

run() {
  echo "==> $*"
  "$@"
}

advisory() {
  echo "==> $* (advisory)"
  if ! "$@"; then
    if [ "$STRICT" = "1" ]; then
      rc=1
    else
      echo "    ^ not fatal (set STRICT=1 to enforce)"
    fi
  fi
}

# Hermetic-build gate: the workspace builds from path dependencies
# alone, and nobody reintroduces a stubbed external crate. The source
# grep is scoped to `use`/`extern` lines so prose mentions in comments
# and docs stay legal.
echo "==> stub-dependency grep gate"
if grep -rnE '^\s*(use|extern crate)\s+(proptest|rayon|serde|serde_json|crossbeam|parking_lot|rand|criterion)\b' \
    --include='*.rs' crates/ src/ tests/ 2>/dev/null; then
  echo "    external stub dependency reintroduced (framework lives in paratick_sim::propcheck / paratick::sweep)"
  exit 1
fi
if grep -nE '(proptest|rayon|serde|crossbeam|parking_lot|criterion)' Cargo.toml crates/*/Cargo.toml; then
  echo "    external dependency reappeared in a manifest"
  exit 1
fi
echo "    ok (no external stub crates in sources or manifests)"

run cargo build --release --workspace $CARGO_ARGS || exit 1
run cargo test -q --workspace $CARGO_ARGS || exit 1

# Property suites under a pinned seed and budget: propcheck must be
# deterministic for a fixed PARATICK_PROP_SEED, and every ported
# property must actually execute generated cases (the per-suite budget
# canaries assert the executed-case counters). Running the prop tests
# twice under the same seed and diffing would only re-test propcheck's
# own self-tests, so one pinned pass is the gate here.
PROP_SEED=${PROP_SEED:-0x5EED0001C0DE0001}
PROP_CASES=${PROP_CASES:-64}
echo "==> property suites (PARATICK_PROP_SEED=$PROP_SEED, PARATICK_PROP_CASES=$PROP_CASES)"
if ! PARATICK_PROP_SEED="$PROP_SEED" PARATICK_PROP_CASES="$PROP_CASES" \
    cargo test -q --workspace $CARGO_ARGS prop > /tmp/paratick-prop-gate.txt 2>&1; then
  echo "    property suites failed under the pinned seed:"
  grep -B2 -A12 -m2 'propcheck\]\|panicked' /tmp/paratick-prop-gate.txt | head -40
  exit 1
fi
echo "    ok ($(grep -c 'test result: ok' /tmp/paratick-prop-gate.txt) suites green under the pinned seed)"

# Fault-injection smoke: a full campaign over a real artefact binary
# must complete, exit 0 and stay audit-clean (the binary prints the
# audit report; a violation or panic fails here).
echo "==> PARATICK_FAULTS=campaign smoke run"
if ! PARATICK_FAULTS=campaign \
    cargo run --release -q -p paratick-bench --bin paratick $CARGO_ARGS \
    -- inspect parsec:dedup 1 > /tmp/paratick-faults-smoke.txt 2>&1; then
  echo "    fault campaign smoke run failed:"
  tail -20 /tmp/paratick-faults-smoke.txt
  exit 1
fi
if grep -q "violation" /tmp/paratick-faults-smoke.txt; then
  echo "    audit violations under fault campaign:"
  grep -A5 "violation" /tmp/paratick-faults-smoke.txt
  exit 1
fi
echo "    ok ($(grep -m1 'faults:' /tmp/paratick-faults-smoke.txt || echo 'no faults line'))"

# Outcome-pin smoke: the benchmark's own tests, then a short pass of
# each benchmark workload. table1-synth checks every run's outcome
# digest against perfbench/pins.txt and W1/W2 periodic timer exits
# against analytic::table1(); grid-warm pins the fig4/5/6 grid, the
# only place the PARSEC, fio and block-device samplers draw. Each pass's
# last line must report correct with no failed operations. This only
# runs perfbench; it edits nothing under it.
echo "==> perfbench outcome-pin smoke (table1-synth, grid-warm)"
run cargo test -q --manifest-path perfbench/Cargo.toml $CARGO_ARGS || exit 1
for workload in table1-synth grid-warm; do
  out=/tmp/paratick-perfbench-smoke-$workload
  if ! cargo run --release -q --manifest-path perfbench/Cargo.toml $CARGO_ARGS \
      -- --workload $workload --seed 0 --seconds 2 --trace 0 \
      > $out.txt 2> $out.err; then
    echo "    perfbench $workload failed:"; tail -20 $out.err; exit 1
  fi
  last=$(tail -1 $out.txt)
  if ! grep -q '"correct": true' <<< "$last" || ! grep -q '"failed": 0,' <<< "$last"; then
    echo "    $workload: outcome pins or cross-checks failed: $last"
    tail -20 $out.err
    exit 1
  fi
done
echo "    ok (pinned Table 1 and grid outcome digests and analytic::table1() match)"

# Run-cache acceptance: a cold `paratick all` populates a fresh cache;
# the warm rerun must serve every simulation from it (hits == runs in
# the summary) and emit byte-identical Comparison JSON. Wall-clock of
# the warm pass is reported but only advisory — cargo/FS noise at tiny
# CHECK_SCALE can make timing flip without caching being broken.
echo "==> run-cache cold/warm acceptance (paratick all)"
CHECK_SCALE=${CHECK_SCALE:-0.25}
ACCEPT_DIR=$(mktemp -d /tmp/paratick-cache-check.XXXXXX)
run_all_pass() { # $1 = json artifact subdir
  env PARATICK_SCALE="$CHECK_SCALE" \
      PARATICK_CACHE_DIR="$ACCEPT_DIR/cache" \
      PARATICK_JSON="$ACCEPT_DIR/$1" \
      cargo run --release -q -p paratick-bench --bin paratick $CARGO_ARGS -- all \
      > "$ACCEPT_DIR/$1.txt" 2> "$ACCEPT_DIR/$1.err"
}
cold_start=$(date +%s%N)
if ! run_all_pass cold; then
  echo "    cold 'paratick all' failed:"; tail -20 "$ACCEPT_DIR/cold.err"; exit 1
fi
cold_ms=$(( ($(date +%s%N) - cold_start) / 1000000 ))
warm_start=$(date +%s%N)
if ! run_all_pass warm; then
  echo "    warm 'paratick all' failed:"; tail -20 "$ACCEPT_DIR/warm.err"; exit 1
fi
warm_ms=$(( ($(date +%s%N) - warm_start) / 1000000 ))
summary=$(grep -A1 'run-cache summary' "$ACCEPT_DIR/warm.txt" | tail -1)
hits=$(echo "$summary" | awk '{print $1}')
runs=$(echo "$summary" | awk '{print $(NF-1)}')
if [ -z "$hits" ] || [ "$hits" != "$runs" ]; then
  echo "    warm run did not hit on every simulation: $summary"; exit 1
fi
if ! diff -r "$ACCEPT_DIR/cold" "$ACCEPT_DIR/warm" > /dev/null; then
  echo "    warm-cache artifacts differ from the cold run:"
  diff -r "$ACCEPT_DIR/cold" "$ACCEPT_DIR/warm" | head -20; exit 1
fi
if [ "$warm_ms" -ge "$cold_ms" ]; then
  # Advisory only: hits == runs and the artifact diff above are the
  # real acceptance criteria; wall-clock is load-sensitive.
  echo "    warning: warm rerun (${warm_ms}ms) not faster than cold (${cold_ms}ms) — timing is advisory, not enforced"
fi
echo "    ok ($summary; cold ${cold_ms}ms -> warm ${warm_ms}ms; artifacts byte-identical)"
rm -rf "$ACCEPT_DIR"

# Paper-fidelity smoke: the quick validation suite (5 replicates per
# cell over the smoke subset) must come back without a fail verdict.
echo "==> paratick validate --quick smoke"
if ! cargo run --release -q -p paratick-bench --bin paratick $CARGO_ARGS \
    -- validate --quick --quiet > /tmp/paratick-validate-smoke.txt 2>&1; then
  echo "    quick validation failed:"
  tail -25 /tmp/paratick-validate-smoke.txt
  exit 1
fi
echo "    ok ($(grep -m1 'overall:' /tmp/paratick-validate-smoke.txt || echo 'no overall line'))"

# Perf gate self-check: measure the engine once and compare the snapshot
# against itself — must report zero regressions and exit 0. The bench
# file is kept (BENCH_DIR, default target/bench) so CI can archive it.
echo "==> paratick bench -> compare self-comparison"
BENCH_DIR=${BENCH_DIR:-target/bench}
mkdir -p "$BENCH_DIR"
if ! cargo run --release -q -p paratick-bench --bin paratick $CARGO_ARGS \
    -- bench --label ci --runs 3 --out "$BENCH_DIR" \
    > /tmp/paratick-bench-smoke.txt 2>&1; then
  echo "    bench failed:"; tail -20 /tmp/paratick-bench-smoke.txt; exit 1
fi
if ! cargo run --release -q -p paratick-bench --bin paratick $CARGO_ARGS \
    -- compare "$BENCH_DIR/BENCH_ci.json" "$BENCH_DIR/BENCH_ci.json" \
    > /tmp/paratick-compare-smoke.txt 2>&1; then
  echo "    self-comparison reported a regression:"
  tail -20 /tmp/paratick-compare-smoke.txt
  exit 1
fi
echo "    ok ($(grep -m1 'verdict:' /tmp/paratick-compare-smoke.txt); snapshot in $BENCH_DIR)"

if cargo fmt --version >/dev/null 2>&1; then
  advisory cargo fmt --all --check
else
  echo "==> cargo fmt not installed; skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
  # The engine and hypervisor crates are lint-clean and stay that way.
  run cargo clippy -p paratick -p paratick-vmm $CARGO_ARGS -- -D warnings || exit 1
  # The rest of the tree is advisory until it catches up.
  advisory cargo clippy --workspace $CARGO_ARGS -- -D warnings
else
  echo "==> cargo clippy not installed; skipping"
fi

[ "$rc" = 0 ] && echo "OK"
exit "$rc"
