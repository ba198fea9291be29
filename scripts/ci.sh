#!/usr/bin/env bash
# The full CI gate. Run from the repository root.
#
#   scripts/ci.sh
#
# Mirrors the acceptance bar for every PR: release build, full test
# suite, the perfbench self-test, clippy at zero warnings, rustfmt
# check, warning-free rustdoc, no public function without a non-test
# caller, no clock in library code, every example run to completion,
# BENCH_soak.json reproduced by a fresh soak run. The workspace vendors
# its two dependencies (crates/compat/*), so everything runs with
# --offline and no registry access, and with --locked, so a dependency
# edge that leaves Cargo.lock stale fails the gate instead of rewriting
# the lock.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --workspace --offline --locked

echo "== cargo test =="
cargo test -q --workspace --offline --locked

# perfbench is a workspace of its own, so the steps above never compile
# it; a library API change could otherwise break the benchmark silently.
# --locked and the target dir leave perfbench/ untouched.
echo "== perfbench self-test =="
CARGO_TARGET_DIR=target/perfbench cargo test --release --offline --locked \
  --manifest-path perfbench/Cargo.toml

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --all -- --check

# rustdoc only warns on a broken or private intra-doc link; deny them
# so a renamed or removed item cannot leave dangling doc links behind.
echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked

echo "== dead public API (scripts/dead_api_allowlist.txt) =="
python3 scripts/check_dead_api.py

# Library code is deterministic: it counts logical ticks and never
# reads a clock. Only the bench binaries (experiments, soak) time
# their runs, so every artifact built from the libraries replays
# byte-identically.
echo "== no clock in library code =="
if git grep -nE '\b(Instant|SystemTime)\b|std::time' -- \
  'crates/*/src/*.rs' 'src/*.rs' ':!crates/bench/src/bin/*'; then
  echo "library code reads a clock (lines above); time runs in crates/bench/src/bin only"
  exit 1
fi

# `cargo test` only compiles the examples; run each one, so an example
# that panics or exits non-zero fails the gate.
echo "== examples (release) =="
for example in examples/*.rs; do
  cargo run --release --offline --locked -q --example "$(basename "$example" .rs)" > /dev/null
done

# E7 is hand-kept (the drift check skips it) and E20 has its own step.
echo "== experiment smoke (E1–E6, E8–E19, E21 @ seed 42 vs EXPERIMENTS.md) =="
rm -f target/experiment-smoke.txt
for exp in e1 e2 e3 e4 e5 e6 e8 e9 e10 e11 e12 e13 e14 e15 e16 e17 e18 e19 e21; do
  cargo run --release --offline --locked -q -p nlidb-bench --bin experiments -- \
    --exp "$exp" --seed 42 >> target/experiment-smoke.txt
done
python3 scripts/check_experiment_drift.py target/experiment-smoke.txt

echo "== soak smoke (E20 @ 10^4 + BENCH_soak.json schema) =="
cargo run --release --offline --locked -q -p nlidb-bench --bin experiments -- \
  --exp e20 --seed 42 --soak-requests 10000 > target/soak-smoke.txt
rm -f target/soak-smoke.json
cargo run --release --offline --locked -q -p nlidb-bench --bin soak -- \
  --seed 42 --requests 10000 --out target/soak-smoke.json --git ci-smoke \
  2> /dev/null
python3 scripts/check_bench_json.py target/soak-smoke.json
python3 scripts/check_bench_json.py BENCH_soak.json

# The schema check above cannot see a moved digest. Soak runs count
# logical ticks only, so a fresh run at the committed seed and scale
# must reproduce BENCH_soak.json's last line field for field.
echo "== soak reproduction (10^5 @ seed 42 vs BENCH_soak.json) =="
rm -f target/soak-fresh.json
cargo run --release --offline --locked -q -p nlidb-bench --bin soak -- \
  --seed 42 --requests 100000 --out target/soak-fresh.json --git ci-fresh \
  2> /dev/null
python3 scripts/check_bench_json.py --reproduced-by target/soak-fresh.json

echo "== perf-drift gate (perfgate @ seed 42 vs scripts/perf_baseline_seed42.txt) =="
python3 scripts/check_perf_drift.py

echo "CI gate passed."
