#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, docs, tests, fault injection and
# the panic-free-library gate. A clean exit is the merge bar
# (referenced from README "Tests and benchmarks").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo test"
cargo test --workspace -q

echo "== benchmark unit tests (perfbench oracle + failure accounting)"
cargo test --manifest-path perfbench/Cargo.toml -q

echo "== fault injection"
cargo test -p ppdt-transform --test fault_injection -q

echo "== panic gate (library code must use typed errors)"
python3 scripts/panic_gate.py

echo "== deprecated-API gate (legacy encode free functions stay in their shim)"
python3 scripts/deprecated_gate.py

echo "== protocol gate (docs/PROTOCOL.md matches the serve router)"
python3 scripts/protocol_gate.py --self-check
python3 scripts/protocol_gate.py

echo "== bench trajectory (smoke) + regression gate self-check"
python3 scripts/bench_compare.py --self-check
smoke_out="$(mktemp /tmp/ppdt_traj_smoke.XXXXXX.json)"
serve_smoke_out="$(mktemp /tmp/ppdt_serve_smoke.XXXXXX.json)"
trap 'rm -f "$smoke_out" "$serve_smoke_out"' EXIT
scripts/bench_trajectory.sh --smoke --out "$smoke_out" --serve-out "$serve_smoke_out"
python3 scripts/bench_compare.py BENCH_PR3.json BENCH_PR3.json
python3 scripts/bench_compare.py BENCH_PR4.json BENCH_PR4.json
python3 scripts/bench_compare.py BENCH_PR5.json BENCH_PR5.json
python3 scripts/bench_compare.py BENCH_PR6.json BENCH_PR6.json
python3 scripts/bench_compare.py BENCH_PR8.json BENCH_PR8.json
python3 scripts/bench_compare.py BENCH_PR9.json BENCH_PR9.json

echo "== open-loop knee gate (committed BENCH_PR9.json found saturation)"
python3 scripts/bench_ingest.py --self-check
python3 scripts/bench_compare.py --require-knee BENCH_PR9.json

echo "== batched encode speedup floor (committed BENCH_PR8.json)"
python3 scripts/bench_compare.py \
  --min-ratio encode_compiled_batched_over_encode_compiled_per_value:2.5 \
  BENCH_PR8.json

echo "== warm-cache throughput floor (committed BENCH_PR5.json + BENCH_PR6.json)"
python3 scripts/bench_compare.py --warm-ratio 1.5 BENCH_PR5.json
python3 scripts/bench_compare.py --warm-ratio 1.5 BENCH_PR6.json

echo "== keep-alive throughput floor (committed BENCH_PR6.json)"
python3 scripts/bench_compare.py --keepalive-ratio 1.3 BENCH_PR6.json

echo "== serve daemon smoke (healthz, encode/classify round-trip, SIGTERM)"
cargo build --release -q -p ppdt-cli
python3 scripts/serve_smoke.py target/release/ppdt

echo "== cluster smoke (3-node convergence, SIGKILL failover, zero lost answers)"
python3 scripts/cluster_smoke.py target/release/ppdt

echo "== bencher smoke (open-loop low-rate run: achieved rate, CSV/JSON shape, ingest round-trip)"
cargo build --release -q -p ppdt-bencher
python3 scripts/bencher_smoke.py target/release/ppdt target/release/ppdt-bencher

echo "== all checks passed"
