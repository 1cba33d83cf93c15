#!/usr/bin/env bash
# Build the benchmark, run the suite, compare against the seed's numbers.
# The comparison is advisory: its exit code is printed, not returned, because
# a shared CI host is noisier than the bounds. Run from the repo root.
#
# Wiring this into .github/workflows/ci.yml is outside the benchmark's paths.
set -euo pipefail

manifest=benchmark/Cargo.toml
out=benchmark/out/ci.json
mkdir -p benchmark/out

cargo build --release --offline --manifest-path "$manifest" --bin bench
cargo run --release --offline --quiet --manifest-path "$manifest" --bin bench -- \
    suite --json "$out" "$@"

set +e
cargo run --release --offline --quiet --manifest-path "$manifest" --bin bench -- \
    compare benchmark/baseline/seed.json "$out"
echo "bench compare exit code: $? (0 = nothing worse than the seed, 1 = see WORSE lines)"
