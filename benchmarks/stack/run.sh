#!/bin/sh
# The one command of the benchmark, from anywhere:
#   benchmarks/stack/run.sh --workload index_plus --seed 7
#   benchmarks/stack/run.sh --all --quick        # the < 10 s smoke
#   benchmarks/stack/run.sh --all --trace        # per-layer ledger + out/trace_*.json
# Builds offline into benchmarks/stack/target (or $CARGO_TARGET_DIR).
set -eu
here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
