#!/usr/bin/env bash
# Build runbms from this checkout, then run the sweep benchmark with the
# given flags (--workload NAME --seed N --seconds S --trace 0|1).
# Run from the repository root. Cargo output goes to stderr, so the
# benchmark's result line stays the last line of stdout.
set -euo pipefail
cargo build --release --quiet --offline --manifest-path Cargo.toml -p chopin-harness --bin runbms 1>&2
exec cargo bench --quiet --offline --manifest-path sweepbench/Cargo.toml --bench sweep -- "$@"
