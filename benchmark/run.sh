#!/usr/bin/env bash
# Build the benchmark (release) and run it.
#
#   benchmark/run.sh [--seed N]            the suite: every workload untraced,
#                                          then traced; prints every metric
#   benchmark/run.sh --agree [--seed N]    the suite twice, compared against
#                                          the bounds; non-zero exit on a breach
#   benchmark/run.sh --quick               1/20 of the counts, smoke use only
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; last line of stdout is JSON
#
# Run it from anywhere; it reads and writes only inside the checkout
# (build output under $CARGO_TARGET_DIR, default benchmark/target; traces and
# result documents under benchmark/out).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
rev="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/arckfs-benchmark" --out "$here/out" --git-rev "$rev" "$@"
