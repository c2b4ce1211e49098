#!/bin/sh
# CI gate: release build, full test suite, lint-clean with warnings denied.
#
# Works fully offline: all external dependencies are path-resolved to the
# stand-ins under vendor/ (the build environment cannot reach crates.io),
# so no pre-warmed registry is required. Run from the repository root.
#
# The test suite runs once. Configuration lives in code: no library
# crate reads the environment, so a test's verdict cannot depend on what
# the shell exported. A configuration some code path is only reachable
# in is an input of the tests that cover it — dentry cache on and off
# (tests/dcache_coherence.rs, posix.rs, prop_fs.rs, stress.rs), delegation
# rings (tests/workloads.rs, schedmc_found.rs, obs_attribution.rs), and
# allocator shard counts 1, 2 and 8 (tests/fingerprint.rs). The guard
# below keeps it that way: it fails on any `env::var` under crates/*/src
# outside the bench harness (BENCH_ITERS/MILLIS/THREADS) and the schedmc
# CLI (ARCKFS_SCHEDMC_DEEP, which picks a leg below).
#
# The benchmark step runs the repository benchmark (BENCHMARK.json,
# benchmark/run.sh) at 1/20 of its counts, about half a minute, as a
# correctness gate: it builds benchmark/ against the crates' public
# surface and fails on a content mismatch, an fsck finding or a bad
# crash cut. Its timings are not read here. The benchmark refuses
# inherited ARCKFS_*/BENCH_* variables, so they are unset for it.
#
# The schedmc step exhaustively explores every 2-op interleaving of the
# explorer vocabulary at preemption bound 2 (seeded; four sweeps, each on
# a 45 s budget — the whole vocabulary, then the delegation, ranged-data
# and two-application hand-off pairs under the configuration that
# reaches them) and fails on any oracle verdict; coverage lands in
# results/obs_schedmc.json. ARCKFS_SCHEDMC_DEEP=1 adds the 3-op sweep at
# bound 3 (minutes, off by default). See DESIGN.md §7.
#
# The explorer classifies a participant as blocked when it has not
# reached a schedule point within a wall-clock grace (schedmc's
# QUIESCE_GRACE, 50 ms). That is a timeout standing in for a progress
# argument: on a loaded or two-core host a grace that is too short
# reports false [deadlock]/[diverged] schedules (10 ms did). ROADMAP
# item 12(b) owns the real fix — decide "blocked" from what the participant
# waits on, not from a clock.
#
# The fuzz step (DESIGN.md §13) runs the coverage-guided crash/schedule
# fuzzing smoke: 24 executions (about half a minute in release), seed
# 0xf12f, fully deterministic (same seed => byte-identical coverage
# fingerprints in results/obs_fuzz.json). It fails on any oracle or
# mined-invariant violation, on a campaign with zero new-coverage events,
# and whenever the fuzzer's (inject-point, crash-fingerprint) pair
# coverage does not beat the exhaustive bound-2 pair sweep on the same
# wall-clock budget. ARCKFS_SCHEDMC_DEEP=2 runs the nightly leg instead:
# a two-minute wall-clock budget, delegation rings on, no determinism
# claim.
set -eux

if grep -rn 'env::var' crates/*/src |
    grep -v -e '^crates/bench/' -e '^crates/schedmc/src/main.rs:'; then
    echo "ci: environment read outside the bench harness and the schedmc CLI" >&2
    exit 1
fi
cargo build --release
cargo test -q --workspace
(
    for v in $(env | sed -n -e 's/^\(ARCKFS_[A-Za-z0-9_]*\)=.*/\1/p' \
        -e 's/^\(BENCH_[A-Za-z0-9_]*\)=.*/\1/p'); do
        unset "$v"
    done
    bash benchmark/run.sh --quick
)
ARCKFS_SCHEDMC_DEEP=0 cargo run --release -q -p schedmc
if [ "${ARCKFS_SCHEDMC_DEEP:-0}" = "1" ]; then
    ARCKFS_SCHEDMC_DEEP=1 cargo run --release -q -p schedmc
fi
ARCKFS_SCHEDMC_DEEP=0 cargo run --release -q -p schedmc -- fuzz
if [ "${ARCKFS_SCHEDMC_DEEP:-0}" = "2" ]; then
    ARCKFS_SCHEDMC_DEEP=2 cargo run --release -q -p schedmc -- fuzz
fi
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
