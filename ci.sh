#!/bin/sh
# CI gate: release build, full test suite, lint-clean with warnings denied.
#
# Works fully offline: all external dependencies are path-resolved to the
# stand-ins under vendor/ (the build environment cannot reach crates.io),
# so no pre-warmed registry is required. Run from the repository root.
#
# The test suite runs three times, each leg a configuration some code
# path is only reachable in:
#   * default — dentry cache on, inline data path (no delegation rings);
#   * ARCKFS_DCACHE=0 — the plain locked walk under the lock-free
#     resolution path stays green on its own;
#   * ARCKFS_DELEG_RINGS=4 — the per-core SQ/CQ ring runtime arbitrates
#     every large write (DESIGN.md §10).
# Allocator shard counts (1, 2, 8; DESIGN.md §9) are covered inside the
# suite by tests/fingerprint.rs, not by a leg of their own.
#
# Three bench smokes each assert a deterministic count: alloc_scale the
# sharding win (>= 4x busiest-shard lock-acquisition reduction at 8
# shards); delegate_scale the drain-batch amortization
# (fences/op falling as the batch grows); shared_file the data path's
# lock counts (at least one range-lock acquisition and zero whole-object
# lock acquisitions per overwrite).
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
# reached a schedule point within a wall-clock grace
# (ARCKFS_SCHEDMC_GRACE_MS, default 50). That is a timeout standing in
# for a progress argument: on a loaded or two-core host a grace that is
# too short reports false [deadlock]/[diverged] schedules (10 ms did,
# here). 50 ms is a stop-gap so this gate can be green; ROADMAP item 1
# owns the real fix — decide "blocked" from what the participant waits
# on, not from a clock — and the override stays until then.
#
# The fuzz step (DESIGN.md §13) runs the coverage-guided crash/schedule
# fuzzing smoke: exec-bounded (ARCKFS_FUZZ_EXECS, default 24 — about
# half a minute in release), seeded (ARCKFS_FUZZ_SEED), fully
# deterministic (same seed => byte-identical coverage fingerprints in
# results/obs_fuzz.json). It fails on any oracle or mined-invariant
# violation, on a campaign with zero new-coverage events, and whenever
# the fuzzer's (inject-point, crash-fingerprint) pair coverage does not
# beat the exhaustive bound-2 pair sweep on the same wall-clock budget.
# ARCKFS_SCHEDMC_DEEP=2 runs the nightly leg instead: wall-clock
# budgeted (ARCKFS_FUZZ_BUDGET_MS, default two minutes), delegation
# rings on, no determinism claim.
set -eux

cargo build --release
cargo test -q --workspace
ARCKFS_DCACHE=0 cargo test -q --workspace
ARCKFS_DELEG_RINGS=4 cargo test -q --workspace
BENCH_ITERS=2000 cargo run --release -q -p bench --bin alloc_scale
BENCH_ITERS=2000 cargo run --release -q -p bench --bin delegate_scale
BENCH_ITERS=2000 cargo run --release -q -p bench --bin shared_file
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
