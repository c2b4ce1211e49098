#![warn(missing_docs)]

//! Calibrated scalability model.
//!
//! The paper's scalability figures (Figure 4, Table 2) were measured on a
//! 48-core dual-socket server. This reproduction runs on whatever the host
//! provides (possibly a single core), so the benchmark harness reports two
//! things side by side:
//!
//! 1. **measured** throughput with real threads (which exercises every
//!    synchronization path but cannot exceed the host's core count), and
//! 2. **modelled** throughput at the paper's thread counts, from a
//!    Universal-Scalability-Law curve calibrated with *measured*
//!    single-thread cost and *measured* per-operation synchronization
//!    profile (shared-lock acquisitions, fences, kernel crossings — all
//!    counted organically by the implementations).
//!
//! USL: `X(N) = N / (T1 · (1 + σ·(N−1) + κ·N·(N−1)))`, where `σ` is the
//! serialized fraction of an operation (contention) and `κ` the coherence
//! (crosstalk) penalty. `σ` is estimated structurally:
//!
//! * operations on **private** objects contend only on allocator pools and
//!   global counters — a small baseline;
//! * operations on a **shared directory** serialize on that directory's
//!   lock(s): a kernel file system holds *one* parent-inode mutex for
//!   nearly the whole operation (σ → the op's lock-covered fraction),
//!   while ArckFS spreads the same work over its per-bucket locks, dividing
//!   the contended fraction by the bucket count (§2.2's design point);
//! * **read-mostly same-object** workloads serialize only on cache-line
//!   coherence (κ), not on locks.
//!
//! This is a model, not a measurement — DESIGN.md documents it as the
//! substitution for the paper's 48-core testbed — but every input except
//! the two USL shape constants is measured from the running system.

use serde::{Deserialize, Serialize};

/// What an operation contends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SharingLevel {
    /// Per-thread private objects (FxMark's `*L` workloads).
    Private,
    /// One directory shared by all threads (`*M` workloads).
    SharedDir,
    /// One object accessed read-mostly by all threads (`MRPH`).
    SameObject,
}

/// Which locking structure the file system uses for the shared object.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LockStructure {
    /// A single lock covers the shared object for most of the operation
    /// (kernel file systems' parent-inode mutex).
    SingleLock {
        /// Fraction of the operation spent under that lock.
        covered_fraction: f64,
    },
    /// The shared object is partitioned over `partitions` locks, each
    /// covering `covered_fraction` of the operation (ArckFS's per-bucket
    /// locks and per-tail logs).
    Partitioned {
        /// Number of lock partitions (hash buckets × tails).
        partitions: usize,
        /// Fraction of the operation under any one of them.
        covered_fraction: f64,
    },
    /// Reads take no lock at all (RCU / lock-free cached reads).
    LockFree,
}

/// Per-operation synchronization profile, measured by the harness.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OpStats {
    /// Cache-line flushes per operation.
    pub flushes: f64,
    /// Store fences per operation.
    pub fences: f64,
    /// Kernel crossings per operation.
    pub syscalls: f64,
    /// Shared-lock acquisitions per operation.
    pub lock_acqs: f64,
}

/// Predicted store fences per operation when `batch_ops` operations share
/// `fences_per_batch` ordering points (a delegation drain batch fences
/// once for all its jobs). Fences an implementation still issues outside
/// the batch add on top, so measured columns converge to this plus a
/// constant residual.
pub fn amortized_fences(fences_per_batch: f64, batch_ops: usize) -> f64 {
    fences_per_batch / batch_ops.max(1) as f64
}

/// A calibrated per-(file-system, workload) operation profile.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OpProfile {
    /// Measured single-thread cost, µs per operation.
    pub t1_us: f64,
    /// USL contention parameter σ.
    pub sigma: f64,
    /// USL coherence parameter κ.
    pub kappa: f64,
}

/// Baseline serialized fraction for private-object operations (allocator
/// pools, statistics counters).
const SIGMA_FLOOR: f64 = 0.004;
/// Coherence penalty per shared cache-line writer (per fence on a shared
/// object, scaled).
const KAPPA_PER_SHARED_FENCE: f64 = 4e-5;
/// Coherence floor for read-mostly sharing (cache-line bouncing of the
/// object's metadata).
const KAPPA_FLOOR_SAME_OBJECT: f64 = 2e-4;

impl OpProfile {
    /// Calibrate a profile from measurements and the structural facts.
    pub fn estimate(
        t1_us: f64,
        sharing: SharingLevel,
        locks: LockStructure,
        stats: OpStats,
    ) -> OpProfile {
        let (sigma, kappa) = match sharing {
            SharingLevel::Private => (SIGMA_FLOOR, SIGMA_FLOOR * 1e-3),
            SharingLevel::SharedDir => match locks {
                LockStructure::SingleLock { covered_fraction } => (
                    covered_fraction.clamp(0.0, 1.0),
                    KAPPA_PER_SHARED_FENCE * stats.fences.max(1.0),
                ),
                LockStructure::Partitioned {
                    partitions,
                    covered_fraction,
                } => (
                    (covered_fraction / partitions.max(1) as f64) + SIGMA_FLOOR,
                    KAPPA_PER_SHARED_FENCE * stats.fences.max(1.0) / partitions.max(1) as f64,
                ),
                LockStructure::LockFree => (SIGMA_FLOOR, KAPPA_FLOOR_SAME_OBJECT),
            },
            SharingLevel::SameObject => match locks {
                LockStructure::LockFree => (SIGMA_FLOOR, KAPPA_FLOOR_SAME_OBJECT),
                LockStructure::SingleLock { covered_fraction } => (
                    (covered_fraction * 0.3).clamp(0.0, 1.0), // read lock: shared mode
                    KAPPA_FLOOR_SAME_OBJECT * 2.0,
                ),
                LockStructure::Partitioned { .. } => (SIGMA_FLOOR * 2.0, KAPPA_FLOOR_SAME_OBJECT),
            },
        };
        OpProfile {
            t1_us,
            sigma,
            kappa,
        }
    }

    /// Like [`OpProfile::estimate`], but anchored on a **measured**
    /// serialized fraction instead of the structural constants alone.
    ///
    /// `pm_serial_fraction` is the share of the operation's wall-clock
    /// spent in inherently ordered persistence work (cache-line flushes
    /// and store fences). The benchmark harness derives it organically
    /// from the obs attribution tables: per-op `clwb`/`sfence` counts
    /// (from the span deltas) priced by the device's `LatencyModel`,
    /// divided by the span latency histogram's mean. Persistence done
    /// under a shared lock serializes other threads, so it raises σ —
    /// scaled down by the partition count for partitioned locks, and not
    /// at all for private objects or lock-free reads.
    pub fn estimate_measured(
        t1_us: f64,
        sharing: SharingLevel,
        locks: LockStructure,
        stats: OpStats,
        pm_serial_fraction: f64,
    ) -> OpProfile {
        let mut p = OpProfile::estimate(t1_us, sharing, locks, stats);
        let pm = pm_serial_fraction.clamp(0.0, 1.0);
        let covered = match (sharing, locks) {
            (SharingLevel::Private, _) => 0.0,
            (_, LockStructure::SingleLock { .. }) => pm,
            (_, LockStructure::Partitioned { partitions, .. }) => {
                pm / partitions.max(1) as f64
            }
            (_, LockStructure::LockFree) => 0.0,
        };
        p.sigma = p.sigma.max(SIGMA_FLOOR + covered);
        p
    }

    /// Profile for a **delegated data operation** (§2.2/§5.2's I/O
    /// delegation), so the 48-thread USL projection covers the data path
    /// and not just metadata.
    ///
    /// Structure: submitters contend only on the per-ring enqueue word, so
    /// the data path behaves like a shared object partitioned over `rings`
    /// submission queues, with `worker_fraction` the share of the op spent
    /// in the serialized enqueue/complete protocol (measured as the
    /// submit-side overhead divided by the whole op, typically small). The
    /// fence column is the amortization rule applied to the drain batch:
    /// `chunks_per_op` non-temporal store streams sharing one `sfence` per
    /// `drain_batch` jobs, plus the caller's size-commit fence.
    pub fn delegated_data(
        t1_us: f64,
        rings: usize,
        chunks_per_op: f64,
        drain_batch: usize,
        worker_fraction: f64,
    ) -> OpProfile {
        let stats = OpStats {
            flushes: 0.0,
            fences: amortized_fences(chunks_per_op, drain_batch) + 1.0,
            syscalls: 0.0,
            lock_acqs: chunks_per_op,
        };
        OpProfile::estimate(
            t1_us,
            SharingLevel::SharedDir,
            LockStructure::Partitioned {
                partitions: rings.max(1),
                covered_fraction: worker_fraction.clamp(0.0, 1.0),
            },
            stats,
        )
    }

    /// Profile for a **ranged write to one shared file** (ISSUE 7's
    /// extent-tree + range-lock data path), so the 48-thread projection
    /// covers FxMark's DWOM shape: N writers, disjoint byte ranges, one
    /// file.
    ///
    /// Structure: with range locks the writers serialize only on the
    /// per-inode interval table (a short critical section) and on the
    /// shared size/extent metadata — a shared object partitioned over
    /// `ranges` concurrently-held intervals, with `serial_fraction` the
    /// **measured** share of the op spent under the table or the meta
    /// lock (the `shared_file` bench derives it from the lock-acquisition
    /// counters and the span latencies). A whole-file lock is this same
    /// profile with `ranges == 1` and the lock-covered fraction as the
    /// serial share.
    pub fn ranged_write(
        t1_us: f64,
        ranges: usize,
        fences_per_op: f64,
        serial_fraction: f64,
    ) -> OpProfile {
        let stats = OpStats {
            flushes: 1.0,
            fences: fences_per_op,
            syscalls: 0.0,
            lock_acqs: 1.0,
        };
        OpProfile::estimate_measured(
            t1_us,
            SharingLevel::SharedDir,
            LockStructure::Partitioned {
                partitions: ranges.max(1),
                covered_fraction: serial_fraction.clamp(0.0, 1.0),
            },
            stats,
            serial_fraction,
        )
    }

    /// Modelled throughput at `threads`, in operations per second.
    pub fn throughput(&self, threads: usize) -> f64 {
        let n = threads as f64;
        let denom = 1.0 + self.sigma * (n - 1.0) + self.kappa * n * (n - 1.0);
        n / (self.t1_us * 1e-6 * denom)
    }

    /// Modelled curve over the given thread counts.
    pub fn curve(&self, threads: &[usize]) -> Vec<(usize, f64)> {
        threads.iter().map(|&n| (n, self.throughput(n))).collect()
    }

    /// The thread count at which throughput peaks (USL's optimum).
    pub fn peak_threads(&self) -> f64 {
        if self.kappa <= 0.0 {
            return f64::INFINITY;
        }
        ((1.0 - self.sigma) / self.kappa).sqrt()
    }
}

/// The paper's Figure 4 thread counts.
pub fn paper_thread_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 28, 48]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> OpStats {
        OpStats {
            flushes: 4.0,
            fences: 3.0,
            syscalls: 0.0,
            lock_acqs: 3.0,
        }
    }

    #[test]
    fn amortized_fences_scale_with_batch() {
        assert_eq!(amortized_fences(3.0, 1), 3.0);
        assert_eq!(amortized_fences(3.0, 8), 0.375);
        // Degenerate batch sizes never divide by zero.
        assert_eq!(amortized_fences(3.0, 0), 3.0);
    }

    #[test]
    fn single_thread_matches_t1() {
        let p = OpProfile {
            t1_us: 2.0,
            sigma: 0.1,
            kappa: 0.001,
        };
        assert!((p.throughput(1) - 500_000.0).abs() < 1.0);
    }

    #[test]
    fn measured_serial_fraction_raises_sigma() {
        let locks = LockStructure::SingleLock {
            covered_fraction: 0.1,
        };
        let base = OpProfile::estimate(1.0, SharingLevel::SharedDir, locks, stats());
        let meas =
            OpProfile::estimate_measured(1.0, SharingLevel::SharedDir, locks, stats(), 0.6);
        assert!(
            meas.sigma > base.sigma,
            "a dominant measured PM-serial fraction must dominate the guess"
        );
        // Partitioned locks dilute the measured fraction.
        let part = LockStructure::Partitioned {
            partitions: 64,
            covered_fraction: 0.6,
        };
        let pm = OpProfile::estimate_measured(1.0, SharingLevel::SharedDir, part, stats(), 0.64);
        assert!(pm.sigma < 0.02, "sigma={} should be diluted by 64", pm.sigma);
        // Private objects ignore it entirely.
        let priv_ = OpProfile::estimate_measured(1.0, SharingLevel::Private, locks, stats(), 0.9);
        let priv_base = OpProfile::estimate(1.0, SharingLevel::Private, locks, stats());
        assert_eq!(priv_.sigma, priv_base.sigma);
        // And it never exceeds a full serialization.
        let capped =
            OpProfile::estimate_measured(1.0, SharingLevel::SharedDir, locks, stats(), 7.0);
        assert!(capped.sigma <= 1.0 + SIGMA_FLOOR);
    }

    #[test]
    fn private_ops_scale_nearly_linearly() {
        let p = OpProfile::estimate(1.0, SharingLevel::Private, LockStructure::LockFree, stats());
        let x1 = p.throughput(1);
        let x48 = p.throughput(48);
        assert!(
            x48 > 38.0 * x1,
            "private ops must scale near-linearly: {x48} vs {x1}"
        );
    }

    #[test]
    fn single_lock_shared_dir_flattens() {
        let p = OpProfile::estimate(
            1.0,
            SharingLevel::SharedDir,
            LockStructure::SingleLock {
                covered_fraction: 0.85,
            },
            stats(),
        );
        let x1 = p.throughput(1);
        let x48 = p.throughput(48);
        assert!(
            x48 < 3.0 * x1,
            "a single-lock shared dir must flatten: {x48} vs {x1}"
        );
    }

    #[test]
    fn partitioned_locks_beat_single_lock_at_scale() {
        let single = OpProfile::estimate(
            1.0,
            SharingLevel::SharedDir,
            LockStructure::SingleLock {
                covered_fraction: 0.85,
            },
            stats(),
        );
        let partitioned = OpProfile::estimate(
            1.0,
            SharingLevel::SharedDir,
            LockStructure::Partitioned {
                partitions: 64,
                covered_fraction: 0.5,
            },
            stats(),
        );
        assert!(
            partitioned.throughput(48) > 5.0 * single.throughput(48),
            "ArckFS's partitioned locks must dominate at 48 threads"
        );
    }

    #[test]
    fn slower_t1_means_lower_curve_same_shape() {
        // ArckFS+ vs ArckFS: slightly higher T1, identical structure — the
        // modelled gap at 48 threads stays proportional (Table 2's ~97%).
        let arckfs = OpProfile::estimate(
            1.00,
            SharingLevel::SharedDir,
            LockStructure::Partitioned {
                partitions: 64,
                covered_fraction: 0.5,
            },
            stats(),
        );
        let plus = OpProfile::estimate(
            1.05,
            SharingLevel::SharedDir,
            LockStructure::Partitioned {
                partitions: 64,
                covered_fraction: 0.5,
            },
            stats(),
        );
        let ratio = plus.throughput(48) / arckfs.throughput(48);
        assert!((0.90..1.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn delegated_data_projection_rewards_rings_and_batch() {
        // One ring, no drain batching: every chunk pays its own fence and
        // all submitters funnel through one queue.
        let narrow = OpProfile::delegated_data(50.0, 1, 16.0, 1, 0.4);
        // Eight rings, drain batch 8: same work, amortized ordering.
        let wide = OpProfile::delegated_data(50.0, 8, 16.0, 8, 0.4);
        let x48_narrow = narrow.throughput(48);
        let x48_wide = wide.throughput(48);
        assert!(
            x48_wide > 2.0 * x48_narrow,
            "rings+batch must lift the 48-thread data projection: {x48_wide} vs {x48_narrow}"
        );
        // The fence column reflects the amortization rule exactly.
        assert!(wide.kappa < narrow.kappa);
        // Single-thread cost is untouched by the structure.
        assert!((narrow.throughput(1) - wide.throughput(1)).abs() < 1.0);
    }

    #[test]
    fn ranged_write_projection_rewards_range_locks() {
        // The legacy path: one whole-file lock covering most of the op.
        let whole = OpProfile::ranged_write(3.0, 1, 1.0, 0.8);
        // Range locks: eight disjoint writers, the same measured serial
        // work diluted over the interval table.
        let ranged = OpProfile::ranged_write(3.0, 8, 1.0, 0.8);
        let x48_whole = whole.throughput(48);
        let x48_ranged = ranged.throughput(48);
        assert!(
            x48_ranged > 4.0 * x48_whole,
            "range locks must lift the 48-thread shared-file projection: \
             {x48_ranged} vs {x48_whole}"
        );
        // Single-thread cost is untouched by the structure.
        assert!((whole.throughput(1) - ranged.throughput(1)).abs() < 1.0);
    }

    #[test]
    fn peak_is_finite_with_coherence() {
        let p = OpProfile {
            t1_us: 1.0,
            sigma: 0.05,
            kappa: 0.001,
        };
        let peak = p.peak_threads();
        assert!(peak.is_finite() && peak > 1.0);
        let p0 = OpProfile {
            t1_us: 1.0,
            sigma: 0.05,
            kappa: 0.0,
        };
        assert!(p0.peak_threads().is_infinite());
    }

    #[test]
    fn curve_covers_requested_counts() {
        let p = OpProfile::estimate(1.0, SharingLevel::Private, LockStructure::LockFree, stats());
        let c = p.curve(&paper_thread_counts());
        assert_eq!(c.len(), 7);
        assert_eq!(c[0].0, 1);
        assert_eq!(c[6].0, 48);
    }
}
