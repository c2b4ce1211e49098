//! Shared infrastructure for the benchmark harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md`'s experiment index and `EXPERIMENTS.md` for recorded
//! outcomes):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig3` | Figure 3 — single-thread metadata throughput |
//! | `fig4_table2` | Figure 4 + Table 2 — FxMark metadata scalability |
//! | `filebench_531` | §5.3 — Webproxy / Varmail |
//! | `table4_sharing` | Table 4 — sharing cost & trust groups |
//! | `fio_data` | §5.1–§5.2 — data performance and scalability |
//! | `leveldb_bench` | §5.3 — LevelDB db_bench |
//! | `table1_ablation` | Table 1 — per-patch overhead |
//! | `customizations` | §2.2 — the two example LibFS customizations |
//! | `design_ablation` | §2.2 — multi-tailed log and bucket-count ablation |
//!
//! The timed binaries honour two environment variables:
//! `BENCH_MILLIS` (per-cell duration, default 300) and
//! `BENCH_THREADS` (comma-separated thread counts for measured runs,
//! default `1,2,4`); the fixed-iteration ones (`customizations`,
//! `leveldb_bench`, `table4_sharing`) read `BENCH_ITERS`. Apart from the
//! `schedmc` CLI's `ARCKFS_SCHEDMC_DEEP`, these are the only environment
//! variables read under `crates/` (`ci.sh` checks it).

use std::sync::Arc;
use std::time::Duration;

use arckfs::{Config, LibFs};
use kernelfs::{KernelFs, Profile};
use model::{LockStructure, OpProfile, OpStats, SharingLevel};
use pmem::{LatencyModel, PmemDevice};
use trio::{Geometry, Kernel, KernelConfig};
use vfs::{FileSystem, FsStats};

/// Every file system the paper's evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsKind {
    /// Original ArckFS (all six bugs present).
    ArckFs,
    /// ArckFS+ (all patches).
    ArckFsPlus,
    /// Verify-every-metadata-operation userspace design (SplitFS/Strata
    /// class built on the patched LibFS; kept for ablations).
    VerifyPerOp,
    /// ext4 (DAX) model.
    Ext4,
    /// PMFS model.
    Pmfs,
    /// NOVA model.
    Nova,
    /// WineFS model.
    Winefs,
    /// OdinFS model.
    Odinfs,
    /// SplitFS model.
    Splitfs,
    /// Strata model.
    Strata,
}

impl FsKind {
    /// Display label (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            FsKind::ArckFs => "arckfs",
            FsKind::ArckFsPlus => "arckfs+",
            FsKind::VerifyPerOp => "verify-per-op",
            FsKind::Ext4 => "ext4",
            FsKind::Pmfs => "pmfs",
            FsKind::Nova => "nova",
            FsKind::Winefs => "winefs",
            FsKind::Odinfs => "odinfs",
            FsKind::Splitfs => "splitfs",
            FsKind::Strata => "strata",
        }
    }

    /// The evaluation's comparison set, in the paper's order.
    pub fn paper_set() -> Vec<FsKind> {
        vec![
            FsKind::ArckFsPlus,
            FsKind::ArckFs,
            FsKind::Ext4,
            FsKind::Pmfs,
            FsKind::Nova,
            FsKind::Odinfs,
            FsKind::Winefs,
            FsKind::Splitfs,
            FsKind::Strata,
        ]
    }

    /// Just the two systems the paper contrasts throughout.
    pub fn arck_pair() -> Vec<FsKind> {
        vec![FsKind::ArckFsPlus, FsKind::ArckFs]
    }

    /// Is this one of the ArckFS-family (TRIO) systems?
    pub fn is_arck(&self) -> bool {
        matches!(
            self,
            FsKind::ArckFs | FsKind::ArckFsPlus | FsKind::VerifyPerOp
        )
    }
}

/// Instantiate a file system of `kind` on a fresh emulated device of
/// `device_len` bytes. With `optane_latency`, the device charges
/// Optane-like latencies so flush-heavy designs pay their real relative
/// cost.
pub fn make_fs(kind: FsKind, device_len: usize, optane_latency: bool) -> Arc<dyn FileSystem> {
    let latency = if optane_latency {
        LatencyModel::optane()
    } else {
        LatencyModel::disabled()
    };
    if kind.is_arck() {
        let device = PmemDevice::with_latency(device_len, latency);
        let config = match kind {
            FsKind::ArckFs => Config::arckfs(),
            FsKind::ArckFsPlus => Config::arckfs_plus(),
            FsKind::VerifyPerOp => Config::verify_per_op(),
            _ => unreachable!(),
        };
        let kconfig = if config.fix_rename {
            KernelConfig::arckfs_plus()
        } else {
            KernelConfig::arckfs()
        }
        .with_syscall_cost(Duration::from_nanos(400));
        let geom = Geometry::for_device(device_len);
        let kernel = Kernel::format(device, geom, kconfig).expect("format");
        LibFs::mount(kernel, config, 0).expect("mount")
    } else {
        let device = PmemDevice::with_latency(device_len, latency);
        let profile = match kind {
            FsKind::Ext4 => Profile::ext4(),
            FsKind::Pmfs => Profile::pmfs(),
            FsKind::Nova => Profile::nova(),
            FsKind::Winefs => Profile::winefs(),
            FsKind::Odinfs => Profile::odinfs(),
            FsKind::Splitfs => Profile::splitfs(),
            FsKind::Strata => Profile::strata(),
            _ => unreachable!(),
        };
        KernelFs::format(device, profile)
    }
}

/// Per-cell duration from `BENCH_MILLIS` (default 300 ms).
pub fn bench_duration() -> Duration {
    let ms = std::env::var("BENCH_MILLIS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300u64);
    Duration::from_millis(ms)
}

/// Measured thread counts from `BENCH_THREADS` (default `1,2,4`).
pub fn bench_threads() -> Vec<usize> {
    std::env::var("BENCH_THREADS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4])
}

/// Per-operation stats between two snapshots. Saturating, like
/// [`pmem::StatsSnapshot::delta`]: a counter reset between the two
/// snapshots must read as zero, not wrap.
pub fn per_op(stats_after: &FsStats, stats_before: &FsStats, ops: u64) -> OpStats {
    let ops = ops.max(1) as f64;
    OpStats {
        flushes: stats_after.flushes.saturating_sub(stats_before.flushes) as f64 / ops,
        fences: stats_after.fences.saturating_sub(stats_before.fences) as f64 / ops,
        syscalls: stats_after.syscalls.saturating_sub(stats_before.syscalls) as f64 / ops,
        lock_acqs: stats_after
            .shared_lock_acqs
            .saturating_sub(stats_before.shared_lock_acqs) as f64 / ops,
    }
}

/// Structural model inputs for a (file system, FxMark workload) pair.
pub fn model_inputs(kind: FsKind, workload: fxmark::Workload) -> (SharingLevel, LockStructure) {
    use fxmark::Workload as W;
    let sharing = match workload {
        W::DWTL | W::MRPL | W::MRPLAt | W::MRDL | W::MWCL | W::MWUL | W::MWRL => {
            SharingLevel::Private
        }
        W::MRPM | W::MRDM | W::MWCM | W::MWUM | W::MWRM => SharingLevel::SharedDir,
        W::MRPH => SharingLevel::SameObject,
    };
    let read_only = matches!(
        workload,
        W::MRPL | W::MRPLAt | W::MRPM | W::MRPH | W::MRDL | W::MRDM
    );
    let locks = if kind.is_arck() {
        if read_only {
            // ArckFS+ reads are RCU/lock-free-cached; ArckFS copies refs
            // under a brief bucket lock either way — model both as
            // partitioned with a small covered fraction.
            LockStructure::Partitioned {
                partitions: 64,
                covered_fraction: 0.1,
            }
        } else {
            // Writers hold one of 64 bucket locks over the PM update.
            LockStructure::Partitioned {
                partitions: 64,
                covered_fraction: 0.6,
            }
        }
    } else if read_only {
        LockStructure::SingleLock {
            covered_fraction: 0.3,
        }
    } else {
        // Kernel file systems serialize directory updates on the parent
        // inode mutex for most of the operation.
        LockStructure::SingleLock {
            covered_fraction: 0.85,
        }
    };
    (sharing, locks)
}

/// Calibrate a USL profile from a measured single-thread run.
pub fn calibrate(
    kind: FsKind,
    workload: fxmark::Workload,
    t1_us: f64,
    stats: OpStats,
) -> OpProfile {
    let (sharing, locks) = model_inputs(kind, workload);
    OpProfile::estimate(t1_us, sharing, locks, stats)
}

/// Append one JSON record to `results/<file>.jsonl` (best effort — the
/// tables printed to stdout are the primary artifact).
pub fn record_json(file: &str, value: serde_json::Value) {
    use std::io::Write;
    let _ = std::fs::create_dir_all("results");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(format!("results/{file}.jsonl"))
    {
        let _ = writeln!(f, "{value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::FsExt;

    #[test]
    fn every_kind_constructs_and_works() {
        for kind in FsKind::paper_set() {
            let fs = make_fs(kind, 16 << 20, false);
            fs.write_file("/smoke", b"x")
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            assert_eq!(fs.read_file("/smoke").unwrap(), b"x");
        }
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = FsKind::paper_set().iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FsKind::paper_set().len());
    }

    #[test]
    fn per_op_math() {
        let before = FsStats::default();
        let after = FsStats {
            flushes: 100,
            fences: 50,
            syscalls: 10,
            verifications: 0,
            pm_bytes_written: 0,
            shared_lock_acqs: 200,
            ..FsStats::default()
        };
        let p = per_op(&after, &before, 10);
        assert!((p.flushes - 10.0).abs() < 1e-9);
        assert!((p.fences - 5.0).abs() < 1e-9);
        assert!((p.lock_acqs - 20.0).abs() < 1e-9);
    }

    #[test]
    fn model_inputs_shape() {
        let (s, _) = model_inputs(FsKind::Nova, fxmark::Workload::MWCM);
        assert_eq!(s, SharingLevel::SharedDir);
        let (s, _) = model_inputs(FsKind::ArckFsPlus, fxmark::Workload::MWCL);
        assert_eq!(s, SharingLevel::Private);
        let (s, _) = model_inputs(FsKind::ArckFs, fxmark::Workload::MRPH);
        assert_eq!(s, SharingLevel::SameObject);
    }
}
