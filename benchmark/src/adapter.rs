//! The only file of the benchmark that names a crate of the repository.
//!
//! Everything the benchmark compiles against is imported, re-exported or
//! wrapped here, so a change that retires one of these items fails to build
//! in exactly one place and knows it needs a benchmark-only change first.
//! The list is repeated in `README.md` under "Stable API surface".

use std::sync::Arc;
use std::time::Duration;

pub use arckfs::delegate::DelegationPool;
pub use arckfs::pool::ShardedPool;
pub use arckfs::range_lock::{Range, RangeLockTable};
pub use arckfs::LibFs;
pub use pmem::{Mapping, MappingRegistry, PmemDevice, StatsSnapshot};
pub use rcu::Rcu;
pub use trio::controller::KernelStatsSnapshot;
pub use trio::Kernel;
pub use vfs::{Fd, FileSystem, FileType, FsError, FsResult, FsStats, OpenFlags};

/// Page size of the emulated device.
pub const PAGE: usize = pmem::PAGE_SIZE;
/// Cache-line size of the emulated device.
pub const LINE: usize = pmem::CACHE_LINE;
/// Injected cost of one kernel crossing, in nanoseconds. Part of the fixed
/// policy of the benchmark: every kernel it formats or recovers uses it.
pub const SYSCALL_NS: u64 = 400;

/// Which latency policy a device is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Latency {
    /// `LatencyModel::optane()` — the policy of every measured run.
    Optane,
    /// `LatencyModel::disabled()` — the software-only pass and the probes.
    Disabled,
}

/// A fresh fast-mode device under the given latency policy.
pub fn device(len: usize, latency: Latency) -> Arc<PmemDevice> {
    let model = match latency {
        Latency::Optane => pmem::LatencyModel::optane(),
        Latency::Disabled => pmem::LatencyModel::disabled(),
    };
    PmemDevice::with_latency(len, model)
}

/// A fresh tracked-mode device (records which stores are durable).
pub fn tracked_device(len: usize) -> Arc<PmemDevice> {
    PmemDevice::new_tracked(len)
}

/// A fast-mode device holding exactly the durable bytes of a tracked one:
/// everything stored but not yet flushed and fenced is dropped.
pub fn crash_image_device(tracked: &Arc<PmemDevice>) -> Result<Arc<PmemDevice>, String> {
    let image = tracked.persistent_image().map_err(|e| e.to_string())?;
    Ok(PmemDevice::from_image(&image))
}

/// The LibFS preset of every run. The benchmark never sets a field of it.
pub fn libfs_config() -> arckfs::Config {
    arckfs::Config::arckfs_plus()
}

/// The kernel preset of every run.
pub fn kernel_config() -> trio::KernelConfig {
    trio::KernelConfig::arckfs_plus().with_syscall_cost(Duration::from_nanos(SYSCALL_NS))
}

/// `Debug` of the resolved presets, for the output stamp.
pub fn config_stamp() -> (String, String) {
    (
        format!("{:?}", libfs_config()),
        format!("{:?}", kernel_config()),
    )
}

/// Format a fresh file system on `dev` and start its kernel.
pub fn format(dev: Arc<PmemDevice>) -> FsResult<Arc<Kernel>> {
    let geom = trio::Geometry::for_device(dev.len());
    Kernel::format(dev, geom, kernel_config())
}

/// Restart the kernel on a device that already holds a file system.
pub fn recover(dev: Arc<PmemDevice>) -> FsResult<Arc<Kernel>> {
    Kernel::recover(dev, kernel_config())
}

/// Mount one LibFS (one application) on `kernel`.
pub fn mount(kernel: &Arc<Kernel>) -> FsResult<Arc<LibFs>> {
    LibFs::mount(kernel.clone(), libfs_config(), 0)
}

/// Offline walk of the device image; `Ok(reachable inodes)` when no fatal
/// issue was found, else the fatal issues.
pub fn fsck(dev: &Arc<PmemDevice>) -> Result<u64, String> {
    let report = trio::fsck::fsck(dev)?;
    if report.is_consistent() {
        Ok(report.reachable)
    } else {
        Err(format!("{:?}", report.fatal()))
    }
}

/// Give the calling thread the home shard `home` in every structure that
/// is sharded by thread (kernel allocator, LibFS pools). Benchmark thread
/// `t` takes home `t`, so placement does not depend on thread-id hashing.
pub fn pin_thread_home(home: usize) {
    pmem::set_thread_shard_hint(Some(home));
}

/// Number of allocator shards and pool slots the presets resolve to here.
pub fn alloc_shards() -> usize {
    pmem::default_alloc_shards()
}

/// Allocate and free one page straight from the kernel's page provider.
pub fn alloc_free_page(kernel: &Kernel) -> Result<(), String> {
    let pages = kernel
        .allocator()
        .alloc_extent(1)
        .map_err(|e| e.to_string())?;
    kernel
        .allocator()
        .free_extent(&pages)
        .map_err(|e| e.to_string())
}

/// Turn the program's own per-operation recorder on or off.
pub fn obs_set(enabled: bool) {
    if enabled {
        obs::enable();
    } else {
        obs::disable();
        obs::reset();
    }
}

/// Open and drop one `obs` span against `dev`'s counters.
#[inline]
pub fn obs_span(dev: &PmemDevice) {
    let span = obs::span(obs::OpKind::Stat, dev.stats());
    std::hint::black_box(&span);
}

/// The counters the per-layer metrics are built from, by index into
/// [`Counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C {
    // pmem::StatsSnapshot
    Loads,
    /// Regular stores (the device's `stores` minus its `ntstores`).
    Stores,
    Ntstores,
    Clwb,
    Sfences,
    BytesRead,
    BytesWritten,
    BatchedOps,
    // trio::KernelStatsSnapshot
    Syscalls,
    Acquires,
    Releases,
    Commits,
    Verifications,
    VerifyFailures,
    TrustSkips,
    // vfs::FsStats
    DcacheHits,
    DcacheMisses,
    SharedLockAcqs,
    RangeLockAcqs,
    PoolRefills,
    AllocSteals,
    DelegBytes,
    ExtentInserts,
    CowTailCopies,
}

const C_COUNT: usize = C::CowTailCopies as usize + 1;

/// One reading of every counter, taken from outside at a phase boundary:
/// the device's, the kernel's, and the file system's (summed over the
/// LibFSes passed in). Counters only grow, so readings subtract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters(pub [u64; C_COUNT]);

impl Counters {
    pub fn read(kernel: &Kernel, libfses: &[&LibFs]) -> Counters {
        let mut c = Counters::default();
        let p: StatsSnapshot = kernel.device().stats().snapshot();
        let k: KernelStatsSnapshot = kernel.stats().snapshot();
        for (i, v) in [
            (C::Loads, p.loads),
            (C::Stores, p.stores - p.ntstores),
            (C::Ntstores, p.ntstores),
            (C::Clwb, p.clwb),
            (C::Sfences, p.sfences),
            (C::BytesRead, p.bytes_read),
            (C::BytesWritten, p.bytes_written),
            (C::BatchedOps, p.batched_ops),
            (C::Syscalls, k.syscalls),
            (C::Acquires, k.acquires),
            (C::Releases, k.releases),
            (C::Commits, k.commits),
            (C::Verifications, k.verifications),
            (C::VerifyFailures, k.verify_failures),
            (C::TrustSkips, k.trust_skips),
        ] {
            c.0[i as usize] = v;
        }
        for fs in libfses {
            let s: FsStats = fs.stats();
            for (i, v) in [
                (C::DcacheHits, s.dcache_hits),
                (C::DcacheMisses, s.dcache_misses),
                (C::SharedLockAcqs, s.shared_lock_acqs),
                (C::RangeLockAcqs, s.range_lock_acqs),
                (C::PoolRefills, s.pool_refills),
                (C::DelegBytes, s.deleg_bytes),
                (C::ExtentInserts, s.extent_inserts),
                (C::CowTailCopies, s.cow_tail_copies),
            ] {
                c.0[i as usize] += v;
            }
            // The kernel allocator's steals appear in every LibFS's view,
            // the pools' own steals only in their owner's: the largest
            // view counts the kernel's once.
            let steals = &mut c.0[C::AllocSteals as usize];
            *steals = (*steals).max(s.alloc_steals);
        }
        c
    }

    pub fn get(&self, i: C) -> u64 {
        self.0[i as usize]
    }

    /// `self - earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut out = *self;
        for (o, e) in out.0.iter_mut().zip(&earlier.0) {
            *o = o.saturating_sub(*e);
        }
        out
    }

    pub fn add(&mut self, other: &Counters) {
        for (s, o) in self.0.iter_mut().zip(&other.0) {
            *s += o;
        }
    }
}
