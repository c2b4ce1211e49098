#![warn(missing_docs)]

//! Persistent-memory (PM) emulator.
//!
//! The paper's experiments ran on Intel Optane Persistent Memory. This crate
//! substitutes that hardware with an emulated byte-addressable device that
//! implements the part of the platform the paper's bugs and patches actually
//! depend on: the **persistency model** — which stores are guaranteed durable
//! at a crash, given the program's `clwb`/`ntstore`/`sfence` instructions.
//!
//! Two backings are provided (see [`Mode`]):
//!
//! * [`Mode::Fast`] — plain memory with flush/fence/byte *accounting* (and an
//!   optional injected latency model approximating Optane timings). Used by
//!   the benchmark harness.
//! * [`Mode::Tracked`] — every store is recorded in a per-cache-line pending
//!   log; `clwb` marks pending stores of a line as flush-ordered and `sfence`
//!   makes flush-ordered stores durable. A crash may durably retain, for each
//!   cache line independently, any *prefix* of its pending stores (stores to
//!   the same line persist in order; distinct lines reorder freely unless
//!   ordered by flush + fence). This is the standard simplified Px86 model
//!   (cf. Cho et al., PLDI 2021, cited by the paper as \[5\]) and is exactly
//!   the semantics under which the §4.2 missing-fence bug produces a dentry
//!   whose commit marker is durable while its payload is not.
//!
//! The crate also provides [`mapping`] (generation-tagged inode mappings —
//! access after unmap is a detected bus error, modelling the §4.3 SIGBUS)
//! and [`alloc`] (a sharded persistent page allocator with a durable bitmap
//! updated by atomic word read-modify-writes).
//!
//! Both backings also keep **granule write flags**: per 4 KiB page, one bit
//! per [`GRANULE`]-byte granule, set by every store after its data and
//! taken by the kernel with [`PmemDevice::take_written`] — what an MMU's
//! soft-dirty bits (per page) or sub-page write permissions (per 128 bytes)
//! would tell it. They live in DRAM: reading or taking them counts no load
//! and charges no latency.

pub mod alloc;
pub mod device;
pub mod latency;
pub mod litmus;
pub mod mapping;
pub mod stats;
pub mod tracker;

pub use alloc::{
    default_alloc_shards, set_thread_shard_hint, thread_shard_hint, thread_shard_override,
    AllocShardSnapshot, AllocStatsSnapshot, ShardedPageAllocator,
};
pub use device::{Mode, PmemDevice, PmemError, PmemResult};
pub use latency::LatencyModel;
pub use mapping::{MapError, Mapping, MappingRegistry};
pub use stats::{PmemStats, StatsSnapshot};

/// Optional schedule-point hook, installed by concurrency-testing harnesses.
///
/// `pmem` sits below the crate that owns the inject-point machinery
/// (`arckfs::inject`), so it cannot call `inject::point` directly. Instead
/// the allocator fires named points through this process-global hook; the
/// harness installs a forwarder once (idempotent — the first installation
/// wins) and the uninstrumented cost stays one relaxed atomic load.
static SCHED_HOOK: std::sync::OnceLock<fn(&'static str)> = std::sync::OnceLock::new();

/// Install the schedule-point forwarder. Later installations are ignored.
pub fn set_schedule_hook(hook: fn(&'static str)) {
    let _ = SCHED_HOOK.set(hook);
}

/// Fire a named schedule point through the installed hook, if any.
#[inline]
pub(crate) fn sched_point(name: &'static str) {
    if let Some(hook) = SCHED_HOOK.get() {
        hook(name);
    }
}

/// Cache-line size in bytes, matching x86.
pub const CACHE_LINE: usize = 64;

/// Page size in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Size in bytes of the unit a granule write flag covers (one dentry
/// record of the directory log).
pub const GRANULE: usize = 128;

/// Granules per page: the width of a page's write-flag mask.
pub const GRANULES_PER_PAGE: usize = PAGE_SIZE / GRANULE;

/// Round `n` down to the start of its cache line.
pub const fn line_of(n: u64) -> u64 {
    n & !(CACHE_LINE as u64 - 1)
}

/// Round `n` up to a multiple of the cache-line size.
pub const fn line_align_up(n: u64) -> u64 {
    (n + CACHE_LINE as u64 - 1) & !(CACHE_LINE as u64 - 1)
}

/// Round `n` up to a multiple of the page size.
pub const fn page_align_up(n: u64) -> u64 {
    (n + PAGE_SIZE as u64 - 1) & !(PAGE_SIZE as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_math() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(line_align_up(1), 64);
        assert_eq!(line_align_up(64), 64);
        assert_eq!(page_align_up(1), 4096);
        assert_eq!(page_align_up(4096), 4096);
        assert_eq!(page_align_up(0), 0);
    }
}
