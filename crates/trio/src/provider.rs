//! The kernel's two resource pools.
//!
//! The controller hands LibFSes *extents* of two resources: data pages and
//! inode numbers. Both are "a set of integers with durable (or rebuildable)
//! occupancy state, sharded for multicore scalability", so both are served
//! by the same engine, [`pmem::ShardedPageAllocator`]: the page pool over
//! the durable bitmap region, and the inode-number pool as a second
//! instance over a tiny volatile scratch bitmap (built here) instead of a
//! hand-rolled `Vec<u64>` free list under the kernel lock.

use pmem::{PmemDevice, PmemError, PmemResult, ShardedPageAllocator};

/// Length (bytes) of the scratch device backing a volatile pool over
/// `count` identifiers: the bitmap rounded up to whole words so the
/// allocator's atomic word RMWs stay in bounds.
fn scratch_len(count: u64) -> usize {
    (ShardedPageAllocator::bitmap_bytes(count) as usize).div_ceil(8) * 8
}

/// A sharded **volatile** pool over `[first, first + count)`, all free.
///
/// The pool is a [`ShardedPageAllocator`] whose "device" is a private
/// in-memory scratch buffer holding nothing but the occupancy bitmap
/// (bitmap offset 0). Persistence of that bitmap is meaningless — the
/// scratch device is dropped with the pool — which is exactly right for
/// inode numbers: their durable truth is the inode table's commit markers,
/// re-scanned on every recovery.
pub fn volatile_pool(first: u64, count: u64, shards: usize) -> ShardedPageAllocator {
    let device = PmemDevice::new(scratch_len(count));
    ShardedPageAllocator::format_with_shards(device, 0, first, count, shards)
        .expect("scratch bitmap formats in bounds")
}

/// A sharded volatile pool over `[first, first + count)` with the ids for
/// which `used` returns true pre-allocated — the recovery-time constructor
/// (the caller derives `used` from the inode table's commit markers).
pub fn volatile_pool_from_used(
    first: u64,
    count: u64,
    shards: usize,
    used: impl Fn(u64) -> bool,
) -> PmemResult<ShardedPageAllocator> {
    let device = PmemDevice::new(scratch_len(count));
    for id in first..first + count {
        if used(id) {
            let idx = id - first;
            let off = idx / 8;
            let byte = device.read_u8(off)?;
            device.write_u8(off, byte | 1 << (idx % 8))?;
        }
    }
    device.persist_all();
    ShardedPageAllocator::recover_with_shards(device, 0, first, count, shards)
}

/// Map an allocator failure to the matching [`vfs::FsError`]:
/// [`PmemError::NoSpace`] means exactly that; anything else is an internal
/// fault (out-of-bounds bitmap access, poisoned device).
pub fn provider_err(e: PmemError) -> vfs::FsError {
    match e {
        PmemError::NoSpace { .. } => vfs::FsError::NoSpace,
        other => vfs::FsError::Internal(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_allocator(shards: usize) -> ShardedPageAllocator {
        let device = PmemDevice::new(64 * pmem::PAGE_SIZE);
        ShardedPageAllocator::format_with_shards(device, 0, 4, 32, shards).unwrap()
    }

    #[test]
    fn allocator_round_trip() {
        let alloc = data_allocator(4);
        assert_eq!(alloc.page_count(), 32);
        assert_eq!(alloc.free_count(), 32);
        let got = alloc.alloc_extent(5).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(alloc.allocated_count(), 5);
        for &p in &got {
            assert!(alloc.is_allocated(p).unwrap());
        }
        alloc.free_extent(&got).unwrap();
        assert_eq!(alloc.free_count(), 32);
        assert_eq!(alloc.shard_ranges().len(), 4);
        assert!(alloc.stats().lock_acqs() > 0);
        alloc.reset_stats();
        assert_eq!(alloc.stats().lock_acqs(), 0);
    }

    #[test]
    fn volatile_pool_serves_whole_range() {
        let pool = volatile_pool(2, 10, 2);
        let mut all = Vec::new();
        for _ in 0..10 {
            all.push(pool.alloc_extent(1).unwrap()[0]);
        }
        all.sort_unstable();
        assert_eq!(all, (2..12).collect::<Vec<u64>>());
        match pool.alloc_extent(1) {
            Err(PmemError::NoSpace { requested, free }) => {
                assert_eq!((requested, free), (1, 0));
            }
            other => panic!("expected NoSpace, got {other:?}"),
        }
    }

    #[test]
    fn volatile_pool_from_used_preallocates() {
        let pool = volatile_pool_from_used(2, 10, 4, |id| id % 3 == 0).unwrap();
        // 3, 6, 9 used out of 2..=11.
        assert_eq!(pool.allocated_count(), 3);
        for id in 2..12u64 {
            assert_eq!(pool.is_allocated(id).unwrap(), id % 3 == 0);
        }
        // Every remaining id is allocatable exactly once.
        let got = pool.alloc_extent(7).unwrap();
        let mut got: Vec<u64> = got;
        got.sort_unstable();
        assert_eq!(got, vec![2, 4, 5, 7, 8, 10, 11]);
        assert!(pool.alloc_extent(1).is_err());
    }

    #[test]
    fn provider_err_maps_no_space() {
        assert!(matches!(
            provider_err(PmemError::NoSpace {
                requested: 4,
                free: 1
            }),
            vfs::FsError::NoSpace
        ));
        assert!(matches!(
            provider_err(PmemError::OutOfBounds {
                offset: 0,
                len: 1,
                size: 0
            }),
            vfs::FsError::Internal(_)
        ));
    }
}
