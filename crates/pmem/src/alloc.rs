//! Sharded persistent page allocator.
//!
//! ArckFS's core state lives in 4 KiB pages handed to LibFSes by the kernel.
//! The allocator keeps a durable bitmap on the device (one bit per managed
//! page) and volatile free lists rebuilt from the bitmap at mount/recovery.
//!
//! The page range is split into N contiguous **shards** (N from the
//! kernel configuration, default `min(cores, 8)`), each with its own lock
//! and free list. A thread allocates from its home shard (thread-id hash, or
//! an explicit hint) and falls back to **stealing** when the home shard runs
//! dry, so independent threads touch independent locks and the allocator
//! stops being a global serial section. Stealing is fairness-aware: victims
//! are tried fullest-first and a steal takes at most half of any victim's
//! free list, so a hot thread's overflow spreads across the pool instead of
//! hollowing out one cold thread's home shard (with a final uncapped sweep
//! so the caps never manufacture `NoSpace` while pages exist).
//!
//! Bitmap bits are updated with *atomic* word read-modify-writes
//! ([`PmemDevice::fetch_or_u64`]/[`PmemDevice::fetch_and_u64`]) plus `clwb` of the owning
//! line, so persistence of a bit never does an unlocked read-modify-write:
//! two threads touching different bits of the same bitmap word cannot lose
//! an update, even though no lock is held across shards. One `sfence` closes
//! each allocation batch, as before.
//!
//! A crash therefore never loses track of an allocated page that any durable
//! structure points at (allocate-then-link ordering is the caller's
//! responsibility and is what the §4.2 commit-marker protocol provides): the
//! allocator fences its bits durable *before* returning pages, and the
//! caller links them *after*. See DESIGN.md §9.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::device::{PmemDevice, PmemError, PmemResult};

/// The default shard count: `min(available cores, 8)`.
pub fn default_alloc_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

thread_local! {
    /// Explicit home-shard override for this thread (set by deterministic
    /// test harnesses). `usize::MAX` means "no override".
    static HINT_OVERRIDE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Pin (or clear) this thread's home-shard hint. Schedule-replay harnesses
/// set it to their *logical* thread id so placement is a function of the
/// schedule, not of `std::thread::ThreadId` — a process-global counter
/// whose value (and therefore hash) depends on every thread any earlier
/// test or run happened to spawn.
pub fn set_thread_shard_hint(hint: Option<usize>) {
    HINT_OVERRIDE.with(|h| h.set(hint.unwrap_or(usize::MAX)));
}

/// This thread's pinned shard hint, if any.
pub fn thread_shard_override() -> Option<usize> {
    let over = HINT_OVERRIDE.with(|h| h.get());
    (over != usize::MAX).then_some(over)
}

/// This thread's home-shard hint: the pinned override if one is set, else
/// a cached hash of the thread id. Shared with every sharded-by-thread
/// structure in the stack (the kernel allocator here, the LibFS inode
/// pool) so one thread keeps one consistent home everywhere.
pub fn thread_shard_hint() -> usize {
    use std::hash::{Hash, Hasher};
    thread_local! {
        static HINT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    let over = HINT_OVERRIDE.with(|h| h.get());
    if over != usize::MAX {
        return over;
    }
    HINT.with(|h| {
        if h.get() == usize::MAX {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut hasher);
            // Reserve MAX as the "uninitialized" sentinel.
            h.set((hasher.finish() as usize) & (usize::MAX >> 1));
        }
        h.get()
    })
}

fn thread_hint() -> usize {
    thread_shard_hint()
}

/// One shard: a disjoint contiguous page range with its own lock.
#[derive(Debug)]
struct Shard {
    /// First page (absolute) of this shard's range.
    first: u64,
    /// Number of pages in this shard's range.
    count: u64,
    /// Times this shard's lock was taken (the contention metric).
    lock_acqs: AtomicU64,
    /// Pages taken from this shard by *non-home* threads (the shard is the
    /// steal victim). Per-victim counters show whether one hot home
    /// shard's overflow is spread across victims or focused on one.
    steals_from: AtomicU64,
    /// Approximate free-list length, maintained alongside the locked list.
    /// Steal passes read it lock-free to pick the fullest victim first.
    free_hint: AtomicU64,
    inner: Mutex<ShardInner>,
}

#[derive(Debug)]
struct ShardInner {
    /// Volatile free list of page numbers (absolute), highest at the
    /// bottom so `pop`/`split_off` hands out low page numbers first.
    free: Vec<u64>,
    allocated: u64,
}

/// Point-in-time counters for one shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocShardSnapshot {
    /// First page (absolute) of the shard's range.
    pub first: u64,
    /// Number of pages in the shard's range.
    pub count: u64,
    /// Currently free pages in the shard.
    pub free: u64,
    /// Currently allocated pages from the shard.
    pub allocated: u64,
    /// Lock acquisitions on the shard since format/recover (or the last
    /// [`ShardedPageAllocator::reset_stats`]).
    pub lock_acqs: u64,
    /// Pages stolen *from* this shard by non-home threads since
    /// format/recover (or the last stats reset).
    pub steals_from: u64,
}

/// Point-in-time allocator counters, for the obs JSON `alloc` block and the
/// contention tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocStatsSnapshot {
    /// Per-shard occupancy and lock counters.
    pub shards: Vec<AllocShardSnapshot>,
    /// Pages taken from a non-home shard because the home shard ran dry.
    pub alloc_steals: u64,
    /// Total nanoseconds any shard lock was held.
    pub lock_held_ns: u64,
    /// Pages allocated since format/recover (or the last stats reset).
    pub allocs: u64,
    /// Pages freed since format/recover (or the last stats reset).
    pub frees: u64,
}

impl AllocStatsSnapshot {
    /// Total lock acquisitions across all shards.
    pub fn lock_acqs(&self) -> u64 {
        self.shards.iter().map(|s| s.lock_acqs).sum()
    }

    /// Lock acquisitions on the busiest shard — the serial-section depth:
    /// with perfect sharding each thread hits only its own shard, so this
    /// drops by the shard count while the total stays put.
    pub fn max_shard_lock_acqs(&self) -> u64 {
        self.shards.iter().map(|s| s.lock_acqs).max().unwrap_or(0)
    }
}

/// A sharded persistent page allocator over a contiguous range of pages.
#[derive(Debug)]
pub struct ShardedPageAllocator {
    device: Arc<PmemDevice>,
    /// Device offset of the durable bitmap. Must be 8-byte aligned (it is
    /// page-aligned in practice) so bitmap words can be updated atomically.
    bitmap_off: u64,
    /// First managed page number (device offset / PAGE_SIZE).
    first_page: u64,
    /// Number of managed pages.
    page_count: u64,
    shards: Box<[Shard]>,
    steals: AtomicU64,
    lock_held_ns: AtomicU64,
    allocs: AtomicU64,
    frees: AtomicU64,
}

impl ShardedPageAllocator {
    /// Bytes of bitmap needed to manage `page_count` pages.
    pub fn bitmap_bytes(page_count: u64) -> u64 {
        page_count.div_ceil(8)
    }

    /// Split `page_count` pages starting at `first_page` into `shards`
    /// contiguous `(first, count)` ranges (remainder pages go to the lowest
    /// shards). Shards beyond `page_count` come out empty. This is pure
    /// arithmetic — fsck uses it to attribute audit findings to shards
    /// without any on-device shard metadata.
    pub fn shard_ranges_for(first_page: u64, page_count: u64, shards: usize) -> Vec<(u64, u64)> {
        let ns = shards.max(1) as u64;
        let chunk = page_count / ns;
        let rem = page_count % ns;
        let mut out = Vec::with_capacity(ns as usize);
        let mut start = first_page;
        for i in 0..ns {
            let count = chunk + u64::from(i < rem);
            out.push((start, count));
            start += count;
        }
        out
    }

    /// Which shard owns `page` (must be in the managed range).
    fn shard_of(&self, page: u64) -> usize {
        debug_assert!(page >= self.first_page && page < self.first_page + self.page_count);
        let idx = page - self.first_page;
        let ns = self.shards.len() as u64;
        let chunk = self.page_count / ns;
        let rem = self.page_count % ns;
        let wide = chunk + 1;
        let s = if chunk == 0 {
            idx
        } else if idx < rem * wide {
            idx / wide
        } else {
            rem + (idx - rem * wide) / chunk
        };
        s as usize
    }

    fn build(
        device: Arc<PmemDevice>,
        bitmap_off: u64,
        first_page: u64,
        page_count: u64,
        shards: usize,
        fill: impl Fn(u64, u64) -> (Vec<u64>, u64) + Sync,
    ) -> Self {
        assert_eq!(bitmap_off % 8, 0, "bitmap must be word-aligned");
        let ranges = Self::shard_ranges_for(first_page, page_count, shards);
        let shards: Vec<Shard> = if ranges.len() > 1 {
            // Rebuild all shards in parallel (recovery reads the bitmap
            // once per shard; format just materializes ranges).
            std::thread::scope(|s| {
                let handles: Vec<_> = ranges
                    .iter()
                    .map(|&(first, count)| {
                        let fill = &fill;
                        s.spawn(move || fill(first, count))
                    })
                    .collect();
                handles
                    .into_iter()
                    .zip(&ranges)
                    .map(|(h, &(first, count))| {
                        let (free, allocated) = h.join().expect("shard rebuild panicked");
                        Shard {
                            first,
                            count,
                            lock_acqs: AtomicU64::new(0),
                            steals_from: AtomicU64::new(0),
                            free_hint: AtomicU64::new(free.len() as u64),
                            inner: Mutex::new(ShardInner { free, allocated }),
                        }
                    })
                    .collect()
            })
        } else {
            ranges
                .iter()
                .map(|&(first, count)| {
                    let (free, allocated) = fill(first, count);
                    Shard {
                        first,
                        count,
                        lock_acqs: AtomicU64::new(0),
                        steals_from: AtomicU64::new(0),
                        free_hint: AtomicU64::new(free.len() as u64),
                        inner: Mutex::new(ShardInner { free, allocated }),
                    }
                })
                .collect()
        };
        ShardedPageAllocator {
            device,
            bitmap_off,
            first_page,
            page_count,
            shards: shards.into_boxed_slice(),
            steals: AtomicU64::new(0),
            lock_held_ns: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
        }
    }

    /// Format a fresh allocator with the default shard count: zero the
    /// bitmap (all pages free) and persist it.
    pub fn format(
        device: Arc<PmemDevice>,
        bitmap_off: u64,
        first_page: u64,
        page_count: u64,
    ) -> PmemResult<Self> {
        Self::format_with_shards(device, bitmap_off, first_page, page_count, default_alloc_shards())
    }

    /// Format a fresh allocator with an explicit shard count.
    pub fn format_with_shards(
        device: Arc<PmemDevice>,
        bitmap_off: u64,
        first_page: u64,
        page_count: u64,
        shards: usize,
    ) -> PmemResult<Self> {
        let bytes = Self::bitmap_bytes(page_count) as usize;
        device.zero(bitmap_off, bytes)?;
        device.persist(bitmap_off, bytes)?;
        Ok(Self::build(
            device,
            bitmap_off,
            first_page,
            page_count,
            shards,
            |first, count| ((first..first + count).rev().collect(), 0),
        ))
    }

    /// Recover an allocator from the durable bitmap after a crash or
    /// remount, with the default shard count.
    pub fn recover(
        device: Arc<PmemDevice>,
        bitmap_off: u64,
        first_page: u64,
        page_count: u64,
    ) -> PmemResult<Self> {
        Self::recover_with_shards(device, bitmap_off, first_page, page_count, default_alloc_shards())
    }

    /// Recover with an explicit shard count, rebuilding the shards'
    /// volatile free lists in parallel (one scan thread per shard). Any
    /// shard count recovers any image: the bitmap layout is independent of
    /// how the range was sharded when the bits were written.
    pub fn recover_with_shards(
        device: Arc<PmemDevice>,
        bitmap_off: u64,
        first_page: u64,
        page_count: u64,
        shards: usize,
    ) -> PmemResult<Self> {
        let bytes = Self::bitmap_bytes(page_count) as usize;
        let mut bitmap = vec![0u8; bytes];
        device.read(bitmap_off, &mut bitmap)?;
        let bitmap = &bitmap;
        Ok(Self::build(
            device,
            bitmap_off,
            first_page,
            page_count,
            shards,
            move |first, count| {
                let mut free = Vec::new();
                let mut allocated = 0;
                for p in (first..first + count).rev() {
                    let i = p - first_page;
                    if bitmap[(i / 8) as usize] & (1 << (i % 8)) == 0 {
                        free.push(p);
                    } else {
                        allocated += 1;
                    }
                }
                (free, allocated)
            },
        ))
    }

    /// Number of managed pages.
    pub fn page_count(&self) -> u64 {
        self.page_count
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The `(first, count)` page range of every shard.
    pub fn shard_ranges(&self) -> Vec<(u64, u64)> {
        self.shards.iter().map(|s| (s.first, s.count)).collect()
    }

    /// Number of currently free pages (summed across shards; racy but
    /// monotone per shard, like any aggregate of concurrent counters).
    pub fn free_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.inner.lock().free.len() as u64)
            .sum()
    }

    /// Number of currently allocated pages.
    pub fn allocated_count(&self) -> u64 {
        self.shards.iter().map(|s| s.inner.lock().allocated).sum()
    }

    /// Snapshot the contention counters and per-shard occupancy.
    pub fn stats(&self) -> AllocStatsSnapshot {
        AllocStatsSnapshot {
            shards: self
                .shards
                .iter()
                .map(|s| {
                    let inner = s.inner.lock();
                    AllocShardSnapshot {
                        first: s.first,
                        count: s.count,
                        free: inner.free.len() as u64,
                        allocated: inner.allocated,
                        lock_acqs: s.lock_acqs.load(Ordering::Relaxed),
                        steals_from: s.steals_from.load(Ordering::Relaxed),
                    }
                })
                .collect(),
            alloc_steals: self.steals.load(Ordering::Relaxed),
            lock_held_ns: self.lock_held_ns.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
        }
    }

    /// Zero the contention counters (occupancy is state, not a counter,
    /// and is untouched). Benches call this between measurement windows.
    pub fn reset_stats(&self) {
        for s in self.shards.iter() {
            s.lock_acqs.store(0, Ordering::Relaxed);
            s.steals_from.store(0, Ordering::Relaxed);
        }
        self.steals.store(0, Ordering::Relaxed);
        self.lock_held_ns.store(0, Ordering::Relaxed);
        self.allocs.store(0, Ordering::Relaxed);
        self.frees.store(0, Ordering::Relaxed);
    }

    /// Durably set (`true`) or clear (`false`) the bitmap bits of `pages`:
    /// one atomic `fetch_or`/`fetch_and` per touched word plus `clwb` of
    /// the word. The caller fences.
    fn persist_bits(&self, pages: &[u64], value: bool) -> PmemResult<()> {
        // Coalesce pages into per-word masks (BTreeMap: deterministic
        // store order keeps tracked-mode crash enumeration reproducible).
        let mut words: BTreeMap<u64, u64> = BTreeMap::new();
        for &p in pages {
            debug_assert!(p >= self.first_page && p < self.first_page + self.page_count);
            let idx = p - self.first_page;
            let word_off = self.bitmap_off + (idx / 64) * 8;
            *words.entry(word_off).or_default() |= 1u64 << (idx % 64);
        }
        for (&off, &mask) in &words {
            if value {
                self.device.fetch_or_u64(off, mask)?;
            } else {
                self.device.fetch_and_u64(off, !mask)?;
            }
            self.device.clwb(off, 8)?;
        }
        Ok(())
    }

    /// Allocate one page; returns its absolute page number.
    pub fn alloc(&self) -> PmemResult<u64> {
        Ok(self.alloc_extent(1)?[0])
    }

    /// Allocate `n` pages in one durable batch (one fence for the whole
    /// batch — this is how the kernel grants page extents to a LibFS).
    /// The home shard is picked from a per-thread hash.
    pub fn alloc_extent(&self, n: usize) -> PmemResult<Vec<u64>> {
        self.alloc_extent_hinted(thread_hint(), n)
    }

    /// Allocate `n` pages with an explicit home-shard hint (`hint %
    /// shards`). Benches pin threads to shards with this; the plain entry
    /// points derive the hint from the calling thread's id.
    ///
    /// Stealing is **fairness-aware**: when the home shard runs dry, the
    /// other shards are tried fullest-first (by a lock-free free-length
    /// hint) and a steal takes at most half of any victim's free list. A
    /// hot thread that outruns its own shard therefore spreads its
    /// overflow across the pool and can never strip a cold thread's home
    /// shard bare — the cold thread's allocations stay on its private,
    /// uncontended fast path. The caps never manufacture exhaustion: a
    /// final uncapped ring sweep takes whatever is left before the
    /// allocator reports [`PmemError::NoSpace`].
    pub fn alloc_extent_hinted(&self, hint: usize, n: usize) -> PmemResult<Vec<u64>> {
        let ns = self.shards.len();
        let home = hint % ns;
        let mut pages: Vec<u64> = Vec::with_capacity(n);
        // Pass 1: the home shard, uncapped.
        self.take_from(home, n, &mut pages, None, false);
        // Pass 2: steal fullest-first, leaving each victim at least half
        // of what it had.
        if pages.len() < n && ns > 1 {
            let mut victims: Vec<usize> = (0..ns).filter(|&k| k != home).collect();
            victims.sort_by_key(|&k| {
                (
                    std::cmp::Reverse(self.shards[k].free_hint.load(Ordering::Relaxed)),
                    k,
                )
            });
            for k in victims {
                if pages.len() == n {
                    break;
                }
                crate::sched_point("alloc.shard.steal");
                self.take_from(k, n, &mut pages, Some(2), true);
            }
        }
        // Pass 3: exhaustion sweep in ring order, uncapped — the fairness
        // caps must never turn "pages exist" into NoSpace.
        if pages.len() < n {
            for k in 1..ns {
                if pages.len() == n {
                    break;
                }
                crate::sched_point("alloc.shard.steal");
                self.take_from((home + k) % ns, n, &mut pages, None, true);
            }
        }
        if pages.len() < n {
            // Roll the partial take back before reporting exhaustion.
            self.push_free(&pages);
            return Err(PmemError::NoSpace {
                requested: n,
                free: self.free_count() as usize,
            });
        }
        self.persist_bits(&pages, true)?;
        crate::sched_point("alloc.shard.bit_persist");
        self.device.sfence();
        self.allocs.fetch_add(n as u64, Ordering::Relaxed);
        Ok(pages)
    }

    /// Take up to `n - pages.len()` pages from shard `k` under its lock.
    /// `cap_divisor` limits the take to `free / divisor` (the fairness
    /// cap); `steal` attributes the take to the steal counters.
    fn take_from(
        &self,
        k: usize,
        n: usize,
        pages: &mut Vec<u64>,
        cap_divisor: Option<usize>,
        steal: bool,
    ) {
        let shard = &self.shards[k];
        let mut inner = shard.inner.lock();
        shard.lock_acqs.fetch_add(1, Ordering::Relaxed);
        let held = Instant::now();
        let mut take = (n - pages.len()).min(inner.free.len());
        if let Some(d) = cap_divisor {
            take = take.min(inner.free.len() / d);
        }
        if take > 0 {
            let at = inner.free.len() - take;
            pages.extend(inner.free.split_off(at));
            inner.allocated += take as u64;
            shard
                .free_hint
                .store(inner.free.len() as u64, Ordering::Relaxed);
            if steal {
                self.steals.fetch_add(take as u64, Ordering::Relaxed);
                shard.steals_from.fetch_add(take as u64, Ordering::Relaxed);
            }
        }
        drop(inner);
        self.lock_held_ns
            .fetch_add(held.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Free one page.
    pub fn free(&self, page: u64) -> PmemResult<()> {
        self.free_extent(&[page])
    }

    /// Free a batch of pages with a single fence. Bits are cleared durably
    /// *before* the pages re-enter any volatile free list, so a page can
    /// never be handed out again while its bit is still set from the
    /// previous life.
    pub fn free_extent(&self, pages: &[u64]) -> PmemResult<()> {
        self.persist_bits(pages, false)?;
        self.device.sfence();
        self.push_free(pages);
        self.frees.fetch_add(pages.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Return `pages` to their owning shards' free lists.
    fn push_free(&self, pages: &[u64]) {
        if pages.is_empty() {
            return;
        }
        let mut by_shard: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for &p in pages {
            by_shard.entry(self.shard_of(p)).or_default().push(p);
        }
        for (s, group) in by_shard {
            let shard = &self.shards[s];
            let mut inner = shard.inner.lock();
            shard.lock_acqs.fetch_add(1, Ordering::Relaxed);
            let held = Instant::now();
            inner.free.extend_from_slice(&group);
            inner.allocated = inner.allocated.saturating_sub(group.len() as u64);
            shard
                .free_hint
                .store(inner.free.len() as u64, Ordering::Relaxed);
            drop(inner);
            self.lock_held_ns
                .fetch_add(held.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// True when `page` is currently marked allocated in the durable bitmap.
    pub fn is_allocated(&self, page: u64) -> PmemResult<bool> {
        if page < self.first_page || page >= self.first_page + self.page_count {
            return Err(PmemError::OutOfBounds {
                offset: page,
                len: 1,
                size: self.page_count as usize,
            });
        }
        let idx = page - self.first_page;
        let b = self.device.read_u8(self.bitmap_off + idx / 8)?;
        Ok(b & (1 << (idx % 8)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;
    use std::collections::HashSet;

    fn mk() -> ShardedPageAllocator {
        let dev = PmemDevice::new(64 * PAGE_SIZE);
        // Bitmap at offset 0, managing pages 4..36.
        ShardedPageAllocator::format(dev, 0, 4, 32).unwrap()
    }

    #[test]
    fn alloc_unique_pages() {
        let a = mk();
        let mut seen = HashSet::new();
        for _ in 0..32 {
            let p = a.alloc().unwrap();
            assert!((4..36).contains(&p));
            assert!(seen.insert(p), "page {p} allocated twice");
        }
        assert!(a.alloc().is_err(), "allocator must be exhausted");
        assert_eq!(a.allocated_count(), 32);
    }

    #[test]
    fn free_allows_reuse() {
        let a = mk();
        let p = a.alloc().unwrap();
        assert!(a.is_allocated(p).unwrap());
        a.free(p).unwrap();
        assert!(!a.is_allocated(p).unwrap());
        assert_eq!(a.free_count(), 32);
    }

    #[test]
    fn extent_alloc() {
        let a = mk();
        let pages = a.alloc_extent(8).unwrap();
        assert_eq!(pages.len(), 8);
        for &p in &pages {
            assert!(a.is_allocated(p).unwrap());
        }
        a.free_extent(&pages).unwrap();
        assert_eq!(a.allocated_count(), 0);
    }

    #[test]
    fn recovery_rebuilds_free_list() {
        let dev = PmemDevice::new(64 * PAGE_SIZE);
        let a = ShardedPageAllocator::format(dev.clone(), 0, 4, 32).unwrap();
        let kept = a.alloc_extent(5).unwrap();
        let dropped = a.alloc_extent(3).unwrap();
        a.free_extent(&dropped).unwrap();
        // "Remount": rebuild from the durable bitmap.
        let b = ShardedPageAllocator::recover(dev, 0, 4, 32).unwrap();
        assert_eq!(b.allocated_count(), 5);
        assert_eq!(b.free_count(), 27);
        for &p in &kept {
            assert!(b.is_allocated(p).unwrap());
        }
        // Newly allocated pages must not collide with the kept ones.
        let fresh = b.alloc_extent(27).unwrap();
        for &p in &fresh {
            assert!(!kept.contains(&p));
        }
    }

    #[test]
    fn recovery_after_crash_sees_persisted_bits() {
        let dev = PmemDevice::new_tracked(64 * PAGE_SIZE);
        let a = ShardedPageAllocator::format(dev.clone(), 0, 4, 32).unwrap();
        let pages = a.alloc_extent(4).unwrap();
        // Crash: the bitmap updates were clwb'd and fenced by alloc_extent,
        // so every crash image shows them allocated.
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let img = dev.sample_crash_image(&mut rng).unwrap();
        let rec_dev = PmemDevice::from_image(&img);
        let b = ShardedPageAllocator::recover(rec_dev, 0, 4, 32).unwrap();
        for &p in &pages {
            assert!(b.is_allocated(p).unwrap());
        }
    }

    #[test]
    fn concurrent_alloc_is_disjoint() {
        let dev = PmemDevice::new(1024 * PAGE_SIZE);
        let a = ShardedPageAllocator::format(dev, 0, 1, 512).unwrap();
        let sets: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..64).map(|_| a.alloc().unwrap()).collect::<Vec<_>>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all = HashSet::new();
        for set in sets {
            for p in set {
                assert!(all.insert(p), "double allocation of page {p}");
            }
        }
        assert_eq!(all.len(), 256);
    }

    #[test]
    fn bitmap_bytes_math() {
        assert_eq!(ShardedPageAllocator::bitmap_bytes(0), 0);
        assert_eq!(ShardedPageAllocator::bitmap_bytes(1), 1);
        assert_eq!(ShardedPageAllocator::bitmap_bytes(8), 1);
        assert_eq!(ShardedPageAllocator::bitmap_bytes(9), 2);
    }

    #[test]
    fn shard_ranges_partition_the_page_range() {
        for (count, shards) in [(32u64, 1usize), (32, 8), (33, 8), (7, 3), (3, 8), (0, 4)] {
            let ranges = ShardedPageAllocator::shard_ranges_for(10, count, shards);
            assert_eq!(ranges.len(), shards.max(1));
            assert_eq!(ranges.iter().map(|&(_, c)| c).sum::<u64>(), count);
            let mut next = 10;
            for &(first, c) in &ranges {
                assert_eq!(first, next);
                next += c;
            }
        }
    }

    #[test]
    fn shard_of_agrees_with_ranges() {
        for (count, shards) in [(32u64, 8usize), (33, 8), (7, 3), (100, 6)] {
            let dev = PmemDevice::new(256 * PAGE_SIZE);
            let a =
                ShardedPageAllocator::format_with_shards(dev, 0, 4, count, shards).unwrap();
            for (i, &(first, c)) in a.shard_ranges().iter().enumerate() {
                for p in first..first + c {
                    assert_eq!(a.shard_of(p), i, "page {p} ({count} pages, {shards} shards)");
                }
            }
        }
    }

    #[test]
    fn single_shard_hands_out_low_pages_first() {
        let dev = PmemDevice::new(64 * PAGE_SIZE);
        let a = ShardedPageAllocator::format_with_shards(dev, 0, 4, 32, 1).unwrap();
        assert_eq!(a.alloc().unwrap(), 4);
        assert_eq!(a.alloc().unwrap(), 5);
        assert_eq!(a.alloc_extent(2).unwrap(), vec![7, 6]);
    }

    #[test]
    fn steals_when_home_shard_runs_dry() {
        let dev = PmemDevice::new(64 * PAGE_SIZE);
        let a = ShardedPageAllocator::format_with_shards(dev, 0, 4, 32, 2).unwrap();
        // Drain shard 0 (16 pages), then one more hinted alloc must steal.
        let home = a.alloc_extent_hinted(0, 16).unwrap();
        assert!(home.iter().all(|&p| p < 20), "home shard is pages 4..20");
        assert_eq!(a.stats().alloc_steals, 0);
        let stolen = a.alloc_extent_hinted(0, 2).unwrap();
        assert!(stolen.iter().all(|&p| p >= 20), "stolen from shard 1");
        assert_eq!(a.stats().alloc_steals, 2);
    }

    #[test]
    fn fair_steal_leaves_victim_half_its_pages() {
        // 2 shards x 16 pages. Drain the home shard, then steal 8: the
        // fairness cap allows exactly half the victim's 16 free pages, so
        // the victim keeps 8 and its home thread stays on the fast path.
        let dev = PmemDevice::new(64 * PAGE_SIZE);
        let a = ShardedPageAllocator::format_with_shards(dev, 0, 4, 32, 2).unwrap();
        let _home = a.alloc_extent_hinted(0, 16).unwrap();
        let stolen = a.alloc_extent_hinted(0, 8).unwrap();
        assert_eq!(stolen.len(), 8);
        let st = a.stats();
        assert_eq!(st.shards[1].free, 8, "victim keeps half its pages");
        assert_eq!(st.shards[1].steals_from, 8);
        assert_eq!(st.alloc_steals, 8);
    }

    #[test]
    fn steal_prefers_fullest_victim() {
        // 4 shards x 8 pages: shard 0 is 4..12, shard 1 is 12..20, shard 2
        // is 20..28, shard 3 is 28..36. Drain shard 0 and most of shard 1;
        // a steal must come from a full shard (2 or 3), not from the
        // nearly-dry ring neighbour.
        let dev = PmemDevice::new(64 * PAGE_SIZE);
        let a = ShardedPageAllocator::format_with_shards(dev, 0, 4, 32, 4).unwrap();
        let _s0 = a.alloc_extent_hinted(0, 8).unwrap();
        let _s1 = a.alloc_extent_hinted(1, 6).unwrap();
        let stolen = a.alloc_extent_hinted(0, 2).unwrap();
        assert!(
            stolen.iter().all(|&p| p >= 20),
            "steal {stolen:?} should come from shard 2 or 3"
        );
        let st = a.stats();
        assert_eq!(st.shards[1].free, 2, "near-dry shard left alone");
        assert_eq!(st.shards[1].steals_from, 0);
    }

    #[test]
    fn exhaustion_reports_no_space_and_rolls_back() {
        let dev = PmemDevice::new(64 * PAGE_SIZE);
        let a = ShardedPageAllocator::format_with_shards(dev, 0, 4, 32, 4).unwrap();
        let held = a.alloc_extent(30).unwrap();
        // 2 pages left across shards; a 5-page request must fail cleanly.
        match a.alloc_extent(5) {
            Err(PmemError::NoSpace { requested, free }) => {
                assert_eq!(requested, 5);
                assert_eq!(free, 2);
            }
            other => panic!("expected NoSpace, got {other:?}"),
        }
        // The partial take was rolled back: the survivors are allocatable.
        assert_eq!(a.free_count(), 2);
        assert_eq!(a.allocated_count(), 30);
        let rest = a.alloc_extent(2).unwrap();
        assert!(rest.iter().all(|p| !held.contains(p)));
    }

    #[test]
    fn recover_with_different_shard_count_sees_same_bits() {
        let dev = PmemDevice::new(256 * PAGE_SIZE);
        let a = ShardedPageAllocator::format_with_shards(dev.clone(), 0, 4, 100, 8).unwrap();
        let kept = a.alloc_extent(37).unwrap();
        let dropped = a.alloc_extent(11).unwrap();
        a.free_extent(&dropped).unwrap();
        for shards in [1usize, 3, 8] {
            let b =
                ShardedPageAllocator::recover_with_shards(dev.clone(), 0, 4, 100, shards).unwrap();
            assert_eq!(b.allocated_count(), 37);
            assert_eq!(b.free_count(), 63);
            for &p in &kept {
                assert!(b.is_allocated(p).unwrap());
            }
        }
    }

    /// Eight threads, each pinned to its home shard through the hint, churn
    /// alloc/free pairs. Every pair takes its home shard's lock exactly
    /// twice (one take, one push), whatever the interleaving, so the
    /// busiest shard's acquisitions are a count, not a timing: at 8 shards
    /// each shard sees one thread's pairs, exactly 1/8 of what the single
    /// shard sees, and perfect pinning never steals.
    #[test]
    fn hint_pinned_threads_split_lock_acquisitions_by_the_shard_count() {
        const THREADS: usize = 8;
        const PAIRS: u64 = 200;
        let churn = |shards: usize| {
            let dev = PmemDevice::new(PAGE_SIZE);
            let a = ShardedPageAllocator::format_with_shards(dev, 0, 0, 4096, shards).unwrap();
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let a = &a;
                    s.spawn(move || {
                        for _ in 0..PAIRS {
                            let pages = a.alloc_extent_hinted(t, 4).unwrap();
                            a.free_extent(&pages).unwrap();
                        }
                    });
                }
            });
            a.stats()
        };
        let one = churn(1);
        let eight = churn(8);
        let ops = THREADS as u64 * PAIRS;
        assert_eq!(one.max_shard_lock_acqs(), 2 * ops);
        assert_eq!(eight.max_shard_lock_acqs() * 8, one.max_shard_lock_acqs());
        assert_eq!(eight.lock_acqs(), one.lock_acqs());
        assert_eq!((one.alloc_steals, eight.alloc_steals), (0, 0));
    }

    /// Hammer same-byte bitmap bits from 4 threads: thread `t` churns shard
    /// `t` of an 8-shard, 16-page allocator (2 pages per shard), so all
    /// four threads read-modify-write bitmap byte 0 concurrently. Each
    /// iteration asserts the thread's own bits right after the fenced
    /// alloc/free, which is where a lost update is visible before a later
    /// RMW accidentally repairs it. Ends with 1 page held per thread.
    fn hammer_same_byte(a: &ShardedPageAllocator, iters: usize) -> HashSet<u64> {
        let held: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4usize)
                .map(|t| {
                    s.spawn(move || {
                        for _ in 0..iters {
                            let p = a.alloc_extent_hinted(t, 2).unwrap();
                            for &pg in &p {
                                assert!(a.is_allocated(pg).unwrap(), "set bit for {pg} lost");
                            }
                            a.free_extent(&p).unwrap();
                            for &pg in &p {
                                assert!(!a.is_allocated(pg).unwrap(), "clear bit for {pg} lost");
                            }
                        }
                        a.alloc_extent_hinted(t, 1).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        held.into_iter().flatten().collect()
    }

    /// Regression test for the `set_bit` lost-update race: the old code
    /// dropped the free-list lock before a plain read-modify-write of the
    /// bitmap byte (`alloc_extent`), and `free_extent` mutated bits before
    /// taking the lock at all — so two threads touching pages in the same
    /// bitmap byte could lose a durable bit (double allocation after
    /// recovery). On the fast backing that plain RMW is a genuine data
    /// race; this hammer makes it lose bits within a few thousand
    /// iterations, while the atomic `fetch_or`/`fetch_and` path cannot.
    #[test]
    fn same_byte_bits_survive_concurrent_hammer() {
        let dev = PmemDevice::new(64 * PAGE_SIZE);
        let a = ShardedPageAllocator::format_with_shards(dev, 0, 4, 16, 8).unwrap();
        let held = hammer_same_byte(&a, 10_000);
        assert_eq!(held.len(), 4);
        assert_eq!(a.allocated_count(), 4);
        for p in 4..20 {
            assert_eq!(
                a.is_allocated(p).unwrap(),
                held.contains(&p),
                "bit for page {p} lost or leaked"
            );
        }
    }

    /// Same hammer on the tracked backing, then recover from the durable
    /// image: every persisted bit must match the surviving allocations.
    #[test]
    fn same_byte_hammer_recovers_exactly() {
        let dev = PmemDevice::new_tracked(64 * PAGE_SIZE);
        let a = ShardedPageAllocator::format_with_shards(dev.clone(), 0, 4, 16, 8).unwrap();
        let held = hammer_same_byte(&a, 200);
        assert_eq!(held.len(), 4);
        // Everything was fenced; recover from the durable image and check
        // every bit landed: held pages allocated, all others free.
        dev.persist_all();
        let img = dev.persistent_image().unwrap();
        let b = ShardedPageAllocator::recover(PmemDevice::from_image(&img), 0, 4, 16).unwrap();
        for p in 4..20 {
            assert_eq!(
                b.is_allocated(p).unwrap(),
                held.contains(&p),
                "durable bit for page {p} lost or leaked"
            );
        }
        assert_eq!(b.allocated_count(), 4);
    }
}
