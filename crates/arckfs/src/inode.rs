//! In-memory inodes — the DRAM auxiliary state.
//!
//! A [`MemInode`] is the LibFS's per-inode auxiliary state (§2.2): the
//! mapping granted by the kernel, cached metadata (the §4.3 patch serves
//! lock-free readers from this cache instead of the mapping), and — for
//! directories — the hash-table index over the NVM dentry log plus the
//! per-tail append state.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::sync::{Mutex, RwLock};
use rcu::{Arena, ArenaRef};

use pmem::Mapping;
use trio::InodeType;

/// One auxiliary directory entry, allocated from the generation-tagged
/// arena (see `crates/rcu`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DentryMeta {
    /// Component name.
    pub name: String,
    /// Target inode.
    pub ino: u64,
    /// Absolute device offset of the corresponding core-state dentry
    /// record. The §4.4 bug is a reader following this pointer before the
    /// record exists.
    pub log_off: u64,
}

/// Append state of one directory-log tail.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tail {
    /// First page of this tail's chain (0 = none yet).
    pub head_page: u64,
    /// Page currently being appended to (0 = none).
    pub cur_page: u64,
    /// Next free dentry slot index within `cur_page`.
    pub next_slot: u64,
}

/// The directory index's bucket array: per bucket, the `(name_hash, ref)`
/// pairs of the entries hashing to it, each bucket under its own lock (the
/// paper's per-bucket spinlock; footnote 4 corrects the TRIO paper's
/// "readers-writer lock"). Storing the full 64-bit hash keeps duplicate
/// checks and lookups cheap without dereferencing every entry.
pub type BucketArray = Vec<Mutex<Vec<(u64, ArenaRef)>>>;

/// Auxiliary state of one directory.
pub struct DirState {
    /// The current bucket array. Directory operations hold the `RwLock` in
    /// **read** mode for their critical sections (read-read parallel, so
    /// per-bucket locks still provide the fine-grained exclusion); the
    /// table *resize* — §4.4 names "insertion or resizing" as the bucket
    /// contention sources — and the §4.3 release quiesce take it in
    /// **write** mode, which waits out every in-flight operation.
    pub buckets: RwLock<BucketArray>,
    /// Entry storage with use-after-free detection.
    pub arena: Arc<Arena<DentryMeta>>,
    /// Per-tail append state and lock (§2.2's "locks for each logging
    /// tail").
    pub tails: Vec<Mutex<Tail>>,
    /// Round-robin tail selector.
    pub next_tail: AtomicUsize,
    /// The §2.2 "lock for the index tail": serializes growth of the tail
    /// structure itself (linking a fresh page into a chain / publishing a
    /// tail head in the inode).
    pub index_tail_lock: Mutex<()>,
    /// Tombstoned dentry slots available for reuse (device offsets). A
    /// reused slot is invalidated (marker zeroed and persisted) before the
    /// new record's payload is written, per the §4.2 protocol's step (1).
    pub free_slots: Mutex<Vec<u64>>,
    /// Live entry count (mirrors the PM size field).
    pub live: AtomicU64,
    /// Group-durability commit batch (`crate::batch`, DESIGN.md §8).
    pub batch: crate::batch::BatchCell,
}

impl std::fmt::Debug for DirState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirState")
            .field("buckets", &self.buckets.read().len())
            .field("tails", &self.tails.len())
            .field("live", &self.live.load(Ordering::Relaxed))
            .finish()
    }
}

impl DirState {
    /// Empty directory state with `buckets` hash buckets and `ntails` log
    /// tails.
    pub fn new(buckets: usize, ntails: usize) -> Self {
        DirState {
            buckets: RwLock::new(
                (0..buckets.max(1))
                    .map(|_| Mutex::new(Vec::new()))
                    .collect(),
            ),
            arena: Arc::new(Arena::new()),
            tails: (0..ntails).map(|_| Mutex::new(Tail::default())).collect(),
            next_tail: AtomicUsize::new(0),
            index_tail_lock: Mutex::new(()),
            free_slots: Mutex::new(Vec::new()),
            live: AtomicU64::new(0),
            batch: crate::batch::BatchCell::default(),
        }
    }

    /// FNV-1a hash of a name (bucket index = hash % bucket count).
    pub fn name_hash(name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Grow the table once the load factor passes this many entries per
    /// bucket.
    pub const RESIZE_LOAD: u64 = 8;

    /// Double the bucket array, rehashing every entry. The exclusive write
    /// lock waits out every in-flight directory operation, exactly the
    /// resize contention §4.4 describes.
    pub fn resize(&self) {
        let mut arr = self.buckets.write();
        let old_len = arr.len();
        if self.live.load(Ordering::SeqCst) <= (old_len as u64) * Self::RESIZE_LOAD {
            return; // someone else already resized
        }
        let new_len = old_len * 2;
        let mut rehashed: Vec<Vec<(u64, ArenaRef)>> = vec![Vec::new(); new_len];
        for bucket in arr.iter_mut() {
            for (h, r) in bucket.get_mut().drain(..) {
                rehashed[(h as usize) % new_len].push((h, r));
            }
        }
        *arr = rehashed.into_iter().map(Mutex::new).collect();
    }

    /// Pick a tail for the next append (round-robin, so concurrent creators
    /// spread across tails — the point of the multi-tailed log).
    pub fn pick_tail(&self) -> usize {
        self.next_tail.fetch_add(1, Ordering::Relaxed) % self.tails.len()
    }
}

/// Lifecycle state of a [`MemInode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InodeState {
    /// Owned by this LibFS with a live mapping.
    Acquired,
    /// Released back to the kernel; the mapping is stale. With the §4.3
    /// patch the auxiliary state is retained (and readers use the cache);
    /// re-acquiring refreshes the mapping.
    Released,
}

/// The in-memory inode.
pub struct MemInode {
    /// Inode number.
    pub ino: u64,
    /// Type.
    pub itype: InodeType,
    /// Parent directory as known to this LibFS (from path resolution);
    /// used for the §4.6 descendant check and Rule (2)/(3) ordering.
    pub parent: AtomicU64,
    /// The current mapping of the core state. Swapped on re-acquire.
    pub mapping: RwLock<Mapping>,
    /// Released flag (see [`InodeState`]).
    released: AtomicBool,
    /// The content generation the kernel reported when this LibFS last
    /// released the inode successfully; 0 = none (kernel generations start
    /// at 1). Consumed by the next revival: a grant carrying the same value
    /// means the core state is byte-identical to what was released, so a
    /// directory's retained [`DirState`] is still exact; a grant whose
    /// delta starts at it names the slots that changed since (DESIGN.md
    /// §14).
    released_generation: AtomicU64,
    /// Cached metadata — the §4.3 patch's "relevant inode state in the
    /// in-memory inode" that read operations use instead of the mapping.
    pub cached_size: AtomicU64,
    /// Cached link count.
    pub cached_nlink: AtomicU64,
    /// In-DRAM mirror of the inode's sequence counter.
    pub seq: AtomicU64,
    /// The §4.3 release-quiesce lock: release and revival take it in write
    /// mode, `remove_in_dir` holds the parent's in read mode so the mapping
    /// it tears a child down through cannot go stale mid-free. The data
    /// path never takes it — file contents are excluded by
    /// [`MemInode::ranges`].
    pub rw: RwLock<()>,
    /// Metadata update lock (size/seq/block-map fields in the PM inode).
    pub meta: Mutex<()>,
    /// Byte-range lock table for the regular-file data path (DESIGN.md §11).
    pub ranges: crate::range_lock::RangeLockTable,
    /// DRAM mirror of the file's extent chain (DESIGN.md §11).
    pub extents: RwLock<crate::extent::ExtentCache>,
    /// Directory auxiliary state (None for regular files).
    pub dir: Option<DirState>,
    /// Workspace-unique id of this `MemInode` *instance*. Inode numbers are
    /// recycled; dentry-cache entries record the instance they were filled
    /// against so an entry published under a previous life of the same
    /// inode number can never validate against its successor.
    uid: u64,
    /// Per-directory dentry-cache generation. Namespace writers bump it
    /// inside their critical section; a cached `(parent, name)` entry is
    /// only trusted while the generation it was filled at is still current
    /// (see `crate::dcache`).
    dcache_gen: AtomicU64,
}

/// Source of [`MemInode::uid`] values, shared by every LibFS in the process.
static NEXT_MEM_INODE_UID: AtomicU64 = AtomicU64::new(1);

impl std::fmt::Debug for MemInode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemInode")
            .field("ino", &self.ino)
            .field("itype", &self.itype)
            .field("released", &self.released.load(Ordering::Relaxed))
            .finish()
    }
}

impl MemInode {
    /// A fresh in-memory inode in the [`InodeState::Acquired`] state.
    #[allow(clippy::too_many_arguments)] // mirrors the on-PM record's fields
    pub fn new(
        ino: u64,
        itype: InodeType,
        parent: u64,
        mapping: Mapping,
        size: u64,
        nlink: u64,
        seq: u64,
        dir: Option<DirState>,
    ) -> Arc<Self> {
        Arc::new(MemInode {
            ino,
            itype,
            parent: AtomicU64::new(parent),
            mapping: RwLock::new(mapping),
            released: AtomicBool::new(false),
            released_generation: AtomicU64::new(0),
            cached_size: AtomicU64::new(size),
            cached_nlink: AtomicU64::new(nlink),
            seq: AtomicU64::new(seq),
            rw: RwLock::new(()),
            meta: Mutex::new(()),
            ranges: crate::range_lock::RangeLockTable::default(),
            extents: RwLock::new(crate::extent::ExtentCache::default()),
            dir,
            uid: NEXT_MEM_INODE_UID.fetch_add(1, Ordering::Relaxed),
            dcache_gen: AtomicU64::new(0),
        })
    }

    /// Workspace-unique id of this instance (never recycled, unlike `ino`).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Current dentry-cache generation of this directory.
    pub fn dcache_gen(&self) -> u64 {
        self.dcache_gen.load(Ordering::SeqCst)
    }

    /// Publish a generation bump: every dentry-cache entry filled under an
    /// earlier generation of this directory stops validating. Called by
    /// namespace writers inside their critical section (and by release /
    /// revival, which change what the auxiliary index may serve).
    pub fn bump_dcache_gen(&self) {
        self.dcache_gen.fetch_add(1, Ordering::SeqCst);
    }

    /// Current lifecycle state.
    pub fn state(&self) -> InodeState {
        if self.released.load(Ordering::SeqCst) {
            InodeState::Released
        } else {
            InodeState::Acquired
        }
    }

    /// Mark released (§4.3: called with every lock held in the fixed mode).
    pub fn mark_released(&self) {
        self.released.store(true, Ordering::SeqCst);
    }

    /// Remember the generation a successful kernel release reported (§4.3
    /// patch only: called with every lock of the inode held).
    pub fn remember_generation(&self, generation: u64) {
        self.released_generation.store(generation, Ordering::SeqCst);
    }

    /// The remembered release generation, forgetting it: whatever a revival
    /// decides, the next one starts from a fresh release.
    pub fn take_generation(&self) -> u64 {
        self.released_generation.swap(0, Ordering::SeqCst)
    }

    /// Mark re-acquired with a fresh mapping. The extent mirror is dropped:
    /// another LibFS may have grown the file while this inode was released,
    /// so the next data access reloads the chain from PM.
    pub fn mark_acquired(&self, mapping: Mapping) {
        *self.mapping.write() = mapping;
        self.extents.write().invalidate();
        self.released.store(false, Ordering::SeqCst);
    }

    /// A clone of the current mapping handle. The §4.3 bug is precisely a
    /// thread using such a handle after another thread released the inode:
    /// the handle goes stale and the access raises the modelled bus error.
    pub fn mapping_handle(&self) -> Mapping {
        self.mapping.read().clone()
    }

    /// Allocate the next per-inode sequence number.
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The directory state, or an internal error for files.
    pub fn dir_state(&self) -> Option<&DirState> {
        self.dir.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{MappingRegistry, PmemDevice};

    fn mapping() -> (Mapping, Arc<MappingRegistry>) {
        let dev = PmemDevice::new(1 << 20);
        let reg = Arc::new(MappingRegistry::new());
        (Mapping::new(dev, reg.clone(), 0, 1 << 20), reg)
    }

    #[test]
    fn state_transitions() {
        let (m, _reg) = mapping();
        let ino = MemInode::new(5, InodeType::Regular, 1, m, 0, 1, 0, None);
        assert_eq!(ino.state(), InodeState::Acquired);
        ino.mark_released();
        assert_eq!(ino.state(), InodeState::Released);
        let (m2, _reg2) = mapping();
        ino.mark_acquired(m2);
        assert_eq!(ino.state(), InodeState::Acquired);
    }

    #[test]
    fn stale_handle_after_unmap() {
        let (m, reg) = mapping();
        let ino = MemInode::new(5, InodeType::Regular, 1, m, 0, 1, 0, None);
        let handle = ino.mapping_handle();
        assert!(handle.read_u64(0).is_ok());
        reg.unmap(); // what the kernel does on release
        assert!(handle.read_u64(0).is_err(), "stale handle must fault");
    }

    #[test]
    fn dir_state_hash_is_stable_and_bounded() {
        let d = DirState::new(16, 4);
        let h1 = DirState::name_hash("hello");
        assert_eq!(h1, DirState::name_hash("hello"));
        assert_eq!(d.buckets.read().len(), 16);
        // Distinct names spread over the hash space.
        let mut distinct = std::collections::HashSet::new();
        for i in 0..100 {
            distinct.insert(DirState::name_hash(&format!("f{i}")) % 16);
        }
        assert!(distinct.len() > 4, "hash must spread: {distinct:?}");
    }

    #[test]
    fn resize_doubles_and_preserves_refs() {
        let d = DirState::new(4, 2);
        let mut refs = Vec::new();
        {
            let arr = d.buckets.read();
            for i in 0..64u64 {
                let r = d.arena.insert(super::DentryMeta {
                    name: format!("n{i}"),
                    ino: i + 2,
                    log_off: 0,
                });
                let h = DirState::name_hash(&format!("n{i}"));
                arr[(h as usize) % arr.len()].lock().push((h, r));
                refs.push((format!("n{i}"), h, r));
            }
        }
        d.live.store(64, Ordering::SeqCst);
        d.resize();
        let arr = d.buckets.read();
        assert_eq!(arr.len(), 8);
        // Every entry is findable in its rehashed bucket.
        for (name, h, r) in refs {
            let b = arr[(h as usize) % arr.len()].lock();
            assert!(
                b.iter().any(|(bh, br)| *bh == h && *br == r),
                "{name} lost in resize"
            );
        }
    }

    #[test]
    fn tail_round_robin_covers_all() {
        let d = DirState::new(16, 4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            seen.insert(d.pick_tail());
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn seq_monotone() {
        let (m, _reg) = mapping();
        let ino = MemInode::new(
            5,
            InodeType::Directory,
            1,
            m,
            0,
            2,
            10,
            Some(DirState::new(4, 2)),
        );
        assert_eq!(ino.next_seq(), 11);
        assert_eq!(ino.next_seq(), 12);
    }
}
