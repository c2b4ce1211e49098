//! The in-kernel access controller.
//!
//! The controller is the trusted entry point of the TRIO architecture
//! (§2.1, Figure 1): it grants LibFSes access to inodes at inode
//! granularity (steps ①–②), unmaps them on release (⑤) and forwards the
//! released core state to the integrity verifier (⑥–⑧). It also owns the
//! persistent page allocator (LibFSes receive page and inode-number
//! *extents* so that steady-state operation needs no kernel crossing), the
//! trust groups of §5.4, and the global rename lease of §4.6.
//!
//! Every public method is a modelled syscall: it bumps the syscall counter
//! and, when configured, charges a fixed kernel-crossing cost.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use pmem::{default_alloc_shards, LatencyModel, Mapping, MappingRegistry, PmemDevice};
use pmem::ShardedPageAllocator;
use vfs::{FsError, FsResult};

use crate::format::{self, Geometry, InodeType};
use crate::lease::{LeaseGrant, RenameLease};
use crate::provider;
use crate::shadow::{ShadowEntry, ShadowTable};
use crate::verifier::{self, Captures, Snapshot};
use crate::ROOT_INO;

/// Identifier of a registered LibFS (one per application).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LibFsId(pub u64);

/// Kernel-side configuration: which ArckFS+ fixes the trusted side applies,
/// plus cost knobs.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// §4.1: verifier distinguishes rename from deletion via the shadow
    /// parent pointer, and applies the relocation checks.
    pub rename_aware_verifier: bool,
    /// §4.6: the global cross-directory rename lease exists and directory
    /// relocations must hold it.
    pub require_rename_lease: bool,
    /// Lease timeout (bounds a malicious holder).
    pub lease_timeout: Duration,
    /// Injected cost per kernel crossing (0 in tests; benchmarks model a
    /// syscall at a few hundred ns).
    pub syscall_cost: Duration,
    /// Shard count for the page allocator and the inode-number pool.
    /// `0` means "auto": `min(cores, 8)` (see
    /// [`pmem::default_alloc_shards`]).
    pub alloc_shards: usize,
}

impl KernelConfig {
    /// The kernel as the original ArckFS artifact assumed it (no §4.1
    /// parent pointer, no §4.6 lease).
    pub fn arckfs() -> Self {
        KernelConfig {
            rename_aware_verifier: false,
            require_rename_lease: false,
            lease_timeout: Duration::from_secs(2),
            syscall_cost: Duration::ZERO,
            alloc_shards: 0,
        }
    }

    /// The ArckFS+ kernel (all trusted-side patches on).
    pub fn arckfs_plus() -> Self {
        KernelConfig {
            rename_aware_verifier: true,
            require_rename_lease: true,
            lease_timeout: Duration::from_secs(2),
            syscall_cost: Duration::ZERO,
            alloc_shards: 0,
        }
    }

    /// Set the injected kernel-crossing cost.
    pub fn with_syscall_cost(mut self, cost: Duration) -> Self {
        self.syscall_cost = cost;
        self
    }

    /// Pin the allocator shard count (`0` restores auto selection).
    pub fn with_alloc_shards(mut self, shards: usize) -> Self {
        self.alloc_shards = shards;
        self
    }

    /// The shard count this configuration resolves to.
    pub fn effective_alloc_shards(&self) -> usize {
        if self.alloc_shards == 0 {
            default_alloc_shards()
        } else {
            self.alloc_shards
        }
    }
}

/// Counters exported by the kernel.
#[derive(Debug, Default)]
pub struct KernelStats {
    /// Kernel crossings.
    pub syscalls: AtomicU64,
    /// Successful inode acquisitions.
    pub acquires: AtomicU64,
    /// Inode releases.
    pub releases: AtomicU64,
    /// Commits (verify while retaining ownership).
    pub commits: AtomicU64,
    /// Involuntary releases.
    pub forced_releases: AtomicU64,
    /// Verifications performed.
    pub verifications: AtomicU64,
    /// Verifications that failed.
    pub verify_failures: AtomicU64,
    /// Rollbacks applied after failed verification.
    pub rollbacks: AtomicU64,
    /// Verifications skipped thanks to a trust group.
    pub trust_skips: AtomicU64,
}

impl KernelStats {
    /// Plain-data snapshot `(syscalls, verifications, verify_failures)` plus
    /// the rest, for the harness.
    pub fn snapshot(&self) -> KernelStatsSnapshot {
        KernelStatsSnapshot {
            syscalls: self.syscalls.load(Ordering::Relaxed),
            acquires: self.acquires.load(Ordering::Relaxed),
            releases: self.releases.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            forced_releases: self.forced_releases.load(Ordering::Relaxed),
            verifications: self.verifications.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
            rollbacks: self.rollbacks.load(Ordering::Relaxed),
            trust_skips: self.trust_skips.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of [`KernelStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct KernelStatsSnapshot {
    pub syscalls: u64,
    pub acquires: u64,
    pub releases: u64,
    pub commits: u64,
    pub forced_releases: u64,
    pub verifications: u64,
    pub verify_failures: u64,
    pub rollbacks: u64,
    pub trust_skips: u64,
}

/// What a LibFS receives when the kernel grants it an inode (Figure 1 ②):
/// a generation-tagged mapping of the core state. Dropping the grant does
/// nothing; the LibFS must `release` through the kernel.
#[derive(Debug, Clone)]
pub struct InodeGrant {
    /// The granted inode.
    pub ino: u64,
    /// Mapping for direct userspace access to the inode's core state. The
    /// kernel invalidates it on (voluntary or involuntary) release.
    pub mapping: Mapping,
    /// The inode's content generation at the grant (DESIGN.md §14). It
    /// equals the value a [`Kernel::release`] of this inode returned only
    /// if the inode record and every directory log page are byte-identical
    /// to what that release verified, so a LibFS that kept the auxiliary
    /// state it released with may go on using it.
    pub generation: u64,
    /// What the verification that produced `generation` changed in a
    /// directory's log, when the kernel still has it (see [`Delta`]). A
    /// LibFS whose retained index is the image of `delta.from` may patch
    /// it slot by slot instead of rebuilding it.
    pub delta: Option<Arc<Delta>>,
}

/// A directory's change across one verified release or commit, slot by
/// slot (DESIGN.md §14): the verifier compares the log it just accepted
/// with the snapshot it ran against, 128 bytes at a time, and — when the
/// log kept its shape (same pages, chains and page headers) and at most a
/// quarter of its records changed — hands the kernel every changed dentry
/// slot with its bytes *before*. The delta travels with the verified image
/// it ends at — the retained image of an unowned directory, the snapshot
/// of an owned one — so the kernel keeps at most the latest one per
/// directory, and a grant carries it only while the directory's generation
/// is `to`.
#[derive(Debug)]
pub struct Delta {
    /// The generation of the snapshot the verification ran against.
    pub from: u64,
    /// The generation the verification produced.
    pub to: u64,
    /// Device offset and `from`-time bytes of every changed dentry slot,
    /// in log order.
    pub slots: Vec<(u64, verifier::Record)>,
}

/// Byte budget (inode records, log pages and their deltas) of the
/// verified directory images kept for unowned inodes; the oldest image
/// goes first.
const RETAINED_IMAGE_BUDGET: usize = 4 << 20;

/// Verified images of directories nobody owns (DESIGN.md §14): what the
/// last release's verification read, kept in DRAM so the next acquire's
/// rollback snapshot costs no PM read. An image exists only while its inode
/// has no owner and is handed to — or dropped at — the next acquire.
#[derive(Default)]
pub(crate) struct RetainedImages {
    /// ino → (insertion stamp, image).
    images: HashMap<u64, (u64, Snapshot)>,
    /// Insertion stamp → ino, oldest first.
    order: BTreeMap<u64, u64>,
    next_stamp: u64,
    bytes: usize,
}

impl RetainedImages {
    fn cost(image: &Snapshot) -> usize {
        let delta = image.delta.as_ref().map_or(0, |d| {
            d.slots.len() * std::mem::size_of::<(u64, verifier::Record)>()
        });
        image.inode_bytes.len() + image.pages.len() * pmem::PAGE_SIZE + delta
    }

    fn insert(&mut self, image: Snapshot) {
        // (A number freed unacquired and granted afresh through the pool
        // gets here with its past life's image still in place.)
        self.take(image.ino);
        let cost = Self::cost(&image);
        if cost > RETAINED_IMAGE_BUDGET {
            return;
        }
        self.bytes += cost;
        self.order.insert(self.next_stamp, image.ino);
        self.images.insert(image.ino, (self.next_stamp, image));
        self.next_stamp += 1;
        while self.bytes > RETAINED_IMAGE_BUDGET {
            let (_, oldest) = self.order.pop_first().expect("over budget, so not empty");
            let (_, evicted) = self.images.remove(&oldest).expect("ordered image");
            self.bytes -= Self::cost(&evicted);
        }
    }

    fn take(&mut self, ino: u64) -> Option<Snapshot> {
        let (stamp, image) = self.images.remove(&ino)?;
        self.order.remove(&stamp);
        self.bytes -= Self::cost(&image);
        Some(image)
    }
}

pub(crate) struct LibFsInfo {
    pub uid: u32,
    pub group: Option<u64>,
    /// LibFS-wide registry backing writes to freshly allocated (not yet
    /// committed) inodes and pages; lives until unregister.
    pub registry: Arc<MappingRegistry>,
}

/// Kernel-internal mutable state (held under one lock; the kernel is a
/// crossing point, not a fast path — the whole point of TRIO is that the
/// LibFS rarely enters it).
pub(crate) struct KState {
    pub shadow: ShadowTable,
    /// ino → set of owning LibFSes (more than one only within a trust
    /// group).
    pub owners: HashMap<u64, HashSet<u64>>,
    /// Acquire-time snapshots keyed by (ino, libfs).
    pub snapshots: HashMap<(u64, u64), Snapshot>,
    /// Mapping registries for live grants, keyed by (ino, libfs).
    pub registries: HashMap<(u64, u64), Arc<MappingRegistry>>,
    pub libfs: HashMap<u64, LibFsInfo>,
    /// Inodes released inside a trust group without verification:
    /// ino → (group id, snapshot for the eventual boundary verification).
    pub dirty_in_group: HashMap<u64, (u64, Snapshot)>,
    next_group: u64,
    retained: RetainedImages,
    /// Content generation per inode number (0 = none drawn yet). Volatile:
    /// a LibFS can only compare values from this kernel instance.
    generations: Vec<u64>,
    /// The kernel-global monotone source of generations: a value is never
    /// drawn twice, so a recycled inode number cannot match its past life.
    next_generation: u64,
    /// Which verification last took each log page's granule write flags.
    pub captures: Captures,
}

impl KState {
    fn new(shadow: ShadowTable, geom: &Geometry) -> KState {
        KState {
            shadow,
            owners: HashMap::new(),
            snapshots: HashMap::new(),
            registries: HashMap::new(),
            libfs: HashMap::new(),
            dirty_in_group: HashMap::new(),
            next_group: 1,
            retained: RetainedImages::default(),
            generations: vec![0; geom.max_inodes as usize + 1],
            next_generation: 1,
            captures: Captures::new(geom.total_pages),
        }
    }

    /// Give `ino` a generation no grant or release has reported before. (A
    /// number outside the table — only a misbehaving LibFS names one — gets
    /// a fresh value every time it is asked about, so it never matches.)
    ///
    /// The one place a generation moves, and so the one place a kept
    /// [`Delta`] is retired: a grant carries a delta only while its `to` is
    /// the inode's generation (`Kernel::acquire`), so any step but the
    /// verified one it describes ends it, whoever took the step.
    pub(crate) fn advance_generation(&mut self, ino: u64) -> u64 {
        let fresh = self.next_generation;
        self.next_generation += 1;
        if let Some(slot) = self.generations.get_mut(ino as usize) {
            *slot = fresh;
        }
        fresh
    }

    /// The content generation of `ino`, drawing one on first use.
    fn generation(&mut self, ino: u64) -> u64 {
        match self.generations.get(ino as usize) {
            Some(&drawn) if drawn != 0 => drawn,
            _ => self.advance_generation(ino),
        }
    }

    /// `ino` was freed, or is about to be initialised afresh: whatever was
    /// known about its content is void.
    pub(crate) fn forget_inode(&mut self, ino: u64) {
        self.retained.take(ino);
        self.advance_generation(ino);
    }
}

/// The TRIO kernel: access controller + verifier + allocator + lease.
pub struct Kernel {
    device: Arc<PmemDevice>,
    geom: Geometry,
    config: KernelConfig,
    /// Data-page pool, over the durable bitmap region.
    allocator: ShardedPageAllocator,
    /// Inode-number pool: the same engine over a volatile scratch bitmap
    /// (the durable truth for inode occupancy is the inode table's commit
    /// markers, re-scanned by [`Kernel::recover`]).
    inos: ShardedPageAllocator,
    lease: RenameLease,
    pub(crate) state: Mutex<KState>,
    stats: KernelStats,
    next_libfs: AtomicU64,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("geom", &self.geom)
            .field("config", &self.config)
            .finish()
    }
}

impl Kernel {
    /// Format a fresh file system on `device` and start the kernel: write
    /// the superblock, initialize the allocator, and create the root
    /// directory inode.
    pub fn format(
        device: Arc<PmemDevice>,
        geom: Geometry,
        config: KernelConfig,
    ) -> FsResult<Arc<Kernel>> {
        format::write_superblock(&device, &geom).map_err(fs_err)?;
        let shards = config.effective_alloc_shards();
        let allocator = ShardedPageAllocator::format_with_shards(
            device.clone(),
            geom.bitmap_offset(),
            geom.data_start_page,
            geom.data_pages(),
            shards,
        )
        .map_err(fs_err)?;

        // Zero the inode and shadow tables (markers must read as invalid).
        let it_off = geom.inode_table_page * pmem::PAGE_SIZE as u64;
        let it_len = (geom.inode_table_pages + geom.shadow_pages) as usize * pmem::PAGE_SIZE;
        device.zero(it_off, it_len).map_err(fs_err)?;
        device.persist_all();

        // Root inode: committed directory, 4 log tails, world-writable.
        let base = geom.inode_offset(ROOT_INO);
        device
            .write_u32(base + format::I_TYPE, InodeType::Directory.to_raw())
            .map_err(fs_err)?;
        device
            .write_u32(base + format::I_MODE, format::mode::RW_ALL)
            .map_err(fs_err)?;
        device.write_u32(base + format::I_UID, 0).map_err(fs_err)?;
        device
            .write_u32(base + format::I_NTAILS, 4)
            .map_err(fs_err)?;
        device
            .write_u64(base + format::I_NLINK, 2)
            .map_err(fs_err)?;
        device
            .persist(base, format::INODE_SIZE as usize)
            .map_err(fs_err)?;
        device
            .write_u64(base + format::I_MARKER, ROOT_INO)
            .map_err(fs_err)?;
        device.persist(base, 8).map_err(fs_err)?;

        let mut shadow = ShadowTable::new(device.clone(), geom);
        shadow
            .upsert(ShadowEntry {
                ino: ROOT_INO,
                itype: InodeType::Directory,
                mode: format::mode::RW_ALL,
                uid: 0,
                parent: 0,
            })
            .map_err(fs_err)?;

        let inos = provider::volatile_pool(2, geom.max_inodes - 1, shards);
        let lease = RenameLease::new(config.lease_timeout);
        Ok(Arc::new(Kernel {
            device,
            geom,
            config,
            allocator,
            inos,
            lease,
            state: Mutex::new(KState::new(shadow, &geom)),
            stats: KernelStats::default(),
            next_libfs: AtomicU64::new(1),
        }))
    }

    /// Remount an existing device (after a clean shutdown or a crash):
    /// validate the superblock, recover the allocator and shadow table,
    /// rebuild the kernel's ground truth (shadow entries and verified
    /// children) by walking the core state from the root — the core state
    /// *is* the ground truth (§2.2) — and rebuild the free-inode list from
    /// the inode table's commit markers.
    pub fn recover(device: Arc<PmemDevice>, config: KernelConfig) -> FsResult<Arc<Kernel>> {
        let geom = format::read_superblock(&device).map_err(FsError::Corrupted)?;
        let shards = config.effective_alloc_shards();
        let allocator = ShardedPageAllocator::recover_with_shards(
            device.clone(),
            geom.bitmap_offset(),
            geom.data_start_page,
            geom.data_pages(),
            shards,
        )
        .map_err(fs_err)?;

        // Reclaim leaked pages: bits that are durably set but not reachable
        // from any committed inode. These are extents that were granted to
        // a LibFS (allocate-then-link: the bit persists before the page is
        // linked) and lost to the crash before linking — exactly the benign
        // `PageLeak` class fsck reports. Clearing them here keeps leaks
        // from accumulating across crash/recover cycles.
        let referenced = crate::fsck::referenced_pages(&device, &geom).map_err(fs_err)?;
        let mut leaked = Vec::new();
        for page in geom.data_start_page..geom.data_start_page + geom.data_pages() {
            if !referenced.contains(&page) && allocator.is_allocated(page).map_err(fs_err)? {
                leaked.push(page);
            }
        }
        if !leaked.is_empty() {
            allocator.free_extent(&leaked).map_err(fs_err)?;
        }
        let mut shadow = ShadowTable::recover(device.clone(), geom).map_err(fs_err)?;

        // Walk the tree from the root, registering every reachable,
        // well-formed inode. Crash residue (partially persisted dentries,
        // dangling targets) is skipped — recovery's equivalent of fsck's
        // repair.
        let mut queue = vec![crate::ROOT_INO];
        let mut seen = std::collections::HashSet::from([crate::ROOT_INO]);
        while let Some(dir) = queue.pop() {
            let inode = match format::read_inode(&device, &geom, dir) {
                Ok(i) if i.is_committed(dir) => i,
                _ => continue,
            };
            if inode.inode_type() != Some(InodeType::Directory) {
                continue;
            }
            if shadow.get(dir).is_none() {
                shadow
                    .upsert(ShadowEntry {
                        ino: dir,
                        itype: InodeType::Directory,
                        mode: inode.mode,
                        uid: inode.uid,
                        parent: 0,
                    })
                    .map_err(fs_err)?;
            }
            // Which records are live is [`format::DirResolver`]'s decision,
            // as for fsck and the LibFS index rebuild: every reader of a
            // crashed or forged image sees one namespace.
            let Ok(res) = format::resolve_dir(&device, &geom, dir, &inode) else {
                continue;
            };
            let mut pending: Vec<_> = res
                .live
                .into_iter()
                .filter_map(|e| {
                    let child = format::read_inode(&device, &geom, e.ino).ok()?;
                    let itype = child.inode_type().filter(|_| child.is_committed(e.ino))?;
                    Some((e.name, e.ino, itype, child.mode, child.uid))
                })
                .collect();
            // Name order, so which parent claims a doubly linked child
            // below does not depend on hashing.
            pending.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let mut children = HashMap::with_capacity(pending.len());
            for (name, child, itype, mode_bits, uid) in pending {
                if !seen.insert(child) {
                    continue; // cross-directory residue: first parent wins
                }
                children.insert(name, child);
                shadow
                    .upsert(ShadowEntry {
                        ino: child,
                        itype,
                        mode: mode_bits,
                        uid,
                        parent: dir,
                    })
                    .map_err(fs_err)?;
                if itype == InodeType::Directory {
                    queue.push(child);
                }
            }
            shadow.set_children(dir, Arc::new(children));
        }
        // Rebuild the inode-number pool from the table's commit markers —
        // the durable truth for inode occupancy.
        let mut used = vec![false; geom.max_inodes as usize + 1];
        for ino in 2..=geom.max_inodes {
            let marker = device.read_u64(geom.inode_offset(ino)).map_err(fs_err)?;
            used[ino as usize] = marker == ino;
        }
        let inos =
            provider::volatile_pool_from_used(2, geom.max_inodes - 1, shards, |ino| {
                used[ino as usize]
            })
            .map_err(fs_err)?;
        let lease = RenameLease::new(config.lease_timeout);
        Ok(Arc::new(Kernel {
            device,
            geom,
            config,
            allocator,
            inos,
            lease,
            state: Mutex::new(KState::new(shadow, &geom)),
            stats: KernelStats::default(),
            next_libfs: AtomicU64::new(1),
        }))
    }

    fn syscall(&self) {
        self.stats.syscalls.fetch_add(1, Ordering::Relaxed);
        if !self.config.syscall_cost.is_zero() {
            LatencyModel::spin(self.config.syscall_cost);
        }
    }

    /// The shared device.
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    /// The on-PM geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// Kernel configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Kernel counters.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Register a LibFS running as `uid`. Returns its id and its LibFS-wide
    /// mapping (for writes to freshly granted, not-yet-committed resources).
    pub fn register_libfs(&self, uid: u32) -> (LibFsId, Mapping) {
        self.syscall();
        let id = LibFsId(self.next_libfs.fetch_add(1, Ordering::Relaxed));
        let registry = Arc::new(MappingRegistry::new());
        let mapping = Mapping::new(self.device.clone(), registry.clone(), 0, self.device.len());
        self.state.lock().libfs.insert(
            id.0,
            LibFsInfo {
                uid,
                group: None,
                registry,
            },
        );
        (id, mapping)
    }

    /// Unregister a LibFS: involuntarily release everything it still owns
    /// and invalidate its LibFS-wide mapping.
    pub fn unregister_libfs(&self, libfs: LibFsId) -> FsResult<()> {
        self.syscall();
        let owned: Vec<u64> = {
            let st = self.state.lock();
            st.owners
                .iter()
                .filter(|(_, s)| s.contains(&libfs.0))
                .map(|(&ino, _)| ino)
                .collect()
        };
        for ino in owned {
            let _ = self.force_release(libfs, ino);
        }
        let mut st = self.state.lock();
        if let Some(info) = st.libfs.remove(&libfs.0) {
            info.registry.unmap();
        }
        Ok(())
    }

    fn uid_of(st: &KState, libfs: LibFsId) -> FsResult<u32> {
        st.libfs
            .get(&libfs.0)
            .map(|i| i.uid)
            .ok_or_else(|| FsError::Internal(format!("unregistered LibFS {libfs:?}")))
    }

    fn group_of(st: &KState, libfs: LibFsId) -> Option<u64> {
        st.libfs.get(&libfs.0).and_then(|i| i.group)
    }

    /// Grants and returns are refused for a `LibFsId` that is not (or no
    /// longer) registered: a stale id must neither drain nor refill a pool.
    fn ensure_registered(&self, libfs: LibFsId) -> FsResult<()> {
        Self::uid_of(&self.state.lock(), libfs).map(drop)
    }

    /// Grant `n` unused inode numbers to the LibFS. The LibFS initializes
    /// them directly in userspace; the kernel learns of them when a parent
    /// directory referencing them is verified.
    pub fn grant_inodes(&self, libfs: LibFsId, n: usize) -> FsResult<Vec<u64>> {
        self.syscall();
        self.ensure_registered(libfs)?;
        // Take the numbers from the sharded pool *before* entering the
        // kernel lock — allocation contention stays on the pool's shard
        // locks, not the global kernel state.
        let inos = self.inos.alloc_extent(n).map_err(provider::provider_err)?;
        let mut st = self.state.lock();
        // The grantee owns the fresh inodes: it may commit/release them
        // (subject to Rule (1) — they verify only once connected).
        for &ino in &inos {
            st.owners.entry(ino).or_default().insert(libfs.0);
        }
        Ok(inos)
    }

    /// As [`Kernel::grant_inodes`], but also establish a mapping for each
    /// granted inode in the same kernel crossing — the LibFS initializes
    /// fresh inodes through these, and release invalidates them like any
    /// acquire-time mapping.
    pub fn grant_inodes_mapped(&self, libfs: LibFsId, n: usize) -> FsResult<Vec<(u64, Mapping)>> {
        self.syscall();
        self.ensure_registered(libfs)?;
        let inos = self.inos.alloc_extent(n).map_err(provider::provider_err)?;
        let mut st = self.state.lock();
        let mut out = Vec::with_capacity(n);
        for ino in inos {
            st.owners.entry(ino).or_default().insert(libfs.0);
            let registry = Arc::new(MappingRegistry::new());
            st.registries.insert((ino, libfs.0), registry.clone());
            out.push((
                ino,
                Mapping::new(self.device.clone(), registry, 0, self.device.len()),
            ));
        }
        Ok(out)
    }

    /// Return unused inode numbers: the caller's ownership is dropped, its
    /// grant mapping invalidated, and each number nobody else holds
    /// re-enters circulation. A number another LibFS holds stays out of
    /// the pool — the next grant must not hand it out again — and so does
    /// one the caller did not hold that is committed (a released inode of
    /// anybody's). A call from an unregistered LibFS changes nothing.
    pub fn return_inodes(&self, libfs: LibFsId, mut inos: Vec<u64>) {
        self.syscall();
        {
            let mut st = self.state.lock();
            if !st.libfs.contains_key(&libfs.0) {
                return;
            }
            inos.retain(|&ino| {
                if let Some(reg) = st.registries.remove(&(ino, libfs.0)) {
                    reg.unmap();
                }
                st.snapshots.remove(&(ino, libfs.0));
                let owners = st.owners.get_mut(&ino);
                match owners.map(|owners| (owners.remove(&libfs.0), owners.is_empty())) {
                    // The caller's: free once nobody else holds it.
                    Some((true, unheld)) => unheld,
                    // Somebody else's.
                    Some((false, false)) => false,
                    // Nobody's: free unless a committed inode has it.
                    _ => self.uncommitted(ino),
                }
            });
        }
        // A misbehaving LibFS returning numbers it never held must not
        // poison the pool; the error (double free) is dropped, matching
        // the old free-list's silent acceptance.
        let _ = self.inos.free_extent(&inos);
    }

    /// Is `ino` an inode number in range that no committed inode has? One
    /// read of its commit marker.
    fn uncommitted(&self, ino: u64) -> bool {
        (1..=self.geom.max_inodes).contains(&ino)
            && self
                .device
                .read_u64(self.geom.inode_offset(ino))
                .is_ok_and(|marker| marker != ino)
    }

    /// Grant a page extent to the LibFS.
    pub fn grant_pages(&self, libfs: LibFsId, n: usize) -> FsResult<Vec<u64>> {
        self.syscall();
        self.ensure_registered(libfs)?;
        self.allocator
            .alloc_extent(n)
            .map_err(provider::provider_err)
    }

    /// Return a page extent to the pool.
    pub fn return_pages(&self, libfs: LibFsId, pages: &[u64]) -> FsResult<()> {
        self.syscall();
        self.ensure_registered(libfs)?;
        self.allocator
            .free_extent(pages)
            .map_err(provider::provider_err)
    }

    /// The page pool (exposed for fsck cross-checks and the obs `alloc`
    /// block).
    pub fn allocator(&self) -> &ShardedPageAllocator {
        &self.allocator
    }

    /// The inode-number pool (counters feed the obs `alloc` block).
    pub fn ino_provider(&self) -> &ShardedPageAllocator {
        &self.inos
    }

    /// Map a freshly granted (not yet committed) inode for `libfs`: a
    /// number from its own pool whose grant mapping was invalidated by a
    /// release. The mapping is invalidated on release like any acquire-time
    /// mapping.
    ///
    /// Refused for an unregistered caller, and with [`FsError::NotOwner`]
    /// for a number another LibFS holds or — held by nobody — still
    /// committed: starting a new life wipes what the kernel knows about the
    /// inode (retained image, generation, delta), which only the end of its
    /// past life may do.
    pub fn fresh_mapping(&self, libfs: LibFsId, ino: u64) -> FsResult<Mapping> {
        self.syscall();
        let mut st = self.state.lock();
        Self::uid_of(&st, libfs)?;
        if ino == 0 || ino > self.geom.max_inodes {
            return Err(FsError::InvalidArgument(format!(
                "inode number {ino} out of range"
            )));
        }
        let owners = st.owners.get(&ino);
        if owners.is_some_and(|s| s.iter().any(|&o| o != libfs.0)) {
            return Err(FsError::NotOwner { ino });
        }
        if !owners.is_some_and(|s| s.contains(&libfs.0)) && !self.uncommitted(ino) {
            return Err(FsError::NotOwner { ino });
        }
        // A recycled number starts a new life here; the kernel may still
        // hold its past one (freed by the owner of its parent, parent not
        // verified since).
        st.forget_inode(ino);
        let registry = Arc::new(MappingRegistry::new());
        st.registries.insert((ino, libfs.0), registry.clone());
        Ok(Mapping::new(
            self.device.clone(),
            registry,
            0,
            self.device.len(),
        ))
    }

    /// Acquire `ino` for `libfs` (Figure 1 ①–②): permission check, ownership
    /// grant, mapping. Fails with [`FsError::NotOwner`] when another LibFS
    /// outside the caller's trust group holds the inode.
    pub fn acquire(&self, libfs: LibFsId, ino: u64) -> FsResult<InodeGrant> {
        self.syscall();
        let mut st = self.state.lock();
        let uid = Self::uid_of(&st, libfs)?;
        let group = Self::group_of(&st, libfs);

        let entry = st.shadow.get(ino).cloned().ok_or(FsError::NotFound)?;
        if !format::mode::can_read(entry.mode, entry.uid, uid) {
            return Err(FsError::PermissionDenied);
        }

        // Deferred trust-group verification: if the inode was last released
        // unverified inside a group the caller is not part of, verify now.
        let mut boundary_image = None;
        if let Some((dirty_group, _)) = st.dirty_in_group.get(&ino) {
            if group != Some(*dirty_group) {
                let (_, snap) = st.dirty_in_group.remove(&ino).expect("checked above");
                boundary_image = Some(self.verify_now(&mut st, libfs, ino, snap)?);
            }
        }

        // Ownership: free, already ours, or co-owned within our group.
        let others: Vec<u64> = st
            .owners
            .get(&ino)
            .map(|s| s.iter().copied().filter(|&o| o != libfs.0).collect())
            .unwrap_or_default();
        let ours = st.owners.get(&ino).is_some_and(|s| s.contains(&libfs.0));
        if !others.is_empty() && !ours {
            let all_in_group = group.is_some()
                && others
                    .iter()
                    .all(|o| st.libfs.get(o).and_then(|i| i.group) == group);
            if !all_in_group {
                return Err(FsError::NotOwner { ino });
            }
            self.stats.trust_skips.fetch_add(1, Ordering::Relaxed);
        }

        // The rollback snapshot comes before any ownership state changes: a
        // directory whose log cannot be walked (cycle, out-of-device page)
        // fails the acquire and must leave the caller owning nothing.
        let mut snap = match boundary_image {
            Some(image) => image,
            None => self.acquire_snapshot(&mut st, ino)?,
        };
        // A co-owner may be writing right now: no value reported before
        // this grant may match, this grant's value matches no release, and
        // the snapshot is the image of no generation.
        if !others.is_empty() {
            st.advance_generation(ino);
        }
        let generation = st.generation(ino);
        snap.generation = if others.is_empty() { generation } else { 0 };
        let delta = snap.delta.clone().filter(|d| d.to == generation);

        st.owners.entry(ino).or_default().insert(libfs.0);
        let registry = Arc::new(MappingRegistry::new());
        st.registries.insert((ino, libfs.0), registry.clone());
        // Charge the mapping-setup cost: installing page-table entries for
        // the inode's data is proportional to its size (this is what makes
        // sharing a large file expensive in Table 4).
        if entry.itype == InodeType::Regular && !self.config.syscall_cost.is_zero() {
            let at = format::I_SIZE as usize;
            let size = u64::from_le_bytes(snap.inode_bytes[at..at + 8].try_into().expect("8"));
            let pages = size.div_ceil(pmem::PAGE_SIZE as u64);
            LatencyModel::spin(Duration::from_nanos(10).saturating_mul(pages as u32));
        }
        st.snapshots.insert((ino, libfs.0), snap);

        self.stats.acquires.fetch_add(1, Ordering::Relaxed);
        let mapping = Mapping::new(self.device.clone(), registry, 0, self.device.len());
        Ok(InodeGrant {
            ino,
            mapping,
            generation,
            delta,
        })
    }

    /// The rollback snapshot for a new grant of `ino`: the image retained
    /// by the release that left it unowned, or — first acquire, evicted
    /// image — a read of the core state.
    fn acquire_snapshot(&self, st: &mut KState, ino: u64) -> FsResult<Snapshot> {
        if let Some(image) = st.retained.take(ino) {
            // Nobody maps an unowned inode's log, but the owner of its
            // parent may free it (clear the commit marker, even reuse the
            // number) without acquiring it: the record is re-read, and an
            // image it no longer matches is dropped.
            let mut rec = [0u8; format::INODE_SIZE as usize];
            self.device
                .read(self.geom.inode_offset(ino), &mut rec)
                .map_err(fs_err)?;
            if rec[..] == image.inode_bytes[..] {
                return Ok(image);
            }
            st.advance_generation(ino);
        }
        verifier::take_snapshot(&self.device, &self.geom, &st.shadow, ino)
            .map_err(FsError::Corrupted)
    }

    /// Voluntarily release `ino` (Figure 1 ⑤–⑧): unmap, verify, and on
    /// failure roll the inode back to its acquire-time state. Returns the
    /// inode's content generation after the verification (see
    /// [`InodeGrant::generation`]).
    pub fn release(&self, libfs: LibFsId, ino: u64) -> FsResult<u64> {
        let _span = obs::span(obs::OpKind::Release, self.device.stats());
        self.syscall();
        self.release_inner(libfs, ino, false)
    }

    /// Involuntary release: the kernel revokes the grant (lease timeout,
    /// unregister, or a misbehaving LibFS). The LibFS may crash afterwards
    /// (§4.3 explicitly tolerates that); the kernel side stays consistent.
    pub fn force_release(&self, libfs: LibFsId, ino: u64) -> FsResult<u64> {
        self.syscall();
        self.stats.forced_releases.fetch_add(1, Ordering::Relaxed);
        self.release_inner(libfs, ino, true)
    }

    fn release_inner(&self, libfs: LibFsId, ino: u64, _forced: bool) -> FsResult<u64> {
        let mut st = self.state.lock();
        let owners = st.owners.get(&ino).cloned().unwrap_or_default();
        if !owners.contains(&libfs.0) {
            return Err(FsError::NotOwner { ino });
        }

        // Unmap first: after release returns, the LibFS must not touch the
        // core state (the §4.3 bug is the LibFS's failure to synchronize
        // its own threads around this point).
        if let Some(reg) = st.registries.remove(&(ino, libfs.0)) {
            reg.unmap();
        }
        // Inodes granted fresh (never acquired) have no snapshot: their
        // initial state is "nonexistent", which Snapshot::empty encodes.
        let snap = st
            .snapshots
            .remove(&(ino, libfs.0))
            .unwrap_or_else(|| Snapshot::empty(ino));
        st.owners
            .get_mut(&ino)
            .expect("owner checked")
            .remove(&libfs.0);

        let group = Self::group_of(&st, libfs);
        let unowned = st.owners.get(&ino).is_none_or(|s| s.is_empty());
        if let Some(g) = group {
            if !unowned {
                // Intra-group release: defer verification to the group
                // boundary (§5.4 trust groups): record the earliest
                // snapshot. Nobody compared the bytes, so the content
                // counts as changed.
                self.stats.trust_skips.fetch_add(1, Ordering::Relaxed);
                st.dirty_in_group.entry(ino).or_insert((g, snap));
                self.stats.releases.fetch_add(1, Ordering::Relaxed);
                return Ok(st.advance_generation(ino));
            }
        }
        // Last member out of a group: verify against the earliest group
        // snapshot if one exists, else this snapshot.
        let earliest = group
            .and_then(|_| st.dirty_in_group.remove(&ino))
            .map(|(_, snap)| snap);
        let image = self.verify_now(&mut st, libfs, ino, earliest.unwrap_or(snap))?;
        if group.is_none() {
            self.stats.releases.fetch_add(1, Ordering::Relaxed);
        }
        // Nobody maps the inode any more, so the pages just verified stay
        // what PM holds until the next grant: keep them for its snapshot.
        if unowned && !image.pages.is_empty() {
            st.retained.insert(image);
        }
        Ok(st.generation(ino))
    }

    /// Run the verifier against `snap` and return the verified image. A
    /// difference from the snapshot advances the content generation; a
    /// violation rolls the inode back to the snapshot (and advances it too —
    /// the rejected bytes were in PM, whoever looked). The image is tagged
    /// with the generation it is the image of, and carries the [`Delta`]
    /// that ends at it: a change found against the image of the generation
    /// that is still current — nothing advanced it since the snapshot — is
    /// one step, and its slot list becomes the delta; no change keeps the
    /// snapshot's.
    fn verify_now(
        &self,
        st: &mut KState,
        libfs: LibFsId,
        ino: u64,
        snap: Snapshot,
    ) -> FsResult<Snapshot> {
        self.stats.verifications.fetch_add(1, Ordering::Relaxed);
        match verifier::verify_and_apply(
            &self.device,
            &self.geom,
            &self.config,
            &self.lease,
            st,
            libfs,
            ino,
            &snap,
        ) {
            Ok(mut verified) => {
                let from = snap.generation;
                let changed = verified.changed;
                let slots = verified.slots.take();
                let mut image = verified.image(snap);
                if changed {
                    let one_step = from != 0 && st.generation(ino) == from;
                    let to = st.advance_generation(ino);
                    image.delta = slots
                        .filter(|_| one_step)
                        .map(|slots| Arc::new(Delta { from, to, slots }));
                }
                image.generation = st.generation(ino);
                Ok(image)
            }
            Err(e) => {
                self.stats.verify_failures.fetch_add(1, Ordering::Relaxed);
                self.stats.rollbacks.fetch_add(1, Ordering::Relaxed);
                verifier::rollback(&self.device, &self.geom, &snap);
                st.advance_generation(ino);
                Err(e)
            }
        }
    }

    /// Commit `ino` (TRIO §4.3): verify while **retaining** ownership and
    /// the mapping. On success the verified image becomes the baseline of
    /// the next verification; on failure the inode is rolled back
    /// (ownership retained).
    pub fn commit(&self, libfs: LibFsId, ino: u64) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Commit, self.device.stats());
        self.syscall();
        let mut st = self.state.lock();
        if !st
            .owners
            .get(&ino)
            .map(|s| s.contains(&libfs.0))
            .unwrap_or(false)
        {
            return Err(FsError::NotOwner { ino });
        }
        let snap = st
            .snapshots
            .get(&(ino, libfs.0))
            .cloned()
            .unwrap_or_else(|| Snapshot::empty(ino));
        self.stats.commits.fetch_add(1, Ordering::Relaxed);
        let image = self.verify_now(&mut st, libfs, ino, snap)?;
        st.snapshots.insert((ino, libfs.0), image);
        Ok(())
    }

    /// Does `libfs` currently own `ino`?
    pub fn owns(&self, libfs: LibFsId, ino: u64) -> bool {
        self.state
            .lock()
            .owners
            .get(&ino)
            .map(|s| s.contains(&libfs.0))
            .unwrap_or(false)
    }

    /// The shadow entry for `ino`, if the kernel has verified it.
    pub fn shadow_entry(&self, ino: u64) -> Option<ShadowEntry> {
        self.state.lock().shadow.get(ino).cloned()
    }

    /// The kernel's verified children baseline for directory `ino`.
    pub fn verified_children(&self, ino: u64) -> HashMap<String, u64> {
        (*self.state.lock().shadow.children_of(ino)).clone()
    }

    // ---- trust groups (§5.4) ----------------------------------------------

    /// Create a trust group containing `members`; intra-group ownership
    /// transfers skip verification.
    pub fn create_trust_group(&self, members: &[LibFsId]) -> FsResult<u64> {
        self.syscall();
        let mut st = self.state.lock();
        let gid = st.next_group;
        st.next_group += 1;
        for m in members {
            match st.libfs.get_mut(&m.0) {
                Some(info) => info.group = Some(gid),
                None => return Err(FsError::Internal(format!("unregistered LibFS {m:?}"))),
            }
        }
        Ok(gid)
    }

    // ---- global rename lease (§4.6) ----------------------------------------

    /// Acquire the global cross-directory rename lease. Errors with
    /// [`FsError::Busy`] while another LibFS holds an unexpired lease, and
    /// with [`FsError::InvalidArgument`] when the kernel was configured
    /// without the §4.6 patch.
    pub fn rename_lease_acquire(&self, libfs: LibFsId) -> FsResult<u64> {
        self.syscall();
        if !self.config.require_rename_lease {
            return Err(FsError::InvalidArgument(
                "this kernel has no global rename lease (§4.6 patch disabled)".into(),
            ));
        }
        match self.lease.try_acquire(libfs.0) {
            LeaseGrant::Granted { token } => Ok(token),
            LeaseGrant::Busy { .. } => Err(FsError::Busy),
        }
    }

    /// Blocking variant of [`Kernel::rename_lease_acquire`].
    pub fn rename_lease_acquire_blocking(&self, libfs: LibFsId) -> FsResult<u64> {
        self.syscall();
        if !self.config.require_rename_lease {
            return Err(FsError::InvalidArgument(
                "this kernel has no global rename lease (§4.6 patch disabled)".into(),
            ));
        }
        Ok(self.lease.acquire_blocking(libfs.0))
    }

    /// Release the global rename lease.
    pub fn rename_lease_release(&self, libfs: LibFsId, token: u64) -> FsResult<()> {
        self.syscall();
        self.lease.release(libfs.0, token);
        Ok(())
    }

    /// Does `libfs` hold a live rename lease? (Verifier check (3) of §4.1.)
    pub fn holds_rename_lease(&self, libfs: LibFsId) -> bool {
        self.lease.held_by(libfs.0)
    }
}

fn fs_err(e: impl std::fmt::Display) -> FsError {
    FsError::Internal(e.to_string())
}

#[cfg(test)]
mod acquire_profile_tests {
    use super::*;
    use std::time::Instant;

    #[test]
    #[ignore = "developer profiling helper; run with --ignored --nocapture"]
    fn profile_acquire_release() {
        let dev_len = 256 << 20;
        let device = pmem::PmemDevice::with_latency(dev_len, pmem::LatencyModel::optane());
        let geom = Geometry::for_device(dev_len);
        let kernel = Kernel::format(
            device,
            geom,
            KernelConfig::arckfs_plus().with_syscall_cost(Duration::from_nanos(400)),
        )
        .unwrap();
        let (a, _m) = kernel.register_libfs(0);
        // Acquire+release the root many times.
        let t = Instant::now();
        for _ in 0..1000 {
            kernel.acquire(a, ROOT_INO).unwrap();
            kernel.release(a, ROOT_INO).unwrap();
        }
        println!("root acquire+release: {:?}/op", t.elapsed() / 1000);
        let g = kernel.acquire(a, ROOT_INO).unwrap();
        let t = Instant::now();
        for _ in 0..1000 {
            let snap = crate::verifier::take_snapshot(
                kernel.device(),
                kernel.geometry(),
                &kernel.state.lock().shadow,
                ROOT_INO,
            )
            .unwrap();
            std::hint::black_box(&snap);
        }
        println!("take_snapshot(root): {:?}/op", t.elapsed() / 1000);
        drop(g);
    }
}
