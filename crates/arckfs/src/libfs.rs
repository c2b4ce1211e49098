//! The LibFS: mount, path resolution, the POSIX-like operation surface,
//! the inode release protocol (§4.3), and the multi-inode rename
//! orchestration (§3.2's Rules (1)–(3), §4.1, §4.6).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::{Mutex, MutexGuard, RwLock};

use pmem::Mapping;
use rcu::Rcu;
use trio::format::{
    self, mode, DENTRY_NAME_CAP, INODE_SIZE, I_MARKER, I_MODE, I_NLINK, I_NTAILS, I_SIZE, I_TYPE,
    I_UID,
};
use trio::{Geometry, InodeType, Kernel, LibFsId, ROOT_INO};
use vfs::{
    path as vpath, DirEntry, Fd, FileSystem, FileType, FsError, FsResult, FsStats, Metadata,
    OpenFlags,
};

use crate::config::Config;
use crate::dir::map_fault;
use crate::inject;
use crate::inode::{BucketArray, DirState, InodeState, MemInode, Tail};

/// An open-descriptor table entry.
#[derive(Debug, Clone)]
struct FdEntry {
    ino: u64,
    flags: OpenFlags,
}

/// A per-application ArckFS LibFS instance.
pub struct LibFs {
    pub(crate) kernel: Arc<Kernel>,
    pub(crate) id: LibFsId,
    pub(crate) geom: Geometry,
    pub(crate) config: Config,
    /// LibFS-wide mapping for freshly granted (not yet committed)
    /// resources; lives until unmount.
    pub(crate) base_mapping: Mapping,
    pub(crate) rcu: Arc<Rcu>,
    pub(crate) uid: u32,
    pub(crate) inodes: RwLock<HashMap<u64, Arc<MemInode>>>,
    /// Serializes §4.3 re-acquisition ([`LibFs::revive_inode`]) so two
    /// threads racing to revive the same released inode cannot double-issue
    /// the kernel acquire or interleave their auxiliary-state rebuilds.
    /// Always taken with no other inode locks held.
    revive_lock: Mutex<()>,
    /// Pool of granted inode numbers with their (possibly already stale
    /// after a release) mappings. Sharded by thread with watermark release
    /// back to the kernel (`crate::pool`).
    ino_pool: crate::pool::ShardedPool<(u64, Option<Mapping>)>,
    page_pool: crate::pool::ShardedPool<u64>,
    fds: RwLock<HashMap<u64, FdEntry>>,
    next_fd: AtomicU64,
    /// Rule (2) bookkeeping: old parent → new parents that must be
    /// committed before the old parent may be released.
    pending_renames: Mutex<HashMap<u64, HashSet<u64>>>,
    /// Shared-state lock acquisitions (for the scalability model).
    shared_lock_acqs: AtomicU64,
    /// Byte-range lock acquisitions (DESIGN.md §11); counted separately
    /// from the whole-object locks so the model sees they do not contend.
    range_lock_acqs: AtomicU64,
    /// Extent records appended or coalesced into per-file chains.
    extent_inserts: AtomicU64,
    /// Lock-free path-resolution cache (`crate::dcache`), consulted by
    /// [`LibFs::lookup_child`] when [`Config::dcache`] is on.
    pub(crate) dcache: crate::dcache::Dcache,
    /// I/O delegation worker pool (OdinFS-style; §2.2, §5.2).
    pub(crate) delegation: crate::delegate::DelegationPool,
    label: String,
}

impl std::fmt::Debug for LibFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LibFs")
            .field("id", &self.id)
            .field("label", &self.label)
            .finish()
    }
}

impl LibFs {
    /// Mount a LibFS on an existing kernel, running as `uid`.
    pub fn mount(kernel: Arc<Kernel>, config: Config, uid: u32) -> FsResult<Arc<LibFs>> {
        let (id, base_mapping) = kernel.register_libfs(uid);
        let geom = *kernel.geometry();
        let label = format!("{}#{}", config.label(), id.0);
        let (deleg_rings, deleg_sq_depth, deleg_batch) = (
            config.delegation_threads,
            config.deleg_sq_depth,
            config.deleg_batch,
        );
        let (pool_slots, pool_low, pool_high) = (
            pmem::default_alloc_shards(),
            config.pool_low,
            config.pool_high,
        );
        let rcu = Rcu::new();
        let dcache = crate::dcache::Dcache::new(config.dcache_slots, rcu.clone());
        Ok(Arc::new(LibFs {
            kernel,
            id,
            geom,
            config,
            base_mapping,
            rcu,
            uid,
            inodes: RwLock::new(HashMap::new()),
            revive_lock: Mutex::new(()),
            ino_pool: crate::pool::ShardedPool::new(pool_slots, pool_low, pool_high),
            page_pool: crate::pool::ShardedPool::new(pool_slots, pool_low, pool_high),
            fds: RwLock::new(HashMap::new()),
            next_fd: AtomicU64::new(3),
            pending_renames: Mutex::new(HashMap::new()),
            shared_lock_acqs: AtomicU64::new(0),
            range_lock_acqs: AtomicU64::new(0),
            extent_inserts: AtomicU64::new(0),
            dcache,
            delegation: crate::delegate::DelegationPool::with_opts(
                deleg_rings,
                deleg_sq_depth,
                deleg_batch,
            ),
            label,
        }))
    }

    /// This LibFS's kernel identity.
    pub fn id(&self) -> LibFsId {
        self.id
    }

    /// The kernel this LibFS talks to.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// Fire the named schedule point in this LibFS's device scope
    /// ([`inject::point_on`]).
    #[inline]
    pub(crate) fn point(&self, name: &str) {
        inject::point_on(self.kernel.device(), name);
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Bytes shipped through the I/O delegation pool so far.
    pub fn delegated_bytes(&self) -> u64 {
        self.delegation.delegated_bytes()
    }

    /// Snapshot of the delegation runtime's ring/batch/wait counters.
    pub fn delegation_snapshot(&self) -> crate::delegate::DelegSnapshot {
        self.delegation.snapshot()
    }

    pub(crate) fn count_lock(&self) {
        self.shared_lock_acqs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_range_lock(&self) {
        self.range_lock_acqs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_extent_insert(&self) {
        self.extent_inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish a namespace mutation of `dir` to the dentry cache: bump the
    /// per-directory generation (always — the cache may be enabled on
    /// another handle to the same LibFS later) and count the invalidation.
    /// Must be called *inside* the mutating critical section, after the
    /// index change, so that once the writer's lock is released every
    /// cached translation under this directory has stopped validating.
    pub(crate) fn dcache_invalidate(&self, dir: &MemInode) {
        dir.bump_dcache_gen();
        if self.config.dcache {
            self.dcache.note_invalidation();
        }
    }

    // ---- resource pools ----------------------------------------------------

    /// Allocate an inode number (and a live mapping for it) from the local
    /// pool, refilling from the kernel in batches — the extent grants that
    /// keep the create fast path syscall-free.
    pub(crate) fn alloc_ino(&self) -> FsResult<(u64, Mapping)> {
        let popped = match self.ino_pool.take() {
            Some(p) => p,
            None => {
                // Pool dry: grant a fresh extent, keep one, stock the rest.
                // Two threads may race through here and both grant — the
                // watermark trims any excess on the next recycle.
                let mut batch = self
                    .kernel
                    .grant_inodes_mapped(self.id, self.config.ino_batch)?;
                let (ino, m) = batch.pop().ok_or(FsError::NoSpace)?;
                self.ino_pool
                    .fill(batch.into_iter().map(|(i, m)| (i, Some(m))));
                (ino, Some(m))
            }
        };
        match popped {
            (ino, Some(m)) if m.is_live() => Ok((ino, m)),
            // Recycled after a kernel release (or mapping lost): remap. A
            // number another LibFS still holds — this one unlinked a file
            // that LibFS had open — is not this one's to reuse: drop it.
            (ino, _) => match self.kernel.fresh_mapping(self.id, ino) {
                Err(FsError::NotOwner { .. }) => self.alloc_ino(),
                mapped => Ok((ino, mapped?)),
            },
        }
    }

    /// Allocate a data/log page from the local pool.
    pub(crate) fn alloc_page(&self) -> FsResult<u64> {
        if let Some(p) = self.page_pool.take() {
            return Ok(p);
        }
        let mut batch = self.kernel.grant_pages(self.id, self.config.page_batch)?;
        let page = batch.pop().ok_or(FsError::NoSpace)?;
        self.page_pool.fill(batch);
        Ok(page)
    }

    /// Return pages to the local pool; surplus above the high watermark
    /// goes back to the kernel (callers durably unlink pages before
    /// recycling them — `teardown_removed_inode` clears the owner's commit
    /// marker and fences — so the kernel clearing the bitmap bits here
    /// never breaks the linked⇒allocated invariant fsck audits).
    pub(crate) fn recycle_pages(&self, pages: Vec<u64>) {
        let surplus = self.page_pool.put_many(pages);
        if !surplus.is_empty() {
            let _ = self.kernel.return_pages(self.id, &surplus);
        }
    }

    /// Return an inode number (with its mapping, when still held) to the
    /// local pool; surplus numbers re-enter kernel circulation.
    pub(crate) fn recycle_ino(&self, ino: u64, mapping: Option<Mapping>) {
        let surplus = self.ino_pool.put((ino, mapping));
        if !surplus.is_empty() {
            self.kernel
                .return_inodes(self.id, surplus.into_iter().map(|(i, _)| i).collect());
        }
    }

    /// Current pool occupancy `(inode numbers, pages)` — observability for
    /// the watermark tests.
    pub fn pool_sizes(&self) -> (usize, usize) {
        (self.ino_pool.len(), self.page_pool.len())
    }

    // ---- inode cache / acquisition ------------------------------------------

    /// Fetch the in-memory inode for `ino`, acquiring it from the kernel
    /// (and rebuilding the auxiliary state from the core state) if this
    /// LibFS does not currently hold it.
    ///
    /// A released inode that is still cached is revived **in place**
    /// ([`LibFs::revive_inode`]) rather than rebuilt as a fresh
    /// [`MemInode`]. Rebuilding would put a second instance — with its own
    /// bucket, tail and metadata locks — into circulation while other
    /// threads still hold the old `Arc`, silently splitting the mutual
    /// exclusion every directory operation relies on (and letting a
    /// concurrent release quiesce the wrong instance's locks before
    /// unmapping the one everyone else is using).
    pub(crate) fn get_inode(&self, ino: u64, parent_hint: u64) -> FsResult<Arc<MemInode>> {
        if let Some(mi) = self.inodes.read().get(&ino).cloned() {
            if mi.state() == InodeState::Acquired {
                return Ok(mi);
            }
            return self.revive_inode(&mi);
        }
        // First sight of this inode: acquire and build under the map's
        // write lock so two concurrent misses cannot install two rival
        // instances (the same split-lock hazard as above).
        let mut map = self.inodes.write();
        if let Some(mi) = map.get(&ino).cloned() {
            drop(map);
            if mi.state() == InodeState::Acquired {
                return Ok(mi);
            }
            return self.revive_inode(&mi);
        }
        let grant = self.kernel.acquire(self.id, ino)?;
        let mi = match self.build_mem_inode(ino, parent_hint, grant.mapping) {
            Ok(mi) => mi,
            Err(e) => {
                self.drop_grant(ino);
                return Err(e);
            }
        };
        map.insert(ino, mi.clone());
        Ok(mi)
    }

    /// Re-acquire a released inode (§4.3's "the next write transparently
    /// re-acquires") without replacing its [`MemInode`].
    ///
    /// The revival takes the same locks, in the same order, as the patched
    /// release quiesce (whole-file range → `rw` → bucket table → tails →
    /// metadata) and holds them across the kernel acquire *and* the
    /// auxiliary-state rebuild. That closes the window where a concurrent
    /// release could invalidate the freshly granted mapping between the
    /// grant and the moment the inode flips back to
    /// [`InodeState::Acquired`].
    pub(crate) fn revive_inode(&self, mi: &Arc<MemInode>) -> FsResult<Arc<MemInode>> {
        let _serial = self.revive_lock.lock();
        if mi.state() == InodeState::Acquired {
            return Ok(mi.clone()); // another thread got here first
        }
        // Data ops never touch `rw`, so the whole-file range is their
        // quiesce point. Taken before the metadata lock — writers hold
        // their range while publishing the size under `meta`, so the
        // reverse order would deadlock (same order as the release quiesce).
        self.count_range_lock();
        let _ranges = mi.ranges.acquire_all();
        let _w = mi.rw.write();
        let mut table = mi.dir_state().map(|ds| {
            self.count_lock();
            ds.buckets.write()
        });
        let mut tails = Vec::new();
        if let Some(ds) = mi.dir_state() {
            for t in &ds.tails {
                self.count_lock();
                tails.push(t.lock());
            }
        }
        let _m = mi.meta.lock();
        // Schedule point inside the full §4.3 revival lock order, before the
        // kernel re-acquire: schedmc explores what racing ops observe while
        // the inode is held Released with every lock pinned.
        self.point("libfs.revive.rebuild");

        let grant = self.kernel.acquire(self.id, mi.ino)?;
        // The kernel reports the generation this LibFS was told at its own
        // last release only if the inode record and every log page are
        // byte-identical to what that release verified. The whole retained
        // DirState — buckets, arena, free slots, tails — is then still
        // exact, and nothing is read.
        // Files always take the refresh: their extent mirror is dropped on
        // revival whatever the generation says.
        let kept = mi.take_generation();
        if mi.dir_state().is_none() || grant.generation != kept {
            let refreshed =
                self.refresh_revived(mi, &grant, kept, table.as_deref_mut(), &mut tails);
            if let Err(e) = refreshed {
                self.drop_grant(mi.ino);
                return Err(e);
            }
        }
        // The revived index supersedes anything cached before (or during)
        // the release; bump before publishing so no pre-revival
        // translation can validate against the revived directory.
        self.dcache_invalidate(mi);
        // Publish last: once the state flips, waiters bail out of their
        // Released retries and enter critical sections against the new
        // mapping installed here.
        mi.mark_acquired(grant.mapping);
        Ok(mi.clone())
    }

    /// Hand back a grant this LibFS cannot use (the inode was freed or is
    /// corrupt): without this the kernel would go on recording an owner
    /// whose [`MemInode`] says `Released` — or does not exist — and that
    /// `unmount` therefore never releases.
    fn drop_grant(&self, ino: u64) {
        let _ = self.kernel.release(self.id, ino);
    }

    /// The refresh half of [`LibFs::revive_inode`]: reload the cached
    /// metadata from the core state and, for a directory, bring the index
    /// up to date (Figure 1 step ③ — another LibFS may have changed the
    /// directory while it was released) in the *existing* DirState, under
    /// the exclusive guards the caller holds. When the grant carries the
    /// delta from the generation this LibFS released at (`kept`), only the
    /// changed slots are replayed; otherwise the whole log is rescanned.
    fn refresh_revived(
        &self,
        mi: &MemInode,
        grant: &trio::InodeGrant,
        kept: u64,
        table: Option<&mut BucketArray>,
        tails: &mut [MutexGuard<'_, Tail>],
    ) -> FsResult<()> {
        let mut raw = format::read_inode(self.kernel.device(), &self.geom, mi.ino)
            .map_err(|e| FsError::Internal(e.to_string()))?;
        if !raw.is_committed(mi.ino) {
            return Err(if raw.marker == 0 {
                // Freed by whoever held it in the interim: the name this
                // path resolved through no longer leads anywhere.
                FsError::NotFound
            } else {
                FsError::Corrupted(format!(
                    "re-acquired inode {} has bad commit marker {:#x}",
                    mi.ino, raw.marker
                ))
            });
        }
        let mut max_seq = 0;
        if let Some(table) = table {
            let delta = grant
                .delta
                .as_deref()
                .filter(|d| kept != 0 && d.from == kept);
            let replayed = match delta {
                Some(d) => self.replay_revived(mi, &grant.mapping, d, table, tails)?,
                None => None,
            };
            max_seq = match replayed {
                Some(seq) => seq,
                None => {
                    let ds = mi.dir_state().expect("a directory");
                    self.rebuild_dir_index(ds, mi.ino, &mut raw, &grant.mapping, table, tails)?
                }
            };
        }
        mi.cached_size.store(raw.size, Ordering::SeqCst);
        mi.cached_nlink.store(raw.nlink, Ordering::SeqCst);
        mi.seq.store(
            raw.seq.max(max_seq).max(mi.seq.load(Ordering::SeqCst)),
            Ordering::SeqCst,
        );
        Ok(())
    }

    /// Rebuild directory `ino`'s index in `ds` — held exclusively through
    /// `table` and `tails` — from a scan of its whole log, tombstoning the
    /// live records name resolution retired. When that leaves the size word
    /// off the live count (a forged second name for an inode, which the
    /// verifier counted), the count is stored and left in `raw`, so the
    /// next release verifies. Returns the highest dentry sequence number in
    /// the log: this LibFS numbers its own records above it, or a name it
    /// creates would rank below an older tombstone of the same name.
    fn rebuild_dir_index(
        &self,
        ds: &DirState,
        ino: u64,
        raw: &mut format::RawInode,
        mapping: &Mapping,
        table: &mut BucketArray,
        tails: &mut [MutexGuard<'_, Tail>],
    ) -> FsResult<u64> {
        let (res, log_tails) = self.scan_dir_log(ino, raw)?;
        for &off in &res.losers {
            self.tombstone_dentry_core(mapping, off)?;
        }
        let live = res.live.len() as u64;
        if !res.losers.is_empty() && raw.size != live {
            // Unfenced, as in `persist_dir_size`.
            let field = self.geom.inode_offset(ino) + I_SIZE;
            mapping.write_u64(field, live).map_err(map_fault)?;
            mapping.clwb(field, 8).map_err(map_fault)?;
            raw.size = live;
        }
        let old: Vec<_> = table
            .iter_mut()
            .flat_map(|bucket| bucket.get_mut().drain(..).map(|(_, r)| r))
            .collect();
        // A fresh DirState has nothing to free.
        let deferred = self.config.fix_dir_bucket_rcu && !old.is_empty();
        let arena = ds.arena.clone();
        let free_old = move || {
            for r in old {
                let _ = arena.free(r);
            }
        };
        if deferred {
            // One deferred destructor for the whole index, not one per
            // entry: same grace period, a thousandth of the bookkeeping.
            self.rcu.defer(free_old);
        } else {
            free_old();
        }
        for e in res.live {
            self.index_insert(ds, table, e.name, e.ino, e.offset);
        }
        ds.live.store(live, Ordering::SeqCst);
        let mut reusable = res.reusable;
        reusable.extend(&res.losers);
        *ds.free_slots.lock() = reusable;
        for (guard, rebuilt) in tails.iter_mut().zip(log_tails) {
            **guard = rebuilt;
        }
        Ok(res.max_seq)
    }

    /// Add `name → child` at log offset `off` to an index held exclusively.
    fn index_insert(
        &self,
        ds: &DirState,
        table: &mut BucketArray,
        name: String,
        child: u64,
        off: u64,
    ) {
        let h = DirState::name_hash(&name);
        let r = ds.arena.insert(crate::inode::DentryMeta {
            name,
            ino: child,
            log_off: off,
        });
        let nbuckets = table.len();
        table[(h as usize) % nbuckets].get_mut().push((h, r));
    }

    /// The entry of `name` in an index held exclusively: its bucket, its
    /// position there, and its target and log offset.
    fn index_find(
        &self,
        ds: &DirState,
        table: &mut BucketArray,
        name: &str,
    ) -> Option<(usize, usize, crate::dir::LookupHit)> {
        let h = DirState::name_hash(name);
        let b = (h as usize) % table.len();
        let bucket = table[b].get_mut();
        let mut same_hash = bucket
            .iter()
            .enumerate()
            .filter(|(_, (hash, _))| *hash == h);
        same_hash.find_map(|(i, &(_, r))| {
            let hit = ds.arena.read(r, |m| {
                (m.name == name).then_some(crate::dir::LookupHit {
                    ino: m.ino,
                    log_off: m.log_off,
                })
            });
            Some((b, i, hit.ok()??))
        })
    }

    /// Patch a revived directory's index with the kernel's [`trio::Delta`]
    /// instead of rescanning its log (DESIGN.md §14). The index is exact
    /// for the delta's `from` image — this LibFS released it at that
    /// generation — so replaying each changed slot's transition, its bytes
    /// then (`before`) to its bytes now (read once through `mapping`),
    /// leaves it exactly what [`LibFs::rebuild_dir_index`] would build.
    ///
    /// Returns the highest sequence number the changed slots hold, or
    /// `None`, having changed nothing, for anything outside the plain
    /// transitions, which the caller then rebuilds: a slot that is
    /// uncommitted now; a slot that was a hole anywhere but past its tail's
    /// append position; a `before` entry the index does not hold at that
    /// offset; a name that is not UTF-8; a new name already held
    /// elsewhere, or new twice; a record the rebuild's
    /// name resolution might rank differently — a new live record not
    /// numbered above every record this LibFS released with, a new
    /// tombstone not outranked by the new live record of its name, or a new
    /// live record for an inode that is live under another name too.
    fn replay_revived(
        &self,
        mi: &MemInode,
        mapping: &Mapping,
        delta: &trio::Delta,
        table: &mut BucketArray,
        tails: &mut [MutexGuard<'_, Tail>],
    ) -> FsResult<Option<u64>> {
        let ds = mi.dir_state().expect("a directory");
        // Every record of the released log is numbered at most this.
        let floor = mi.seq.load(Ordering::SeqCst);
        let mut max_seq = 0;
        let mut removed = Vec::new(); // (bucket, arena ref)
        let mut removed_inos = Vec::new();
        let mut added: Vec<(String, u64, u64, u64)> = Vec::new(); // (name, ino, off, seq)
        let mut tombs: Vec<(u64, Option<String>, u64)> = Vec::new(); // (off, name, seq)
        let mut appended: Vec<(usize, u64)> = Vec::new(); // (tail, next slot)
        for (off, before) in &delta.slots {
            let off = *off;
            let mut now = [0u8; format::DENTRY_SIZE as usize];
            mapping.read(off, &mut now).map_err(map_fault)?;
            let (before, now) = (
                format::decode_dentry(before, off),
                format::decode_dentry(&now, off),
            );
            if now.marker == 0 {
                return Ok(None);
            }
            if before.marker == 0 {
                let page = off / pmem::PAGE_SIZE as u64;
                let slot = (off % pmem::PAGE_SIZE as u64 - format::DIRPAGE_FIRST_DENTRY)
                    / format::DENTRY_SIZE;
                let Some(t) = tails
                    .iter()
                    .position(|t| t.cur_page == page && slot >= t.next_slot)
                else {
                    return Ok(None);
                };
                appended.push((t, slot + 1));
            } else if before.is_live() {
                let Some(name) = before.name_str() else {
                    return Ok(None);
                };
                match self.index_find(ds, table, name) {
                    Some((b, i, hit)) if hit.log_off == off => {
                        removed.push((b, table[b].get_mut()[i].1));
                        removed_inos.push(hit.ino);
                    }
                    _ => return Ok(None),
                }
            }
            max_seq = max_seq.max(now.seq);
            if now.deleted {
                tombs.push((off, String::from_utf8(now.name).ok(), now.seq));
                continue;
            }
            let Ok(name) = String::from_utf8(now.name) else {
                return Ok(None);
            };
            if now.seq <= floor || added.iter().any(|(n, ..)| *n == name) {
                return Ok(None);
            }
            added.push((name, now.ino, off, now.seq));
        }
        // Names the index keeps: a new one may only replace a removed one.
        let still_held = |name: &str, table: &mut BucketArray| {
            self.index_find(ds, table, name)
                .is_some_and(|(b, i, _)| !removed.contains(&(b, table[b].get_mut()[i].1)))
        };
        for (name, ..) in &added {
            if still_held(name, table) {
                return Ok(None);
            }
        }
        for (_, name, seq) in &tombs {
            let Some(name) = name else { continue };
            if still_held(name, table) || added.iter().any(|(n, _, _, s)| n == name && s <= seq) {
                return Ok(None);
            }
        }
        // One name per inode: a new name's inode may be fresh or come from
        // a removed name, but not be named twice anew or stay held under a
        // name the index keeps. The index, exact for the released image,
        // holds each inode at most once, so a removed name's inode is held
        // nowhere else.
        let mut inos: Vec<u64> = added.iter().map(|&(_, ino, ..)| ino).collect();
        inos.sort_unstable();
        if inos.windows(2).any(|w| w[0] == w[1]) {
            return Ok(None);
        }
        inos.retain(|ino| !removed_inos.contains(ino));
        let held = |r| ds.arena.read(r, |m| inos.contains(&m.ino)) != Ok(false);
        let mut entries = table.iter_mut().flat_map(|b| b.get_mut().iter());
        if !inos.is_empty() && entries.any(|&(_, r)| held(r)) {
            return Ok(None);
        }

        for (b, r) in &removed {
            let bucket = table[*b].get_mut();
            let i = bucket
                .iter()
                .position(|(_, x)| x == r)
                .expect("found above");
            let (_, r) = bucket.remove(i);
            if self.config.fix_dir_bucket_rcu {
                ds.arena.free_deferred(r, &self.rcu);
            } else {
                let _ = ds.arena.free(r);
            }
        }
        let mut free = ds.free_slots.lock();
        free.retain(|off| !added.iter().any(|(_, _, o, _)| o == off));
        for (off, ..) in &tombs {
            if !free.contains(off) {
                free.push(*off);
            }
        }
        drop(free);
        let live = (ds.live.load(Ordering::SeqCst) + added.len() as u64)
            .saturating_sub(removed.len() as u64);
        for (name, child, off, _) in added {
            self.index_insert(ds, table, name, child, off);
        }
        ds.live.store(live, Ordering::SeqCst);
        for (t, next) in appended {
            tails[t].next_slot = tails[t].next_slot.max(next);
        }
        Ok(Some(max_seq))
    }

    /// Build the auxiliary state of `ino` from its core state ("③ the
    /// LibFS builds its auxiliary state from the core state", Figure 1).
    fn build_mem_inode(
        &self,
        ino: u64,
        parent_hint: u64,
        mapping: Mapping,
    ) -> FsResult<Arc<MemInode>> {
        let device = self.kernel.device();
        let mut raw = format::read_inode(device, &self.geom, ino)
            .map_err(|e| FsError::Internal(e.to_string()))?;
        if !raw.is_committed(ino) {
            return Err(if raw.marker == 0 {
                // Freed between resolution and acquisition — the lost race
                // is benign and reports as a missing name, not corruption.
                FsError::NotFound
            } else {
                FsError::Corrupted(format!(
                    "acquired inode {ino} has bad commit marker {:#x}",
                    raw.marker
                ))
            });
        }
        let itype = raw
            .inode_type()
            .ok_or_else(|| FsError::Corrupted(format!("inode {ino} has malformed type")))?;
        let (dir, max_seq) = if itype == InodeType::Directory {
            let ds = DirState::new(self.config.dir_buckets, raw.ntails.max(1) as usize);
            let mut table = ds.buckets.write();
            let mut tails: Vec<_> = ds.tails.iter().map(|t| t.lock()).collect();
            let mapping = &self.base_mapping;
            let max_seq =
                self.rebuild_dir_index(&ds, ino, &mut raw, mapping, &mut table, &mut tails)?;
            drop((table, tails));
            (Some(ds), max_seq)
        } else {
            (None, 0)
        };
        Ok(MemInode::new(
            ino,
            itype,
            parent_hint,
            mapping,
            raw.size,
            raw.nlink,
            raw.seq.max(max_seq),
            dir,
        ))
    }

    /// Read-only pass over a directory's core state: what
    /// [`format::DirResolver`] decides about its log, and the per-tail
    /// append positions. Touches only the device — never the auxiliary
    /// state — so it can run both when building a fresh [`DirState`] and
    /// while splicing into an existing one under its exclusive guards.
    fn scan_dir_log(
        &self,
        ino: u64,
        raw: &format::RawInode,
    ) -> FsResult<(format::DirResolution, Vec<Tail>)> {
        let mut resolver = format::DirResolver::new(ino, self.geom.max_inodes, raw.size);
        let mut tails = vec![Tail::default(); raw.ntails.max(1) as usize];
        // One pass: each page is read once, and its position in its chain
        // yields the tail's append state — the last page visited per tail
        // is the one being appended to, after its last committed record.
        format::walk_dir_pages(self.kernel.device(), &self.geom, raw, |p| {
            let tail = &mut tails[p.tail];
            if tail.head_page == 0 {
                tail.head_page = p.page;
            }
            tail.cur_page = p.page;
            tail.next_slot = p.next_slot();
            p.dentries(|d| resolver.push(d));
            Ok(())
        })
        .map_err(FsError::Corrupted)?;
        Ok((resolver.finish(), tails))
    }

    /// Test support — the differential oracle of the hand-off paths
    /// (DESIGN.md §14): compare the live index of the directory at `path`
    /// with what a rebuild from a scan of its log would hold. Names map to
    /// the same `(ino, log offset)`, the reusable slots are the same set,
    /// tails, live count and cached size are equal, and the sequence
    /// counter is at least every number in the log (a rebuild keeps the
    /// larger of the two). Reads the whole log.
    #[doc(hidden)]
    pub fn check_dir_index(&self, path: &str) -> Result<(), String> {
        let mi = self
            .resolve(path)
            .map_err(|e| format!("resolve {path}: {e}"))?;
        let ds = mi
            .dir_state()
            .ok_or_else(|| format!("{path} is not a directory"))?;
        let table = ds.buckets.write();
        let tails: Vec<Tail> = ds.tails.iter().map(|t| t.lock().clone()).collect();
        let _m = mi.meta.lock();
        let raw = format::read_inode(self.kernel.device(), &self.geom, mi.ino)
            .map_err(|e| e.to_string())?;
        let (res, log_tails) = self.scan_dir_log(mi.ino, &raw).map_err(|e| e.to_string())?;
        let mut names = HashMap::new();
        for bucket in table.iter() {
            for (_, r) in bucket.lock().iter() {
                ds.arena
                    .read(*r, |m| names.insert(m.name.clone(), (m.ino, m.log_off)))
                    .map_err(|e| format!("{path}: dangling index entry: {e:?}"))?;
            }
        }
        let rebuilt: HashMap<String, (u64, u64)> = res
            .live
            .into_iter()
            .map(|e| (e.name, (e.ino, e.offset)))
            .collect();
        let mut problems = Vec::new();
        if names != rebuilt {
            let mut diff: Vec<String> = names
                .iter()
                .filter(|(n, e)| rebuilt.get(*n) != Some(e))
                .map(|(n, e)| format!("index {n}={e:?}"))
                .chain(
                    rebuilt
                        .iter()
                        .filter(|(n, e)| names.get(*n) != Some(e))
                        .map(|(n, e)| format!("log {n}={e:?}")),
                )
                .collect();
            diff.sort();
            problems.push(format!("names differ: {}", diff.join(", ")));
        }
        if !res.losers.is_empty() {
            problems.push(format!("live duplicates in the log at {:?}", res.losers));
        }
        let free: HashSet<u64> = ds.free_slots.lock().iter().copied().collect();
        let reusable: HashSet<u64> = res.reusable.into_iter().collect();
        if free != reusable {
            let mut only_index: Vec<_> = free.difference(&reusable).collect();
            let mut only_log: Vec<_> = reusable.difference(&free).collect();
            only_index.sort();
            only_log.sort();
            problems.push(format!(
                "free slots differ: index only {only_index:?}, log only {only_log:?}"
            ));
        }
        if tails != log_tails {
            problems.push(format!("tails: index {tails:?}, log {log_tails:?}"));
        }
        let live = ds.live.load(Ordering::SeqCst);
        if live != names.len() as u64 || live != rebuilt.len() as u64 {
            problems.push(format!(
                "live count {live}: index holds {}, log {}",
                names.len(),
                rebuilt.len()
            ));
        }
        let size = mi.cached_size.load(Ordering::SeqCst);
        if size != raw.size {
            problems.push(format!("cached size {size}, log {}", raw.size));
        }
        let seq = mi.seq.load(Ordering::SeqCst);
        if seq < raw.seq.max(res.max_seq) {
            problems.push(format!(
                "sequence {seq} below the log's {}",
                raw.seq.max(res.max_seq)
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(format!("{path}: {}", problems.join("; ")))
        }
    }

    // ---- path resolution -----------------------------------------------------

    /// Look up one path component under `dir`, consulting the lock-free
    /// dentry cache first when it is enabled. A validated cache hit skips
    /// the bucket-lock acquisition of [`crate::dir`]'s authoritative
    /// lookup; every other outcome falls back to it and (when still
    /// fresh) publishes the translation for the next walk.
    pub(crate) fn lookup_child(&self, dir: &Arc<MemInode>, name: &str) -> FsResult<Option<u64>> {
        if self.config.dcache {
            if let Some(child) = self.dcache.lookup(dir, name) {
                return Ok(Some(child));
            }
            // Snapshot the generation *before* the authoritative lookup:
            // a writer racing in between makes the fill stale, and a
            // stale fill never validates (see `crate::dcache`).
            let g0 = dir.dcache_gen();
            let meta = self.dir_lookup(dir, name)?;
            if let Some(m) = &meta {
                // Schedule point in the fill window: between the generation
                // snapshot + authoritative lookup above and the slot publish
                // below. schedmc races a same-name rename through here to
                // check stale fills can only miss, never lie.
                self.point("dcache.fill.publish");
                self.dcache.insert(dir, g0, name, m.ino);
            }
            Ok(meta.map(|m| m.ino))
        } else {
            Ok(self.dir_lookup(dir, name)?.map(|m| m.ino))
        }
    }

    /// Resolve a directory path to its in-memory inode.
    pub(crate) fn resolve_dir(&self, comps: &[&str]) -> FsResult<Arc<MemInode>> {
        let mut cur = self.get_inode(ROOT_INO, 0)?;
        for c in comps {
            let ino = self.lookup_child(&cur, c)?.ok_or(FsError::NotFound)?;
            let child = self.get_inode(ino, cur.ino)?;
            if child.itype != InodeType::Directory {
                return Err(FsError::NotADirectory);
            }
            cur = child;
        }
        Ok(cur)
    }

    /// Resolve any path to its in-memory inode.
    pub(crate) fn resolve(&self, path: &str) -> FsResult<Arc<MemInode>> {
        if vpath::is_root(path) {
            return self.get_inode(ROOT_INO, 0);
        }
        let (parent_comps, name) = vpath::split_parent(path)?;
        let parent = self.resolve_dir(&parent_comps)?;
        let ino = self
            .lookup_child(&parent, name)?
            .ok_or(FsError::NotFound)?;
        self.get_inode(ino, parent.ino)
    }

    // ---- inode initialization (create/mkdir) ----------------------------------

    /// Initialize a fresh inode's core state through the LibFS-wide
    /// mapping (the grant mapping covers the same bytes; either handle is
    /// valid while the inode is held). The stores here are payload of the
    /// enclosing create's §4.2 protocol: they are flushed but *not* fenced
    /// — the dentry commit provides (or, buggy, fails to provide) the
    /// ordering.
    pub(crate) fn init_inode_core_with_mode(
        &self,
        ino: u64,
        itype: InodeType,
        perm: u32,
    ) -> FsResult<()> {
        let m = &self.base_mapping;
        let base = self.geom.inode_offset(ino);
        // Assemble the record in DRAM and store it with one write (the
        // compiler's memcpy — what the C artifact's struct assignment does),
        // clearing any stale bytes of a recycled slot in the same store.
        let mut rec = [0u8; INODE_SIZE as usize];
        // The inode's own commit marker is part of the same payload batch;
        // the flush covers all four lines, the *fence* comes from the
        // dentry commit protocol.
        rec[I_MARKER as usize..I_MARKER as usize + 8].copy_from_slice(&ino.to_le_bytes());
        rec[I_TYPE as usize..I_TYPE as usize + 4].copy_from_slice(&itype.to_raw().to_le_bytes());
        rec[I_MODE as usize..I_MODE as usize + 4].copy_from_slice(&perm.to_le_bytes());
        rec[I_UID as usize..I_UID as usize + 4].copy_from_slice(&self.uid.to_le_bytes());
        let nlink: u64 = if itype == InodeType::Directory {
            rec[I_NTAILS as usize..I_NTAILS as usize + 4]
                .copy_from_slice(&self.config.dir_tails.to_le_bytes());
            2
        } else {
            1
        };
        rec[I_NLINK as usize..I_NLINK as usize + 8].copy_from_slice(&nlink.to_le_bytes());
        m.write(base, &rec).map_err(map_fault)?;
        m.clwb(base, INODE_SIZE as usize).map_err(map_fault)?;
        Ok(())
    }

    /// Register a fresh in-memory inode for an inode this LibFS just
    /// created, with the mapping that came with its grant.
    fn install_fresh_inode(
        &self,
        ino: u64,
        itype: InodeType,
        parent: u64,
        mapping: Mapping,
    ) -> FsResult<Arc<MemInode>> {
        let dir = (itype == InodeType::Directory)
            .then(|| DirState::new(self.config.dir_buckets, self.config.dir_tails as usize));
        let mi = MemInode::new(
            ino,
            itype,
            parent,
            mapping,
            0,
            if itype == InodeType::Directory { 2 } else { 1 },
            0,
            dir,
        );
        self.inodes.write().insert(ino, mi.clone());
        Ok(mi)
    }

    // ---- multi-inode rules ------------------------------------------------

    /// Make sure the kernel considers `dir` connected to the root: commit
    /// the chain of ancestors top-down so each commit registers the next
    /// level's children (Rule (1) as applied by a well-behaved LibFS).
    pub(crate) fn ensure_connected(&self, dir: &Arc<MemInode>) -> FsResult<()> {
        // Collect the chain of ancestors with no shadow entry.
        let mut chain: Vec<Arc<MemInode>> = Vec::new();
        let mut cur = dir.clone();
        while self.kernel.shadow_entry(cur.ino).is_none() {
            let parent_ino = cur.parent.load(Ordering::SeqCst);
            if parent_ino == 0 {
                return Err(FsError::Internal(format!(
                    "inode {} has no known parent while disconnected",
                    cur.ino
                )));
            }
            let parent = self
                .inodes
                .read()
                .get(&parent_ino)
                .cloned()
                .ok_or_else(|| {
                    FsError::Internal(format!("parent {parent_ino} not in inode cache"))
                })?;
            chain.push(cur);
            cur = parent;
        }
        // `cur` has a shadow entry. Commit top-down: cur registers
        // chain.last(), and so on. After each commit, formally acquire the
        // newly registered child so later commits/releases of it work.
        let mut to_commit = cur;
        while let Some(child) = chain.pop() {
            self.kernel.commit(self.id, to_commit.ino)?;
            to_commit = child;
        }
        Ok(())
    }

    /// Honor Rule (2): before the old parent of a cross-directory rename is
    /// released, commit every new parent recorded against it.
    fn commit_pending_renames(&self, old_parent: u64) -> FsResult<()> {
        let pending: Vec<u64> = self
            .pending_renames
            .lock()
            .remove(&old_parent)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        for new_parent in pending {
            if self.kernel.owns(self.id, new_parent) {
                // The new parent itself may still be unknown to the kernel
                // (created this session): connect it first (Rule (1)), then
                // commit it (Rule (2)).
                let mi = self.inodes.read().get(&new_parent).cloned();
                if let Some(mi) = mi {
                    self.ensure_connected(&mi)?;
                }
                self.kernel.commit(self.id, new_parent)?;
            }
        }
        Ok(())
    }

    // ---- the release protocol (§4.3) -----------------------------------------

    /// Voluntarily release an inode back to the kernel (the sharing path,
    /// Figure 1 ⑤).
    ///
    /// Original ArckFS: release immediately and drop the auxiliary state —
    /// a concurrent thread still inside an operation dereferences the
    /// unmapped core state and takes the modelled SIGBUS (§4.3).
    ///
    /// ArckFS+: take **every** lock of the inode (the file write lock, all
    /// bucket locks, all tail locks, the metadata lock) so no operation is
    /// in flight; keep the auxiliary state and the locks; readers keep
    /// using the cached metadata.
    pub fn release_inode(&self, ino: u64) -> FsResult<()> {
        let mi = self
            .inodes
            .read()
            .get(&ino)
            .cloned()
            .ok_or(FsError::NotFound)?;

        // A well-behaved LibFS honors Rules (1) and (2) before releasing.
        if self.config.fix_rename {
            self.commit_pending_renames(ino)?;
        }
        if self.config.fix_rename && self.kernel.shadow_entry(ino).is_none() {
            // Rule (1): connect via the parent before releasing the child.
            let parent_ino = mi.parent.load(Ordering::SeqCst);
            if parent_ino != 0 {
                let parent = self.inodes.read().get(&parent_ino).cloned();
                if let Some(parent) = parent {
                    self.ensure_connected(&parent)?;
                    self.kernel.commit(self.id, parent_ino)?;
                }
            }
        }

        if self.config.fix_release_sync {
            // §4.3 PATCH: quiesce the inode under all its locks, then
            // release; retain the auxiliary state. Lock order matches the
            // operations' nesting (whole-file range, `rw`, buckets,
            // tails, metadata) so an in-flight create completes rather
            // than deadlocking. Data writers never take `rw`, so the
            // whole-file range acquisition is what waits them out
            // (DESIGN.md §11); `rw` excludes `remove_in_dir`.
            self.count_range_lock();
            let _ranges = mi.ranges.acquire_all();
            let _w = mi.rw.write();
            let mut _table_guard = None;
            let mut tail_guards = Vec::new();
            if let Some(ds) = mi.dir_state() {
                // Exclusive access to the bucket table waits out every
                // in-flight directory operation (they hold it in read
                // mode for their critical sections).
                self.count_lock();
                _table_guard = Some(ds.buckets.write());
                for t in &ds.tails {
                    self.count_lock();
                    tail_guards.push(t.lock());
                }
            }
            let _m = mi.meta.lock();
            mi.mark_released();
            // Cached translations under a released directory must stop
            // validating: another LibFS may mutate it while released, and
            // the rebuilt post-revival index is the only authority.
            self.dcache_invalidate(&mi);
            // What the kernel just verified is what the retained auxiliary
            // state describes; a failed release leaves nothing remembered.
            mi.remember_generation(self.kernel.release(self.id, ino)?);
            // Locks drop here; auxiliary state is retained (readers use the
            // cached metadata; the next write re-acquires).
            Ok(())
        } else {
            // BUG §4.3: no synchronization with in-flight operations, and
            // the auxiliary state is dropped.
            self.dcache_invalidate(&mi);
            self.inodes.write().remove(&ino);
            self.kernel.release(self.id, ino)?;
            Ok(())
        }
    }

    /// Open an already-resolved regular file by inode number — the fast
    /// path used by customizations (see [`crate::custom`]) that keep their
    /// own path index as private auxiliary state.
    pub fn open_by_ino(&self, ino: u64, flags: OpenFlags) -> FsResult<Fd> {
        let mi = self.get_inode(ino, 0)?;
        if mi.itype != InodeType::Regular {
            return Err(FsError::IsADirectory);
        }
        if flags.truncate {
            if !flags.write {
                return Err(FsError::BadAccessMode);
            }
            self.file_truncate(&mi, 0)?;
        }
        let fd = Fd(self.next_fd.fetch_add(1, Ordering::Relaxed));
        self.fds.write().insert(fd.0, FdEntry { ino, flags });
        Ok(fd)
    }

    /// Stat an already-resolved inode by number (customization fast path).
    pub fn stat_by_ino(&self, ino: u64) -> FsResult<Metadata> {
        let mi = self.get_inode(ino, 0)?;
        self.meta_of(&mi)
    }

    /// Commit (verify while retaining ownership) the inode at `path`.
    pub fn commit_path(&self, path: &str) -> FsResult<()> {
        let mi = self.resolve(path)?;
        if self.config.fix_rename {
            self.ensure_connected(&mi)?;
        }
        self.kernel.commit(self.id, mi.ino)
    }

    /// Release the inode at `path` (sharing entry point used by the
    /// sharing-cost benchmarks and tests).
    pub fn release_path(&self, path: &str) -> FsResult<()> {
        let mi = self.resolve(path)?;
        self.release_inode(mi.ino)
    }

    /// Release everything this LibFS holds, parents before children where
    /// the kernel does not yet know the children (Rule (1) ordering), then
    /// unregister.
    pub fn unmount(&self) -> FsResult<()> {
        // Hand unused grants back first so they are not force-released.
        let inos: Vec<u64> = self
            .ino_pool
            .drain_all()
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        if !inos.is_empty() {
            self.kernel.return_inodes(self.id, inos);
        }
        let pages: Vec<u64> = self.page_pool.drain_all();
        if !pages.is_empty() {
            self.kernel.return_pages(self.id, &pages)?;
        }
        // Keep releasing inodes whose verification prerequisites are
        // satisfiable until none remain.
        loop {
            let owned: Vec<u64> = {
                let map = self.inodes.read();
                map.values()
                    .filter(|m| m.state() == InodeState::Acquired)
                    .map(|m| m.ino)
                    .collect()
            };
            let owned: Vec<u64> = owned
                .into_iter()
                .filter(|&i| self.kernel.owns(self.id, i))
                .collect();
            if owned.is_empty() {
                break;
            }
            // Release shallow inodes first: an inode whose parent is also
            // still owned can wait (its shadow entry appears when the
            // parent verifies).
            let mut progressed = false;
            for ino in &owned {
                let mi = self.inodes.read().get(ino).cloned();
                let parent = mi.map(|m| m.parent.load(Ordering::SeqCst)).unwrap_or(0);
                let parent_owned = parent != 0 && owned.contains(&parent);
                if !parent_owned {
                    self.release_inode(*ino)?;
                    progressed = true;
                }
            }
            if !progressed {
                // Parent cycle in ownership (should not happen): force.
                for ino in owned {
                    let _ = self.kernel.force_release(self.id, ino);
                }
                break;
            }
        }
        self.kernel.unregister_libfs(self.id)
    }

    // ---- rename orchestration (§4.1 / §4.6) -----------------------------------

    fn rename_impl(&self, from: &str, to: &str) -> FsResult<()> {
        let (from_parent_comps, from_name) = vpath::split_parent(from)?;
        let (to_parent_comps, to_name) = vpath::split_parent(to)?;
        vpath::validate_name(from_name)?;
        vpath::validate_name(to_name)?;

        let mut from_parent = self.resolve_dir(&from_parent_comps)?;
        let mut to_parent = self.resolve_dir(&to_parent_comps)?;

        if from_parent.ino == to_parent.ino {
            return self.dir_rename_local(&from_parent, from_name, to_name);
        }

        let mut meta = self
            .dir_lookup(&from_parent, from_name)?
            .ok_or(FsError::NotFound)?;
        if self.dir_lookup(&to_parent, to_name)?.is_some() {
            return Err(FsError::AlreadyExists);
        }
        let mut child = self.get_inode(meta.ino, from_parent.ino)?;
        let child_is_dir = child.itype == InodeType::Directory;

        let cycle_check = || -> FsResult<()> {
            // §4.6 case (2): renaming a directory under its own descendant.
            let from_prefix = format!("{}/", from.trim_end_matches('/'));
            if to.starts_with(&from_prefix)
                || to.trim_end_matches('/') == from.trim_end_matches('/')
            {
                return Err(FsError::WouldCycle);
            }
            Ok(())
        };
        if child_is_dir && self.config.fix_dir_cycle {
            cycle_check()?;
        }

        // §4.6 case (1): the global rename lease for directory relocations.
        // A concurrent directory rename may have moved anything resolved so
        // far, so re-resolve and re-check under the lease — the same reason
        // Linux re-validates under s_vfs_rename_mutex.
        let lease_token = if child_is_dir && (self.config.fix_dir_cycle || self.config.fix_rename) {
            // Under a schedule controller the blocking acquire's spin-sleep
            // would OS-block this thread and its eventual grab would race
            // the holder's next granted segment; cooperate with the
            // controller instead: try, park at the lease wait point, retry
            // only when granted.
            let token = if inject::in_participant() {
                loop {
                    match self.kernel.rename_lease_acquire(self.id) {
                        Ok(t) => break t,
                        Err(FsError::Busy) => inject::point(inject::LEASE_WAIT),
                        Err(e) => return Err(e),
                    }
                }
            } else {
                self.kernel.rename_lease_acquire_blocking(self.id)?
            };
            let revalidate = (|| -> FsResult<()> {
                from_parent = self.resolve_dir(&from_parent_comps)?;
                to_parent = self.resolve_dir(&to_parent_comps)?;
                meta = self
                    .dir_lookup(&from_parent, from_name)?
                    .ok_or(FsError::NotFound)?;
                if self.dir_lookup(&to_parent, to_name)?.is_some() {
                    return Err(FsError::AlreadyExists);
                }
                child = self.get_inode(meta.ino, from_parent.ino)?;
                if self.config.fix_dir_cycle {
                    cycle_check()?;
                }
                Ok(())
            })();
            if let Err(e) = revalidate {
                self.kernel.rename_lease_release(self.id, token)?;
                return Err(e);
            }
            Some(token)
        } else {
            None
        };

        let result = (|| -> FsResult<()> {
            if child_is_dir && self.config.fix_rename {
                // Rule (3): commit the new parent *before* the rename (this
                // also connects a newly created new parent — Figure 2).
                self.ensure_connected(&to_parent)?;
                self.kernel.commit(self.id, to_parent.ino)?;
            }

            self.point("rename.crossdir.prepared");

            // The actual relocation in core + auxiliary state: commit the
            // new dentry, then tombstone the old.
            self.dir_insert(&to_parent, to_name, meta.ino, |_| Ok(()))?;
            // Once the insert has landed the operation is past the point of
            // no return: replaying the whole rename would find the new name
            // already present. So a §4.3 release of the old parent is
            // handled here, by reviving it and retrying just the removal.
            let mut fp = from_parent.clone();
            loop {
                match self.dir_remove(&fp, from_name) {
                    Err(FsError::Released { .. }) if self.config.fix_release_sync => {
                        fp = self.revive_inode(&fp)?;
                    }
                    other => {
                        other?;
                        break;
                    }
                }
            }
            child.parent.store(to_parent.ino, Ordering::SeqCst);

            if self.config.fix_rename {
                if child_is_dir {
                    // Rule (2) as per-operation verification (§4.1 patch):
                    // commit the new parent after the rename, updating the
                    // child's shadow parent pointer.
                    self.kernel.commit(self.id, to_parent.ino)?;
                } else {
                    // Files: defer to release time (Rule (2) ordering).
                    self.pending_renames
                        .lock()
                        .entry(from_parent.ino)
                        .or_default()
                        .insert(to_parent.ino);
                }
            }
            Ok(())
        })();

        if let Some(token) = lease_token {
            self.kernel.rename_lease_release(self.id, token)?;
        }
        result
    }

    // ---- misc ------------------------------------------------------------

    fn meta_of(&self, mi: &MemInode) -> FsResult<Metadata> {
        let (size, nlink) = if self.config.fix_release_sync {
            // §4.3 patch: lock-free reads use the cached state.
            (
                mi.cached_size.load(Ordering::SeqCst),
                mi.cached_nlink.load(Ordering::SeqCst),
            )
        } else {
            // Original: read through the mapping (faults if concurrently
            // released).
            let m = mi.mapping_handle();
            let base = self.geom.inode_offset(mi.ino);
            (
                m.read_u64(base + I_SIZE).map_err(map_fault)?,
                m.read_u64(base + I_NLINK).map_err(map_fault)?,
            )
        };
        Ok(Metadata {
            ino: mi.ino,
            file_type: match mi.itype {
                InodeType::Regular => FileType::Regular,
                InodeType::Directory => FileType::Directory,
            },
            size,
            nlink,
        })
    }

    fn fd_entry(&self, fd: Fd) -> FsResult<FdEntry> {
        self.fds
            .read()
            .get(&fd.0)
            .cloned()
            .ok_or(FsError::BadDescriptor)
    }

    fn file_inode(&self, fd: Fd) -> FsResult<(Arc<MemInode>, FdEntry)> {
        let entry = self.fd_entry(fd)?;
        let mi = self.get_inode(entry.ino, 0)?;
        if mi.itype != InodeType::Regular {
            return Err(FsError::IsADirectory);
        }
        Ok((mi, entry))
    }

    /// The directory inode behind a handle opened with
    /// [`FileSystem::open_dir`] — the anchor of the `*_at` fast paths.
    /// Re-fetched through `get_inode` on every use so a §4.3 release of
    /// the directory revives it transparently rather than surfacing a
    /// dangling handle.
    fn dir_of_fd(&self, dirfd: Fd) -> FsResult<Arc<MemInode>> {
        let entry = self.fd_entry(dirfd)?;
        let mi = self.get_inode(entry.ino, 0)?;
        if mi.itype != InodeType::Directory {
            return Err(FsError::NotADirectory);
        }
        Ok(mi)
    }

    fn create_impl(&self, path: &str, itype: InodeType) -> FsResult<u64> {
        self.create_impl_with_mode(path, itype, mode::RW_ALL)
    }

    /// Create a file or directory with explicit permission bits — used by
    /// the §3.1 attack-scenario tests where App1 lacks write permission on
    /// dir3 and file1.
    pub fn create_with_mode(&self, path: &str, dir: bool, perm: u32) -> FsResult<()> {
        let itype = if dir {
            InodeType::Directory
        } else {
            InodeType::Regular
        };
        self.create_impl_with_mode(path, itype, perm).map(|_| ())
    }

    fn create_impl_with_mode(&self, path: &str, itype: InodeType, perm: u32) -> FsResult<u64> {
        let (parent_comps, name) = vpath::split_parent(path)?;
        let parent = self.resolve_dir(&parent_comps)?;
        self.create_in_dir(&parent, name, itype, perm)
    }

    /// Create `name` under an already-resolved parent directory — the
    /// shared tail of the path-based creates and the handle-relative
    /// `*_at` entry points (which skip the prefix walk entirely).
    fn create_in_dir(
        &self,
        parent: &Arc<MemInode>,
        name: &str,
        itype: InodeType,
        perm: u32,
    ) -> FsResult<u64> {
        vpath::validate_name(name)?;
        if name.len() > DENTRY_NAME_CAP {
            return Err(FsError::NameTooLong);
        }
        let (child_ino, child_mapping) = self.alloc_ino()?;
        let res = self.dir_insert(parent, name, child_ino, |fs| {
            fs.init_inode_core_with_mode(child_ino, itype, perm)
        });
        if let Err(e) = res {
            self.recycle_ino(child_ino, Some(child_mapping));
            return Err(e);
        }
        self.install_fresh_inode(child_ino, itype, parent.ino, child_mapping)?;
        if self.config.verify_every_op {
            self.ensure_connected(parent)?;
            self.kernel.commit(self.id, parent.ino)?;
        }
        Ok(child_ino)
    }

    fn remove_impl(&self, path: &str, want_dir: bool) -> FsResult<()> {
        let (parent_comps, name) = vpath::split_parent(path)?;
        let parent = self.resolve_dir(&parent_comps)?;
        self.remove_in_dir(&parent, name, want_dir)
    }

    /// Remove `name` under an already-resolved parent directory — the
    /// shared tail of `unlink`/`rmdir` and the handle-relative `unlink_at`.
    fn remove_in_dir(&self, parent: &Arc<MemInode>, name: &str, want_dir: bool) -> FsResult<()> {
        // §4.3: hold the parent's `rw` lock in read mode across the removal
        // and the post-removal teardown. The release quiesce takes it in
        // write mode first, so the mapping the child's core state is torn
        // down through cannot go stale mid-free. Taken before the bucket
        // locks — the same order as the release path itself.
        let _no_release = self.config.fix_release_sync.then(|| parent.rw.read());

        let (child_ino, itype) = if self.config.fix_state_sync {
            // PATCHED (§4.4): the checks against the child's core state
            // (commit marker, type, emptiness) run inside the removal's
            // bucket critical section, atomic with the dentry removal. A
            // concurrent remove of the same name is then a clean lost race
            // (`NotFound`) instead of a misreported core-state fault: with
            // the checks outside the section, the rival can clear the
            // child's commit marker between this thread's lookup and its
            // marker read.
            let mut checked = None;
            let meta = self.dir_remove_validated(parent, name, |m| {
                let pm = parent.mapping_handle();
                let ibase = self.geom.inode_offset(m.ino);
                let marker = pm.read_u64(ibase + I_MARKER).map_err(map_fault)?;
                if marker != m.ino {
                    return Err(FsError::Fault(vfs::FaultKind::DanglingCoreRef {
                        offset: ibase,
                        detail: format!(
                            "auxiliary index names '{name}' (inode {}) but its core state is \
                             uninitialized (racing create updated only the auxiliary state)",
                            m.ino
                        ),
                    }));
                }
                let itype = InodeType::from_raw(pm.read_u32(ibase + I_TYPE).map_err(map_fault)?)
                    .ok_or_else(|| {
                        FsError::Corrupted(format!("inode {} has malformed type", m.ino))
                    })?;
                match (itype, want_dir) {
                    (InodeType::Directory, false) => return Err(FsError::IsADirectory),
                    (InodeType::Regular, true) => return Err(FsError::NotADirectory),
                    _ => {}
                }
                if want_dir {
                    let live = pm.read_u64(ibase + I_SIZE).map_err(map_fault)?;
                    if live != 0 {
                        return Err(FsError::NotEmpty);
                    }
                }
                checked = Some(itype);
                Ok(())
            })?;
            (
                meta.ino,
                checked.expect("validate ran before a successful removal"),
            )
        } else {
            let meta = self.dir_lookup(parent, name)?.ok_or(FsError::NotFound)?;

            // Load the child inode directly from the mapped core state, as
            // the C artifact does by pointer. If a racing create has
            // inserted the auxiliary entry but not yet written the core
            // state (§4.4, buggy mode), this is the dereference that
            // crashes there — here it surfaces as a detected dangling core
            // reference.
            let pm = parent.mapping_handle();
            let ibase = self.geom.inode_offset(meta.ino);
            let marker = pm.read_u64(ibase + I_MARKER).map_err(map_fault)?;
            if marker != meta.ino {
                return Err(FsError::Fault(vfs::FaultKind::DanglingCoreRef {
                    offset: ibase,
                    detail: format!(
                        "auxiliary index names '{name}' (inode {}) but its core state is \
                         uninitialized (racing create updated only the auxiliary state)",
                        meta.ino
                    ),
                }));
            }
            let itype = InodeType::from_raw(pm.read_u32(ibase + I_TYPE).map_err(map_fault)?)
                .ok_or_else(|| {
                    FsError::Corrupted(format!("inode {} has malformed type", meta.ino))
                })?;
            match (itype, want_dir) {
                (InodeType::Directory, false) => return Err(FsError::IsADirectory),
                (InodeType::Regular, true) => return Err(FsError::NotADirectory),
                _ => {}
            }
            if want_dir {
                let live = pm.read_u64(ibase + I_SIZE).map_err(map_fault)?;
                if live != 0 {
                    return Err(FsError::NotEmpty);
                }
            }

            // Remove the dentry first, then free the inode and its pages.
            self.dir_remove(parent, name)?;
            (meta.ino, itype)
        };

        self.teardown_removed_inode(parent, child_ino, itype)?;

        if self.config.verify_every_op {
            self.ensure_connected(parent)?;
            self.kernel.commit(self.id, parent.ino)?;
        }
        Ok(())
    }

    /// Free an inode whose dentry has been removed: collect and recycle its
    /// pages, clear its commit marker, hand it back to the kernel, and drop
    /// the auxiliary state.
    fn teardown_removed_inode(
        &self,
        parent: &MemInode,
        child_ino: u64,
        itype: InodeType,
    ) -> FsResult<()> {
        let pm = parent.mapping_handle();
        let ibase = self.geom.inode_offset(child_ino);
        let mut pages = Vec::new();
        if itype == InodeType::Regular {
            self.extent_collect_pages(child_ino, &pm, &mut pages)?;
        } else {
            // Directory log pages, from the on-PM tail heads.
            let ntails = pm.read_u32(ibase + I_NTAILS).map_err(map_fault)? as u64;
            for t in 0..ntails.min(format::NDIRECT as u64) {
                let mut p = pm
                    .read_u64(ibase + format::I_DIRECT + 8 * t)
                    .map_err(map_fault)?;
                let mut hops = 0u64;
                while p != 0 && hops < self.geom.total_pages {
                    pages.push(p);
                    p = pm.read_u64(p * pmem::PAGE_SIZE as u64).map_err(map_fault)?;
                    hops += 1;
                }
            }
        }

        // Free the inode: clear the commit marker and persist.
        pm.write_u64(ibase + I_MARKER, 0).map_err(map_fault)?;
        pm.clwb(ibase, 8).map_err(map_fault)?;
        pm.sfence();

        // If the kernel granted us this inode through acquire, hand it
        // back (the verifier accepts freed inodes).
        let had_shadow = self.kernel.shadow_entry(child_ino).is_some();
        if self.kernel.owns(self.id, child_ino) && had_shadow {
            self.kernel.release(self.id, child_ino)?;
        }
        let removed = self.inodes.write().remove(&child_ino);
        pages.sort_unstable();
        pages.dedup();
        self.recycle_pages(pages);
        // Keep the mapping with the recycled number when the kernel did
        // not revoke it (fresh inodes); a revoked one is remapped lazily.
        let mapping = removed.map(|mi| mi.mapping_handle());
        self.recycle_ino(child_ino, mapping);
        Ok(())
    }

    /// Run `op`, transparently replaying it whenever it reports that an
    /// inode it had resolved was voluntarily released mid-operation
    /// ([`FsError::Released`], §4.3 patch). Between attempts the released
    /// inode is revived in place, so every retry makes progress; the
    /// sentinel never escapes to [`FileSystem`] callers. Each attempt
    /// re-resolves its paths from scratch, so only operations that mutate
    /// nothing before their critical sections may go through here.
    fn run_retrying<T>(&self, mut op: impl FnMut() -> FsResult<T>) -> FsResult<T> {
        loop {
            match op() {
                Err(FsError::Released { ino }) if self.config.fix_release_sync => {
                    if let Some(mi) = self.inodes.read().get(&ino).cloned() {
                        match self.revive_inode(&mi) {
                            // NotFound: freed while released — the replay's
                            // own resolution will report the missing name.
                            Ok(_) | Err(FsError::NotFound) => {}
                            Err(e) => return Err(e),
                        }
                    }
                    std::thread::yield_now();
                }
                other => return other,
            }
        }
    }

    /// Read the faults counter style stats (exposed through the trait).
    fn gather_stats(&self) -> FsStats {
        let dev = self.kernel.device().stats().snapshot();
        let ks = self.kernel.stats().snapshot();
        let page_alloc = self.kernel.allocator().stats();
        let ino_alloc = self.kernel.ino_provider().stats();
        let deleg = self.delegation.snapshot();
        FsStats {
            flushes: dev.clwb,
            fences: dev.sfences,
            syscalls: ks.syscalls,
            verifications: ks.verifications,
            pm_bytes_written: dev.bytes_written,
            shared_lock_acqs: self.shared_lock_acqs.load(Ordering::Relaxed),
            dcache_hits: self.dcache.hits(),
            dcache_misses: self.dcache.misses(),
            dcache_invalidations: self.dcache.invalidations(),
            pool_refills: self.ino_pool.refills() + self.page_pool.refills(),
            pool_releases: self.ino_pool.releases() + self.page_pool.releases(),
            alloc_steals: page_alloc.alloc_steals
                + ino_alloc.alloc_steals
                + self.ino_pool.steals()
                + self.page_pool.steals(),
            deleg_bytes: deleg.delegated_bytes,
            deleg_enqueued: deleg.enqueued,
            deleg_backpressure: deleg.backpressure,
            deleg_sq_depth_max: deleg.sq_depth_max,
            deleg_batches: deleg.batches,
            deleg_batch_fences: deleg.batch_fences,
            deleg_polls: deleg.poll_waits,
            deleg_parks: deleg.park_waits,
            range_lock_acqs: self.range_lock_acqs.load(Ordering::Relaxed),
            extent_inserts: self.extent_inserts.load(Ordering::Relaxed),
            cow_tail_copies: 0,
        }
    }
}

impl FileSystem for LibFs {
    fn fs_name(&self) -> &str {
        &self.label
    }

    fn create(&self, path: &str) -> FsResult<Fd> {
        let _span = obs::span(obs::OpKind::Create, self.kernel.device().stats());
        let ino = self.run_retrying(|| self.create_impl(path, InodeType::Regular))?;
        let fd = Fd(self.next_fd.fetch_add(1, Ordering::Relaxed));
        self.fds.write().insert(
            fd.0,
            FdEntry {
                ino,
                flags: OpenFlags::rw(),
            },
        );
        Ok(fd)
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        let _span = obs::span(obs::OpKind::Open, self.kernel.device().stats());
        let ino = self.run_retrying(|| loop {
            match self.resolve(path) {
                Ok(mi) => {
                    if flags.create && flags.excl {
                        // O_CREAT|O_EXCL: an existing name is an error, and
                        // the create below is the atomic arbiter — the
                        // dentry insert's duplicate check runs inside the
                        // bucket critical section, so exactly one of two
                        // racing excl creates can win.
                        return Err(FsError::AlreadyExists);
                    }
                    if mi.itype != InodeType::Regular {
                        return Err(FsError::IsADirectory);
                    }
                    if flags.truncate {
                        if !flags.write {
                            return Err(FsError::BadAccessMode);
                        }
                        self.file_truncate(&mi, 0)?;
                    }
                    return Ok(mi.ino);
                }
                Err(FsError::NotFound) if flags.create => {
                    match self.create_impl(path, InodeType::Regular) {
                        Ok(ino) => return Ok(ino),
                        // Lost a create race. Without excl that is benign —
                        // loop and open the winner's file; with excl it is
                        // exactly the collision excl exists to report.
                        Err(FsError::AlreadyExists) if !flags.excl => continue,
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
        })?;
        let fd = Fd(self.next_fd.fetch_add(1, Ordering::Relaxed));
        self.fds.write().insert(fd.0, FdEntry { ino, flags });
        Ok(fd)
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Close, self.kernel.device().stats());
        self.fds
            .write()
            .remove(&fd.0)
            .map(|_| ())
            .ok_or(FsError::BadDescriptor)
    }

    fn read_at(&self, fd: Fd, buf: &mut [u8], offset: u64) -> FsResult<usize> {
        let _span = obs::span(obs::OpKind::Read, self.kernel.device().stats());
        self.run_retrying(|| {
            let (mi, entry) = self.file_inode(fd)?;
            if !entry.flags.read {
                return Err(FsError::BadAccessMode);
            }
            self.file_read_vectored(&mi, &mut [buf], offset)
        })
    }

    fn write_at(&self, fd: Fd, buf: &[u8], offset: u64) -> FsResult<usize> {
        let _span = obs::span(obs::OpKind::Write, self.kernel.device().stats());
        self.run_retrying(|| {
            let (mi, entry) = self.file_inode(fd)?;
            if !entry.flags.write {
                return Err(FsError::BadAccessMode);
            }
            // O_APPEND: every write lands at end-of-file regardless of the
            // requested offset, as in POSIX.
            if entry.flags.append {
                return self.file_append_vectored(&mi, &[buf]).map(|_| buf.len());
            }
            self.file_write_vectored(&mi, &[buf], offset)
        })
    }

    fn append(&self, fd: Fd, buf: &[u8]) -> FsResult<u64> {
        let _span = obs::span(obs::OpKind::Append, self.kernel.device().stats());
        self.run_retrying(|| {
            let (mi, entry) = self.file_inode(fd)?;
            if !entry.flags.write {
                return Err(FsError::BadAccessMode);
            }
            self.file_append_vectored(&mi, &[buf])
        })
    }

    fn write_vectored_at(&self, fd: Fd, bufs: &[&[u8]], offset: u64) -> FsResult<usize> {
        let _span = obs::span(obs::OpKind::Write, self.kernel.device().stats());
        self.run_retrying(|| {
            let (mi, entry) = self.file_inode(fd)?;
            if !entry.flags.write {
                return Err(FsError::BadAccessMode);
            }
            if entry.flags.append {
                let total: usize = bufs.iter().map(|b| b.len()).sum();
                return self.file_append_vectored(&mi, bufs).map(|_| total);
            }
            self.file_write_vectored(&mi, bufs, offset)
        })
    }

    fn read_vectored_at(&self, fd: Fd, bufs: &mut [&mut [u8]], offset: u64) -> FsResult<usize> {
        let _span = obs::span(obs::OpKind::Read, self.kernel.device().stats());
        self.run_retrying(|| {
            let (mi, entry) = self.file_inode(fd)?;
            if !entry.flags.read {
                return Err(FsError::BadAccessMode);
            }
            self.file_read_vectored(&mi, bufs, offset)
        })
    }

    fn fallocate(&self, fd: Fd, offset: u64, len: u64) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Write, self.kernel.device().stats());
        self.run_retrying(|| {
            let (mi, entry) = self.file_inode(fd)?;
            if !entry.flags.write {
                return Err(FsError::BadAccessMode);
            }
            self.file_fallocate(&mi, offset, len)
        })
    }

    fn fsync(&self, _fd: Fd) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Fsync, self.kernel.device().stats());
        // §2.2: data and metadata writes persist synchronously. Delegated
        // writes are quiesced: every waited ticket is already durable, but
        // another thread's write may still have chunks in the rings.
        self.delegation.drain();
        Ok(())
    }

    fn sync(&self) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Fsync, self.kernel.device().stats());
        self.delegation.drain();
        Ok(())
    }

    fn truncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Truncate, self.kernel.device().stats());
        self.run_retrying(|| {
            let (mi, entry) = self.file_inode(fd)?;
            if !entry.flags.write {
                return Err(FsError::BadAccessMode);
            }
            self.file_truncate(&mi, size)
        })
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Unlink, self.kernel.device().stats());
        self.run_retrying(|| self.remove_impl(path, false))
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Mkdir, self.kernel.device().stats());
        self.run_retrying(|| self.create_impl(path, InodeType::Directory))
            .map(|_| ())
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Rmdir, self.kernel.device().stats());
        self.run_retrying(|| self.remove_impl(path, true))
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Rename, self.kernel.device().stats());
        let r = self.run_retrying(|| self.rename_impl(from, to));
        if r.is_ok() && self.config.verify_every_op {
            if let Ok((parent_comps, _)) = vpath::split_parent(to) {
                if let Ok(parent) = self.resolve_dir(&parent_comps) {
                    self.ensure_connected(&parent)?;
                    self.kernel.commit(self.id, parent.ino)?;
                }
            }
        }
        r
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let _span = obs::span(obs::OpKind::Readdir, self.kernel.device().stats());
        let mi = self.resolve(path)?;
        if mi.itype != InodeType::Directory {
            return Err(FsError::NotADirectory);
        }
        let metas = self.dir_iterate(&mi)?;
        let mut out = Vec::with_capacity(metas.len());
        for m in metas {
            // Child type from the cache when possible, else from PM.
            let ftype = match self.inodes.read().get(&m.ino) {
                Some(c) => match c.itype {
                    InodeType::Regular => FileType::Regular,
                    InodeType::Directory => FileType::Directory,
                },
                None => {
                    let raw = format::read_inode(self.kernel.device(), &self.geom, m.ino)
                        .map_err(|e| FsError::Internal(e.to_string()))?;
                    match raw.inode_type() {
                        Some(InodeType::Directory) => FileType::Directory,
                        _ => FileType::Regular,
                    }
                }
            };
            out.push(DirEntry {
                name: m.name,
                ino: m.ino,
                file_type: ftype,
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let _span = obs::span(obs::OpKind::Stat, self.kernel.device().stats());
        let mi = self.resolve(path)?;
        self.meta_of(&mi)
    }

    fn fstat(&self, fd: Fd) -> FsResult<Metadata> {
        let _span = obs::span(obs::OpKind::Stat, self.kernel.device().stats());
        self.run_retrying(|| {
            let entry = self.fd_entry(fd)?;
            let mi = self.get_inode(entry.ino, 0)?;
            self.meta_of(&mi)
        })
    }

    fn open_dir(&self, path: &str) -> FsResult<Fd> {
        let _span = obs::span(obs::OpKind::Open, self.kernel.device().stats());
        let ino = self.run_retrying(|| {
            let mi = self.resolve(path)?;
            if mi.itype != InodeType::Directory {
                return Err(FsError::NotADirectory);
            }
            Ok(mi.ino)
        })?;
        let fd = Fd(self.next_fd.fetch_add(1, Ordering::Relaxed));
        self.fds.write().insert(
            fd.0,
            FdEntry {
                ino,
                flags: OpenFlags::read(),
            },
        );
        Ok(fd)
    }

    // The handle-relative operations anchor at the directory inode held by
    // the fd, so each costs one `lookup_child` (a lock-free dcache probe on
    // the hot path) instead of a full prefix walk. `fd_dir_path` stays
    // unsupported: these natives never need to reconstruct a path.

    fn open_at(&self, dirfd: Fd, name: &str, flags: OpenFlags) -> FsResult<Fd> {
        let _span = obs::span(obs::OpKind::Open, self.kernel.device().stats());
        vpath::validate_name(name)?;
        let ino = self.run_retrying(|| loop {
            let dir = self.dir_of_fd(dirfd)?;
            match self.lookup_child(&dir, name)? {
                Some(ino) => {
                    if flags.create && flags.excl {
                        return Err(FsError::AlreadyExists);
                    }
                    let mi = self.get_inode(ino, dir.ino)?;
                    if mi.itype != InodeType::Regular {
                        return Err(FsError::IsADirectory);
                    }
                    if flags.truncate {
                        if !flags.write {
                            return Err(FsError::BadAccessMode);
                        }
                        self.file_truncate(&mi, 0)?;
                    }
                    return Ok(mi.ino);
                }
                None if flags.create => {
                    match self.create_in_dir(&dir, name, InodeType::Regular, mode::RW_ALL) {
                        Ok(ino) => return Ok(ino),
                        Err(FsError::AlreadyExists) if !flags.excl => continue,
                        Err(e) => return Err(e),
                    }
                }
                None => return Err(FsError::NotFound),
            }
        })?;
        let fd = Fd(self.next_fd.fetch_add(1, Ordering::Relaxed));
        self.fds.write().insert(fd.0, FdEntry { ino, flags });
        Ok(fd)
    }

    fn stat_at(&self, dirfd: Fd, name: &str) -> FsResult<Metadata> {
        let _span = obs::span(obs::OpKind::Stat, self.kernel.device().stats());
        vpath::validate_name(name)?;
        self.run_retrying(|| {
            let dir = self.dir_of_fd(dirfd)?;
            let ino = self.lookup_child(&dir, name)?.ok_or(FsError::NotFound)?;
            let mi = self.get_inode(ino, dir.ino)?;
            self.meta_of(&mi)
        })
    }

    fn unlink_at(&self, dirfd: Fd, name: &str) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Unlink, self.kernel.device().stats());
        vpath::validate_name(name)?;
        self.run_retrying(|| {
            let dir = self.dir_of_fd(dirfd)?;
            self.remove_in_dir(&dir, name, false)
        })
    }

    fn mkdir_at(&self, dirfd: Fd, name: &str) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Mkdir, self.kernel.device().stats());
        vpath::validate_name(name)?;
        self.run_retrying(|| {
            let dir = self.dir_of_fd(dirfd)?;
            self.create_in_dir(&dir, name, InodeType::Directory, mode::RW_ALL)
                .map(|_| ())
        })
    }

    fn stats(&self) -> FsStats {
        self.gather_stats()
    }

    fn reset_stats(&self) {
        self.kernel.device().stats().reset();
        self.shared_lock_acqs.store(0, Ordering::Relaxed);
        self.range_lock_acqs.store(0, Ordering::Relaxed);
        self.extent_inserts.store(0, Ordering::Relaxed);
        self.dcache.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::FsExt;

    fn fs(config: Config) -> Arc<LibFs> {
        crate::new_fs(64 << 20, config).expect("format").1
    }

    fn both() -> Vec<Arc<LibFs>> {
        vec![fs(Config::arckfs()), fs(Config::arckfs_plus())]
    }

    #[test]
    fn create_write_read_round_trip() {
        for f in both() {
            f.write_file("/hello.txt", b"hello world").unwrap();
            assert_eq!(f.read_file("/hello.txt").unwrap(), b"hello world");
            let st = f.stat("/hello.txt").unwrap();
            assert_eq!(st.size, 11);
            assert_eq!(st.file_type, FileType::Regular);
        }
    }

    #[test]
    fn create_rejects_duplicates() {
        let f = fs(Config::arckfs_plus());
        f.create("/a").unwrap();
        assert_eq!(f.create("/a").unwrap_err(), FsError::AlreadyExists);
    }

    #[test]
    fn open_missing_fails_without_create() {
        let f = fs(Config::arckfs_plus());
        assert_eq!(
            f.open("/nope", OpenFlags::read()).unwrap_err(),
            FsError::NotFound
        );
        let fd = f.open("/nope", OpenFlags::rw().create()).unwrap();
        f.close(fd).unwrap();
        assert!(f.stat("/nope").is_ok());
    }

    #[test]
    fn mkdir_and_nested_files() {
        for f in both() {
            f.mkdir("/d").unwrap();
            f.mkdir("/d/e").unwrap();
            f.write_file("/d/e/f.txt", b"deep").unwrap();
            assert_eq!(f.read_file("/d/e/f.txt").unwrap(), b"deep");
            assert_eq!(f.stat("/d").unwrap().file_type, FileType::Directory);
            assert_eq!(f.stat("/d/e").unwrap().size, 1);
        }
    }

    #[test]
    fn readdir_lists_entries_sorted() {
        let f = fs(Config::arckfs_plus());
        f.mkdir("/dir").unwrap();
        for n in ["c", "a", "b"] {
            f.create(&format!("/dir/{n}")).unwrap();
        }
        let names: Vec<String> = f
            .readdir("/dir")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn unlink_removes() {
        for f in both() {
            f.create("/x").unwrap();
            f.unlink("/x").unwrap();
            assert_eq!(f.stat("/x").unwrap_err(), FsError::NotFound);
            assert_eq!(f.unlink("/x").unwrap_err(), FsError::NotFound);
            // Name and inode are reusable.
            f.create("/x").unwrap();
        }
    }

    #[test]
    fn rmdir_requires_empty() {
        let f = fs(Config::arckfs_plus());
        f.mkdir("/d").unwrap();
        f.create("/d/f").unwrap();
        assert_eq!(f.rmdir("/d").unwrap_err(), FsError::NotEmpty);
        f.unlink("/d/f").unwrap();
        f.rmdir("/d").unwrap();
        assert_eq!(f.stat("/d").unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn unlink_dir_mismatch_errors() {
        let f = fs(Config::arckfs_plus());
        f.mkdir("/d").unwrap();
        f.create("/f").unwrap();
        assert_eq!(f.unlink("/d").unwrap_err(), FsError::IsADirectory);
        assert_eq!(f.rmdir("/f").unwrap_err(), FsError::NotADirectory);
    }

    #[test]
    fn rename_same_dir() {
        for f in both() {
            f.write_file("/old", b"data").unwrap();
            f.rename("/old", "/new").unwrap();
            assert_eq!(f.stat("/old").unwrap_err(), FsError::NotFound);
            assert_eq!(f.read_file("/new").unwrap(), b"data");
        }
    }

    #[test]
    fn rename_cross_dir_file() {
        for f in both() {
            f.mkdir("/a").unwrap();
            f.mkdir("/b").unwrap();
            f.write_file("/a/f", b"move me").unwrap();
            f.rename("/a/f", "/b/g").unwrap();
            assert_eq!(f.read_file("/b/g").unwrap(), b"move me");
            assert_eq!(f.stat("/a/f").unwrap_err(), FsError::NotFound);
            assert_eq!(f.stat("/a").unwrap().size, 0);
            assert_eq!(f.stat("/b").unwrap().size, 1);
        }
    }

    #[test]
    fn rename_into_own_descendant_rejected_when_fixed() {
        let f = fs(Config::arckfs_plus());
        f.mkdir("/a").unwrap();
        f.mkdir("/a/b").unwrap();
        assert_eq!(f.rename("/a", "/a/b/c").unwrap_err(), FsError::WouldCycle);
    }

    #[test]
    fn large_file_through_indirect_blocks() {
        let f = fs(Config::arckfs_plus());
        // 16 direct pages = 64 KiB; write 256 KiB to exercise the single
        // indirect level.
        let data: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
        f.write_file("/big", &data).unwrap();
        assert_eq!(f.read_file("/big").unwrap(), data);
        assert_eq!(f.stat("/big").unwrap().size, 256 * 1024);
    }

    #[test]
    fn sparse_writes_read_zeroes_in_holes() {
        let f = fs(Config::arckfs_plus());
        let fd = f.open("/sparse", OpenFlags::rw().create()).unwrap();
        f.write_at(fd, b"end", 10_000).unwrap();
        let mut buf = vec![0xFFu8; 100];
        let n = f.read_at(fd, &mut buf, 0).unwrap();
        assert_eq!(n, 100);
        assert!(buf.iter().all(|&b| b == 0), "hole must read as zeroes");
        f.close(fd).unwrap();
    }

    #[test]
    fn truncate_shrinks_dwtl_style() {
        let f = fs(Config::arckfs_plus());
        let data = vec![7u8; 64 * 1024];
        f.write_file("/t", &data).unwrap();
        let fd = f.open("/t", OpenFlags::rw()).unwrap();
        // DWTL: reduce the size of a private file by 4K.
        f.truncate(fd, 60 * 1024).unwrap();
        assert_eq!(f.stat("/t").unwrap().size, 60 * 1024);
        f.close(fd).unwrap();
    }

    #[test]
    fn append_returns_offsets() {
        let f = fs(Config::arckfs_plus());
        let fd = f.open("/log", OpenFlags::rw().create()).unwrap();
        assert_eq!(f.append(fd, b"aaa").unwrap(), 0);
        assert_eq!(f.append(fd, b"bb").unwrap(), 3);
        assert_eq!(f.read_file("/log").unwrap(), b"aaabb");
    }

    #[test]
    fn fsync_is_immediate() {
        let f = fs(Config::arckfs_plus());
        let fd = f.create("/s").unwrap();
        f.fsync(fd).unwrap();
    }

    #[test]
    fn bad_descriptor_errors() {
        let f = fs(Config::arckfs_plus());
        let mut buf = [0u8; 4];
        assert_eq!(
            f.read_at(Fd(999), &mut buf, 0).unwrap_err(),
            FsError::BadDescriptor
        );
        assert_eq!(f.close(Fd(999)).unwrap_err(), FsError::BadDescriptor);
    }

    #[test]
    fn access_mode_enforced() {
        let f = fs(Config::arckfs_plus());
        f.write_file("/m", b"x").unwrap();
        let rd = f.open("/m", OpenFlags::read()).unwrap();
        assert_eq!(f.write_at(rd, b"y", 0).unwrap_err(), FsError::BadAccessMode);
        let wr = f.open("/m", OpenFlags::empty().write()).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(
            f.read_at(wr, &mut buf, 0).unwrap_err(),
            FsError::BadAccessMode
        );
    }

    #[test]
    fn many_files_spill_across_log_pages() {
        let f = fs(Config::arckfs_plus());
        f.mkdir("/many").unwrap();
        // 31 dentries per page x 4 tails; 500 files force page chaining.
        for i in 0..500 {
            f.create(&format!("/many/file-{i:04}")).unwrap();
        }
        assert_eq!(f.stat("/many").unwrap().size, 500);
        assert_eq!(f.readdir("/many").unwrap().len(), 500);
        for i in (0..500).step_by(7) {
            f.unlink(&format!("/many/file-{i:04}")).unwrap();
        }
        let remaining = f.readdir("/many").unwrap().len();
        assert_eq!(remaining as u64, f.stat("/many").unwrap().size);
    }

    #[test]
    fn release_and_commit_paths_verify_cleanly() {
        let f = fs(Config::arckfs_plus());
        f.mkdir("/d").unwrap();
        f.create("/d/f").unwrap();
        // Commit the root (registers /d), then commit /d (registers f).
        f.commit_path("/").unwrap();
        f.commit_path("/d").unwrap();
        // Release /d; the kernel verifies it.
        f.release_path("/d").unwrap();
        // Operations after a release transparently re-acquire.
        f.create("/d/g").unwrap();
        assert_eq!(f.readdir("/d").unwrap().len(), 2);
    }

    #[test]
    fn unmount_releases_everything() {
        let (kernel, f) = crate::new_fs(64 << 20, Config::arckfs_plus()).unwrap();
        f.mkdir("/a").unwrap();
        f.mkdir("/a/b").unwrap();
        f.create("/a/b/c").unwrap();
        f.unmount().unwrap();
        let snap = kernel.stats().snapshot();
        assert!(
            snap.verify_failures == 0,
            "clean unmount must verify: {snap:?}"
        );
        // A fresh LibFS sees the whole tree.
        let f2 = LibFs::mount(kernel, Config::arckfs_plus(), 0).unwrap();
        assert_eq!(f2.stat("/a/b/c").unwrap().file_type, FileType::Regular);
    }

    #[test]
    fn concurrent_creates_in_shared_dir() {
        let f = fs(Config::arckfs_plus());
        f.mkdir("/shared").unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let f = f.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        f.create(&format!("/shared/t{t}-{i}")).unwrap();
                    }
                });
            }
        });
        assert_eq!(f.readdir("/shared").unwrap().len(), 200);
        assert_eq!(f.stat("/shared").unwrap().size, 200);
    }

    #[test]
    fn concurrent_private_dirs() {
        let f = fs(Config::arckfs_plus());
        for t in 0..4 {
            f.mkdir(&format!("/p{t}")).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let f = f.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let p = format!("/p{t}/f{i}");
                        f.write_file(&p, b"x").unwrap();
                        assert_eq!(f.read_file(&p).unwrap(), b"x");
                    }
                    for i in 0..50 {
                        f.unlink(&format!("/p{t}/f{i}")).unwrap();
                    }
                });
            }
        });
        for t in 0..4 {
            assert_eq!(f.stat(&format!("/p{t}")).unwrap().size, 0);
        }
    }

    #[test]
    fn long_names_span_cache_lines() {
        let f = fs(Config::arckfs_plus());
        let name = "n".repeat(100);
        let path = format!("/{name}");
        f.write_file(&path, b"long").unwrap();
        assert_eq!(f.read_file(&path).unwrap(), b"long");
        let over = format!("/{}", "x".repeat(DENTRY_NAME_CAP + 1));
        assert!(matches!(
            f.create(&over).unwrap_err(),
            FsError::NameTooLong | FsError::InvalidPath(_)
        ));
    }

    #[test]
    fn at_surface_round_trip() {
        for f in both() {
            f.mkdir("/d").unwrap();
            let dfd = f.open_dir("/d").unwrap();
            let fd = f.open_at(dfd, "file", OpenFlags::rw().create()).unwrap();
            f.write_at(fd, b"payload", 0).unwrap();
            f.close(fd).unwrap();
            assert_eq!(f.stat_at(dfd, "file").unwrap().size, 7);
            assert_eq!(f.read_file("/d/file").unwrap(), b"payload");
            f.mkdir_at(dfd, "sub").unwrap();
            assert_eq!(
                f.stat("/d/sub").unwrap().file_type,
                FileType::Directory
            );
            f.unlink_at(dfd, "file").unwrap();
            assert_eq!(f.stat("/d/file").unwrap_err(), FsError::NotFound);
            f.close(dfd).unwrap();
        }
    }

    #[test]
    fn at_surface_rejects_non_dirs_and_paths() {
        let f = fs(Config::arckfs_plus());
        f.write_file("/plain", b"x").unwrap();
        assert_eq!(f.open_dir("/plain").unwrap_err(), FsError::NotADirectory);
        let root = f.open_dir("/").unwrap();
        assert!(matches!(
            f.open_at(root, "a/b", OpenFlags::read()).unwrap_err(),
            FsError::InvalidPath(_)
        ));
        let ffd = f.open("/plain", OpenFlags::read()).unwrap();
        assert_eq!(
            f.stat_at(ffd, "x").unwrap_err(),
            FsError::NotADirectory,
            "a file fd is not a directory handle"
        );
    }

    #[test]
    fn open_excl_is_atomic_arbiter() {
        let f = fs(Config::arckfs_plus());
        let fd = f.open("/x", OpenFlags::rw().create_new()).unwrap();
        f.close(fd).unwrap();
        assert_eq!(
            f.open("/x", OpenFlags::rw().create_new()).unwrap_err(),
            FsError::AlreadyExists
        );
        // Same semantics through the handle-relative entry point.
        let root = f.open_dir("/").unwrap();
        assert_eq!(
            f.open_at(root, "x", OpenFlags::rw().create_new()).unwrap_err(),
            FsError::AlreadyExists
        );
        let fd = f.open_at(root, "y", OpenFlags::rw().create_new()).unwrap();
        f.close(fd).unwrap();
    }

    #[test]
    fn append_flag_writes_at_eof() {
        let f = fs(Config::arckfs_plus());
        f.write_file("/log", b"abc").unwrap();
        let fd = f.open("/log", OpenFlags::empty().append()).unwrap();
        // The requested offset is ignored under O_APPEND.
        f.write_at(fd, b"def", 0).unwrap();
        f.close(fd).unwrap();
        assert_eq!(f.read_file("/log").unwrap(), b"abcdef");
    }

    #[test]
    fn fstat_matches_stat() {
        let f = fs(Config::arckfs_plus());
        f.write_file("/s", b"12345").unwrap();
        let fd = f.open("/s", OpenFlags::read()).unwrap();
        let by_fd = f.fstat(fd).unwrap();
        let by_path = f.stat("/s").unwrap();
        assert_eq!(by_fd.size, by_path.size);
        assert_eq!(by_fd.ino, by_path.ino);
        f.close(fd).unwrap();
        assert_eq!(f.fstat(fd).unwrap_err(), FsError::BadDescriptor);
    }

    #[test]
    fn dcache_hits_accumulate_and_invalidate() {
        let mut cfg = Config::arckfs_plus();
        cfg.dcache = true;
        let f = fs(cfg);
        f.mkdir("/d").unwrap();
        f.write_file("/d/f", b"x").unwrap();
        f.reset_stats();
        for _ in 0..10 {
            f.stat("/d/f").unwrap();
        }
        let s = f.stats();
        assert!(s.dcache_hits >= 10, "repeat walks must hit: {s:?}");
        // A namespace write under /d invalidates its cached translations.
        f.write_file("/d/g", b"y").unwrap();
        let s = f.stats();
        assert!(s.dcache_invalidations >= 1, "create must invalidate: {s:?}");
        assert_eq!(f.read_file("/d/f").unwrap(), b"x");
    }

    #[test]
    fn dcache_off_never_counts() {
        let mut cfg = Config::arckfs_plus();
        cfg.dcache = false;
        let f = fs(cfg);
        f.mkdir("/d").unwrap();
        f.write_file("/d/f", b"x").unwrap();
        for _ in 0..10 {
            f.stat("/d/f").unwrap();
        }
        let s = f.stats();
        assert_eq!(s.dcache_hits, 0);
        assert_eq!(s.dcache_misses, 0);
    }
}
