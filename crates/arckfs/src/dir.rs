//! Directory operations: the NVM multi-tailed dentry log (core state) and
//! the DRAM hash index (auxiliary state).
//!
//! This module contains three of the paper's bug sites:
//!
//! * **§4.2** — `LibFs::write_dentry_core`: the artifact's single-flush
//!   optimization skips flushing the commit marker's cache line while
//!   persisting the payload, and the buggy variant omits the fence that
//!   orders the payload flushes before the marker store.
//! * **§4.4** — `LibFs::dir_insert`: the buggy variant updates the
//!   auxiliary index *before* and *outside* the critical section that
//!   writes the core-state dentry, so a concurrent reader can follow the
//!   index into core data that does not exist yet.
//! * **§4.5** — `LibFs::dir_lookup` / `LibFs::dir_remove`: the buggy
//!   variant lets readers traverse bucket entries without RCU protection
//!   while a writer frees them immediately.
//!
//! Schedule points (see [`crate::inject`]) mark each racy window.

use std::sync::atomic::Ordering;

use pmem::{MapError, Mapping, PAGE_SIZE};
use trio::format::{
    DENTRIES_PER_PAGE, DENTRY_NAME_CAP, DENTRY_SIZE, DIRPAGE_FIRST_DENTRY, DP_NEXT, D_DELETED,
    D_INO, D_MARKER, D_NAME, D_SEQ, I_DIRECT, I_SIZE,
};
use vfs::{FaultKind, FsError, FsResult};

use crate::inode::{DentryMeta, DirState, InodeState, MemInode};
use crate::libfs::LibFs;

/// A successful index lookup: the target inode and the core-state dentry
/// offset, copied out without cloning the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LookupHit {
    /// Target inode number.
    pub ino: u64,
    /// Absolute device offset of the dentry record.
    pub log_off: u64,
}

/// Convert a mapping error into the file-system error it models: a stale
/// mapping is the §4.3 bus error; anything else is an internal bug.
pub(crate) fn map_fault(e: MapError) -> FsError {
    match e {
        MapError::Stale { offset, .. } => FsError::Fault(FaultKind::BusError {
            offset,
            detail: "access through an unmapped inode mapping (released inode)".into(),
        }),
        other => FsError::Internal(other.to_string()),
    }
}

fn uaf_fault(e: rcu::UafError) -> FsError {
    FsError::Fault(FaultKind::UseAfterFree {
        slot: e.slot,
        detail: format!(
            "directory bucket entry freed during traversal (gen {} vs {})",
            e.expected_gen, e.found_gen
        ),
    })
}

impl LibFs {
    /// Reserve one dentry slot in the directory's log, growing the chosen
    /// tail with a fresh page if needed. Returns the absolute device offset
    /// of the slot. The slot's marker stays 0 (a hole) until
    /// [`LibFs::write_dentry_core`] commits it.
    pub(crate) fn reserve_dentry_slot(&self, dir: &MemInode, mapping: &Mapping) -> FsResult<u64> {
        let ds = dir.dir_state().ok_or(FsError::NotADirectory)?;
        // Prefer reusing a tombstoned slot: invalidate its commit marker
        // first (persisted), exactly the paper's step (1), then the caller
        // rewrites it.
        if let Some(off) = ds.free_slots.lock().pop() {
            mapping.write_u16(off + D_MARKER, 0).map_err(map_fault)?;
            mapping.clwb(off, 2).map_err(map_fault)?;
            mapping.sfence();
            return Ok(off);
        }
        let t = ds.pick_tail();
        self.count_lock();
        let mut tail = ds.tails[t].lock();
        if tail.cur_page == 0 || tail.next_slot >= DENTRIES_PER_PAGE {
            // Grow the tail: allocate, zero, persist, then link. The page
            // must read as all-holes before it becomes reachable.
            let page = self.alloc_page()?;
            let page_off = page * PAGE_SIZE as u64;
            let zeroes = [0u8; 1024];
            for i in 0..4 {
                mapping
                    .write(page_off + i * 1024, &zeroes)
                    .map_err(map_fault)?;
            }
            mapping.clwb(page_off, PAGE_SIZE).map_err(map_fault)?;
            mapping.sfence();

            // Publishing the link updates shared structure: the index-tail
            // lock serializes growth (§2.2's third lock type).
            self.count_lock();
            let _g = ds.index_tail_lock.lock();
            if tail.cur_page == 0 {
                // First page of this tail: publish the head in the inode.
                let head_field = self.geom.inode_offset(dir.ino) + I_DIRECT + 8 * t as u64;
                mapping.write_u64(head_field, page).map_err(map_fault)?;
                mapping.clwb(head_field, 8).map_err(map_fault)?;
                mapping.sfence();
                tail.head_page = page;
            } else {
                let link = tail.cur_page * PAGE_SIZE as u64 + DP_NEXT;
                mapping.write_u64(link, page).map_err(map_fault)?;
                mapping.clwb(link, 8).map_err(map_fault)?;
                mapping.sfence();
            }
            tail.cur_page = page;
            tail.next_slot = 0;
        }
        let off =
            tail.cur_page * PAGE_SIZE as u64 + DIRPAGE_FIRST_DENTRY + tail.next_slot * DENTRY_SIZE;
        tail.next_slot += 1;
        Ok(off)
    }

    /// Write and commit one dentry record at `off` — the §4.2 protocol.
    ///
    /// Step (1) persists the payload but — the artifact's optimization —
    /// skips flushing the cache line that contains the commit marker, so
    /// that line is flushed only once, in step (2). The ArckFS+ patch is
    /// the single `sfence` between the steps; without it the marker line
    /// can reach PM before the payload lines, leaving a valid-looking but
    /// partially persisted dentry after a crash.
    pub(crate) fn write_dentry_core(
        &self,
        mapping: &Mapping,
        off: u64,
        name: &str,
        ino: u64,
        seq: u64,
    ) -> FsResult<()> {
        debug_assert!(name.len() <= DENTRY_NAME_CAP);
        // Step (1): payload stores. A reused slot may still carry its
        // tombstone, so the deleted byte is rewritten too.
        mapping.write(off + D_DELETED, &[0]).map_err(map_fault)?;
        mapping.write_u64(off + D_INO, ino).map_err(map_fault)?;
        mapping.write_u64(off + D_SEQ, seq).map_err(map_fault)?;
        mapping
            .write(off + D_NAME, name.as_bytes())
            .map_err(map_fault)?;
        // Flush the payload, skipping the marker's (first) cache line.
        let payload_end = D_NAME as usize + name.len();
        if payload_end > 64 {
            mapping
                .clwb(off + 64, payload_end - 64)
                .map_err(map_fault)?;
        }
        if self.config.fix_fence {
            // THE §4.2 PATCH: order every payload flush (including the
            // child inode's, issued by the caller) before the marker store.
            mapping.sfence();
        }
        // Step (2): the commit marker, then the single flush of its line.
        mapping
            .write_u16(off + D_MARKER, name.len() as u16)
            .map_err(map_fault)?;
        mapping.clwb(off, 64).map_err(map_fault)?;
        // The paper's §4.2 reproduction point: "we insert a flush of the
        // cache line containing the commit marker, followed by a sleep
        // immediately after updating the commit marker" — i.e. right here,
        // before the final fence. The crash checker samples crash states
        // while a thread is parked at this point.
        self.point("dentry.marker_flushed");
        mapping.sfence();
        Ok(())
    }

    /// Tombstone the dentry at `off` and persist the tombstone.
    pub(crate) fn tombstone_dentry_core(&self, mapping: &Mapping, off: u64) -> FsResult<()> {
        mapping.write(off + D_DELETED, &[1]).map_err(map_fault)?;
        mapping.clwb(off + D_DELETED, 1).map_err(map_fault)?;
        mapping.sfence();
        Ok(())
    }

    /// Update (and persist) the directory's live-entry count in its PM
    /// inode, mirroring it into the DRAM cache.
    pub(crate) fn persist_dir_size(
        &self,
        dir: &MemInode,
        mapping: &Mapping,
        delta: i64,
    ) -> FsResult<()> {
        self.count_lock();
        let _g = dir.meta.lock();
        let old = dir.cached_size.load(Ordering::SeqCst);
        let new = if delta >= 0 {
            old + delta as u64
        } else {
            old.saturating_sub((-delta) as u64)
        };
        let field = self.geom.inode_offset(dir.ino) + I_SIZE;
        mapping.write_u64(field, new).map_err(map_fault)?;
        mapping.clwb(field, 8).map_err(map_fault)?;
        // No fence: the count rides to PM with the next operation's fence.
        // A crash can leave it one behind the log, which recovery (and
        // fsck) treats as benign residue and recomputes.
        dir.cached_size.store(new, Ordering::SeqCst);
        if let Some(ds) = dir.dir_state() {
            ds.live.store(new, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Look up `name` in the directory's auxiliary index.
    ///
    /// The candidate refs are collected under the bucket lock, but the
    /// entries are *dereferenced outside it* — that unlocked traversal is
    /// the reader side of §4.5. With the patch, the whole lookup runs
    /// inside an RCU read-side critical section, so a concurrent remove
    /// defers its free past this function.
    pub(crate) fn dir_lookup(&self, dir: &MemInode, name: &str) -> FsResult<Option<LookupHit>> {
        let ds = dir.dir_state().ok_or(FsError::NotADirectory)?;
        let _guard = self
            .config
            .fix_dir_bucket_rcu
            .then(|| self.rcu.read_guard());
        let h = DirState::name_hash(name);
        let refs: Vec<rcu::ArenaRef> = {
            let arr = ds.buckets.read();
            let idx = (h as usize) % arr.len();
            self.count_lock();
            let b = arr[idx].lock();
            b.iter()
                .filter(|(hash, _)| *hash == h)
                .map(|(_, r)| *r)
                .collect()
        };
        self.point("dir.bucket.traverse");
        for r in refs {
            let hit = ds.arena.read(r, |m| {
                (m.name == name).then_some(LookupHit {
                    ino: m.ino,
                    log_off: m.log_off,
                })
            });
            match hit {
                Ok(Some(h)) => return Ok(Some(h)),
                Ok(None) => {}
                Err(e) => return Err(uaf_fault(e)),
            }
        }
        Ok(None)
    }

    /// Insert a new entry `name → child` into the directory: core-state
    /// dentry append plus auxiliary-index insert.
    ///
    /// `init_child` runs inside the §4.2 persistence window (its stores are
    /// part of the payload that the patch's fence orders before the
    /// marker); `create` passes the child-inode initialization here.
    ///
    /// With the §4.4 patch, the bucket lock covers *both* state updates;
    /// without it, the index is updated first and the core write happens
    /// outside the critical section (the paper's observed interleaving).
    pub(crate) fn dir_insert(
        &self,
        dir: &MemInode,
        name: &str,
        child: u64,
        init_child: impl FnOnce(&Self) -> FsResult<()>,
    ) -> FsResult<()> {
        if name.len() > DENTRY_NAME_CAP {
            return Err(FsError::NameTooLong);
        }
        let ds = dir.dir_state().ok_or(FsError::NotADirectory)?;
        let mapping = dir.mapping_handle();
        let h = DirState::name_hash(name);
        let dup_check = |b: &Vec<(u64, rcu::ArenaRef)>| -> FsResult<()> {
            for (hash, r) in b.iter() {
                if *hash != h {
                    continue;
                }
                let dup = ds.arena.read(*r, |m| m.name == name).map_err(uaf_fault)?;
                if dup {
                    return Err(FsError::AlreadyExists);
                }
            }
            Ok(())
        };

        if self.config.fix_state_sync {
            // §4.4 PATCH: one critical section covers the duplicate check,
            // the core-state write, and the index insert.
            let arr = ds.buckets.read();
            let idx = (h as usize) % arr.len();
            self.count_lock();
            let mut b = arr[idx].lock();
            // §4.3: a voluntary release may have landed between path
            // resolution and this critical section. The release quiesce
            // takes the bucket table exclusively, so checking here — under
            // the table read guard — is race-free: if the inode is still
            // acquired it cannot be unmapped until this section ends.
            if self.config.fix_release_sync && dir.state() != InodeState::Acquired {
                return Err(FsError::Released { ino: dir.ino });
            }
            // Re-clone the mapping after the state check: a release +
            // re-acquire in the resolution window swaps the mapping, so
            // the pre-section handle could be stale even though the inode
            // is (again) acquired.
            let mapping = dir.mapping_handle();
            dup_check(&b)?;
            let seq = dir.next_seq();
            let off = self.reserve_dentry_slot(dir, &mapping)?;
            init_child(self)?;
            self.point("dir.insert.core_write");
            self.write_dentry_core(&mapping, off, name, child, seq)?;
            let r = ds.arena.insert(DentryMeta {
                name: name.to_string(),
                ino: child,
                log_off: off,
            });
            b.push((h, r));
            // §4.4 patch: the size update is core state too — it stays
            // inside the critical section so a concurrent §4.3 release
            // (which quiesces this table exclusively) never observes a
            // half-done create.
            self.persist_dir_size(dir, &mapping, 1)?;
            self.dcache_invalidate(dir);
            let grow = ds.live.load(Ordering::SeqCst) > (arr.len() as u64) * DirState::RESIZE_LOAD;
            drop(b);
            drop(arr);
            if grow {
                ds.resize();
            }
            return Ok(());
        } else {
            // BUG §4.4: auxiliary state first, core state second, and the
            // core write happens outside the bucket critical section.
            let seq = dir.next_seq();
            let off;
            let grow;
            {
                let arr = ds.buckets.read();
                let idx = (h as usize) % arr.len();
                self.count_lock();
                let mut b = arr[idx].lock();
                dup_check(&b)?;
                off = self.reserve_dentry_slot(dir, &mapping)?;
                let r = ds.arena.insert(DentryMeta {
                    name: name.to_string(),
                    ino: child,
                    log_off: off,
                });
                b.push((h, r));
                self.dcache_invalidate(dir);
                grow = ds.live.load(Ordering::SeqCst) > (arr.len() as u64) * DirState::RESIZE_LOAD;
            }
            if grow {
                ds.resize();
            }
            // The window: the index names a dentry whose core bytes do not
            // exist yet (the paper inserts its sleep() here).
            self.point("dir.insert.between_states");
            init_child(self)?;
            self.point("dir.insert.core_write");
            self.write_dentry_core(&mapping, off, name, child, seq)?;
        }
        self.persist_dir_size(dir, &mapping, 1)?;
        Ok(())
    }

    /// Remove `name` from the directory: tombstone the core dentry and free
    /// the index entry. Returns the removed entry's metadata.
    ///
    /// With the patches, the whole removal runs inside the bucket critical
    /// section and the index entry is freed through RCU. Without them, the
    /// entry is freed immediately (§4.5) and the core access happens outside
    /// the lock — where it can find core data that a racing `create` has
    /// not written yet (§4.4's observed segfault, surfaced here as
    /// [`FaultKind::DanglingCoreRef`]).
    pub(crate) fn dir_remove(&self, dir: &MemInode, name: &str) -> FsResult<DentryMeta> {
        self.dir_remove_validated(dir, name, |_| Ok(()))
    }

    /// [`LibFs::dir_remove`] with a caller-supplied validation step.
    ///
    /// In the patched (§4.4) mode, `validate` runs *inside* the bucket
    /// critical section, after the entry is found and before anything is
    /// mutated — so checks against the target inode's core state (type,
    /// emptiness, commit marker) are atomic with the removal. Checking
    /// outside the section is racy: a concurrent remove of the same name
    /// can complete — clearing the target's core state and recycling its
    /// inode — between this thread's lookup and its checks, misreporting a
    /// benign lost race as a core-state fault. In the unpatched mode the
    /// closure is not used; buggy callers keep their checks outside the
    /// lock, which is the bug.
    pub(crate) fn dir_remove_validated(
        &self,
        dir: &MemInode,
        name: &str,
        validate: impl FnOnce(&DentryMeta) -> FsResult<()>,
    ) -> FsResult<DentryMeta> {
        let ds = dir.dir_state().ok_or(FsError::NotADirectory)?;
        let mapping = dir.mapping_handle();
        let h = DirState::name_hash(name);
        let find = |b: &Vec<(u64, rcu::ArenaRef)>| -> FsResult<Option<(usize, DentryMeta)>> {
            for (i, (hash, r)) in b.iter().enumerate() {
                if *hash != h {
                    continue;
                }
                let meta = ds
                    .arena
                    .read(*r, |m| (m.name == name).then(|| m.clone()))
                    .map_err(uaf_fault)?;
                if let Some(m) = meta {
                    return Ok(Some((i, m)));
                }
            }
            Ok(None)
        };

        if self.config.fix_state_sync {
            let arr = ds.buckets.read();
            let slot = (h as usize) % arr.len();
            self.count_lock();
            let mut b = arr[slot].lock();
            // §4.3 state check + fresh mapping, as in `dir_insert`.
            if self.config.fix_release_sync && dir.state() != InodeState::Acquired {
                return Err(FsError::Released { ino: dir.ino });
            }
            let mapping = dir.mapping_handle();
            let (idx, meta) = find(&b)?.ok_or(FsError::NotFound)?;
            // Caller checks, atomic with the removal (see above). Nothing
            // has been mutated yet, so an error here is a clean abort.
            validate(&meta)?;
            // Core first, still inside the critical section (§4.4 patch).
            self.tombstone_dentry_core(&mapping, meta.log_off)?;
            ds.free_slots.lock().push(meta.log_off);
            let (_, r) = b.remove(idx);
            if self.config.fix_dir_bucket_rcu {
                // §4.5 PATCH: defer the free past the grace period.
                ds.arena.free_deferred(r, &self.rcu);
            } else {
                let _ = ds.arena.free(r);
            }
            // As in dir_insert: the size update stays inside the section.
            self.persist_dir_size(dir, &mapping, -1)?;
            self.dcache_invalidate(dir);
            Ok(meta)
        } else {
            // BUGGY path: find and free under the lock, touch core outside.
            let meta = {
                let arr = ds.buckets.read();
                let slot = (h as usize) % arr.len();
                self.count_lock();
                let mut b = arr[slot].lock();
                let (idx, meta) = find(&b)?.ok_or(FsError::NotFound)?;
                let (_, r) = b.remove(idx);
                if self.config.fix_dir_bucket_rcu {
                    ds.arena.free_deferred(r, &self.rcu);
                } else {
                    // BUG §4.5: immediate free while readers may hold refs.
                    let _ = ds.arena.free(r);
                }
                self.dcache_invalidate(dir);
                meta
            };
            self.point("dir.remove.core_access");
            // BUG §4.4 manifestation: the core dentry this index entry
            // points at may not have been written yet by a racing create.
            let marker = mapping
                .read_u16(meta.log_off + D_MARKER)
                .map_err(map_fault)?;
            if marker == 0 {
                return Err(FsError::Fault(FaultKind::DanglingCoreRef {
                    offset: meta.log_off,
                    detail: format!(
                        "index entry '{name}' points at core dentry that was never written \
                         (racing create updated only the auxiliary state)"
                    ),
                }));
            }
            self.tombstone_dentry_core(&mapping, meta.log_off)?;
            ds.free_slots.lock().push(meta.log_off);
            self.persist_dir_size(dir, &mapping, -1)?;
            Ok(meta)
        }
    }

    /// Enumerate the directory's live entries (readdir).
    ///
    /// Same reader-side discipline as [`LibFs::dir_lookup`]: refs are
    /// collected under each bucket lock, dereferenced outside — the §4.5
    /// reader — with RCU protection when patched. This read-side critical
    /// section is the cost behind the paper's MRDL drop (Table 2).
    pub(crate) fn dir_iterate(&self, dir: &MemInode) -> FsResult<Vec<DentryMeta>> {
        let ds = dir.dir_state().ok_or(FsError::NotADirectory)?;
        let _guard = self
            .config
            .fix_dir_bucket_rcu
            .then(|| self.rcu.read_guard());
        let mut refs = Vec::new();
        {
            let arr = ds.buckets.read();
            for b in arr.iter() {
                self.count_lock();
                refs.extend(b.lock().iter().map(|(_, r)| *r));
            }
        }
        self.point("dir.readdir.traverse");
        let mut out = Vec::with_capacity(refs.len());
        for r in refs {
            match ds.arena.read(r, |m| m.clone()) {
                Ok(m) => out.push(m),
                Err(e) => return Err(uaf_fault(e)),
            }
        }
        Ok(out)
    }

    /// Rename an entry within one directory: commit the new name, then
    /// tombstone the old (so a crash shows at least one of them; the seq
    /// field orders them for recovery).
    pub(crate) fn dir_rename_local(
        &self,
        dir: &MemInode,
        old_name: &str,
        new_name: &str,
    ) -> FsResult<()> {
        if self.config.fix_state_sync {
            // PATCHED: both names' bucket critical sections are entered
            // together (ordered by bucket index), making the insert of the
            // new name and the removal of the old one one atomic step. The
            // unpatched compose below loses a race against a concurrent
            // `unlink`/`rename` of the old name: its insert survives while
            // its remove misses, leaving an auxiliary entry for an inode
            // the other thread then frees — the §4.4 dangling-core-
            // reference crash, one level up.
            if new_name.len() > DENTRY_NAME_CAP {
                return Err(FsError::NameTooLong);
            }
            let ds = dir.dir_state().ok_or(FsError::NotADirectory)?;
            let h_old = DirState::name_hash(old_name);
            let h_new = DirState::name_hash(new_name);
            let arr = ds.buckets.read();
            let i_old = (h_old as usize) % arr.len();
            let i_new = (h_new as usize) % arr.len();
            if i_old == i_new {
                self.count_lock();
                let mut b = arr[i_old].lock();
                self.rename_in_buckets(dir, ds, &mut b, None, (old_name, h_old), (new_name, h_new))
            } else {
                let (lo, hi) = (i_old.min(i_new), i_old.max(i_new));
                self.count_lock();
                let mut g_lo = arr[lo].lock();
                self.count_lock();
                let mut g_hi = arr[hi].lock();
                let (b_old, b_new) = if i_old < i_new {
                    (&mut *g_lo, &mut *g_hi)
                } else {
                    (&mut *g_hi, &mut *g_lo)
                };
                self.rename_in_buckets(dir, ds, b_old, Some(b_new), (old_name, h_old), (new_name, h_new))
            }
        } else {
            // BUGGY compose: two independent critical sections; the window
            // between them is the orphan-entry race described above.
            let meta = self.dir_lookup(dir, old_name)?.ok_or(FsError::NotFound)?;
            if self.dir_lookup(dir, new_name)?.is_some() {
                return Err(FsError::AlreadyExists);
            }
            self.dir_insert(dir, new_name, meta.ino, |_| Ok(()))?;
            self.dir_remove(dir, old_name)?;
            Ok(())
        }
    }

    /// The body of the atomic same-directory rename, with both bucket
    /// locks (or the one shared lock, `b_new = None`) already held.
    #[allow(clippy::too_many_arguments)]
    fn rename_in_buckets(
        &self,
        dir: &MemInode,
        ds: &DirState,
        b_old: &mut Vec<(u64, rcu::ArenaRef)>,
        b_new: Option<&mut Vec<(u64, rcu::ArenaRef)>>,
        (old_name, h_old): (&str, u64),
        (new_name, h_new): (&str, u64),
    ) -> FsResult<()> {
        // §4.3 state check + fresh mapping, as in `dir_insert`.
        if self.config.fix_release_sync && dir.state() != InodeState::Acquired {
            return Err(FsError::Released { ino: dir.ino });
        }
        let mapping = dir.mapping_handle();
        let mut found = None;
        for (i, (hash, r)) in b_old.iter().enumerate() {
            if *hash != h_old {
                continue;
            }
            let m = ds
                .arena
                .read(*r, |m| (m.name == old_name).then(|| m.clone()))
                .map_err(uaf_fault)?;
            if let Some(m) = m {
                found = Some((i, m));
                break;
            }
        }
        let (idx_old, meta) = found.ok_or(FsError::NotFound)?;
        {
            let bn: &Vec<(u64, rcu::ArenaRef)> = match b_new.as_deref() {
                Some(b) => b,
                None => b_old,
            };
            for (hash, r) in bn.iter() {
                if *hash != h_new {
                    continue;
                }
                if ds.arena.read(*r, |m| m.name == new_name).map_err(uaf_fault)? {
                    return Err(FsError::AlreadyExists);
                }
            }
        }
        // Core state: commit the new dentry with the full §4.2 protocol,
        // then tombstone the old one. A crash between the two leaves both
        // names pointing at the inode; every reader's name resolution
        // keeps the newer record (`trio::format::DirResolver`), so the
        // rename recovers as done, and the next rebuild tombstones the
        // old name.
        let seq = dir.next_seq();
        let off = self.reserve_dentry_slot(dir, &mapping)?;
        self.write_dentry_core(&mapping, off, new_name, meta.ino, seq)?;
        self.tombstone_dentry_core(&mapping, meta.log_off)?;
        ds.free_slots.lock().push(meta.log_off);
        // Auxiliary state: append the new entry, then drop the old one.
        // Appending cannot shift `idx_old`, so the index stays valid even
        // when both names share a bucket.
        let r_new = ds.arena.insert(DentryMeta {
            name: new_name.to_string(),
            ino: meta.ino,
            log_off: off,
        });
        match b_new {
            Some(b) => b.push((h_new, r_new)),
            None => b_old.push((h_new, r_new)),
        }
        let (_, r_old) = b_old.remove(idx_old);
        if self.config.fix_dir_bucket_rcu {
            ds.arena.free_deferred(r_old, &self.rcu);
        } else {
            let _ = ds.arena.free(r_old);
        }
        self.dcache_invalidate(dir);
        // Live-entry count is unchanged (+1 −1), so no size update.
        Ok(())
    }
}
