//! Group durability: the fence-coalescing batch commit layer (DESIGN.md §8).
//!
//! With [`crate::Config::batch_active`], metadata operations
//! (create/unlink/rename/mkdir) no longer fence inline. Instead each
//! directory keeps a **commit batch**: the first batched operation *opens*
//! it by persisting a sequence watermark into the directory inode's
//! `batch_seq` field (one fence), every member writes and `clwb`s its log
//! record as usual but skips its own fences, and the batch *closes* with a
//! single fence pair — one `sfence` to make every member durable at once,
//! then a watermark clear plus a second `sfence` as the commit point.
//!
//! The crash argument hinges on the watermark: a member's record carries a
//! sequence number strictly above the watermark the open persisted *before*
//! any member store could appear in a crash image. Recovery (LibFS scan,
//! kernel recovery walk, `trio::fsck`) treats every record above a nonzero
//! watermark as residue and discards it, so a crash anywhere inside the
//! batch window rolls the directory back to the batch-open point — a
//! whole-prefix state of the operation sequence, and therefore a state the
//! inline configuration can also crash into. A crash after the watermark
//! clear is durable exposes every member. No interleaved partial states
//! exist, which `tests/batch_crash.rs` checks differentially.
//!
//! Deferred side effects (tombstoning a record superseded by a batched
//! rename/unlink, tearing down an unlinked inode) run as *post actions*
//! after the close fence — they must not become durable before the records
//! they supersede are committed. Log slots they stage for reuse ride the
//! *next* close's first fence before re-entering the allocator.
//!
//! Lock order: a member joins under its directory bucket mutex (batch
//! mutex last); a standalone closer takes the directory's bucket *table*
//! exclusively first — draining every in-flight member critical section so
//! no half-written record can be committed — then the batch mutex. The
//! §4.3 release quiesce (which already holds the table exclusively) closes
//! the directory's batch before invalidating the mapping, so a closer that
//! wins the batch mutex always sees a valid mapping, and one that loses
//! finds the batch already closed (`open_seq == 0`) and backs off.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::sync::Mutex;
use pmem::Mapping;
use trio::format::I_BATCH_SEQ;
use vfs::FsResult;

use crate::dir::map_fault;
use crate::inode::MemInode;
use crate::libfs::LibFs;

/// Deferred side effect of a batched operation, run when its batch closes
/// (after the commit fence). Returns the dentry-log slot offsets it staged
/// for reuse; they become allocatable once the *next* close has fenced the
/// tombstone flushes this action issued.
pub(crate) type PostAction = Box<dyn FnOnce(&LibFs, &MemInode) -> Vec<u64> + Send>;

/// Mutable state of one directory's commit batch.
#[derive(Default)]
pub(crate) struct DirBatch {
    /// Watermark persisted at batch open: the last sequence number issued
    /// before the first member, so member records are exactly those with
    /// `seq > open_seq`. 0 = quiescent (no batch open).
    pub(crate) open_seq: u64,
    /// Member operations joined so far.
    pub(crate) ops: usize,
    /// Log bytes charged by members so far.
    pub(crate) bytes: usize,
    /// Post actions registered by members, in join order.
    pub(crate) post: Vec<PostAction>,
    /// Slots staged by the previous close's post actions, waiting for this
    /// close's first fence before they may be reused.
    pub(crate) reclaim: Vec<u64>,
}

/// Per-directory batch cell: the batch state plus a lock-free "is a batch
/// open" probe so quiescent read paths never touch the mutex.
#[derive(Default)]
pub struct BatchCell {
    /// The batch, behind its own mutex (taken *after* any bucket mutex).
    pub(crate) state: Mutex<DirBatch>,
    /// Mirror of `state.open_seq != 0`, maintained under the mutex.
    open: AtomicBool,
}

impl BatchCell {
    /// Lock-free probe: is a batch open right now? May be stale by the
    /// time the caller acts on it; callers re-check `open_seq` under the
    /// mutex before doing anything irreversible.
    #[inline]
    pub fn is_open(&self) -> bool {
        self.open.load(Ordering::Acquire)
    }
}

impl LibFs {
    /// Join `dir`'s open batch — opening one if quiescent — charging one
    /// member operation of `bytes` log bytes and optionally registering a
    /// deferred `post` action.
    ///
    /// Must be called inside the directory's bucket critical section and
    /// **before** the member draws its sequence number, so every member
    /// seq is strictly above the watermark (`MemInode::next_seq` is
    /// monotonic and the open happens-before the join returns).
    pub(crate) fn batch_join(
        &self,
        dir: &MemInode,
        mapping: &Mapping,
        bytes: usize,
        post: Option<PostAction>,
    ) -> FsResult<()> {
        let ds = dir.dir_state().expect("batch_join on a non-directory");
        let mut b = ds.batch.state.lock();
        if b.open_seq == 0 {
            // Open: the watermark must be durable before any member store
            // can appear in a crash image, otherwise a torn member could
            // masquerade as committed. One fence buys gating for the whole
            // batch.
            let cur = dir.seq.load(Ordering::Relaxed);
            let s0 = if cur == 0 { dir.next_seq() } else { cur };
            let field = self.geom.inode_offset(dir.ino) + I_BATCH_SEQ;
            mapping.write_u64(field, s0).map_err(map_fault)?;
            mapping.clwb(field, 8).map_err(map_fault)?;
            mapping.sfence();
            b.open_seq = s0;
            ds.batch.open.store(true, Ordering::Release);
        }
        b.ops += 1;
        b.bytes += bytes;
        if let Some(p) = post {
            b.post.push(p);
        }
        self.kernel.device().stats().count_batched_op();
        Ok(())
    }

    /// Register a deferred action with `dir`'s open batch. Returns `false`
    /// when no batch is open — the caller must then apply the effect
    /// inline (the prior batch's close already made the records the action
    /// depends on durable).
    pub(crate) fn batch_push_post(&self, dir: &MemInode, post: PostAction) -> bool {
        let Some(ds) = dir.dir_state() else {
            return false;
        };
        let mut b = ds.batch.state.lock();
        if b.open_seq == 0 {
            return false;
        }
        b.post.push(post);
        true
    }

    /// Close `dir`'s batch if it has reached an op-count or byte
    /// threshold. Called after a member's bucket critical section has
    /// exited.
    pub(crate) fn maybe_close_batch(&self, dir: &MemInode) {
        let Some(ds) = dir.dir_state() else { return };
        if !ds.batch.is_open() {
            return;
        }
        // Quiesce in-flight members before fencing: a member writes its
        // record under a bucket mutex held beneath the table read guard,
        // so taking the table exclusively drains every half-written
        // record before the close can commit it.
        let _bw = ds.buckets.write();
        let mut b = ds.batch.state.lock();
        if b.open_seq != 0
            && (b.ops >= self.config.batch_ops || b.bytes >= self.config.batch_bytes)
        {
            self.close_batch_locked(dir, &mut b);
        }
    }

    /// Close `dir`'s batch if one is open (visibility barrier or explicit
    /// flush). Safe to call with no other locks held.
    pub(crate) fn close_batch_if_open(&self, dir: &MemInode) {
        let Some(ds) = dir.dir_state() else { return };
        if !ds.batch.is_open() {
            return;
        }
        let _bw = ds.buckets.write();
        let mut b = ds.batch.state.lock();
        if b.open_seq != 0 {
            self.close_batch_locked(dir, &mut b);
        }
    }

    /// [`LibFs::close_batch_if_open`] for the §4.3 release quiesce, which
    /// already holds the directory's bucket table exclusively.
    pub(crate) fn close_batch_quiesced(&self, dir: &MemInode) {
        let Some(ds) = dir.dir_state() else { return };
        let mut b = ds.batch.state.lock();
        if b.open_seq != 0 {
            self.close_batch_locked(dir, &mut b);
        }
    }

    /// The close protocol, batch mutex held and `open_seq != 0`.
    fn close_batch_locked(&self, dir: &MemInode, b: &mut crate::batch::DirBatch) {
        debug_assert!(b.open_seq != 0, "closing a quiescent batch");
        let mapping = dir.mapping_handle();
        self.point("batch.close.pre_fence");
        // Fence #1: every member store (all clwb'd at write time) and the
        // previous close's deferred tombstone flushes drain together.
        mapping.sfence();
        // Slots the previous close staged are now safe to hand back.
        if !b.reclaim.is_empty() {
            if let Some(ds) = dir.dir_state() {
                ds.free_slots.lock().append(&mut b.reclaim);
            }
        }
        // Clear the watermark and fence: the commit point of every member.
        let field = self.geom.inode_offset(dir.ino) + I_BATCH_SEQ;
        if mapping.write_u64(field, 0).is_ok() {
            let _ = mapping.clwb(field, 8);
        }
        mapping.sfence();
        self.point("batch.close.post_fence");
        self.kernel.device().stats().count_batch_close();
        b.open_seq = 0;
        b.ops = 0;
        b.bytes = 0;
        if let Some(ds) = dir.dir_state() {
            ds.batch.open.store(false, Ordering::Release);
        }
        // Post actions run outside the commit window; whatever slots they
        // stage wait for the next close's fence.
        let post = std::mem::take(&mut b.post);
        for p in post {
            let staged = p(self, dir);
            b.reclaim.extend(staged);
        }
    }

    /// Close every open batch in this LibFS — the global visibility
    /// barriers: fsync, unmount, delegation submit, explicit flush.
    pub(crate) fn flush_all_batches(&self) {
        if !self.config.batch_active() {
            return;
        }
        // Collect targets under the map lock, close outside it: the close
        // path takes the batch mutex and may run post actions that touch
        // the inode map themselves.
        let dirs: Vec<_> = self
            .inodes
            .read()
            .values()
            .filter(|mi| mi.dir_state().is_some_and(|d| d.batch.is_open()))
            .cloned()
            .collect();
        for d in dirs {
            self.close_batch_if_open(&d);
        }
    }

    /// Explicitly close every open commit batch, making all batched
    /// metadata operations durable. The public durability barrier for the
    /// group-durability layer; a no-op when batching is inactive.
    pub fn flush_batch(&self) {
        self.flush_all_batches();
    }
}
