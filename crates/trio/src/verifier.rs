//! The integrity verifier (Figure 1 ⑥–⑧).
//!
//! When an inode's ownership leaves a LibFS (release, commit, or a
//! trust-group boundary), the verifier inspects the inode's core state and
//! compares it against the kernel's ground truth:
//!
//! **Structural checks** — the commit marker matches the inode number, the
//! type tag is well-formed, page pointers stay inside the data region and
//! are allocated, dentries are well-formed (no NUL inside the name — the
//! §4.2 partial-persistence signature — no duplicates, committed targets).
//!
//! **Invariant I3** (the hierarchy forms a connected tree) — a child present
//! at acquire time may disappear only if (a) it was deleted and its whole
//! verified subtree is gone, or (b) — with the §4.1 patch — its shadow
//! parent pointer shows it was *renamed* into a directory that has since
//! been verified. A new inode is only connected when a verified parent
//! references it, which yields LibFS Rule (1); the relocation checks below
//! yield Rules (2) and (3).
//!
//! **Relocation checks (§4.1 patch)** — a child arriving from another
//! directory requires: the LibFS still owns the old parent; for directories,
//! the new parent is not a descendant of the child (no cycles, §4.6 case 2)
//! and the global rename lease is held (§4.6 case 1).
//!
//! On failure the controller rolls the inode back to its acquire-time
//! snapshot (§2.1 step ⑧, the "roll back" policy).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use pmem::{PmemDevice, PAGE_SIZE};
use vfs::{FsError, FsResult};

use crate::controller::{Delta, KState, KernelConfig, LibFsId};
use crate::format::{
    self, mode, Geometry, InodeType, RawDentry, RawInode, DENTRIES_PER_PAGE, DENTRY_SIZE, I_DIRECT,
    I_NTAILS, NDIRECT,
};
use crate::lease::RenameLease;
use crate::shadow::{Children, ShadowEntry};

/// Acquire-time state of one inode, used for verification diffs and
/// rollback.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The inode this snapshot belongs to.
    pub ino: u64,
    /// The content generation these bytes are the image of; 0 when none
    /// is (a fresh grant, or a grant made while another LibFS could be
    /// writing). A verification against it may yield a [`Delta`] only
    /// when it is not 0.
    pub generation: u64,
    /// The verified step that ended at these bytes, if the kernel has it
    /// (DESIGN.md §14).
    pub delta: Option<Arc<Delta>>,
    /// Raw inode record bytes.
    pub inode_bytes: Vec<u8>,
    /// Directory log pages (page number, contents); empty for files.
    pub pages: Vec<(u64, Vec<u8>)>,
    /// Verified children at acquire time (directories), shared with the
    /// shadow table's baseline.
    pub children: Children,
}

impl Snapshot {
    /// The snapshot of an inode that did not exist yet (fresh grants):
    /// rolling back to it wipes the inode record.
    pub(crate) fn empty(ino: u64) -> Snapshot {
        Snapshot {
            ino,
            generation: 0,
            delta: None,
            inode_bytes: vec![0u8; format::INODE_SIZE as usize],
            pages: Vec::new(),
            children: Children::default(),
        }
    }
}

/// One dentry record's bytes.
pub type Record = [u8; DENTRY_SIZE as usize];

/// What a successful verification hands back to the controller.
#[derive(Debug)]
pub(crate) struct Verified {
    /// The inode record or a log page differs from the snapshot the
    /// verification ran against (a freed inode always counts as changed).
    pub changed: bool,
    /// The bytes the verifier just read and accepted — the inode record
    /// and, for a directory, every log page — with the children baseline
    /// it installed: exactly what [`take_snapshot`] would read back.
    pub image: Snapshot,
    /// For a directory whose log kept its shape (same pages, chains and
    /// page headers) and changed in at most a quarter of its records:
    /// every changed dentry slot, by device offset, with its bytes in the
    /// snapshot, in log order.
    pub slots: Option<Vec<(u64, Record)>>,
}

/// Capture the snapshot of `ino` from PM: one read of the inode record,
/// one of each directory log page.
pub(crate) fn take_snapshot(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
    shadow: &crate::shadow::ShadowTable,
    ino: u64,
) -> Result<Snapshot, String> {
    let mut rec = [0u8; format::INODE_SIZE as usize];
    device
        .read(geom.inode_offset(ino), &mut rec)
        .map_err(|e| e.to_string())?;
    let inode = format::decode_inode(&rec);
    let mut pages = Vec::new();
    if inode.is_committed(ino) && inode.inode_type() == Some(InodeType::Directory) {
        format::walk_dir_pages(device, geom, &inode, |p| {
            pages.push((p.page, p.bytes.to_vec()));
            Ok(())
        })?;
    }
    Ok(Snapshot {
        ino,
        generation: 0,
        delta: None,
        inode_bytes: rec.to_vec(),
        pages,
        children: shadow.children_of(ino),
    })
}

/// Restore an inode record and its directory log pages to the snapshot
/// state (§2.1 step ⑧, the roll-back corruption policy).
pub(crate) fn rollback(device: &Arc<PmemDevice>, geom: &Geometry, snap: &Snapshot) {
    // A rollback must not fail; errors here would indicate a bug in the
    // kernel substrate itself, hence the expects.
    for (page, bytes) in &snap.pages {
        device
            .write(*page * PAGE_SIZE as u64, bytes)
            .expect("rollback page write");
        device
            .clwb(*page * PAGE_SIZE as u64, bytes.len())
            .expect("rollback page flush");
    }
    let base = geom.inode_offset(snap.ino);
    device
        .write(base, &snap.inode_bytes)
        .expect("rollback inode write");
    device
        .clwb(base, snap.inode_bytes.len())
        .expect("rollback inode flush");
    device.sfence();
}

/// Is `page` inside the data region and marked allocated in the durable
/// bitmap?
fn page_allocated(device: &Arc<PmemDevice>, geom: &Geometry, page: u64) -> bool {
    if page < geom.data_start_page || page >= geom.total_pages {
        return false;
    }
    let idx = page - geom.data_start_page;
    match device.read_u8(geom.bitmap_offset() + idx / 8) {
        Ok(b) => b & (1 << (idx % 8)) != 0,
        Err(_) => false,
    }
}

fn fail(ino: u64, reason: impl Into<String>) -> FsError {
    FsError::VerificationFailed {
        ino,
        reason: reason.into(),
    }
}

/// Are all of `[page, page + len)` marked allocated in the durable bitmap?
/// The caller has range-checked the run against the data region. One
/// device read covers the run's bitmap bytes.
fn run_allocated(device: &Arc<PmemDevice>, geom: &Geometry, page: u64, len: u64) -> bool {
    let first = page - geom.data_start_page;
    let last = first + len - 1;
    let mut bytes = vec![0u8; (last / 8 - first / 8 + 1) as usize];
    if device
        .read(geom.bitmap_offset() + first / 8, &mut bytes)
        .is_err()
    {
        return false;
    }
    (first..=last).all(|idx| bytes[(idx / 8 - first / 8) as usize] & (1 << (idx % 8)) != 0)
}

/// Structural validation of a file inode's block map: every extent leaf
/// and every page of every committed run is an in-range, allocated data
/// page ([`format::walk_extents`] bounds the chain and range-checks leaves
/// and runs), and the pointer words the extent mapping does not use are
/// zero.
fn check_file_pages(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
    ino: u64,
    inode: &RawInode,
) -> FsResult<()> {
    if !inode.pointer_words_clear() {
        return Err(fail(
            ino,
            "regular file with a non-zero direct/reserved word",
        ));
    }
    let (mut bad_leaf, mut bad_run) = (None, None);
    format::walk_extents(
        device,
        geom,
        inode,
        |leaf| {
            if bad_leaf.is_none() && !page_allocated(device, geom, leaf) {
                bad_leaf = Some(leaf);
            }
        },
        |e| {
            if bad_run.is_none() && !run_allocated(device, geom, e.page, e.len) {
                bad_run = Some(e);
            }
        },
    )
    .map_err(|e| fail(ino, e))?;
    if let Some(leaf) = bad_leaf {
        return Err(fail(ino, format!("extent leaf {leaf} not allocated")));
    }
    if let Some(e) = bad_run {
        return Err(fail(
            ino,
            format!(
                "extent run [{}, +{}) covers an unallocated page",
                e.page, e.len
            ),
        ));
    }
    Ok(())
}

/// A directory's log as one verification read it: page number and image,
/// tail by tail in chain order.
type LogPages = Vec<(u64, Vec<u8>)>;

/// Parse and structurally validate a directory's live dentries. Every log
/// page is read once; the images are returned with the live set.
fn parse_dir(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
    ino: u64,
    inode: &RawInode,
) -> FsResult<(HashMap<String, u64>, LogPages)> {
    let mut live: HashMap<String, u64> = HashMap::new();
    let mut dup: Option<String> = None;
    let mut bad: Option<String> = None;
    let mut check = |d: RawDentry| {
        if !d.is_live() || bad.is_some() || dup.is_some() {
            return;
        }
        if d.marker as usize > format::DENTRY_NAME_CAP {
            bad = Some(format!("dentry marker {} exceeds name cap", d.marker));
            return;
        }
        if d.name_has_nul() {
            bad = Some(format!(
                "partially persisted dentry at {:#x} (NUL inside name)",
                d.offset
            ));
            return;
        }
        let name = match d.name_str() {
            Some(n) => n.to_string(),
            None => {
                bad = Some(format!("non-UTF-8 dentry name at {:#x}", d.offset));
                return;
            }
        };
        if d.ino == 0 || d.ino > geom.max_inodes {
            bad = Some(format!("dentry '{name}' has out-of-range ino {}", d.ino));
            return;
        }
        if live.insert(name.clone(), d.ino).is_some() {
            dup = Some(name);
        }
    };
    // Log pages must be allocated data pages: walk_dir_pages range-checks
    // each pointer before reading through it, the bitmap test is here. A
    // structural error ends the walk and outranks any record complaint.
    let mut pages = LogPages::new();
    format::walk_dir_pages(device, geom, inode, |p| {
        if !page_allocated(device, geom, p.page) {
            return Err(format!("dir log page {} not allocated", p.page));
        }
        p.dentries(&mut check);
        pages.push((p.page, p.bytes.to_vec()));
        Ok(())
    })
    .map_err(|e| fail(ino, e))?;

    if let Some(b) = bad {
        return Err(fail(ino, b));
    }
    if let Some(name) = dup {
        return Err(fail(ino, format!("duplicate live dentry '{name}'")));
    }

    // The directory's size field counts live entries.
    if inode.size != live.len() as u64 {
        let mut names: Vec<&str> = live.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        return Err(fail(
            ino,
            format!(
                "dir size {} != live entries {} [{}]",
                inode.size,
                live.len(),
                names.join(", ")
            ),
        ));
    }

    // Every live target must be a committed inode with a well-formed type —
    // this is what catches the §4.2 partially persisted *inode*.
    for (name, &child) in &live {
        let cbase = geom.inode_offset(child);
        let mut hdr = [0u8; 12];
        device
            .read(cbase, &mut hdr)
            .map_err(|e| fail(ino, e.to_string()))?;
        let cmarker = u64::from_le_bytes(hdr[..8].try_into().expect("8"));
        if cmarker != child {
            return Err(fail(
                ino,
                format!("dentry '{name}' references uncommitted inode {child}"),
            ));
        }
        let ctype = u32::from_le_bytes(hdr[8..12].try_into().expect("4"));
        if InodeType::from_raw(ctype).is_none() {
            return Err(fail(
                ino,
                format!("child {child} has malformed type {ctype}"),
            ));
        }
    }
    Ok((live, pages))
}

/// Recursively reclaim the verified subtree of a freed inode. Fails if any
/// verified descendant is still committed in PM — deleting a non-empty
/// directory would disconnect the tree (invariant I3).
fn reclaim_freed_subtree(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
    st: &mut KState,
    parent_ino: u64,
    freed: u64,
) -> FsResult<()> {
    let children = st.shadow.children_of(freed);
    for (name, &child) in children.iter() {
        let cbase = geom.inode_offset(child);
        let cmarker = device
            .read_u64(cbase)
            .map_err(|e| fail(parent_ino, e.to_string()))?;
        if cmarker == child {
            return Err(fail(
                parent_ino,
                format!(
                    "non-empty directory {freed} deleted: verified child '{name}' ({child}) still committed"
                ),
            ));
        }
        reclaim_freed_subtree(device, geom, st, parent_ino, child)?;
    }
    st.shadow
        .remove(freed)
        .map_err(|e| fail(parent_ino, e.to_string()))?;
    st.forget_inode(freed);
    Ok(())
}

/// Diff a directory's new live set against its verified baseline and apply
/// the result to the kernel's ground truth: children removed by name must
/// be deleted (with their verified subtree) or renamed away, children added
/// by name are connected or — §4.1 — relocated under the three checks.
#[allow(clippy::too_many_arguments)]
fn apply_children_diff(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
    config: &KernelConfig,
    lease: &RenameLease,
    st: &mut KState,
    libfs: LibFsId,
    ino: u64,
    old: &HashMap<String, u64>,
    live: &HashMap<String, u64>,
) -> FsResult<()> {
    let old_inos: HashSet<u64> = old.values().copied().collect();
    let new_inos: HashSet<u64> = live.values().copied().collect();

    // Children removed by name.
    for (name, &child) in old {
        if live.get(name) == Some(&child) {
            continue;
        }
        if new_inos.contains(&child) {
            // Same-directory rename: the inode is still here under
            // another name.
            continue;
        }
        let cmarker = device
            .read_u64(geom.inode_offset(child))
            .map_err(|e| fail(ino, e.to_string()))?;
        if cmarker != child {
            // Deleted; its verified subtree must be gone too.
            reclaim_freed_subtree(device, geom, st, ino, child)?;
            continue;
        }
        if config.rename_aware_verifier {
            // §4.1 patch: consult the shadow parent pointer. If the
            // child was renamed away and its new parent has been
            // verified, the pointer no longer names us.
            let parent_now = st.shadow.get(child).map(|e| e.parent);
            if parent_now == Some(ino) || parent_now.is_none() {
                return Err(fail(
                    ino,
                    format!(
                        "child '{name}' ({child}) missing but still allocated; \
                         commit/release its new parent first (LibFS Rule (2))"
                    ),
                ));
            }
            // Renamed away: legitimate.
        } else {
            // Original ArckFS: the verifier cannot distinguish a
            // rename from an illegal deletion (§4.1) and must fail.
            return Err(fail(
                ino,
                format!(
                    "child '{name}' ({child}) missing but still allocated \
                     (cannot distinguish rename from deletion)"
                ),
            ));
        }
    }

    // Children added by name.
    for (name, &child) in live {
        if old.get(name) == Some(&child) {
            continue;
        }
        if old_inos.contains(&child) {
            // Same-directory rename; identity unchanged.
            continue;
        }
        let child_inode = format::read_inode(device, geom, child)
            .map_err(|e| fail(ino, e.to_string()))?;
        let child_type = child_inode
            .inode_type()
            .ok_or_else(|| fail(ino, format!("child {child} malformed type")))?;
        match st.shadow.get(child).cloned() {
            None => {
                // Newly created inode: becomes connected here.
                st.shadow
                    .upsert(ShadowEntry {
                        ino: child,
                        itype: child_type,
                        mode: child_inode.mode,
                        uid: child_inode.uid,
                        parent: ino,
                    })
                    .map_err(|e| fail(ino, e.to_string()))?;
            }
            Some(e) if e.parent == ino => {
                // Already verified under this directory.
            }
            Some(e) => {
                // Relocation from e.parent into this directory.
                if config.rename_aware_verifier {
                    let owns_old = st
                        .owners
                        .get(&e.parent)
                        .map(|s| s.contains(&libfs.0))
                        .unwrap_or(false);
                    if !owns_old {
                        return Err(fail(
                            ino,
                            format!(
                                "relocated child '{name}' ({child}): LibFS does not \
                                 currently own the old parent {} (§4.1 check 1)",
                                e.parent
                            ),
                        ));
                    }
                    if e.itype == InodeType::Directory {
                        if st.shadow.is_descendant_of(ino, child) {
                            return Err(fail(
                                ino,
                                format!(
                                    "relocating directory {child} under its own \
                                     descendant {ino} would create a cycle (§4.1 check 2)"
                                ),
                            ));
                        }
                        if config.require_rename_lease && !lease.held_by(libfs.0) {
                            return Err(fail(
                                ino,
                                "directory relocation without the global rename \
                                 lease (§4.1 check 3)",
                            ));
                        }
                    }
                }
                st.shadow
                    .set_parent(child, ino)
                    .map_err(|e2| fail(ino, e2.to_string()))?;
            }
        }
    }
    Ok(())
}

/// Compare a directory's record and log, as a verification just read them,
/// with the snapshot it ran against, 128 bytes at a time: the log pages
/// split evenly into records, the first being the page header. Returns
/// whether anything differs and, when the log kept its shape and at most a
/// quarter of its records changed, the changed dentry slots (see
/// [`Verified::slots`]).
fn diff_dir(rec: &[u8], snap: &Snapshot, pages: &LogPages) -> (bool, Option<Vec<(u64, Record)>>) {
    let record_changed = rec[..] != snap.inode_bytes[..];
    let tails = I_NTAILS as usize..I_NTAILS as usize + 4;
    let heads = I_DIRECT as usize..I_DIRECT as usize + 8 * NDIRECT;
    let same_shape = pages.len() == snap.pages.len()
        && rec[tails.clone()] == snap.inode_bytes[tails]
        && rec[heads.clone()] == snap.inode_bytes[heads]
        && pages.iter().zip(&snap.pages).all(|((p, _), (q, _))| p == q);
    if !same_shape {
        return (true, None);
    }
    let cap = pages.len() * DENTRIES_PER_PAGE as usize / 4;
    let mut slots = Vec::new();
    for ((page, now), (_, then)) in pages.iter().zip(&snap.pages) {
        if now == then {
            continue;
        }
        let records = now
            .chunks_exact(DENTRY_SIZE as usize)
            .zip(then.chunks_exact(DENTRY_SIZE as usize));
        for (i, (now, then)) in records.enumerate() {
            if now == then {
                continue;
            }
            if i == 0 || slots.len() == cap {
                // A relinked page, or too much to be worth replaying.
                return (true, None);
            }
            let off = page * PAGE_SIZE as u64 + i as u64 * DENTRY_SIZE;
            slots.push((off, then.try_into().expect("one record")));
        }
    }
    (record_changed || !slots.is_empty(), Some(slots))
}

/// The verification engine. On success the kernel's ground truth (shadow
/// entries, parent pointers, children baselines) is updated; on failure an
/// error describes the violation and the caller rolls back.
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_and_apply(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
    config: &KernelConfig,
    lease: &RenameLease,
    st: &mut KState,
    libfs: LibFsId,
    ino: u64,
    snap: &Snapshot,
) -> FsResult<Verified> {
    let uid = st
        .libfs
        .get(&libfs.0)
        .map(|i| i.uid)
        .ok_or_else(|| FsError::Internal(format!("unregistered LibFS {libfs:?}")))?;

    // The one read of the inode record: every check below decodes from it,
    // the change test compares it, and the returned image carries it.
    let mut rec = [0u8; format::INODE_SIZE as usize];
    device
        .read(geom.inode_offset(ino), &mut rec)
        .map_err(|e| fail(ino, e.to_string()))?;
    let inode = format::decode_inode(&rec);
    let verified = |changed, pages, children, slots| Verified {
        changed,
        image: Snapshot {
            ino,
            generation: 0,
            delta: None,
            inode_bytes: rec.to_vec(),
            pages,
            children,
        },
        slots,
    };

    // A freed inode: the LibFS deleted it. Legitimate only if a (verified)
    // parent no longer references it — which that parent's own verification
    // establishes — and its verified subtree is gone. Here we only require
    // the subtree condition; connectivity is the parent's problem.
    if inode.marker == 0 {
        // Deleting an inode the LibFS couldn't write is a violation.
        if let Some(e) = st.shadow.get(ino).cloned() {
            if !mode::can_write(e.mode, e.uid, uid) {
                return Err(fail(ino, "deletion without write permission"));
            }
            reclaim_freed_subtree(device, geom, st, ino, ino)?;
        }
        return Ok(verified(true, Vec::new(), Children::default(), None));
    }

    if !inode.is_committed(ino) {
        return Err(fail(
            ino,
            format!("bad commit marker {:#x} (expected {ino})", inode.marker),
        ));
    }
    let itype = inode
        .inode_type()
        .ok_or_else(|| fail(ino, format!("malformed type tag {}", inode.itype)))?;

    // Rule (1): an inode unknown to the kernel is, from the kernel's
    // perspective, disconnected from the root (I3) — its parent must be
    // committed or released first.
    let shadow_entry = match st.shadow.get(ino).cloned() {
        Some(e) => e,
        None => {
            return Err(fail(
                ino,
                "inode not connected to the root from the kernel's perspective \
                 (commit/release its parent directory first — LibFS Rule (1))",
            ))
        }
    };
    if shadow_entry.itype != itype {
        return Err(fail(
            ino,
            format!(
                "type changed: shadow says {:?}, core state says {itype:?}",
                shadow_entry.itype
            ),
        ));
    }

    // Identity fields are immutable in this model.
    if inode.uid != shadow_entry.uid || inode.mode != shadow_entry.mode {
        return Err(fail(ino, "uid/mode tampered with"));
    }

    match itype {
        InodeType::Regular => {
            // Deep-walking the block map is only needed when the file's
            // metadata changed since acquire: overwrites of existing
            // blocks leave the inode record byte-identical, and verifying
            // them per transfer would defeat TRIO's amortization.
            let changed = rec[..] != snap.inode_bytes[..];
            if changed {
                if !mode::can_write(inode.mode, inode.uid, uid) {
                    return Err(fail(ino, "file modified without write permission"));
                }
                check_file_pages(device, geom, ino, &inode)?;
            }
            Ok(verified(changed, Vec::new(), Children::default(), None))
        }
        InodeType::Directory => {
            let (live, pages) = parse_dir(device, geom, ino, &inode)?;
            let old = &*snap.children;

            // Names that map as before need no second look; only a changed
            // children set is diffed against the baseline.
            if live != *old {
                if !mode::can_write(inode.mode, inode.uid, uid) {
                    return Err(fail(ino, "directory modified without write permission"));
                }
                apply_children_diff(device, geom, config, lease, st, libfs, ino, old, &live)?;
            }

            // Byte-compare what was just read against the snapshot: the
            // controller advances the inode's content generation on any
            // difference (a live set that merely *looks* the same — slots
            // moved, tombstones added — is a difference).
            let (changed, slots) = diff_dir(&rec, snap, &pages);
            let live = Children::new(live);
            st.shadow.set_children(ino, live.clone());
            Ok(verified(changed, pages, live, slots))
        }
    }
}
