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
//! **What is read** — the inode record, every live child's commit marker
//! and type, and of a directory's log only what may differ from the
//! verified image the verification runs against: the granules whose write
//! flags were set since that image's own capture of them (DESIGN.md §14,
//! "Granule write flags"). A page the image cannot vouch for is read whole.
//!
//! On failure the controller rolls the inode back to its acquire-time
//! snapshot (§2.1 step ⑧, the "roll back" policy).

use std::cell::OnceCell;
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
    /// The verification whose accepted bytes these are (see [`Captures`]);
    /// 0 when none is — a fresh grant, a read of PM — and the snapshot is
    /// then no base: the next verification reads every log page whole and
    /// checks every live record.
    pub(crate) capture: u64,
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
            capture: 0,
        }
    }
}

/// One dentry record's bytes.
pub type Record = [u8; DENTRY_SIZE as usize];

/// What a successful verification hands back to the controller: what it
/// found, and — applied to the snapshot it ran against by
/// [`Verified::image`] — the image of the bytes it accepted.
#[derive(Debug)]
pub(crate) struct Verified {
    /// The inode record or a log granule differs from the snapshot the
    /// verification ran against, or the log's pages do (a freed inode
    /// always counts as changed).
    pub changed: bool,
    /// For a directory whose log kept its shape (same pages, chains and
    /// page headers) and changed in at most a quarter of its records:
    /// every changed dentry slot, by device offset, with its bytes in the
    /// snapshot, in log order.
    pub slots: Option<Vec<(u64, Record)>>,
    inode_bytes: [u8; format::INODE_SIZE as usize],
    /// The log in chain order; empty for anything but a live directory.
    pages: Vec<(u64, Captured)>,
    /// The children baseline the verification installed.
    children: Children,
    capture: u64,
}

impl Verified {
    fn of_record(changed: bool, rec: [u8; format::INODE_SIZE as usize]) -> Verified {
        Verified {
            changed,
            slots: None,
            inode_bytes: rec,
            pages: Vec::new(),
            children: Children::default(),
            capture: 0,
        }
    }

    /// The verified image — exactly what [`take_snapshot`] would read back,
    /// with the children baseline just installed — made by patching `snap`,
    /// the snapshot the verification ran against: its log pages are moved,
    /// not copied, and only the granules that differ are overwritten. The
    /// generation and delta stay `snap`'s for the caller to set.
    pub(crate) fn image(self, snap: Snapshot) -> Snapshot {
        let mut held = snap.pages;
        let pages = self
            .pages
            .into_iter()
            .map(|(page, captured)| match captured {
                Captured::Patched(i, granules) => {
                    let mut bytes = std::mem::take(&mut held[i].1);
                    for (g, now) in granules {
                        bytes[g * GRANULE..(g + 1) * GRANULE].copy_from_slice(&now);
                    }
                    (page, bytes)
                }
                Captured::Whole(bytes) => (page, bytes),
            })
            .collect();
        let mut inode_bytes = snap.inode_bytes;
        inode_bytes.copy_from_slice(&self.inode_bytes);
        Snapshot {
            inode_bytes,
            pages,
            children: self.children,
            capture: self.capture,
            ..snap
        }
    }
}

/// Capture the snapshot of `ino` from PM: one read of the inode record,
/// one of each directory log page. Never verified, so no base.
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
        capture: 0,
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

/// Which verification last took each directory-log page's granule write
/// flags (DESIGN.md §14, "Granule write flags"). A take clears the flags,
/// so what they say is news only to the verification that took them: a
/// verified image may trust a page's clear flags only while its own capture
/// is still the page's last.
pub(crate) struct Captures {
    /// Page number → id of the last capture (0 = none).
    last: Vec<u64>,
    next: u64,
}

impl Captures {
    /// Nothing captured yet on a device of `pages` pages.
    pub(crate) fn new(pages: u64) -> Captures {
        Captures {
            last: vec![0; pages as usize],
            next: 1,
        }
    }

    /// A capture id no verification has used.
    fn draw(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// `capture` takes `page`'s flags; returns the capture that took them
    /// before. (The chain walk range-checks every page first.)
    fn record(&mut self, page: u64, capture: u64) -> u64 {
        std::mem::replace(&mut self.last[page as usize], capture)
    }
}

/// One directory-log page as a verification captured it.
#[derive(Debug)]
enum Captured {
    /// A page of the snapshot whose flags the snapshot's own capture took
    /// last: its index in [`Snapshot::pages`] and the granules that differ
    /// from it, with their bytes now. Only flagged granules were read.
    Patched(usize, Vec<(usize, Record)>),
    /// Any other page, read whole.
    Whole(Vec<u8>),
}

/// A log page's granules are its header and its dentry records, in order.
const GRANULE: usize = pmem::GRANULE;
const _: () =
    assert!(GRANULE == DENTRY_SIZE as usize && GRANULE == format::DIRPAGE_FIRST_DENTRY as usize);

/// The structural checks of a live dentry record the verifier has not
/// accepted before; returns its name.
fn check_record(geom: &Geometry, d: &RawDentry) -> Result<String, String> {
    if d.marker as usize > format::DENTRY_NAME_CAP {
        return Err(format!("dentry marker {} exceeds name cap", d.marker));
    }
    if d.name_has_nul() {
        return Err(format!(
            "partially persisted dentry at {:#x} (NUL inside name)",
            d.offset
        ));
    }
    let name = d
        .name_str()
        .ok_or_else(|| format!("non-UTF-8 dentry name at {:#x}", d.offset))?;
    if d.ino == 0 || d.ino > geom.max_inodes {
        return Err(format!("dentry '{name}' has out-of-range ino {}", d.ino));
    }
    Ok(name.to_string())
}

/// What one verification captured of a directory's log, compared with the
/// snapshot it runs against.
#[derive(Debug, Default)]
struct DirLog {
    /// The id this capture recorded on every page it took.
    capture: u64,
    /// The log in chain order.
    pages: Vec<(u64, Captured)>,
    /// A page header differs from the snapshot's.
    header_changed: bool,
    /// The log holds a page the snapshot does not: it changed shape, and
    /// no slot list is kept.
    reshaped: bool,
    /// Until the log is found reshaped: every dentry granule that differs
    /// from the snapshot, by device offset, with the snapshot's bytes, in
    /// log order.
    diffs: Vec<(u64, Record)>,
    /// Live records of the baseline that are gone: name, target.
    removed: Vec<(String, u64)>,
    /// Live records not in the baseline, checked: name, target.
    added: Vec<(String, u64)>,
    /// The first record that failed its checks, in log order.
    bad: Option<String>,
}

impl DirLog {
    /// Account for granule `g` of `page`: `now` as just read, `then` as the
    /// snapshot holds it (`None`: not a page of the snapshot). Against a
    /// base the records that changed move the live set; against no base
    /// (`base` false) every live record is new.
    fn granule(
        &mut self,
        geom: &Geometry,
        base: bool,
        page: u64,
        g: usize,
        now: &[u8],
        then: Option<&[u8]>,
    ) -> bool {
        const HOLE: Record = [0u8; GRANULE];
        let now: &Record = now.try_into().expect("one granule");
        let then: &Record = then.map_or(&HOLE, |t| t.try_into().expect("one granule"));
        let differs = now != then;
        if g == 0 {
            self.header_changed |= differs;
            return differs;
        }
        let off = page * PAGE_SIZE as u64 + (g * GRANULE) as u64;
        if differs && !self.reshaped {
            self.diffs.push((off, *then));
        }
        let prior = if base { then } else { &HOLE };
        if now == prior {
            return differs;
        }
        let before = format::decode_dentry(prior, off);
        if before.is_live() {
            let name = before.name_str().unwrap_or_default().to_string();
            self.removed.push((name, before.ino));
        }
        let after = format::decode_dentry(now, off);
        if after.is_live() && self.bad.is_none() {
            match check_record(geom, &after) {
                Ok(name) => self.added.push((name, after.ino)),
                Err(reason) => self.bad = Some(reason),
            }
        }
        differs
    }
}

/// Walk a directory's log and capture it against `snap` (DESIGN.md §14):
/// every page's granule write flags are taken before it is read. A page
/// the snapshot holds, when the snapshot is a verified image whose own
/// capture took the page's flags last, is read only where flagged and
/// compared with the image there; any other page is read whole. Every page
/// must be an allocated data page.
fn capture_dir_log(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
    captures: &mut Captures,
    ino: u64,
    inode: &RawInode,
    snap: &Snapshot,
) -> FsResult<DirLog> {
    let base = snap.capture != 0;
    let held: HashMap<u64, usize> = snap
        .pages
        .iter()
        .enumerate()
        .map(|(i, (page, _))| (*page, i))
        .collect();
    let mut log = DirLog {
        capture: captures.draw(),
        ..DirLog::default()
    };
    let mut buf = [0u8; PAGE_SIZE];
    // A structural error ends the walk and outranks any record complaint.
    format::walk_dir_chain(geom, inode, |_, page| {
        let flags = device.take_written(page).map_err(|e| e.to_string())?;
        let last = captures.record(page, log.capture);
        if !page_allocated(device, geom, page) {
            return Err(format!("dir log page {page} not allocated"));
        }
        let at = geom.page_offset(page);
        let image = held.get(&page).map(|&i| (i, &snap.pages[i].1[..]));
        let then = |g: usize| image.map(|(_, bytes)| &bytes[g * GRANULE..(g + 1) * GRANULE]);
        match image {
            Some((i, bytes)) if base && last == snap.capture => {
                let mut patch = Vec::new();
                let mut rest = flags;
                while rest != 0 {
                    // One read per run of flagged granules.
                    let lo = rest.trailing_zeros() as usize;
                    let hi = lo + (rest >> lo).trailing_ones() as usize;
                    let run = lo * GRANULE..hi * GRANULE;
                    device
                        .read(at + run.start as u64, &mut buf[run])
                        .map_err(|e| e.to_string())?;
                    for g in lo..hi {
                        let now = &buf[g * GRANULE..(g + 1) * GRANULE];
                        if log.granule(geom, base, page, g, now, then(g)) {
                            patch.push((g, now.try_into().expect("one granule")));
                        }
                    }
                    rest = if hi == 32 { 0 } else { rest & (u32::MAX << hi) };
                }
                let header = if flags & 1 != 0 {
                    &buf[..8]
                } else {
                    &bytes[..8]
                };
                log.pages.push((page, Captured::Patched(i, patch)));
                Ok(u64::from_le_bytes(header.try_into().expect("8")))
            }
            _ => {
                log.reshaped |= image.is_none();
                let mut whole = vec![0u8; PAGE_SIZE];
                device.read(at, &mut whole).map_err(|e| e.to_string())?;
                for g in 0..pmem::GRANULES_PER_PAGE {
                    let now = &whole[g * GRANULE..(g + 1) * GRANULE];
                    log.granule(geom, base, page, g, now, then(g));
                }
                let next = u64::from_le_bytes(whole[..8].try_into().expect("8"));
                log.pages.push((page, Captured::Whole(whole)));
                Ok(next)
            }
        }
    })
    .map_err(|e| fail(ino, e))?;
    if base {
        // The live records of base pages no longer in the log are gone.
        let linked: HashSet<u64> = log.pages.iter().map(|(page, _)| *page).collect();
        for (page, bytes) in snap.pages.iter().filter(|(p, _)| !linked.contains(p)) {
            for g in 1..pmem::GRANULES_PER_PAGE {
                let off = page * PAGE_SIZE as u64 + (g * GRANULE) as u64;
                let rec = bytes[g * GRANULE..(g + 1) * GRANULE]
                    .try_into()
                    .expect("one granule");
                let d = format::decode_dentry(rec, off);
                if d.is_live() {
                    let name = d.name_str().unwrap_or_default().to_string();
                    log.removed.push((name, d.ino));
                }
            }
        }
    }
    if let Some(reason) = log.bad.take() {
        return Err(fail(ino, reason));
    }
    Ok(log)
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
/// `names` are the names whose mapping differs between `old` and `live`,
/// each once; no other name needs a look.
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
    names: &[&str],
) -> FsResult<()> {
    // Whether an inode is listed at all, under any name: built on first
    // use only, since most changes never ask.
    let (old_inos, new_inos) = (OnceCell::new(), OnceCell::new());
    let listed = |set: &OnceCell<HashSet<u64>>, map: &HashMap<String, u64>, child: u64| {
        set.get_or_init(|| map.values().copied().collect())
            .contains(&child)
    };

    // Children removed by name.
    for &name in names {
        let Some(&child) = old.get(name) else {
            continue;
        };
        if listed(&new_inos, live, child) {
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
    for &name in names {
        let Some(&child) = live.get(name) else {
            continue;
        };
        if listed(&old_inos, old, child) {
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
        return Ok(Verified::of_record(true, rec));
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
            Ok(Verified::of_record(changed, rec))
        }
        InodeType::Directory => {
            // No reader gives the reserved words a meaning; one left
            // non-zero is a field a later reader might act on.
            if !inode.reserved_clear() {
                return Err(fail(ino, "directory with a non-zero reserved word"));
            }
            let log = capture_dir_log(device, geom, &mut st.captures, ino, &inode, snap)?;
            let live = live_set(device, geom, ino, &inode, snap, &log)?;
            let old = &snap.children;

            // Only the names whose mapping moved, each once, are diffed
            // against the baseline; an unchanged live set stays the
            // baseline it was.
            let names: Vec<&str> = if Arc::ptr_eq(&live, old) {
                Vec::new()
            } else if snap.capture != 0 {
                let touched = log.removed.iter().chain(&log.added);
                let mut names: Vec<&str> = touched.map(|(name, _)| name.as_str()).collect();
                names.sort_unstable();
                names.dedup();
                names.retain(|&name| old.get(name) != live.get(name));
                names
            } else {
                let gone = old
                    .iter()
                    .filter(|&(name, child)| live.get(name) != Some(child));
                let new = live.keys().filter(|&name| !old.contains_key(name));
                gone.map(|(name, _)| name)
                    .chain(new)
                    .map(String::as_str)
                    .collect()
            };
            let live = if names.is_empty() {
                old.clone()
            } else {
                if !mode::can_write(inode.mode, inode.uid, uid) {
                    return Err(fail(ino, "directory modified without write permission"));
                }
                apply_children_diff(
                    device, geom, config, lease, st, libfs, ino, old, &live, &names,
                )?;
                live
            };
            st.shadow.set_children(ino, live.clone());

            // What differs from the snapshot, granule by granule: the
            // controller advances the inode's content generation on any
            // difference (a live set that merely *looks* the same — slots
            // moved, tombstones added — is a difference).
            let record_changed = rec[..] != snap.inode_bytes[..];
            let tails = I_NTAILS as usize..I_NTAILS as usize + 4;
            let heads = I_DIRECT as usize..I_DIRECT as usize + 8 * NDIRECT;
            let same_pages = log.pages.len() == snap.pages.len()
                && log
                    .pages
                    .iter()
                    .zip(&snap.pages)
                    .all(|((p, _), (q, _))| p == q);
            let same_shape = same_pages
                && !log.header_changed
                && rec[tails.clone()] == snap.inode_bytes[tails]
                && rec[heads.clone()] == snap.inode_bytes[heads];
            let cap = log.pages.len() * DENTRIES_PER_PAGE as usize / 4;
            Ok(Verified {
                changed: record_changed || !same_shape || !log.diffs.is_empty(),
                slots: (same_shape && log.diffs.len() <= cap).then_some(log.diffs),
                inode_bytes: rec,
                pages: log.pages,
                children: live,
                capture: log.capture,
            })
        }
    }
}

/// A directory's live set after a verification captured its log: the
/// baseline — the snapshot's children when it is a verified image, nothing
/// otherwise — minus the records gone, plus the records new. Checks that no
/// name is live twice, that the record's size counts the live entries, and
/// that every live target is a committed inode with a well-formed type.
fn live_set(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
    ino: u64,
    inode: &RawInode,
    snap: &Snapshot,
    log: &DirLog,
) -> FsResult<Children> {
    let base = snap.capture != 0;
    let live = if base && log.removed.is_empty() && log.added.is_empty() {
        snap.children.clone()
    } else {
        let mut live = if base {
            (*snap.children).clone()
        } else {
            HashMap::with_capacity(log.added.len())
        };
        for (name, _) in &log.removed {
            live.remove(name);
        }
        for (name, child) in &log.added {
            if live.insert(name.clone(), *child).is_some() {
                return Err(fail(ino, format!("duplicate live dentry '{name}'")));
            }
        }
        Arc::new(live)
    };

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
    // this is what catches the §4.2 partially persisted *inode*. Another
    // LibFS may have written any of them since, so every one is read.
    for (name, &child) in live.iter() {
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
    Ok(live)
}
