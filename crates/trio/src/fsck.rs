//! Offline consistency check (the crash-recovery oracle).
//!
//! `fsck` walks the core state of a device image from the root directory,
//! exactly as a remounting kernel would, and classifies everything it finds.
//! The crash-consistency checker (`crates/crashmc`) runs it over sampled
//! crash images; a **fatal** issue means the image violates the crash
//! consistency the paper's §4.2 commit-marker protocol is supposed to
//! guarantee:
//!
//! * a dentry with a valid commit marker whose payload was not fully
//!   persisted (NUL bytes inside the name) — the paper's "partially
//!   persisted dentry";
//! * a live dentry referencing an inode whose own commit marker is unset —
//!   the "partially persisted inode";
//! * duplicate names, malformed types, directory cycles, a directory
//!   reachable through two parents.
//!
//! **Benign** findings are expected crash residue that recovery simply
//! cleans up: committed inodes no dentry references (the create crashed
//! before the dentry's marker persisted), stale directory size fields,
//! and — with group durability (DESIGN.md §8) — records above a
//! directory's persisted batch watermark (the open batch rolls back
//! wholesale) or live records a newer *negative* record supersedes (a
//! batched unlink whose deferred tombstone did not persist). Liveness is
//! therefore decided by per-name sequence resolution over committed
//! records below the watermark, the same rule recovery applies.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use pmem::PmemDevice;

use crate::format::{self, Geometry, InodeType};
use crate::ROOT_INO;

/// One finding from the walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckIssue {
    /// A committed dentry whose name contains NUL bytes: the §4.2
    /// partially persisted dentry. **Fatal.**
    PartialDentry {
        /// Directory containing the dentry.
        dir: u64,
        /// Device offset of the record.
        offset: u64,
    },
    /// A live dentry referencing an uncommitted inode: the §4.2 partially
    /// persisted inode. **Fatal.**
    DanglingDentry {
        /// Directory containing the dentry.
        dir: u64,
        /// The referenced inode.
        child: u64,
        /// The (lossy) name.
        name: String,
    },
    /// Two live dentries with the same name in one directory. **Fatal.**
    DuplicateName {
        /// The directory.
        dir: u64,
        /// The duplicated name.
        name: String,
    },
    /// An inode reachable through two parents, or an ancestor of itself
    /// (§4.6 directory cycle). **Fatal.**
    MultiplyReachable {
        /// The inode reached twice.
        ino: u64,
    },
    /// A malformed inode type tag. **Fatal.**
    BadType {
        /// The inode.
        ino: u64,
        /// The raw tag.
        raw: u32,
    },
    /// Structural corruption (bad page pointer, log cycle). **Fatal.**
    Structural {
        /// The inode being walked.
        ino: u64,
        /// Description.
        detail: String,
    },
    /// A committed inode not reachable from the root — crash residue from a
    /// create whose dentry never persisted. Recovery reclaims it. Benign.
    OrphanInode {
        /// The orphan.
        ino: u64,
    },
    /// A directory cycle among inodes disconnected from the root — the
    /// §4.6 bug's signature. **Fatal.**
    DirCycle {
        /// A directory on the cycle.
        ino: u64,
    },
    /// Two live dentries in one directory referencing the same inode —
    /// crash residue of a same-directory rename (the new name committed,
    /// the old name's tombstone did not persist). Recovery keeps the
    /// newer record by sequence number. Benign.
    RenameResidue {
        /// The directory.
        dir: u64,
        /// The doubly-named inode.
        ino: u64,
    },
    /// A directory size field that does not match the live entry count —
    /// crash residue (the size store was after the dentry commit). Benign.
    SizeMismatch {
        /// The directory.
        dir: u64,
        /// Recorded size.
        recorded: u64,
        /// Counted live entries.
        actual: u64,
    },
    /// Dentry records above the directory's persisted group-durability
    /// watermark: an open commit batch was in flight at the crash
    /// (DESIGN.md §8). Recovery rolls the whole batch back. Benign.
    BatchResidue {
        /// The directory.
        dir: u64,
        /// The persisted watermark (`batch_seq`).
        watermark: u64,
    },
    /// A live dentry superseded by a newer *negative* (deleted) record
    /// with the same name and inode — residue of a batched unlink or
    /// rename whose deferred in-place tombstone did not persist. Recovery
    /// resolves by sequence number; the name is dead. Benign.
    UnlinkResidue {
        /// The directory.
        dir: u64,
        /// The superseded name.
        name: String,
    },
    /// A page whose bitmap bit is durably set but which no committed inode
    /// references — residue of an extent granted to a LibFS (allocate-
    /// then-link persists the bit first) and lost to a crash before
    /// linking. Recovery clears the bit. Benign.
    PageLeak {
        /// The allocator shard owning the page's range.
        shard: usize,
        /// The leaked page.
        page: u64,
    },
    /// A page referenced by a reachable inode whose bitmap bit is clear:
    /// the allocator could hand it out again — a double allocation waiting
    /// to happen. Violates the allocate-then-link ordering contract.
    /// **Fatal.**
    PageNotAllocated {
        /// The page.
        page: u64,
        /// The referencing inode.
        ino: u64,
    },
    /// A page referenced by two distinct reachable inodes: a double
    /// allocation has already happened. **Fatal.**
    PageDoubleUse {
        /// The page.
        page: u64,
        /// The second referencing inode.
        ino: u64,
        /// The first referencing inode.
        other: u64,
    },
}

impl FsckIssue {
    /// Does this issue violate crash consistency (as opposed to being
    /// recoverable crash residue)?
    pub fn is_fatal(&self) -> bool {
        !matches!(
            self,
            FsckIssue::OrphanInode { .. }
                | FsckIssue::SizeMismatch { .. }
                | FsckIssue::RenameResidue { .. }
                | FsckIssue::BatchResidue { .. }
                | FsckIssue::UnlinkResidue { .. }
                | FsckIssue::PageLeak { .. }
        )
    }
}

/// Result of a device walk.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Inodes reachable from the root.
    pub reachable: u64,
    /// Everything the walk noticed.
    pub issues: Vec<FsckIssue>,
}

impl FsckReport {
    /// Only the fatal issues.
    pub fn fatal(&self) -> Vec<&FsckIssue> {
        self.issues.iter().filter(|i| i.is_fatal()).collect()
    }

    /// True when the image is crash-consistent (no fatal issues).
    pub fn is_consistent(&self) -> bool {
        self.issues.iter().all(|i| !i.is_fatal())
    }
}

/// Walk a device image and produce a report. Fails with a message only if
/// the superblock itself is unreadable (nothing to walk).
pub fn fsck(device: &Arc<PmemDevice>) -> Result<FsckReport, String> {
    let geom = format::read_superblock(device)?;
    Ok(fsck_with_geometry(device, &geom))
}

/// Walk with a known geometry (used when the superblock is trusted).
pub fn fsck_with_geometry(device: &Arc<PmemDevice>, geom: &Geometry) -> FsckReport {
    let mut report = FsckReport::default();
    let mut visited: HashSet<u64> = HashSet::new();

    let root = match format::read_inode(device, geom, ROOT_INO) {
        Ok(i) => i,
        Err(e) => {
            report.issues.push(FsckIssue::Structural {
                ino: ROOT_INO,
                detail: e.to_string(),
            });
            return report;
        }
    };
    if !root.is_committed(ROOT_INO) {
        report.issues.push(FsckIssue::Structural {
            ino: ROOT_INO,
            detail: "root inode not committed".into(),
        });
        return report;
    }

    walk_dir(device, geom, ROOT_INO, &mut visited, &mut report, 0);

    // Orphan scan: committed inodes the walk never reached.
    let mut orphan_dirs = Vec::new();
    for ino in 1..=geom.max_inodes {
        if visited.contains(&ino) || ino == ROOT_INO {
            continue;
        }
        let marker = match device.read_u64(geom.inode_offset(ino)) {
            Ok(m) => m,
            Err(_) => break,
        };
        if marker == ino {
            report.issues.push(FsckIssue::OrphanInode { ino });
            if let Ok(inode) = format::read_inode(device, geom, ino) {
                if inode.inode_type() == Some(InodeType::Directory) {
                    orphan_dirs.push(ino);
                }
            }
        }
    }

    // Cycle detection among orphan directories: a directory disconnected
    // from the root that is reachable from itself is the §4.6 directory
    // cycle (two concurrent cross-directory renames, or a rename into the
    // directory's own descendant).
    let mut cleared: HashSet<u64> = HashSet::new();
    for &start in &orphan_dirs {
        if cleared.contains(&start) {
            continue;
        }
        let mut path: Vec<u64> = Vec::new();
        let mut on_path: HashSet<u64> = HashSet::new();
        let mut cycle = None;
        // Iterative DFS over dir children.
        let mut stack: Vec<(u64, Vec<u64>)> = vec![(start, dir_children(device, geom, start))];
        path.push(start);
        on_path.insert(start);
        while let Some((_, children)) = stack.last_mut() {
            match children.pop() {
                Some(c) => {
                    if on_path.contains(&c) {
                        cycle = Some(c);
                        break;
                    }
                    if cleared.contains(&c) {
                        continue;
                    }
                    let is_dir = format::read_inode(device, geom, c)
                        .ok()
                        .and_then(|i| i.inode_type())
                        == Some(InodeType::Directory);
                    if is_dir {
                        path.push(c);
                        on_path.insert(c);
                        stack.push((c, dir_children(device, geom, c)));
                    }
                }
                None => {
                    let (done, _) = stack.pop().expect("non-empty stack");
                    cleared.insert(done);
                    on_path.remove(&done);
                    path.pop();
                }
            }
        }
        if let Some(ino) = cycle {
            report.issues.push(FsckIssue::DirCycle { ino });
        }
    }

    audit_pages(device, geom, &visited, &mut report);

    report.reachable = visited.len() as u64 + 1; // + root
    report
}

/// Every data page referenced by one committed inode: directory log chains
/// (per tail, following `DP_NEXT`) and file extent chains (leaves and
/// committed runs). Out-of-range pointers are skipped (the walk reports
/// them as structural); chain hops are bounded so a log cycle cannot hang
/// the scan.
fn inode_pages(device: &Arc<PmemDevice>, geom: &Geometry, inode: &format::RawInode) -> Vec<u64> {
    let in_range = |p: u64| p >= geom.data_start_page && p < geom.total_pages;
    let mut out = Vec::new();
    match inode.inode_type() {
        Some(InodeType::Directory) => {
            let ntails = (inode.ntails as usize).min(format::NDIRECT);
            for tail in 0..ntails {
                let mut page = inode.direct[tail];
                let mut hops = 0u64;
                while page != 0 && in_range(page) && hops <= geom.total_pages {
                    hops += 1;
                    out.push(page);
                    page = device
                        .read_u64(geom.page_offset(page) + format::DP_NEXT)
                        .unwrap_or(0);
                }
            }
        }
        Some(InodeType::Regular) => {
            // Extent mapping (DESIGN.md §11): leaf pages plus every
            // committed run's data pages. Torn records (len == 0) are
            // invisible — their pages fall out as benign PageLeak residue.
            let mut leaves = Vec::new();
            let _ = format::walk_extents(
                device,
                geom,
                inode,
                |leaf| leaves.push(leaf),
                |e| out.extend(e.page..e.page + e.len),
            );
            out.append(&mut leaves);
        }
        None => {}
    }
    out
}

/// Every data page referenced by *any* committed inode — the reachable
/// page set the bitmap is cross-checked against. Shared with
/// [`crate::Kernel::recover`], which frees the set-but-unreferenced
/// remainder (the leaked grants).
pub(crate) fn referenced_pages(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
) -> Result<HashSet<u64>, String> {
    let mut set = HashSet::new();
    for ino in 1..=geom.max_inodes {
        let inode = match format::read_inode(device, geom, ino) {
            Ok(i) => i,
            Err(e) => return Err(e.to_string()),
        };
        if inode.is_committed(ino) {
            set.extend(inode_pages(device, geom, &inode));
        }
    }
    Ok(set)
}

/// Per-shard page audit: cross-check the durable allocator bitmap against
/// the page set referenced by committed inodes.
///
/// * referenced by a *reachable* inode, bit clear → [`FsckIssue::PageNotAllocated`]
///   (fatal: the allocator would hand the page out again);
/// * referenced by two reachable inodes → [`FsckIssue::PageDoubleUse`] (fatal);
/// * bit set, referenced by nothing → [`FsckIssue::PageLeak`] (benign grant
///   residue, attributed to the shard that owns the page's range).
///
/// Orphan (committed but unreachable) inodes keep their pages out of the
/// leak class — an orphaned create is itself benign residue — but do not
/// participate in the double-use check: a freed-and-reallocated page can
/// legitimately appear under both an orphan and its reallocating owner.
fn audit_pages(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
    visited: &HashSet<u64>,
    report: &mut FsckReport,
) {
    let mut owner: HashMap<u64, u64> = HashMap::new(); // page → reachable owner
    let mut referenced: HashSet<u64> = HashSet::new();
    for ino in 1..=geom.max_inodes {
        let inode = match format::read_inode(device, geom, ino) {
            Ok(i) => i,
            Err(_) => return, // table unreadable: already reported
        };
        if !inode.is_committed(ino) {
            continue;
        }
        let reachable = ino == ROOT_INO || visited.contains(&ino);
        let mut mine: HashSet<u64> = HashSet::new();
        for page in inode_pages(device, geom, &inode) {
            referenced.insert(page);
            if !reachable || !mine.insert(page) {
                continue;
            }
            match owner.get(&page) {
                Some(&other) if other != ino => {
                    report.issues.push(FsckIssue::PageDoubleUse {
                        page,
                        ino,
                        other,
                    });
                }
                _ => {
                    owner.insert(page, ino);
                }
            }
        }
    }

    let nbytes = pmem::ShardedPageAllocator::bitmap_bytes(geom.data_pages()) as usize;
    let mut bitmap = vec![0u8; nbytes];
    if device.read(geom.bitmap_offset(), &mut bitmap).is_err() {
        return;
    }
    let ranges = pmem::ShardedPageAllocator::shard_ranges_for(
        geom.data_start_page,
        geom.data_pages(),
        pmem::default_alloc_shards(),
    );
    for page in geom.data_start_page..geom.total_pages {
        let idx = page - geom.data_start_page;
        let bit = bitmap[(idx / 8) as usize] & (1 << (idx % 8)) != 0;
        if let Some(&ino) = owner.get(&page) {
            if !bit {
                report.issues.push(FsckIssue::PageNotAllocated { page, ino });
            }
        } else if bit && !referenced.contains(&page) {
            let shard = ranges
                .iter()
                .position(|&(first, count)| page >= first && page < first + count)
                .unwrap_or(0);
            report.issues.push(FsckIssue::PageLeak { shard, page });
        }
    }
}

/// Child inode numbers of a directory's live dentries (best effort; used by
/// the orphan cycle scan).
fn dir_children(device: &Arc<PmemDevice>, geom: &Geometry, dir: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if let Ok(inode) = format::read_inode(device, geom, dir) {
        let wm = inode.batch_seq;
        let _ = format::walk_dir_log(device, geom, &inode, |d| {
            if d.is_live() && d.ino != 0 && d.ino <= geom.max_inodes && (wm == 0 || d.seq <= wm) {
                out.push(d.ino);
            }
        });
    }
    out
}

fn walk_dir(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
    dir: u64,
    visited: &mut HashSet<u64>,
    report: &mut FsckReport,
    depth: u32,
) {
    if depth > 512 {
        report.issues.push(FsckIssue::Structural {
            ino: dir,
            detail: "directory nesting too deep (possible cycle)".into(),
        });
        return;
    }
    let inode = match format::read_inode(device, geom, dir) {
        Ok(i) => i,
        Err(e) => {
            report.issues.push(FsckIssue::Structural {
                ino: dir,
                detail: e.to_string(),
            });
            return;
        }
    };

    let (recs, batch_residue) =
        match committed_records(device, geom, &inode, dir, Some(report)) {
            Ok(v) => v,
            Err(e) => {
                report.issues.push(FsckIssue::Structural {
                    ino: dir,
                    detail: e,
                });
                return;
            }
        };
    if batch_residue {
        report.issues.push(FsckIssue::BatchResidue {
            dir,
            watermark: inode.batch_seq,
        });
    }

    let live = resolve_live(recs, dir, Some(report));

    if inode.size != live.len() as u64 {
        report.issues.push(FsckIssue::SizeMismatch {
            dir,
            recorded: inode.size,
            actual: live.len() as u64,
        });
    }

    let mut children: Vec<(String, u64)> = live.iter().map(|(n, i)| (n.clone(), *i)).collect();
    children.sort();
    for (name, child) in children {
        let cinode = match format::read_inode(device, geom, child) {
            Ok(i) => i,
            Err(e) => {
                report.issues.push(FsckIssue::Structural {
                    ino: child,
                    detail: e.to_string(),
                });
                continue;
            }
        };
        if !cinode.is_committed(child) {
            // The §4.2 partially persisted inode.
            report
                .issues
                .push(FsckIssue::DanglingDentry { dir, child, name });
            continue;
        }
        let ctype = match cinode.inode_type() {
            Some(t) => t,
            None => {
                report.issues.push(FsckIssue::BadType {
                    ino: child,
                    raw: cinode.itype,
                });
                continue;
            }
        };
        if !visited.insert(child) {
            // Reached twice: two parents or a cycle.
            report
                .issues
                .push(FsckIssue::MultiplyReachable { ino: child });
            continue;
        }
        if ctype == InodeType::Regular && !cinode.pointer_words_clear() {
            report.issues.push(FsckIssue::Structural {
                ino: child,
                detail: "regular file with a non-zero direct/reserved word".into(),
            });
        }
        if ctype == InodeType::Directory {
            walk_dir(device, geom, child, visited, report, depth + 1);
        }
    }
}

/// A directory's committed record: `(name, seq, ino, deleted)`.
type DirRec = (String, u64, u64, bool);

/// Collect a directory's committed dentry records below its group-
/// durability watermark (DESIGN.md §8: records above the watermark belong
/// to the commit batch open at the crash and are uncommitted by
/// definition). Deleted records are included — batched unlinks and renames
/// append *negative* records, so liveness is decided afterwards by
/// [`resolve_live`]. The second return is whether any record sat above the
/// watermark. With `report`, §4.2 payload and target violations are
/// reported; without it they are skipped silently (recovery erases them).
fn committed_records(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
    inode: &format::RawInode,
    dir: u64,
    mut report: Option<&mut FsckReport>,
) -> Result<(Vec<DirRec>, bool), String> {
    let wm = inode.batch_seq;
    let mut batch_residue = false;
    let mut recs: Vec<DirRec> = Vec::new();
    format::walk_dir_log(device, geom, inode, |d| {
        if d.marker == 0 {
            return;
        }
        if wm != 0 && d.seq > wm {
            batch_residue = true;
            return;
        }
        let torn = d.marker as usize > format::DENTRY_NAME_CAP || d.name_has_nul();
        let name = if torn { None } else { d.name_str() };
        let name = match name {
            Some(n) => n.to_string(),
            None => {
                // Tombstoned records were never payload-checked; a torn
                // name only violates §4.2 on a record claiming to be live.
                if !d.deleted {
                    if let Some(r) = report.as_deref_mut() {
                        r.issues.push(FsckIssue::PartialDentry {
                            dir,
                            offset: d.offset,
                        });
                    }
                }
                return;
            }
        };
        if d.ino == 0 || d.ino > geom.max_inodes {
            if !d.deleted {
                if let Some(r) = report.as_deref_mut() {
                    r.issues.push(FsckIssue::DanglingDentry {
                        dir,
                        child: d.ino,
                        name,
                    });
                }
            }
            return;
        }
        recs.push((name, d.seq, d.ino, d.deleted));
    })?;
    Ok((recs, batch_residue))
}

/// Per-name and per-inode sequence resolution over a directory's committed
/// records — exactly the rule recovery applies. A live record below the
/// per-name winner is benign only when a newer negative record for the
/// same inode explicitly killed it; any other live loser is a genuine
/// duplicate. An inode live under two names (same-directory rename
/// residue) keeps the newer name. Returns the live `name → ino` map; with
/// `report`, residue and duplicates are reported against `dir`.
fn resolve_live(
    recs: Vec<DirRec>,
    dir: u64,
    mut report: Option<&mut FsckReport>,
) -> HashMap<String, u64> {
    // Per-name record tuples: (seq, ino, deleted).
    type NameRecs = Vec<(u64, u64, bool)>;
    let mut by_name: HashMap<String, NameRecs> = HashMap::new();
    for (name, seq, ino, deleted) in recs {
        by_name.entry(name).or_default().push((seq, ino, deleted));
    }
    let mut live: HashMap<String, u64> = HashMap::new();
    let mut live_seq: HashMap<String, u64> = HashMap::new();
    let mut resolved: Vec<(String, NameRecs)> = by_name.into_iter().collect();
    resolved.sort(); // deterministic issue order across identical images
    for (name, mut v) in resolved {
        v.sort_unstable();
        let &(winner_seq, winner_ino, winner_deleted) = v.last().expect("non-empty");
        for &(seq, ino, deleted) in &v[..v.len() - 1] {
            if deleted {
                continue;
            }
            let Some(r) = report.as_deref_mut() else {
                continue;
            };
            let killed = v.iter().any(|&(s2, i2, d2)| s2 > seq && d2 && i2 == ino);
            if killed {
                r.issues.push(FsckIssue::UnlinkResidue {
                    dir,
                    name: name.clone(),
                });
            } else {
                r.issues.push(FsckIssue::DuplicateName {
                    dir,
                    name: name.clone(),
                });
            }
        }
        if !winner_deleted {
            live.insert(name.clone(), winner_ino);
            live_seq.insert(name, winner_seq);
        }
    }

    // Same inode live under two names: same-directory rename residue (the
    // old name's tombstone did not persist). Keep the newer record, as
    // recovery does.
    let mut by_ino: HashMap<u64, (String, u64)> = HashMap::new();
    let mut sorted_live: Vec<(String, u64)> = live.iter().map(|(n, i)| (n.clone(), *i)).collect();
    sorted_live.sort();
    for (name, ino) in sorted_live {
        let seq = live_seq[&name];
        match by_ino.get(&ino) {
            Some((old_name, old_seq)) => {
                if let Some(r) = report.as_deref_mut() {
                    r.issues.push(FsckIssue::RenameResidue { dir, ino });
                }
                if seq > *old_seq {
                    live.remove(old_name);
                    by_ino.insert(ino, (name, seq));
                } else {
                    live.remove(&name);
                }
            }
            None => {
                by_ino.insert(ino, (name, seq));
            }
        }
    }
    live
}

// ---- logical snapshots and fingerprints --------------------------------

/// One live entry in a [`logical_snapshot`]: the namespace-visible identity
/// of a file or directory, with **no physical placement** in it. Two images
/// that recover to the same user-visible state produce the same entries
/// even when their inodes landed on different pages or allocator shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalEntry {
    /// Absolute path from the root (e.g. `/d/f0`).
    pub path: String,
    /// Inode type.
    pub itype: InodeType,
    /// Owning uid.
    pub uid: u32,
    /// File size in bytes; 0 for directories (their logical content is the
    /// set of entries under them, which appear as their own paths — the
    /// stored size field may be benignly stale after a crash).
    pub size: u64,
    /// FNV-1a hash of the file content in logical block order; 0 for
    /// directories.
    pub content_hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Hash a regular file's content in logical block order.
///
/// The block → page map is the extent tree, later records superseding
/// earlier ones as on the read path. Only the mapping's *data* enters the
/// hash — page numbers never do, so the hash is stable across allocator
/// shard counts and physical placement.
fn file_content_hash(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
    inode: &format::RawInode,
) -> u64 {
    let mut map: HashMap<u64, u64> = HashMap::new(); // file block → page
    let _ = format::walk_extents(device, geom, inode, |_| {}, |e| {
        for k in 0..e.len {
            map.insert(e.file_block + k, e.page + k);
        }
    });

    let page_size = pmem::PAGE_SIZE as u64;
    let nblocks = inode.size.div_ceil(page_size);
    let mut h = FNV_OFFSET;
    let mut buf = vec![0u8; pmem::PAGE_SIZE];
    for block in 0..nblocks {
        let take = (inode.size - block * page_size).min(page_size) as usize;
        let data = match map.get(&block) {
            Some(&page) if device.read(geom.page_offset(page), &mut buf).is_ok() => &buf[..take],
            _ => &vec![0u8; take][..], // unmapped hole reads as zeros
        };
        fnv1a(&mut h, &block.to_le_bytes());
        fnv1a(&mut h, data);
    }
    h
}

/// Walk the namespace from the root and return every live, committed entry
/// sorted by path — the **logical** state of the image, independent of
/// physical placement, allocator shard count, and benign crash residue
/// (orphans, stale sizes, batch residue, unpersisted tombstones), all of
/// which recovery discards. Liveness uses the same per-name sequence
/// resolution as [`fsck`]; nothing is reported.
pub fn logical_snapshot(
    device: &Arc<PmemDevice>,
    geom: &Geometry,
) -> Result<Vec<LogicalEntry>, String> {
    let mut out = Vec::new();
    let mut visited: HashSet<u64> = HashSet::new();
    visited.insert(ROOT_INO);
    let mut stack: Vec<(u64, String)> = vec![(ROOT_INO, String::new())];
    while let Some((dir, prefix)) = stack.pop() {
        let inode = match format::read_inode(device, geom, dir) {
            Ok(i) => i,
            Err(e) => return Err(e.to_string()),
        };
        let (recs, _) = committed_records(device, geom, &inode, dir, None)?;
        let mut children: Vec<(String, u64)> =
            resolve_live(recs, dir, None).into_iter().collect();
        children.sort();
        for (name, child) in children {
            let cinode = match format::read_inode(device, geom, child) {
                Ok(i) => i,
                Err(e) => return Err(e.to_string()),
            };
            if !cinode.is_committed(child) {
                continue; // dangling target: recovery drops the name
            }
            let Some(ctype) = cinode.inode_type() else {
                continue;
            };
            let path = format!("{prefix}/{name}");
            let (size, content_hash) = match ctype {
                InodeType::Regular => (
                    cinode.size,
                    file_content_hash(device, geom, &cinode),
                ),
                InodeType::Directory => (0, 0),
            };
            out.push(LogicalEntry {
                path: path.clone(),
                itype: ctype,
                uid: cinode.uid,
                size,
                content_hash,
            });
            if ctype == InodeType::Directory && visited.insert(child) {
                stack.push((child, path));
            }
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// Collapse [`logical_snapshot`] into one stable `u64` — the crash-state
/// fingerprint `crashmc` and the `schedmc` fuzzer use as a coverage
/// signal. Equal logical states hash equal by construction; physical
/// placement differences (e.g. recovering under a different
/// `ARCKFS_ALLOC_SHARDS` than the image crashed at) never enter the hash.
pub fn logical_fingerprint(device: &Arc<PmemDevice>) -> Result<u64, String> {
    let geom = format::read_superblock(device)?;
    let snap = logical_snapshot(device, &geom)?;
    let mut h = FNV_OFFSET;
    for e in &snap {
        fnv1a(&mut h, e.path.as_bytes());
        fnv1a(&mut h, &[0xFF]);
        fnv1a(&mut h, &e.itype.to_raw().to_le_bytes());
        fnv1a(&mut h, &e.uid.to_le_bytes());
        fnv1a(&mut h, &e.size.to_le_bytes());
        fnv1a(&mut h, &e.content_hash.to_le_bytes());
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Kernel, KernelConfig};

    fn fresh_device() -> Arc<PmemDevice> {
        let dev = PmemDevice::new(32 << 20);
        let geom = Geometry::new(32 << 20, 256);
        Kernel::format(dev.clone(), geom, KernelConfig::arckfs_plus()).unwrap();
        dev
    }

    #[test]
    fn fresh_fs_is_consistent() {
        let dev = fresh_device();
        let report = fsck(&dev).unwrap();
        assert!(report.is_consistent(), "issues: {:?}", report.issues);
        assert_eq!(report.reachable, 1);
    }

    #[test]
    fn garbage_device_reports_structural() {
        let dev = PmemDevice::new(1 << 20);
        assert!(fsck(&dev).is_err(), "no superblock must be an error");
    }

    /// Durably set or clear one page's bitmap bit by hand.
    fn poke_bit(dev: &Arc<PmemDevice>, geom: &Geometry, page: u64, value: bool) {
        let idx = page - geom.data_start_page;
        let off = geom.bitmap_offset() + idx / 8;
        let b = dev.read_u8(off).unwrap();
        let b = if value {
            b | 1 << (idx % 8)
        } else {
            b & !(1 << (idx % 8))
        };
        dev.write_u8(off, b).unwrap();
        dev.persist_all();
    }

    /// Hand-commit regular file `ino`: one extent leaf at
    /// `leaf` whose single record maps block 0 to `page`. Both pages are
    /// marked allocated.
    fn commit_extent_file(
        dev: &Arc<PmemDevice>,
        geom: &Geometry,
        ino: u64,
        leaf: u64,
        page: u64,
    ) {
        poke_bit(dev, geom, leaf, true);
        poke_bit(dev, geom, page, true);
        let rec = geom.page_offset(leaf) + format::EXTENT_FIRST_REC;
        dev.write_u64(rec + format::E_FILE_BLOCK, 0).unwrap();
        dev.write_u64(rec + format::E_PAGE, page).unwrap();
        dev.write_u64(rec + format::E_LEN, 1).unwrap();
        let base = geom.inode_offset(ino);
        dev.write_u32(base + format::I_TYPE, InodeType::Regular.to_raw())
            .unwrap();
        dev.write_u64(base + format::I_EXTENT_ROOT, leaf).unwrap();
        dev.write_u64(base, ino).unwrap();
        dev.persist_all();
    }

    #[test]
    fn leaked_page_is_benign_and_shard_attributed() {
        let dev = fresh_device();
        let geom = format::read_superblock(&dev).unwrap();
        let page = geom.data_start_page + 3;
        poke_bit(&dev, &geom, page, true);
        let report = fsck(&dev).unwrap();
        assert!(report.is_consistent(), "{:?}", report.issues);
        let leak = report
            .issues
            .iter()
            .find_map(|i| match i {
                FsckIssue::PageLeak { shard, page: p } => Some((*shard, *p)),
                _ => None,
            })
            .expect("leak reported");
        assert_eq!(leak.1, page);
        let ranges = pmem::ShardedPageAllocator::shard_ranges_for(
            geom.data_start_page,
            geom.data_pages(),
            pmem::default_alloc_shards(),
        );
        let (first, count) = ranges[leak.0];
        assert!(page >= first && page < first + count, "wrong shard");
    }

    #[test]
    fn reachable_page_with_clear_bit_is_fatal() {
        let dev = fresh_device();
        let geom = format::read_superblock(&dev).unwrap();
        // Link a dir-log page into the root but leave its bit clear.
        let page = geom.data_start_page + 5;
        let base = geom.inode_offset(crate::ROOT_INO);
        dev.write_u64(base + format::I_DIRECT, page).unwrap();
        dev.persist_all();
        let report = fsck(&dev).unwrap();
        assert!(!report.is_consistent());
        assert!(report.issues.iter().any(|i| matches!(
            i,
            FsckIssue::PageNotAllocated { page: p, ino: 1 } if *p == page
        )));
    }

    #[test]
    fn doubly_referenced_page_is_fatal() {
        let dev = fresh_device();
        let geom = format::read_superblock(&dev).unwrap();
        let page = geom.data_start_page + 7;
        // Root's dentry page holds one entry naming file 7, whose extent
        // chain maps `page`.
        let dirp = geom.data_start_page + 8;
        poke_bit(&dev, &geom, dirp, true);
        let root_base = geom.inode_offset(crate::ROOT_INO);
        dev.write_u64(root_base + format::I_DIRECT, dirp).unwrap();
        dev.write_u64(root_base + format::I_SIZE, 1).unwrap();
        let rec = geom.page_offset(dirp) + format::DIRPAGE_FIRST_DENTRY;
        dev.write_u64(rec + format::D_INO, 7).unwrap();
        dev.write_u64(rec + format::D_SEQ, 1).unwrap();
        dev.write(rec + format::D_NAME, b"f").unwrap();
        dev.write_u16(rec + format::D_MARKER, 1).unwrap();
        commit_extent_file(&dev, &geom, 7, geom.data_start_page + 9, page);
        // A second committed file 8 mapping the same page through its own
        // leaf, orphaned (no dentry): orphans are excluded from the
        // double-use check.
        commit_extent_file(&dev, &geom, 8, geom.data_start_page + 10, page);
        let report = fsck(&dev).unwrap();
        assert!(report.is_consistent(), "{:?}", report.issues);

        // Now link file 8 into the root as well: both owners reachable.
        let rec2 = rec + format::DENTRY_SIZE;
        dev.write_u64(rec2 + format::D_INO, 8).unwrap();
        dev.write_u64(rec2 + format::D_SEQ, 2).unwrap();
        dev.write(rec2 + format::D_NAME, b"g").unwrap();
        dev.write_u16(rec2 + format::D_MARKER, 1).unwrap();
        dev.write_u64(root_base + format::I_SIZE, 2).unwrap();
        dev.persist_all();
        let report = fsck(&dev).unwrap();
        assert!(!report.is_consistent());
        assert!(report.issues.iter().any(|i| matches!(
            i,
            FsckIssue::PageDoubleUse { page: p, .. } if *p == page
        )));

        // A reachable regular file naming a page outside its extent chain
        // (a `direct[]` word) is structural corruption.
        dev.write_u64(geom.inode_offset(7) + format::I_DIRECT, page)
            .unwrap();
        dev.persist_all();
        let report = fsck(&dev).unwrap();
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::Structural { ino: 7, .. })));
    }

    #[test]
    fn repair_clears_leaked_bits() {
        let dev = fresh_device();
        let geom = format::read_superblock(&dev).unwrap();
        let page = geom.data_start_page + 11;
        poke_bit(&dev, &geom, page, true);
        let after = repair(&dev).unwrap();
        assert!(
            !after
                .issues
                .iter()
                .any(|i| matches!(i, FsckIssue::PageLeak { .. })),
            "{:?}",
            after.issues
        );
        let idx = page - geom.data_start_page;
        let b = dev.read_u8(geom.bitmap_offset() + idx / 8).unwrap();
        assert_eq!(b & (1 << (idx % 8)), 0, "bit cleared");
    }

    #[test]
    fn orphan_inode_is_benign() {
        let dev = fresh_device();
        let geom = format::read_superblock(&dev).unwrap();
        // Hand-commit inode 7 with no dentry referencing it.
        let base = geom.inode_offset(7);
        dev.write_u32(base + 8, InodeType::Regular.to_raw())
            .unwrap();
        dev.write_u64(base, 7).unwrap();
        dev.persist_all();
        let report = fsck(&dev).unwrap();
        assert!(report.is_consistent());
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::OrphanInode { ino: 7 })));
    }
}

#[allow(clippy::items_after_test_module)]
/// Actively repair benign crash residue on a device (mutating it):
///
/// * tombstone the stale record of each same-directory rename residue
///   (the newer sequence number wins, as recovery resolves it),
/// * rewrite stale directory size fields to the live entry count,
/// * clear the commit marker of orphaned inodes so their numbers return
///   to circulation at the next remount.
///
/// Fatal issues are *not* repaired (they indicate a §4.2-class bug, not
/// residue); they are returned untouched in the report. Returns the
/// post-repair report, which contains no benign findings.
pub fn repair(device: &Arc<PmemDevice>) -> Result<FsckReport, String> {
    let geom = format::read_superblock(device)?;
    let before = fsck_with_geometry(device, &geom);

    for issue in &before.issues {
        match issue {
            FsckIssue::RenameResidue { dir, ino } => {
                // Find every live dentry for `ino` in `dir`; keep the one
                // with the highest seq, tombstone the rest.
                let inode = format::read_inode(device, &geom, *dir).map_err(|e| e.to_string())?;
                let mut records: Vec<(u64, u64)> = Vec::new(); // (seq, offset)
                format::walk_dir_log(device, &geom, &inode, |d| {
                    if d.is_live() && d.ino == *ino {
                        records.push((d.seq, d.offset));
                    }
                })?;
                records.sort_unstable();
                for (_, off) in records.iter().take(records.len().saturating_sub(1)) {
                    device
                        .write(*off + format::D_DELETED, &[1])
                        .map_err(|e| e.to_string())?;
                    device
                        .persist(*off + format::D_DELETED, 1)
                        .map_err(|e| e.to_string())?;
                }
            }
            FsckIssue::SizeMismatch { dir, actual, .. } => {
                let base = geom.inode_offset(*dir);
                device
                    .write_u64(base + format::I_SIZE, *actual)
                    .map_err(|e| e.to_string())?;
                device
                    .persist(base + format::I_SIZE, 8)
                    .map_err(|e| e.to_string())?;
            }
            FsckIssue::OrphanInode { ino } => {
                let base = geom.inode_offset(*ino);
                device.write_u64(base, 0).map_err(|e| e.to_string())?;
                device.persist(base, 8).map_err(|e| e.to_string())?;
            }
            FsckIssue::BatchResidue { dir, watermark } => {
                // Roll the open batch back: erase every gated record's
                // marker, persist, then clear the watermark — in that
                // order, so a crash mid-repair never exposes a cleared
                // watermark with a gated record still looking committed.
                let inode = format::read_inode(device, &geom, *dir).map_err(|e| e.to_string())?;
                let mut gated: Vec<u64> = Vec::new();
                format::walk_dir_log(device, &geom, &inode, |d| {
                    if d.marker != 0 && d.seq > *watermark {
                        gated.push(d.offset);
                    }
                })?;
                for off in gated {
                    device
                        .write(off + format::D_MARKER, &[0, 0])
                        .map_err(|e| e.to_string())?;
                    device
                        .persist(off + format::D_MARKER, 2)
                        .map_err(|e| e.to_string())?;
                }
                let base = geom.inode_offset(*dir);
                device
                    .write_u64(base + format::I_BATCH_SEQ, 0)
                    .map_err(|e| e.to_string())?;
                device
                    .persist(base + format::I_BATCH_SEQ, 8)
                    .map_err(|e| e.to_string())?;
            }
            FsckIssue::UnlinkResidue { dir, name } => {
                // Persist the deferred tombstone: mark deleted every live
                // record for `name` that a newer negative record for the
                // same inode supersedes.
                let inode = format::read_inode(device, &geom, *dir).map_err(|e| e.to_string())?;
                let wm = inode.batch_seq;
                let mut recs: Vec<(u64, u64, bool, u64)> = Vec::new(); // (seq, ino, deleted, off)
                format::walk_dir_log(device, &geom, &inode, |d| {
                    if d.marker == 0 || (wm != 0 && d.seq > wm) {
                        return;
                    }
                    if d.name_str() == Some(name.as_str()) {
                        recs.push((d.seq, d.ino, d.deleted, d.offset));
                    }
                })?;
                for &(seq, ino, deleted, off) in &recs {
                    if deleted {
                        continue;
                    }
                    let killed = recs.iter().any(|&(s2, i2, d2, _)| s2 > seq && d2 && i2 == ino);
                    if killed {
                        device
                            .write(off + format::D_DELETED, &[1])
                            .map_err(|e| e.to_string())?;
                        device
                            .persist(off + format::D_DELETED, 1)
                            .map_err(|e| e.to_string())?;
                    }
                }
            }
            FsckIssue::PageLeak { page, .. } => {
                // Clear the leaked bit so the allocator's next recovery
                // returns the page to circulation. Repair is offline and
                // single-threaded: a plain read-modify-write is safe here.
                let idx = page - geom.data_start_page;
                let off = geom.bitmap_offset() + idx / 8;
                let b = device.read_u8(off).map_err(|e| e.to_string())?;
                device
                    .write_u8(off, b & !(1 << (idx % 8)))
                    .map_err(|e| e.to_string())?;
                device.persist(off, 1).map_err(|e| e.to_string())?;
            }
            _ => {} // fatal issues are reported, not repaired
        }
    }

    // Repairing rename residue / sizes can cascade (a size recount after a
    // tombstone): run once more for a clean post-state.
    let mut after = fsck_with_geometry(device, &geom);
    for issue in &after.issues {
        if let FsckIssue::SizeMismatch { dir, actual, .. } = issue {
            let base = geom.inode_offset(*dir);
            device
                .write_u64(base + format::I_SIZE, *actual)
                .map_err(|e| e.to_string())?;
            device
                .persist(base + format::I_SIZE, 8)
                .map_err(|e| e.to_string())?;
        }
    }
    after = fsck_with_geometry(device, &geom);
    Ok(after)
}
