//! On-PM core-state layout.
//!
//! ArckFS keeps a *minimal* core state in NVM: a superblock, an inode table,
//! a shadow inode table, an allocator bitmap, and pages (file data pages and
//! directory dentry-log pages). This module defines that layout and typed
//! accessors over a [`PmemDevice`]. Both the kernel substrate (verifier,
//! fsck) and the LibFS use these definitions; the LibFS accesses the same
//! bytes through its granted mappings.
//!
//! ## Inode (256 bytes)
//!
//! | offset | field | notes |
//! |---|---|---|
//! | 0 | `marker: u64` | commit marker — equals the inode number when valid, 0 when free/uncommitted (the paper's §4.2 protocol) |
//! | 8 | `itype: u32` | 1 = regular, 2 = directory |
//! | 12 | `mode: u32` | permission bits ([`mode`]) |
//! | 16 | `uid: u32` | owner |
//! | 20 | `ntails: u32` | directories: number of log tails |
//! | 24 | `size: u64` | file length in bytes; directories: live entry count |
//! | 32 | `nlink: u64` | |
//! | 40 | `seq: u64` | monotone per-inode sequence (dentry ordering) |
//! | 48 | `direct[16]: u64` | directories: tail head pages; regular files: reserved, must be zero |
//! | 176 | `reserved[3]: u64` | must be zero in every committed inode |
//! | 200 | `extent_root: u64` | regular files: head of the extent-leaf chain, the file's only block mapping; 0 = no block mapped (DESIGN.md §11) |
//!
//! ## Extent leaf (one page)
//!
//! | offset | field | notes |
//! |---|---|---|
//! | 0 | `next: u64` | next leaf page (0 = end of chain) |
//! | 8 | reserved | |
//! | 16 | records | [`EXTENTS_PER_PAGE`] × 24-byte records |
//!
//! Each 24-byte record is `(file_block_start: u64, page_start: u64,
//! len: u64)` mapping `len` consecutive file blocks to `len` consecutive
//! data pages. **`len` is the commit marker**: a record is written
//! start/page first (persist), then `len` (persist), so a torn insert
//! leaves `len == 0` — an invisible hole skipped by every reader, whose
//! already-allocated pages surface as benign `PageLeak` fsck residue.
//!
//! ## Dentry (128 bytes, two cache lines)
//!
//! | offset | field | notes |
//! |---|---|---|
//! | 0 | `marker: u16` | name length; **the commit marker** — 0 = slot not committed. (The TRIO artifact uses `dir->name_len` the same way.) |
//! | 2 | `deleted: u8` | 1 = tombstoned by unlink/rename |
//! | 8 | `ino: u64` | target inode |
//! | 16 | `seq: u64` | per-directory sequence for replay ordering |
//! | 24 | `name[104]` | spans into the second cache line for names > 40 bytes |
//!
//! A dentry whose name is longer than 40 bytes spans both cache lines of its
//! record, which is precisely the geometry that makes the §4.2 missing-fence
//! bug observable: the first line (with the marker) can persist while the
//! second (with the name tail) does not.

use std::sync::Arc;

use pmem::{PmemDevice, PmemResult, PAGE_SIZE};

/// Inode record size in bytes.
pub const INODE_SIZE: u64 = 256;
/// Inodes per page of the inode table.
pub const INODES_PER_PAGE: u64 = PAGE_SIZE as u64 / INODE_SIZE;

/// Shadow-inode record size in bytes (see [`crate::shadow`]).
pub const SHADOW_SIZE: u64 = 64;
/// Shadow inodes per page.
pub const SHADOWS_PER_PAGE: u64 = PAGE_SIZE as u64 / SHADOW_SIZE;

/// Dentry record size in bytes.
pub const DENTRY_SIZE: u64 = 128;
/// Maximum name bytes a dentry can hold.
pub const DENTRY_NAME_CAP: usize = 104;
/// Offset of the first dentry in a directory-log page (the page header
/// occupies one full record so dentries stay cache-line aligned).
pub const DIRPAGE_FIRST_DENTRY: u64 = 128;
/// Dentries per directory-log page.
pub const DENTRIES_PER_PAGE: u64 = (PAGE_SIZE as u64 - DIRPAGE_FIRST_DENTRY) / DENTRY_SIZE;

/// Number of `direct[]` words in an inode (directory tail heads).
pub const NDIRECT: usize = 16;

// Inode field offsets.
/// Inode field offset.
pub const I_MARKER: u64 = 0;
/// Inode field offset.
pub const I_TYPE: u64 = 8;
/// Inode field offset.
pub const I_MODE: u64 = 12;
/// Inode field offset.
pub const I_UID: u64 = 16;
/// Inode field offset.
pub const I_NTAILS: u64 = 20;
/// Inode field offset.
pub const I_SIZE: u64 = 24;
/// Inode field offset.
pub const I_NLINK: u64 = 32;
/// Inode field offset.
pub const I_SEQ: u64 = 40;
/// Inode field offset.
pub const I_DIRECT: u64 = 48;
/// Inode field offset: three reserved words, zero in every committed
/// inode.
pub const I_RESERVED: u64 = 176;
/// Inode field offset: extent-tree root (regular files; 0 = no block
/// mapped).
pub const I_EXTENT_ROOT: u64 = 200;

// Extent-leaf page layout.
/// Extent-leaf page header: next-leaf pointer.
pub const EP_NEXT: u64 = 0;
/// Offset of the first extent record in a leaf page.
pub const EXTENT_FIRST_REC: u64 = 16;
/// Extent record size in bytes.
pub const EXTENT_REC_SIZE: u64 = 24;
/// Extent record field offset: first file block covered.
pub const E_FILE_BLOCK: u64 = 0;
/// Extent record field offset: first data page of the run.
pub const E_PAGE: u64 = 8;
/// Extent record field offset: run length in blocks — the commit marker
/// (0 = uncommitted/hole).
pub const E_LEN: u64 = 16;
/// Extent records per leaf page.
pub const EXTENTS_PER_PAGE: u64 = (PAGE_SIZE as u64 - EXTENT_FIRST_REC) / EXTENT_REC_SIZE;

// Dentry field offsets.
/// Dentry field offset.
pub const D_MARKER: u64 = 0;
/// Dentry field offset.
pub const D_DELETED: u64 = 2;
/// Dentry field offset.
pub const D_INO: u64 = 8;
/// Dentry field offset.
pub const D_SEQ: u64 = 16;
/// Dentry field offset.
pub const D_NAME: u64 = 24;

// Directory-log page header.
/// Directory-log page header: next-page pointer.
pub const DP_NEXT: u64 = 0;

/// Superblock magic value ("ARCKFSPM").
pub const SUPER_MAGIC: u64 = 0x4152_434b_4653_504d;

// Superblock field offsets (page 0).
/// Superblock field offset.
pub const SB_MAGIC: u64 = 0;
/// Superblock field offset.
pub const SB_PAGES: u64 = 8;
/// Superblock field offset.
pub const SB_MAX_INODES: u64 = 16;

/// Permission bits stored in the inode `mode` field.
pub mod mode {
    /// Owner may write.
    pub const OWNER_W: u32 = 0o200;
    /// Owner may read.
    pub const OWNER_R: u32 = 0o400;
    /// Others may write.
    pub const OTHER_W: u32 = 0o002;
    /// Others may read.
    pub const OTHER_R: u32 = 0o004;
    /// rw for owner, rw for others (the benchmarks' default).
    pub const RW_ALL: u32 = OWNER_R | OWNER_W | OTHER_R | OTHER_W;
    /// rw owner, read-only others (the §3.1 attack scenario's dir3/file1).
    pub const RW_OWNER_RO_OTHER: u32 = OWNER_R | OWNER_W | OTHER_R;

    /// May `uid` write to an inode owned by `owner` with `mode`?
    pub fn can_write(mode: u32, owner: u32, uid: u32) -> bool {
        if uid == owner {
            mode & OWNER_W != 0
        } else {
            mode & OTHER_W != 0
        }
    }

    /// May `uid` read an inode owned by `owner` with `mode`?
    pub fn can_read(mode: u32, owner: u32, uid: u32) -> bool {
        if uid == owner {
            mode & OWNER_R != 0
        } else {
            mode & OTHER_R != 0
        }
    }
}

/// Inode type tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InodeType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
}

impl InodeType {
    /// On-PM encoding.
    pub fn to_raw(self) -> u32 {
        match self {
            InodeType::Regular => 1,
            InodeType::Directory => 2,
        }
    }

    /// Decode; `None` for unknown tags (corruption).
    pub fn from_raw(v: u32) -> Option<Self> {
        match v {
            1 => Some(InodeType::Regular),
            2 => Some(InodeType::Directory),
            _ => None,
        }
    }
}

/// Where everything lives on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Total pages on the device.
    pub total_pages: u64,
    /// Maximum number of inodes.
    pub max_inodes: u64,
    /// First page of the inode table.
    pub inode_table_page: u64,
    /// Pages in the inode table.
    pub inode_table_pages: u64,
    /// First page of the shadow table.
    pub shadow_page: u64,
    /// Pages in the shadow table.
    pub shadow_pages: u64,
    /// First page of the allocator bitmap.
    pub bitmap_page: u64,
    /// Pages in the allocator bitmap.
    pub bitmap_pages: u64,
    /// First allocatable data page.
    pub data_start_page: u64,
}

impl Geometry {
    /// Compute the layout for a device of `device_len` bytes with room for
    /// `max_inodes` inodes.
    pub fn new(device_len: usize, max_inodes: u64) -> Geometry {
        let total_pages = (device_len / PAGE_SIZE) as u64;
        let inode_table_page = 1;
        let inode_table_pages = max_inodes.div_ceil(INODES_PER_PAGE);
        let shadow_page = inode_table_page + inode_table_pages;
        let shadow_pages = max_inodes.div_ceil(SHADOWS_PER_PAGE);
        let bitmap_page = shadow_page + shadow_pages;
        // One bit per page of the whole device (slight overcount; simple).
        let bitmap_pages = total_pages.div_ceil(8 * PAGE_SIZE as u64).max(1);
        let data_start_page = bitmap_page + bitmap_pages;
        assert!(
            data_start_page < total_pages,
            "device too small: {device_len} bytes for {max_inodes} inodes"
        );
        Geometry {
            total_pages,
            max_inodes,
            inode_table_page,
            inode_table_pages,
            shadow_page,
            shadow_pages,
            bitmap_page,
            bitmap_pages,
            data_start_page,
        }
    }

    /// A reasonable default: inode count scaled to device size, capped to
    /// keep table overhead small.
    pub fn for_device(device_len: usize) -> Geometry {
        let pages = (device_len / PAGE_SIZE) as u64;
        let max_inodes = (pages / 2).clamp(64, 1 << 20);
        Geometry::new(device_len, max_inodes)
    }

    /// Device byte offset of inode `ino`'s record.
    pub fn inode_offset(&self, ino: u64) -> u64 {
        debug_assert!(ino >= 1 && ino <= self.max_inodes, "ino {ino} out of range");
        self.inode_table_page * PAGE_SIZE as u64 + (ino - 1) * INODE_SIZE
    }

    /// Device byte offset of inode `ino`'s shadow record.
    pub fn shadow_offset(&self, ino: u64) -> u64 {
        debug_assert!(ino >= 1 && ino <= self.max_inodes);
        self.shadow_page * PAGE_SIZE as u64 + (ino - 1) * SHADOW_SIZE
    }

    /// Device byte offset of the allocator bitmap.
    pub fn bitmap_offset(&self) -> u64 {
        self.bitmap_page * PAGE_SIZE as u64
    }

    /// Number of allocatable data pages.
    pub fn data_pages(&self) -> u64 {
        self.total_pages - self.data_start_page
    }

    /// Device byte offset of page `page`.
    pub fn page_offset(&self, page: u64) -> u64 {
        page * PAGE_SIZE as u64
    }
}

/// A decoded inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawInode {
    /// Commit marker (equals `ino` when valid).
    pub marker: u64,
    /// Type tag (raw; may be corrupt).
    pub itype: u32,
    /// Permission bits.
    pub mode: u32,
    /// Owner uid.
    pub uid: u32,
    /// Directory log tail count.
    pub ntails: u32,
    /// Size in bytes (files) or live entries (dirs).
    pub size: u64,
    /// Link count.
    pub nlink: u64,
    /// Per-inode sequence counter.
    pub seq: u64,
    /// Tail heads (directories); reserved-zero for regular files.
    pub direct: [u64; NDIRECT],
    /// The three reserved words after `direct[]`; zero when well-formed.
    pub reserved: [u64; 3],
    /// Extent-tree root (regular files; 0 = no block mapped).
    pub extent_root: u64,
}

impl RawInode {
    /// Is the commit marker valid for inode number `ino`?
    pub fn is_committed(&self, ino: u64) -> bool {
        self.marker == ino && ino != 0
    }

    /// Decoded type, if the tag is well-formed.
    pub fn inode_type(&self) -> Option<InodeType> {
        InodeType::from_raw(self.itype)
    }

    /// Are the reserved words all zero? Required of every committed inode:
    /// no reader gives them a meaning, so a LibFS must not be able to plant
    /// one for a later reader to act on.
    pub fn reserved_clear(&self) -> bool {
        self.reserved.iter().all(|&w| w == 0)
    }

    /// Are `direct[]` and the reserved words all zero? Required of every
    /// committed regular file: its only block mapping is the extent chain,
    /// so a non-zero word here names a page nothing accounts for.
    pub fn pointer_words_clear(&self) -> bool {
        self.direct.iter().all(|&w| w == 0) && self.reserved_clear()
    }
}

/// Read the inode record for `ino` directly from the device (kernel-side;
/// the LibFS reads through its mapping instead). The whole 256-byte record
/// is fetched with one device access and decoded from the buffer.
pub fn read_inode(dev: &Arc<PmemDevice>, geom: &Geometry, ino: u64) -> PmemResult<RawInode> {
    let base = geom.inode_offset(ino);
    let mut rec = [0u8; INODE_SIZE as usize];
    dev.read(base, &mut rec)?;
    Ok(decode_inode(&rec))
}

/// Decode an inode record from its raw bytes.
pub fn decode_inode(rec: &[u8; INODE_SIZE as usize]) -> RawInode {
    let u64_at =
        |off: u64| u64::from_le_bytes(rec[off as usize..off as usize + 8].try_into().expect("8"));
    let u32_at =
        |off: u64| u32::from_le_bytes(rec[off as usize..off as usize + 4].try_into().expect("4"));
    let mut direct = [0u64; NDIRECT];
    for (i, d) in direct.iter_mut().enumerate() {
        *d = u64_at(I_DIRECT + 8 * i as u64);
    }
    RawInode {
        marker: u64_at(I_MARKER),
        itype: u32_at(I_TYPE),
        mode: u32_at(I_MODE),
        uid: u32_at(I_UID),
        ntails: u32_at(I_NTAILS),
        size: u64_at(I_SIZE),
        nlink: u64_at(I_NLINK),
        seq: u64_at(I_SEQ),
        direct,
        reserved: [
            u64_at(I_RESERVED),
            u64_at(I_RESERVED + 8),
            u64_at(I_RESERVED + 16),
        ],
        extent_root: u64_at(I_EXTENT_ROOT),
    }
}

/// A decoded, committed extent record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawExtent {
    /// First file block the run covers.
    pub file_block: u64,
    /// First data page of the run.
    pub page: u64,
    /// Run length in blocks (always > 0 for a committed record).
    pub len: u64,
}

/// Walk a regular file's extent-leaf chain, calling `leaf` for every leaf
/// page and `rec` for every **committed** record (`len != 0`; torn inserts
/// are invisible holes). Returns an error string on structural corruption
/// (leaf pointer out of the data region, pointer cycle, mapped run out of
/// range).
pub fn walk_extents(
    dev: &Arc<PmemDevice>,
    geom: &Geometry,
    inode: &RawInode,
    mut leaf: impl FnMut(u64),
    mut rec: impl FnMut(RawExtent),
) -> Result<(), String> {
    let mut page = inode.extent_root;
    let mut hops = 0u64;
    while page != 0 {
        if page < geom.data_start_page || page >= geom.total_pages {
            return Err(format!("extent leaf page {page} out of data region"));
        }
        hops += 1;
        if hops > geom.total_pages {
            return Err("extent leaf chain cycle".to_string());
        }
        leaf(page);
        let base = geom.page_offset(page);
        let mut buf = [0u8; PAGE_SIZE];
        dev.read(base, &mut buf).map_err(|e| e.to_string())?;
        for slot in 0..EXTENTS_PER_PAGE {
            let off = (EXTENT_FIRST_REC + slot * EXTENT_REC_SIZE) as usize;
            let u64_at = |field: u64| {
                let at = off + field as usize;
                u64::from_le_bytes(buf[at..at + 8].try_into().expect("8"))
            };
            let len = u64_at(E_LEN);
            if len == 0 {
                continue; // uncommitted hole; later slots may be committed
            }
            let ext = RawExtent {
                file_block: u64_at(E_FILE_BLOCK),
                page: u64_at(E_PAGE),
                len,
            };
            // `page` and `len` are LibFS-written: compare without adding.
            if ext.page < geom.data_start_page
                || ext.page >= geom.total_pages
                || ext.len > geom.total_pages - ext.page
            {
                return Err(format!(
                    "extent run [{}, +{}) out of data region",
                    ext.page, ext.len
                ));
            }
            rec(ext);
        }
        page = u64::from_le_bytes(buf[0..8].try_into().expect("8"));
    }
    Ok(())
}

/// A decoded dentry record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDentry {
    /// Device offset of the record.
    pub offset: u64,
    /// Commit marker (name length; 0 = uncommitted slot).
    pub marker: u16,
    /// Tombstone flag.
    pub deleted: bool,
    /// Target inode.
    pub ino: u64,
    /// Per-directory sequence.
    pub seq: u64,
    /// Name bytes (exactly `marker` bytes).
    pub name: Vec<u8>,
}

impl RawDentry {
    /// True when the record is a committed, live entry.
    pub fn is_live(&self) -> bool {
        self.marker != 0 && !self.deleted
    }

    /// The name as UTF-8, if valid.
    pub fn name_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.name).ok()
    }

    /// A partially persisted name contains NUL bytes (the unpersisted
    /// region of a zero-initialized device) — the §4.2 corruption signature.
    pub fn name_has_nul(&self) -> bool {
        self.name.contains(&0)
    }
}

/// Read the dentry record at absolute device offset `off` (one device
/// access for the whole 128-byte record).
pub fn read_dentry(dev: &Arc<PmemDevice>, off: u64) -> PmemResult<RawDentry> {
    let mut rec = [0u8; DENTRY_SIZE as usize];
    dev.read(off, &mut rec)?;
    Ok(decode_dentry(&rec, off))
}

/// Decode a dentry record from its raw bytes.
pub fn decode_dentry(rec: &[u8; DENTRY_SIZE as usize], off: u64) -> RawDentry {
    let marker = u16::from_le_bytes(
        rec[D_MARKER as usize..D_MARKER as usize + 2]
            .try_into()
            .expect("2"),
    );
    let deleted = rec[D_DELETED as usize] != 0;
    let ino = u64::from_le_bytes(
        rec[D_INO as usize..D_INO as usize + 8]
            .try_into()
            .expect("8"),
    );
    let seq = u64::from_le_bytes(
        rec[D_SEQ as usize..D_SEQ as usize + 8]
            .try_into()
            .expect("8"),
    );
    let name_len = (marker as usize).min(DENTRY_NAME_CAP);
    let name = rec[D_NAME as usize..D_NAME as usize + name_len].to_vec();
    RawDentry {
        offset: off,
        marker,
        deleted,
        ino,
        seq,
        name,
    }
}

/// One page of a directory's dentry log, as [`walk_dir_pages`] visits it.
pub struct DirLogPage<'a> {
    /// Index of the log tail whose chain holds this page.
    pub tail: usize,
    /// Page number.
    pub page: u64,
    /// The page image, fetched with one device access.
    pub bytes: &'a [u8; PAGE_SIZE],
}

impl DirLogPage<'_> {
    /// The page header's next-page pointer (0 = last page of its chain).
    pub fn next(&self) -> u64 {
        u64::from_le_bytes(self.bytes[0..8].try_into().expect("8"))
    }

    /// The record in `slot`, if its commit marker is set.
    fn committed(&self, slot: u64) -> Option<&[u8; DENTRY_SIZE as usize]> {
        let off = (DIRPAGE_FIRST_DENTRY + slot * DENTRY_SIZE) as usize;
        let rec: &[u8; DENTRY_SIZE as usize] = self.bytes[off..off + DENTRY_SIZE as usize]
            .try_into()
            .expect("record within page");
        (u16::from_le_bytes([rec[0], rec[1]]) != 0).then_some(rec)
    }

    /// Call `f` for every committed record (live or tombstoned) in slot
    /// order. An uncommitted slot (marker 0) is a hole — e.g. a reservation
    /// that never committed — and later slots may still hold committed
    /// records, so the whole page is scanned.
    pub fn dentries(&self, mut f: impl FnMut(RawDentry)) {
        let base = self.page * PAGE_SIZE as u64 + DIRPAGE_FIRST_DENTRY;
        for slot in 0..DENTRIES_PER_PAGE {
            if let Some(rec) = self.committed(slot) {
                f(decode_dentry(rec, base + slot * DENTRY_SIZE));
            }
        }
    }

    /// Slot index one past the last committed record: where an appender
    /// that finds this page at the end of its chain continues.
    pub fn next_slot(&self) -> u64 {
        (0..DENTRIES_PER_PAGE)
            .rev()
            .find(|&slot| self.committed(slot).is_some())
            .map_or(0, |slot| slot + 1)
    }
}

/// Follow a directory's multi-tailed log, tail by tail in chain order:
/// `visit(tail, page)` reads the page however it needs to and returns the
/// page's next-page pointer, or an error that stops the walk.
///
/// Returns an error string on structural corruption: a page pointer outside
/// the data region, or a page linked twice (a pointer cycle, or two chains
/// sharing a page) — detected at the repeated link, before `visit` sees the
/// page again.
pub fn walk_dir_chain(
    geom: &Geometry,
    inode: &RawInode,
    mut visit: impl FnMut(usize, u64) -> Result<u64, String>,
) -> Result<(), String> {
    let ntails = (inode.ntails as usize).min(NDIRECT);
    let mut seen = std::collections::HashSet::new();
    for tail in 0..ntails {
        let mut page = inode.direct[tail];
        while page != 0 {
            if page < geom.data_start_page || page >= geom.total_pages {
                return Err(format!("dir log page {page} out of data region"));
            }
            if !seen.insert(page) {
                return Err(format!("dir log page cycle (page {page} linked twice)"));
            }
            page = visit(tail, page)?;
        }
    }
    Ok(())
}

/// Visit every page of a directory's multi-tailed log, tail by tail in
/// chain order, reading each page from the device exactly once. `f` may
/// stop the walk by returning an error; structural corruption is reported
/// as by [`walk_dir_chain`].
pub fn walk_dir_pages(
    dev: &Arc<PmemDevice>,
    geom: &Geometry,
    inode: &RawInode,
    mut f: impl FnMut(DirLogPage<'_>) -> Result<(), String>,
) -> Result<(), String> {
    let mut buf = [0u8; PAGE_SIZE];
    walk_dir_chain(geom, inode, |tail, page| {
        dev.read(geom.page_offset(page), &mut buf)
            .map_err(|e| e.to_string())?;
        let visit = DirLogPage {
            tail,
            page,
            bytes: &buf,
        };
        let next = visit.next();
        f(visit)?;
        Ok(next)
    })
}

/// Walk every dentry record of a directory's multi-tailed log, calling `f`
/// for each committed record (live or tombstoned).
///
/// Returns an error string on structural corruption (see
/// [`walk_dir_pages`]).
pub fn walk_dir_log(
    dev: &Arc<PmemDevice>,
    geom: &Geometry,
    inode: &RawInode,
    mut f: impl FnMut(RawDentry),
) -> Result<(), String> {
    walk_dir_pages(dev, geom, inode, |p| {
        p.dentries(&mut f);
        Ok(())
    })
}

/// Format the superblock (page 0) and persist it.
pub fn write_superblock(dev: &Arc<PmemDevice>, geom: &Geometry) -> PmemResult<()> {
    dev.write_u64(SB_MAGIC, SUPER_MAGIC)?;
    dev.write_u64(SB_PAGES, geom.total_pages)?;
    dev.write_u64(SB_MAX_INODES, geom.max_inodes)?;
    dev.persist(0, 24)?;
    Ok(())
}

/// Validate the superblock and reconstruct the geometry.
pub fn read_superblock(dev: &Arc<PmemDevice>) -> Result<Geometry, String> {
    let magic = dev.read_u64(SB_MAGIC).map_err(|e| e.to_string())?;
    if magic != SUPER_MAGIC {
        return Err(format!("bad superblock magic {magic:#x}"));
    }
    let pages = dev.read_u64(SB_PAGES).map_err(|e| e.to_string())?;
    let max_inodes = dev.read_u64(SB_MAX_INODES).map_err(|e| e.to_string())?;
    if pages != dev.page_count() {
        return Err(format!(
            "superblock page count {pages} != device {}",
            dev.page_count()
        ));
    }
    Ok(Geometry::new(dev.len(), max_inodes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_layout_is_ordered_and_disjoint() {
        let g = Geometry::new(64 << 20, 1024);
        assert!(g.inode_table_page >= 1);
        assert!(g.shadow_page >= g.inode_table_page + g.inode_table_pages);
        assert!(g.bitmap_page >= g.shadow_page + g.shadow_pages);
        assert!(g.data_start_page >= g.bitmap_page + g.bitmap_pages);
        assert!(g.data_start_page < g.total_pages);
        assert!(g.data_pages() > 0);
    }

    #[test]
    fn inode_offsets_do_not_overlap() {
        let g = Geometry::new(64 << 20, 1024);
        assert_eq!(g.inode_offset(2) - g.inode_offset(1), INODE_SIZE);
        assert_eq!(g.shadow_offset(2) - g.shadow_offset(1), SHADOW_SIZE);
    }

    #[test]
    fn mode_checks() {
        use mode::*;
        assert!(can_write(RW_ALL, 1, 1));
        assert!(can_write(RW_ALL, 1, 2));
        assert!(can_write(RW_OWNER_RO_OTHER, 1, 1));
        assert!(!can_write(RW_OWNER_RO_OTHER, 1, 2));
        assert!(can_read(RW_OWNER_RO_OTHER, 1, 2));
    }

    #[test]
    fn inode_round_trip() {
        let dev = PmemDevice::new(64 << 20);
        let g = Geometry::new(64 << 20, 256);
        let base = g.inode_offset(5);
        dev.write_u64(base + I_MARKER, 5).unwrap();
        dev.write_u32(base + I_TYPE, 2).unwrap();
        dev.write_u32(base + I_NTAILS, 4).unwrap();
        dev.write_u64(base + I_SIZE, 7).unwrap();
        dev.write_u64(base + I_DIRECT, 99).unwrap();
        let ino = read_inode(&dev, &g, 5).unwrap();
        assert!(ino.is_committed(5));
        assert_eq!(ino.inode_type(), Some(InodeType::Directory));
        assert_eq!(ino.ntails, 4);
        assert_eq!(ino.size, 7);
        assert_eq!(ino.direct[0], 99);
        assert!(!ino.is_committed(6));
    }

    #[test]
    fn dentry_round_trip() {
        let dev = PmemDevice::new(1 << 20);
        let off = 4096;
        dev.write_u16(off + D_MARKER, 5).unwrap();
        dev.write_u64(off + D_INO, 42).unwrap();
        dev.write_u64(off + D_SEQ, 3).unwrap();
        dev.write(off + D_NAME, b"hello").unwrap();
        let d = read_dentry(&dev, off).unwrap();
        assert!(d.is_live());
        assert_eq!(d.name_str(), Some("hello"));
        assert_eq!(d.ino, 42);
        assert_eq!(d.seq, 3);
        assert!(!d.name_has_nul());
    }

    #[test]
    fn dentry_nul_detection() {
        let dev = PmemDevice::new(1 << 20);
        let off = 4096;
        // Marker says 50 bytes but only 10 name bytes were "persisted".
        dev.write_u16(off + D_MARKER, 50).unwrap();
        dev.write(off + D_NAME, b"persisted!").unwrap();
        let d = read_dentry(&dev, off).unwrap();
        assert!(d.name_has_nul(), "partially persisted name must show NULs");
    }

    #[test]
    fn superblock_round_trip() {
        let dev = PmemDevice::new(64 << 20);
        let g = Geometry::new(64 << 20, 512);
        write_superblock(&dev, &g).unwrap();
        let g2 = read_superblock(&dev).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn superblock_rejects_garbage() {
        let dev = PmemDevice::new(1 << 20);
        assert!(read_superblock(&dev).is_err());
    }

    #[test]
    fn inode_type_raw_round_trip() {
        assert_eq!(
            InodeType::from_raw(InodeType::Regular.to_raw()),
            Some(InodeType::Regular)
        );
        assert_eq!(
            InodeType::from_raw(InodeType::Directory.to_raw()),
            Some(InodeType::Directory)
        );
        assert_eq!(InodeType::from_raw(7), None);
    }

    #[test]
    fn extent_walk_round_trip() {
        let dev = PmemDevice::new(64 << 20);
        let g = Geometry::new(64 << 20, 256);
        let base = g.inode_offset(7);
        dev.write_u64(base + I_MARKER, 7).unwrap();
        dev.write_u32(base + I_TYPE, 1).unwrap();
        let leaf = g.data_start_page;
        dev.write_u64(base + I_EXTENT_ROOT, leaf).unwrap();
        let leaf_base = g.page_offset(leaf);
        // Slot 0: committed run [block 0 -> page data_start+1, len 2].
        let s0 = leaf_base + EXTENT_FIRST_REC;
        dev.write_u64(s0 + E_FILE_BLOCK, 0).unwrap();
        dev.write_u64(s0 + E_PAGE, leaf + 1).unwrap();
        dev.write_u64(s0 + E_LEN, 2).unwrap();
        // Slot 1: torn insert — start/page persisted, len (marker) not.
        let s1 = s0 + EXTENT_REC_SIZE;
        dev.write_u64(s1 + E_FILE_BLOCK, 9).unwrap();
        dev.write_u64(s1 + E_PAGE, leaf + 3).unwrap();
        // Slot 2: committed after the hole.
        let s2 = s1 + EXTENT_REC_SIZE;
        dev.write_u64(s2 + E_FILE_BLOCK, 4).unwrap();
        dev.write_u64(s2 + E_PAGE, leaf + 4).unwrap();
        dev.write_u64(s2 + E_LEN, 1).unwrap();
        let ino = read_inode(&dev, &g, 7).unwrap();
        assert_eq!(ino.extent_root, leaf);
        let (mut leaves, mut recs) = (Vec::new(), Vec::new());
        walk_extents(&dev, &g, &ino, |p| leaves.push(p), |e| recs.push(e)).unwrap();
        assert_eq!(leaves, vec![leaf]);
        assert_eq!(
            recs,
            vec![
                RawExtent { file_block: 0, page: leaf + 1, len: 2 },
                RawExtent { file_block: 4, page: leaf + 4, len: 1 },
            ],
            "torn slot 1 must be invisible"
        );
    }

    #[test]
    fn extent_geometry_fits_page() {
        assert!(EXTENT_FIRST_REC + EXTENTS_PER_PAGE * EXTENT_REC_SIZE <= PAGE_SIZE as u64);
        assert_eq!(EXTENTS_PER_PAGE, 170);
        const { assert!(I_EXTENT_ROOT + 8 <= INODE_SIZE) };
    }

    #[test]
    fn dentry_geometry_fits_page() {
        assert!(DIRPAGE_FIRST_DENTRY + DENTRIES_PER_PAGE * DENTRY_SIZE <= PAGE_SIZE as u64);
        assert_eq!(DENTRIES_PER_PAGE, 31);
    }
}
