//! Per-file extent trees: the crash-atomic block mapping behind the
//! parallel data path (DESIGN.md §11).
//!
//! A regular file maps its blocks through a chain of **extent leaves**
//! (one page each, linked via a next pointer at offset 0) headed by the
//! inode's `extent_root`; 0 means no block is mapped yet. Each leaf holds
//! 24-byte records
//! `(file_block_start, page_start, len)`; `len` is the record's commit
//! marker, published *after* the other two fields persist, so a torn
//! insert is an invisible hole whose pages surface as benign `PageLeak`
//! fsck residue — the §4.2 commit-marker protocol applied to the block
//! map.
//!
//! Records are append-only; a record's run only ever shrinks (truncate
//! decommits a run's tail by a single-field `len` store), and should two
//! records ever cover one block, the later one wins at reload. Data
//! blocks are never remapped: every write lands in the page already
//! mapped (`crate::file`, "Commit rule").
//!
//! The chain is mirrored in a DRAM cache inside the [`MemInode`] (the
//! paper's auxiliary-state discipline): lookups take a read lock over a
//! `BTreeMap`, mutations a write lock. The cache is rebuilt from PM on
//! first touch and invalidated on inode revival, since another LibFS may
//! have grown the file while the inode was released.

use std::collections::BTreeMap;

use pmem::{Mapping, PAGE_SIZE};
use trio::format::{
    EP_NEXT, EXTENTS_PER_PAGE, EXTENT_FIRST_REC, EXTENT_REC_SIZE, E_FILE_BLOCK, E_LEN, E_PAGE,
    I_EXTENT_ROOT,
};
use vfs::FsResult;

use crate::dir::map_fault;
use crate::file::zero_bytes;
use crate::inode::MemInode;
use crate::libfs::LibFs;

/// One cached (committed) extent record and where it lives on PM.
#[derive(Debug, Clone, Copy)]
struct CachedRec {
    leaf: u64,
    slot: u64,
    file_block: u64,
    page: u64,
    len: u64,
}

impl CachedRec {
    fn slot_off(&self) -> u64 {
        self.leaf * PAGE_SIZE as u64 + EXTENT_FIRST_REC + self.slot * EXTENT_REC_SIZE
    }
}

/// DRAM mirror of one file's extent chain. Lives in the [`MemInode`];
/// all access goes through the `LibFs::extent_*` methods.
#[derive(Debug, Default)]
pub struct ExtentCache {
    loaded: bool,
    /// `file_block → data page` with later records already resolved.
    map: BTreeMap<u64, u64>,
    /// Committed records in chain (= temporal) order.
    recs: Vec<CachedRec>,
    /// Last leaf of the chain (0 = no chain yet).
    tail_leaf: u64,
    /// Next free slot in `tail_leaf` (append-only; holes are skipped).
    tail_slot: u64,
}

impl ExtentCache {
    /// Drop the mirror; the next touch reloads from PM. Called on inode
    /// revival — another LibFS may have changed the chain while the inode
    /// was released.
    pub fn invalidate(&mut self) {
        *self = ExtentCache::default();
    }
}

impl LibFs {
    /// Zero a freshly allocated page through the mapping and flush it.
    pub(crate) fn zero_page(&self, mapping: &Mapping, page: u64) -> FsResult<()> {
        zero_bytes(mapping, page * PAGE_SIZE as u64, PAGE_SIZE)
    }

    /// Rebuild the DRAM mirror from the on-PM chain if it is not loaded.
    /// Must be called with the cache write lock held.
    fn extent_load(
        &self,
        cache: &mut ExtentCache,
        file: &MemInode,
        mapping: &Mapping,
    ) -> FsResult<()> {
        if cache.loaded {
            return Ok(());
        }
        let ibase = self.geom.inode_offset(file.ino);
        let mut leaf = mapping.read_u64(ibase + I_EXTENT_ROOT).map_err(map_fault)?;
        let mut hops = 0u64;
        while leaf != 0 && hops <= self.geom.total_pages {
            hops += 1;
            let base = leaf * PAGE_SIZE as u64;
            let mut last_committed = 0u64;
            for slot in 0..EXTENTS_PER_PAGE {
                let off = base + EXTENT_FIRST_REC + slot * EXTENT_REC_SIZE;
                let len = mapping.read_u64(off + E_LEN).map_err(map_fault)?;
                if len == 0 {
                    continue; // torn insert: an invisible hole
                }
                last_committed = slot + 1;
                let rec = CachedRec {
                    leaf,
                    slot,
                    file_block: mapping.read_u64(off + E_FILE_BLOCK).map_err(map_fault)?,
                    page: mapping.read_u64(off + E_PAGE).map_err(map_fault)?,
                    len,
                };
                for k in 0..rec.len {
                    cache.map.insert(rec.file_block + k, rec.page + k);
                }
                cache.recs.push(rec);
            }
            let next = mapping.read_u64(base + EP_NEXT).map_err(map_fault)?;
            if next == 0 {
                cache.tail_leaf = leaf;
                cache.tail_slot = last_committed;
            }
            leaf = next;
        }
        cache.loaded = true;
        Ok(())
    }

    /// Answer `query` from the loaded cache, loading it first if needed.
    fn extent_read<T>(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        query: impl Fn(&ExtentCache) -> T,
    ) -> FsResult<T> {
        {
            let cache = file.extents.read();
            if cache.loaded {
                return Ok(query(&cache));
            }
        }
        let mut cache = file.extents.write();
        self.extent_load(&mut cache, file, mapping)?;
        Ok(query(&cache))
    }

    /// The data page mapped at block `idx`, or 0 for a hole.
    pub(crate) fn extent_lookup(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        idx: u64,
    ) -> FsResult<u64> {
        self.extent_read(file, mapping, |c| c.map.get(&idx).copied().unwrap_or(0))
    }

    /// The mapped `(block, page)` pairs of blocks `first..=last`, in block
    /// order — found through the cache's map, so the cost is what is
    /// mapped, not the span.
    pub(crate) fn extent_mapped(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        first: u64,
        last: u64,
    ) -> FsResult<Vec<(u64, u64)>> {
        self.extent_read(file, mapping, |c| {
            c.map.range(first..=last).map(|(&b, &p)| (b, p)).collect()
        })
    }

    /// Append one committed record to the chain (write lock held),
    /// growing the chain by a leaf when the tail is full. The §4.2-style
    /// ordering — payload, persist, fence, *then* marker — makes the
    /// insert crash-atomic.
    fn extent_append_rec(
        &self,
        cache: &mut ExtentCache,
        file: &MemInode,
        mapping: &Mapping,
        file_block: u64,
        page: u64,
        len: u64,
    ) -> FsResult<()> {
        let ibase = self.geom.inode_offset(file.ino);
        if cache.tail_leaf == 0 {
            // First leaf: allocate-zero-link, root pointer last.
            let leaf = self.alloc_page()?;
            self.zero_page(mapping, leaf)?;
            mapping.sfence();
            mapping
                .write_u64(ibase + I_EXTENT_ROOT, leaf)
                .map_err(map_fault)?;
            mapping.clwb(ibase + I_EXTENT_ROOT, 8).map_err(map_fault)?;
            mapping.sfence();
            cache.tail_leaf = leaf;
            cache.tail_slot = 0;
        } else if cache.tail_slot >= EXTENTS_PER_PAGE {
            let leaf = self.alloc_page()?;
            self.zero_page(mapping, leaf)?;
            mapping.sfence();
            let next_off = cache.tail_leaf * PAGE_SIZE as u64 + EP_NEXT;
            mapping.write_u64(next_off, leaf).map_err(map_fault)?;
            mapping.clwb(next_off, 8).map_err(map_fault)?;
            mapping.sfence();
            cache.tail_leaf = leaf;
            cache.tail_slot = 0;
        }
        let rec = CachedRec {
            leaf: cache.tail_leaf,
            slot: cache.tail_slot,
            file_block,
            page,
            len,
        };
        let off = rec.slot_off();
        mapping
            .write_u64(off + E_FILE_BLOCK, file_block)
            .map_err(map_fault)?;
        mapping.write_u64(off + E_PAGE, page).map_err(map_fault)?;
        mapping.clwb(off, 16).map_err(map_fault)?;
        mapping.sfence();
        // The torn window: payload persisted, marker not. A crash here
        // leaves a benign hole.
        self.point("file.write.extent_insert");
        mapping.write_u64(off + E_LEN, len).map_err(map_fault)?;
        mapping.clwb(off + E_LEN, 8).map_err(map_fault)?;
        mapping.sfence();
        cache.tail_slot += 1;
        for k in 0..len {
            cache.map.insert(file_block + k, page + k);
        }
        cache.recs.push(rec);
        self.count_extent_insert();
        Ok(())
    }

    /// Map block `idx` to freshly allocated `page`, unless it is mapped
    /// already: the caller saw the hole under the read lock, and a writer of
    /// other bytes of the block may have filled it since. Returns the page
    /// that backs the block — `page`, or the one found. Coalesces with the
    /// chain's last record when both the block and the page extend it
    /// contiguously (a single-field `len` bump, still crash-atomic).
    pub(crate) fn extent_insert(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        idx: u64,
        page: u64,
    ) -> FsResult<u64> {
        let mut cache = file.extents.write();
        self.extent_load(&mut cache, file, mapping)?;
        if let Some(&mapped) = cache.map.get(&idx) {
            return Ok(mapped);
        }
        if let Some(last) = cache.recs.last_mut() {
            if last.file_block + last.len == idx && last.page + last.len == page {
                self.point("file.write.extent_insert");
                let off = last.slot_off();
                mapping
                    .write_u64(off + E_LEN, last.len + 1)
                    .map_err(map_fault)?;
                mapping.clwb(off + E_LEN, 8).map_err(map_fault)?;
                mapping.sfence();
                last.len += 1;
                cache.map.insert(idx, page);
                self.count_extent_insert();
                return Ok(page);
            }
        }
        self.extent_append_rec(&mut cache, file, mapping, idx, page, 1)?;
        Ok(page)
    }

    /// Preallocate `pages` for the blocks starting at `first_block`, each
    /// contiguous run as one record (the `fallocate` path). A block mapped
    /// since the caller saw the hole keeps its page, as in
    /// [`LibFs::extent_insert`]; returns the pages left unused.
    pub(crate) fn extent_insert_run(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        first_block: u64,
        pages: &[u64],
    ) -> FsResult<Vec<u64>> {
        let mut cache = file.extents.write();
        self.extent_load(&mut cache, file, mapping)?;
        let (mut todo, mut spare) = (Vec::with_capacity(pages.len()), Vec::new());
        for (block, &page) in (first_block..).zip(pages) {
            if cache.map.contains_key(&block) {
                spare.push(page);
            } else {
                todo.push((block, page));
            }
        }
        let mut i = 0usize;
        while i < todo.len() {
            // Longest run of consecutive blocks on consecutive pages.
            let mut j = i + 1;
            while j < todo.len() && todo[j] == (todo[j - 1].0 + 1, todo[j - 1].1 + 1) {
                j += 1;
            }
            let (block, page) = todo[i];
            self.extent_append_rec(&mut cache, file, mapping, block, page, (j - i) as u64)?;
            i = j;
        }
        Ok(spare)
    }

    /// Decommit every block at or beyond `first_dead` (truncate), returning
    /// the freed data pages. Leaf pages stay in the chain for reuse.
    pub(crate) fn extent_truncate_blocks(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        first_dead: u64,
    ) -> FsResult<Vec<u64>> {
        let mut cache = file.extents.write();
        self.extent_load(&mut cache, file, mapping)?;
        let mut freed = Vec::new();
        let mut i = 0;
        while i < cache.recs.len() {
            let rec = cache.recs[i];
            if rec.file_block + rec.len <= first_dead {
                i += 1;
                continue;
            }
            let keep = first_dead.saturating_sub(rec.file_block);
            let off = rec.slot_off();
            mapping.write_u64(off + E_LEN, keep).map_err(map_fault)?;
            mapping.clwb(off + E_LEN, 8).map_err(map_fault)?;
            freed.extend(rec.page + keep..rec.page + rec.len);
            if keep == 0 {
                cache.recs.remove(i);
            } else {
                cache.recs[i].len = keep;
                i += 1;
            }
        }
        if !freed.is_empty() {
            mapping.sfence();
        }
        cache.map.split_off(&first_dead);
        Ok(freed)
    }

    /// Every page owned by the extent chain — leaves plus all committed
    /// records' runs — read straight from PM (the unlink path, which may
    /// run without a loaded cache). Superseded-but-uncommitted residue
    /// (`len == 0` records) contributes nothing; its pages were recycled
    /// or will be reaped as leaks.
    pub(crate) fn extent_collect_pages(
        &self,
        ino: u64,
        mapping: &Mapping,
        out: &mut Vec<u64>,
    ) -> FsResult<()> {
        let ibase = self.geom.inode_offset(ino);
        let mut leaf = mapping.read_u64(ibase + I_EXTENT_ROOT).map_err(map_fault)?;
        let mut hops = 0u64;
        while leaf != 0 && hops <= self.geom.total_pages {
            hops += 1;
            out.push(leaf);
            let base = leaf * PAGE_SIZE as u64;
            for slot in 0..EXTENTS_PER_PAGE {
                let off = base + EXTENT_FIRST_REC + slot * EXTENT_REC_SIZE;
                let len = mapping.read_u64(off + E_LEN).map_err(map_fault)?;
                if len == 0 {
                    continue;
                }
                let page = mapping.read_u64(off + E_PAGE).map_err(map_fault)?;
                out.extend(page..page + len);
            }
            leaf = mapping.read_u64(base + EP_NEXT).map_err(map_fault)?;
        }
        Ok(())
    }
}
