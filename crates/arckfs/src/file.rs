//! Regular-file data path: extent-mapped blocks under byte-range locks —
//! positional and vectored reads and writes, appends, preallocation, and
//! truncation (DESIGN.md §11).
//!
//! Data writes persist synchronously (§2.2: "all data and metadata
//! operations are persisted synchronously, and `fsync()` returns
//! immediately"). Writes at or above [`crate::Config::ntstore_threshold`]
//! go through non-temporal stores, modelling ArckFS's OdinFS-style I/O
//! delegation for large transfers.
//!
//! ## Locking
//!
//! Every data operation acquires only the byte ranges it touches from the
//! per-inode [`crate::range_lock::RangeLockTable`]: disjoint-range writers
//! run fully parallel, truncate and the §4.3 release quiesce take the
//! whole file, and appends revalidate the EOF under their acquired range
//! (closing the TOCTOU `fix_append_atomic` names). Delegated chunks
//! (DESIGN.md §10) inherit the submitter's range ownership: tickets are
//! joined before the range guard drops. `MemInode::rw` is not a data-path
//! lock; it only orders the release quiesce against `remove_in_dir`.
//!
//! ## Block mapping
//!
//! File blocks resolve through the inode's extent chain (`crate::extent`)
//! and nothing else: a block no committed record covers is a hole. The
//! inode's `direct[]` words and the two reserved words after them stay
//! zero for regular files; the verifier rejects anything else.

use std::sync::atomic::Ordering;

use pmem::{Mapping, PAGE_SIZE};
use trio::format::I_SIZE;
use vfs::{FsError, FsResult};

use crate::dir::map_fault;
use crate::inode::{InodeState, MemInode};
use crate::libfs::LibFs;
use crate::range_lock::{Range, RangeGuard};

/// Sparse-block cap for a file (16 TiB of 4 KiB blocks) — far past
/// anything the device can back, but it keeps [`FsError::FileTooBig`] a
/// typed, testable condition.
pub(crate) const EXTENT_MAX_BLOCKS: u64 = 1 << 32;

impl LibFs {
    /// §4.3 state check, run once the range is held: the patched release
    /// takes the whole-file range before unmapping, so an `Acquired`
    /// observed here cannot turn stale until the guard drops. A `Released`
    /// observation turns into the internal retry sentinel (the caller
    /// re-acquires and replays) instead of the bus error the original
    /// artifact dies with.
    fn file_release_check(&self, file: &MemInode) -> FsResult<()> {
        if self.config.fix_release_sync && file.state() != InodeState::Acquired {
            return Err(FsError::Released { ino: file.ino });
        }
        Ok(())
    }

    /// Acquire `range` exclusively and run the §4.3 release check under it.
    fn write_guard<'a>(&self, file: &'a MemInode, range: Range) -> FsResult<RangeGuard<'a>> {
        self.point("file.write.range_lock");
        let g = file.ranges.acquire(range, true);
        self.count_range_lock();
        self.file_release_check(file)?;
        Ok(g)
    }

    /// The data page backing block `idx` for a write of `n` bytes into
    /// it. A hole gets a freshly allocated page mapped by a crash-atomic
    /// extent record; when the write is partial the page is zero-filled
    /// first, so the bytes around it read as zeroes.
    fn file_block_for_write(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        idx: u64,
        n: usize,
    ) -> FsResult<u64> {
        let page = self.extent_lookup(file, mapping, idx)?;
        if page != 0 {
            return Ok(page);
        }
        if idx >= EXTENT_MAX_BLOCKS {
            return Err(FsError::FileTooBig { block: idx });
        }
        let page = self.alloc_page()?;
        self.extent_insert(file, mapping, idx, page)?;
        if n < PAGE_SIZE {
            self.zero_fill(mapping, page)?;
        }
        Ok(page)
    }

    /// The file's current size. With the §4.3 patch, read operations use
    /// the size cached in the in-memory inode; the original artifact reads
    /// it through the mapping (which faults if another thread released the
    /// inode concurrently).
    pub(crate) fn file_size(&self, file: &MemInode, mapping: &Mapping) -> FsResult<u64> {
        if self.config.fix_release_sync {
            Ok(file.cached_size.load(Ordering::SeqCst))
        } else {
            mapping
                .read_u64(self.geom.inode_offset(file.ino) + I_SIZE)
                .map_err(map_fault)
        }
    }

    /// Publish a grown end-of-file. Monotone under `file.meta`: two
    /// disjoint range writers racing a bare read-modify-write on the size
    /// field could otherwise shrink it (truncate is the only legitimate
    /// shrinker, and it holds the whole file).
    fn file_publish_size(&self, file: &MemInode, mapping: &Mapping, end: u64) -> FsResult<()> {
        let _m = file.meta.lock();
        let field = self.geom.inode_offset(file.ino) + I_SIZE;
        let size_now = mapping.read_u64(field).map_err(map_fault)?;
        if end > size_now {
            mapping.write_u64(field, end).map_err(map_fault)?;
            mapping.clwb(field, 8).map_err(map_fault)?;
            mapping.sfence();
            file.cached_size.fetch_max(end, Ordering::SeqCst);
        }
        Ok(())
    }

    fn file_read_body(&self, file: &MemInode, buf: &mut [u8], offset: u64) -> FsResult<usize> {
        let mapping = file.mapping_handle();
        let size = self.file_size(file, &mapping)?;
        if offset >= size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(size - offset) as usize;
        let mut done = 0usize;
        while done < want {
            let pos = offset + done as u64;
            let idx = pos / PAGE_SIZE as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(want - done);
            let page = self.extent_lookup(file, &mapping, idx)?;
            if page == 0 {
                // Hole: reads as zeroes.
                buf[done..done + n].fill(0);
            } else {
                mapping
                    .read(
                        page * PAGE_SIZE as u64 + in_page as u64,
                        &mut buf[done..done + n],
                    )
                    .map_err(map_fault)?;
            }
            done += n;
        }
        Ok(want)
    }

    /// Positional read, scalar or vectored: one shared range over the
    /// whole span, then every buffer filled at its consecutive offset.
    pub(crate) fn file_read_vectored(
        &self,
        file: &MemInode,
        bufs: &mut [&mut [u8]],
        offset: u64,
    ) -> FsResult<usize> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        let _g = file.ranges.acquire(Range::of(offset, total), false);
        self.count_range_lock();
        self.file_release_check(file)?;
        let mut done = 0usize;
        for buf in bufs.iter_mut() {
            let n = self.file_read_body(file, buf, offset + done as u64)?;
            done += n;
            if n < buf.len() {
                break; // EOF inside this buffer
            }
        }
        Ok(done)
    }

    /// Positional write, scalar or vectored: all iovecs land contiguously
    /// at `offset` under **one** range acquisition, with one trailing
    /// fence and one size publication; extends the file, persists
    /// synchronously. Large totals go through the delegation rings as a
    /// single submit batch spanning every iovec.
    pub(crate) fn file_write_vectored(
        &self,
        file: &MemInode,
        bufs: &[&[u8]],
        offset: u64,
    ) -> FsResult<usize> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        if total == 0 {
            return Ok(0);
        }
        let _g = self.write_guard(file, Range::of(offset, total))?;
        let mapping = file.mapping_handle();
        self.point("file.write.core");
        self.file_write_vectored_body(file, &mapping, bufs, offset, total)?;
        Ok(total)
    }

    /// Take the range an append of `len` bytes will land in: snapshot the
    /// EOF, lock `[EOF, EOF + len)`, and **revalidate** the EOF under the
    /// acquisition, retrying on a lost race — so two concurrent appenders
    /// can never snapshot the same end-of-file and overlap, without a
    /// file-wide lock. Returns the held range, the mapping, and the offset.
    fn append_guard<'a>(
        &self,
        file: &'a MemInode,
        len: usize,
    ) -> FsResult<(RangeGuard<'a>, Mapping, u64)> {
        loop {
            let offset = self.file_size(file, &file.mapping_handle())?;
            self.point("file.append.offset_read");
            let g = self.write_guard(file, Range::of(offset, len))?;
            let mapping = file.mapping_handle();
            if self.file_size(file, &mapping)? == offset {
                return Ok((g, mapping, offset));
            }
            // Lost the EOF race: `g` drops, retry at the new end.
        }
    }

    /// `O_APPEND` write through the copy-on-write tail. Returns the offset
    /// the data landed at. (The pre-`fix_append_atomic` baseline — offset
    /// from a size read taken before any exclusion, the TOCTOU schedmc
    /// flushed out — lives in the `FileSystem` entry points.)
    pub(crate) fn file_append(&self, file: &MemInode, data: &[u8]) -> FsResult<u64> {
        let (_g, mapping, offset) = self.append_guard(file, data.len())?;
        self.point("file.write.core");
        self.file_write_cow(file, &mapping, data, offset)?;
        Ok(offset)
    }

    /// Vectored `O_APPEND` write: the whole gather lands at end-of-file as
    /// one unit, under the same EOF discipline as [`LibFs::file_append`].
    pub(crate) fn file_append_vectored(&self, file: &MemInode, bufs: &[&[u8]]) -> FsResult<u64> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        if !self.config.fix_append_atomic {
            // Buggy baseline: EOF snapshot outside the exclusion.
            let offset = self.file_size(file, &file.mapping_handle())?;
            self.point("file.append.offset_read");
            self.file_write_vectored(file, bufs, offset)?;
            return Ok(offset);
        }
        let (_g, mapping, offset) = self.append_guard(file, total)?;
        self.point("file.write.core");
        self.file_write_vectored_body(file, &mapping, bufs, offset, total)?;
        Ok(offset)
    }

    /// Store, fence, and size-publish a gather with its range already
    /// held and the release check done: one delegation batch (or one span
    /// loop), one trailing fence, one size publication for the whole
    /// vector.
    fn file_write_vectored_body(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        bufs: &[&[u8]],
        offset: u64,
        total: usize,
    ) -> FsResult<()> {
        if total >= self.config.delegation_min && self.delegation.workers() > 0 {
            // One submit batch across every iovec, one join.
            let mut tickets = Vec::new();
            // No early `?` once tickets exist: an error must still drain
            // every outstanding ticket below, or the workers would keep
            // streaming into pages the caller believes failed.
            let mut first_err: Option<FsError> = None;
            let mut pos = offset;
            for buf in bufs {
                if let Err(e) = self.file_delegate_span(file, mapping, buf, pos, &mut tickets) {
                    first_err = Some(e);
                    break;
                }
                pos += buf.len() as u64;
            }
            // Join *all* tickets, keeping the first error: an early return
            // on the first failed wait would drop the rest incomplete,
            // discarding their faults along with the durability guarantee.
            for t in tickets {
                if let Err(e) = t.wait() {
                    first_err.get_or_insert(e);
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
        } else {
            let use_nt = total >= self.config.ntstore_threshold;
            let mut pos = offset;
            for buf in bufs {
                self.file_write_span(file, mapping, buf, pos, use_nt)?;
                pos += buf.len() as u64;
            }
        }
        mapping.sfence();
        self.file_publish_size(file, mapping, offset + total as u64)
    }

    /// Write with a copy-on-write tail (DESIGN.md §11): when the write
    /// starts mid-page in a mapped block, the committed prefix is copied
    /// into a fresh page, the new bytes are written there, and the extent
    /// record is atomically remapped — so a crash at any point leaves
    /// either the old tail or a fully-written new one, never a partially
    /// appended page. Falls back to the in-place write when the block is
    /// a hole (or sits mid-run).
    fn file_write_cow(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        data: &[u8],
        offset: u64,
    ) -> FsResult<()> {
        let in_place = |data: &[u8], offset: u64| {
            self.file_write_vectored_body(file, mapping, &[data], offset, data.len())
        };
        let in_page = (offset % PAGE_SIZE as u64) as usize;
        if in_page == 0 || data.is_empty() {
            return in_place(data, offset);
        }
        let idx = offset / PAGE_SIZE as u64;
        let old_page = self.extent_lookup(file, mapping, idx)?;
        if old_page == 0 {
            return in_place(data, offset);
        }

        let n = (PAGE_SIZE - in_page).min(data.len());
        let new_page = self.alloc_page()?;
        let new_base = new_page * PAGE_SIZE as u64;
        // Committed prefix, then the new bytes, then a zeroed remainder.
        let mut content = vec![0u8; PAGE_SIZE];
        mapping
            .read(old_page * PAGE_SIZE as u64, &mut content[..in_page])
            .map_err(map_fault)?;
        content[in_page..in_page + n].copy_from_slice(&data[..n]);
        mapping.write(new_base, &content).map_err(map_fault)?;
        mapping.clwb(new_base, PAGE_SIZE).map_err(map_fault)?;
        mapping.sfence();
        // The commit window: new page fully persisted, mapping not yet
        // switched. A crash here leaves the old tail intact.
        self.point("file.write.cow_tail");
        if !self.extent_remap_tail(file, mapping, idx, new_page)? {
            // Mid-run block: cannot split with one shrink. In-place write
            // (new bytes only land past the committed prefix, which stays
            // untouched, so prefix-or-nothing still holds through the size
            // publication order).
            self.recycle_pages(vec![new_page]);
            return in_place(data, offset);
        }
        self.recycle_pages(vec![old_page]);
        self.count_cow_tail();
        if n < data.len() {
            in_place(&data[n..], offset + n as u64)
        } else {
            self.file_publish_size(file, mapping, offset + n as u64)
        }
    }

    /// Walk one contiguous span page by page: resolve (or allocate) each
    /// block and hand `chunk` the device offset and the bytes landing there.
    fn file_for_each_chunk(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        data: &[u8],
        offset: u64,
        mut chunk: impl FnMut(u64, &[u8]) -> FsResult<()>,
    ) -> FsResult<()> {
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            let page = self.file_block_for_write(file, mapping, pos / PAGE_SIZE as u64, n)?;
            chunk(
                page * PAGE_SIZE as u64 + in_page as u64,
                &data[done..done + n],
            )?;
            done += n;
        }
        Ok(())
    }

    /// Store one contiguous span (cached + clwb, or non-temporal). No
    /// trailing fence and no size publication — the caller owns both, so
    /// vectored writes amortize them across iovecs.
    fn file_write_span(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        data: &[u8],
        offset: u64,
        use_nt: bool,
    ) -> FsResult<()> {
        self.file_for_each_chunk(file, mapping, data, offset, |at, chunk| {
            if use_nt {
                // Non-temporal stores bypass the cache and need no clwb.
                mapping.ntstore(at, chunk).map_err(map_fault)?;
            } else {
                mapping.write(at, chunk).map_err(map_fault)?;
                mapping.clwb(at, chunk.len()).map_err(map_fault)?;
            }
            self.point("file.write.chunk");
            Ok(())
        })
    }

    /// Submit one contiguous span to the delegation rings as page-aligned
    /// chunks, pushing tickets for the caller to join. Stops at the first
    /// submit error (already-submitted chunks stay in `tickets` so the
    /// caller still drains them).
    fn file_delegate_span(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        data: &[u8],
        offset: u64,
        tickets: &mut Vec<crate::delegate::Ticket>,
    ) -> FsResult<()> {
        self.file_for_each_chunk(file, mapping, data, offset, |at, chunk| {
            tickets.push(self.delegation.submit(mapping, at, chunk)?);
            Ok(())
        })
    }

    /// Preallocate backing pages for `[offset, offset + len)` through the
    /// sharded allocator and extend the file size over the region (which
    /// therefore reads as zeroes until written). Each run of holes is
    /// reserved as contiguous extent records where the pool delivers
    /// contiguous pages.
    pub(crate) fn file_fallocate(&self, file: &MemInode, offset: u64, len: u64) -> FsResult<()> {
        if len == 0 {
            return Ok(());
        }
        // Bound the request before any block arithmetic: the scan below is
        // linear in the block count, and an unchecked `offset + len` wraps.
        let last = match offset
            .checked_add(len)
            .map(|end| (end - 1) / PAGE_SIZE as u64)
        {
            Some(block) if block < EXTENT_MAX_BLOCKS => block,
            other => {
                return Err(FsError::FileTooBig {
                    block: other.unwrap_or(u64::MAX / PAGE_SIZE as u64),
                })
            }
        };
        let _g = self.write_guard(file, Range::of(offset, len as usize))?;
        let mapping = file.mapping_handle();

        let mut idx = offset / PAGE_SIZE as u64;
        while idx <= last {
            // One run of holes: allocate and zero its pages, then reserve
            // the run as (at most a few) extent records.
            let first_hole = idx;
            let mut pages = Vec::new();
            while idx <= last && self.extent_lookup(file, &mapping, idx)? == 0 {
                let p = self.alloc_page()?;
                self.zero_page(&mapping, p)?;
                pages.push(p);
                idx += 1;
            }
            if pages.is_empty() {
                idx += 1; // a mapped block: nothing to reserve
                continue;
            }
            mapping.sfence();
            self.extent_insert_run(file, &mapping, first_hole, &pages)?;
        }
        self.file_publish_size(file, &mapping, offset + len)
    }

    /// Truncate (shrink or extend-with-holes) to `size`, holding the whole
    /// file. Freed pages return to the LibFS's local pool. This is the
    /// DWTL workload's operation.
    pub(crate) fn file_truncate(&self, file: &MemInode, size: u64) -> FsResult<()> {
        let _g = self.write_guard(file, Range::all())?;
        let mapping = file.mapping_handle();
        // The same typed boundary write_at and fallocate enforce: a grow
        // past the mapping's capacity is EFBIG, not a later panic.
        if size.div_ceil(PAGE_SIZE as u64) > EXTENT_MAX_BLOCKS {
            return Err(FsError::FileTooBig {
                block: (size - 1) / PAGE_SIZE as u64,
            });
        }
        let old = self.file_size(file, &mapping)?;
        if size < old {
            // Decommit runs at and beyond the boundary.
            let freed =
                self.extent_truncate_blocks(file, &mapping, size.div_ceil(PAGE_SIZE as u64))?;
            self.recycle_pages(freed);
            // Zero the tail of the boundary page: bytes past the new end
            // must read as zero if the file is later re-extended (POSIX).
            let in_page = (size % PAGE_SIZE as u64) as usize;
            if in_page != 0 {
                let page = self.extent_lookup(file, &mapping, size / PAGE_SIZE as u64)?;
                if page != 0 {
                    let off = page * PAGE_SIZE as u64 + in_page as u64;
                    let zeroes = vec![0u8; PAGE_SIZE - in_page];
                    mapping.write(off, &zeroes).map_err(map_fault)?;
                    mapping.clwb(off, zeroes.len()).map_err(map_fault)?;
                }
            }
        }
        let _m = file.meta.lock();
        let field = self.geom.inode_offset(file.ino) + I_SIZE;
        mapping.write_u64(field, size).map_err(map_fault)?;
        mapping.clwb(field, 8).map_err(map_fault)?;
        mapping.sfence();
        file.cached_size.store(size, Ordering::SeqCst);
        Ok(())
    }
}
