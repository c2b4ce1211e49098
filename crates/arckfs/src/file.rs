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
//! ## Commit rule
//!
//! Every write, appends included, lands in place: store the bytes,
//! `clwb`, `sfence`, then publish the size word — the commit. A crash
//! before the size persists leaves the old size, so the file reads as
//! before the call. Bytes past EOF are don't-care: whatever makes a
//! byte readable without writing it first — an extending write or
//! `fallocate` over a gap, a growing `truncate`, a fresh page under a
//! partial write — zeroes and flushes that byte before the fence that
//! precedes its commit.
//!
//! ## Locking
//!
//! Every data operation acquires only the byte ranges it touches from the
//! per-inode [`crate::range_lock::RangeLockTable`]: disjoint-range writers
//! run fully parallel, truncate and the §4.3 release quiesce take the
//! whole file, and a write that reaches the EOF holds the range from it
//! and revalidates the EOF under the acquisition (closing the TOCTOU
//! `fix_append_atomic` names). Delegated chunks
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

/// Where a write lands: its byte span and the EOF read under its held
/// range ([`LibFs::extend_guard`]).
struct Landing {
    offset: u64,
    end: u64,
    eof: u64,
}

/// Store zeroes over `len` bytes at device offset `at` and flush them; the
/// caller fences before whatever commits them.
pub(crate) fn zero_bytes(mapping: &Mapping, at: u64, len: usize) -> FsResult<()> {
    const ZEROES: [u8; 1024] = [0; 1024];
    let mut done = 0;
    while done < len {
        let n = (len - done).min(ZEROES.len());
        mapping
            .write(at + done as u64, &ZEROES[..n])
            .map_err(map_fault)?;
        done += n;
    }
    mapping.clwb(at, len).map_err(map_fault)
}

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

    /// The data page backing block `idx` for the write `w`. A hole gets a
    /// freshly allocated page mapped by a crash-atomic extent record, zeroed
    /// where the write would otherwise expose what the page held before:
    /// wholly when the block lies inside the file (its record commits the
    /// page readable before the write's bytes land), else only the bytes
    /// before the write, which end up below the new EOF. An append that
    /// starts a fresh page zeroes nothing. A writer of other bytes of the
    /// block may map it between the lookup and the insert; the page it
    /// mapped is then the one written, and the fresh one goes back to the
    /// pool (DESIGN.md §11, "One page per block").
    fn file_block_for_write(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        idx: u64,
        w: &Landing,
    ) -> FsResult<u64> {
        let page = self.extent_lookup(file, mapping, idx)?;
        if page != 0 {
            return Ok(page);
        }
        if idx >= EXTENT_MAX_BLOCKS {
            return Err(FsError::FileTooBig { block: idx });
        }
        let page = self.alloc_page()?;
        let block = idx * PAGE_SIZE as u64;
        if block < w.eof {
            zero_bytes(mapping, page * PAGE_SIZE as u64, PAGE_SIZE)?;
            mapping.sfence(); // the zeroes are durable before the record
        } else if w.offset > block {
            let before = (w.offset - block) as usize;
            zero_bytes(mapping, page * PAGE_SIZE as u64, before)?;
        }
        // The window: the hole was seen under the extent read lock, the
        // insert takes the write lock.
        self.point("file.write.hole_fill");
        let mapped = self.extent_insert(file, mapping, idx, page)?;
        if mapped != page {
            self.recycle_pages(vec![page]);
        }
        Ok(mapped)
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
        let (_g, mapping, w) = self.extend_guard(file, Some(offset), total)?;
        self.point("file.write.core");
        self.file_write_vectored_body(file, &mapping, bufs, &w)?;
        Ok(total)
    }

    /// Take the range a write of `len` bytes lands in — at `at`, or at the
    /// EOF for an append (`None`) — together with the gap between the EOF
    /// and the write: lock `[min(EOF, offset), offset + len)` and
    /// **revalidate** the EOF under the acquisition, retrying on a lost
    /// race. Two concurrent appenders can never snapshot the same EOF and
    /// overlap, and while a write reaching the EOF holds its range no
    /// other writer can move the EOF — all without a file-wide lock.
    fn extend_guard<'a>(
        &self,
        file: &'a MemInode,
        at: Option<u64>,
        len: usize,
    ) -> FsResult<(RangeGuard<'a>, Mapping, Landing)> {
        // A positional write first guesses that it starts within the file.
        let mut eof = match at {
            Some(offset) => offset,
            None => self.file_size(file, &file.mapping_handle())?,
        };
        loop {
            let offset = at.unwrap_or(eof);
            if at.is_none() {
                self.point("file.append.offset_read");
            }
            let start = offset.min(eof);
            let end = offset.saturating_add(len as u64);
            let g = self.write_guard(file, Range::of(start, (end - start) as usize))?;
            let mapping = file.mapping_handle();
            let now = self.file_size(file, &mapping)?;
            if at.unwrap_or(now) == offset && now.min(offset) == start {
                let w = Landing {
                    offset,
                    end,
                    eof: now,
                };
                return Ok((g, mapping, w));
            }
            // Lost the EOF race or guessed wrong: `g` drops, retry from the
            // EOF just read.
            eof = now;
        }
    }

    /// `O_APPEND` write, scalar or vectored: the whole gather lands at
    /// end-of-file as one unit and commits by its size publication alone.
    /// Returns the offset the data landed at. With `fix_append_atomic`
    /// off, the offset comes from a size read taken before any exclusion
    /// — the original artifact's TOCTOU, which schedmc flushes out.
    pub(crate) fn file_append_vectored(&self, file: &MemInode, bufs: &[&[u8]]) -> FsResult<u64> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        let at = if self.config.fix_append_atomic {
            None
        } else {
            let offset = self.file_size(file, &file.mapping_handle())?;
            self.point("file.append.offset_read");
            Some(offset)
        };
        let (_g, mapping, w) = self.extend_guard(file, at, total)?;
        self.point("file.write.core");
        self.file_write_vectored_body(file, &mapping, bufs, &w)?;
        Ok(w.offset)
    }

    /// Store, fence, and size-publish a gather with its range already
    /// held and the release check done: zero the mapped gap the write
    /// leaves past the old EOF, then one delegation batch (or one span
    /// loop), one trailing fence, one size publication for the whole
    /// vector.
    fn file_write_vectored_body(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        bufs: &[&[u8]],
        w: &Landing,
    ) -> FsResult<()> {
        self.file_zero_mapped(file, mapping, w.eof, w.offset)?;
        let total = (w.end - w.offset) as usize;
        if total >= self.config.delegation_min && self.delegation.workers() > 0 {
            // One submit batch across every iovec, one join.
            let mut tickets = Vec::new();
            // No early `?` once tickets exist: an error must still drain
            // every outstanding ticket below, or the workers would keep
            // streaming into pages the caller believes failed.
            let mut first_err: Option<FsError> = None;
            let mut pos = w.offset;
            for buf in bufs {
                if let Err(e) = self.file_delegate_span(file, mapping, buf, pos, w, &mut tickets) {
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
            let mut pos = w.offset;
            for buf in bufs {
                self.file_write_span(file, mapping, buf, pos, w, use_nt)?;
                pos += buf.len() as u64;
            }
        }
        mapping.sfence();
        self.file_publish_size(file, mapping, w.end)
    }

    /// Zero and flush the mapped bytes of `[from, to)` — bytes past EOF
    /// that a size publication is about to make readable — and fence
    /// them, so they are durable before any commit that follows. Walks
    /// only the blocks the extent cache maps, so a gap of any length
    /// costs what is mapped in it. The caller holds the range.
    fn file_zero_mapped(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        from: u64,
        to: u64,
    ) -> FsResult<()> {
        if from >= to {
            return Ok(());
        }
        let ps = PAGE_SIZE as u64;
        let mapped = self.extent_mapped(file, mapping, from / ps, (to - 1) / ps)?;
        if mapped.is_empty() {
            return Ok(());
        }
        for &(idx, page) in &mapped {
            let lo = from.max(idx * ps);
            let hi = to.min((idx + 1) * ps);
            zero_bytes(mapping, page * ps + lo % ps, (hi - lo) as usize)?;
        }
        // The window: zeroes stored and flushed, not yet fenced; no size
        // publication may overtake them.
        self.point("file.write.zero_gap");
        mapping.sfence();
        Ok(())
    }

    /// Walk one contiguous span page by page: resolve (or allocate) each
    /// block and hand `chunk` the device offset and the bytes landing there.
    fn file_for_each_chunk(
        &self,
        file: &MemInode,
        mapping: &Mapping,
        data: &[u8],
        offset: u64,
        w: &Landing,
        mut chunk: impl FnMut(u64, &[u8]) -> FsResult<()>,
    ) -> FsResult<()> {
        let mut done = 0usize;
        while done < data.len() {
            let pos = offset + done as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            let page = self.file_block_for_write(file, mapping, pos / PAGE_SIZE as u64, w)?;
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
        w: &Landing,
        use_nt: bool,
    ) -> FsResult<()> {
        self.file_for_each_chunk(file, mapping, data, offset, w, |at, chunk| {
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
        w: &Landing,
        tickets: &mut Vec<crate::delegate::Ticket>,
    ) -> FsResult<()> {
        self.file_for_each_chunk(file, mapping, data, offset, w, |at, chunk| {
            tickets.push(self.delegation.submit(mapping, at, chunk)?);
            Ok(())
        })
    }

    /// Preallocate backing pages for `[offset, offset + len)` through the
    /// sharded allocator and extend the file size over the region (which
    /// therefore reads as zeroes until written: fresh pages are zeroed
    /// whole, and mapped bytes past the old EOF are zeroed before the size
    /// moves). Each run of holes is reserved as contiguous extent records
    /// where the pool delivers contiguous pages.
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
        let (_g, mapping, w) = self.extend_guard(file, Some(offset), len as usize)?;
        self.file_zero_mapped(file, &mapping, w.eof, w.end)?;

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
            let spare = self.extent_insert_run(file, &mapping, first_hole, &pages)?;
            if !spare.is_empty() {
                self.recycle_pages(spare);
            }
        }
        self.file_publish_size(file, &mapping, w.end)
    }

    /// Truncate (shrink or extend-with-holes) to `size`, holding the whole
    /// file. Freed pages return to the LibFS's local pool. A shrink leaves
    /// the boundary page's tail as it is (past EOF, don't-care); a grow
    /// zeroes what is still mapped in `[old, size)`. This is the DWTL
    /// workload's operation.
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
        } else {
            self.file_zero_mapped(file, &mapping, old, size)?;
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
