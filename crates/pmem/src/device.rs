//! The emulated persistent-memory device.
//!
//! A [`PmemDevice`] is a fixed-size byte-addressable region with explicit
//! persistence primitives (`clwb`, `ntstore`, `sfence`). See the crate docs
//! for the two backings.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::atomic::{fence, AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::latency::LatencyModel;
use crate::stats::PmemStats;
use crate::tracker::Tracker;
use crate::{line_of, CACHE_LINE, GRANULE, GRANULES_PER_PAGE, PAGE_SIZE};

/// Result alias for device operations.
pub type PmemResult<T> = Result<T, PmemError>;

/// Errors raised by device accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmemError {
    /// Access outside the device.
    OutOfBounds {
        /// First byte of the access.
        offset: u64,
        /// Length of the access.
        len: usize,
        /// Device size.
        size: usize,
    },
    /// A crash-state operation was requested on a fast (untracked) device.
    NotTracked,
    /// An allocation could not be satisfied: fewer free resources than
    /// requested. Raised by the sharded page allocator, not by raw device
    /// accesses.
    NoSpace {
        /// How many resources (pages, inode numbers) were requested.
        requested: usize,
        /// How many were free across all shards at the time of the request.
        free: usize,
    },
    /// An atomic word access was requested at an offset that is not
    /// 8-byte aligned.
    Misaligned {
        /// Offset of the attempted access.
        offset: u64,
    },
}

impl fmt::Display for PmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmemError::OutOfBounds { offset, len, size } => write!(
                f,
                "pm access out of bounds: offset {offset:#x} len {len} on device of {size} bytes"
            ),
            PmemError::NotTracked => {
                write!(f, "crash-state operation on an untracked (fast) device")
            }
            PmemError::NoSpace { requested, free } => {
                write!(f, "out of space: requested {requested}, {free} free")
            }
            PmemError::Misaligned { offset } => {
                write!(f, "atomic access at {offset:#x} is not 8-byte aligned")
            }
        }
    }
}

impl std::error::Error for PmemError {}

/// Which backing a device uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Plain memory + accounting; crash states unavailable. For benchmarks.
    Fast,
    /// Full store-level persistency tracking; serialized by a mutex. For
    /// crash-consistency checking and deterministic bug reproduction.
    Tracked,
}

/// Fast backing: a heap buffer accessed through raw pointers.
///
/// Interior mutability through `&self` is required because many LibFS
/// threads store to disjoint device regions concurrently, exactly like
/// `mmap`ed persistent memory. The file-system layers above guarantee that
/// concurrent accesses to *overlapping* regions are synchronized (that is
/// the property whose violations the paper studies; the deterministic bug
/// reproductions run on the `Tracked` backing, which is fully serialized).
///
/// Storage is a `u64` word array (byte length kept separately) so the base
/// is 8-byte aligned: [`PmemDevice::fetch_or_u64`]/[`fetch_and_u64`]
/// reinterpret aligned words as `AtomicU64` for lock-free read-modify-write
/// (the sharded allocator's bitmap updates). The one extra rule this adds
/// to the aliasing discipline: a word that is ever targeted by an atomic
/// RMW must only be written through the atomic ops while concurrent access
/// is possible (plain stores to such words are confined to single-threaded
/// phases such as `format`/`recover`).
struct FastBuf {
    words: Box<[UnsafeCell<u64>]>,
}

// SAFETY: `FastBuf` hands out raw pointers only through `PmemDevice`'s
// read/write methods, which perform bounds checks. Cross-thread access to
// disjoint ranges is sound; overlapping unsynchronized access is excluded by
// the locking protocol of the file systems built on top (see struct docs).
unsafe impl Send for FastBuf {}
// SAFETY: as above.
unsafe impl Sync for FastBuf {}

impl FastBuf {
    /// Reinterpret a plain word buffer as a cell buffer. `UnsafeCell<u64>`
    /// is `repr(transparent)` over `u64`, so the layouts are identical;
    /// building the buffer as words first keeps construction at memcpy
    /// speed instead of a per-element loop.
    fn from_words(words: Box<[u64]>) -> Self {
        let ptr = Box::into_raw(words) as *mut [UnsafeCell<u64>];
        // SAFETY: `UnsafeCell<u64>` is repr(transparent) over `u64`: same
        // size, alignment and slice layout, so the fat pointer cast is
        // valid and ownership transfers intact.
        let words = unsafe { Box::from_raw(ptr) };
        FastBuf { words }
    }

    fn new(len: usize) -> Self {
        Self::from_words(vec![0u64; len.div_ceil(8)].into_boxed_slice())
    }

    fn from_image(image: &[u8]) -> Self {
        let fb = Self::new(image.len());
        // SAFETY: freshly constructed exclusive buffer, sized to hold
        // `image.len()` bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(image.as_ptr(), fb.base(), image.len());
        }
        fb
    }

    #[inline]
    fn base(&self) -> *mut u8 {
        self.words.as_ptr() as *mut u8
    }

    /// The aligned word at byte offset `off` viewed as an atomic.
    ///
    /// Caller guarantees `off % 8 == 0` and `off + 8 <= words.len() * 8`
    /// (note: the word may extend past `len` when the device length is not
    /// a multiple of 8; the backing store always covers whole words).
    #[inline]
    fn atomic_word(&self, off: usize) -> &std::sync::atomic::AtomicU64 {
        debug_assert_eq!(off % 8, 0);
        debug_assert!(off / 8 < self.words.len());
        // SAFETY: the pointer is 8-aligned (word-aligned base + off % 8 == 0)
        // and in bounds; `AtomicU64` has the same layout as `u64`. Mixed
        // plain/atomic access is excluded by the discipline in the struct
        // docs.
        unsafe { &*(self.base().add(off) as *const std::sync::atomic::AtomicU64) }
    }
}

enum Backing {
    Fast(FastBuf),
    Tracked(Mutex<Tracker>),
}

/// One page's granule write flags (bit `i`: granule `i` of the page), alone
/// on its cache line so that stores to two pages never share a flag line.
#[repr(align(64))]
struct WrittenMask(AtomicU32);

/// The flag masks of a `len`-byte device, one per (partial) page.
fn written_masks(len: usize) -> Box<[WrittenMask]> {
    let masks = Box::<[WrittenMask]>::new_zeroed_slice(len.div_ceil(PAGE_SIZE));
    // SAFETY: `WrittenMask` is one `AtomicU32`, for which all-zero bytes
    // are the valid value 0. (Zeroed allocation leaves a large device's
    // masks to be paged in as they are first touched.)
    unsafe { masks.assume_init() }
}

/// The mask of granules `lo..=hi` of one page.
fn granule_bits(lo: usize, hi: usize) -> u32 {
    (u32::MAX >> (GRANULES_PER_PAGE - 1 - hi)) & (u32::MAX << lo)
}

/// An emulated persistent-memory device.
///
/// All offsets are absolute byte offsets from the start of the device.
/// Devices are usually wrapped in an [`Arc`] and shared between the kernel
/// substrate and every LibFS.
///
/// # Granule write flags
///
/// Every store path — [`write`](Self::write) (and [`zero`](Self::zero)
/// through it), [`ntstore`](Self::ntstore) and the atomic read-modify-writes
/// — sets, *after* storing the data, the flag of each [`GRANULE`] it
/// touched, with a release `fetch_or`. [`take_written`](Self::take_written)
/// swaps a page's flags to zero (acquire-release, then a fence) and must be
/// called *before* the taker reads the granules it captures: a clear flag
/// then means no store to that granule became visible since the last take,
/// and a store still in flight during the take sets its flag afterwards, so
/// the next take reports it. Loads never set a flag; neither reading nor
/// taking the flags counts a load or charges latency (they model page-table
/// bookkeeping in DRAM).
///
/// # Examples
///
/// A store is durable only after `clwb` + `sfence`; a tracked device can
/// show you the crash states in between:
///
/// ```
/// use pmem::PmemDevice;
///
/// let dev = PmemDevice::new_tracked(4096);
/// dev.write(0, b"hello")?;
/// assert_eq!(&dev.persistent_image()?[..5], &[0; 5]); // not durable yet
/// dev.persist(0, 5)?;
/// assert_eq!(&dev.persistent_image()?[..5], b"hello");
/// # Ok::<(), pmem::PmemError>(())
/// ```
pub struct PmemDevice {
    len: usize,
    backing: Backing,
    stats: PmemStats,
    latency: LatencyModel,
    written: Box<[WrittenMask]>,
}

impl fmt::Debug for PmemDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmemDevice")
            .field("len", &self.len)
            .field("mode", &self.mode())
            .finish()
    }
}

impl PmemDevice {
    fn with_backing(len: usize, backing: Backing, latency: LatencyModel) -> Arc<Self> {
        Arc::new(PmemDevice {
            len,
            backing,
            stats: PmemStats::default(),
            latency,
            written: written_masks(len),
        })
    }

    /// A zero-initialized fast-mode device of `len` bytes.
    pub fn new(len: usize) -> Arc<Self> {
        Self::with_backing(
            len,
            Backing::Fast(FastBuf::new(len)),
            LatencyModel::disabled(),
        )
    }

    /// A zero-initialized tracked-mode device of `len` bytes.
    pub fn new_tracked(len: usize) -> Arc<Self> {
        Self::with_backing(
            len,
            Backing::Tracked(Mutex::new(Tracker::new(len))),
            LatencyModel::disabled(),
        )
    }

    /// A fast-mode device initialized from a durable image (e.g. a crash
    /// image produced by [`PmemDevice::sample_crash_image`]), for recovery.
    pub fn from_image(image: &[u8]) -> Arc<Self> {
        Self::with_backing(
            image.len(),
            Backing::Fast(FastBuf::from_image(image)),
            LatencyModel::disabled(),
        )
    }

    /// A tracked-mode device initialized from a durable image.
    pub fn tracked_from_image(image: Vec<u8>) -> Arc<Self> {
        let len = image.len();
        Self::with_backing(
            len,
            Backing::Tracked(Mutex::new(Tracker::from_image(image))),
            LatencyModel::disabled(),
        )
    }

    /// A fast-mode device with an injected latency model (benchmarks).
    pub fn with_latency(len: usize, latency: LatencyModel) -> Arc<Self> {
        Self::with_backing(len, Backing::Fast(FastBuf::new(len)), latency)
    }

    /// Device length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the device has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages on the device.
    pub fn page_count(&self) -> u64 {
        (self.len / PAGE_SIZE) as u64
    }

    /// The device's backing mode.
    pub fn mode(&self) -> Mode {
        match self.backing {
            Backing::Fast(_) => Mode::Fast,
            Backing::Tracked(_) => Mode::Tracked,
        }
    }

    /// Operation counters.
    pub fn stats(&self) -> &PmemStats {
        &self.stats
    }

    #[inline]
    fn check(&self, off: u64, len: usize) -> PmemResult<()> {
        if (off as usize).checked_add(len).is_none_or(|e| e > self.len) {
            return Err(PmemError::OutOfBounds {
                offset: off,
                len,
                size: self.len,
            });
        }
        Ok(())
    }

    #[inline]
    fn lines_touched(off: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        (line_of(off + len as u64 - 1) - line_of(off)) / CACHE_LINE as u64 + 1
    }

    /// Read `buf.len()` bytes at `off`.
    pub fn read(&self, off: u64, buf: &mut [u8]) -> PmemResult<()> {
        self.check(off, buf.len())?;
        self.stats.count_load(buf.len());
        self.latency
            .charge_read(Self::lines_touched(off, buf.len()));
        match &self.backing {
            Backing::Fast(fb) => {
                // SAFETY: bounds checked above; see `FastBuf` for the
                // aliasing discipline.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        fb.base().add(off as usize),
                        buf.as_mut_ptr(),
                        buf.len(),
                    );
                }
            }
            Backing::Tracked(t) => t.lock().read(off, buf),
        }
        Ok(())
    }

    /// Store `data` at `off`. Not durable until flushed and fenced.
    pub fn write(&self, off: u64, data: &[u8]) -> PmemResult<()> {
        self.check(off, data.len())?;
        self.stats.count_store(data.len());
        self.latency
            .charge_write(Self::lines_touched(off, data.len()));
        match &self.backing {
            Backing::Fast(fb) => {
                // SAFETY: bounds checked above; see `FastBuf` for the
                // aliasing discipline.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        data.as_ptr(),
                        fb.base().add(off as usize),
                        data.len(),
                    );
                }
            }
            Backing::Tracked(t) => t.lock().write(off, data),
        }
        self.mark_written(off, data.len());
        Ok(())
    }

    /// Non-temporal store: durable at the next [`PmemDevice::sfence`]
    /// without an explicit `clwb`. Used by the I/O delegation path for
    /// large data writes.
    pub fn ntstore(&self, off: u64, data: &[u8]) -> PmemResult<()> {
        self.check(off, data.len())?;
        self.stats.count_ntstore(data.len());
        self.latency
            .charge_write(Self::lines_touched(off, data.len()));
        match &self.backing {
            Backing::Fast(fb) => {
                // SAFETY: bounds checked above; see `FastBuf`.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        data.as_ptr(),
                        fb.base().add(off as usize),
                        data.len(),
                    );
                }
            }
            Backing::Tracked(t) => t.lock().ntstore(off, data),
        }
        self.mark_written(off, data.len());
        Ok(())
    }

    /// Set the write flag of every granule `[off, off + len)` touches. Runs
    /// after the data store; the release pairs with the acquire of
    /// [`PmemDevice::take_written`], so a taker that sees the flag sees the
    /// data.
    #[inline]
    fn mark_written(&self, off: u64, len: usize) {
        if len == 0 {
            return;
        }
        let page = PAGE_SIZE as u64;
        let granule = |at: u64| (at % page) as usize / GRANULE;
        let last = off + len as u64 - 1;
        let (first_page, last_page) = (off / page, last / page);
        for p in first_page..=last_page {
            let lo = if p == first_page { granule(off) } else { 0 };
            let hi = if p == last_page {
                granule(last)
            } else {
                GRANULES_PER_PAGE - 1
            };
            self.written[p as usize]
                .0
                .fetch_or(granule_bits(lo, hi), Ordering::Release);
        }
    }

    fn written_mask(&self, page: u64) -> PmemResult<&AtomicU32> {
        self.written
            .get(page as usize)
            .map(|m| &m.0)
            .ok_or(PmemError::OutOfBounds {
                offset: page.saturating_mul(PAGE_SIZE as u64),
                len: PAGE_SIZE,
                size: self.len,
            })
    }

    /// The granule write flags of `page`: bit `i` is set when a store to
    /// bytes `[i * GRANULE, (i + 1) * GRANULE)` of the page became visible
    /// since the flags were last taken. Counts no load, charges no latency.
    pub fn written(&self, page: u64) -> PmemResult<u32> {
        Ok(self.written_mask(page)?.load(Ordering::Acquire))
    }

    /// Take `page`'s granule write flags, leaving them clear. Call it
    /// *before* reading the granules the flags are for (see the struct
    /// docs). Counts no load, charges no latency.
    pub fn take_written(&self, page: u64) -> PmemResult<u32> {
        let flags = self.written_mask(page)?.swap(0, Ordering::AcqRel);
        fence(Ordering::SeqCst);
        Ok(flags)
    }

    /// Flush (`clwb`) every cache line overlapping `[off, off + len)`.
    pub fn clwb(&self, off: u64, len: usize) -> PmemResult<()> {
        if len == 0 {
            return Ok(());
        }
        self.check(off, len)?;
        let lines = Self::lines_touched(off, len);
        self.stats.count_clwb(lines);
        self.latency.charge_clwb(lines);
        if let Backing::Tracked(t) = &self.backing {
            t.lock().clwb(off, len as u64);
        }
        Ok(())
    }

    /// Store fence (`sfence`): flushed stores become durable.
    pub fn sfence(&self) {
        self.stats.count_sfence();
        self.latency.charge_sfence();
        if let Backing::Tracked(t) = &self.backing {
            t.lock().sfence();
        }
    }

    /// Convenience: `clwb` + `sfence` over a range.
    pub fn persist(&self, off: u64, len: usize) -> PmemResult<()> {
        self.clwb(off, len)?;
        self.sfence();
        Ok(())
    }

    /// Quiesce the device: everything currently stored becomes durable.
    /// (On the fast backing this is a fence only; all content is implicitly
    /// durable there.)
    pub fn persist_all(&self) {
        self.stats.count_sfence();
        if let Backing::Tracked(t) = &self.backing {
            t.lock().persist_all();
        }
    }

    // ---- typed little-endian accessors -----------------------------------

    /// Read a `u64` (little-endian) at `off`.
    pub fn read_u64(&self, off: u64) -> PmemResult<u64> {
        let mut b = [0u8; 8];
        self.read(off, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Store a `u64` (little-endian) at `off`.
    pub fn write_u64(&self, off: u64, v: u64) -> PmemResult<()> {
        self.write(off, &v.to_le_bytes())
    }

    /// Read a `u32` (little-endian) at `off`.
    pub fn read_u32(&self, off: u64) -> PmemResult<u32> {
        let mut b = [0u8; 4];
        self.read(off, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Store a `u32` (little-endian) at `off`.
    pub fn write_u32(&self, off: u64, v: u32) -> PmemResult<()> {
        self.write(off, &v.to_le_bytes())
    }

    /// Read a `u16` (little-endian) at `off`.
    pub fn read_u16(&self, off: u64) -> PmemResult<u16> {
        let mut b = [0u8; 2];
        self.read(off, &mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Store a `u16` (little-endian) at `off`.
    pub fn write_u16(&self, off: u64, v: u16) -> PmemResult<()> {
        self.write(off, &v.to_le_bytes())
    }

    /// Read a single byte at `off`.
    pub fn read_u8(&self, off: u64) -> PmemResult<u8> {
        let mut b = [0u8; 1];
        self.read(off, &mut b)?;
        Ok(b[0])
    }

    /// Store a single byte at `off`.
    pub fn write_u8(&self, off: u64, v: u8) -> PmemResult<()> {
        self.write(off, &[v])
    }

    // ---- atomic word read-modify-write -----------------------------------

    /// Atomically OR `mask` into the `u64` (little-endian) at `off`,
    /// returning the previous value. `off` must be 8-byte aligned.
    ///
    /// Like any store, the result is durable only after `clwb` of the
    /// owning line plus `sfence`. The sharded page allocator uses this for
    /// bitmap bit-set so that two threads touching different bits of the
    /// same word never lose an update to a plain read-modify-write.
    pub fn fetch_or_u64(&self, off: u64, mask: u64) -> PmemResult<u64> {
        self.atomic_rmw(off, |old| old | mask)
    }

    /// Atomically AND `mask` into the `u64` (little-endian) at `off`,
    /// returning the previous value. `off` must be 8-byte aligned.
    pub fn fetch_and_u64(&self, off: u64, mask: u64) -> PmemResult<u64> {
        self.atomic_rmw(off, |old| old & mask)
    }

    fn atomic_rmw(&self, off: u64, f: impl Fn(u64) -> u64) -> PmemResult<u64> {
        self.check(off, 8)?;
        if !off.is_multiple_of(8) {
            return Err(PmemError::Misaligned { offset: off });
        }
        self.stats.count_load(8);
        self.stats.count_store(8);
        self.latency.charge_write(1);
        let old = match &self.backing {
            Backing::Fast(fb) => {
                let word = fb.atomic_word(off as usize);
                let mut old = word.load(Ordering::Relaxed);
                // The in-memory value is native-endian; the device contract
                // is little-endian words. On the RMW path the distinction
                // only matters for the returned old value, converted below.
                loop {
                    let new = f(u64::from_le(old)).to_le();
                    match word.compare_exchange_weak(
                        old,
                        new,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break u64::from_le(old),
                        Err(cur) => old = cur,
                    }
                }
            }
            Backing::Tracked(t) => {
                // One tracker lock spans the load and the store, so the
                // read-modify-write is atomic with respect to every other
                // (serialized) tracked access.
                let mut t = t.lock();
                let mut b = [0u8; 8];
                t.read(off, &mut b);
                let old = u64::from_le_bytes(b);
                t.write(off, &f(old).to_le_bytes());
                old
            }
        };
        self.mark_written(off, 8);
        Ok(old)
    }

    /// Zero a byte range (store of zeroes; still needs flushing to persist).
    pub fn zero(&self, off: u64, len: usize) -> PmemResult<()> {
        // Chunked to avoid one large temporary for big ranges.
        const Z: [u8; 4096] = [0u8; 4096];
        let mut cur = off;
        let end = off + len as u64;
        while cur < end {
            let n = ((end - cur) as usize).min(Z.len());
            self.write(cur, &Z[..n])?;
            cur += n as u64;
        }
        Ok(())
    }

    // ---- crash-state interface (tracked mode only) ------------------------

    /// Sample one crash image (tracked mode only).
    pub fn sample_crash_image(&self, rng: &mut dyn rand::RngCore) -> PmemResult<Vec<u8>> {
        match &self.backing {
            Backing::Tracked(t) => Ok(t.lock().sample_crash_image(rng)),
            Backing::Fast(_) => Err(PmemError::NotTracked),
        }
    }

    /// Enumerate all crash images if there are at most `limit` (tracked
    /// mode only). Returns `Ok(None)` when the state space exceeds `limit`.
    pub fn enumerate_crash_images(&self, limit: u64) -> PmemResult<Option<Vec<Vec<u8>>>> {
        match &self.backing {
            Backing::Tracked(t) => Ok(t.lock().enumerate_crash_images(limit)),
            Backing::Fast(_) => Err(PmemError::NotTracked),
        }
    }

    /// Number of distinct crash states (tracked mode only).
    pub fn crash_state_count(&self) -> PmemResult<u64> {
        match &self.backing {
            Backing::Tracked(t) => Ok(t.lock().crash_state_count()),
            Backing::Fast(_) => Err(PmemError::NotTracked),
        }
    }

    /// Snapshot the full volatile image (both modes). Useful for golden
    /// comparisons in tests.
    pub fn volatile_image(&self) -> Vec<u8> {
        match &self.backing {
            Backing::Fast(fb) => {
                let mut out = vec![0u8; self.len];
                // SAFETY: reading the full in-bounds buffer; see `FastBuf`.
                unsafe {
                    std::ptr::copy_nonoverlapping(fb.base(), out.as_mut_ptr(), self.len);
                }
                out
            }
            Backing::Tracked(t) => t.lock().volatile_image().to_vec(),
        }
    }

    /// Snapshot the durable image (tracked mode only).
    pub fn persistent_image(&self) -> PmemResult<Vec<u8>> {
        match &self.backing {
            Backing::Tracked(t) => Ok(t.lock().persistent_image().to_vec()),
            Backing::Fast(_) => Err(PmemError::NotTracked),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fast_read_write_round_trip() {
        let d = PmemDevice::new(8192);
        d.write(100, b"hello").unwrap();
        let mut b = [0u8; 5];
        d.read(100, &mut b).unwrap();
        assert_eq!(&b, b"hello");
    }

    #[test]
    fn typed_accessors() {
        let d = PmemDevice::new(4096);
        d.write_u64(0, 0xdead_beef_cafe_f00d).unwrap();
        d.write_u32(8, 0x1234_5678).unwrap();
        d.write_u16(12, 0xabcd).unwrap();
        d.write_u8(14, 0xef).unwrap();
        assert_eq!(d.read_u64(0).unwrap(), 0xdead_beef_cafe_f00d);
        assert_eq!(d.read_u32(8).unwrap(), 0x1234_5678);
        assert_eq!(d.read_u16(12).unwrap(), 0xabcd);
        assert_eq!(d.read_u8(14).unwrap(), 0xef);
    }

    #[test]
    fn bounds_checked() {
        let d = PmemDevice::new(128);
        assert!(matches!(
            d.write(120, &[0u8; 16]),
            Err(PmemError::OutOfBounds { .. })
        ));
        let mut b = [0u8; 16];
        assert!(d.read(125, &mut b).is_err());
        assert!(d.read_u64(124).is_err());
    }

    #[test]
    fn stats_accounting() {
        let d = PmemDevice::new(4096);
        d.write(0, &[0u8; 128]).unwrap();
        d.clwb(0, 128).unwrap();
        d.sfence();
        let s = d.stats().snapshot();
        assert_eq!(s.stores, 1);
        assert_eq!(s.bytes_written, 128);
        assert_eq!(s.clwb, 2); // 128 bytes = 2 lines
        assert_eq!(s.sfences, 1);
    }

    #[test]
    fn tracked_durability() {
        let d = PmemDevice::new_tracked(4096);
        d.write(64, b"abc").unwrap();
        // Not yet durable.
        assert_eq!(&d.persistent_image().unwrap()[64..67], &[0, 0, 0]);
        d.persist(64, 3).unwrap();
        assert_eq!(&d.persistent_image().unwrap()[64..67], b"abc");
    }

    #[test]
    fn fast_mode_rejects_crash_ops() {
        let d = PmemDevice::new(128);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            d.sample_crash_image(&mut rng).unwrap_err(),
            PmemError::NotTracked
        );
        assert!(d.enumerate_crash_images(10).is_err());
        assert!(d.crash_state_count().is_err());
        assert!(d.persistent_image().is_err());
    }

    #[test]
    fn crash_recovery_round_trip() {
        let d = PmemDevice::new_tracked(4096);
        d.write(0, b"durable").unwrap();
        d.persist(0, 7).unwrap();
        d.write(100, b"lost").unwrap(); // never flushed
        let mut rng = StdRng::seed_from_u64(7);
        // Sample many crash images; "durable" is always present.
        for _ in 0..50 {
            let img = d.sample_crash_image(&mut rng).unwrap();
            assert_eq!(&img[0..7], b"durable");
            let rec = PmemDevice::from_image(&img);
            let mut b = [0u8; 7];
            rec.read(0, &mut b).unwrap();
            assert_eq!(&b, b"durable");
        }
    }

    #[test]
    fn zero_range() {
        let d = PmemDevice::new(16384);
        d.write(0, &[0xFFu8; 10000]).unwrap();
        d.zero(5, 9990).unwrap();
        let mut b = vec![0u8; 10000];
        d.read(0, &mut b).unwrap();
        assert_eq!(&b[..5], &[0xFF; 5]);
        assert!(b[5..9995].iter().all(|&x| x == 0));
        assert_eq!(&b[9995..], &[0xFF; 5]);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let d = PmemDevice::new(64 * 1024);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let d = &d;
                s.spawn(move || {
                    let base = t * 16 * 1024;
                    for i in 0..100 {
                        d.write(base + i * 64, &[t as u8 + 1; 64]).unwrap();
                    }
                });
            }
        });
        for t in 0..4u64 {
            let mut b = [0u8; 64];
            d.read(t * 16 * 1024, &mut b).unwrap();
            assert_eq!(b, [t as u8 + 1; 64]);
        }
    }

    #[test]
    fn page_count() {
        let d = PmemDevice::new(10 * PAGE_SIZE);
        assert_eq!(d.page_count(), 10);
    }

    #[test]
    fn atomic_rmw_round_trip_both_modes() {
        for d in [PmemDevice::new(4096), PmemDevice::new_tracked(4096)] {
            assert_eq!(d.fetch_or_u64(64, 0xff00).unwrap(), 0);
            assert_eq!(d.fetch_and_u64(64, !0x0f00).unwrap(), 0xff00);
            assert_eq!(d.read_u64(64).unwrap(), 0xf000);
            // Word layout matches the byte accessors (little-endian).
            assert_eq!(d.read_u8(65).unwrap(), 0xf0);
        }
    }

    #[test]
    fn atomic_rmw_rejects_misaligned_and_oob() {
        let d = PmemDevice::new(128);
        assert_eq!(
            d.fetch_or_u64(4, 1).unwrap_err(),
            PmemError::Misaligned { offset: 4 }
        );
        assert!(matches!(
            d.fetch_or_u64(128, 1),
            Err(PmemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn atomic_rmw_is_durable_after_persist() {
        let d = PmemDevice::new_tracked(4096);
        d.fetch_or_u64(0, 0xabc).unwrap();
        assert_eq!(&d.persistent_image().unwrap()[0..2], &[0, 0]);
        d.persist(0, 8).unwrap();
        let img = d.persistent_image().unwrap();
        assert_eq!(u64::from_le_bytes(img[0..8].try_into().unwrap()), 0xabc);
    }

    // ---- granule write flags ---------------------------------------------

    fn both_backings(len: usize) -> [Arc<PmemDevice>; 2] {
        [PmemDevice::new(len), PmemDevice::new_tracked(len)]
    }

    fn all_flags(d: &PmemDevice) -> Vec<u32> {
        (0..d.page_count()).map(|p| d.written(p).unwrap()).collect()
    }

    #[test]
    fn every_store_path_flags_exactly_the_touched_granules() {
        const P: u64 = PAGE_SIZE as u64;
        for d in both_backings(4 * PAGE_SIZE) {
            // Inside one granule.
            d.write(130, &[1; 10]).unwrap();
            assert_eq!(all_flags(&d), [1 << 1, 0, 0, 0]);
            // Straddling a granule boundary, then a page boundary.
            d.write(P + 120, &[2; 16]).unwrap();
            assert_eq!(d.written(1).unwrap(), 0b11);
            d.write(2 * P - 64, &[3; 128]).unwrap();
            assert_eq!(d.written(1).unwrap(), 0b11 | 1 << 31);
            assert_eq!(d.written(2).unwrap(), 1);
            // Non-temporal stores and both read-modify-writes.
            d.ntstore(3 * P + 5 * 128, &[4; 128]).unwrap();
            assert_eq!(d.written(3).unwrap(), 1 << 5);
            d.fetch_or_u64(2 * P + 2 * 128 + 8, 1).unwrap();
            d.fetch_and_u64(2 * P + 7 * 128, 0).unwrap();
            assert_eq!(d.written(2).unwrap(), 1 | 1 << 2 | 1 << 7);
            // `zero` goes through `write`: a whole page and a bit more.
            d.zero(P - 1, PAGE_SIZE + 2).unwrap();
            assert_eq!(d.written(0).unwrap(), 1 << 1 | 1 << 31);
            assert_eq!(d.written(1).unwrap(), u32::MAX);
            assert_eq!(d.written(2).unwrap(), 1 | 1 << 2 | 1 << 7);
            // An empty store touches nothing.
            d.write(3 * P, &[]).unwrap();
            assert_eq!(d.written(3).unwrap(), 1 << 5);
        }
    }

    #[test]
    fn taking_clears_and_loads_never_flag() {
        for d in both_backings(2 * PAGE_SIZE) {
            d.write(300, b"x").unwrap();
            let loads = d.stats().snapshot().loads;
            assert_eq!(d.take_written(0).unwrap(), 1 << 2);
            assert_eq!(d.take_written(0).unwrap(), 0, "taking clears");
            assert_eq!(d.stats().snapshot().loads, loads, "flags are no PM load");
            let mut b = [0u8; PAGE_SIZE];
            d.read(0, &mut b).unwrap();
            d.read_u64(PAGE_SIZE as u64).unwrap();
            d.persist(0, 2 * PAGE_SIZE).unwrap();
            d.persist_all();
            let _ = d.volatile_image();
            assert_eq!(all_flags(&d), [0, 0], "no store, no flag");
            assert!(d.written(2).is_err() && d.take_written(2).is_err());
        }
        // A partial last page has a mask too.
        let d = PmemDevice::new(PAGE_SIZE + 256);
        d.write(PAGE_SIZE as u64 + 200, &[1; 8]).unwrap();
        assert_eq!(d.take_written(1).unwrap(), 1 << 1);
    }

    /// One thread keeps storing to a granule while another takes the flags
    /// and re-reads what they name, as a verifier does. However the two
    /// interleave, a granule whose flag is clear afterwards holds exactly
    /// the bytes the taker last read.
    #[test]
    fn a_clear_flag_means_the_last_capture_is_current() {
        for d in both_backings(2 * PAGE_SIZE) {
            // Granule 31 of page 0: the store straddles no boundary, the
            // capture reads exactly the granule.
            let at = (PAGE_SIZE - GRANULE) as u64;
            let done = std::sync::atomic::AtomicBool::new(false);
            let captured = std::thread::scope(|s| {
                s.spawn(|| {
                    for i in 0..20_000u64 {
                        let word = i.to_le_bytes();
                        let rec: Vec<u8> = word.iter().copied().cycle().take(GRANULE).collect();
                        d.write(at, &rec).unwrap();
                    }
                    done.store(true, Ordering::Release);
                });
                let mut captured = [0u8; GRANULE];
                loop {
                    let finished = done.load(Ordering::Acquire);
                    if d.take_written(0).unwrap() & 1 << 31 != 0 {
                        d.read(at, &mut captured).unwrap();
                    }
                    if finished {
                        break captured;
                    }
                }
            });
            let mut now = [0u8; GRANULE];
            d.read(at, &mut now).unwrap();
            if d.written(0).unwrap() == 0 {
                assert_eq!(captured, now, "a clear flag over a stale capture");
            }
            // The loop's last take followed the writer's last store.
            assert_eq!(d.written(0).unwrap(), 0);
        }
    }

    #[test]
    fn concurrent_fetch_or_loses_no_bits() {
        let d = PmemDevice::new(4096);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let d = &d;
                s.spawn(move || {
                    for i in 0..16 {
                        d.fetch_or_u64(0, 1 << (t * 16 + i)).unwrap();
                    }
                });
            }
        });
        assert_eq!(d.read_u64(0).unwrap(), u64::MAX);
    }
}
