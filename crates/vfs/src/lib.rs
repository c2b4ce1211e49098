#![warn(missing_docs)]

//! Common file-system interface for the ArckFS reproduction.
//!
//! Every file system in this workspace — ArckFS, ArckFS+, the
//! verify-every-operation userspace baseline, and the kernel-file-system
//! models — implements the [`FileSystem`] trait defined here, so the
//! benchmark harness (FxMark, Filebench, the LevelDB-like KV store, fio-style
//! data workloads) can drive any of them interchangeably.
//!
//! The trait is deliberately close to the POSIX surface the original TRIO
//! artifact intercepts: positional reads and writes (`pread`/`pwrite`-style),
//! path-based metadata operations, and an `fsync` that ArckFS-class systems
//! may implement as a no-op because every operation persists synchronously.
//!
//! Two API layers sit on top of the path-based core:
//!
//! * **handle-relative (`*at`) operations** — [`FileSystem::open_dir`] yields
//!   a directory handle, and [`FileSystem::open_at`] /
//!   [`FileSystem::stat_at`] / [`FileSystem::unlink_at`] /
//!   [`FileSystem::mkdir_at`] operate relative to it, letting
//!   implementations skip the per-component prefix walk entirely;
//! * the [`FsExt`] extension trait — whole-file convenience helpers
//!   (`fs.write_file(..)`) that supersede the deprecated free functions.

pub mod error;
pub mod path;

use std::fmt;

pub use error::{FaultKind, FsError, FsResult};

/// A file descriptor handle returned by [`FileSystem::open`] and
/// [`FileSystem::create`].
///
/// Handles are plain integers so they can be passed freely between threads;
/// each file system maintains its own descriptor table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub u64);

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// Flags accepted by [`FileSystem::open`], built fluently:
///
/// ```
/// use vfs::OpenFlags;
/// let f = OpenFlags::read().write().create_new();
/// assert!(f.read && f.write && f.create && f.excl);
/// ```
///
/// Starters are [`OpenFlags::read`], [`OpenFlags::rw`] and
/// [`OpenFlags::empty`]; every other flag chains off a starter. The old
/// `RDONLY`/`CREATE`-style constants remain as deprecated aliases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create the file if it does not exist (`O_CREAT`).
    pub create: bool,
    /// With [`OpenFlags::create`], fail with [`FsError::AlreadyExists`] if
    /// the path already exists (`O_EXCL`). The existence check and the
    /// creation are atomic: they happen inside one directory-bucket
    /// critical section, never as a separate lookup.
    pub excl: bool,
    /// Truncate the file to zero length on open (`O_TRUNC`).
    pub truncate: bool,
    /// Every write through this descriptor lands at end-of-file
    /// (`O_APPEND`); the positional offset passed to
    /// [`FileSystem::write_at`] is ignored.
    pub append: bool,
}

impl OpenFlags {
    /// No access mode at all; chain flags off this to build write-only
    /// descriptors (`OpenFlags::empty().write()`).
    pub const fn empty() -> OpenFlags {
        OpenFlags {
            read: false,
            write: false,
            create: false,
            excl: false,
            truncate: false,
            append: false,
        }
    }

    /// Start a builder opened for reading (`O_RDONLY`).
    pub const fn read() -> OpenFlags {
        let mut f = OpenFlags::empty();
        f.read = true;
        f
    }

    /// Start a builder opened for reading and writing (`O_RDWR`).
    pub const fn rw() -> OpenFlags {
        OpenFlags::read().write()
    }

    /// Add write access (`O_WRONLY` when chained off
    /// [`OpenFlags::empty`]).
    pub const fn write(mut self) -> OpenFlags {
        self.write = true;
        self
    }

    /// Create the file if missing (`O_CREAT`).
    pub const fn create(mut self) -> OpenFlags {
        self.create = true;
        self
    }

    /// Create the file, failing if it already exists
    /// (`O_CREAT | O_EXCL`, like [`std::fs::OpenOptions::create_new`]).
    pub const fn create_new(mut self) -> OpenFlags {
        self.create = true;
        self.excl = true;
        self
    }

    /// Require exclusive creation (`O_EXCL`); only meaningful together
    /// with [`OpenFlags::create`].
    pub const fn excl(mut self) -> OpenFlags {
        self.excl = true;
        self
    }

    /// Truncate on open (`O_TRUNC`).
    pub const fn truncate(mut self) -> OpenFlags {
        self.truncate = true;
        self
    }

    /// Append mode (`O_APPEND`); implies write access.
    pub const fn append(mut self) -> OpenFlags {
        self.write = true;
        self.append = true;
        self
    }

    /// `O_RDONLY`.
    #[deprecated(note = "use the builder: `OpenFlags::read()`")]
    pub const RDONLY: OpenFlags = OpenFlags::read();
    /// `O_WRONLY`.
    #[deprecated(note = "use the builder: `OpenFlags::empty().write()`")]
    pub const WRONLY: OpenFlags = OpenFlags::empty().write();
    /// `O_RDWR`.
    #[deprecated(note = "use the builder: `OpenFlags::rw()`")]
    pub const RDWR: OpenFlags = OpenFlags::rw();
    /// `O_RDWR | O_CREAT`.
    #[deprecated(note = "use the builder: `OpenFlags::rw().create()`")]
    pub const CREATE: OpenFlags = OpenFlags::rw().create();
    /// `O_RDWR | O_CREAT | O_TRUNC`.
    #[deprecated(note = "use the builder: `OpenFlags::rw().create().truncate()`")]
    pub const CREATE_TRUNC: OpenFlags = OpenFlags::rw().create().truncate();
}

/// The type of an inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// A regular file.
    Regular,
    /// A directory.
    Directory,
}

impl fmt::Display for FileType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileType::Regular => write!(f, "file"),
            FileType::Directory => write!(f, "dir"),
        }
    }
}

/// Metadata returned by [`FileSystem::stat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metadata {
    /// Inode number.
    pub ino: u64,
    /// File or directory.
    pub file_type: FileType,
    /// File size in bytes; for directories, the number of live entries.
    pub size: u64,
    /// Link count (1 for regular files without hard links, 2+ for dirs).
    pub nlink: u64,
}

/// One entry returned by [`FileSystem::readdir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (a single path component).
    pub name: String,
    /// Inode number of the target.
    pub ino: u64,
    /// Type of the target inode.
    pub file_type: FileType,
}

/// Aggregate operation counters a file system may expose for the benchmark
/// harness and the scalability model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Number of cache-line flush operations issued to persistent memory.
    pub flushes: u64,
    /// Number of store fences issued.
    pub fences: u64,
    /// Number of kernel crossings (simulated syscalls).
    pub syscalls: u64,
    /// Number of integrity verifications performed.
    pub verifications: u64,
    /// Bytes written to persistent memory.
    pub pm_bytes_written: u64,
    /// Number of lock acquisitions taken on shared (cross-thread) state.
    pub shared_lock_acqs: u64,
    /// Path-resolution (dentry) cache hits.
    pub dcache_hits: u64,
    /// Path-resolution (dentry) cache misses (including fills).
    pub dcache_misses: u64,
    /// Per-directory generation bumps published by namespace writers; each
    /// bump invalidates every cached entry of that directory at once.
    pub dcache_invalidations: u64,
    /// Kernel extent grants used to restock the LibFS resource pools.
    pub pool_refills: u64,
    /// Items released back to the kernel when a pool slot crossed its high
    /// watermark.
    pub pool_releases: u64,
    /// Cross-shard fallbacks across the allocation stack: kernel allocator
    /// and inode-pool shard steals plus LibFS pool slot steals. Zero means
    /// every thread stayed on its home shard.
    pub alloc_steals: u64,
    /// Bytes whose delegated (I/O-delegation) store completed successfully.
    pub deleg_bytes: u64,
    /// Chunks enqueued into delegation submission rings.
    pub deleg_enqueued: u64,
    /// Delegation enqueue attempts that found a full ring (backpressure).
    pub deleg_backpressure: u64,
    /// High-water occupancy of any single delegation submission ring.
    pub deleg_sq_depth_max: u64,
    /// Delegation worker drain batches executed.
    pub deleg_batches: u64,
    /// Store fences issued by delegation drain batches; amortization means
    /// this stays below the chunk count as the drain batch grows.
    pub deleg_batch_fences: u64,
    /// Delegation ticket completions observed in the polling (spin) phase.
    pub deleg_polls: u64,
    /// Delegation ticket completions that parked on the condvar.
    pub deleg_parks: u64,
    /// Byte-range lock acquisitions on the regular-file data path
    /// (counted separately from `shared_lock_acqs`: disjoint ranges of one
    /// file do not contend, whole-object locks do).
    pub range_lock_acqs: u64,
    /// Extent records appended (or coalesced) into per-file extent chains.
    pub extent_inserts: u64,
    /// Always 0: appends commit in place by the size word and no data
    /// block is ever remapped. Kept because benchmark reports read it.
    pub cow_tail_copies: u64,
}

/// The common file-system interface.
///
/// All methods take `&self`; implementations are internally synchronized and
/// callable from many threads, which is exactly what the FxMark and Filebench
/// harnesses do.
///
/// The `*at` family ([`FileSystem::open_at`] and friends) operates relative
/// to a directory handle from [`FileSystem::open_dir`]. The default
/// implementations delegate to the path-based methods via
/// [`FileSystem::fd_dir_path`]; implementations with a native notion of
/// directory handles (the ArckFS LibFS) override them to skip the prefix
/// walk entirely.
pub trait FileSystem: Send + Sync {
    /// A short human-readable identifier (e.g. `"arckfs+"`, `"nova"`).
    fn fs_name(&self) -> &str;

    /// Create (and open read-write) a regular file. Fails with
    /// [`FsError::AlreadyExists`] if the path already exists.
    fn create(&self, path: &str) -> FsResult<Fd>;

    /// Open an existing file, or create it when `flags.create` is set.
    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd>;

    /// Close a descriptor.
    fn close(&self, fd: Fd) -> FsResult<()>;

    /// Positional read (`pread`). Returns the number of bytes read, which is
    /// short only at end-of-file.
    fn read_at(&self, fd: Fd, buf: &mut [u8], offset: u64) -> FsResult<usize>;

    /// Positional write (`pwrite`). Extends the file as needed and persists
    /// the data before returning.
    fn write_at(&self, fd: Fd, buf: &[u8], offset: u64) -> FsResult<usize>;

    /// Append to the end of the file; returns the offset written at.
    fn append(&self, fd: Fd, buf: &[u8]) -> FsResult<u64>;

    /// Vectored positional write (`pwritev`): every buffer in `bufs` lands
    /// contiguously starting at `offset`, and the whole gather is one
    /// atomic unit with respect to concurrent writers. The default loops
    /// over [`FileSystem::write_at`]; implementations with internal
    /// exclusion override it to acquire once, persist once.
    fn write_vectored_at(&self, fd: Fd, bufs: &[&[u8]], offset: u64) -> FsResult<usize> {
        let mut done = 0usize;
        for buf in bufs {
            let mut written = 0usize;
            while written < buf.len() {
                let n = self.write_at(fd, &buf[written..], offset + done as u64)?;
                written += n;
                done += n;
            }
        }
        Ok(done)
    }

    /// Vectored positional read (`preadv`): fill each buffer in `bufs`
    /// from consecutive offsets starting at `offset`. Returns the total
    /// bytes read, short only at end-of-file. The default loops over
    /// [`FileSystem::read_at`].
    fn read_vectored_at(&self, fd: Fd, bufs: &mut [&mut [u8]], offset: u64) -> FsResult<usize> {
        let mut done = 0usize;
        for buf in bufs.iter_mut() {
            let n = self.read_at(fd, buf, offset + done as u64)?;
            done += n;
            if n < buf.len() {
                break;
            }
        }
        Ok(done)
    }

    /// Preallocate backing storage for `[offset, offset + len)` and extend
    /// the file size over it, so the region reads as zeroes and later
    /// writes into it allocate nothing (`posix_fallocate` semantics).
    /// Optional; callers treat [`FsError::Unsupported`] as "preallocation
    /// is a no-op here", never as failure.
    fn fallocate(&self, fd: Fd, offset: u64, len: u64) -> FsResult<()> {
        let _ = (fd, offset, len);
        Err(FsError::Unsupported("fallocate"))
    }

    /// Flush a file to stable storage. ArckFS-class systems persist every
    /// operation synchronously, so this returns immediately for them.
    fn fsync(&self, fd: Fd) -> FsResult<()>;

    /// Make every completed operation durable, file-system-wide — the
    /// handle-less durability barrier. File systems that persist
    /// synchronously need nothing here (the default); ones that buffer
    /// writes or hand them to background workers override it to drain
    /// them.
    fn sync(&self) -> FsResult<()> {
        Ok(())
    }

    /// Truncate (or extend with zeroes) an open file to `size` bytes.
    fn truncate(&self, fd: Fd, size: u64) -> FsResult<()>;

    /// Remove a regular file.
    fn unlink(&self, path: &str) -> FsResult<()>;

    /// Create a directory.
    fn mkdir(&self, path: &str) -> FsResult<()>;

    /// Remove an empty directory.
    fn rmdir(&self, path: &str) -> FsResult<()>;

    /// Rename a file or directory. Cross-directory renames of non-empty
    /// directories are the multi-inode "directory relocation" operation the
    /// paper's §3 and §4.1 study.
    fn rename(&self, from: &str, to: &str) -> FsResult<()>;

    /// List a directory.
    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>>;

    /// Stat a path.
    fn stat(&self, path: &str) -> FsResult<Metadata>;

    /// Stat an open descriptor (`fstat`). Unlike [`FileSystem::stat`] this
    /// cannot race with a rename or unlink of the path the descriptor was
    /// opened at.
    fn fstat(&self, fd: Fd) -> FsResult<Metadata> {
        let _ = fd;
        Err(FsError::Unsupported("fstat"))
    }

    /// Open a directory handle for use with the `*at` operations. The
    /// handle is closed with [`FileSystem::close`].
    fn open_dir(&self, path: &str) -> FsResult<Fd> {
        let _ = path;
        Err(FsError::Unsupported("open_dir"))
    }

    /// The absolute path a directory handle was opened at. Only needed by
    /// implementations that rely on the default path-delegating `*at`
    /// methods; natively handle-relative implementations never call it.
    fn fd_dir_path(&self, dirfd: Fd) -> FsResult<String> {
        let _ = dirfd;
        Err(FsError::Unsupported("fd_dir_path"))
    }

    /// Open `name` (a single component) relative to a directory handle.
    fn open_at(&self, dirfd: Fd, name: &str, flags: OpenFlags) -> FsResult<Fd> {
        path::validate_name(name)?;
        let dir = self.fd_dir_path(dirfd)?;
        self.open(&path::join(&dir, name), flags)
    }

    /// Stat `name` relative to a directory handle.
    fn stat_at(&self, dirfd: Fd, name: &str) -> FsResult<Metadata> {
        path::validate_name(name)?;
        let dir = self.fd_dir_path(dirfd)?;
        self.stat(&path::join(&dir, name))
    }

    /// Remove the regular file `name` relative to a directory handle.
    fn unlink_at(&self, dirfd: Fd, name: &str) -> FsResult<()> {
        path::validate_name(name)?;
        let dir = self.fd_dir_path(dirfd)?;
        self.unlink(&path::join(&dir, name))
    }

    /// Create the directory `name` relative to a directory handle.
    fn mkdir_at(&self, dirfd: Fd, name: &str) -> FsResult<()> {
        path::validate_name(name)?;
        let dir = self.fd_dir_path(dirfd)?;
        self.mkdir(&path::join(&dir, name))
    }

    /// Aggregate counters; used for the calibrated scalability model.
    fn stats(&self) -> FsStats {
        FsStats::default()
    }

    /// Reset the counters returned by [`FileSystem::stats`].
    fn reset_stats(&self) {}
}

/// Whole-file convenience operations, available on every [`FileSystem`]
/// (including `dyn FileSystem`) through a blanket implementation.
pub trait FsExt: FileSystem {
    /// Write an entire file at a path, creating it if necessary.
    fn write_file(&self, path: &str, data: &[u8]) -> FsResult<()> {
        let fd = self.open(path, OpenFlags::rw().create().truncate())?;
        let res = (|| {
            let mut off = 0u64;
            let mut rem = data;
            while !rem.is_empty() {
                let n = self.write_at(fd, rem, off)?;
                off += n as u64;
                rem = &rem[n..];
            }
            Ok(())
        })();
        let closed = self.close(fd);
        res.and(closed)
    }

    /// Read an entire file at a path.
    ///
    /// The size is taken from the open descriptor ([`FileSystem::fstat`]),
    /// not from a second path lookup, so a concurrent rename or
    /// unlink+create of `path` between open and stat cannot pair the wrong
    /// size with the descriptor. Implementations without `fstat` fall back
    /// to reading until end-of-file, which is equally race-free.
    fn read_file(&self, path: &str) -> FsResult<Vec<u8>> {
        let fd = self.open(path, OpenFlags::read())?;
        let res = (|| match self.fstat(fd) {
            Ok(md) => {
                let size = md.size as usize;
                let mut buf = vec![0u8; size];
                let mut off = 0usize;
                while off < size {
                    let n = self.read_at(fd, &mut buf[off..], off as u64)?;
                    if n == 0 {
                        break;
                    }
                    off += n;
                }
                buf.truncate(off);
                Ok(buf)
            }
            Err(FsError::Unsupported(_)) => {
                let mut buf = Vec::new();
                let mut chunk = vec![0u8; 64 * 1024];
                loop {
                    let n = self.read_at(fd, &mut chunk, buf.len() as u64)?;
                    if n == 0 {
                        break;
                    }
                    buf.extend_from_slice(&chunk[..n]);
                }
                Ok(buf)
            }
            Err(e) => Err(e),
        })();
        let closed = self.close(fd);
        match res {
            Ok(buf) => closed.map(|()| buf),
            Err(e) => Err(e),
        }
    }

    /// Create every directory along `path` (like `mkdir -p`).
    fn mkdir_all(&self, path: &str) -> FsResult<()> {
        let comps = path::components(path)?;
        let mut cur = String::new();
        for c in comps {
            cur.push('/');
            cur.push_str(c);
            match self.mkdir(&cur) {
                Ok(()) | Err(FsError::AlreadyExists) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl<F: FileSystem + ?Sized> FsExt for F {}

/// Convenience: write an entire file at a path, creating it if necessary.
#[deprecated(note = "use the `FsExt` method: `fs.write_file(path, data)`")]
pub fn write_file(fs: &dyn FileSystem, path: &str, data: &[u8]) -> FsResult<()> {
    fs.write_file(path, data)
}

/// Convenience: read an entire file at a path.
#[deprecated(note = "use the `FsExt` method: `fs.read_file(path)`")]
pub fn read_file(fs: &dyn FileSystem, path: &str) -> FsResult<Vec<u8>> {
    fs.read_file(path)
}

/// Create every directory along `path` (like `mkdir -p`).
#[deprecated(note = "use the `FsExt` method: `fs.mkdir_all(path)`")]
pub fn mkdir_all(fs: &dyn FileSystem, path: &str) -> FsResult<()> {
    fs.mkdir_all(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_flags_builder() {
        let r = OpenFlags::read();
        assert!(r.read && !r.write && !r.create);
        let w = OpenFlags::empty().write();
        assert!(!w.read && w.write);
        let cn = OpenFlags::read().write().create_new();
        assert!(cn.read && cn.write && cn.create && cn.excl && !cn.truncate);
        let ap = OpenFlags::empty().append();
        assert!(ap.write && ap.append, "append implies write");
        let ct = OpenFlags::rw().create().truncate();
        assert!(ct.create && ct.truncate && !ct.excl);
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_aliases_match_builder() {
        assert_eq!(OpenFlags::RDONLY, OpenFlags::read());
        assert_eq!(OpenFlags::WRONLY, OpenFlags::empty().write());
        assert_eq!(OpenFlags::RDWR, OpenFlags::rw());
        assert_eq!(OpenFlags::CREATE, OpenFlags::rw().create());
        assert_eq!(
            OpenFlags::CREATE_TRUNC,
            OpenFlags::rw().create().truncate()
        );
    }

    #[test]
    fn fd_display() {
        assert_eq!(Fd(3).to_string(), "fd3");
    }

    #[test]
    fn file_type_display() {
        assert_eq!(FileType::Regular.to_string(), "file");
        assert_eq!(FileType::Directory.to_string(), "dir");
    }
}
