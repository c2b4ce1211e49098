//! The baseline file system.
//!
//! One implementation serves all seven baseline profiles: a kernel-style
//! file system with a DRAM namespace index (NOVA keeps its radix trees in
//! DRAM the same way), per-inode locks with POSIX semantics (directory
//! modifications serialize on the parent), metadata persisted through the
//! [`crate::journal::Journal`] per the profile's mode, and data pages
//! allocated from the emulated device.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use pmem::{LatencyModel, PmemDevice, PAGE_SIZE};
use vfs::{
    path as vpath, DirEntry, Fd, FileSystem, FileType, FsError, FsResult, FsStats, Metadata,
    OpenFlags,
};

use crate::journal::{Journal, RECORD_SIZE};
use crate::profile::Profile;

const ROOT: u64 = 1;
/// Size of an on-PM inode record for the baselines.
const INODE_BYTES: usize = 64;

#[derive(Debug)]
enum Body {
    Dir(HashMap<String, u64>),
    File { size: u64, pages: Vec<u64> },
}

#[derive(Debug)]
struct Node {
    ino: u64,
    body: RwLock<Body>,
}

#[derive(Debug, Clone)]
struct FdEntry {
    ino: u64,
    flags: OpenFlags,
    /// Normalized absolute path, recorded for handles opened with
    /// `open_dir` — the baselines keep the trait's path-delegating `*at`
    /// defaults, which reconstruct `dir/name` through `fd_dir_path`.
    dir_path: Option<String>,
}

/// A baseline file system instance (see the crate docs).
pub struct KernelFs {
    device: Arc<PmemDevice>,
    profile: Profile,
    journal: Journal,
    nodes: RwLock<HashMap<u64, Arc<Node>>>,
    next_ino: AtomicU64,
    /// Bump allocator over the data region with a free list for reuse.
    next_page: AtomicU64,
    free_pages: Mutex<Vec<u64>>,
    /// Per-inode-log bump pointer (NOVA-class profiles).
    log_cursor: AtomicU64,
    log_region: (u64, u64),
    inode_region: u64,
    scratch: u64,
    fds: RwLock<HashMap<u64, FdEntry>>,
    next_fd: AtomicU64,
    /// The VFS cross-directory rename mutex.
    rename_mutex: Mutex<()>,
    syscalls: AtomicU64,
    shared_lock_acqs: AtomicU64,
    max_pages: u64,
}

impl std::fmt::Debug for KernelFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelFs")
            .field("profile", &self.profile.name)
            .finish()
    }
}

impl KernelFs {
    /// Format a baseline file system over a fresh device.
    pub fn format(device: Arc<PmemDevice>, profile: Profile) -> Arc<KernelFs> {
        let pages = device.page_count();
        assert!(pages > 256, "device too small for the baseline layout");
        // Layout: page 0 reserved; journal pages 1..33; inode records
        // 33..97; per-inode log region 97..161; scratch 161; data from 162.
        let journal = Journal::new(
            device.clone(),
            PAGE_SIZE as u64,
            32 * PAGE_SIZE as u64 / RECORD_SIZE * RECORD_SIZE,
            profile.journal,
        );
        let inode_region = 33 * PAGE_SIZE as u64;
        let log_region = (97 * PAGE_SIZE as u64, 64 * PAGE_SIZE as u64);
        let scratch = 161 * PAGE_SIZE as u64;
        let fs = KernelFs {
            device,
            profile,
            journal,
            nodes: RwLock::new(HashMap::new()),
            next_ino: AtomicU64::new(ROOT + 1),
            next_page: AtomicU64::new(162),
            free_pages: Mutex::new(Vec::new()),
            log_cursor: AtomicU64::new(0),
            log_region,
            inode_region,
            scratch,
            fds: RwLock::new(HashMap::new()),
            next_fd: AtomicU64::new(3),
            rename_mutex: Mutex::new(()),
            syscalls: AtomicU64::new(0),
            shared_lock_acqs: AtomicU64::new(0),
            max_pages: pages,
        };
        fs.nodes.write().insert(
            ROOT,
            Arc::new(Node {
                ino: ROOT,
                body: RwLock::new(Body::Dir(HashMap::new())),
            }),
        );
        Arc::new(fs)
    }

    /// Convenience: fresh device of `len` bytes + format.
    pub fn new(len: usize, profile: Profile) -> Arc<KernelFs> {
        Self::format(PmemDevice::new(len), profile)
    }

    /// The underlying device (for stats in the harness).
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    fn enter(&self, is_data: bool) {
        if is_data && !self.profile.data_ops_enter_kernel {
            return;
        }
        self.syscalls.fetch_add(1, Ordering::Relaxed);
        if !self.profile.syscall_cost.is_zero() {
            LatencyModel::spin(self.profile.syscall_cost);
        }
    }

    fn count_lock(&self) {
        self.shared_lock_acqs.fetch_add(1, Ordering::Relaxed);
    }

    fn alloc_page(&self) -> FsResult<u64> {
        if let Some(p) = self.free_pages.lock().pop() {
            return Ok(p);
        }
        let p = self.next_page.fetch_add(1, Ordering::Relaxed);
        if p >= self.max_pages {
            return Err(FsError::NoSpace);
        }
        Ok(p)
    }

    fn node(&self, ino: u64) -> FsResult<Arc<Node>> {
        self.nodes
            .read()
            .get(&ino)
            .cloned()
            .ok_or(FsError::NotFound)
    }

    /// Persist a metadata update for `ino` per the profile: journal the
    /// inode record, append to the per-inode log if configured, and charge
    /// the profile's extra bookkeeping lines.
    fn persist_meta(&self, ino: u64, record: &[u8]) -> FsResult<()> {
        let target = self.inode_region + (ino % 4096) * INODE_BYTES as u64;
        self.journal
            .log_update(target, record)
            .map_err(|e| FsError::Internal(e.to_string()))?;
        if self.profile.inode_log {
            let cap = self.log_region.1 / 64;
            let slot = self.log_cursor.fetch_add(1, Ordering::Relaxed) % cap;
            let off = self.log_region.0 + slot * 64;
            let mut entry = [0u8; 64];
            entry[..8].copy_from_slice(&ino.to_le_bytes());
            let n = record.len().min(48);
            entry[16..16 + n].copy_from_slice(&record[..n]);
            self.device
                .write(off, &entry)
                .and_then(|_| self.device.persist(off, 64))
                .map_err(|e| FsError::Internal(e.to_string()))?;
        }
        for i in 0..self.profile.extra_meta_lines {
            let off = self.scratch + (i as u64 % 60) * 64;
            self.device
                .write(off, &[0xAB; 64])
                .and_then(|_| self.device.persist(off, 64))
                .map_err(|e| FsError::Internal(e.to_string()))?;
        }
        Ok(())
    }

    fn meta_record(&self, ino: u64, ftype: u8, size: u64) -> [u8; 32] {
        let mut r = [0u8; 32];
        r[..8].copy_from_slice(&ino.to_le_bytes());
        r[8] = ftype;
        r[16..24].copy_from_slice(&size.to_le_bytes());
        r
    }

    fn resolve(&self, comps: &[&str]) -> FsResult<Arc<Node>> {
        let mut cur = self.node(ROOT)?;
        for c in comps {
            self.count_lock();
            let next = {
                let body = cur.body.read();
                match &*body {
                    Body::Dir(map) => *map.get(*c).ok_or(FsError::NotFound)?,
                    Body::File { .. } => return Err(FsError::NotADirectory),
                }
            };
            cur = self.node(next)?;
        }
        Ok(cur)
    }

    fn resolve_path(&self, path: &str) -> FsResult<Arc<Node>> {
        let comps = vpath::components(path)?;
        self.resolve(&comps)
    }

    fn create_node(&self, path: &str, dir: bool) -> FsResult<u64> {
        let (parent_comps, name) = vpath::split_parent(path)?;
        vpath::validate_name(name)?;
        let parent = self.resolve(&parent_comps)?;
        // POSIX: the parent directory's lock serializes the modification —
        // this is the shared-directory bottleneck of the kernel baselines.
        self.count_lock();
        let mut body = parent.body.write();
        let map = match &mut *body {
            Body::Dir(m) => m,
            Body::File { .. } => return Err(FsError::NotADirectory),
        };
        if map.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.next_ino.fetch_add(1, Ordering::Relaxed);
        let node = Arc::new(Node {
            ino,
            body: RwLock::new(if dir {
                Body::Dir(HashMap::new())
            } else {
                Body::File {
                    size: 0,
                    pages: Vec::new(),
                }
            }),
        });
        self.nodes.write().insert(ino, node);
        map.insert(name.to_string(), ino);
        // Two metadata updates persist: the new inode and the parent.
        let rec = self.meta_record(ino, if dir { 2 } else { 1 }, 0);
        self.persist_meta(ino, &rec)?;
        let prec = self.meta_record(parent.ino, 2, map.len() as u64);
        self.persist_meta(parent.ino, &prec)?;
        Ok(ino)
    }

    fn remove_node(&self, path: &str, want_dir: bool) -> FsResult<()> {
        let (parent_comps, name) = vpath::split_parent(path)?;
        let parent = self.resolve(&parent_comps)?;
        self.count_lock();
        let mut body = parent.body.write();
        let map = match &mut *body {
            Body::Dir(m) => m,
            Body::File { .. } => return Err(FsError::NotADirectory),
        };
        let ino = *map.get(name).ok_or(FsError::NotFound)?;
        let node = self.node(ino)?;
        {
            let nb = node.body.read();
            match (&*nb, want_dir) {
                (Body::Dir(_), false) => return Err(FsError::IsADirectory),
                (Body::File { .. }, true) => return Err(FsError::NotADirectory),
                (Body::Dir(children), true) if !children.is_empty() => {
                    return Err(FsError::NotEmpty)
                }
                _ => {}
            }
        }
        map.remove(name);
        if let Body::File { pages, .. } = &*node.body.read() {
            self.free_pages.lock().extend(pages.iter().copied());
        }
        self.nodes.write().remove(&ino);
        let rec = self.meta_record(ino, 0, 0);
        self.persist_meta(ino, &rec)?;
        let prec = self.meta_record(parent.ino, 2, map.len() as u64);
        self.persist_meta(parent.ino, &prec)?;
        Ok(())
    }

    fn file_fd(&self, fd: Fd) -> FsResult<(Arc<Node>, FdEntry)> {
        let entry = self
            .fds
            .read()
            .get(&fd.0)
            .cloned()
            .ok_or(FsError::BadDescriptor)?;
        let node = self.node(entry.ino)?;
        Ok((node, entry))
    }
}

impl FileSystem for KernelFs {
    fn fs_name(&self) -> &str {
        self.profile.name
    }

    fn create(&self, path: &str) -> FsResult<Fd> {
        let _span = obs::span(obs::OpKind::Create, self.device.stats());
        self.enter(false);
        let ino = self.create_node(path, false)?;
        let fd = Fd(self.next_fd.fetch_add(1, Ordering::Relaxed));
        self.fds.write().insert(
            fd.0,
            FdEntry {
                ino,
                flags: OpenFlags::rw(),
                dir_path: None,
            },
        );
        Ok(fd)
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        let _span = obs::span(obs::OpKind::Open, self.device.stats());
        self.enter(false);
        let ino = match self.resolve_path(path) {
            Ok(node) => {
                if flags.create && flags.excl {
                    return Err(FsError::AlreadyExists);
                }
                if matches!(&*node.body.read(), Body::Dir(_)) {
                    return Err(FsError::IsADirectory);
                }
                if flags.truncate {
                    if !flags.write {
                        return Err(FsError::BadAccessMode);
                    }
                    self.count_lock();
                    let mut body = node.body.write();
                    if let Body::File { size, pages } = &mut *body {
                        self.free_pages.lock().extend(pages.drain(..));
                        *size = 0;
                    }
                    let rec = self.meta_record(node.ino, 1, 0);
                    self.persist_meta(node.ino, &rec)?;
                }
                node.ino
            }
            Err(FsError::NotFound) if flags.create => self.create_node(path, false)?,
            Err(e) => return Err(e),
        };
        let fd = Fd(self.next_fd.fetch_add(1, Ordering::Relaxed));
        self.fds.write().insert(
            fd.0,
            FdEntry {
                ino,
                flags,
                dir_path: None,
            },
        );
        Ok(fd)
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Close, self.device.stats());
        self.fds
            .write()
            .remove(&fd.0)
            .map(|_| ())
            .ok_or(FsError::BadDescriptor)
    }

    fn read_at(&self, fd: Fd, buf: &mut [u8], offset: u64) -> FsResult<usize> {
        let _span = obs::span(obs::OpKind::Read, self.device.stats());
        self.enter(true);
        let (node, entry) = self.file_fd(fd)?;
        if !entry.flags.read {
            return Err(FsError::BadAccessMode);
        }
        self.count_lock();
        let body = node.body.read();
        let (size, pages) = match &*body {
            Body::File { size, pages } => (*size, pages),
            Body::Dir(_) => return Err(FsError::IsADirectory),
        };
        if offset >= size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(size - offset) as usize;
        let mut done = 0;
        while done < want {
            let pos = offset + done as u64;
            let idx = (pos / PAGE_SIZE as u64) as usize;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(want - done);
            match pages.get(idx) {
                Some(&p) if p != 0 => self
                    .device
                    .read(
                        p * PAGE_SIZE as u64 + in_page as u64,
                        &mut buf[done..done + n],
                    )
                    .map_err(|e| FsError::Internal(e.to_string()))?,
                _ => buf[done..done + n].fill(0),
            }
            done += n;
        }
        Ok(want)
    }

    fn write_at(&self, fd: Fd, buf: &[u8], offset: u64) -> FsResult<usize> {
        let _span = obs::span(obs::OpKind::Write, self.device.stats());
        self.enter(true);
        let (node, entry) = self.file_fd(fd)?;
        if !entry.flags.write {
            return Err(FsError::BadAccessMode);
        }
        self.count_lock();
        let mut body = node.body.write();
        let (size, pages) = match &mut *body {
            Body::File { size, pages } => (size, pages),
            Body::Dir(_) => return Err(FsError::IsADirectory),
        };
        let use_nt = self.profile.data_ntstore && buf.len() >= PAGE_SIZE;
        let mut done = 0;
        while done < buf.len() {
            let pos = offset + done as u64;
            let idx = (pos / PAGE_SIZE as u64) as usize;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(buf.len() - done);
            while pages.len() <= idx {
                pages.push(0);
            }
            if pages[idx] == 0 {
                let page = self.alloc_page()?;
                if n < PAGE_SIZE {
                    // A recycled page still holds its old bytes; the ones
                    // this write does not cover must read as zeroes.
                    let at = page * PAGE_SIZE as u64;
                    self.device
                        .write(at, &[0u8; PAGE_SIZE])
                        .and_then(|_| self.device.clwb(at, PAGE_SIZE))
                        .map_err(|e| FsError::Internal(e.to_string()))?;
                }
                pages[idx] = page;
            }
            let base = pages[idx] * PAGE_SIZE as u64 + in_page as u64;
            let chunk = &buf[done..done + n];
            let res = if use_nt {
                self.device.ntstore(base, chunk)
            } else {
                self.device
                    .write(base, chunk)
                    .and_then(|_| self.device.clwb(base, n))
            };
            res.map_err(|e| FsError::Internal(e.to_string()))?;
            done += n;
        }
        self.device.sfence();
        let end = offset + buf.len() as u64;
        if end > *size {
            *size = end;
        }
        let rec = self.meta_record(node.ino, 1, *size);
        drop(body);
        self.persist_meta(node.ino, &rec)?;
        Ok(buf.len())
    }

    fn append(&self, fd: Fd, buf: &[u8]) -> FsResult<u64> {
        let _span = obs::span(obs::OpKind::Append, self.device.stats());
        let (node, _) = self.file_fd(fd)?;
        let offset = match &*node.body.read() {
            Body::File { size, .. } => *size,
            Body::Dir(_) => return Err(FsError::IsADirectory),
        };
        self.write_at(fd, buf, offset)?;
        Ok(offset)
    }

    fn fsync(&self, _fd: Fd) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Fsync, self.device.stats());
        self.enter(false);
        // Metadata and data were persisted synchronously above; an fsync
        // still enters the kernel for these designs.
        self.device.sfence();
        Ok(())
    }

    fn truncate(&self, fd: Fd, new_size: u64) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Truncate, self.device.stats());
        self.enter(false);
        let (node, entry) = self.file_fd(fd)?;
        if !entry.flags.write {
            return Err(FsError::BadAccessMode);
        }
        self.count_lock();
        let mut body = node.body.write();
        let (size, pages) = match &mut *body {
            Body::File { size, pages } => (size, pages),
            Body::Dir(_) => return Err(FsError::IsADirectory),
        };
        let keep = new_size.div_ceil(PAGE_SIZE as u64) as usize;
        if pages.len() > keep {
            let dead: Vec<u64> = pages.drain(keep..).filter(|&p| p != 0).collect();
            self.free_pages.lock().extend(dead);
        }
        // Zero the boundary page's tail so later extension reads zeroes.
        if new_size < *size {
            let in_page = (new_size % PAGE_SIZE as u64) as usize;
            if in_page != 0 {
                if let Some(&p) = pages.get((new_size / PAGE_SIZE as u64) as usize) {
                    if p != 0 {
                        let off = p * PAGE_SIZE as u64 + in_page as u64;
                        let zeroes = vec![0u8; PAGE_SIZE - in_page];
                        self.device
                            .write(off, &zeroes)
                            .and_then(|_| self.device.clwb(off, zeroes.len()))
                            .map_err(|e| FsError::Internal(e.to_string()))?;
                    }
                }
            }
        }
        *size = new_size;
        let rec = self.meta_record(node.ino, 1, new_size);
        drop(body);
        self.persist_meta(node.ino, &rec)?;
        Ok(())
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Unlink, self.device.stats());
        self.enter(false);
        self.remove_node(path, false)
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Mkdir, self.device.stats());
        self.enter(false);
        self.create_node(path, true).map(|_| ())
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Rmdir, self.device.stats());
        self.enter(false);
        self.remove_node(path, true)
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let _span = obs::span(obs::OpKind::Rename, self.device.stats());
        self.enter(false);
        let (fp_comps, fname) = vpath::split_parent(from)?;
        let (tp_comps, tname) = vpath::split_parent(to)?;
        vpath::validate_name(tname)?;
        // Cross-directory renames serialize on the VFS rename mutex.
        let _guard = if fp_comps != tp_comps {
            self.count_lock();
            Some(self.rename_mutex.lock())
        } else {
            None
        };
        let fparent = self.resolve(&fp_comps)?;
        let tparent = self.resolve(&tp_comps)?;

        if vpath::components(to)?.starts_with(&vpath::components(from)?) {
            return Err(FsError::WouldCycle);
        }

        if fparent.ino == tparent.ino {
            self.count_lock();
            let mut body = fparent.body.write();
            let map = match &mut *body {
                Body::Dir(m) => m,
                Body::File { .. } => return Err(FsError::NotADirectory),
            };
            let ino = map.remove(fname).ok_or(FsError::NotFound)?;
            if map.contains_key(tname) {
                map.insert(fname.to_string(), ino);
                return Err(FsError::AlreadyExists);
            }
            map.insert(tname.to_string(), ino);
            let prec = self.meta_record(fparent.ino, 2, map.len() as u64);
            drop(body);
            self.persist_meta(fparent.ino, &prec)?;
            return Ok(());
        }

        // Lock both parents in ino order.
        self.count_lock();
        self.count_lock();
        let (first, second) = if fparent.ino < tparent.ino {
            (&fparent, &tparent)
        } else {
            (&tparent, &fparent)
        };
        let mut b1 = first.body.write();
        let mut b2 = second.body.write();
        let (fmap, tmap) = if fparent.ino < tparent.ino {
            (&mut *b1, &mut *b2)
        } else {
            (&mut *b2, &mut *b1)
        };
        let fmap = match fmap {
            Body::Dir(m) => m,
            _ => return Err(FsError::NotADirectory),
        };
        let tmap = match tmap {
            Body::Dir(m) => m,
            _ => return Err(FsError::NotADirectory),
        };
        if tmap.contains_key(tname) {
            return Err(FsError::AlreadyExists);
        }
        let ino = fmap.remove(fname).ok_or(FsError::NotFound)?;
        tmap.insert(tname.to_string(), ino);
        let frec = self.meta_record(fparent.ino, 2, fmap.len() as u64);
        let trec = self.meta_record(tparent.ino, 2, tmap.len() as u64);
        drop(b1);
        drop(b2);
        self.persist_meta(fparent.ino, &frec)?;
        self.persist_meta(tparent.ino, &trec)?;
        Ok(())
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let _span = obs::span(obs::OpKind::Readdir, self.device.stats());
        self.enter(false);
        let node = self.resolve_path(path)?;
        self.count_lock();
        let body = node.body.read();
        let map = match &*body {
            Body::Dir(m) => m,
            Body::File { .. } => return Err(FsError::NotADirectory),
        };
        let mut out = Vec::with_capacity(map.len());
        for (name, &ino) in map {
            let ftype = match self.node(ino) {
                Ok(n) => match &*n.body.read() {
                    Body::Dir(_) => FileType::Directory,
                    Body::File { .. } => FileType::Regular,
                },
                Err(_) => FileType::Regular,
            };
            out.push(DirEntry {
                name: name.clone(),
                ino,
                file_type: ftype,
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn stat(&self, path: &str) -> FsResult<Metadata> {
        let _span = obs::span(obs::OpKind::Stat, self.device.stats());
        self.enter(false);
        let node = self.resolve_path(path)?;
        let body = node.body.read();
        Ok(match &*body {
            Body::Dir(m) => Metadata {
                ino: node.ino,
                file_type: FileType::Directory,
                size: m.len() as u64,
                nlink: 2,
            },
            Body::File { size, .. } => Metadata {
                ino: node.ino,
                file_type: FileType::Regular,
                size: *size,
                nlink: 1,
            },
        })
    }

    fn fstat(&self, fd: Fd) -> FsResult<Metadata> {
        let _span = obs::span(obs::OpKind::Stat, self.device.stats());
        self.enter(false);
        let (node, _) = self.file_fd(fd)?;
        let body = node.body.read();
        Ok(match &*body {
            Body::Dir(m) => Metadata {
                ino: node.ino,
                file_type: FileType::Directory,
                size: m.len() as u64,
                nlink: 2,
            },
            Body::File { size, .. } => Metadata {
                ino: node.ino,
                file_type: FileType::Regular,
                size: *size,
                nlink: 1,
            },
        })
    }

    fn open_dir(&self, path: &str) -> FsResult<Fd> {
        let _span = obs::span(obs::OpKind::Open, self.device.stats());
        self.enter(false);
        let comps = vpath::components(path)?;
        let node = self.resolve(&comps)?;
        if !matches!(&*node.body.read(), Body::Dir(_)) {
            return Err(FsError::NotADirectory);
        }
        let normalized = format!("/{}", comps.join("/"));
        let fd = Fd(self.next_fd.fetch_add(1, Ordering::Relaxed));
        self.fds.write().insert(
            fd.0,
            FdEntry {
                ino: node.ino,
                flags: OpenFlags::read(),
                dir_path: Some(normalized),
            },
        );
        Ok(fd)
    }

    fn fd_dir_path(&self, dirfd: Fd) -> FsResult<String> {
        let entry = self
            .fds
            .read()
            .get(&dirfd.0)
            .cloned()
            .ok_or(FsError::BadDescriptor)?;
        entry.dir_path.ok_or(FsError::NotADirectory)
    }

    fn stats(&self) -> FsStats {
        let dev = self.device.stats().snapshot();
        FsStats {
            flushes: dev.clwb,
            fences: dev.sfences,
            syscalls: self.syscalls.load(Ordering::Relaxed),
            verifications: 0,
            pm_bytes_written: dev.bytes_written,
            shared_lock_acqs: self.shared_lock_acqs.load(Ordering::Relaxed),
            ..FsStats::default()
        }
    }

    fn reset_stats(&self) {
        self.device.stats().reset();
        self.syscalls.store(0, Ordering::Relaxed);
        self.shared_lock_acqs.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::FsExt;

    fn all_fs() -> Vec<Arc<KernelFs>> {
        Profile::all()
            .into_iter()
            .map(|p| KernelFs::new(16 << 20, p))
            .collect()
    }

    #[test]
    fn round_trip_all_profiles() {
        for fs in all_fs() {
            fs.write_file("/f", b"baseline").unwrap();
            assert_eq!(fs.read_file("/f").unwrap(), b"baseline");
            fs.mkdir("/d").unwrap();
            fs.write_file("/d/g", b"x").unwrap();
            assert_eq!(fs.readdir("/d").unwrap().len(), 1);
            fs.unlink("/d/g").unwrap();
            fs.rmdir("/d").unwrap();
        }
    }

    #[test]
    fn rename_within_and_across() {
        let fs = KernelFs::new(16 << 20, Profile::nova());
        fs.mkdir("/a").unwrap();
        fs.mkdir("/b").unwrap();
        fs.write_file("/a/f", b"1").unwrap();
        fs.rename("/a/f", "/a/g").unwrap();
        fs.rename("/a/g", "/b/h").unwrap();
        assert_eq!(fs.read_file("/b/h").unwrap(), b"1");
        assert!(fs.stat("/a/f").is_err());
    }

    #[test]
    fn rename_into_descendant_rejected() {
        let fs = KernelFs::new(16 << 20, Profile::ext4());
        fs.mkdir("/a").unwrap();
        fs.mkdir("/a/b").unwrap();
        assert_eq!(fs.rename("/a", "/a/b/c").unwrap_err(), FsError::WouldCycle);
    }

    #[test]
    fn journaling_profiles_flush_more() {
        let redo = KernelFs::new(16 << 20, Profile::ext4());
        let log = KernelFs::new(16 << 20, Profile::nova());
        redo.reset_stats();
        log.reset_stats();
        for i in 0..50 {
            redo.create(&format!("/r{i}")).unwrap();
            log.create(&format!("/l{i}")).unwrap();
        }
        let r = redo.stats();
        let l = log.stats();
        assert!(
            r.fences > l.fences,
            "ext4 (redo journal) must fence more than NOVA: {} vs {}",
            r.fences,
            l.fences
        );
    }

    #[test]
    fn concurrent_shared_directory_creates() {
        let fs = KernelFs::new(32 << 20, Profile::nova());
        fs.mkdir("/shared").unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let fs = fs.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        fs.create(&format!("/shared/t{t}-{i}")).unwrap();
                    }
                });
            }
        });
        assert_eq!(fs.readdir("/shared").unwrap().len(), 200);
    }

    #[test]
    fn truncate_and_sparse() {
        let fs = KernelFs::new(16 << 20, Profile::pmfs());
        let fd = fs.open("/t", OpenFlags::rw().create()).unwrap();
        fs.write_at(fd, &[1u8; 8192], 0).unwrap();
        fs.truncate(fd, 4096).unwrap();
        assert_eq!(fs.stat("/t").unwrap().size, 4096);
        let mut b = [0u8; 10];
        fs.write_at(fd, b"end", 10_000).unwrap();
        let n = fs.read_at(fd, &mut b, 5000).unwrap();
        assert_eq!(n, 10);
        assert_eq!(b, [0u8; 10], "hole reads zeroes");
    }

    #[test]
    fn rmdir_nonempty_fails() {
        let fs = KernelFs::new(16 << 20, Profile::winefs());
        fs.mkdir("/d").unwrap();
        fs.create("/d/f").unwrap();
        assert_eq!(fs.rmdir("/d").unwrap_err(), FsError::NotEmpty);
    }

    #[test]
    fn splitfs_data_ops_skip_syscalls() {
        let fs = KernelFs::new(16 << 20, Profile::splitfs());
        let fd = fs.open("/f", OpenFlags::rw().create()).unwrap();
        fs.reset_stats();
        for i in 0..10 {
            fs.write_at(fd, &[0u8; 64], i * 64).unwrap();
        }
        assert_eq!(fs.stats().syscalls, 0, "userspace data path");
        fs.create("/meta").unwrap();
        assert!(fs.stats().syscalls > 0, "metadata still crosses");
    }

    #[test]
    fn at_defaults_delegate_through_dir_path() {
        let fs = KernelFs::new(16 << 20, Profile::ext4());
        fs.mkdir("/d").unwrap();
        let dfd = fs.open_dir("/d").unwrap();
        let fd = fs.open_at(dfd, "f", OpenFlags::rw().create()).unwrap();
        fs.write_at(fd, b"abc", 0).unwrap();
        assert_eq!(fs.fstat(fd).unwrap().size, 3);
        fs.close(fd).unwrap();
        assert_eq!(fs.stat_at(dfd, "f").unwrap().size, 3);
        fs.mkdir_at(dfd, "sub").unwrap();
        assert_eq!(
            fs.stat("/d/sub").unwrap().file_type,
            FileType::Directory
        );
        fs.unlink_at(dfd, "f").unwrap();
        assert_eq!(fs.stat("/d/f").unwrap_err(), FsError::NotFound);
        // A plain file handle is not a directory anchor.
        let ffd = fs.open("/x", OpenFlags::rw().create()).unwrap();
        assert_eq!(
            fs.stat_at(ffd, "f").unwrap_err(),
            FsError::NotADirectory
        );
        // O_EXCL on an existing name fails.
        assert_eq!(
            fs.open("/x", OpenFlags::rw().create_new()).unwrap_err(),
            FsError::AlreadyExists
        );
    }
}
