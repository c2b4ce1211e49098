#![warn(missing_docs)]

//! ArckFS / ArckFS+ — the TRIO-based userspace NVM file system.
//!
//! This crate implements the LibFS side of the paper: a per-application
//! file system that keeps its **core state** (inodes, file pages, and a
//! multi-tailed dentry log per directory) in emulated persistent memory and
//! its **auxiliary state** (a hash-table directory index, cached inode
//! metadata, descriptor tables) in DRAM, with fine-grained locking for
//! multicore scalability (§2.2).
//!
//! Every bug the paper reports (§4.1–§4.6) is implemented *faithfully* and
//! is toggleable through [`Config`]:
//!
//! * [`Config::arckfs`] — the original artifact's behaviour, all six bugs
//!   present;
//! * [`Config::arckfs_plus`] — every patch applied.
//!
//! The deterministic [`inject`] schedule points play the role of the
//! `sleep()` calls the paper inserted "for better reproducibility": tests
//! arm a named point, the racing thread parks on it, and the test drives
//! the exact interleaving that manifests each bug.
//!
//! See `DESIGN.md` at the workspace root for how the C artifact's SIGBUS /
//! SIGSEGV symptoms map onto detected faults here.

pub mod config;
pub mod custom;
pub mod dcache;
pub mod delegate;
pub mod dir;
pub mod extent;
pub mod file;
pub mod inject;
pub mod inode;
pub mod libfs;
pub mod pool;
pub mod range_lock;
pub mod sync;

pub use config::Config;
pub use libfs::LibFs;

use std::sync::Arc;

use pmem::PmemDevice;
use trio::{Geometry, Kernel, KernelConfig};
use vfs::FsResult;

/// Convenience: create a fresh device of `device_len` bytes, format a TRIO
/// kernel whose trusted-side fixes match `config`, and mount one LibFS.
///
/// Benchmarks and tests that need several LibFSes (sharing, trust groups)
/// call [`Kernel::format`] and [`LibFs::mount`] directly instead.
///
/// # Examples
///
/// ```
/// use vfs::{FileSystem, FsExt};
///
/// let (kernel, fs) = arckfs::new_fs(32 << 20, arckfs::Config::arckfs_plus())?;
/// fs.mkdir("/inbox")?;
/// fs.write_file("/inbox/msg", b"hello")?;
/// assert_eq!(fs.read_file("/inbox/msg")?, b"hello");
/// fs.unmount()?;
/// assert_eq!(kernel.stats().snapshot().verify_failures, 0);
/// # Ok::<(), vfs::FsError>(())
/// ```
pub fn new_fs(device_len: usize, config: Config) -> FsResult<(Arc<Kernel>, Arc<LibFs>)> {
    let device = PmemDevice::new(device_len);
    new_fs_on(device, config)
}

/// As [`new_fs`], but on a caller-provided device (e.g. a tracked device
/// for crash-consistency checking).
pub fn new_fs_on(device: Arc<PmemDevice>, config: Config) -> FsResult<(Arc<Kernel>, Arc<LibFs>)> {
    let geom = Geometry::for_device(device.len());
    let kconfig = if config.fix_rename || config.fix_dir_cycle {
        KernelConfig::arckfs_plus()
    } else {
        KernelConfig::arckfs()
    };
    let kernel = Kernel::format(device, geom, kconfig)?;
    let fs = LibFs::mount(kernel.clone(), config, 0)?;
    Ok((kernel, fs))
}
