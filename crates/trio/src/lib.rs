#![warn(missing_docs)]

//! The TRIO kernel substrate.
//!
//! TRIO (Zhou et al., SOSP 2023) splits a file system into per-application
//! LibFSes, an in-kernel access controller, and a trusted integrity
//! verifier. This crate is the trusted side of that split, implemented as an
//! in-process module with a syscall-like API (each entry point counts — and
//! can charge — a kernel crossing):
//!
//! * [`mod@format`] — the on-PM **core state** layout shared with every LibFS:
//!   superblock, inode table, shadow inode table, page-allocator bitmap,
//!   file pages, and the multi-tailed directory dentry log.
//! * [`controller`] — the access controller: inode ownership
//!   (acquire / release / commit / force-release), mapping grants, inode and
//!   page extents granted to LibFSes, trust groups.
//! * [`verifier`] — the integrity verifier: structural checks, the I3
//!   connected-tree invariant, rollback on failure, and (for ArckFS+) the
//!   rename-aware checks of §4.1 driven by the shadow parent pointer.
//! * [`shadow`] — the shadow inode table, the kernel's ground truth.
//! * [`lease`] — the global cross-directory rename lease of §4.6, a lock
//!   with a timeout so a malicious LibFS cannot hold it forever.
//! * [`fsck`] — an offline tree walk over a (possibly crash-sampled) device
//!   image; the oracle used by the crash-consistency checker.

pub mod controller;
pub mod format;
pub mod fsck;
pub mod lease;
pub mod provider;
pub mod shadow;
pub mod verifier;

pub use controller::{Delta, InodeGrant, Kernel, KernelConfig, KernelStats, LibFsId};
pub use format::{Geometry, InodeType};
pub use fsck::{logical_fingerprint, logical_snapshot, FsckIssue, FsckReport, LogicalEntry};
pub use lease::RenameLease;

/// The well-known inode number of the root directory.
pub const ROOT_INO: u64 = 1;
