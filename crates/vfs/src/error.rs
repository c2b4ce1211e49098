//! Error types shared by every file system in the workspace.
//!
//! Two kinds of errors matter for the paper's reproduction:
//!
//! * ordinary POSIX-style failures (`ENOENT`, `EEXIST`, …), and
//! * **detected memory faults** ([`FaultKind`]): in the original C artifact
//!   the §4.3–§4.5 bugs manifest as bus errors and segmentation faults. Safe
//!   Rust cannot (and must not) leave those as undefined behaviour, so the
//!   persistent-memory emulator and the index arena detect the exact access
//!   the C code would have crashed on and surface it as
//!   [`FsError::Fault`]. Tests assert on these to manifest each bug.

use std::fmt;

/// Result alias used throughout the workspace.
pub type FsResult<T> = Result<T, FsError>;

/// A detected memory fault that models a crash in the original C artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Dereference of an unmapped persistent-memory mapping (the C artifact
    /// dies with SIGBUS — §4.3, incorrect synchronization of inode sharing).
    BusError {
        /// Offset within the device that was accessed.
        offset: u64,
        /// Human-readable description of the stale mapping.
        detail: String,
    },
    /// Dereference of a freed auxiliary-state entry (the C artifact dies
    /// with SIGSEGV — §4.4 inconsistent core/auxiliary state and §4.5
    /// unsynchronized directory bucket reads).
    UseAfterFree {
        /// Arena slot index that was accessed after free.
        slot: usize,
        /// Human-readable description.
        detail: String,
    },
    /// A pointer from the auxiliary state led to core state that no longer
    /// exists (§4.4): the DRAM index referenced a dentry whose persistent
    /// bytes were never written or already recycled.
    DanglingCoreRef {
        /// Offset within the device the auxiliary state pointed at.
        offset: u64,
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::BusError { offset, detail } => {
                write!(f, "bus error at pm offset {offset:#x}: {detail}")
            }
            FaultKind::UseAfterFree { slot, detail } => {
                write!(f, "use-after-free of arena slot {slot}: {detail}")
            }
            FaultKind::DanglingCoreRef { offset, detail } => {
                write!(f, "dangling core-state reference at {offset:#x}: {detail}")
            }
        }
    }
}

/// Errors returned by [`crate::FileSystem`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component or file does not exist (`ENOENT`).
    NotFound,
    /// Target already exists (`EEXIST`).
    AlreadyExists,
    /// Path component is not a directory (`ENOTDIR`).
    NotADirectory,
    /// Operation on a directory that requires a regular file (`EISDIR`).
    IsADirectory,
    /// Directory is not empty (`ENOTEMPTY`) — deleting non-empty directories
    /// would break invariant I3 (the hierarchy must remain a connected tree).
    NotEmpty,
    /// Malformed path or name (`EINVAL`).
    InvalidPath(String),
    /// Generic invalid argument (`EINVAL`).
    InvalidArgument(String),
    /// Out of persistent-memory space (`ENOSPC`).
    NoSpace,
    /// Caller lacks permission (`EACCES`).
    PermissionDenied,
    /// Bad or closed file descriptor (`EBADF`).
    BadDescriptor,
    /// The descriptor was not opened for this access mode (`EBADF`).
    BadAccessMode,
    /// Resource temporarily busy (`EBUSY`), e.g. the global rename lease is
    /// held by another LibFS.
    Busy,
    /// A rename would make a directory a descendant of itself (`EINVAL` in
    /// POSIX; §4.6 directory cycle).
    WouldCycle,
    /// TRIO integrity verification failed when an inode was committed or
    /// released; the kernel rolled the inode back (§2.1 step ⑧).
    VerificationFailed {
        /// Inode that failed verification.
        ino: u64,
        /// Verifier's reason string.
        reason: String,
    },
    /// The kernel refused to grant ownership of an inode (held by another
    /// LibFS outside any shared trust group).
    NotOwner {
        /// The inode in question.
        ino: u64,
    },
    /// The inode was voluntarily released (§4.3) after the operation
    /// resolved it but before (or while) the operation entered the inode's
    /// critical section. With the §4.3 patch this is an *internal retry
    /// signal*: the LibFS re-acquires the inode and replays the operation,
    /// so callers never observe it. It is public only because the fix
    /// lives below the shared [`crate::FileSystem`] boundary.
    Released {
        /// The inode that was released mid-operation.
        ino: u64,
    },
    /// A detected memory fault standing in for the C artifact's crash.
    Fault(FaultKind),
    /// On-PM structure failed a structural sanity check during mount or
    /// recovery (corrupted superblock, bad commit marker, …).
    Corrupted(String),
    /// Name exceeds the maximum component length.
    NameTooLong,
    /// A write, truncate, or preallocation would grow the file past the
    /// mapping scheme's maximum size (`EFBIG`). Returned consistently by
    /// `write_at`/`truncate`/`fallocate` so callers can distinguish "file
    /// hit its format limit" from a generic invalid argument.
    FileTooBig {
        /// The first file block past the limit.
        block: u64,
    },
    /// Too many open files (`EMFILE`).
    TooManyOpenFiles,
    /// The file system does not implement this optional operation
    /// (`ENOTSUP`); carries the operation name. Generic callers (e.g. the
    /// [`crate::FsExt`] helpers, the KV store) treat this as "fall back to
    /// the path-based API", never as data loss.
    Unsupported(&'static str),
    /// Internal invariant violation — indicates a bug in this workspace, not
    /// in the modelled system.
    Internal(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::AlreadyExists => write!(f, "file exists"),
            FsError::NotADirectory => write!(f, "not a directory"),
            FsError::IsADirectory => write!(f, "is a directory"),
            FsError::NotEmpty => write!(f, "directory not empty"),
            FsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
            FsError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::PermissionDenied => write!(f, "permission denied"),
            FsError::BadDescriptor => write!(f, "bad file descriptor"),
            FsError::BadAccessMode => write!(f, "descriptor not opened for this mode"),
            FsError::Busy => write!(f, "resource busy"),
            FsError::WouldCycle => write!(f, "rename would create a directory cycle"),
            FsError::VerificationFailed { ino, reason } => {
                write!(f, "integrity verification failed for inode {ino}: {reason}")
            }
            FsError::NotOwner { ino } => write!(f, "inode {ino} owned by another LibFS"),
            FsError::Released { ino } => {
                write!(f, "inode {ino} was released mid-operation (re-acquire and retry)")
            }
            FsError::Fault(k) => write!(f, "memory fault: {k}"),
            FsError::Corrupted(m) => write!(f, "corrupted on-PM state: {m}"),
            FsError::NameTooLong => write!(f, "name too long"),
            FsError::FileTooBig { block } => {
                write!(f, "file too big: block {block} beyond the maximum file size")
            }
            FsError::TooManyOpenFiles => write!(f, "too many open files"),
            FsError::Unsupported(op) => write!(f, "operation not supported: {op}"),
            FsError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for FsError {}

impl FsError {
    /// True when the error is a detected memory fault (the modelled SIGBUS /
    /// SIGSEGV class of failures).
    pub fn is_fault(&self) -> bool {
        matches!(self, FsError::Fault(_))
    }

    /// True when the error is a TRIO verification failure.
    pub fn is_verification_failure(&self) -> bool {
        matches!(self, FsError::VerificationFailed { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(FsError::NotFound.to_string(), "no such file or directory");
        let e = FsError::VerificationFailed {
            ino: 7,
            reason: "missing child".into(),
        };
        assert!(e.to_string().contains("inode 7"));
        assert!(e.is_verification_failure());
        assert!(!e.is_fault());
    }

    #[test]
    fn fault_classification() {
        let f = FsError::Fault(FaultKind::BusError {
            offset: 0x1000,
            detail: "unmapped".into(),
        });
        assert!(f.is_fault());
        assert!(f.to_string().contains("bus error"));
        let u = FsError::Fault(FaultKind::UseAfterFree {
            slot: 3,
            detail: "freed dentry".into(),
        });
        assert!(u.to_string().contains("use-after-free"));
    }
}
