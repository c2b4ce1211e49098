//! LibFS configuration: bug/patch toggles and tuning knobs.

/// Which ArckFS+ patches this LibFS applies, plus structural knobs.
///
/// The six `fix_*` flags correspond one-to-one to Table 1 of the paper.
/// [`Config::arckfs`] turns them all off (the original artifact);
/// [`Config::arckfs_plus`] turns them all on.
#[derive(Debug, Clone)]
pub struct Config {
    /// §4.1 — correct cross-directory rename: follow LibFS Rules (2) and
    /// (3) (commit the new parent both before and after a directory
    /// relocation) and take the global rename lease. Requires a kernel
    /// formatted with [`trio::KernelConfig::arckfs_plus`].
    pub fix_rename: bool,
    /// §4.2 — add the memory fence before flushing the cache line that
    /// contains the dentry commit marker during file creation.
    pub fix_fence: bool,
    /// §4.3 — synchronize voluntary inode release: take every lock of the
    /// inode before releasing, retain the auxiliary state, and serve
    /// lock-free reads from metadata cached in the in-memory inode.
    pub fix_release_sync: bool,
    /// §4.4 — extend each directory bucket lock's critical section to cover
    /// the corresponding core-state (PM) update.
    pub fix_state_sync: bool,
    /// §4.5 — protect directory-bucket readers with RCU; defer freeing
    /// removed index entries past the grace period.
    pub fix_dir_bucket_rcu: bool,
    /// §4.6 — forbid directory cycles: global rename lease for
    /// cross-directory directory renames plus a descendant check.
    pub fix_dir_cycle: bool,

    /// Compute `O_APPEND` write offsets *inside* the file write critical
    /// section instead of from a size read taken before the lock. Not part
    /// of the paper's Table 1: this bug was found by `schedmc` in our own
    /// append path (two concurrent appenders could snapshot the same EOF and
    /// overlap). Defaults to on; tests flip it off to reproduce the race.
    pub fix_append_atomic: bool,

    /// Baseline profile: verify (commit) the affected directory on *every*
    /// metadata operation, modelling the KucoFS/SplitFS/Strata class of
    /// designs that involve the trusted component per operation (§1).
    pub verify_every_op: bool,

    /// Number of log tails per directory (§2.2's multi-tailed log).
    pub dir_tails: u32,
    /// Number of hash buckets per directory index.
    pub dir_buckets: usize,
    /// How many inode numbers to request from the kernel per grant.
    pub ino_batch: usize,
    /// How many pages to request from the kernel per grant.
    pub page_batch: usize,
    /// Low watermark (total items) for the LibFS resource pools: a pool
    /// slot drained for surplus release keeps this many items (divided
    /// across slots).
    pub pool_low: usize,
    /// High watermark (total items) for the LibFS resource pools: a
    /// recycle that leaves a slot above its share of this limit releases
    /// the surplus back to the kernel, so unlink storms no longer grow the
    /// pools without bound.
    pub pool_high: usize,
    /// Data writes of at least this many bytes go through the delegation
    /// path (non-temporal stores), as in OdinFS-style I/O delegation.
    pub ntstore_threshold: usize,
    /// Delegation worker threads streaming large writes to PM in the
    /// background (0 = inline non-temporal stores). Writes of at least
    /// [`Config::delegation_min`] bytes are shipped to the pool. Each
    /// worker owns one submission ring (DESIGN.md §10).
    pub delegation_threads: usize,
    /// Minimum write size handed to the delegation pool.
    pub delegation_min: usize,
    /// Slots per delegation submission ring; a full ring is backpressure
    /// (the submitter yields), never unbounded growth.
    pub deleg_sq_depth: usize,
    /// Jobs a delegation worker drains per batch — and thus how many
    /// non-temporal store streams share one amortized `sfence`.
    pub deleg_batch: usize,

    /// Lock-free path-resolution (dentry) cache (`crate::dcache`). On by
    /// default; off leaves resolution byte-for-byte on the authoritative
    /// bucket-index path for A/B comparison (tests that cover both paths
    /// build both configs).
    pub dcache: bool,
    /// Number of direct-mapped dentry-cache slots.
    pub dcache_slots: usize,
}

impl Config {
    /// The original ArckFS artifact: all six bugs present.
    pub fn arckfs() -> Self {
        Config {
            fix_rename: false,
            fix_fence: false,
            fix_release_sync: false,
            fix_state_sync: false,
            fix_dir_bucket_rcu: false,
            fix_dir_cycle: false,
            fix_append_atomic: true,
            verify_every_op: false,
            dir_tails: 4,
            dir_buckets: 128,
            ino_batch: 64,
            page_batch: 256,
            pool_low: 64,
            pool_high: 1024,
            ntstore_threshold: 4096,
            delegation_threads: 0,
            delegation_min: 512 * 1024,
            deleg_sq_depth: crate::delegate::DelegationPool::DEFAULT_SQ_DEPTH,
            deleg_batch: crate::delegate::DelegationPool::DEFAULT_BATCH,
            dcache: true,
            dcache_slots: 4096,
        }
    }

    /// ArckFS+: every patch applied.
    pub fn arckfs_plus() -> Self {
        Config {
            fix_rename: true,
            fix_fence: true,
            fix_release_sync: true,
            fix_state_sync: true,
            fix_dir_bucket_rcu: true,
            fix_dir_cycle: true,
            ..Config::arckfs()
        }
    }

    /// The verify-every-metadata-operation baseline (SplitFS/Strata-class),
    /// built on the fully patched LibFS.
    pub fn verify_per_op() -> Self {
        Config {
            verify_every_op: true,
            ..Config::arckfs_plus()
        }
    }

    /// Toggle a single fix by Table 1 row, for the ablation benches.
    /// `section` is one of `"4.1"`…`"4.6"`.
    pub fn with_fix(mut self, section: &str, on: bool) -> Self {
        match section {
            "4.1" => self.fix_rename = on,
            "4.2" => self.fix_fence = on,
            "4.3" => self.fix_release_sync = on,
            "4.4" => self.fix_state_sync = on,
            "4.5" => self.fix_dir_bucket_rcu = on,
            "4.6" => self.fix_dir_cycle = on,
            other => panic!("unknown paper section {other:?}"),
        }
        self
    }

    /// Short display name for benchmark tables.
    pub fn label(&self) -> &'static str {
        if self.verify_every_op {
            "verify-per-op"
        } else if self.fix_rename
            && self.fix_fence
            && self.fix_release_sync
            && self.fix_state_sync
            && self.fix_dir_bucket_rcu
            && self.fix_dir_cycle
        {
            "arckfs+"
        } else if !self.fix_rename
            && !self.fix_fence
            && !self.fix_release_sync
            && !self.fix_state_sync
            && !self.fix_dir_bucket_rcu
            && !self.fix_dir_cycle
        {
            "arckfs"
        } else {
            "arckfs-partial"
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::arckfs_plus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let a = Config::arckfs();
        assert!(!a.fix_fence && !a.fix_rename);
        assert_eq!(a.label(), "arckfs");
        let p = Config::arckfs_plus();
        assert!(p.fix_fence && p.fix_dir_cycle);
        assert_eq!(p.label(), "arckfs+");
        assert_eq!(Config::verify_per_op().label(), "verify-per-op");
    }

    #[test]
    fn with_fix_toggles() {
        let c = Config::arckfs().with_fix("4.2", true);
        assert!(c.fix_fence);
        assert!(!c.fix_rename);
        assert_eq!(c.label(), "arckfs-partial");
        let c = Config::arckfs_plus().with_fix("4.5", false);
        assert!(!c.fix_dir_bucket_rcu);
    }

    #[test]
    #[should_panic(expected = "unknown paper section")]
    fn with_fix_rejects_unknown() {
        let _ = Config::arckfs().with_fix("9.9", true);
    }
}
