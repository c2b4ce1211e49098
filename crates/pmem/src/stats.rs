//! Flush / fence / byte accounting.
//!
//! The scalability model (`crates/model`) and the benchmark harness read
//! these counters to attribute per-operation persistence cost: e.g. the
//! §4.2 patch adds exactly one fence per file creation, which shows up here.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters maintained by a [`crate::PmemDevice`].
///
/// All counters use relaxed atomics: they are statistics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct PmemStats {
    /// Number of store operations (each `write`/`ntstore` call counts once).
    pub stores: AtomicU64,
    /// Bytes written by stores.
    pub bytes_written: AtomicU64,
    /// Number of load operations.
    pub loads: AtomicU64,
    /// Bytes read by loads.
    pub bytes_read: AtomicU64,
    /// Cache-line flush instructions issued (`clwb`), counted per line.
    pub clwb: AtomicU64,
    /// Non-temporal stores, counted per call.
    pub ntstores: AtomicU64,
    /// Store fences issued (`sfence`).
    pub sfences: AtomicU64,
}

/// A plain-data snapshot of [`PmemStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Number of store operations.
    pub stores: u64,
    /// Bytes written by stores.
    pub bytes_written: u64,
    /// Number of load operations.
    pub loads: u64,
    /// Bytes read by loads.
    pub bytes_read: u64,
    /// Cache-line flushes.
    pub clwb: u64,
    /// Non-temporal stores.
    pub ntstores: u64,
    /// Store fences.
    pub sfences: u64,
    /// Always 0: every metadata operation commits inline. Kept only because
    /// the benchmark crate reads it for its `arckfs.batch.batched_share`
    /// row; a benchmark-only change removes the field and that row together.
    pub batched_ops: u64,
}

impl PmemStats {
    /// Take a point-in-time snapshot of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            stores: self.stores.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            clwb: self.clwb.load(Ordering::Relaxed),
            ntstores: self.ntstores.load(Ordering::Relaxed),
            sfences: self.sfences.load(Ordering::Relaxed),
            ..StatsSnapshot::default()
        }
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        self.stores.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.loads.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.clwb.store(0, Ordering::Relaxed);
        self.ntstores.store(0, Ordering::Relaxed);
        self.sfences.store(0, Ordering::Relaxed);
    }

    pub(crate) fn count_store(&self, bytes: usize) {
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn count_load(&self, bytes: usize) {
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn count_clwb(&self, lines: u64) {
        self.clwb.fetch_add(lines, Ordering::Relaxed);
    }

    pub(crate) fn count_ntstore(&self, bytes: usize) {
        self.ntstores.fetch_add(1, Ordering::Relaxed);
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn count_sfence(&self) {
        self.sfences.fetch_add(1, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Difference of two snapshots (`self - earlier`), saturating at zero.
    ///
    /// Saturation matters in practice: `reset()` can race a concurrent
    /// benchmark thread, leaving `earlier` ahead of `self` on some counter;
    /// a wrapping subtraction would then report ~2^64 fences per op.
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        debug_assert!(
            self.dominates(earlier),
            "delta end snapshot does not dominate start: end={self:?} start={earlier:?} \
             (snapshot taken before worker threads joined, or across a reset?)"
        );
        StatsSnapshot {
            stores: self.stores.saturating_sub(earlier.stores),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            loads: self.loads.saturating_sub(earlier.loads),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            clwb: self.clwb.saturating_sub(earlier.clwb),
            ntstores: self.ntstores.saturating_sub(earlier.ntstores),
            sfences: self.sfences.saturating_sub(earlier.sfences),
            ..StatsSnapshot::default()
        }
    }

    /// `true` when every counter in `self` is ≥ its counterpart in `other`
    /// — i.e. `self` was taken after `other` with no reset in between and
    /// no counting still in flight on unjoined threads.
    pub fn dominates(&self, other: &StatsSnapshot) -> bool {
        self.stores >= other.stores
            && self.bytes_written >= other.bytes_written
            && self.loads >= other.loads
            && self.bytes_read >= other.bytes_read
            && self.clwb >= other.clwb
            && self.ntstores >= other.ntstores
            && self.sfences >= other.sfences
    }

    /// Alias for [`StatsSnapshot::delta`] kept for existing call sites.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        self.delta(earlier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let s = PmemStats::default();
        s.count_store(8);
        s.count_store(4);
        s.count_clwb(2);
        s.count_sfence();
        s.count_load(16);
        s.count_ntstore(64);
        let snap = s.snapshot();
        assert_eq!(snap.stores, 3); // 2 stores + 1 ntstore
        assert_eq!(snap.bytes_written, 76);
        assert_eq!(snap.clwb, 2);
        assert_eq!(snap.sfences, 1);
        assert_eq!(snap.loads, 1);
        assert_eq!(snap.bytes_read, 16);
        assert_eq!(snap.ntstores, 1);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let s = PmemStats::default();
        s.count_store(8);
        let a = s.snapshot();
        s.count_store(8);
        s.count_sfence();
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.stores, 1);
        assert_eq!(d.sfences, 1);
        assert_eq!(d.bytes_written, 8);
    }

    /// A non-dominating pair (reset between snapshots) is a measurement
    /// bug; debug builds fail fast on it instead of silently saturating.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dominate")]
    fn delta_asserts_dominance_in_debug() {
        let s = PmemStats::default();
        s.count_store(8);
        s.count_sfence();
        let before = s.snapshot();
        s.reset(); // e.g. a concurrent reset between two benchmark snapshots
        s.count_sfence();
        let after = s.snapshot();
        let _ = after.delta(&before);
    }

    /// Release builds keep the defensive saturation: a racy reset must not
    /// wrap a counter to ~2^64 and poison a whole benchmark report.
    #[test]
    #[cfg(not(debug_assertions))]
    fn delta_saturates_instead_of_wrapping() {
        let s = PmemStats::default();
        s.count_store(8);
        s.count_sfence();
        let before = s.snapshot();
        s.reset(); // e.g. a concurrent reset between two benchmark snapshots
        s.count_sfence();
        let after = s.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.stores, 0, "must saturate, not wrap to 2^64-1");
        assert_eq!(d.sfences, 0);
        assert_eq!(d.bytes_written, 0);
    }

    #[test]
    fn dominates_is_componentwise() {
        let s = PmemStats::default();
        s.count_store(8);
        let a = s.snapshot();
        s.count_sfence();
        let b = s.snapshot();
        assert!(b.dominates(&a));
        assert!(b.dominates(&b));
        assert!(!a.dominates(&b));
        let d = b.delta(&a);
        assert_eq!(d.sfences, 1);
    }
}
