//! Per-thread recent-operation rings.
//!
//! Each recording thread owns one [`ThreadRing`]: a fixed array of slots
//! written round-robin, overwriting the oldest record once full. The
//! owning thread is the only writer; [`drain_into`](ThreadRing::drain_into)
//! may run concurrently from any thread (reports, test assertions), so
//! every slot is a bank of relaxed atomics guarded by a per-slot sequence
//! word — a seqlock in fully safe code. A reader that races an in-flight
//! overwrite simply skips that one slot; the writer never waits, never
//! locks and never allocates.

use std::sync::atomic::{AtomicU64, Ordering};

use pmem::StatsSnapshot;

/// Capacity of each per-thread ring (records; oldest overwritten first).
pub const RING_CAPACITY: usize = 1024;

/// One drained record: which operation, how long it took, what it did to
/// the device counters.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// `OpKind` discriminant (see [`crate::OpRecord::kind`]).
    pub kind_index: u8,
    /// Wall-clock latency in nanoseconds.
    pub latency_ns: u64,
    /// Device-counter delta attributed to this operation.
    pub delta: StatsSnapshot,
}

/// One slot: a sequence word plus the record flattened into atomics.
///
/// Writer protocol: seq -> odd, publish fields, seq -> even (next
/// generation). Readers accept a slot only if the sequence was even and
/// unchanged across the field reads.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    kind: AtomicU64,
    latency_ns: AtomicU64,
    stores: AtomicU64,
    bytes_written: AtomicU64,
    loads: AtomicU64,
    bytes_read: AtomicU64,
    clwb: AtomicU64,
    ntstores: AtomicU64,
    sfences: AtomicU64,
}

pub(crate) struct ThreadRing {
    slots: Box<[Slot]>,
    /// Total records ever pushed; `writes % RING_CAPACITY` is the next slot.
    writes: AtomicU64,
}

impl ThreadRing {
    pub(crate) fn new() -> ThreadRing {
        ThreadRing {
            slots: (0..RING_CAPACITY).map(|_| Slot::default()).collect(),
            writes: AtomicU64::new(0),
        }
    }

    /// Append a record, overwriting the oldest when full. Called only by
    /// the owning thread; no allocation, no locks.
    pub(crate) fn push(&self, rec: OpRecord) {
        let n = self.writes.load(Ordering::Relaxed);
        let slot = &self.slots[(n % RING_CAPACITY as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq + 1, Ordering::Release); // odd: write in flight
        slot.kind.store(rec.kind_index as u64, Ordering::Relaxed);
        slot.latency_ns.store(rec.latency_ns, Ordering::Relaxed);
        slot.stores.store(rec.delta.stores, Ordering::Relaxed);
        slot.bytes_written
            .store(rec.delta.bytes_written, Ordering::Relaxed);
        slot.loads.store(rec.delta.loads, Ordering::Relaxed);
        slot.bytes_read.store(rec.delta.bytes_read, Ordering::Relaxed);
        slot.clwb.store(rec.delta.clwb, Ordering::Relaxed);
        slot.ntstores.store(rec.delta.ntstores, Ordering::Relaxed);
        slot.sfences.store(rec.delta.sfences, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release); // even: published
        self.writes.store(n + 1, Ordering::Release);
    }

    /// Reset to empty (drops all records; racing pushes may survive).
    pub(crate) fn reset(&self) {
        self.writes.store(0, Ordering::Release);
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Relaxed);
            slot.seq.store(seq + 2, Ordering::Release);
        }
    }

    /// Copy the currently retained records into `out`, oldest first.
    /// Slots that race a concurrent overwrite are skipped.
    pub(crate) fn drain_into(&self, out: &mut Vec<OpRecord>) {
        let writes = self.writes.load(Ordering::Acquire);
        let start = writes.saturating_sub(RING_CAPACITY as u64);
        for n in start..writes {
            let slot = &self.slots[(n % RING_CAPACITY as u64) as usize];
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 % 2 == 1 {
                continue; // write in flight
            }
            let rec = OpRecord {
                kind_index: slot.kind.load(Ordering::Relaxed) as u8,
                latency_ns: slot.latency_ns.load(Ordering::Relaxed),
                delta: StatsSnapshot {
                    stores: slot.stores.load(Ordering::Relaxed),
                    bytes_written: slot.bytes_written.load(Ordering::Relaxed),
                    loads: slot.loads.load(Ordering::Relaxed),
                    bytes_read: slot.bytes_read.load(Ordering::Relaxed),
                    clwb: slot.clwb.load(Ordering::Relaxed),
                    ntstores: slot.ntstores.load(Ordering::Relaxed),
                    sfences: slot.sfences.load(Ordering::Relaxed),
                    ..StatsSnapshot::default()
                },
            };
            if slot.seq.load(Ordering::Acquire) == seq1 {
                out.push(rec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> OpRecord {
        OpRecord {
            kind_index: (i % 17) as u8,
            latency_ns: i,
            delta: StatsSnapshot {
                sfences: i,
                ..Default::default()
            },
        }
    }

    #[test]
    fn keeps_everything_under_capacity() {
        let r = ThreadRing::new();
        for i in 0..10 {
            r.push(rec(i));
        }
        let mut out = Vec::new();
        r.drain_into(&mut out);
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].latency_ns, 0);
        assert_eq!(out[9].latency_ns, 9);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let r = ThreadRing::new();
        let n = RING_CAPACITY as u64 + 100;
        for i in 0..n {
            r.push(rec(i));
        }
        let mut out = Vec::new();
        r.drain_into(&mut out);
        assert_eq!(out.len(), RING_CAPACITY);
        // The first 100 records were overwritten; retained window is
        // [100, n), oldest first.
        assert_eq!(out[0].latency_ns, 100);
        assert_eq!(out.last().unwrap().latency_ns, n - 1);
        assert_eq!(out.last().unwrap().delta.sfences, n - 1);
    }

    #[test]
    fn reset_empties_ring() {
        let r = ThreadRing::new();
        for i in 0..50 {
            r.push(rec(i));
        }
        r.reset();
        let mut out = Vec::new();
        r.drain_into(&mut out);
        assert!(out.is_empty());
        // And the ring keeps working after reset.
        r.push(rec(7));
        r.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].latency_ns, 7);
    }

    #[test]
    fn concurrent_drain_never_sees_torn_records() {
        use std::sync::Arc;
        let r = Arc::new(ThreadRing::new());
        let writer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 0..200_000u64 {
                    // latency_ns and sfences always pushed equal: a torn
                    // read would surface as a mismatch.
                    r.push(OpRecord {
                        kind_index: 0,
                        latency_ns: i,
                        delta: StatsSnapshot {
                            sfences: i,
                            ..Default::default()
                        },
                    });
                }
            })
        };
        let mut out = Vec::new();
        for _ in 0..50 {
            out.clear();
            r.drain_into(&mut out);
            for rec in &out {
                assert_eq!(
                    rec.latency_ns, rec.delta.sfences,
                    "torn record surfaced from concurrent drain"
                );
            }
        }
        writer.join().unwrap();
    }
}
