//! Epoch-based reclamation.
//!
//! The scheme is the classic three-colour epoch design (as used by Linux's
//! userspace RCU and crossbeam-epoch), kept deliberately simple:
//!
//! * A global epoch counter advances monotonically.
//! * Each reader thread owns a slot. Entering a read-side critical section
//!   ([`Rcu::read_guard`]) publishes the observed global epoch in the slot;
//!   leaving clears it.
//! * [`Rcu::defer`] retires a destructor tagged with the current epoch.
//! * A retired destructor runs only when every active reader has pinned an
//!   epoch **more than one** epoch newer than the retire epoch. The
//!   two-epoch margin absorbs the race between a reader observing the global
//!   epoch and publishing its pin.
//!
//! All epoch traffic uses `SeqCst`; this is a correctness-first
//! implementation (the paper's point, after all, is that clever
//! synchronization in this area is where ArckFS went wrong).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

/// Sentinel meaning "not in a read-side critical section".
const QUIESCENT: u64 = u64::MAX;

/// Per-reader-thread slot. `epoch` is the pinned epoch or [`QUIESCENT`].
#[derive(Debug)]
struct Slot {
    epoch: AtomicU64,
}

/// Thread-local bookkeeping for one `(thread, Rcu)` pair.
struct LocalPin {
    slot: Arc<Slot>,
    depth: usize,
}

thread_local! {
    /// Slots for every `Rcu` instance this thread has read from, keyed by
    /// the instance's unique domain id.
    static LOCAL: std::cell::RefCell<HashMap<u64, LocalPin>> =
        std::cell::RefCell::new(HashMap::new());
}

type Destructor = Box<dyn FnOnce() + Send>;

/// A deferred destructor tagged with the epoch it was retired in.
struct Retired {
    epoch: u64,
    dtor: Destructor,
}

impl std::fmt::Debug for Retired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Retired")
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// What one collector saw: the epoch it advanced to, and the oldest epoch
/// a reader had pinned when it looked.
struct Scan {
    now: u64,
    oldest_pin: Option<u64>,
}

/// An epoch-based RCU domain.
///
/// Construct with [`Rcu::new`] and share via `Arc`. Each ArckFS+ directory
/// index shares its LibFS's domain.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
///
/// let rcu = rcu::Rcu::new();
/// let freed = Arc::new(AtomicBool::new(false));
/// let guard = rcu.read_guard();
/// let f = freed.clone();
/// rcu.defer(move || f.store(true, Ordering::SeqCst));
/// rcu.try_collect();
/// assert!(!freed.load(Ordering::SeqCst)); // reader still pinned
/// drop(guard);
/// rcu.synchronize();
/// assert!(freed.load(Ordering::SeqCst));
/// ```
#[derive(Debug)]
pub struct Rcu {
    /// Unique domain id — the thread-local slot map is keyed by this, not
    /// by address, so a new domain allocated where a dropped one lived
    /// cannot inherit its stale slots.
    id: u64,
    global: AtomicU64,
    slots: Mutex<Vec<Weak<Slot>>>,
    retired: Mutex<Vec<Retired>>,
    /// Number of destructors run so far (observability for tests).
    reclaimed: AtomicU64,
    /// Collect eagerly once this many destructors are pending.
    collect_threshold: usize,
}

/// Monotonic domain id source.
static NEXT_DOMAIN: AtomicU64 = AtomicU64::new(1);

impl Rcu {
    /// A fresh RCU domain.
    pub fn new() -> Arc<Rcu> {
        Arc::new(Rcu {
            id: NEXT_DOMAIN.fetch_add(1, Ordering::Relaxed),
            global: AtomicU64::new(2),
            slots: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            reclaimed: AtomicU64::new(0),
            collect_threshold: 64,
        })
    }

    fn key(self: &Arc<Self>) -> u64 {
        self.id
    }

    /// Enter a read-side critical section. Guards nest; the pin is released
    /// when the outermost guard drops.
    pub fn read_guard(self: &Arc<Self>) -> Guard {
        let key = self.key();
        LOCAL.with(|local| {
            let mut map = local.borrow_mut();
            let pin = map.entry(key).or_insert_with(|| {
                let slot = Arc::new(Slot {
                    epoch: AtomicU64::new(QUIESCENT),
                });
                self.slots.lock().push(Arc::downgrade(&slot));
                LocalPin { slot, depth: 0 }
            });
            if pin.depth == 0 {
                // Publish the pin, then re-check the global epoch: if it
                // moved underneath us, re-publish. After the loop, any
                // epoch advance must observe our pin.
                loop {
                    let g = self.global.load(Ordering::SeqCst);
                    pin.slot.epoch.store(g, Ordering::SeqCst);
                    if self.global.load(Ordering::SeqCst) == g {
                        break;
                    }
                }
            }
            pin.depth += 1;
        });
        Guard {
            rcu: Arc::clone(self),
        }
    }

    fn unpin(self: &Arc<Self>) {
        let key = self.key();
        LOCAL.with(|local| {
            let mut map = local.borrow_mut();
            let pin = map.get_mut(&key).expect("unpin without pin");
            pin.depth -= 1;
            if pin.depth == 0 {
                pin.slot.epoch.store(QUIESCENT, Ordering::SeqCst);
            }
        });
    }

    /// Smallest epoch pinned by any live reader, or `None` if all quiescent.
    fn min_pinned(&self) -> Option<u64> {
        let mut slots = self.slots.lock();
        slots.retain(|w| w.strong_count() > 0);
        slots
            .iter()
            .filter_map(|w| w.upgrade())
            .map(|s| s.epoch.load(Ordering::SeqCst))
            .filter(|&e| e != QUIESCENT)
            .min()
    }

    /// Retire a destructor; it runs after a grace period.
    pub fn defer<F: FnOnce() + Send + 'static>(self: &Arc<Self>, dtor: F) {
        let epoch = self.global.load(Ordering::SeqCst);
        let pending = {
            let mut r = self.retired.lock();
            r.push(Retired {
                epoch,
                dtor: Box::new(dtor),
            });
            r.len()
        };
        if pending >= self.collect_threshold {
            self.try_collect();
        }
    }

    /// Advance the global epoch and run every destructor whose grace period
    /// has elapsed. Returns the number of destructors run.
    pub fn try_collect(self: &Arc<Self>) -> usize {
        let scan = self.scan();
        self.collect(scan)
    }

    /// Advance the global epoch and find the oldest reader pin.
    fn scan(self: &Arc<Self>) -> Scan {
        let now = self.global.fetch_add(1, Ordering::SeqCst) + 1;
        Scan {
            now,
            oldest_pin: self.min_pinned(),
        }
    }

    /// Run every destructor `scan` proves safe: those retired below the
    /// oldest pin minus one, and never at or above `scan.now`. A reader the
    /// scan missed pins at `scan.now` or later, so it can only hold entries
    /// retired that late. The bound must not be re-read from the global
    /// epoch after the scan: a concurrent collector can advance it past
    /// such a reader's pin in between, which freed entries the reader was
    /// still traversing.
    fn collect(&self, scan: Scan) -> usize {
        let horizon = match scan.oldest_pin {
            Some(min) => min.min(scan.now).saturating_sub(1),
            None => scan.now,
        };
        let ready: Vec<Retired> = {
            let mut r = self.retired.lock();
            let (run, keep): (Vec<_>, Vec<_>) = r.drain(..).partition(|x| x.epoch < horizon);
            *r = keep;
            run
        };
        let n = ready.len();
        for item in ready {
            (item.dtor)();
        }
        self.reclaimed.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Block until every destructor retired before this call has run
    /// (classic `synchronize_rcu`). Spins with yields; read-side critical
    /// sections are short in ArckFS+.
    pub fn synchronize(self: &Arc<Self>) {
        let target = self.global.load(Ordering::SeqCst);
        loop {
            self.try_collect();
            let done = {
                let r = self.retired.lock();
                r.iter().all(|x| x.epoch > target)
            };
            if done {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Number of destructors currently waiting for a grace period.
    pub fn pending(&self) -> usize {
        self.retired.lock().len()
    }

    /// Total destructors run since creation.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed.load(Ordering::Relaxed)
    }

    /// Current global epoch (observability for tests).
    pub fn epoch(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }
}

/// A read-side critical section. Dropping the outermost guard of a thread
/// unpins it.
#[must_use = "dropping the guard immediately ends the critical section"]
pub struct Guard {
    rcu: Arc<Rcu>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.rcu.unpin();
    }
}

impl std::fmt::Debug for Guard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn defer_runs_without_readers() {
        let rcu = Rcu::new();
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = ran.clone();
        rcu.defer(move || r2.store(true, Ordering::SeqCst));
        rcu.synchronize();
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(rcu.pending(), 0);
        assert_eq!(rcu.reclaimed(), 1);
    }

    #[test]
    fn guard_blocks_reclamation() {
        let rcu = Rcu::new();
        let ran = Arc::new(AtomicBool::new(false));
        let g = rcu.read_guard();
        let r2 = ran.clone();
        rcu.defer(move || r2.store(true, Ordering::SeqCst));
        for _ in 0..10 {
            rcu.try_collect();
        }
        assert!(
            !ran.load(Ordering::SeqCst),
            "destructor ran while a reader was pinned at the retire epoch"
        );
        drop(g);
        rcu.synchronize();
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn nested_guards() {
        let rcu = Rcu::new();
        let ran = Arc::new(AtomicBool::new(false));
        let g1 = rcu.read_guard();
        let g2 = rcu.read_guard();
        let r2 = ran.clone();
        rcu.defer(move || r2.store(true, Ordering::SeqCst));
        drop(g1);
        rcu.try_collect();
        assert!(!ran.load(Ordering::SeqCst), "inner guard still pinned");
        drop(g2);
        rcu.synchronize();
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn cross_thread_grace_period() {
        let rcu = Rcu::new();
        let ran = Arc::new(AtomicBool::new(false));
        let hold = Arc::new(AtomicBool::new(true));

        let rcu2 = rcu.clone();
        let hold2 = hold.clone();
        let reader = std::thread::spawn(move || {
            let _g = rcu2.read_guard();
            while hold2.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // Give the reader time to pin.
        std::thread::sleep(Duration::from_millis(20));
        let r2 = ran.clone();
        rcu.defer(move || r2.store(true, Ordering::SeqCst));
        for _ in 0..10 {
            rcu.try_collect();
            assert!(!ran.load(Ordering::SeqCst));
        }
        hold.store(false, Ordering::SeqCst);
        reader.join().unwrap();
        rcu.synchronize();
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn many_defers_collected_in_order_of_safety() {
        let rcu = Rcu::new();
        let count = Arc::new(AtomicU64::new(0));
        for _ in 0..200 {
            let c = count.clone();
            rcu.defer(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        rcu.synchronize();
        assert_eq!(count.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn two_domains_are_independent() {
        let a = Rcu::new();
        let b = Rcu::new();
        let _ga = a.read_guard();
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = ran.clone();
        b.defer(move || r2.store(true, Ordering::SeqCst));
        // Domain `a`'s guard must not block domain `b`'s reclamation.
        b.synchronize();
        assert!(ran.load(Ordering::SeqCst));
    }

    /// Collector A scans while no reader is pinned; a reader then pins and
    /// an entry it reads is retired; collector B advances the epoch past
    /// the reader's pin before A runs what its scan allowed. A must not run
    /// the reader's entry.
    #[test]
    fn a_collector_overtaken_by_another_spares_a_later_reader() {
        let rcu = Rcu::new();
        let ran = Arc::new(AtomicBool::new(false));
        let scan_a = rcu.scan();
        let g = rcu.read_guard();
        let r2 = ran.clone();
        rcu.defer(move || r2.store(true, Ordering::SeqCst));
        rcu.try_collect();
        rcu.collect(scan_a);
        assert!(
            !ran.load(Ordering::SeqCst),
            "destructor ran while a reader pinned after the scan held it"
        );
        drop(g);
        rcu.synchronize();
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn epoch_advances() {
        let rcu = Rcu::new();
        let e0 = rcu.epoch();
        rcu.try_collect();
        assert!(rcu.epoch() > e0);
    }
}
