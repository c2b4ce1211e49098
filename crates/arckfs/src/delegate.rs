//! I/O delegation (§2.2, §5.2): per-core submission/completion rings.
//!
//! ArckFS adopts OdinFS-style *I/O delegation*: large data transfers are
//! handed to dedicated delegation threads that stream them to persistent
//! memory with non-temporal stores, while the application thread overlaps
//! its own work and only waits for completion at the end. The paper's §5.2
//! credits "direct access and I/O delegation" for ArckFS's data
//! performance.
//!
//! # Runtime shape (DESIGN.md §10)
//!
//! The pool is an io_uring-shaped runtime. Each worker owns one
//! fixed-capacity **submission ring**: a lock-free MPSC queue
//! with per-slot sequence numbers and a producer-side *cached head* index,
//! so the common enqueue touches only the tail word and one slot. A full
//! ring is **backpressure**, not growth: the submitter spins/yields until
//! the worker frees a slot (counted, and visible as the
//! `delegate.sq.wrap` schedule point) — the unbounded channel of the
//! first-generation pool could absorb an arbitrary backlog and hide it
//! from every limit.
//!
//! Workers drain their ring in **batches** of up to `drain_batch` jobs:
//! all non-temporal stores of the batch are issued first, then a *single*
//! `sfence` covers the whole batch (the PR-4 fence-amortization rule
//! applied to the data path), then every job's completion is posted. The
//! fence must come from the worker — an `sfence` only orders the issuing
//! CPU's own store buffer — and must precede the completion-count
//! decrement, or a crash after [`Ticket::wait`] returned could lose
//! delegated bytes (found by the schedmc/crashmc sweep).
//!
//! [`Ticket::wait`] spins briefly on the completion count before parking
//! on the condvar (poll-vs-park is counted). Tickets are `#[must_use]`
//! and debug-assert completion before drop: silently dropping one used to
//! discard both durability and any §4.3-style revocation fault carried in
//! the completion.
//!
//! With zero workers configured the pool degrades to inline non-temporal
//! stores, which is also the configuration the deterministic bug tests
//! use.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use pmem::Mapping;
use vfs::{FsError, FsResult};

use crate::dir::map_fault;

/// One delegated store: copy `data` to the mapped window at `offset`.
struct Job {
    mapping: Mapping,
    offset: u64,
    data: Vec<u8>,
    done: Arc<Completion>,
}

struct Completion {
    /// Outstanding chunk count **plus** a submit guard held while
    /// [`DelegationPool::submit`] is still enqueuing, so an early chunk's
    /// completion can never drive the count to zero mid-submit.
    remaining: AtomicU64,
    error: Mutex<Option<FsError>>,
    cv: Condvar,
    lock: Mutex<()>,
}

// ---- counters --------------------------------------------------------------

#[derive(Default)]
struct Counters {
    /// Bytes whose delegated store *completed successfully* (faulted
    /// chunks and failed inline writes are not attributed — counting at
    /// submit time inflated the obs numbers).
    delegated_bytes: AtomicU64,
    sq_enqueued: AtomicU64,
    sq_backpressure: AtomicU64,
    sq_depth_max: AtomicU64,
    drain_batches: AtomicU64,
    drain_jobs: AtomicU64,
    batch_fences: AtomicU64,
    poll_waits: AtomicU64,
    park_waits: AtomicU64,
    /// Chunks enqueued but not yet completion-posted (drain/quiesce).
    in_flight: AtomicU64,
}

/// Snapshot of the pool's observability counters, for `FsStats` and the
/// obs JSON `delegate` block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DelegSnapshot {
    /// Bytes whose delegated store completed successfully.
    pub delegated_bytes: u64,
    /// Jobs enqueued into submission rings.
    pub enqueued: u64,
    /// Enqueue attempts that found the ring full (backpressure events).
    pub backpressure: u64,
    /// High-water mark of any single submission ring's occupancy.
    pub sq_depth_max: u64,
    /// Worker drain batches executed.
    pub batches: u64,
    /// Jobs drained across all batches (occupancy = `batch_jobs/batches`).
    pub batch_jobs: u64,
    /// Store fences issued by drain batches (amortization: `< batch_jobs`).
    pub batch_fences: u64,
    /// Ticket completions observed in the polling (spin) phase.
    pub poll_waits: u64,
    /// Ticket completions that had to park on the condvar.
    pub park_waits: u64,
}

// ---- submission ring -------------------------------------------------------

/// One slot of a submission ring. The sequence number hands the slot back
/// and forth between producers and the consumer (Vyukov-style); the mutex
/// only provides interior mutability for the payload and is never
/// contended — whoever owns the sequence owns the slot.
struct Slot {
    seq: AtomicUsize,
    job: Mutex<Option<Job>>,
}

/// Fixed-capacity lock-free MPSC submission queue with cached-head/tail
/// indexes: producers CAS the tail and consult a *cached* copy of the
/// consumer's head to fast-fail full checks without touching the slot
/// array; the single consumer advances the head with plain stores.
struct Ring {
    slots: Box<[Slot]>,
    tail: AtomicUsize,
    head: AtomicUsize,
    /// Producer-side cache of `head`; refreshed only when the ring looks
    /// full, so the common enqueue never reads the consumer's cursor.
    cached_head: AtomicUsize,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let cap = capacity.max(2);
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                job: Mutex::new(None),
            })
            .collect();
        Ring {
            slots,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            cached_head: AtomicUsize::new(0),
        }
    }

    /// Multi-producer enqueue. Returns the job back when the ring is full
    /// (overflow is backpressure, never growth).
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let cap = self.slots.len();
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            // Cached-head fast full check: only refresh from the shared
            // head when the cached copy says full.
            if pos.wrapping_sub(self.cached_head.load(Ordering::Relaxed)) >= cap {
                let head = self.head.load(Ordering::Acquire);
                self.cached_head.store(head, Ordering::Relaxed);
                if pos.wrapping_sub(head) >= cap {
                    return Err(job);
                }
            }
            let slot = &self.slots[pos % cap];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq.wrapping_sub(pos) as isize;
            if diff == 0 {
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        *slot.job.lock() = Some(job);
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(now) => pos = now,
                }
            } else if diff < 0 {
                // The consumer has not recycled this slot: a full lap
                // behind — the ring is full.
                return Err(job);
            } else {
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Single-consumer dequeue.
    fn try_pop(&self) -> Option<Job> {
        let cap = self.slots.len();
        let pos = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[pos % cap];
        let seq = slot.seq.load(Ordering::Acquire);
        if (seq.wrapping_sub(pos.wrapping_add(1)) as isize) < 0 {
            return None;
        }
        let job = slot.job.lock().take();
        debug_assert!(job.is_some(), "sequence granted an empty slot");
        self.head.store(pos.wrapping_add(1), Ordering::Release);
        // Recycle the slot for the producer one lap ahead.
        slot.seq.store(pos.wrapping_add(cap), Ordering::Release);
        job
    }

    /// Occupancy estimate (observability only; racy by nature).
    fn len(&self) -> usize {
        self.tail
            .load(Ordering::Relaxed)
            .wrapping_sub(self.head.load(Ordering::Relaxed))
            .min(self.slots.len())
    }

    fn looks_empty(&self) -> bool {
        self.head.load(Ordering::SeqCst) == self.tail.load(Ordering::SeqCst)
    }
}

/// A ring plus its worker's parking place.
struct RingState {
    ring: Ring,
    /// `true` while the worker is parked; guarded by the mutex so the
    /// worker's sleep decision and the producer's wake cannot miss each
    /// other (the worker re-checks the ring under the lock, and parks
    /// with a short timeout as a belt-and-braces bound).
    parked: Mutex<bool>,
    wake: Condvar,
}

struct PoolShared {
    rings: Vec<RingState>,
    drain_batch: usize,
    shutdown: AtomicBool,
    counters: Counters,
}

// ---- ticket ----------------------------------------------------------------

/// Handle to an in-flight delegated write.
///
/// Dropping a ticket without consuming it would silently discard both the
/// durability guarantee and any fault carried in the completion (the
/// §4.3-style revocation error would vanish), so tickets must be waited
/// to completion; debug builds assert it.
#[must_use = "a delegated write is only durable once the ticket is waited; \
              dropping it also discards any delegation fault"]
pub struct Ticket {
    done: Arc<Completion>,
    shared: Arc<PoolShared>,
}

/// Spins of the polling phase before [`Ticket::wait`] parks. Delegated
/// chunks are hundreds of microseconds of streaming; a short adaptive
/// spin catches completions that are already posted (or about to be)
/// without burning a core on long transfers.
const WAIT_SPINS: usize = 256;

impl Ticket {
    /// Block until every chunk of the delegated write is **durable**.
    ///
    /// Poll-then-park: a bounded adaptive spin on the completion count
    /// first (counted as a poll completion when it hits), then the
    /// condvar (counted as a park). Once `wait` returns the delegated
    /// bytes survive any crash — each drain batch is fenced by the worker
    /// that issued its non-temporal stores *before* completions post, so
    /// the caller needs no data fence of its own (it still fences its
    /// *metadata* updates, e.g. the size word). Fencing from the
    /// submitting thread would not work: an `sfence` only orders the
    /// issuing CPU's own store buffer.
    pub fn wait(self) -> FsResult<()> {
        for spin in 0..WAIT_SPINS {
            if self.done.remaining.load(Ordering::SeqCst) == 0 {
                self.shared.counters.poll_waits.fetch_add(1, Ordering::Relaxed);
                return self.finish();
            }
            if spin % 16 == 15 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        self.shared.counters.park_waits.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.done.lock.lock();
        while self.done.remaining.load(Ordering::SeqCst) != 0 {
            self.done.cv.wait(&mut guard);
        }
        drop(guard);
        self.finish()
    }

    fn finish(self) -> FsResult<()> {
        match self.done.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        debug_assert!(
            self.done.remaining.load(Ordering::SeqCst) == 0,
            "Ticket dropped with an incomplete delegated write — call \
             wait() before dropping"
        );
    }
}

// ---- worker ----------------------------------------------------------------

/// How long a worker sleeps per park before re-checking its ring; bounds
/// the cost of any wake race without putting a lock on the enqueue path.
const PARK_BACKSTOP: Duration = Duration::from_millis(1);

/// Yields a worker burns on an empty ring before parking. Each yield
/// hands the CPU to a submitter mid-burst, which typically refills the
/// ring with a whole window of jobs — so the drain batch arrives full and
/// one wakeup (and one amortized fence) covers it, instead of a park /
/// notify round trip per job or two.
const IDLE_SPINS: usize = 32;

fn worker_loop(shared: Arc<PoolShared>, idx: usize) {
    let state = &shared.rings[idx];
    let batch_cap = shared.drain_batch.max(1);
    let mut batch: Vec<Job> = Vec::with_capacity(batch_cap);
    let mut idle = 0usize;
    loop {
        while batch.len() < batch_cap {
            match state.ring.try_pop() {
                Some(job) => batch.push(job),
                None => break,
            }
        }
        if batch.is_empty() {
            if shared.shutdown.load(Ordering::SeqCst) && state.ring.looks_empty() {
                return;
            }
            if idle < IDLE_SPINS {
                idle += 1;
                std::thread::yield_now();
                continue;
            }
            let mut parked = state.parked.lock();
            // Re-check under the lock: a producer that pushed before the
            // flag went up skips the notify, and this re-check sees its
            // job instead.
            if !state.ring.looks_empty() || shared.shutdown.load(Ordering::SeqCst) {
                continue;
            }
            *parked = true;
            state.wake.wait_for(&mut parked, PARK_BACKSTOP);
            *parked = false;
            continue;
        }
        idle = 0;
        drain_batch(&shared, &mut batch);
    }
}

/// Issue every non-temporal store of the batch, fence **once**, then post
/// all completions (the fence-amortization rule: `batch` ntstore streams
/// share one ordering point instead of paying one each).
fn drain_batch(shared: &PoolShared, batch: &mut Vec<Job>) {
    shared.counters.drain_batches.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .drain_jobs
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    let errors: Vec<Option<FsError>> = batch
        .iter()
        .map(|job| {
            job.mapping
                .ntstore(job.offset, &job.data)
                .map_err(map_fault)
                .err()
        })
        .collect();
    crate::inject::point("delegate.drain.batch_fence");
    // One fence per distinct device in the batch (in practice one: the
    // pool serves a single LibFS). It must precede every completion post
    // below — the stores were issued by this CPU, so this fence orders
    // them all.
    let mut fenced: Vec<*const pmem::PmemDevice> = Vec::new();
    for (job, err) in batch.iter().zip(&errors) {
        if err.is_none() {
            let dev = Arc::as_ptr(job.mapping.device());
            if !fenced.contains(&dev) {
                job.mapping.sfence();
                shared.counters.batch_fences.fetch_add(1, Ordering::Relaxed);
                fenced.push(dev);
            }
        }
    }
    crate::inject::point("delegate.drain.post");
    for (job, err) in batch.drain(..).zip(errors) {
        complete_job(shared, job, err);
    }
}

/// Post one job's completion: attribute bytes (success only), record the
/// first error, decrement the count, notify the last waiter.
fn complete_job(shared: &PoolShared, job: Job, err: Option<FsError>) {
    match err {
        None => {
            shared
                .counters
                .delegated_bytes
                .fetch_add(job.data.len() as u64, Ordering::Relaxed);
        }
        Some(e) => {
            job.done.error.lock().get_or_insert(e);
        }
    }
    crate::inject::point("delegate.complete.pre_finish");
    if job.done.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        crate::inject::point("delegate.complete.pre_notify");
        let _g = job.done.lock.lock();
        job.done.cv.notify_all();
    }
    shared.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
}

// ---- pool ------------------------------------------------------------------

/// Home-ring assignment: each submitting thread gets a stable slot on
/// first use (per-core placement stand-in), so its chunks land on the
/// same ring run after run and neighbouring threads spread across rings.
/// A pinned logical tid ([`pmem::set_thread_shard_hint`], set by schedule
/// replay harnesses) takes precedence over the process-global round-robin
/// counter, whose value depends on every earlier run in the process.
fn home_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    HOME.with(|h| {
        if h.get() == usize::MAX {
            h.set(match pmem::alloc::thread_shard_override() {
                Some(tid) => tid,
                None => NEXT.fetch_add(1, Ordering::Relaxed),
            });
        }
        h.get()
    })
}

/// A pool of delegation worker threads, each owning one submission ring.
pub struct DelegationPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("remaining", &self.done.remaining.load(Ordering::Relaxed))
            .finish()
    }
}

impl std::fmt::Debug for DelegationPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelegationPool")
            .field("rings", &self.shared.rings.len())
            .field("drain_batch", &self.shared.drain_batch)
            .finish()
    }
}

impl DelegationPool {
    /// Chunk size for splitting a delegated write across rings.
    pub const CHUNK: usize = 256 * 1024;

    /// Default submission-ring depth (slots per ring).
    pub const DEFAULT_SQ_DEPTH: usize = 64;

    /// Default drain-batch size (jobs per amortized fence).
    pub const DEFAULT_BATCH: usize = 8;

    /// A pool with `workers` delegation threads (0 = inline) and the
    /// default ring depth and drain batch.
    pub fn new(workers: usize) -> DelegationPool {
        DelegationPool::with_opts(workers, Self::DEFAULT_SQ_DEPTH, Self::DEFAULT_BATCH)
    }

    /// A pool with `workers` rings of `sq_depth` slots, draining up to
    /// `drain_batch` jobs per fence.
    pub fn with_opts(workers: usize, sq_depth: usize, drain_batch: usize) -> DelegationPool {
        let shared = Arc::new(PoolShared {
            rings: (0..workers)
                .map(|_| RingState {
                    ring: Ring::new(sq_depth.max(2)),
                    parked: Mutex::new(false),
                    wake: Condvar::new(),
                })
                .collect(),
            drain_batch: drain_batch.max(1),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("arckfs-delegate-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn delegation worker")
            })
            .collect();
        DelegationPool {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Number of worker threads (= submission rings).
    pub fn workers(&self) -> usize {
        self.shared.rings.len()
    }

    /// Total bytes whose delegated stores completed successfully.
    pub fn delegated_bytes(&self) -> u64 {
        self.shared.counters.delegated_bytes.load(Ordering::Relaxed)
    }

    /// Snapshot of the pool's observability counters.
    pub fn snapshot(&self) -> DelegSnapshot {
        let c = &self.shared.counters;
        DelegSnapshot {
            delegated_bytes: c.delegated_bytes.load(Ordering::Relaxed),
            enqueued: c.sq_enqueued.load(Ordering::Relaxed),
            backpressure: c.sq_backpressure.load(Ordering::Relaxed),
            sq_depth_max: c.sq_depth_max.load(Ordering::Relaxed),
            batches: c.drain_batches.load(Ordering::Relaxed),
            batch_jobs: c.drain_jobs.load(Ordering::Relaxed),
            batch_fences: c.batch_fences.load(Ordering::Relaxed),
            poll_waits: c.poll_waits.load(Ordering::Relaxed),
            park_waits: c.park_waits.load(Ordering::Relaxed),
        }
    }

    /// Write `data` at `offset` through `mapping` with non-temporal
    /// stores. With workers, the transfer is chunked across the rings
    /// (home ring first, neighbours for the remainder) and this returns a
    /// [`Ticket`] the caller must wait on — the data is durable once
    /// `wait` returns; without workers, the store (and its fence) happens
    /// inline and the returned ticket completes immediately.
    ///
    /// The completion is accounted **per enqueued chunk** (plus a submit
    /// guard): if the pool shuts down mid-submit, the chunks already
    /// queued still drain and drive the count to zero — the
    /// first-generation pool preloaded the full chunk count before
    /// sending, so a partial send leaked the completion and a later
    /// `wait` hung forever.
    pub fn submit(&self, mapping: &Mapping, offset: u64, data: &[u8]) -> FsResult<Ticket> {
        let shared = &self.shared;
        let done = Arc::new(Completion {
            // The submit guard: released after the enqueue loop.
            remaining: AtomicU64::new(1),
            error: Mutex::new(None),
            cv: Condvar::new(),
            lock: Mutex::new(()),
        });
        if shared.rings.is_empty() {
            let result = mapping.ntstore(offset, data).map_err(map_fault);
            done.remaining.store(0, Ordering::SeqCst);
            result?;
            // Same durability contract as the worker path: `wait`
            // returning means the bytes are fenced. Bytes are attributed
            // only on this success path.
            mapping.sfence();
            shared
                .counters
                .delegated_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
            return Ok(Ticket {
                done,
                shared: shared.clone(),
            });
        }

        let home = home_slot();
        let nrings = shared.rings.len();
        let mut submit_err = None;
        'chunks: for (i, chunk) in data.chunks(Self::CHUNK).enumerate() {
            done.remaining.fetch_add(1, Ordering::SeqCst);
            shared.counters.in_flight.fetch_add(1, Ordering::Relaxed);
            let state = &shared.rings[(home + i) % nrings];
            let mut job = Job {
                mapping: mapping.clone(),
                offset: offset + (i * Self::CHUNK) as u64,
                data: chunk.to_vec(),
                done: done.clone(),
            };
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // This chunk was never queued: take back its count.
                    done.remaining.fetch_sub(1, Ordering::SeqCst);
                    shared.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
                    submit_err =
                        Some(FsError::Internal("delegation pool shut down".into()));
                    break 'chunks;
                }
                match state.ring.try_push(job) {
                    Ok(()) => {
                        let depth = state.ring.len() as u64;
                        shared.counters.sq_depth_max.fetch_max(depth, Ordering::Relaxed);
                        shared.counters.sq_enqueued.fetch_add(1, Ordering::Relaxed);
                        if *state.parked.lock() {
                            state.wake.notify_one();
                        }
                        crate::inject::point("delegate.sq.enqueue");
                        break;
                    }
                    Err(back) => {
                        // Backpressure: the ring is full. Yield to the
                        // draining worker instead of growing a backlog.
                        job = back;
                        shared.counters.sq_backpressure.fetch_add(1, Ordering::Relaxed);
                        crate::inject::point("delegate.sq.wrap");
                        std::thread::yield_now();
                    }
                }
            }
        }
        // Release the submit guard; queued chunks now own the count.
        done.remaining.fetch_sub(1, Ordering::SeqCst);
        let ticket = Ticket {
            done,
            shared: shared.clone(),
        };
        match submit_err {
            None => Ok(ticket),
            Some(e) => {
                // Drain the chunks that *were* queued (workers empty
                // their rings even on shutdown) so the completion cannot
                // leak; the caller gets the shutdown error.
                let _ = ticket.wait();
                Err(e)
            }
        }
    }

    /// Wait until every enqueued chunk has posted its completion. Cheap
    /// when idle (a single counter read); used by the fsync/sync paths as
    /// the delegation quiesce point.
    pub fn drain(&self) {
        while self.shared.counters.in_flight.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }

    /// Close the rings and join the workers. In-flight jobs drain first;
    /// a submit racing the shutdown edge has its queued chunks completed
    /// (with the shutdown error if a worker no longer reaches them) and
    /// returns `FsError::Internal`. Idempotent; also run by `Drop`.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for state in &self.shared.rings {
            let _g = state.parked.lock();
            state.wake.notify_all();
        }
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
        // Complete any straggler jobs a racing submit pushed after the
        // workers' final empty check (bounded: such a submitter observes
        // the shutdown flag on its next chunk and stops).
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        loop {
            for state in &self.shared.rings {
                while let Some(job) = state.ring.try_pop() {
                    complete_job(
                        &self.shared,
                        job,
                        Some(FsError::Internal("delegation pool shut down".into())),
                    );
                }
            }
            if self.shared.counters.in_flight.load(Ordering::SeqCst) == 0
                || std::time::Instant::now() >= deadline
            {
                break;
            }
            std::thread::yield_now();
        }
    }
}

impl Drop for DelegationPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{MappingRegistry, PmemDevice};

    fn mapping(len: usize) -> Mapping {
        let dev = PmemDevice::new(len);
        let reg = Arc::new(MappingRegistry::new());
        Mapping::new(dev, reg, 0, len)
    }

    #[test]
    fn inline_pool_writes_synchronously() {
        let pool = DelegationPool::new(0);
        let m = mapping(1 << 20);
        pool.submit(&m, 100, b"inline").unwrap().wait().unwrap();
        let mut b = [0u8; 6];
        m.read(100, &mut b).unwrap();
        assert_eq!(&b, b"inline");
        assert_eq!(pool.workers(), 0);
        assert_eq!(pool.delegated_bytes(), 6);
    }

    #[test]
    fn workers_complete_large_transfers() {
        let pool = DelegationPool::new(2);
        let m = mapping(4 << 20);
        let data: Vec<u8> = (0..2_000_000u32).map(|i| (i % 251) as u8).collect();
        pool.submit(&m, 4096, &data).unwrap().wait().unwrap();
        m.sfence();
        let mut back = vec![0u8; data.len()];
        m.read(4096, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(pool.delegated_bytes(), 2_000_000);
        let snap = pool.snapshot();
        assert_eq!(snap.batch_jobs, snap.enqueued);
        assert!(snap.batch_fences <= snap.batch_jobs);
    }

    #[test]
    fn many_concurrent_submissions() {
        let pool = Arc::new(DelegationPool::new(2));
        let m = mapping(8 << 20);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pool = pool.clone();
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..10 {
                        let off = t * (1 << 20) + i * 64 * 1024;
                        let data = vec![t as u8 + 1; 64 * 1024];
                        pool.submit(&m, off, &data).unwrap().wait().unwrap();
                    }
                });
            }
        });
        let mut b = [0u8; 4];
        m.read(0, &mut b).unwrap();
        assert_eq!(b, [1, 1, 1, 1]);
    }

    #[test]
    fn stale_mapping_fault_surfaces_through_the_ticket() {
        let dev = PmemDevice::new(1 << 20);
        let reg = Arc::new(MappingRegistry::new());
        let m = Mapping::new(dev, reg.clone(), 0, 1 << 20);
        let pool = DelegationPool::new(1);
        reg.unmap(); // the §4.3-style revocation
        let data = vec![0u8; 600 * 1024];
        let err = pool.submit(&m, 0, &data).unwrap().wait().unwrap_err();
        assert!(err.is_fault(), "{err:?}");
        // Faulted chunks are not attributed (the accounting bug counted
        // the whole transfer at submit time).
        assert_eq!(pool.delegated_bytes(), 0);
    }

    #[test]
    fn inline_fault_attributes_no_bytes() {
        let dev = PmemDevice::new(1 << 20);
        let reg = Arc::new(MappingRegistry::new());
        let m = Mapping::new(dev, reg.clone(), 0, 1 << 20);
        let pool = DelegationPool::new(0);
        reg.unmap();
        assert!(pool.submit(&m, 0, &[1u8; 64]).is_err());
        assert_eq!(pool.delegated_bytes(), 0);
    }

    #[test]
    fn submit_after_shutdown_fails_cleanly() {
        let pool = DelegationPool::new(2);
        let m = mapping(1 << 20);
        let first = vec![1u8; 300 * 1024];
        pool.submit(&m, 0, &first).unwrap().wait().unwrap();
        pool.shutdown();
        let second = vec![2u8; 300 * 1024];
        let err = pool.submit(&m, 0, &second).unwrap_err();
        assert!(matches!(err, FsError::Internal(_)), "{err:?}");
        // Nothing further was attributed, and the pool is still sane.
        assert_eq!(pool.delegated_bytes(), 300 * 1024);
        pool.shutdown(); // idempotent
    }

    #[test]
    fn backpressure_blocks_instead_of_growing() {
        // A 2-slot ring and a large transfer: the submitter must ride
        // backpressure (counted) and still complete everything.
        let pool = DelegationPool::with_opts(1, 2, 1);
        let m = mapping(4 << 20);
        let data = vec![0xc3u8; 2 * 1024 * 1024]; // 8 chunks through 2 slots
        pool.submit(&m, 0, &data).unwrap().wait().unwrap();
        assert_eq!(pool.delegated_bytes(), data.len() as u64);
        let snap = pool.snapshot();
        assert_eq!(snap.enqueued, 8);
        assert!(snap.sq_depth_max <= 2);
    }

    #[test]
    fn drain_quiesces_in_flight_jobs() {
        let pool = DelegationPool::new(2);
        let m = mapping(4 << 20);
        let data = vec![9u8; 600 * 1024];
        let ticket = pool.submit(&m, 0, &data).unwrap();
        pool.drain();
        // After drain, completion is immediate: the wait's first poll
        // finds every chunk posted and never parks.
        ticket.wait().unwrap();
        let snap = pool.snapshot();
        assert_eq!(
            (snap.poll_waits, snap.park_waits),
            (1, 0),
            "drain() must quiesce all in-flight chunks"
        );
    }

    /// A drain batch issues one fence for all its jobs. The worker is held
    /// at its fence point on a first one-job batch while `k` more jobs
    /// queue, so after the release it drains exactly `ceil(k / batch)`
    /// full batches: fences count batches, not jobs — and at batch 1 they
    /// count jobs.
    #[test]
    fn each_drain_batch_fences_once() {
        const K: u64 = 16;
        for batch in [1usize, 4, 8] {
            let pool = DelegationPool::with_opts(1, 64, batch);
            let m = mapping(1 << 20);
            let gate = crate::inject::arm("delegate.drain.batch_fence");
            let mut tickets = vec![pool.submit(&m, 0, &[1u8; 4096]).unwrap()];
            // The worker has popped the first job once its batch is
            // counted; it cannot pop again before the gate releases it.
            while pool.snapshot().batches == 0 {
                std::thread::yield_now();
            }
            for i in 1..=K {
                tickets.push(pool.submit(&m, i * 4096, &[2u8; 4096]).unwrap());
            }
            gate.release();
            for t in tickets {
                t.wait().unwrap();
            }
            let snap = pool.snapshot();
            assert_eq!(snap.batch_jobs, K + 1);
            assert_eq!(snap.batches, 1 + K.div_ceil(batch as u64), "batch {batch}");
            assert_eq!(snap.batch_fences, snap.batches, "batch {batch}");
            if batch == 1 {
                assert_eq!(snap.batch_fences, snap.batch_jobs);
            }
        }
    }

    #[test]
    fn drop_joins_workers() {
        let pool = DelegationPool::new(3);
        let m = mapping(1 << 20);
        let data = vec![7u8; 512 * 1024];
        pool.submit(&m, 0, &data).unwrap().wait().unwrap();
        drop(pool); // must not hang
    }
}
