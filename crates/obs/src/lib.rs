#![warn(missing_docs)]

//! Operation-level tracing and metrics.
//!
//! The persistent-memory emulator counts flushes, fences and bytes at
//! *device* granularity ([`pmem::PmemStats`]), which is exactly the
//! granularity at which the paper's §4.2 missing-fence bug is invisible:
//! one extra `sfence` per *create* disappears into a device-wide total.
//! Persistence-debugging tools in the literature (WITCHER, Chipmunk) get
//! their power from **attributing** persistence events to the file-system
//! operation that issued them. This crate does that for the whole
//! workspace:
//!
//! * [`span`] wraps one file-system operation: it snapshots the device
//!   counters and the wall clock on entry and, on drop, records the delta
//!   and the latency under the operation's [`OpKind`];
//! * recording goes to (a) a global per-kind attribution table with
//!   log-bucketed latency [`Histogram`]s (all relaxed atomics, mergeable
//!   across threads by construction) and (b) a fixed-size per-thread ring
//!   of recent [`OpRecord`]s (overwrite-oldest, drained on demand —
//!   nothing allocates on the hot path);
//! * [`report`] aggregates everything into a [`Report`], exportable as
//!   JSON to `results/obs_<label>.json` for the benchmark trajectories.
//!
//! When disabled (the default) the entire facility costs a single relaxed
//! atomic load per operation — the same fast-path pattern as
//! `arckfs::inject::point`. Benchmarks that do not opt in pay nothing
//! measurable.
//!
//! Spans may nest (e.g. a `create` that internally performs a `commit`):
//! each span records **inclusively** — the outer span's delta contains the
//! inner span's work. Attribution tables therefore answer "what does one
//! *call* of this operation cost end-to-end", which is the quantity the
//! paper's Table 1 reasons about.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, Weak};
use std::time::Instant;

use pmem::{PmemStats, StatsSnapshot};

mod hist;
mod ring;

pub use hist::Histogram;
pub use ring::{OpRecord, RING_CAPACITY};

/// The operation vocabulary spans are attributed to.
///
/// Covers the `vfs::FileSystem` surface plus the trusted-entry operations
/// ArckFS-class systems route through the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpKind {
    /// `create`
    Create = 0,
    /// `open`
    Open = 1,
    /// `close`
    Close = 2,
    /// `read_at`
    Read = 3,
    /// `write_at`
    Write = 4,
    /// `append`
    Append = 5,
    /// `fsync`
    Fsync = 6,
    /// `truncate`
    Truncate = 7,
    /// `unlink`
    Unlink = 8,
    /// `mkdir`
    Mkdir = 9,
    /// `rmdir`
    Rmdir = 10,
    /// `rename`
    Rename = 11,
    /// `readdir`
    Readdir = 12,
    /// `stat`
    Stat = 13,
    /// Trusted-entry: commit/verify a directory through the kernel.
    Commit = 14,
    /// Trusted-entry: release an inode back to the kernel.
    Release = 15,
    /// Anything else (custom LibFS operations, maintenance).
    Other = 16,
}

/// Number of [`OpKind`] variants (sizes the attribution tables).
pub const OP_KIND_COUNT: usize = 17;

impl OpKind {
    /// Every kind, in discriminant order.
    pub const ALL: [OpKind; OP_KIND_COUNT] = [
        OpKind::Create,
        OpKind::Open,
        OpKind::Close,
        OpKind::Read,
        OpKind::Write,
        OpKind::Append,
        OpKind::Fsync,
        OpKind::Truncate,
        OpKind::Unlink,
        OpKind::Mkdir,
        OpKind::Rmdir,
        OpKind::Rename,
        OpKind::Readdir,
        OpKind::Stat,
        OpKind::Commit,
        OpKind::Release,
        OpKind::Other,
    ];

    /// Stable lower-case name used in reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Open => "open",
            OpKind::Close => "close",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Append => "append",
            OpKind::Fsync => "fsync",
            OpKind::Truncate => "truncate",
            OpKind::Unlink => "unlink",
            OpKind::Mkdir => "mkdir",
            OpKind::Rmdir => "rmdir",
            OpKind::Rename => "rename",
            OpKind::Readdir => "readdir",
            OpKind::Stat => "stat",
            OpKind::Commit => "commit",
            OpKind::Release => "release",
            OpKind::Other => "other",
        }
    }

    fn from_index(i: u8) -> OpKind {
        OpKind::ALL
            .get(i as usize)
            .copied()
            .unwrap_or(OpKind::Other)
    }
}

/// Global observability switch. Relaxed load on the fast path, like
/// `inject::ARMED`: when disabled, [`span`] is one load and one branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn recording on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn recording off (process-wide). Existing data is kept until
/// [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether recording is currently on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` with observability enabled, restoring the previous state after.
pub fn enabled_scope<T>(f: impl FnOnce() -> T) -> T {
    let was = ENABLED.swap(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(was, Ordering::SeqCst);
    out
}

// ---------------------------------------------------------------------------
// Attribution tables
// ---------------------------------------------------------------------------

/// Per-kind totals, all relaxed atomics (statistics, not synchronization).
#[derive(Default)]
struct KindCell {
    ops: AtomicU64,
    lat: hist::AtomicHistogram,
    stores: AtomicU64,
    bytes_written: AtomicU64,
    loads: AtomicU64,
    bytes_read: AtomicU64,
    clwb: AtomicU64,
    ntstores: AtomicU64,
    sfences: AtomicU64,
    dcache_hits: AtomicU64,
    dcache_misses: AtomicU64,
}

struct Tables {
    kinds: [KindCell; OP_KIND_COUNT],
    rings: Mutex<Vec<Weak<ring::ThreadRing>>>,
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| Tables {
        kinds: Default::default(),
        rings: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static THREAD_RING: std::sync::Arc<ring::ThreadRing> = {
        let r = std::sync::Arc::new(ring::ThreadRing::new());
        let mut regs = tables().rings.lock().unwrap_or_else(|e| e.into_inner());
        regs.retain(|w| w.strong_count() > 0);
        regs.push(std::sync::Arc::downgrade(&r));
        r
    };

    /// Stack of in-flight span kinds on this thread, so events raised deep
    /// inside an operation (dentry-cache hits/misses) can be attributed to
    /// the innermost enclosing operation without threading the kind
    /// through every call signature.
    static KIND_STACK: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The innermost in-flight span's kind on this thread, or [`OpKind::Other`]
/// when no span is active.
pub fn current_kind() -> OpKind {
    KIND_STACK.with(|s| {
        s.borrow()
            .last()
            .map(|i| OpKind::from_index(*i))
            .unwrap_or(OpKind::Other)
    })
}

/// Record a dentry-cache lookup outcome, attributed to the innermost
/// in-flight span's kind (see [`current_kind`]). One relaxed load when
/// observability is disabled.
#[inline]
pub fn dcache_event(hit: bool) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let cell = &tables().kinds[current_kind() as usize];
    if hit {
        cell.dcache_hits.fetch_add(1, Ordering::Relaxed);
    } else {
        cell.dcache_misses.fetch_add(1, Ordering::Relaxed);
    }
}

fn record(kind: OpKind, latency_ns: u64, delta: &StatsSnapshot) {
    let cell = &tables().kinds[kind as usize];
    cell.ops.fetch_add(1, Ordering::Relaxed);
    cell.lat.record(latency_ns);
    cell.stores.fetch_add(delta.stores, Ordering::Relaxed);
    cell.bytes_written
        .fetch_add(delta.bytes_written, Ordering::Relaxed);
    cell.loads.fetch_add(delta.loads, Ordering::Relaxed);
    cell.bytes_read.fetch_add(delta.bytes_read, Ordering::Relaxed);
    cell.clwb.fetch_add(delta.clwb, Ordering::Relaxed);
    cell.ntstores.fetch_add(delta.ntstores, Ordering::Relaxed);
    cell.sfences.fetch_add(delta.sfences, Ordering::Relaxed);
    THREAD_RING.with(|r| {
        r.push(OpRecord {
            kind_index: kind as u8,
            latency_ns,
            delta: *delta,
        })
    });
}

/// Clear every attribution table, histogram and ring.
pub fn reset() {
    let t = tables();
    for cell in &t.kinds {
        cell.ops.store(0, Ordering::Relaxed);
        cell.lat.reset();
        cell.stores.store(0, Ordering::Relaxed);
        cell.bytes_written.store(0, Ordering::Relaxed);
        cell.loads.store(0, Ordering::Relaxed);
        cell.bytes_read.store(0, Ordering::Relaxed);
        cell.clwb.store(0, Ordering::Relaxed);
        cell.ntstores.store(0, Ordering::Relaxed);
        cell.sfences.store(0, Ordering::Relaxed);
        cell.dcache_hits.store(0, Ordering::Relaxed);
        cell.dcache_misses.store(0, Ordering::Relaxed);
    }
    let regs = t.rings.lock().unwrap_or_else(|e| e.into_inner());
    for w in regs.iter() {
        if let Some(r) = w.upgrade() {
            r.reset();
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// An in-flight operation span. Created by [`span`]; records on drop.
///
/// Holds a reference to the device's [`PmemStats`] so the drop handler can
/// compute the counter delta without any allocation.
pub struct ObsSpan<'a> {
    inner: Option<SpanInner<'a>>,
}

struct SpanInner<'a> {
    kind: OpKind,
    stats: &'a PmemStats,
    before: StatsSnapshot,
    start: Instant,
}

/// Begin a span for one operation against the device owning `stats`.
///
/// Fast path: when observability is disabled this is a single relaxed
/// atomic load and returns an inert guard.
#[inline]
pub fn span<'a>(kind: OpKind, stats: &'a PmemStats) -> ObsSpan<'a> {
    if !ENABLED.load(Ordering::Relaxed) {
        return ObsSpan { inner: None };
    }
    KIND_STACK.with(|s| s.borrow_mut().push(kind as u8));
    ObsSpan {
        inner: Some(SpanInner {
            kind,
            stats,
            before: stats.snapshot(),
            start: Instant::now(),
        }),
    }
}

impl ObsSpan<'_> {
    /// Whether this span is live (observability was enabled at creation).
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Drop without recording (e.g. on an error path that should not
    /// pollute latency statistics).
    pub fn cancel(mut self) {
        if self.inner.take().is_some() {
            KIND_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

impl Drop for ObsSpan<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            KIND_STACK.with(|st| {
                st.borrow_mut().pop();
            });
            let latency_ns = s.start.elapsed().as_nanos() as u64;
            let delta = s.stats.snapshot().delta(&s.before);
            record(s.kind, latency_ns, &delta);
        }
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Aggregated statistics for one [`OpKind`].
#[derive(Debug, Clone)]
pub struct KindReport {
    /// Which operation.
    pub kind: OpKind,
    /// Number of recorded spans.
    pub ops: u64,
    /// Latency histogram (nanoseconds).
    pub latency: Histogram,
    /// Total counter deltas attributed to this kind.
    pub totals: StatsSnapshot,
    /// Dentry-cache hits attributed to this kind (see
    /// [`dcache_event`]).
    pub dcache_hits: u64,
    /// Dentry-cache misses attributed to this kind.
    pub dcache_misses: u64,
}

impl KindReport {
    /// Dentry-cache hit rate for this kind, or `None` when the cache was
    /// never consulted under it.
    pub fn dcache_hit_rate(&self) -> Option<f64> {
        let total = self.dcache_hits + self.dcache_misses;
        (total > 0).then(|| self.dcache_hits as f64 / total as f64)
    }

    /// Store fences per operation.
    pub fn sfences_per_op(&self) -> f64 {
        self.totals.sfences as f64 / self.ops.max(1) as f64
    }

    /// Cache-line flushes per operation.
    pub fn clwb_per_op(&self) -> f64 {
        self.totals.clwb as f64 / self.ops.max(1) as f64
    }

    /// PM bytes written per operation.
    pub fn bytes_written_per_op(&self) -> f64 {
        self.totals.bytes_written as f64 / self.ops.max(1) as f64
    }

    fn to_json(&self) -> serde_json::Value {
        let lat = &self.latency;
        serde_json::json!({
            "op": self.kind.name(),
            "count": self.ops,
            "latency_ns": serde_json::json!({
                "mean": lat.mean(),
                "p50": lat.percentile(50.0),
                "p95": lat.percentile(95.0),
                "p99": lat.percentile(99.0),
                "p999": lat.percentile(99.9),
                "min": lat.min(),
                "max": lat.max(),
            }),
            "per_op": serde_json::json!({
                "sfences": self.sfences_per_op(),
                "clwb": self.clwb_per_op(),
                "stores": self.totals.stores as f64 / self.ops.max(1) as f64,
                "ntstores": self.totals.ntstores as f64 / self.ops.max(1) as f64,
                "bytes_written": self.bytes_written_per_op(),
                "bytes_read": self.totals.bytes_read as f64 / self.ops.max(1) as f64,
            }),
            "totals": serde_json::json!({
                "sfences": self.totals.sfences,
                "clwb": self.totals.clwb,
                "stores": self.totals.stores,
                "ntstores": self.totals.ntstores,
                "bytes_written": self.totals.bytes_written,
                "loads": self.totals.loads,
                "bytes_read": self.totals.bytes_read,
            }),
            "dcache": serde_json::json!({
                "hits": self.dcache_hits,
                "misses": self.dcache_misses,
                "hit_rate": self.dcache_hit_rate(),
            }),
        })
    }
}

/// A full point-in-time aggregation of the attribution tables.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-kind rows, only kinds with at least one recorded span.
    pub kinds: Vec<KindReport>,
}

impl Report {
    /// Row for one kind, if recorded.
    pub fn kind(&self, kind: OpKind) -> Option<&KindReport> {
        self.kinds.iter().find(|k| k.kind == kind)
    }

    /// Fold another report into this one (e.g. per-cell reports of one
    /// benchmark row). Histograms merge bucket-wise; totals add.
    pub fn merge(&mut self, other: &Report) {
        for row in &other.kinds {
            match self.kinds.iter_mut().find(|k| k.kind == row.kind) {
                Some(mine) => {
                    mine.ops += row.ops;
                    mine.latency.merge(&row.latency);
                    mine.totals.stores += row.totals.stores;
                    mine.totals.bytes_written += row.totals.bytes_written;
                    mine.totals.loads += row.totals.loads;
                    mine.totals.bytes_read += row.totals.bytes_read;
                    mine.totals.clwb += row.totals.clwb;
                    mine.totals.ntstores += row.totals.ntstores;
                    mine.totals.sfences += row.totals.sfences;
                    mine.dcache_hits += row.dcache_hits;
                    mine.dcache_misses += row.dcache_misses;
                }
                None => self.kinds.push(row.clone()),
            }
        }
    }

    /// Serialize to the `results/obs_*.json` schema (documented in
    /// DESIGN.md).
    pub fn to_json(&self, label: &str) -> serde_json::Value {
        serde_json::json!({
            "schema": "obs-report-v1",
            "label": label,
            "ops": self.kinds.iter().map(|k| k.to_json()).collect::<Vec<_>>(),
        })
    }

    /// [`Report::to_json`] plus caller-supplied top-level extension blocks
    /// (e.g. `schedmc`'s coverage counters), merged into the same
    /// `obs-report-v1` object. Extension keys must not collide with the
    /// base schema (`schema`/`label`/`ops`); base keys win on collision.
    pub fn to_json_ext(
        &self,
        label: &str,
        extensions: &[(&str, serde_json::Value)],
    ) -> serde_json::Value {
        let mut v = self.to_json(label);
        if let serde_json::Value::Object(obj) = &mut v {
            for (key, value) in extensions {
                if obj.get(key).is_none() {
                    obj.insert((*key).to_string(), value.clone());
                }
            }
        }
        v
    }

    /// Write `results/obs_<label>.json` (best effort, like
    /// `bench::record_json`). Returns the path written.
    pub fn write_json(&self, label: &str) -> std::io::Result<String> {
        self.write_json_ext(label, &[])
    }

    /// [`Report::write_json`] with extension blocks ([`Report::to_json_ext`]).
    pub fn write_json_ext(
        &self,
        label: &str,
        extensions: &[(&str, serde_json::Value)],
    ) -> std::io::Result<String> {
        std::fs::create_dir_all("results")?;
        let path = format!("results/obs_{label}.json");
        let text = serde_json::to_string_pretty(&self.to_json_ext(label, extensions))
            .unwrap_or_else(|_| "{}".to_string());
        std::fs::write(&path, text + "\n")?;
        Ok(path)
    }
}

/// Aggregate the current attribution tables into a [`Report`].
pub fn report() -> Report {
    let t = tables();
    let mut kinds = Vec::new();
    for k in OpKind::ALL {
        let cell = &t.kinds[k as usize];
        let ops = cell.ops.load(Ordering::Relaxed);
        let dcache_hits = cell.dcache_hits.load(Ordering::Relaxed);
        let dcache_misses = cell.dcache_misses.load(Ordering::Relaxed);
        if ops == 0 && dcache_hits + dcache_misses == 0 {
            continue;
        }
        kinds.push(KindReport {
            kind: k,
            ops,
            latency: cell.lat.snapshot(),
            dcache_hits,
            dcache_misses,
            totals: StatsSnapshot {
                stores: cell.stores.load(Ordering::Relaxed),
                bytes_written: cell.bytes_written.load(Ordering::Relaxed),
                loads: cell.loads.load(Ordering::Relaxed),
                bytes_read: cell.bytes_read.load(Ordering::Relaxed),
                clwb: cell.clwb.load(Ordering::Relaxed),
                ntstores: cell.ntstores.load(Ordering::Relaxed),
                sfences: cell.sfences.load(Ordering::Relaxed),
                ..StatsSnapshot::default()
            },
        });
    }
    Report { kinds }
}

/// Drain a snapshot of every thread's recent-operation ring, newest last
/// per thread. Records are tagged with their [`OpKind`] index; use
/// [`OpRecord::kind`].
pub fn recent_ops() -> Vec<OpRecord> {
    let regs = tables().rings.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::new();
    for w in regs.iter() {
        if let Some(r) = w.upgrade() {
            r.drain_into(&mut out);
        }
    }
    out
}

impl OpRecord {
    /// The operation kind this record belongs to.
    pub fn kind(&self) -> OpKind {
        OpKind::from_index(self.kind_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device_stats() -> &'static PmemStats {
        static S: OnceLock<PmemStats> = OnceLock::new();
        S.get_or_init(PmemStats::default)
    }

    // The global switch is process-wide, so tests that toggle it share one
    // lock to avoid interfering (cargo runs tests concurrently).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Quantifies the disabled-path cost (run manually:
    /// `cargo test -p obs --release -- --ignored --nocapture`). The
    /// acceptance target is <2% regression on FS ops with observability
    /// off; a disabled span is one relaxed load, so its cost must be
    /// single-digit nanoseconds against multi-microsecond operations.
    #[test]
    #[ignore = "perf measurement, prints numbers; run manually in release"]
    fn disabled_span_cost_ns() {
        let _g = serial();
        disable();
        let dev = pmem::PmemDevice::new(1 << 16);
        const N: u64 = 10_000_000;
        let start = Instant::now();
        for _ in 0..N {
            let s = span(OpKind::Create, dev.stats());
            std::hint::black_box(&s);
        }
        let disabled_ns = start.elapsed().as_nanos() as f64 / N as f64;
        enable();
        let start = Instant::now();
        for _ in 0..N {
            let s = span(OpKind::Create, dev.stats());
            std::hint::black_box(&s);
        }
        let enabled_ns = start.elapsed().as_nanos() as f64 / N as f64;
        disable();
        reset();
        println!("span cost: disabled {disabled_ns:.1} ns, enabled {enabled_ns:.1} ns");
        assert!(
            disabled_ns < 50.0,
            "disabled span must stay in the nanoseconds ({disabled_ns:.1} ns)"
        );
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = serial();
        disable();
        reset();
        {
            let _s = span(OpKind::Create, device_stats());
        }
        assert!(report().kind(OpKind::Create).is_none());
    }

    #[test]
    fn enabled_span_attributes_delta_and_latency() {
        let _g = serial();
        reset();
        enabled_scope(|| {
            let dev = pmem::PmemDevice::new(1 << 16);
            {
                let _s = span(OpKind::Mkdir, dev.stats());
                dev.write(0, &[1u8; 64]).unwrap();
                dev.clwb(0, 64).unwrap();
                dev.sfence();
            }
        });
        let rep = report();
        let row = rep.kind(OpKind::Mkdir).expect("recorded");
        assert_eq!(row.ops, 1);
        assert_eq!(row.totals.sfences, 1);
        assert_eq!(row.totals.bytes_written, 64);
        assert!(row.latency.count() == 1);
        reset();
    }

    #[test]
    fn span_nesting_is_inclusive() {
        let _g = serial();
        reset();
        enabled_scope(|| {
            let dev = pmem::PmemDevice::new(1 << 16);
            {
                let _outer = span(OpKind::Create, dev.stats());
                dev.sfence(); // outer-only work
                {
                    let _inner = span(OpKind::Commit, dev.stats());
                    dev.sfence();
                    dev.sfence();
                }
            }
        });
        let rep = report();
        let outer = rep.kind(OpKind::Create).expect("outer");
        let inner = rep.kind(OpKind::Commit).expect("inner");
        // Inner records its own two fences; outer records all three
        // (inclusive attribution).
        assert_eq!(inner.totals.sfences, 2);
        assert_eq!(outer.totals.sfences, 3);
        reset();
    }

    #[test]
    fn cancel_suppresses_recording() {
        let _g = serial();
        reset();
        enabled_scope(|| {
            let dev = pmem::PmemDevice::new(1 << 16);
            let s = span(OpKind::Rename, dev.stats());
            dev.sfence();
            s.cancel();
        });
        assert!(report().kind(OpKind::Rename).is_none());
        reset();
    }

    #[test]
    fn recent_ops_surface_ring_records() {
        let _g = serial();
        reset();
        enabled_scope(|| {
            let dev = pmem::PmemDevice::new(1 << 16);
            for _ in 0..5 {
                let _s = span(OpKind::Stat, dev.stats());
            }
        });
        let recents = recent_ops();
        let stats_ops = recents
            .iter()
            .filter(|r| r.kind() == OpKind::Stat)
            .count();
        assert!(stats_ops >= 5, "ring kept {stats_ops} stat records");
        reset();
    }

    #[test]
    fn dcache_events_attribute_to_innermost_span() {
        let _g = serial();
        reset();
        enabled_scope(|| {
            let dev = pmem::PmemDevice::new(1 << 16);
            {
                let _s = span(OpKind::Stat, dev.stats());
                dcache_event(true);
                dcache_event(true);
                dcache_event(false);
            }
            dcache_event(false); // outside any span → Other
        });
        let rep = report();
        let stat = rep.kind(OpKind::Stat).expect("stat row");
        assert_eq!((stat.dcache_hits, stat.dcache_misses), (2, 1));
        let rate = stat.dcache_hit_rate().expect("rate");
        assert!((rate - 2.0 / 3.0).abs() < 1e-9);
        let other = rep.kind(OpKind::Other).expect("other row");
        assert_eq!(other.dcache_misses, 1);
        let json = stat.to_json();
        assert!(json.get("dcache").is_some(), "JSON must carry dcache block");
        reset();
    }

    #[test]
    fn cancel_pops_kind_stack() {
        let _g = serial();
        reset();
        enabled_scope(|| {
            let dev = pmem::PmemDevice::new(1 << 16);
            let s = span(OpKind::Rename, dev.stats());
            s.cancel();
            assert_eq!(current_kind(), OpKind::Other);
        });
        reset();
    }

    #[test]
    fn report_json_schema_shape() {
        let _g = serial();
        reset();
        enabled_scope(|| {
            let dev = pmem::PmemDevice::new(1 << 16);
            let _s = span(OpKind::Open, dev.stats());
        });
        let v = report().to_json("unit");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("obs-report-v1")
        );
        let ops = v.get("ops").and_then(|o| o.as_array()).expect("ops array");
        assert!(ops
            .iter()
            .any(|row| row.get("op").and_then(|n| n.as_str()) == Some("open")));
        reset();
    }
}
