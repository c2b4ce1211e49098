//! One thread's view of a run: every call into the file system goes
//! through [`Ctx::call`], which counts it, checks its result and — in a
//! traced run — wraps it in a span and takes counter deltas around it.

use std::time::Instant;

use crate::adapter::{FsResult, LibFs, StatsSnapshot};
use crate::span::{Recorder, NO_PARENT};
use crate::stats::Samples;

/// The calls of the `vfs` interface the benchmark makes: the `K` of the
/// per-layer metrics `vfs.K.p50_ns`. `Rmdir` is made but not reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vfs {
    Create,
    Open,
    Close,
    Stat,
    Rename,
    Unlink,
    Readdir,
    Mkdir,
    Read,
    Write,
    Append,
    Fsync,
    Truncate,
    ReleasePath,
    Rmdir,
}

impl Vfs {
    pub const COUNT: usize = 15;
    /// The kinds that have per-layer metrics.
    pub const REPORTED: [Vfs; 14] = [
        Vfs::Create,
        Vfs::Open,
        Vfs::Close,
        Vfs::Stat,
        Vfs::Rename,
        Vfs::Unlink,
        Vfs::Readdir,
        Vfs::Mkdir,
        Vfs::Read,
        Vfs::Write,
        Vfs::Append,
        Vfs::Fsync,
        Vfs::Truncate,
        Vfs::ReleasePath,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Vfs::Create => "create",
            Vfs::Open => "open",
            Vfs::Close => "close",
            Vfs::Stat => "stat",
            Vfs::Rename => "rename",
            Vfs::Unlink => "unlink",
            Vfs::Readdir => "readdir",
            Vfs::Mkdir => "mkdir",
            Vfs::Read => "read",
            Vfs::Write => "write",
            Vfs::Append => "append",
            Vfs::Fsync => "fsync",
            Vfs::Truncate => "truncate",
            Vfs::ReleasePath => "release_path",
            Vfs::Rmdir => "rmdir",
        }
    }
}

/// The operations whose latency is an end-to-end sample. An operation is
/// what a caller waits for: `Create` and `Open` include their `close`,
/// `AppendFsync` is an append and its fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Create,
    Stat,
    Open,
    Rename,
    Unlink,
    Readdir,
    MkRmdir,
    Read4k,
    Write4k,
    AppendFsync,
    Write1m,
    Read1m,
    Truncate,
    /// First create of a turn on the 100-resident shared directory.
    Handoff,
    Handoff1000,
    /// First 4 KiB write of a turn on the shared file.
    HandoffFile,
    /// First create of a turn inside a trust group.
    TrustCreate,
    /// `release_path` of a shared directory or file.
    Release,
    /// `release_path("/")`.
    ReleaseRoot,
}

impl Op {
    pub const COUNT: usize = 19;
    pub const ALL: [Op; Op::COUNT] = [
        Op::Create,
        Op::Stat,
        Op::Open,
        Op::Rename,
        Op::Unlink,
        Op::Readdir,
        Op::MkRmdir,
        Op::Read4k,
        Op::Write4k,
        Op::AppendFsync,
        Op::Write1m,
        Op::Read1m,
        Op::Truncate,
        Op::Handoff,
        Op::Handoff1000,
        Op::HandoffFile,
        Op::TrustCreate,
        Op::Release,
        Op::ReleaseRoot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Create => "create",
            Op::Stat => "stat",
            Op::Open => "open",
            Op::Rename => "rename",
            Op::Unlink => "unlink",
            Op::Readdir => "readdir",
            Op::MkRmdir => "mkdir+rmdir",
            Op::Read4k => "read4k",
            Op::Write4k => "write4k",
            Op::AppendFsync => "append+fsync",
            Op::Write1m => "write1m",
            Op::Read1m => "read1m",
            Op::Truncate => "truncate",
            Op::Handoff => "handoff(dir100)",
            Op::Handoff1000 => "handoff(dir1000)",
            Op::HandoffFile => "handoff(file16m)",
            Op::TrustCreate => "trust_create",
            Op::Release => "release_path",
            Op::ReleaseRoot => "release_path(/)",
        }
    }
}

/// Counter deltas summed per call kind in a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallCounts {
    pub calls: u64,
    pub loads: u64,
    pub stores: u64,
    pub ntstores: u64,
    pub clwb: u64,
    pub sfences: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub syscalls: u64,
}

impl CallCounts {
    fn add(&mut self, d: &StatsSnapshot, syscalls: u64) {
        self.calls += 1;
        self.loads += d.loads;
        // the device counts a non-temporal store as a store too
        self.stores += d.stores - d.ntstores;
        self.ntstores += d.ntstores;
        self.clwb += d.clwb;
        self.sfences += d.sfences;
        self.bytes_read += d.bytes_read;
        self.bytes_written += d.bytes_written;
        self.syscalls += syscalls;
    }

    pub fn merge(&mut self, o: &CallCounts) {
        self.calls += o.calls;
        self.loads += o.loads;
        self.stores += o.stores;
        self.ntstores += o.ntstores;
        self.clwb += o.clwb;
        self.sfences += o.sfences;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
        self.syscalls += o.syscalls;
    }
}

/// The traced part of a [`Ctx`].
#[derive(Debug)]
pub struct Trace {
    pub rec: Recorder,
    name_ids: [u16; Vfs::COUNT],
    /// Span that new call spans hang under (the current phase).
    pub parent: u32,
    pub calls: Vec<Samples>,
    /// Filled only while `solo`: with a second thread running, a delta of
    /// the shared device counters belongs to both.
    pub counts: [CallCounts; Vfs::COUNT],
    pub solo: bool,
}

/// Per-thread execution context.
#[derive(Debug)]
pub struct Ctx {
    pub thread: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    pub ops: Vec<Samples>,
    /// Latency statistics of every round this thread ran alone, and of
    /// every round it ran beside another thread.
    pub solo_rounds: Vec<RoundLatency>,
    pub pair_rounds: Vec<RoundLatency>,
    round_start: Vec<usize>,
    scratch: Samples,
    pub trace: Option<Trace>,
    op_seq: u32,
}

/// Latency statistics of one round of one thread (see
/// [`Ctx::round_begin`]).
#[derive(Debug, Clone)]
pub struct RoundLatency {
    /// Median per operation class; NaN for a class the round did not run.
    pub p50: [f64; Op::COUNT],
    /// Median and 99th percentile over all operations of the round.
    pub all_p50: f64,
    pub all_p99: f64,
}

/// Capacities for the sample buffers of a [`Ctx`].
#[derive(Debug, Clone, Copy)]
pub struct Capacity {
    pub per_op: usize,
    pub per_call: usize,
    pub spans: usize,
}

impl Ctx {
    pub fn new(thread: usize, cap: Capacity, traced: Option<Instant>) -> Ctx {
        let trace = traced.map(|epoch| {
            let mut rec = Recorder::new(epoch, cap.spans);
            let mut name_ids = [0u16; Vfs::COUNT];
            for k in Vfs::REPORTED.into_iter().chain([Vfs::Rmdir]) {
                name_ids[k as usize] = rec.name_id(&format!("vfs.{}", k.name()));
            }
            Trace {
                rec,
                name_ids,
                parent: NO_PARENT,
                calls: (0..Vfs::COUNT)
                    .map(|_| Samples::with_capacity(cap.per_call))
                    .collect(),
                counts: [CallCounts::default(); Vfs::COUNT],
                solo: true,
            }
        });
        Ctx {
            thread,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            ops: (0..Op::COUNT)
                .map(|_| Samples::with_capacity(cap.per_op))
                .collect(),
            solo_rounds: Vec::new(),
            pair_rounds: Vec::new(),
            round_start: vec![0; Op::COUNT],
            scratch: Samples::default(),
            trace,
            op_seq: 0,
        }
    }

    /// Start a round: the operations from here to [`Ctx::round_end`] give
    /// one value of each per-round statistic.
    pub fn round_begin(&mut self) {
        for (start, o) in self.round_start.iter_mut().zip(&self.ops) {
            *start = o.len();
        }
    }

    /// End a round that ran alone (`solo`) or beside another thread.
    pub fn round_end(&mut self, solo: bool) {
        let mut all = Samples::default();
        let mut p50 = [f64::NAN; Op::COUNT];
        for (i, (start, o)) in self.round_start.iter().zip(&self.ops).enumerate() {
            if o.len() > *start {
                self.scratch.0.clear();
                self.scratch.0.extend_from_slice(&o.0[*start..]);
                all.extend(&self.scratch);
                p50[i] = self.scratch.sorted().median_grouped();
            }
        }
        if all.is_empty() {
            return;
        }
        let sorted = all.sorted();
        let round = RoundLatency {
            p50,
            all_p50: sorted.median_grouped(),
            all_p99: sorted.percentile(99.0),
        };
        if solo {
            self.solo_rounds.push(round);
        } else {
            self.pair_rounds.push(round);
        }
    }

    /// Forget every latency sample and count taken so far (the end of
    /// warm-up). Checks stay counted, spans stay recorded.
    pub fn forget_samples(&mut self) {
        self.ops.iter_mut().for_each(|o| o.0.clear());
        self.solo_rounds.clear();
        self.pair_rounds.clear();
        if let Some(t) = self.trace.as_mut() {
            t.calls.iter_mut().for_each(|c| c.0.clear());
            t.counts = [CallCounts::default(); Vfs::COUNT];
        }
    }

    /// A context that only counts and checks: no sample buffers, no trace.
    pub fn scratch() -> Ctx {
        let none = Capacity {
            per_op: 0,
            per_call: 0,
            spans: 0,
        };
        Ctx::new(0, none, None)
    }

    /// Record a failed check.
    #[cold]
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Count a check of an output; `what` is built only on failure.
    #[inline]
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// One call into the file system `fs`. `None` when it failed (the
    /// failure is already counted).
    #[inline]
    pub fn call<T>(
        &mut self,
        fs: &LibFs,
        kind: Vfs,
        f: impl FnOnce(&LibFs) -> FsResult<T>,
    ) -> Option<T> {
        self.attempted += 1;
        let result = match self.trace.as_mut() {
            None => f(fs),
            Some(t) => {
                let dev = fs.kernel().device().stats();
                let kstats = fs.kernel().stats();
                let before = dev.snapshot();
                let sys_before = kstats.snapshot().syscalls;
                let id = t.rec.open(t.name_ids[kind as usize], t.parent, self.op_seq);
                let r = f(fs);
                let ns = t.rec.close(id);
                if t.solo {
                    let d = dev.snapshot().delta(&before);
                    let sys = kstats.snapshot().syscalls - sys_before;
                    t.counts[kind as usize].add(&d, sys);
                }
                t.calls[kind as usize].push_ns(u128::from(ns));
                r
            }
        };
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{}: {e}", kind.name()));
                None
            }
        }
    }

    /// Time `body` as one operation of class `op`.
    #[inline]
    pub fn timed(&mut self, op: Op, body: impl FnOnce(&mut Ctx)) {
        self.op_seq = self.op_seq.wrapping_add(1);
        let start = Instant::now();
        body(self);
        let ns = start.elapsed().as_nanos();
        self.ops[op as usize].push_ns(ns);
    }

    /// Open a phase span (traced runs); call spans hang under it until
    /// [`Ctx::phase_close`].
    pub fn phase_open(&mut self, name: &str, solo: bool) -> u32 {
        match self.trace.as_mut() {
            None => 0,
            Some(t) => {
                let n = t.rec.name_id(name);
                let outer = t.parent;
                let id = t.rec.open(n, outer, 0);
                t.parent = id;
                t.solo = solo;
                id
            }
        }
    }

    pub fn phase_close(&mut self, id: u32) {
        if let Some(t) = self.trace.as_mut() {
            t.rec.close(id);
            t.parent = t.rec.spans[id as usize].parent;
            t.solo = true;
        }
    }

    /// Move another thread's counts and samples into this one. Spans stay
    /// with their thread.
    pub fn absorb(&mut self, other: &mut Ctx) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in &other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e.clone());
            }
        }
        for (mine, theirs) in self.ops.iter_mut().zip(&other.ops) {
            mine.extend(theirs);
        }
        self.solo_rounds.extend_from_slice(&other.solo_rounds);
        self.pair_rounds.extend_from_slice(&other.pair_rounds);
        if let (Some(a), Some(b)) = (self.trace.as_mut(), other.trace.as_ref()) {
            for (mine, theirs) in a.calls.iter_mut().zip(&b.calls) {
                mine.extend(theirs);
            }
            for (mine, theirs) in a.counts.iter_mut().zip(&b.counts) {
                mine.merge(theirs);
            }
        }
        other.forget_samples();
    }
}
