//! The four sections every run executes: private metadata, shared
//! metadata on two threads, shared data on two threads, and ownership
//! hand-off between two applications.

use std::sync::Barrier;
use std::time::Instant;

use crate::adapter::{self, Counters, Fd, FileSystem, FileType, LibFs, OpenFlags};
use crate::content::{self, BlockModel, LogModel};
use crate::env::{self, Churn, Env, MetaState, SharedDir, State};
use crate::exec::{Capacity, Ctx, Op, Vfs};
use crate::keepwarm::KeepWarm;
use crate::plan::{
    round_len, stripe_owner, DataGen, DataOp, DataSpec, HandoffGen, HandoffSpec, MetaGen,
    MetaLayout, MetaOp, MetaSpec, Plan, APPEND_BYTES, BLOCK, HANDOFF_ROUND_TURNS, MIB,
    WARMUP_ROUNDS,
};

/// What every section of one slice runs on and with.
#[derive(Clone, Copy)]
pub struct Slice<'a> {
    pub env: &'a Env,
    pub warm: &'a KeepWarm,
    pub seed: u64,
    pub index: usize,
    /// The clock of the span recorder when the run is traced.
    pub traced: Option<Instant>,
}

/// One timed round of a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    pub wall_ns: u64,
    pub ops: u64,
    /// User bytes read plus written.
    pub bytes: u64,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    pub fn mib_per_s(&self) -> f64 {
        self.bytes as f64 / MIB as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// What one section measured.
#[derive(Debug)]
pub struct SectionOut {
    /// Thread 0's context with every thread's samples and counts folded in.
    pub ctx: Ctx,
    /// The other threads' contexts, kept for their spans.
    pub others: Vec<Ctx>,
    /// Single-thread rounds (phase A; all rounds of a one-thread section).
    pub a: Vec<Round>,
    /// Two-thread rounds (phase B).
    pub b: Vec<Round>,
    /// Counter deltas and operations over all recorded rounds. With one
    /// thread they repeat exactly from run to run.
    pub all: Counters,
    pub all_ops: u64,
    pub user_bytes_written: u64,
}

impl SectionOut {
    /// Fold the next slice of the same section into this one.
    pub fn merge(&mut self, mut next: SectionOut) {
        self.ctx.absorb(&mut next.ctx);
        self.others.push(next.ctx);
        self.others.extend(next.others);
        self.a.extend(next.a);
        self.b.extend(next.b);
        self.all.add(&next.all);
        self.all_ops += next.all_ops;
        self.user_bytes_written += next.user_bytes_written;
    }
}

/// What one thread does in a round. `prepare` is untimed.
trait Worker: Send {
    fn prepare(&mut self);
    /// Execute the prepared list; returns (operations, user bytes moved,
    /// user bytes written).
    fn run(&mut self, fs: &LibFs, ctx: &mut Ctx) -> (u64, u64, u64);
}

fn run_round<W: Worker>(
    w: &mut W,
    fs: &LibFs,
    ctx: &mut Ctx,
    epoch: Instant,
    phase: &str,
    solo: bool,
) -> (u64, u64, Round, u64) {
    let span = ctx.phase_open(phase, solo);
    ctx.round_begin();
    let start = epoch.elapsed().as_nanos() as u64;
    let (ops, bytes, written) = w.run(fs, ctx);
    let end = epoch.elapsed().as_nanos() as u64;
    ctx.round_end(solo);
    ctx.phase_close(span);
    (
        start,
        end,
        Round {
            wall_ns: end - start,
            ops,
            bytes,
        },
        written,
    )
}

/// Run `rounds` rounds. With one worker every round is single-threaded.
/// With two, every round is a phase A (thread 0 alone, thread 1 parked on
/// a barrier) then a phase B (both, started together); thread 0 reads the
/// counters at the phase boundaries, where no other thread is running.
fn drive<W: Worker>(
    env: &Env,
    warm: &KeepWarm,
    rounds: usize,
    workers: &mut [W],
    ctxs: Vec<Ctx>,
) -> SectionOut {
    let epoch = Instant::now();
    let threads = workers.len();
    let barrier = Barrier::new(threads);
    let fs = &*env.a;
    let read = || Counters::read(&env.kernel, &env.apps());
    let mut ctxs = ctxs.into_iter();
    let mut out = SectionOut {
        ctx: ctxs.next().expect("one context per worker"),
        others: Vec::new(),
        a: Vec::with_capacity(rounds),
        b: Vec::with_capacity(rounds),
        all: Counters::default(),
        all_ops: 0,
        user_bytes_written: 0,
    };
    let (leader, followers) = workers.split_first_mut().expect("at least one worker");
    std::thread::scope(|s| {
        let handles: Vec<_> = followers
            .iter_mut()
            .zip(ctxs)
            .enumerate()
            .map(|(i, (w, mut ctx))| {
                let barrier = &barrier;
                s.spawn(move || {
                    adapter::pin_thread_home(i + 1);
                    let mut spans = Vec::with_capacity(rounds);
                    for r in 0..WARMUP_ROUNDS + rounds {
                        if r == WARMUP_ROUNDS {
                            ctx.forget_samples();
                            spans.clear();
                        }
                        w.prepare();
                        barrier.wait(); // thread 0 starts phase A
                        barrier.wait(); // phase B starts
                        let (start, end, round, written) =
                            run_round(w, fs, &mut ctx, epoch, "phase.B", false);
                        barrier.wait(); // phase B ended
                        spans.push((start, end, round, written));
                    }
                    (ctx, spans)
                })
            })
            .collect();

        adapter::pin_thread_home(0);
        let mut mine = Vec::with_capacity(rounds);
        for r in 0..WARMUP_ROUNDS + rounds {
            if r == WARMUP_ROUNDS {
                out.ctx.forget_samples();
                mine.clear();
                out.a.clear();
                out.all = Counters::default();
                (out.all_ops, out.user_bytes_written) = (0, 0);
            }
            leader.prepare();
            barrier.wait();
            let before = read();
            let (_, _, round, written) =
                run_round(leader, fs, &mut out.ctx, epoch, "phase.A", true);
            let after_a = read();
            out.all.add(&after_a.since(&before));
            out.all_ops += round.ops;
            out.user_bytes_written += written;
            out.a.push(round);
            if threads > 1 {
                leader.prepare();
                warm.pause();
                barrier.wait();
                let (start, end, round, written) =
                    run_round(leader, fs, &mut out.ctx, epoch, "phase.B", false);
                barrier.wait();
                warm.resume();
                out.all.add(&read().since(&after_a));
                mine.push((start, end, round, written));
            }
        }
        let mut per_thread = vec![mine];
        for h in handles {
            let (ctx, spans) = h.join().expect("benchmark thread panicked");
            out.others.push(ctx);
            per_thread.push(spans);
        }
        if threads > 1 {
            for r in 0..rounds {
                let start = per_thread.iter().map(|t| t[r].0).min().unwrap_or(0);
                let end = per_thread.iter().map(|t| t[r].1).max().unwrap_or(0);
                let ops: u64 = per_thread.iter().map(|t| t[r].2.ops).sum();
                let bytes: u64 = per_thread.iter().map(|t| t[r].2.bytes).sum();
                out.user_bytes_written += per_thread.iter().map(|t| t[r].3).sum::<u64>();
                out.all_ops += ops;
                out.b.push(Round {
                    wall_ns: end - start,
                    ops,
                    bytes,
                });
            }
        }
    });
    for o in &mut out.others {
        out.ctx.absorb(o);
    }
    out
}

fn capacity(per_op: usize, traced: bool) -> Capacity {
    Capacity {
        per_op,
        per_call: if traced { per_op } else { 0 },
        spans: if traced { 2 * per_op + 64 } else { 0 },
    }
}

// ---------------------------------------------------------------------
// Metadata sections
// ---------------------------------------------------------------------

struct MetaWorker<'a> {
    layout: &'a MetaLayout,
    residents_per_leaf: usize,
    thread: usize,
    gen: MetaGen,
    ops: Vec<MetaOp>,
    churn: &'a mut Vec<Churn>,
    mk: &'a mut Vec<bool>,
}

impl Worker for MetaWorker<'_> {
    fn prepare(&mut self) {
        self.gen.round(&mut self.ops);
    }

    fn run(&mut self, fs: &LibFs, ctx: &mut Ctx) -> (u64, u64, u64) {
        let names = &self.layout.churn[self.thread];
        let mk = &self.layout.mk[self.thread];
        for &op in &self.ops {
            match op {
                MetaOp::Create(j) => {
                    let path = &names[j as usize].1;
                    let state = &mut self.churn[j as usize];
                    ctx.timed(Op::Create, |c| {
                        if let Some(fd) = c.call(fs, Vfs::Create, |fs| fs.create(path)) {
                            *state = Churn::Created;
                            c.call(fs, Vfs::Close, |fs| fs.close(fd));
                        }
                    });
                }
                MetaOp::Stat(j) => {
                    let path = &names[j as usize].1;
                    ctx.timed(Op::Stat, |c| {
                        let md = c.call(fs, Vfs::Stat, |fs| fs.stat(path));
                        c.check(
                            md.is_some_and(|m| m.file_type == FileType::Regular && m.size == 0),
                            || format!("stat {path}: not an empty regular file"),
                        );
                    });
                }
                MetaOp::Open(i) => {
                    let path = &self.layout.resident[i as usize];
                    ctx.timed(Op::Open, |c| {
                        if let Some(fd) =
                            c.call(fs, Vfs::Open, |fs| fs.open(path, OpenFlags::read()))
                        {
                            c.call(fs, Vfs::Close, |fs| fs.close(fd));
                        }
                    });
                }
                MetaOp::Rename(j) => {
                    let (_, from, _, to) = &names[j as usize];
                    let state = &mut self.churn[j as usize];
                    ctx.timed(Op::Rename, |c| {
                        if c.call(fs, Vfs::Rename, |fs| fs.rename(from, to)).is_some() {
                            *state = Churn::Renamed;
                        }
                    });
                }
                MetaOp::Unlink(j) => {
                    let path = &names[j as usize].3;
                    let state = &mut self.churn[j as usize];
                    ctx.timed(Op::Unlink, |c| {
                        if c.call(fs, Vfs::Unlink, |fs| fs.unlink(path)).is_some() {
                            *state = Churn::Absent;
                        }
                    });
                }
                MetaOp::Readdir(d) => {
                    let dir = &self.layout.leaves()[d as usize];
                    let at_least = self.residents_per_leaf;
                    ctx.timed(Op::Readdir, |c| {
                        let got = c.call(fs, Vfs::Readdir, |fs| fs.readdir(dir));
                        c.check(got.is_some_and(|g| g.len() >= at_least), || {
                            format!("readdir {dir}: fewer than the {at_least} residents")
                        });
                    });
                }
                MetaOp::Mkdir(m) => {
                    let path = &mk[m as usize].1;
                    let present = &mut self.mk[m as usize];
                    ctx.timed(Op::MkRmdir, |c| {
                        if c.call(fs, Vfs::Mkdir, |fs| fs.mkdir(path)).is_some() {
                            *present = true;
                        }
                    });
                }
                MetaOp::Rmdir(m) => {
                    let path = &mk[m as usize].1;
                    let present = &mut self.mk[m as usize];
                    ctx.timed(Op::MkRmdir, |c| {
                        if c.call(fs, Vfs::Rmdir, |fs| fs.rmdir(path)).is_some() {
                            *present = false;
                        }
                    });
                }
            }
        }
        (self.ops.len() as u64, 0, 0)
    }
}

/// Run a metadata section (`section` 0: private, 1: shared).
pub fn run_meta(cx: Slice, spec: &MetaSpec, state: &mut MetaState, section: u64) -> SectionOut {
    let Slice {
        env,
        warm,
        seed,
        index: slice,
        traced,
    } = cx;
    let per_thread_ops = round_len(spec) * (spec.rounds + WARMUP_ROUNDS) * 2;
    let ctxs = (0..spec.threads)
        .map(|t| Ctx::new(t, capacity(per_thread_ops, traced.is_some()), traced))
        .collect();
    let MetaState { layout, churn, mk } = state;
    let mut workers: Vec<MetaWorker> = churn
        .iter_mut()
        .zip(mk.iter_mut())
        .enumerate()
        .map(|(t, (churn, mk))| MetaWorker {
            layout,
            residents_per_leaf: spec.residents / spec.dirs,
            thread: t,
            gen: MetaGen::new(spec, seed, section, slice, t),
            ops: Vec::with_capacity(round_len(spec)),
            churn,
            mk,
        })
        .collect();
    drive(env, warm, spec.rounds, &mut workers, ctxs)
}

// ---------------------------------------------------------------------
// Data section
// ---------------------------------------------------------------------

struct DataWorker<'a> {
    spec: &'a DataSpec,
    thread: usize,
    gen: DataGen,
    ops: Vec<DataOp>,
    fd_shared: Fd,
    fd_private: Fd,
    fd_log: Fd,
    /// This thread's view of the shared file: exact for its own stripes.
    shared: BlockModel,
    private: &'a mut BlockModel,
    log: &'a mut LogModel,
    stamp: u32,
    block: Vec<u8>,
    record: Vec<u8>,
    big: Vec<u8>,
}

impl Worker for DataWorker<'_> {
    fn prepare(&mut self) {
        self.gen.round(&mut self.ops);
    }

    fn run(&mut self, fs: &LibFs, ctx: &mut Ctx) -> (u64, u64, u64) {
        let (mut bytes, mut written, mut extra_ops) = (0u64, 0u64, 0u64);
        for i in 0..self.ops.len() {
            match self.ops[i] {
                DataOp::Read4k(b) => {
                    let (fd, buf) = (self.fd_shared, &mut self.block);
                    let off = u64::from(b) * BLOCK as u64;
                    let mut got = None;
                    ctx.timed(Op::Read4k, |c| {
                        got = c.call(fs, Vfs::Read, |fs| fs.read_at(fd, buf, off));
                    });
                    ctx.check(got == Some(BLOCK) && content::position_of(buf) == b, || {
                        format!("read4k block {b}: {got:?} bytes or another block's content")
                    });
                    if stripe_owner(b as usize) == self.thread {
                        let have = content::stamp_of(buf, self.shared.file, b);
                        let want = self.shared.stamps[b as usize];
                        ctx.check(have == Some(want), || {
                            format!("read4k block {b}: holds write {have:?}, wrote {want}")
                        });
                    }
                    bytes += BLOCK as u64;
                }
                DataOp::Write4k(b) => {
                    self.stamp += 1;
                    let (fd, buf, stamp) = (self.fd_shared, &mut self.block, self.stamp);
                    content::fill(buf, self.shared.file, b, stamp);
                    let off = u64::from(b) * BLOCK as u64;
                    let model = &mut self.shared.stamps[b as usize];
                    ctx.timed(Op::Write4k, |c| {
                        let n = c.call(fs, Vfs::Write, |fs| fs.write_at(fd, buf, off));
                        if n == Some(BLOCK) {
                            *model = stamp;
                        } else if n.is_some() {
                            c.fail(format!("write4k block {b}: short write {n:?}"));
                        }
                    });
                    bytes += BLOCK as u64;
                    written += BLOCK as u64;
                }
                DataOp::Append => {
                    let (fd, rec, log) = (self.fd_log, &mut self.record, &mut *self.log);
                    content::fill(rec, log.file, log.len, log.next);
                    let want_off = log.bytes();
                    ctx.timed(Op::AppendFsync, |c| {
                        let off = c.call(fs, Vfs::Append, |fs| fs.append(fd, rec));
                        let synced = c.call(fs, Vfs::Fsync, |fs| fs.fsync(fd));
                        if off == Some(want_off) && synced.is_some() {
                            log.len += 1;
                            log.next += 1;
                        } else if off.is_some() {
                            c.fail(format!("append landed at {off:?}, expected {want_off}"));
                        }
                    });
                    bytes += APPEND_BYTES as u64;
                    written += APPEND_BYTES as u64;
                    if log.len as usize >= self.spec.truncate_every {
                        ctx.timed(Op::Truncate, |c| {
                            if c.call(fs, Vfs::Truncate, |fs| fs.truncate(fd, 0)).is_some() {
                                log.len = 0;
                            }
                        });
                        extra_ops += 1;
                    }
                }
                DataOp::Write1m(slot) => {
                    self.stamp += 1;
                    let (fd, buf, stamp) = (self.fd_private, &mut self.big, self.stamp);
                    let first = slot * (MIB / BLOCK) as u32;
                    content::fill_blocks(buf, self.private.file, first, stamp);
                    let model = &mut self.private.stamps[first as usize..][..MIB / BLOCK];
                    ctx.timed(Op::Write1m, |c| {
                        let n = c.call(fs, Vfs::Write, |fs| {
                            fs.write_at(fd, buf, u64::from(slot) * MIB as u64)
                        });
                        if n == Some(MIB) {
                            model.fill(stamp);
                        } else if n.is_some() {
                            c.fail(format!("write1m slot {slot}: short write {n:?}"));
                        }
                    });
                    bytes += MIB as u64;
                    written += MIB as u64;
                }
                DataOp::Read1m(chunk) => {
                    let (fd, buf) = (self.fd_shared, &mut self.big);
                    let mut got = None;
                    ctx.timed(Op::Read1m, |c| {
                        got = c.call(fs, Vfs::Read, |fs| {
                            fs.read_at(fd, buf, u64::from(chunk) * MIB as u64)
                        });
                    });
                    let first = chunk * (MIB / BLOCK) as u32;
                    ctx.check(
                        got == Some(MIB) && content::position_of(buf) == first,
                        || {
                            format!(
                                "read1m chunk {chunk}: {got:?} bytes or another chunk's content"
                            )
                        },
                    );
                    bytes += MIB as u64;
                }
            }
        }
        (self.ops.len() as u64 + extra_ops, bytes, written)
    }
}

/// Run the data section.
pub fn run_data(cx: Slice, spec: &DataSpec, state: &mut env::DataState) -> SectionOut {
    let Slice {
        env,
        warm,
        seed,
        index: slice,
        traced,
    } = cx;
    let per_thread_ops = (spec.round_ops + 8) * (spec.rounds + WARMUP_ROUNDS) * 2;
    let mut setup = Ctx::scratch();
    let fs = &*env.a;
    let mut open = |path: &str, flags: OpenFlags| {
        setup
            .call(fs, Vfs::Open, |fs| fs.open(path, flags))
            .unwrap_or(Fd(u64::MAX))
    };
    let shared_model = state.shared.clone();
    let mut workers: Vec<DataWorker> = state
        .private
        .iter_mut()
        .zip(state.logs.iter_mut())
        .enumerate()
        .map(|(t, (private, log))| DataWorker {
            spec,
            thread: t,
            gen: DataGen::new(spec, seed, slice, t),
            ops: Vec::with_capacity(spec.round_ops + 8),
            fd_shared: open(env::DATA_SHARED, OpenFlags::rw()),
            fd_private: open(&env::private_path(t), OpenFlags::rw()),
            fd_log: open(&env::log_path(t), OpenFlags::rw()),
            shared: shared_model.clone(),
            stamp: (slice as u32) << 24,
            private,
            log,
            block: vec![0; BLOCK],
            record: vec![0; APPEND_BYTES],
            big: vec![0; MIB],
        })
        .collect();
    let ctxs = (0..2)
        .map(|t| Ctx::new(t, capacity(per_thread_ops, traced.is_some()), traced))
        .collect();
    let mut out = drive(env, warm, spec.rounds, &mut workers, ctxs);
    for w in &workers {
        for fd in [w.fd_shared, w.fd_private, w.fd_log] {
            setup.call(fs, Vfs::Close, |fs| fs.close(fd));
        }
    }
    // each thread's view of the shared file is exact for its own stripes
    let views: Vec<BlockModel> = workers.into_iter().map(|w| w.shared).collect();
    for (b, stamp) in state.shared.stamps.iter_mut().enumerate() {
        *stamp = views[stripe_owner(b)].stamps[b];
    }
    out.ctx.absorb(&mut setup);
    out
}

// ---------------------------------------------------------------------
// Hand-off section
// ---------------------------------------------------------------------

/// Unrecorded turns on the 100-resident directory before the section
/// starts to record.
const WARMUP_TURNS: usize = 20;

/// One turn on a shared directory outside a trust group: the first create
/// has to take the root and the directory over from the other
/// application; three more creates and four unlinks run in ownership; then
/// both are released.
fn dir_turn(ctx: &mut Ctx, fs: &LibFs, dir: &SharedDir, first: Op, release: bool) -> u64 {
    let path = |k: usize| format!("{}/n{k}", dir.path);
    for k in 0..4 {
        let p = path(k);
        ctx.timed(if k == 0 { first } else { Op::Create }, |c| {
            if let Some(fd) = c.call(fs, Vfs::Create, |fs| fs.create(&p)) {
                c.call(fs, Vfs::Close, |fs| fs.close(fd));
            }
        });
    }
    for k in 0..4 {
        let p = path(k);
        ctx.timed(Op::Unlink, |c| {
            c.call(fs, Vfs::Unlink, |fs| fs.unlink(&p));
        });
    }
    if !release {
        return 8;
    }
    ctx.timed(Op::Release, |c| {
        c.call(fs, Vfs::ReleasePath, |fs| fs.release_path(&dir.path));
    });
    ctx.timed(Op::ReleaseRoot, |c| {
        c.call(fs, Vfs::ReleasePath, |fs| fs.release_path("/"));
    });
    10
}

/// Run the hand-off section: applications `b` and `a` alternate turns.
pub fn run_handoff(
    cx: Slice,
    spec: &HandoffSpec,
    state: &mut env::HandoffState,
    last: bool,
) -> SectionOut {
    let Slice {
        env, seed, traced, ..
    } = cx;
    let first = cx.index == 0;
    let mut turns = WARMUP_TURNS + spec.turns_dir100;
    let mut writes = 0;
    if last {
        turns += spec.turns_dir1000 + spec.turns_trust;
        writes = (spec.writes_per_turn + 2) * spec.turns_file;
    }
    let per_op = 10 * turns + writes + 64;
    let mut ctx = Ctx::new(0, capacity(per_op, traced.is_some()), traced);
    let mut gen = HandoffGen::new(spec, seed);
    let apps: [&LibFs; 2] = [&env.b, &env.a];
    let read = || Counters::read(&env.kernel, &env.apps());
    let epoch = Instant::now();
    let mut rounds = Vec::new();
    let mut all_ops = 0u64;
    let mut user_written = 0u64;

    // `a` holds the root (it ran the other sections) and, having made it,
    // the shared directory until the first slice; it lets go so that `b`
    // can take the first turn.
    let a = &*env.a;
    if first {
        ctx.call(a, Vfs::ReleasePath, |fs| {
            fs.release_path(&state.dir100.path)
        });
    }
    ctx.call(a, Vfs::ReleasePath, |fs| fs.release_path("/"));
    for turn in 0..WARMUP_TURNS {
        dir_turn(&mut ctx, apps[turn % 2], &state.dir100, Op::Handoff, true);
    }
    ctx.forget_samples();
    let before = read();

    let span = ctx.phase_open("phase.dir100", true);
    for chunk in 0..spec.turns_dir100.div_ceil(HANDOFF_ROUND_TURNS) {
        ctx.round_begin();
        let start = epoch.elapsed().as_nanos() as u64;
        let mut ops = 0;
        let lo = chunk * HANDOFF_ROUND_TURNS;
        for turn in lo..(lo + HANDOFF_ROUND_TURNS).min(spec.turns_dir100) {
            ops += dir_turn(&mut ctx, apps[turn % 2], &state.dir100, Op::Handoff, true);
        }
        rounds.push(Round {
            wall_ns: epoch.elapsed().as_nanos() as u64 - start,
            ops,
            bytes: 0,
        });
        ctx.round_end(true);
        all_ops += ops;
    }
    ctx.phase_close(span);

    let section = |ctx: Ctx, rounds: Vec<Round>, all_ops: u64, user_written: u64| {
        let all = read().since(&before);
        SectionOut {
            ctx,
            others: Vec::new(),
            a: rounds,
            b: Vec::new(),
            all,
            all_ops,
            user_bytes_written: user_written,
        }
    };
    if !last {
        return section(ctx, rounds, all_ops, user_written);
    }

    // The other sub-phases run once. `a` made their directories and file
    // too, and still holds them.
    for p in [
        state.dir1000.path.as_str(),
        state.trust.path.as_str(),
        env::HANDOFF_FILE,
        "/",
    ] {
        ctx.call(a, Vfs::ReleasePath, |fs| fs.release_path(p));
    }
    let span = ctx.phase_open("phase.dir1000", true);
    for turn in 0..spec.turns_dir1000 {
        all_ops += dir_turn(
            &mut ctx,
            apps[turn % 2],
            &state.dir1000,
            Op::Handoff1000,
            true,
        );
    }
    ctx.phase_close(span);

    // Each application keeps one descriptor across its turns; a write
    // through it after the release takes the file over again.
    let span = ctx.phase_open("phase.file", true);
    let mut fds = [None, None];
    let mut buf = vec![0u8; BLOCK];
    let mut stamp = 0u32;
    for turn in 0..spec.turns_file {
        let fs = apps[turn % 2];
        if fds[turn % 2].is_none() {
            fds[turn % 2] = ctx.call(fs, Vfs::Open, |fs| {
                fs.open(env::HANDOFF_FILE, OpenFlags::rw())
            });
        }
        let Some(fd) = fds[turn % 2] else { continue };
        for k in 0..spec.writes_per_turn {
            let b = gen.block();
            stamp += 1;
            content::fill(&mut buf, state.file.file, b as u32, stamp);
            let model = &mut state.file.stamps[b];
            ctx.timed(if k == 0 { Op::HandoffFile } else { Op::Write4k }, |c| {
                let n = c.call(fs, Vfs::Write, |fs| {
                    fs.write_at(fd, &buf, (b * BLOCK) as u64)
                });
                if n == Some(BLOCK) {
                    *model = stamp;
                } else if n.is_some() {
                    c.fail(format!("shared write block {b}: short write {n:?}"));
                }
            });
            user_written += BLOCK as u64;
        }
        ctx.timed(Op::Release, |c| {
            c.call(fs, Vfs::ReleasePath, |fs| {
                fs.release_path(env::HANDOFF_FILE)
            });
        });
        ctx.timed(Op::ReleaseRoot, |c| {
            c.call(fs, Vfs::ReleasePath, |fs| fs.release_path("/"));
        });
        all_ops += spec.writes_per_turn as u64 + 2;
    }
    for (fs, fd) in apps.iter().zip(fds) {
        if let Some(fd) = fd {
            ctx.call(fs, Vfs::Close, |fs| fs.close(fd));
        }
    }
    ctx.phase_close(span);

    // Inside a trust group both applications own the directory at once:
    // no releases, and the kernel skips verification.
    let span = ctx.phase_open("phase.trust", true);
    if let Err(e) = env.kernel.create_trust_group(&[env.a.id(), env.b.id()]) {
        ctx.fail(format!("create_trust_group: {e}"));
    }
    let probe = format!("{}/{}", state.trust.path, state.trust.residents[0]);
    for fs in apps {
        ctx.call(fs, Vfs::Stat, |fs| fs.stat(&probe));
    }
    for turn in 0..spec.turns_trust {
        all_ops += dir_turn(
            &mut ctx,
            apps[turn % 2],
            &state.trust,
            Op::TrustCreate,
            false,
        );
    }
    ctx.phase_close(span);
    section(ctx, rounds, all_ops, user_written)
}

/// Run one slice: its share of all four sections, in their fixed order.
pub fn run_slice(cx: Slice, plan: &Plan, state: &mut State) -> [SectionOut; 4] {
    [
        run_meta(cx, &plan.meta_private, &mut state.meta_private, 0),
        run_meta(cx, &plan.meta_shared, &mut state.meta_shared, 1),
        run_data(cx, &plan.data, &mut state.data),
        run_handoff(
            cx,
            &plan.handoff,
            &mut state.handoff,
            cx.index + 1 == plan.slices,
        ),
    ]
}
