//! The system under test (one device, one kernel, two applications) and
//! the driver's own model of what it should contain.

use std::sync::Arc;
use std::time::Instant;

use crate::adapter::{self, FileSystem, FileType, Kernel, Latency, LibFs, OpenFlags, PmemDevice};
use crate::content::{self, BlockModel, LogModel};
use crate::exec::{Ctx, Vfs};
use crate::plan::{MetaLayout, MetaSpec, Plan, APPEND_BYTES, BLOCK, MIB};

/// One device with its kernel and the two applications mounted on it.
/// Application `a` runs every section; `b` only takes part in hand-offs.
pub struct Env {
    pub dev: Arc<PmemDevice>,
    pub kernel: Arc<Kernel>,
    pub a: Arc<LibFs>,
    pub b: Arc<LibFs>,
}

/// Where a churn name of a metadata section currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Churn {
    Absent,
    Created,
    Renamed,
}

/// The model of one metadata section: which of its names exist.
#[derive(Debug, Clone)]
pub struct MetaState {
    pub layout: MetaLayout,
    /// Per thread, per churn name.
    pub churn: Vec<Vec<Churn>>,
    /// Per thread, per directory of the round.
    pub mk: Vec<Vec<bool>>,
}

impl MetaState {
    fn new(spec: &MetaSpec, seed: u64) -> MetaState {
        let layout = MetaLayout::new(spec, seed);
        MetaState {
            churn: vec![vec![Churn::Absent; spec.batch]; spec.threads],
            mk: vec![vec![false; spec.mkdirs]; spec.threads],
            layout,
        }
    }
}

/// File ids inside block and record content.
pub mod file_id {
    pub const SHARED: u32 = 1;
    pub const PRIVATE: u32 = 2; // + thread
    pub const LOG: u32 = 4; // + thread
    pub const HANDOFF: u32 = 6;
}

pub const DATA_ROOT: &str = "/ds";
pub const DATA_SHARED: &str = "/ds/shared";

pub fn private_path(t: usize) -> String {
    format!("{DATA_ROOT}/priv{t}")
}

pub fn log_path(t: usize) -> String {
    format!("{DATA_ROOT}/log{t}")
}

/// The model of the data section.
#[derive(Debug, Clone)]
pub struct DataState {
    pub shared: BlockModel,
    pub private: [BlockModel; 2],
    pub logs: [LogModel; 2],
}

/// One shared directory of the hand-off section and its resident names.
#[derive(Debug, Clone)]
pub struct SharedDir {
    pub path: String,
    pub residents: Vec<String>,
}

pub const HANDOFF_FILE: &str = "/shfile";

/// The model of the hand-off section. Names made during a turn are gone
/// by its end, so between turns the directories hold their residents.
#[derive(Debug, Clone)]
pub struct HandoffState {
    pub dir100: SharedDir,
    pub dir1000: SharedDir,
    pub trust: SharedDir,
    pub file: BlockModel,
}

/// One directory entry the model expects.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    pub name: String,
    pub is_dir: bool,
    pub size: u64,
}

/// Everything the driver knows the file system holds.
#[derive(Debug, Clone)]
pub struct State {
    pub meta_private: MetaState,
    pub meta_shared: MetaState,
    pub data: DataState,
    pub handoff: HandoffState,
}

fn shared_dir(path: &str, residents: usize, tag: u64) -> SharedDir {
    SharedDir {
        path: path.to_string(),
        residents: (0..residents).map(|i| format!("s{tag}_{i}")).collect(),
    }
}

impl State {
    pub fn new(plan: &Plan) -> State {
        let tag = crate::plan::mix(plan.seed ^ 0x5a) % 100_000;
        let blocks = |mib: usize| mib * MIB / BLOCK;
        State {
            meta_private: MetaState::new(&plan.meta_private, plan.seed),
            meta_shared: MetaState::new(&plan.meta_shared, plan.seed),
            data: DataState {
                shared: BlockModel::new(file_id::SHARED, blocks(plan.data.shared_mib)),
                private: [0, 1]
                    .map(|t| BlockModel::new(file_id::PRIVATE + t, blocks(plan.data.private_mib))),
                logs: [0, 1].map(|t| LogModel {
                    file: file_id::LOG + t,
                    ..LogModel::default()
                }),
            },
            handoff: HandoffState {
                dir100: shared_dir("/sh100", 100, tag),
                dir1000: shared_dir("/sh1000", 1000, tag),
                trust: shared_dir("/shtrust", 100, tag),
                file: BlockModel::new(file_id::HANDOFF, blocks(plan.handoff.file_mib)),
            },
        }
    }

    /// Every directory the namespace check lists, with the entries it
    /// must hold, sorted by name.
    pub fn expected_namespace(&self) -> Vec<(String, Vec<Entry>)> {
        use std::collections::BTreeMap;
        let mut dirs: BTreeMap<String, Vec<Entry>> = BTreeMap::new();
        let mut put = |path: &str, is_dir: bool, size: u64| {
            let cut = path.rfind('/').expect("absolute path");
            let parent = if cut == 0 { "/" } else { &path[..cut] };
            dirs.entry(parent.to_string()).or_default().push(Entry {
                name: path[cut + 1..].to_string(),
                is_dir,
                size,
            });
            if is_dir {
                dirs.entry(path.to_string()).or_default();
            }
        };
        for m in [&self.meta_private, &self.meta_shared] {
            for d in &m.layout.tree {
                put(d, true, 0);
            }
            for r in &m.layout.resident {
                put(r, false, 0);
            }
            for (names, states) in m.layout.churn.iter().zip(&m.churn) {
                for ((_, created, _, renamed), state) in names.iter().zip(states) {
                    match state {
                        Churn::Absent => {}
                        Churn::Created => put(created, false, 0),
                        Churn::Renamed => put(renamed, false, 0),
                    }
                }
            }
            for (names, present) in m.layout.mk.iter().zip(&m.mk) {
                for ((_, path), p) in names.iter().zip(present) {
                    if *p {
                        put(path, true, 0);
                    }
                }
            }
        }
        put(DATA_ROOT, true, 0);
        let d = &self.data;
        put(DATA_SHARED, false, (d.shared.stamps.len() * BLOCK) as u64);
        for t in 0..2 {
            put(
                &private_path(t),
                false,
                (d.private[t].stamps.len() * BLOCK) as u64,
            );
            put(&log_path(t), false, d.logs[t].bytes());
        }
        let h = &self.handoff;
        for sd in [&h.dir100, &h.dir1000, &h.trust] {
            put(&sd.path, true, 0);
            for r in &sd.residents {
                put(&format!("{}/{r}", sd.path), false, 0);
            }
        }
        put(HANDOFF_FILE, false, (h.file.stamps.len() * BLOCK) as u64);
        dirs.into_iter()
            .map(|(d, mut v)| {
                v.sort();
                (d, v)
            })
            .collect()
    }
}

/// Write `blocks` blocks of write 0 to a fresh file at `path`, 1 MiB at a
/// time.
fn prefill(ctx: &mut Ctx, fs: &LibFs, path: &str, file: u32, blocks: usize) {
    let Some(fd) = ctx.call(fs, Vfs::Create, |fs| fs.create(path)) else {
        return;
    };
    let per = MIB / BLOCK;
    let mut buf = vec![0u8; MIB];
    for first in (0..blocks).step_by(per) {
        let n = per.min(blocks - first);
        content::fill_blocks(&mut buf[..n * BLOCK], file, first as u32, 0);
        let off = (first * BLOCK) as u64;
        let wrote = ctx.call(fs, Vfs::Write, |fs| fs.write_at(fd, &buf[..n * BLOCK], off));
        ctx.check(wrote == Some(n * BLOCK), || {
            format!("prefill {path}: short write")
        });
    }
    ctx.call(fs, Vfs::Close, |fs| fs.close(fd));
}

fn create_empty(ctx: &mut Ctx, fs: &LibFs, path: &str) {
    if let Some(fd) = ctx.call(fs, Vfs::Create, |fs| fs.create(path)) {
        ctx.call(fs, Vfs::Close, |fs| fs.close(fd));
    }
}

impl Env {
    /// Allocate the device, format it, mount both applications and create
    /// everything the sections expect to find. This is what `setup_s`
    /// times.
    pub fn setup(
        plan: &Plan,
        state: &State,
        latency: Latency,
        ctx: &mut Ctx,
    ) -> Result<Env, String> {
        let dev = adapter::device(plan.device_mib * MIB, latency);
        let kernel = adapter::format(dev.clone()).map_err(|e| format!("format: {e}"))?;
        let a = adapter::mount(&kernel).map_err(|e| format!("mount a: {e}"))?;
        let b = adapter::mount(&kernel).map_err(|e| format!("mount b: {e}"))?;
        let fs = &*a;
        for m in [&state.meta_private, &state.meta_shared] {
            for d in &m.layout.tree {
                ctx.call(fs, Vfs::Mkdir, |fs| fs.mkdir(d));
            }
            for r in &m.layout.resident {
                create_empty(ctx, fs, r);
            }
        }
        ctx.call(fs, Vfs::Mkdir, |fs| fs.mkdir(DATA_ROOT));
        let d = &state.data;
        prefill(ctx, fs, DATA_SHARED, d.shared.file, d.shared.stamps.len());
        for t in 0..2 {
            prefill(
                ctx,
                fs,
                &private_path(t),
                d.private[t].file,
                d.private[t].stamps.len(),
            );
            create_empty(ctx, fs, &log_path(t));
        }
        let h = &state.handoff;
        for sd in [&h.dir100, &h.dir1000, &h.trust] {
            ctx.call(fs, Vfs::Mkdir, |fs| fs.mkdir(&sd.path));
            for r in &sd.residents {
                create_empty(ctx, fs, &format!("{}/{r}", sd.path));
            }
        }
        prefill(ctx, fs, HANDOFF_FILE, h.file.file, h.file.stamps.len());
        Ok(Env { dev, kernel, a, b })
    }

    /// Both applications, for counter readings.
    pub fn apps(&self) -> [&LibFs; 2] {
        [&self.a, &self.b]
    }
}

/// Times of one unmount → recover → mount cycle, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct RemountMs {
    pub unmount: f64,
    pub recover: f64,
    pub mount: f64,
    /// One `stat` per directory of the sections, through the new mount.
    pub stats: f64,
}

impl RemountMs {
    pub fn total(&self) -> f64 {
        self.unmount + self.recover + self.mount + self.stats
    }
}

/// Unmount both applications, restart the kernel from the device and mount
/// again. The device keeps only what was written to it.
pub fn remount(env: Env, state: &State, ctx: &mut Ctx) -> Result<(Env, RemountMs), String> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let Env { dev, kernel, a, b } = env;
    let t = Instant::now();
    a.unmount().map_err(|e| format!("unmount a: {e}"))?;
    b.unmount().map_err(|e| format!("unmount b: {e}"))?;
    let unmount = ms(t);
    drop((a, b, kernel));
    let t = Instant::now();
    let kernel = adapter::recover(dev.clone()).map_err(|e| format!("recover: {e}"))?;
    let recover = ms(t);
    let t = Instant::now();
    let a = adapter::mount(&kernel).map_err(|e| format!("mount a: {e}"))?;
    let b = adapter::mount(&kernel).map_err(|e| format!("mount b: {e}"))?;
    let mount = ms(t);
    let t = Instant::now();
    for (dir, _) in state.expected_namespace() {
        let md = ctx.call(&a, Vfs::Stat, |fs| fs.stat(&dir));
        ctx.check(
            md.is_some_and(|m| m.file_type == FileType::Directory),
            || format!("after remount {dir} is not a directory"),
        );
    }
    let stats = ms(t);
    Ok((
        Env { dev, kernel, a, b },
        RemountMs {
            unmount,
            recover,
            mount,
            stats,
        },
    ))
}

/// Check one file against its block model: size, then every block holds
/// its last acknowledged write.
fn verify_blocks(ctx: &mut Ctx, fs: &LibFs, path: &str, model: &BlockModel) {
    let Some(fd) = ctx.call(fs, Vfs::Open, |fs| fs.open(path, OpenFlags::read())) else {
        return;
    };
    let per = MIB / BLOCK;
    let mut buf = vec![0u8; MIB];
    let blocks = model.stamps.len();
    for first in (0..blocks).step_by(per) {
        let n = per.min(blocks - first);
        let got = ctx.call(fs, Vfs::Read, |fs| {
            fs.read_at(fd, &mut buf[..n * BLOCK], (first * BLOCK) as u64)
        });
        if got != Some(n * BLOCK) {
            ctx.fail(format!("{path}: short read at block {first}"));
            continue;
        }
        for i in 0..n {
            let b = first + i;
            let have = content::stamp_of(&buf[i * BLOCK..(i + 1) * BLOCK], model.file, b as u32);
            ctx.check(have == Some(model.stamps[b]), || {
                format!(
                    "{path} block {b}: holds write {have:?}, last acknowledged {}",
                    model.stamps[b]
                )
            });
        }
    }
    ctx.call(fs, Vfs::Close, |fs| fs.close(fd));
}

/// Check one append log: its records are exactly the acknowledged appends
/// since the last truncate, in order.
fn verify_log(ctx: &mut Ctx, fs: &LibFs, path: &str, model: &LogModel) {
    let Some(fd) = ctx.call(fs, Vfs::Open, |fs| fs.open(path, OpenFlags::read())) else {
        return;
    };
    let mut buf = vec![0u8; model.bytes() as usize];
    let got = ctx.call(fs, Vfs::Read, |fs| fs.read_at(fd, &mut buf, 0));
    ctx.check(got == Some(buf.len()), || format!("{path}: short read"));
    let base = model.next - model.len;
    for (i, rec) in buf.chunks_exact(APPEND_BYTES).enumerate() {
        let have = content::stamp_of(rec, model.file, i as u32);
        ctx.check(have == Some(base + i as u32), || {
            format!(
                "{path} record {i}: holds append {have:?}, expected {}",
                base + i as u32
            )
        });
    }
    ctx.call(fs, Vfs::Close, |fs| fs.close(fd));
}

/// The output checks on the mounted file system: the namespace equals the
/// model (readdir of every directory, type and size of every entry), every
/// block and log record equals the last acknowledged write, and the kernel
/// saw no verification failure. The caller adds the offline walk (`fsck`).
pub fn verify(env: &Env, state: &State, ctx: &mut Ctx) {
    let fs = &*env.a;
    for (dir, want) in state.expected_namespace() {
        let Some(mut got) = ctx.call(fs, Vfs::Readdir, |fs| fs.readdir(&dir)) else {
            continue;
        };
        got.sort_by(|x, y| x.name.cmp(&y.name));
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.name == w.name && (g.file_type == FileType::Directory) == w.is_dir);
        ctx.check(same, || {
            format!(
                "{dir}: lists {} entries, model has {}",
                got.len(),
                want.len()
            )
        });
        for w in want.iter().filter(|w| !w.is_dir) {
            let path = format!("{}/{}", dir.trim_end_matches('/'), w.name);
            let md = ctx.call(fs, Vfs::Stat, |fs| fs.stat(&path));
            ctx.check(
                md.as_ref()
                    .is_some_and(|m| m.file_type == FileType::Regular && m.size == w.size),
                || format!("{path}: stat {md:?}, model size {}", w.size),
            );
        }
    }
    let d = &state.data;
    verify_blocks(ctx, fs, DATA_SHARED, &d.shared);
    for t in 0..2 {
        verify_blocks(ctx, fs, &private_path(t), &d.private[t]);
        verify_log(ctx, fs, &log_path(t), &d.logs[t]);
    }
    verify_blocks(ctx, fs, HANDOFF_FILE, &state.handoff.file);
    let failures = env.kernel.stats().snapshot().verify_failures;
    ctx.check(failures == 0, || {
        format!("kernel counted {failures} verification failures")
    });
}
