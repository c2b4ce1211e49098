//! The durability check: on a device that records which stores have been
//! flushed and fenced, run a small mix, drop everything unflushed mid-run,
//! recover from what is left, and require every acknowledged metadata
//! operation and every fsynced append to be there.
//!
//! Killing the process would leave the emulated device's memory intact, so
//! the check itself discards the unflushed stores (`persistent_image`).

use crate::adapter::{self, FileSystem, OpenFlags};
use crate::content;
use crate::exec::{Ctx, Vfs};
use crate::plan::{Rng, APPEND_BYTES, BLOCK};

const LOG_FILE: u32 = 77;
const BLOCK_FILE: u32 = 78;

/// What was acknowledged before the cut.
#[derive(Debug, Default)]
struct Acked {
    /// Names that exist (created or renamed-to, not unlinked).
    live: Vec<String>,
    /// Names that were unlinked or renamed away.
    gone: Vec<String>,
    appends: u32,
    blocks: Vec<u32>,
}

/// Run the check with `ops` operations before the cut; the file system is
/// still mounted and nothing is synced when the cut is taken. Calls and
/// failed checks are counted in `ctx`.
pub fn run(seed: u64, ops: usize, ctx: &mut Ctx) {
    if let Err(e) = run_inner(seed, ops, ctx) {
        ctx.fail(e);
    }
}

fn run_inner(seed: u64, ops: usize, ctx: &mut Ctx) -> Result<(), String> {
    let dev = adapter::tracked_device(16 << 20);
    let kernel = adapter::format(dev.clone()).map_err(|e| format!("format: {e}"))?;
    let fs = adapter::mount(&kernel).map_err(|e| format!("mount: {e}"))?;
    let fs = &*fs;
    let mut rng = Rng::new(seed, 0xd07a);
    let mut acked = Acked {
        blocks: vec![0; 16],
        ..Acked::default()
    };
    ctx.call(fs, Vfs::Mkdir, |fs| fs.mkdir("/d"));
    ctx.call(fs, Vfs::Mkdir, |fs| fs.mkdir("/e"));
    let log = ctx
        .call(fs, Vfs::Open, |fs| {
            fs.open("/log", OpenFlags::rw().create())
        })
        .ok_or("no log")?;
    let blocks = ctx
        .call(fs, Vfs::Open, |fs| {
            fs.open("/blocks", OpenFlags::rw().create())
        })
        .ok_or("no block file")?;
    let mut buf = vec![0u8; BLOCK];
    for b in 0..acked.blocks.len() as u32 {
        content::fill(&mut buf, BLOCK_FILE, b, 0);
        ctx.call(fs, Vfs::Write, |fs| {
            fs.write_at(blocks, &buf, u64::from(b) * BLOCK as u64)
        });
    }
    let mut rec = vec![0u8; APPEND_BYTES];
    for n in 0..ops {
        match rng.below(5) {
            0 => {
                let name = format!("/d/f{n}");
                if let Some(fd) = ctx.call(fs, Vfs::Create, |fs| fs.create(&name)) {
                    ctx.call(fs, Vfs::Close, |fs| fs.close(fd));
                    acked.live.push(name);
                }
            }
            1 if !acked.live.is_empty() => {
                let name = acked.live.swap_remove(rng.below(acked.live.len()));
                if ctx.call(fs, Vfs::Unlink, |fs| fs.unlink(&name)).is_some() {
                    acked.gone.push(name);
                }
            }
            2 if !acked.live.is_empty() => {
                let from = acked.live.swap_remove(rng.below(acked.live.len()));
                let to = format!("/e/r{n}");
                if ctx
                    .call(fs, Vfs::Rename, |fs| fs.rename(&from, &to))
                    .is_some()
                {
                    acked.gone.push(from);
                    acked.live.push(to);
                }
            }
            3 => {
                let b = rng.below(acked.blocks.len()) as u32;
                let stamp = n as u32 + 1;
                content::fill(&mut buf, BLOCK_FILE, b, stamp);
                let wrote = ctx.call(fs, Vfs::Write, |fs| {
                    fs.write_at(blocks, &buf, u64::from(b) * BLOCK as u64)
                });
                if wrote == Some(BLOCK) {
                    acked.blocks[b as usize] = stamp;
                }
            }
            _ => {
                let i = acked.appends;
                content::fill(&mut rec, LOG_FILE, i, i);
                let ok = ctx
                    .call(fs, Vfs::Append, |fs| fs.append(log, &rec))
                    .is_some()
                    && ctx.call(fs, Vfs::Fsync, |fs| fs.fsync(log)).is_some();
                if ok {
                    acked.appends += 1;
                }
            }
        }
    }
    // the cut: only what is durable now survives
    let crashed = adapter::crash_image_device(&dev)?;
    let before = acked;

    // Recover from the durable bytes alone and look for everything that
    // had been acknowledged before the cut.
    let kernel =
        adapter::recover(crashed.clone()).map_err(|e| format!("recover after cut: {e}"))?;
    let fs = adapter::mount(&kernel).map_err(|e| format!("mount after cut: {e}"))?;
    let fs = &*fs;
    for name in &before.live {
        ctx.call(fs, Vfs::Stat, |fs| fs.stat(name));
    }
    for name in &before.gone {
        ctx.attempted += 1;
        let r = fs.stat(name);
        ctx.check(r.is_err(), || {
            format!("{name} was unlinked before the cut but is back")
        });
    }
    let log = ctx
        .call(fs, Vfs::Open, |fs| fs.open("/log", OpenFlags::read()))
        .ok_or("log lost")?;
    let mut got = vec![0u8; before.appends as usize * APPEND_BYTES];
    let n = ctx.call(fs, Vfs::Read, |fs| fs.read_at(log, &mut got, 0));
    ctx.check(n == Some(got.len()), || {
        format!("log holds {n:?} bytes, {} were fsynced", got.len())
    });
    for (i, r) in got.chunks_exact(APPEND_BYTES).enumerate() {
        let have = content::stamp_of(r, LOG_FILE, i as u32);
        ctx.check(have == Some(i as u32), || {
            format!("fsynced record {i} reads {have:?}")
        });
    }
    let blocks = ctx
        .call(fs, Vfs::Open, |fs| fs.open("/blocks", OpenFlags::read()))
        .ok_or("block file lost")?;
    for (b, &stamp) in before.blocks.iter().enumerate() {
        let n = ctx.call(fs, Vfs::Read, |fs| {
            fs.read_at(blocks, &mut buf, (b * BLOCK) as u64)
        });
        let have = content::stamp_of(&buf, BLOCK_FILE, b as u32);
        ctx.check(n == Some(BLOCK) && have == Some(stamp), || {
            format!("block {b} reads write {have:?}, write {stamp} was acknowledged")
        });
    }
    if let Err(e) = adapter::fsck(&crashed) {
        ctx.fail(format!("fsck after cut: {e}"));
    }
    Ok(())
}
