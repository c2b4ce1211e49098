//! Unit-cost probes: direct, timed calls to each layer's public functions
//! on a device without injected latency, so that what is measured is the
//! layer's own software cost. Kernel crossings keep their fixed injected
//! cost, as in every run.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use crate::adapter::{
    self, DelegationPool, FileSystem, Kernel, Latency, Mapping, MappingRegistry, PmemDevice, Range,
    RangeLockTable, Rcu, ShardedPool, LINE, PAGE,
};
use crate::keepwarm::KeepWarm;
use crate::plan::MIB;
use crate::stats::median;

const BATCHES: usize = 9;

/// How much the probes repeat: every nominal count is divided by this
/// (1 for a comparable run, more for the quick smoke run).
#[derive(Debug, Clone, Copy)]
struct Effort(usize);

impl Effort {
    fn of(self, nominal: usize) -> usize {
        (nominal / self.0).max(8)
    }
}

/// Median over [`BATCHES`] batches of the mean nanoseconds per call of `f`
/// in a batch of `iters` calls.
fn per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        batches.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&batches)
}

/// As [`per_call`], with two threads calling `f(thread, i)` at once; a
/// batch counts the slower thread.
fn per_call_2t(warm: &KeepWarm, iters: usize, f: impl Fn(usize, usize) + Sync) -> f64 {
    warm.pause();
    let barrier = Barrier::new(2);
    let run = |t: usize| {
        adapter::pin_thread_home(t);
        let mut batches = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            barrier.wait();
            let start = Instant::now();
            for i in 0..iters {
                f(t, i);
            }
            batches.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        batches
    };
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| run(1));
        (run(0), other.join().expect("probe thread panicked"))
    });
    warm.resume();
    let slower: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
    median(&slower)
}

/// Median of `n` values of `sample`, which times one call itself and may
/// undo it untimed.
fn median_of(n: usize, mut sample: impl FnMut() -> f64) -> f64 {
    let values: Vec<f64> = (0..n).map(|_| sample()).collect();
    median(&values)
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// `dev` is a bare device nothing else uses; `kernel` sits on another.
fn pmem_probes(
    out: &mut BTreeMap<&'static str, f64>,
    e: Effort,
    warm: &KeepWarm,
    dev: &Arc<PmemDevice>,
    kernel: &Kernel,
) {
    let base = 0u64;
    let window = MIB;
    let map = Mapping::new(
        dev.clone(),
        Arc::new(MappingRegistry::new()),
        base,
        2 * window,
    );
    let line = |i: usize| ((i * LINE) % window) as u64;
    out.insert(
        "pmem.map_read_u64_ns",
        per_call(e.of(200_000), |i| {
            std::hint::black_box(map.read_u64(line(i)).expect("probe read"));
        }),
    );
    out.insert(
        "pmem.map_write_u64_ns",
        per_call(e.of(200_000), |i| {
            map.write_u64(line(i), i as u64).expect("probe write");
        }),
    );
    out.insert(
        "pmem.map_read_u64_2t_ns",
        per_call_2t(warm, e.of(200_000), |t, i| {
            // each thread stays in its own half of the window
            let off = (t * window) as u64 + line(i);
            std::hint::black_box(map.read_u64(off).expect("probe read"));
        }),
    );
    let mut page = vec![0u8; PAGE];
    let at = |i: usize| base + ((i * PAGE) % window) as u64;
    out.insert(
        "pmem.dev_read_4k_ns",
        per_call(e.of(20_000), |i| {
            dev.read(at(i), &mut page).expect("probe read");
        }),
    );
    out.insert(
        "pmem.dev_write_4k_ns",
        per_call(e.of(20_000), |i| {
            dev.write(at(i), &page).expect("probe write");
        }),
    );
    out.insert(
        "pmem.dev_ntstore_4k_ns",
        per_call(e.of(20_000), |i| {
            dev.ntstore(at(i), &page).expect("probe ntstore");
        }),
    );
    out.insert(
        "pmem.clwb_ns",
        per_call(e.of(200_000), |i| {
            dev.clwb(base + line(i), LINE).expect("probe clwb");
        }),
    );
    out.insert("pmem.sfence_ns", per_call(e.of(200_000), |_| dev.sfence()));
    let cl = [7u8; LINE];
    out.insert(
        "pmem.persist_64b_ns",
        per_call(e.of(100_000), |i| {
            dev.write(base + line(i), &cl).expect("probe write");
            dev.persist(base + line(i), LINE).expect("probe persist");
        }),
    );
    out.insert(
        "pmem.alloc_page_ns",
        per_call(e.of(50_000), |_| {
            adapter::alloc_free_page(kernel).expect("probe page alloc");
        }),
    );
}

/// Make `/p100`, `/p1000` (that many empty files) and a 16 MiB `/pfile`
/// through a LibFS, unmount it so the kernel owns everything again, and
/// return the three inode numbers.
fn trio_fixture(kernel: &Arc<Kernel>) -> Result<[u64; 3], String> {
    let fs = adapter::mount(kernel).map_err(|e| e.to_string())?;
    let err = |e: adapter::FsError| e.to_string();
    let mut inos = [0u64; 3];
    for (slot, (dir, n)) in [("/p100", 100), ("/p1000", 1000)].into_iter().enumerate() {
        fs.mkdir(dir).map_err(err)?;
        for i in 0..n {
            let fd = fs.create(&format!("{dir}/f{i}")).map_err(err)?;
            fs.close(fd).map_err(err)?;
        }
        inos[slot] = fs.stat(dir).map_err(err)?.ino;
    }
    let fd = fs.create("/pfile").map_err(err)?;
    let chunk = vec![5u8; MIB];
    for m in 0..16 {
        fs.write_at(fd, &chunk, (m * MIB) as u64).map_err(err)?;
    }
    fs.close(fd).map_err(err)?;
    inos[2] = fs.stat("/pfile").map_err(err)?.ino;
    fs.unmount().map_err(err)?;
    Ok(inos)
}

fn trio_probes(
    out: &mut BTreeMap<&'static str, f64>,
    e: Effort,
    kernel: &Arc<Kernel>,
) -> Result<(), String> {
    let [dir100, dir1000, file16m] = trio_fixture(kernel)?;
    let cfg = adapter::libfs_config();
    let (id, _map) = kernel.register_libfs(0);
    out.insert(
        "trio.grant_pages_ns",
        median_of(e.of(400), || {
            let t = Instant::now();
            let pages = kernel
                .grant_pages(id, cfg.page_batch)
                .expect("probe grant_pages");
            let ns = ns_since(t);
            kernel.return_pages(id, &pages).expect("probe return_pages");
            ns
        }),
    );
    out.insert(
        "trio.grant_inodes_ns",
        median_of(e.of(400), || {
            let t = Instant::now();
            let inos = kernel
                .grant_inodes(id, cfg.ino_batch)
                .expect("probe grant_inodes");
            let ns = ns_since(t);
            kernel.return_inodes(id, inos);
            ns
        }),
    );
    for (ino, n, acquire, release) in [
        (
            dir100,
            e.of(400),
            Some("trio.acquire_dir100_ns"),
            "trio.release_dir100_ns",
        ),
        (
            dir1000,
            e.of(100),
            Some("trio.acquire_dir1000_ns"),
            "trio.release_dir1000_ns",
        ),
        (file16m, e.of(100), None, "trio.release_file16m_ns"),
    ] {
        let mut acq = Vec::with_capacity(n);
        let mut rel = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Instant::now();
            kernel
                .acquire(id, ino)
                .map_err(|e| format!("probe acquire: {e}"))?;
            acq.push(ns_since(t));
            let t = Instant::now();
            kernel
                .release(id, ino)
                .map_err(|e| format!("probe release: {e}"))?;
            rel.push(ns_since(t));
        }
        if let Some(name) = acquire {
            out.insert(name, median(&acq));
        }
        out.insert(release, median(&rel));
    }
    kernel.acquire(id, dir100).map_err(|e| e.to_string())?;
    out.insert(
        "trio.commit_dir100_ns",
        median_of(e.of(400), || {
            let t = Instant::now();
            kernel.commit(id, dir100).expect("probe commit");
            ns_since(t)
        }),
    );
    kernel.release(id, dir100).map_err(|e| e.to_string())?;
    kernel.unregister_libfs(id).map_err(|e| e.to_string())
}

fn arckfs_probes(out: &mut BTreeMap<&'static str, f64>, e: Effort, dev: &Arc<PmemDevice>) {
    let table = RangeLockTable::default();
    out.insert(
        "arckfs.range_lock.acquire_ns",
        per_call(e.of(200_000), |i| {
            let guard = table.acquire(Range::of(((i % 256) * PAGE) as u64, PAGE), true);
            drop(guard);
        }),
    );
    let cfg = adapter::libfs_config();
    let pool: ShardedPool<u64> =
        ShardedPool::new(adapter::alloc_shards(), cfg.pool_low, cfg.pool_high);
    pool.fill(0..256u64);
    out.insert(
        "arckfs.pool.take_put_ns",
        per_call(e.of(200_000), |_| {
            let item = pool.take().expect("probe pool is stocked");
            let surplus = pool.put(item);
            debug_assert!(surplus.is_empty());
        }),
    );
    let deleg =
        DelegationPool::with_opts(cfg.delegation_threads, cfg.deleg_sq_depth, cfg.deleg_batch);
    let map = Mapping::new(dev.clone(), Arc::new(MappingRegistry::new()), 0, 4 * MIB);
    let data = vec![9u8; MIB];
    out.insert(
        "arckfs.delegate.submit_wait_1m_ns",
        per_call(e.of(40), |i| {
            let ticket = deleg
                .submit(&map, ((i % 4) * MIB) as u64, &data)
                .expect("probe submit");
            ticket.wait().expect("probe delegated write");
        }),
    );
}

fn rcu_probes(out: &mut BTreeMap<&'static str, f64>, e: Effort, warm: &KeepWarm) {
    let rcu = Rcu::new();
    out.insert(
        "rcu.read_guard_ns",
        per_call(e.of(500_000), |_| {
            let guard = rcu.read_guard();
            std::hint::black_box(&guard);
        }),
    );
    out.insert(
        "rcu.read_guard_2t_ns",
        per_call_2t(warm, e.of(500_000), |_, _| {
            let guard = rcu.read_guard();
            std::hint::black_box(&guard);
        }),
    );
    out.insert(
        "rcu.synchronize_ns",
        median_of(e.of(2000), || {
            let t = Instant::now();
            rcu.defer(|| ());
            rcu.synchronize();
            ns_since(t)
        }),
    );
    // every 64th defer runs a collection; the mean spreads it over all
    out.insert(
        "rcu.defer_collect_ns",
        per_call(e.of(64 * 1000), |_| rcu.defer(|| ())),
    );
    rcu.synchronize();
}

fn obs_probes(out: &mut BTreeMap<&'static str, f64>, e: Effort, dev: &PmemDevice) {
    adapter::obs_set(false);
    out.insert(
        "obs.disabled_span_ns",
        per_call(e.of(1_000_000), |_| adapter::obs_span(dev)),
    );
    adapter::obs_set(true);
    out.insert(
        "obs.enabled_span_ns",
        per_call(e.of(200_000), |_| adapter::obs_span(dev)),
    );
    adapter::obs_set(false);
}

/// Run every probe; returns metric name → nanoseconds. `divisor` shortens
/// every probe by that factor (1 for a comparable run).
pub fn run(divisor: usize) -> Result<BTreeMap<&'static str, f64>, String> {
    let e = Effort(divisor.max(1));
    let mut out = BTreeMap::new();
    let bare = adapter::device(8 * MIB, Latency::Disabled);
    let kernel = adapter::format(adapter::device(256 * MIB, Latency::Disabled))
        .map_err(|e| e.to_string())?;
    adapter::pin_thread_home(0);
    let warm = KeepWarm::start();
    pmem_probes(&mut out, e, &warm, &bare, &kernel);
    trio_probes(&mut out, e, &kernel)?;
    arckfs_probes(&mut out, e, &bare);
    rcu_probes(&mut out, e, &warm);
    obs_probes(&mut out, e, &bare);
    Ok(out)
}
