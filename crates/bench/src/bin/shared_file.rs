//! Shared-file data-path sweep: range locks + extent tree under an
//! FxMark-DWOM-shaped load (not a paper figure).
//!
//! Phase A drives 8 threads of disjoint 4 KiB overwrites to one shared
//! file over ArckFS mounted on an Optane-latency device, and measures the
//! one input the projection needs organically: the cost of one
//! interval-table acquire/release — the only cross-thread serialization a
//! disjoint ranged writer keeps. An fio-style sequential shared-file row
//! and the FxMark DWAL row ride along for context, as does the per-op
//! lock-acquisition accounting from [`vfs::FsStats`].
//!
//! Phase B feeds the measured single-thread cost and serial fraction
//! through [`model::OpProfile::ranged_write`] and prints the 8- and
//! 48-thread projection, labelled `modelled` (the host may be a single
//! core, so the wall-clock rows cannot show parallel speedup themselves).
//! The asserts are the deterministic counts: every write crosses the
//! interval table at least once, and none takes a whole-object lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arckfs::range_lock::{Range, RangeLockTable};
use arckfs::{Config, LibFs};
use bench::record_json;
use fxmark::data::{run_data_workload, DataWorkload};
use model::OpProfile;
use pmem::{LatencyModel, PmemDevice};
use vfs::{FileSystem, FsExt, OpenFlags};

const BLOCK: usize = 4096;
const FILE_SIZE: u64 = 4 << 20;
const THREADS: usize = 8;
const DEV: usize = 64 << 20;

fn iters() -> u64 {
    std::env::var("BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000)
}

fn mount() -> Arc<LibFs> {
    let device = PmemDevice::with_latency(DEV, LatencyModel::optane());
    let (_k, fs) = arckfs::new_fs_on(device, Config::arckfs_plus()).expect("mount");
    fs
}

/// Pre-size the one shared file every writer targets.
fn setup(fs: &LibFs) {
    fs.mkdir_all("/shared").expect("mkdir");
    let block = vec![0x6Du8; BLOCK];
    let fd = fs
        .open("/shared/file", OpenFlags::rw().create())
        .expect("open");
    for off in (0..FILE_SIZE).step_by(BLOCK) {
        fs.write_at(fd, &block, off).expect("prefill");
    }
    fs.close(fd).expect("close");
}

struct Row {
    label: &'static str,
    threads: usize,
    ops_per_sec: f64,
    t1_us: f64,
    file_lock_acqs_per_op: f64,
    range_lock_acqs_per_op: f64,
}

/// One DWOM-shaped cell: `threads` writers, each overwriting its own
/// disjoint stripe of the shared file, `n` ops per thread. `seq` picks
/// the fio-style sequential pattern instead of FxMark's random-in-stripe.
fn run_cell(label: &'static str, threads: usize, n: u64, seq: bool) -> Row {
    let fs = mount();
    setup(&fs);
    let total = Arc::new(AtomicU64::new(0));
    let blocks = FILE_SIZE / BLOCK as u64;
    let stripe = (blocks / threads as u64).max(1);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let fs = Arc::clone(&fs);
            let total = Arc::clone(&total);
            s.spawn(move || {
                let fd = fs
                    .open("/shared/file", OpenFlags::rw())
                    .expect("open shared");
                let buf = vec![t as u8 + 1; BLOCK];
                let base = (t * stripe) % blocks;
                // Deterministic in-stripe walk (an LCG stands in for
                // FxMark's rng: the object of measurement is the locking,
                // not the distribution).
                let mut x = 0x9e37u64.wrapping_add(t);
                for i in 0..n {
                    let b = if seq {
                        base + i % stripe
                    } else {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        base + (x >> 33) % stripe
                    };
                    fs.write_at(fd, &buf, b * BLOCK as u64).expect("write");
                }
                fs.close(fd).expect("close");
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();
    let ops = total.load(Ordering::Relaxed).max(1);

    // Single-thread latency on a fresh mount: the model's T1. The per-op
    // lock counts come from this loop too — they are deterministic, and
    // here no open/close path resolution is mixed into them.
    let fs1 = mount();
    setup(&fs1);
    let fd = fs1.open("/shared/file", OpenFlags::rw()).expect("open");
    let buf = vec![0x42u8; BLOCK];
    fs1.reset_stats();
    let t1_start = Instant::now();
    for i in 0..n {
        fs1.write_at(fd, &buf, (i % blocks) * BLOCK as u64)
            .expect("write");
    }
    let t1_us = t1_start.elapsed().as_secs_f64() * 1e6 / n as f64;
    let stats = fs1.stats();
    fs1.close(fd).expect("close");

    Row {
        label,
        threads,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64(),
        t1_us,
        file_lock_acqs_per_op: stats.shared_lock_acqs as f64 / n as f64,
        range_lock_acqs_per_op: stats.range_lock_acqs as f64 / n as f64,
    }
}

/// Measured cost of one interval-table acquire/release: the serialized
/// section a disjoint ranged writer keeps.
fn range_table_us(n: u64) -> f64 {
    let table = RangeLockTable::default();
    let start = Instant::now();
    for i in 0..n {
        let g = table.acquire(Range::of((i % 64) * BLOCK as u64, BLOCK), true);
        drop(g);
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}

fn main() {
    obs::enable();
    let n = iters();
    println!("# Shared-file data-path sweep ({n} ops/thread x {BLOCK} B, one shared file)");
    println!(
        "\n{:>14} {:>7} {:>12} {:>9} {:>12} {:>13}",
        "row", "threads", "ops/s", "t1 µs", "filelocks/op", "rangelocks/op"
    );

    let mut rows = Vec::new();
    for &(label, seq) in &[("DWOM", false), ("fio-seq-shared", true)] {
        let row = run_cell(label, THREADS, n, seq);
        println!(
            "{:>14} {:>7} {:>12.0} {:>9.2} {:>12.3} {:>13.3}",
            row.label,
            row.threads,
            row.ops_per_sec,
            row.t1_us,
            row.file_lock_acqs_per_op,
            row.range_lock_acqs_per_op,
        );
        record_json(
            "shared_file",
            serde_json::json!({
                "row": row.label, "threads": row.threads,
                "ops_per_sec": row.ops_per_sec, "t1_us": row.t1_us,
                "file_lock_acqs_per_op": row.file_lock_acqs_per_op,
                "range_lock_acqs_per_op": row.range_lock_acqs_per_op,
            }),
        );
        rows.push(row);
    }

    // FxMark's DWAL row (private-file appends) for context.
    let r = run_data_workload(mount(), DataWorkload::DWAL, 2, Duration::from_millis(120))
        .expect("DWAL");
    println!(
        "{:>14} {:>7} {:>12.0} {:>9} {:>12} {:>13}",
        "DWAL",
        r.threads,
        r.ops as f64 / r.elapsed.as_secs_f64(),
        "-",
        "-",
        "-",
    );
    record_json(
        "shared_file",
        serde_json::json!({
            "row": "DWAL", "threads": r.threads,
            "ops_per_sec": r.ops as f64 / r.elapsed.as_secs_f64(),
        }),
    );

    let dwom = &rows[0];

    // ---- Phase B: measured serial fraction into the USL projection -------
    let lock_us = range_table_us(n * 4);
    let sigma = (lock_us / dwom.t1_us).clamp(0.0, 1.0);
    println!("\nmeasured serial window: interval table {lock_us:.3} µs (σ {sigma:.4})");

    let profile = OpProfile::ranged_write(dwom.t1_us, THREADS, 1.0, sigma);
    let x8 = profile.throughput(THREADS);
    let x48 = profile.throughput(48);
    println!(
        "modelled DWOM: {:.0} kops/s at {THREADS} threads, {:.0} kops/s at 48 threads",
        x8 / 1e3,
        x48 / 1e3,
    );

    let shared_block = serde_json::json!({
        "block": BLOCK, "threads": THREADS,
        "t1_us": dwom.t1_us, "range_table_us": lock_us, "sigma": sigma,
        "modelled_x8": x8, "modelled_x48": x48,
        "file_lock_acqs_per_op": dwom.file_lock_acqs_per_op,
        "range_lock_acqs_per_op": dwom.range_lock_acqs_per_op,
    });
    record_json(
        "shared_file",
        serde_json::json!({"phase": "model", "summary": shared_block.clone()}),
    );
    let _ = obs::report().write_json_ext("shared_file", &[("shared_file", shared_block)]);

    for row in &rows {
        assert!(
            row.range_lock_acqs_per_op >= 1.0,
            "{}: every write must cross the interval table, got {}/op",
            row.label,
            row.range_lock_acqs_per_op
        );
        assert!(
            row.file_lock_acqs_per_op == 0.0,
            "{}: overwrites of a prefilled file take no whole-object lock, got {}/op",
            row.label,
            row.file_lock_acqs_per_op
        );
    }
}
