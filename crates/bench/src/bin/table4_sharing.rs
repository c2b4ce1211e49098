//! Table 4 — the cost of sharing files and directories between
//! applications, and how trust groups recover it (§5.4).
//!
//! Two applications (two LibFSes on one TRIO kernel) alternately update a
//! shared inode. Outside a trust group every handoff releases the inode,
//! which unmaps it and runs integrity verification — for large files the
//! verifier walks the whole block map, so the cost grows with file size.
//! Inside a trust group the verification is skipped. NOVA (a kernel file
//! system) shares natively: its cost is the ordinary syscall path.
//!
//! Paper's Table 4 (file sizes scaled here — the emulated device stands in
//! for 6 Optane DIMMs; see DESIGN.md):
//!
//! | row | NOVA | ArckFS+ | ArckFS+-trust-group |
//! |---|---|---|---|
//! | 4KB-write 2MB | 1.18 GiB/s | 2.07 GiB/s | 2.01 GiB/s |
//! | 4KB-write 1GB | 1.16 GiB/s | 0.41 GiB/s | 1.80 GiB/s |
//! | Create 10 | 6.38 µs | 10.18 µs | 0.76 µs |
//! | Create 100 | 6.08 µs | 10.64 µs | 2.25 µs |

use std::sync::Arc;
use std::time::{Duration, Instant};

use arckfs::{Config, LibFs};
use bench::record_json;
use kernelfs::{KernelFs, Profile};
use pmem::{LatencyModel, PmemDevice};
use trio::{Geometry, Kernel, KernelConfig};
use vfs::{FileSystem, FsExt, OpenFlags};

const DEV: usize = 768 << 20;
const SMALL_FILE: u64 = 2 << 20;
/// The paper's 1 GB row, scaled to the emulated device.
const LARGE_FILE: u64 = 256 << 20;

fn iters() -> u64 {
    std::env::var("BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400)
}

/// Two ArckFS+ apps on one kernel; returns (app1, app2, kernel).
fn two_apps(trust_group: bool) -> (Arc<LibFs>, Arc<LibFs>, Arc<Kernel>) {
    let device = PmemDevice::with_latency(DEV, LatencyModel::optane());
    let geom = Geometry::for_device(DEV);
    let kernel = Kernel::format(
        device,
        geom,
        KernelConfig::arckfs_plus().with_syscall_cost(Duration::from_nanos(400)),
    )
    .expect("format");
    let a = LibFs::mount(kernel.clone(), Config::arckfs_plus(), 0).expect("mount a");
    let b = LibFs::mount(kernel.clone(), Config::arckfs_plus(), 0).expect("mount b");
    if trust_group {
        kernel
            .create_trust_group(&[a.id(), b.id()])
            .expect("trust group");
    }
    (a, b, kernel)
}

/// Writes per ownership transfer outside a trust group (the experiment
/// batches a few writes per acquisition, as TRIO's amortized-verification
/// design intends).
const WRITES_PER_TRANSFER: u64 = 32;

/// Shared 4K writes on ArckFS+. Outside a trust group, ownership of the
/// file (and the root, which path resolution needs) ping-pongs between the
/// applications every [`WRITES_PER_TRANSFER`] writes — each handoff unmaps,
/// verifies, remaps (cost ∝ file size) and rebuilds auxiliary state.
/// Inside a trust group both applications simply co-own the inode.
fn arck_shared_write(file_size: u64, trust_group: bool) -> f64 {
    let (a, b, _k) = two_apps(trust_group);
    // App A creates and sizes the file.
    a.write_file("/shared.bin", &[0u8; 4096]).expect("create");
    let fda = a.open("/shared.bin", OpenFlags::rw()).expect("open a");
    let block = vec![0x11u8; 4096];
    for off in (0..file_size).step_by(1 << 20) {
        a.write_at(fda, &vec![0u8; 1 << 20], off).expect("prefill");
    }
    a.release_path("/shared.bin").expect("release file");
    a.release_path("/").expect("release root");

    let apps: [&Arc<LibFs>; 2] = [&a, &b];
    let fdb = {
        let fd = b.open("/shared.bin", OpenFlags::rw()).expect("open b");
        if !trust_group {
            b.release_path("/shared.bin").expect("hand back");
            b.release_path("/").expect("hand back root");
        }
        fd
    };
    if trust_group {
        // Re-enter co-ownership for A as well; nobody releases below.
        let _ = a.open("/shared.bin", OpenFlags::rw()).expect("co-own a");
    }
    let fds = [fda, fdb];

    let n = iters() * WRITES_PER_TRANSFER;
    let blocks = file_size / 4096;
    let start = Instant::now();
    for batch in 0..iters() {
        let which = (batch % 2) as usize;
        let app = apps[which];
        let fd = fds[which];
        for j in 0..WRITES_PER_TRANSFER {
            let i = batch * WRITES_PER_TRANSFER + j;
            let off = (i.wrapping_mul(2654435761) % blocks) * 4096;
            app.write_at(fd, &block, off).expect("shared write");
        }
        if !trust_group {
            app.release_path("/shared.bin").expect("release file");
            app.release_path("/").expect("release root");
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (n * 4096) as f64 / (1u64 << 30) as f64 / secs
}

/// Shared 4K writes on NOVA (native kernel-FS sharing).
fn nova_shared_write(file_size: u64) -> f64 {
    let device = PmemDevice::with_latency(DEV, LatencyModel::optane());
    let fs = KernelFs::format(device, Profile::nova());
    let fd = fs.open("/shared.bin", OpenFlags::rw().create()).expect("create");
    for off in (0..file_size).step_by(1 << 20) {
        fs.write_at(fd, &vec![0u8; 1 << 20], off).expect("prefill");
    }
    let block = vec![0x11u8; 4096];
    let n = iters();
    let blocks = file_size / 4096;
    let start = Instant::now();
    for i in 0..n {
        let off = (i.wrapping_mul(2654435761) % blocks) * 4096;
        fs.write_at(fd, &block, off).expect("write");
    }
    let secs = start.elapsed().as_secs_f64();
    (n * 4096) as f64 / (1u64 << 30) as f64 / secs
}

/// Alternating creates in a shared directory of `nfiles` files (ArckFS+).
/// Returns µs per create. Outside a trust group every create transfers
/// directory ownership (unmap + verify the `nfiles`-entry log + patch the
/// index with the slot the other application changed); inside one, both
/// applications co-own the directory.
fn arck_shared_create(nfiles: usize, trust_group: bool) -> f64 {
    let (a, b, _k) = two_apps(trust_group);
    a.mkdir("/share").expect("mkdir");
    for i in 0..nfiles {
        a.create(&format!("/share/seed{i}"))
            .map(|fd| a.close(fd))
            .expect("seed")
            .expect("close");
    }
    a.release_path("/share").expect("release dir");
    a.release_path("/").expect("release root");
    if trust_group {
        // Both enter co-ownership once; the loop does no handoffs.
        a.stat("/share/seed0").expect("co-own a");
        b.stat("/share/seed0").expect("co-own b");
    }

    let apps: [&Arc<LibFs>; 2] = [&a, &b];
    let n = iters();
    let start = Instant::now();
    for i in 0..n {
        let app = apps[(i % 2) as usize];
        let path = format!("/share/c{i}");
        let fd = app.create(&path).expect("create");
        app.close(fd).expect("close");
        // Keep the directory size stable so verification cost reflects
        // the `nfiles` population.
        app.unlink(&path).expect("unlink");
        if !trust_group {
            app.release_path("/share").expect("release dir");
            app.release_path("/").expect("release root");
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// Alternating creates on NOVA.
fn nova_shared_create(nfiles: usize) -> f64 {
    let device = PmemDevice::with_latency(DEV, LatencyModel::optane());
    let fs = KernelFs::format(device, Profile::nova());
    fs.mkdir("/share").expect("mkdir");
    for i in 0..nfiles {
        fs.create(&format!("/share/seed{i}"))
            .map(|fd| fs.close(fd))
            .expect("seed")
            .expect("close");
    }
    let n = iters();
    let start = Instant::now();
    for i in 0..n {
        let path = format!("/share/c{i}");
        let fd = fs.create(&path).expect("create");
        fs.close(fd).expect("close");
        fs.unlink(&path).expect("unlink");
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}

fn main() {
    println!("# Table 4: sharing cost (two applications alternating on a shared inode)");
    println!("# file rows: GiB/s (higher better); create rows: µs/op incl. handoff (lower better)");
    println!(
        "# the paper's 1GB row is scaled to {} MiB on the emulated device",
        LARGE_FILE >> 20
    );
    println!(
        "{:<22} {:>10} {:>10} {:>14}",
        "row", "nova", "arckfs+", "arckfs+-trust"
    );

    let rows: Vec<(String, f64, f64, f64, bool)> = vec![
        (
            format!("4KB-write {}MB", SMALL_FILE >> 20),
            nova_shared_write(SMALL_FILE),
            arck_shared_write(SMALL_FILE, false),
            arck_shared_write(SMALL_FILE, true),
            true,
        ),
        (
            format!("4KB-write {}MB", LARGE_FILE >> 20),
            nova_shared_write(LARGE_FILE),
            arck_shared_write(LARGE_FILE, false),
            arck_shared_write(LARGE_FILE, true),
            true,
        ),
        (
            "Create 10".to_string(),
            nova_shared_create(10),
            arck_shared_create(10, false),
            arck_shared_create(10, true),
            false,
        ),
        (
            "Create 100".to_string(),
            nova_shared_create(100),
            arck_shared_create(100, false),
            arck_shared_create(100, true),
            false,
        ),
    ];

    for (name, nova, plus, trust, is_bw) in rows {
        let unit = if is_bw { "GiB/s" } else { "µs" };
        println!("{name:<22} {nova:>9.2} {plus:>9.2} {trust:>13.2}  ({unit})");
        record_json(
            "table4",
            serde_json::json!({
                "row": name, "nova": nova, "arckfs_plus": plus,
                "trust_group": trust, "unit": unit,
            }),
        );
    }
    println!("\n# paper: 2MB 1.18/2.07/2.01 GiB/s; 1GB 1.16/0.41/1.80 GiB/s;");
    println!("#        Create10 6.38/10.18/0.76 µs; Create100 6.08/10.64/2.25 µs");
}
