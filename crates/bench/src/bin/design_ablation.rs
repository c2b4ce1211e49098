//! Ablation of ArckFS's §2.2 scalability structures: the multi-tailed
//! directory log ("this design allows parallel directory operations by
//! supporting independent updates to separate logging tails") and the
//! hash-index bucket count. Shared-directory creates (the MWCM shape) run
//! with each structure scaled down, measured and modelled at 48 threads.

use std::sync::Arc;

use arckfs::{Config, LibFs};
use bench::{bench_duration, per_op, record_json};
use fxmark::{run_workload, RunMode, Workload};
use pmem::{LatencyModel, PmemDevice};
use trio::{Geometry, Kernel, KernelConfig};
use vfs::FileSystem;

const DEV: usize = 512 << 20;

fn fs_with(tails: u32, buckets: usize) -> Arc<LibFs> {
    let device = PmemDevice::with_latency(DEV, LatencyModel::optane());
    let geom = Geometry::for_device(DEV);
    let kernel = Kernel::format(
        device,
        geom,
        KernelConfig::arckfs_plus().with_syscall_cost(std::time::Duration::from_nanos(400)),
    )
    .expect("format");
    let mut config = Config::arckfs_plus();
    config.dir_tails = tails;
    config.dir_buckets = buckets;
    LibFs::mount(kernel, config, 0).expect("mount")
}

fn main() {
    let variants = [
        ("tails=4 buckets=128 (default)", 4u32, 128usize),
        ("tails=1 buckets=128", 1, 128),
        ("tails=4 buckets=8", 4, 8),
        ("tails=1 buckets=1", 1, 1),
    ];
    println!("# Design ablation: shared-directory creates (MWCM shape)");
    println!(
        "{:<32} {:>12} {:>12} {:>12}",
        "structure", "t=1 ops/s", "t=4 ops/s", "model@48"
    );
    for (label, tails, buckets) in variants {
        let mut t1_us = 0.0;
        let mut stats1 = None;
        let mut cells = Vec::new();
        for threads in [1usize, 4] {
            let fs: Arc<dyn FileSystem> = fs_with(tails, buckets);
            let before = fs.stats();
            let r = run_workload(
                fs.clone(),
                Workload::MWCM,
                threads,
                RunMode::Duration(bench_duration()),
            )
            .expect("run");
            // Workers are joined inside run_workload, so the delta covers
            // every op the result counts.
            let after = fs.stats();
            cells.push(r.ops_per_sec());
            if threads == 1 {
                t1_us = 1e6 / r.ops_per_sec().max(1e-9);
                stats1 = Some(per_op(&after, &before, r.ops.max(1)));
            }
        }
        // The model's partition count is the ablated structure itself.
        let profile = model::OpProfile::estimate(
            t1_us,
            model::SharingLevel::SharedDir,
            model::LockStructure::Partitioned {
                partitions: buckets.min(128),
                covered_fraction: 0.6,
            },
            stats1.expect("t=1 measured"),
        );
        let m48 = profile.throughput(48);
        println!(
            "{label:<32} {:>12.0} {:>12.0} {:>12.0}",
            cells[0], cells[1], m48
        );
        record_json(
            "design_ablation",
            serde_json::json!({
                "tails": tails, "buckets": buckets,
                "t1": cells[0], "t4": cells[1], "model_48": m48,
            }),
        );
    }
    println!("\n# expected: coarser structures lose little at t=1 but collapse in the");
    println!("# modelled 48-thread column — the multi-tail log and per-bucket locks");
    println!("# are what §2.2 credits for multicore scalability.");
}
