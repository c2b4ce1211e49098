//! Delegation-ring sweep: submit throughput of the per-core SQ/CQ
//! delegation runtime (not a paper figure).
//!
//! Phase A drives the raw [`arckfs::delegate::DelegationPool`] over a
//! threads × drain-batch grid (rings = submitting threads, 1 KiB ops on
//! an Optane-latency device) in the ring discipline: a bounded window of
//! in-flight tickets reaped with [`arckfs::delegate::Ticket::try_complete`],
//! so submission overlaps the workers' streaming and the drain batch
//! amortizes the post-store `sfence`.
//!
//! The headline asserts that `fences/op` (worker batch fences over
//! enqueued chunks) falls as the drain batch grows — the amortization made
//! directly visible in the obs `delegate` block this bin exports.
//!
//! Phase B feeds the measured single-thread cost through
//! [`model::OpProfile::delegated_data`] so the modelled 48-thread curve
//! covers delegated data ops alongside the metadata projections.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use arckfs::delegate::{DelegSnapshot, DelegationPool, Ticket};
use bench::record_json;
use model::OpProfile;
use pmem::{LatencyModel, Mapping, MappingRegistry, PmemDevice};

const OP_BYTES: usize = 1024;
/// Per-thread slot rotation: each thread cycles its writes over four
/// disjoint 64 KiB windows so the device stays small while offsets vary.
const SLOTS: u64 = 4;
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const BATCH_SWEEP: [usize; 3] = [1, 8, 32];
/// In-flight tickets per thread.
const WINDOW: usize = 32;

fn iters() -> u64 {
    std::env::var("BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

fn mapping_for(threads: usize) -> Mapping {
    let len = threads * SLOTS as usize * OP_BYTES;
    let device = PmemDevice::with_latency(len.max(1 << 20), LatencyModel::optane());
    let dev_len = device.len();
    Mapping::new(device, Arc::new(MappingRegistry::new()), 0, dev_len)
}

struct Cell {
    threads: usize,
    batch: usize,
    ops_per_sec: f64,
    fences_per_op: f64,
    snap: DelegSnapshot,
}

/// One grid cell: `threads` open-loop submitters over `threads` rings.
fn run_cell(threads: usize, batch: usize, n: u64) -> Cell {
    let pool = Arc::new(DelegationPool::with_opts(
        threads,
        DelegationPool::DEFAULT_SQ_DEPTH,
        batch,
    ));
    let mapping = mapping_for(threads);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let pool = Arc::clone(&pool);
            let mapping = mapping.clone();
            s.spawn(move || {
                let payload = vec![t as u8 + 1; OP_BYTES];
                let base = t * SLOTS * OP_BYTES as u64;
                let mut window: VecDeque<Ticket> = VecDeque::new();
                for i in 0..n {
                    let off = base + (i % SLOTS) * OP_BYTES as u64;
                    window.push_back(pool.submit(&mapping, off, &payload).expect("submit"));
                    // Reap whatever has already completed, then bound the
                    // window by blocking on the oldest ticket only.
                    while let Some(front) = window.pop_front() {
                        match front.try_complete() {
                            Ok(r) => r.expect("delegated write"),
                            Err(pending) => {
                                window.push_front(pending);
                                break;
                            }
                        }
                    }
                    if window.len() >= WINDOW {
                        window
                            .pop_front()
                            .expect("bounded window")
                            .wait()
                            .expect("delegated write");
                    }
                }
                for ticket in window {
                    ticket.wait().expect("delegated write");
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let snap = pool.snapshot();
    let ops = threads as u64 * n;
    Cell {
        threads,
        batch,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64(),
        fences_per_op: snap.batch_fences as f64 / snap.enqueued.max(1) as f64,
        snap,
    }
}

fn main() {
    obs::enable();
    let n = iters(); // small ops: protocol overhead is the object of measurement
    println!(
        "# Delegation ring sweep ({n} ops/thread x {OP_BYTES} B, rings = threads, \
         window {WINDOW})"
    );
    println!(
        "\n{:>7} {:>6} {:>12} {:>10} {:>9} {:>7} {:>7} {:>8}",
        "threads", "batch", "ops/s", "fences/op", "occupancy", "polls", "parks", "backpr"
    );

    let mut open8: Vec<Cell> = Vec::new();
    let mut t1_open: Option<Cell> = None;
    let mut cells_json = Vec::new();
    for &threads in &THREAD_SWEEP {
        for &batch in &BATCH_SWEEP {
            let cell = run_cell(threads, batch, n);
            let occupancy = cell.snap.batch_jobs as f64 / cell.snap.batches.max(1) as f64;
            println!(
                "{:>7} {:>6} {:>12.0} {:>10.4} {:>9.2} {:>7} {:>7} {:>8}",
                cell.threads,
                cell.batch,
                cell.ops_per_sec,
                cell.fences_per_op,
                occupancy,
                cell.snap.poll_waits,
                cell.snap.park_waits,
                cell.snap.backpressure,
            );
            let cell_json = serde_json::json!({
                "threads": cell.threads, "batch": cell.batch,
                "ops_per_sec": cell.ops_per_sec,
                "fences_per_op": cell.fences_per_op,
                "batch_occupancy": occupancy,
                "sq_depth_max": cell.snap.sq_depth_max,
                "backpressure": cell.snap.backpressure,
                "polls": cell.snap.poll_waits, "parks": cell.snap.park_waits,
            });
            record_json("delegate_scale", cell_json.clone());
            cells_json.push(cell_json);
            if cell.threads == 8 {
                open8.push(cell);
            } else if cell.threads == 1 && cell.batch == 8 {
                t1_open = Some(cell);
            }
        }
    }

    let narrow8 = open8.first().expect("8-thread batch-1 cell");
    let wide8 = open8.last().expect("8-thread batch-32 cell");
    println!(
        "\nfence amortization: {:.4} fences/op at batch {} -> {:.4} at batch {}",
        narrow8.fences_per_op, narrow8.batch, wide8.fences_per_op, wide8.batch
    );

    // ---- Phase B: 48-thread projection for delegated data ops -----------
    let t1 = t1_open.expect("single-thread open-loop cell");
    let t1_us = 1e6 / t1.ops_per_sec.max(f64::MIN_POSITIVE);
    let chunks_per_op = (OP_BYTES as f64 / DelegationPool::CHUNK as f64).max(1.0);
    let narrow = OpProfile::delegated_data(t1_us, 1, chunks_per_op, 1, 0.3);
    let wide = OpProfile::delegated_data(t1_us, 8, chunks_per_op, 32, 0.3);
    println!(
        "\nUSL delegated data (t1 {:.2} µs): x48 {:.0} kops/s with 1 ring/batch 1 \
         -> {:.0} kops/s with 8 rings/batch 32",
        t1_us,
        narrow.throughput(48) / 1e3,
        wide.throughput(48) / 1e3,
    );
    record_json(
        "delegate_scale",
        serde_json::json!({
            "phase": "model", "t1_us": t1_us,
            "modelled_x48_narrow": narrow.throughput(48),
            "modelled_x48_wide": wide.throughput(48),
        }),
    );

    let delegate_block = serde_json::json!({
        "op_bytes": OP_BYTES,
        "window": WINDOW,
        "fences_per_op_batch1": narrow8.fences_per_op,
        "fences_per_op_batch32": wide8.fences_per_op,
        "modelled_x48_wide": wide.throughput(48),
        "cells": cells_json,
    });
    let _ = obs::report().write_json_ext("delegate_scale", &[("delegate", delegate_block)]);

    assert!(
        wide8.fences_per_op < narrow8.fences_per_op,
        "fences/op must fall as the drain batch grows ({} vs {})",
        wide8.fences_per_op,
        narrow8.fences_per_op
    );
    assert!(
        wide.throughput(48) > narrow.throughput(48),
        "the 48-thread projection must reward rings+batch"
    );
}
