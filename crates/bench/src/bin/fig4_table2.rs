//! Figure 4 + Table 2 — FxMark metadata scalability.
//!
//! For every FxMark workload and file system this binary reports:
//!
//! * **measured** throughput at the host's thread counts (`BENCH_THREADS`,
//!   default 1,2,4 — real threads through every synchronization path), and
//! * **modelled** throughput at the paper's 48 threads, from the USL curve
//!   calibrated with the measured single-thread cost and per-op profile
//!   (see `crates/model` and DESIGN.md's 48-core substitution note).
//!
//! The final block prints Table 2: ArckFS+ relative to ArckFS at 48
//! threads per workload (paper: geomean 97.23%, worst MRDL 75.45%, MWUM
//! above 100% due to a cache-alignment accident).

use std::sync::Arc;

use bench::{bench_duration, bench_threads, calibrate, make_fs, per_op, record_json, FsKind};
use fxmark::{run_workload, RunMode, Workload};
use vfs::FileSystem;

const DEV: usize = 512 << 20;

fn main() {
    let threads = bench_threads();
    let duration = bench_duration();
    let kinds = FsKind::paper_set();
    let workloads = Workload::all();

    println!("# Figure 4: FxMark metadata scalability");
    println!(
        "# measured at threads {threads:?} (duration {duration:?} per cell); modelled at 48 threads"
    );

    // (workload, fs) -> modelled 48-thread throughput.
    let mut modelled48: Vec<Vec<f64>> = vec![vec![0.0; kinds.len()]; workloads.len()];

    for (wi, &workload) in workloads.iter().enumerate() {
        println!("\n## {workload} — {}", workload.description());
        print!("{:<14}", "fs");
        for t in &threads {
            print!(" {:>10}", format!("t={t}"));
        }
        println!(" {:>12}", "model@48");
        for (ki, &kind) in kinds.iter().enumerate() {
            let mut t1_us = 0.0;
            let mut profile_stats = None;
            print!("{:<14}", kind.label());
            for &t in &threads {
                // Fresh FS per cell keeps the fileset size comparable.
                let fs: Arc<dyn FileSystem> = make_fs(kind, DEV, true);
                let before = fs.stats();
                let r = run_workload(fs.clone(), workload, t, RunMode::Duration(duration))
                    .unwrap_or_else(|e| panic!("{} {workload} t={t}: {e}", kind.label()));
                // Workers are joined inside run_workload, so the delta
                // covers every op the result counts.
                let after = fs.stats();
                print!(" {:>10.0}", r.ops_per_sec());
                record_json(
                    "fig4",
                    serde_json::json!({
                        "workload": workload.name(), "fs": kind.label(),
                        "threads": t, "ops_per_sec": r.ops_per_sec(),
                    }),
                );
                if t == 1 {
                    t1_us = 1e6 / r.ops_per_sec().max(1e-9);
                    profile_stats = Some(per_op(&after, &before, r.ops.max(1)));
                }
            }
            let stats = profile_stats.expect("t=1 measured");
            let profile = calibrate(kind, workload, t1_us, stats);
            let m48 = profile.throughput(48);
            modelled48[wi][ki] = m48;
            println!(" {:>12.0}", m48);
            record_json(
                "fig4_model",
                serde_json::json!({
                    "workload": workload.name(), "fs": kind.label(),
                    "t1_us": t1_us, "sigma": profile.sigma, "kappa": profile.kappa,
                    "model_48": m48,
                }),
            );
        }
    }

    // Table 2: ArckFS+ / ArckFS at 48 threads.
    let plus = kinds
        .iter()
        .position(|k| *k == FsKind::ArckFsPlus)
        .expect("plus in set");
    let arck = kinds
        .iter()
        .position(|k| *k == FsKind::ArckFs)
        .expect("arckfs in set");
    println!("\n# Table 2: ArckFS+ relative to ArckFS at 48 threads (modelled)");
    print!("workload ");
    for w in &workloads {
        print!(" {:>8}", w.name());
    }
    println!();
    print!("relative ");
    let mut geo = 1.0f64;
    let mut metadata_count = 0;
    for (wi, w) in workloads.iter().enumerate() {
        let r = modelled48[wi][plus] / modelled48[wi][arck].max(1e-9);
        print!(" {:>7.1}%", 100.0 * r);
        record_json(
            "table2",
            serde_json::json!({"workload": w.name(), "relative_48": r}),
        );
        if *w != Workload::DWTL {
            geo *= r;
            metadata_count += 1;
        }
    }
    println!();
    let geomean = geo.powf(1.0 / metadata_count as f64);
    println!(
        "\n# geometric mean over metadata workloads: {:.2}% (paper: 97.23%)",
        100.0 * geomean
    );
    record_json("table2", serde_json::json!({"geomean": geomean}));
}
