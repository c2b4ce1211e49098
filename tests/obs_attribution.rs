//! Operation-level attribution through the obs layer.
//!
//! The headline check: the §4.2 patch adds **exactly one** store fence to
//! every file creation, and the obs attribution tables make that directly
//! readable as a `sfences/op` difference of 1.0 on the `create` row —
//! device-wide totals could never say which operation gained the fence.

use std::sync::{Mutex, MutexGuard};

use arckfs_repro::obs;
use arckfs_repro::{
    arckfs,
    vfs::{FileSystem, FsExt},
};

/// The obs enable flag and tables are process-global, and the test harness
/// runs this file's tests on parallel threads: one test's `enabled_scope`
/// exit or `reset` would disable or wipe another's spans, and any test's
/// operations would land in another's rows. Every test holds this lock.
static OBS: Mutex<()> = Mutex::new(());

fn obs_exclusive() -> MutexGuard<'static, ()> {
    OBS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `n` creates under `config` and return the obs `create` row.
fn create_row(config: arckfs::Config, n: u64) -> obs::KindReport {
    let (_kernel, fs) = arckfs::new_fs(64 << 20, config).expect("format");
    fs.mkdir("/d").expect("mkdir");
    obs::reset();
    for i in 0..n {
        let fd = fs.create(&format!("/d/f{i}")).expect("create");
        fs.close(fd).expect("close");
    }
    let report = obs::report();
    report
        .kind(obs::OpKind::Create)
        .expect("create spans recorded")
        .clone()
}

#[test]
fn fence_fix_adds_exactly_one_sfence_per_create() {
    let _obs = obs_exclusive();
    const N: u64 = 64;
    let (off, on) = obs::enabled_scope(|| {
        let off = create_row(arckfs::Config::arckfs_plus().with_fix("4.2", false), N);
        let on = create_row(arckfs::Config::arckfs_plus(), N);
        (off, on)
    });
    obs::reset();

    assert_eq!(off.ops, N);
    assert_eq!(on.ops, N);
    // Identical runs except the fix: the per-op fence counts differ by
    // exactly one (integer totals over the same op count).
    assert_eq!(
        on.totals.sfences,
        off.totals.sfences + N,
        "§4.2 must cost exactly one extra sfence per create \
         (off: {}/op, on: {}/op)",
        off.sfences_per_op(),
        on.sfences_per_op()
    );
    assert!((on.sfences_per_op() - off.sfences_per_op() - 1.0).abs() < 1e-9);
    // Everything else about the operation is unchanged by the patch.
    assert_eq!(on.totals.clwb, off.totals.clwb);
    assert_eq!(on.totals.bytes_written, off.totals.bytes_written);
    // And the spans measured real latencies for every operation.
    assert_eq!(on.latency.count(), N);
    assert!(on.latency.max() > 0);
}

/// The ISSUE 6 accounting fix, observed at the FS level: `delegated_bytes`
/// counts a chunk when its write *completes*, not when it is submitted, so
/// a successful delegated write is attributed exactly once and the ring
/// counters surface coherently through [`vfs::FsStats`].
#[test]
fn delegated_bytes_attributed_only_on_completion() {
    let _obs = obs_exclusive();
    let mut cfg = arckfs::Config::arckfs_plus();
    cfg.delegation_threads = 2;
    cfg.delegation_min = 8192;
    let (_kernel, fs) = arckfs::new_fs(64 << 20, cfg).expect("format");
    fs.mkdir("/d").expect("mkdir");

    let payload = vec![0x5au8; 40 * 1024]; // 10 pages, one ring chunk each
    fs.write_file("/d/big", &payload).expect("delegated write");
    assert_eq!(
        fs.delegated_bytes(),
        payload.len() as u64,
        "a completed delegated write is attributed exactly once"
    );

    let st = fs.stats();
    assert_eq!(st.deleg_bytes, payload.len() as u64);
    assert_eq!(st.deleg_enqueued, 10, "one SQ entry per 4 KiB page");
    assert!(
        (1..=st.deleg_enqueued).contains(&st.deleg_batch_fences),
        "drain batches amortize the fence: {} fences over {} chunks",
        st.deleg_batch_fences,
        st.deleg_enqueued
    );
    assert_eq!(
        st.deleg_polls + st.deleg_parks,
        10,
        "every ticket wait resolves by exactly one poll or park"
    );

    // A sub-threshold write stays inline and claims nothing.
    fs.write_file("/d/small", &[0x11u8; 512]).expect("inline write");
    assert_eq!(fs.delegated_bytes(), payload.len() as u64);
    assert_eq!(fs.stats().deleg_enqueued, 10);
}

#[test]
fn report_json_exposes_attribution() {
    let _obs = obs_exclusive();
    const N: u64 = 16;
    let row = obs::enabled_scope(|| create_row(arckfs::Config::arckfs_plus(), N));
    obs::reset();
    let report = obs::Report { kinds: vec![row] };
    let v = report.to_json("test");
    let ops = v.get("ops").and_then(|o| o.as_array()).expect("ops");
    let create = ops
        .iter()
        .find(|r| r.get("op").and_then(|n| n.as_str()) == Some("create"))
        .expect("create row");
    let sf = create
        .get("per_op")
        .and_then(|p| p.get("sfences"))
        .and_then(|s| s.as_f64())
        .expect("per_op.sfences");
    assert!(sf >= 1.0, "creates issue at least one fence, got {sf}");
    assert!(create
        .get("latency_ns")
        .and_then(|l| l.get("p50"))
        .is_some());
    // The p999 tail must be exported alongside the median.
    assert!(create
        .get("latency_ns")
        .and_then(|l| l.get("p999"))
        .and_then(|p| p.as_u64())
        .is_some());
}
