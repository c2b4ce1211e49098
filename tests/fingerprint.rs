//! Crash-state fingerprinting: distinct logical states hash to distinct
//! fingerprints, equal logical states hash equal regardless of physical
//! placement (page layout, allocator shard count), and `crashmc` folds the
//! fingerprints of recovered crash states into its report.

use arckfs::{Config, LibFs};
use pmem::PmemDevice;
use trio::{Geometry, Kernel, KernelConfig};
use vfs::{FileSystem, FsExt};

const DEV: usize = 16 << 20;

fn fresh_fs() -> (std::sync::Arc<PmemDevice>, std::sync::Arc<LibFs>) {
    let device = PmemDevice::new(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    (device, fs)
}

#[test]
fn distinct_states_hash_distinct() {
    // Walk one file system through a series of logically distinct states;
    // every state must produce a fresh fingerprint.
    let (device, fs) = fresh_fs();
    let mut seen = std::collections::BTreeSet::new();
    let mut step = |label: &str| {
        let fp = crashmc::fingerprint(&device).unwrap();
        assert!(seen.insert(fp), "state '{label}' collided with an earlier state");
    };
    step("empty");
    fs.mkdir("/d").unwrap();
    step("mkdir");
    let fp_only_dir = crashmc::fingerprint(&device).unwrap();
    fs.write_file("/d/a", b"alpha").unwrap();
    step("file a");
    fs.write_file("/d/a", b"bravo").unwrap();
    step("content change"); // same path+size, different bytes
    fs.write_file("/d/a", b"bravo+").unwrap();
    step("size change");
    fs.rename("/d/a", "/d/b").unwrap();
    step("rename");
    // Unlinking the file returns the namespace to the post-mkdir state;
    // the fingerprint must collapse back to that earlier value.
    fs.unlink("/d/b").unwrap();
    fs.sync().unwrap();
    assert_eq!(
        crashmc::fingerprint(&device).unwrap(),
        fp_only_dir,
        "recreated logical state must reuse its fingerprint"
    );
}

#[test]
fn equal_states_hash_equal() {
    // Two devices built by the same logical operations — even with
    // different *physical* histories — fingerprint identically. The first
    // device churns through a scratch file before writing the real tree,
    // so its data pages land at different physical addresses.
    let (dev_a, fs_a) = fresh_fs();
    fs_a.write_file("/scratch", &vec![0x5Au8; 64 * 1024]).unwrap();
    fs_a.unlink("/scratch").unwrap();
    fs_a.mkdir("/d").unwrap();
    fs_a.write_file("/d/f", b"same content").unwrap();

    let (dev_b, fs_b) = fresh_fs();
    fs_b.mkdir("/d").unwrap();
    fs_b.write_file("/d/f", b"same content").unwrap();

    fs_a.sync().unwrap();
    fs_b.sync().unwrap();
    assert_eq!(
        crashmc::fingerprint(&dev_a).unwrap(),
        crashmc::fingerprint(&dev_b).unwrap(),
        "physical placement leaked into the fingerprint"
    );
}

#[test]
fn fingerprint_stable_across_shard_counts() {
    // Crash at one allocator shard count, recover at another — the
    // single-shard configuration included: the recovered allocator
    // re-partitions the bitmap into different shard ranges and reclaims
    // leaked grants, but the logical namespace — and therefore the
    // fingerprint — must not move, and the image must stay fsck-clean.
    const SHARDS: [usize; 3] = [1, 2, 8];
    for format_shards in SHARDS {
        let device = PmemDevice::new_tracked(DEV);
        let geom = Geometry::for_device(DEV);
        let kernel = Kernel::format(
            device.clone(),
            geom,
            KernelConfig::arckfs_plus().with_alloc_shards(format_shards),
        )
        .unwrap();
        let fs = LibFs::mount(kernel, Config::arckfs_plus(), 0).unwrap();
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/f0", &vec![0x11u8; 9000]).unwrap();
        fs.write_file("/d/f1", b"short").unwrap();
        fs.sync().unwrap();
        device.persist_all();

        let before = crashmc::fingerprint(&device).unwrap();

        for recover_shards in SHARDS {
            if recover_shards == format_shards {
                continue;
            }
            let recovered = crashmc::recover_one(&device, 17).unwrap();
            let _k = Kernel::recover(
                recovered.clone(),
                KernelConfig::arckfs_plus().with_alloc_shards(recover_shards),
            )
            .unwrap();
            let after = crashmc::fingerprint(&recovered).unwrap();
            assert_eq!(
                before, after,
                "shard count leaked into the fingerprint ({format_shards} -> {recover_shards})"
            );
            let report = trio::fsck::fsck(&recovered).unwrap();
            assert!(
                report.issues.is_empty(),
                "{format_shards} -> {recover_shards}: {:?}",
                report.issues
            );
        }
    }
}

#[test]
fn crash_report_collects_fingerprints() {
    // Mid-operation, the crash-state set is non-trivial but every state
    // recovers to one of a small set of logical namespaces; the report
    // must carry their fingerprints (deduplicated).
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    fs.mkdir("/d").unwrap();
    device.persist_all();
    fs.write_file("/d/f", b"payload").unwrap(); // pending stores in flight
    let report = crashmc::check_bounded(&device, 512, 64, 0xfeed).unwrap();
    assert!(report.states > 0);
    assert!(
        !report.fingerprints.is_empty(),
        "no fingerprints collected: {report:?}"
    );
    assert!(
        report.fingerprints.len() <= report.states,
        "more fingerprints than states"
    );
}
