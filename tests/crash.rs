//! Crash-consistency and recovery: crash images sampled at arbitrary
//! points are consistent under ArckFS+, and a remounted kernel recovers
//! the full tree.

use arckfs::{Config, LibFs};
use crashmc::{check_durable, check_sampled};
use pmem::PmemDevice;
use trio::{Kernel, KernelConfig};
use vfs::{FileSystem, FsExt};

const DEV: usize = 16 << 20;

/// Crash states sampled per sequence in the Table-1 sweep.
const TABLE1_SAMPLES: usize = 24;

/// The Table-1 metadata vocabulary over one shared directory. Each op
/// has a fixed operand, so sequence validity is a tiny state machine
/// over which names exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Table1Op {
    /// `create /d/a`
    Create,
    /// `unlink /d/a`
    Unlink,
    /// `rename /d/a -> /d/r`
    Rename,
    /// `mkdir /d/m`
    Mkdir,
}

impl Table1Op {
    const ALL: [Table1Op; 4] = [
        Table1Op::Create,
        Table1Op::Unlink,
        Table1Op::Rename,
        Table1Op::Mkdir,
    ];

    /// Apply to the (a, r, m) existence vector; `None` when invalid.
    fn step(self, (a, r, m): (bool, bool, bool)) -> Option<(bool, bool, bool)> {
        match self {
            Table1Op::Create if !a => Some((true, r, m)),
            Table1Op::Unlink if a => Some((false, r, m)),
            Table1Op::Rename if a && !r => Some((false, true, m)),
            Table1Op::Mkdir if !m => Some((a, r, true)),
            _ => None,
        }
    }

    fn apply(self, fs: &LibFs) {
        match self {
            Table1Op::Create => {
                let fd = fs.create("/d/a").unwrap();
                fs.close(fd).unwrap();
            }
            Table1Op::Unlink => fs.unlink("/d/a").unwrap(),
            Table1Op::Rename => fs.rename("/d/a", "/d/r").unwrap(),
            Table1Op::Mkdir => fs.mkdir("/d/m").unwrap(),
        }
    }
}

/// Every valid op sequence of length 1..=4 from the vocabulary.
fn table1_sequences() -> Vec<Vec<Table1Op>> {
    let mut out = Vec::new();
    let mut frontier = vec![(Vec::new(), (false, false, false))];
    for _ in 0..4 {
        let mut next = Vec::new();
        for (seq, state) in frontier {
            for op in Table1Op::ALL {
                if let Some(after) = op.step(state) {
                    let mut s = seq.clone();
                    s.push(op);
                    out.push(s.clone());
                    next.push((s, after));
                }
            }
        }
        frontier = next;
    }
    out
}

#[test]
fn every_table1_sequence_leaves_only_consistent_crash_states() {
    let sequences = table1_sequences();
    // The vocabulary's validity machine admits exactly these counts per
    // length (2, 4, 8, 11) — pin it so the sweep can't silently shrink.
    assert_eq!(sequences.len(), 25);
    for (si, seq) in sequences.iter().enumerate() {
        let device = PmemDevice::new_tracked(8 << 20);
        let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
        fs.mkdir("/d").unwrap();
        // Quiesce the setup so crash states differ only by the sequence.
        device.persist_all();
        for op in seq {
            op.apply(&fs);
        }
        let seed = (si as u64 + 1) << 16;
        let report = crashmc::check_bounded(&device, 64, TABLE1_SAMPLES, seed).unwrap();
        assert!(report.is_consistent(), "{seq:?}: {report:?}");
    }
}

#[test]
fn quiesced_workload_is_always_consistent() {
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    fs.mkdir("/a").unwrap();
    fs.write_file("/a/f1", b"one").unwrap();
    fs.write_file("/a/f2", b"two").unwrap();
    fs.rename("/a/f1", "/a/renamed").unwrap();
    fs.unlink("/a/f2").unwrap();
    // Each operation fenced its own updates; any crash point after the
    // last fence is consistent (modulo benign residue).
    let report = check_sampled(&device, 100, 7).unwrap();
    assert!(report.is_consistent(), "{report:?}");
}

#[test]
fn every_sampled_crash_during_a_create_storm_is_consistent_with_fences() {
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    fs.mkdir("/storm").unwrap();
    // Interleave creates and unlinks, sampling crash states mid-stream
    // (pending stores exist because the dir-size update is unfenced).
    for i in 0..30 {
        fs.create(&format!("/storm/file-with-a-long-name-{i:04}"))
            .map(|fd| fs.close(fd))
            .unwrap()
            .unwrap();
        if i % 3 == 0 {
            fs.unlink(&format!("/storm/file-with-a-long-name-{i:04}"))
                .unwrap();
        }
        if i % 5 == 0 {
            let report = check_sampled(&device, 20, i as u64).unwrap();
            assert!(report.is_consistent(), "at i={i}: {report:?}");
        }
    }
}

#[test]
fn remount_recovers_the_tree_after_crash() {
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    fs.mkdir("/docs").unwrap();
    fs.write_file("/docs/report.txt", b"durable content").unwrap();
    fs.mkdir("/docs/sub").unwrap();
    fs.write_file("/docs/sub/deep.txt", &vec![0x7Au8; 10_000]).unwrap();

    // Crash: take a sampled crash image and bring up a whole new kernel
    // on the recovered device.
    let recovered = crashmc::recover_one(&device, 99).unwrap();
    let kernel = Kernel::recover(recovered, KernelConfig::arckfs_plus()).unwrap();
    let fs2 = LibFs::mount(kernel, Config::arckfs_plus(), 0).unwrap();

    assert_eq!(
        fs2.read_file("/docs/report.txt").unwrap(),
        b"durable content"
    );
    assert_eq!(
        fs2.read_file("/docs/sub/deep.txt").unwrap(),
        vec![0x7Au8; 10_000]
    );
    // And the recovered file system remains fully operational.
    fs2.write_file("/docs/new.txt", b"post-recovery").unwrap();
    assert_eq!(fs2.readdir("/docs").unwrap().len(), 3);
}

#[test]
fn durable_image_after_clean_unmount_is_pristine() {
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    for i in 0..10 {
        fs.write_file(&format!("/f{i}"), b"data").unwrap();
    }
    fs.unmount().unwrap();
    device.persist_all();
    let report = check_durable(&device).unwrap();
    assert!(report.is_consistent());
    assert_eq!(report.clean_states + report.benign_states, 1);
}

#[test]
fn recovery_reclaims_orphans_and_recomputes_sizes() {
    // Build a crash image with benign residue by hand: a committed inode
    // with no dentry (orphan) and a stale directory size.
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    fs.write_file("/real.txt", b"visible").unwrap();
    let geom = trio::format::read_superblock(&device).unwrap();
    // Orphan: commit inode 50 with no dentry anywhere.
    let base = geom.inode_offset(50);
    device.write_u32(base + trio::format::I_TYPE, 1).unwrap();
    device.write_u64(base, 50).unwrap();
    device.persist_all();

    let report = check_durable(&device).unwrap();
    assert!(report.is_consistent(), "orphans are benign: {report:?}");
    assert_eq!(report.benign_states, 1);

    // A remounted kernel puts the orphan's number back into circulation.
    let recovered = PmemDevice::from_image(&device.persistent_image().unwrap());
    let kernel = Kernel::recover(recovered, KernelConfig::arckfs_plus()).unwrap();
    let fs2 = LibFs::mount(kernel, Config::arckfs_plus(), 0).unwrap();
    assert_eq!(fs2.read_file("/real.txt").unwrap(), b"visible");
}

/// Crash states of a same-directory rename parked between its two steps.
const RENAME_STATES: u64 = 64;

/// A same-directory rename commits the new dentry, then tombstones the
/// old one. A crash between the two leaves the inode live under both
/// names; every reader must resolve that to one name, the newer. The
/// rename is parked with the new record's marker flushed but not fenced,
/// for both name orders, and each sampled state is recovered: fsck's
/// logical snapshot, the recovered kernel's verified children and the
/// LibFS's `stat` and `readdir` name the same single path. Unlinking
/// either name then leaves the other readable or absent, and the root
/// still verifies.
#[test]
fn rename_crash_window_is_benign_residue_at_worst() {
    use std::time::Duration;
    use vfs::FsError;

    let mount = |dev| {
        let kernel = Kernel::recover(dev, KernelConfig::arckfs_plus()).unwrap();
        let fs = LibFs::mount(kernel.clone(), Config::arckfs_plus(), 0).unwrap();
        (kernel, fs)
    };
    for (from, to) in [("/a", "/b"), ("/b", "/a")] {
        let device = PmemDevice::new_tracked(DEV);
        let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
        fs.write_file(from, b"payload").unwrap();
        device.persist_all(); // quiesce: the create is fully durable

        let gate = arckfs::inject::arm_on(&device, "dentry.marker_flushed");
        let renamer = fs.clone();
        let h = std::thread::spawn(move || renamer.rename(from, to));
        assert!(gate.wait_reached(Duration::from_secs(10)));
        let report = check_sampled(&device, 200, 5).unwrap();
        assert!(report.is_consistent(), "{report:?}");

        let mut bad = Vec::new();
        for seed in 0..RENAME_STATES {
            let dev = crashmc::recover_one(&device, seed).unwrap();
            let geom = trio::format::read_superblock(&dev).unwrap();
            let fsck: Vec<String> = trio::logical_snapshot(&dev, &geom)
                .unwrap()
                .into_iter()
                .map(|e| e.path)
                .collect();
            let (kernel, fs2) = mount(dev);
            let mut verified: Vec<String> = kernel
                .verified_children(trio::ROOT_INO)
                .into_keys()
                .map(|n| format!("/{n}"))
                .collect();
            verified.sort();
            let mut listed: Vec<String> = fs2
                .readdir("/")
                .unwrap()
                .into_iter()
                .map(|e| format!("/{}", e.name))
                .collect();
            listed.sort();
            let mut stated: Vec<String> = [from, to]
                .into_iter()
                .filter(|p| fs2.stat(p).is_ok())
                .map(String::from)
                .collect();
            stated.sort();
            if fsck.len() != 1 || [&verified, &listed, &stated].iter().any(|v| **v != fsck) {
                bad.push(format!(
                    "seed {seed}: fsck {fsck:?}, kernel {verified:?}, readdir {listed:?}, \
                     stat {stated:?}"
                ));
                continue;
            }
            for (gone, other) in [(from, to), (to, from)] {
                let (_kernel, fs3) = mount(crashmc::recover_one(&device, seed).unwrap());
                let _ = fs3.unlink(gone);
                match fs3.read_file(other) {
                    Ok(bytes) if bytes == b"payload" => {}
                    Err(FsError::NotFound) => {}
                    r => bad.push(format!("seed {seed}: {other} after unlink({gone}): {r:?}")),
                }
                if let Err(e) = fs3.release_path("/") {
                    bad.push(format!("seed {seed}: release after unlink({gone}): {e}"));
                }
            }
        }
        gate.release();
        h.join().unwrap().unwrap();
        assert!(
            bad.is_empty(),
            "rename {from} -> {to}: {} of {RENAME_STATES} states:\n{}",
            bad.len(),
            bad.join("\n")
        );
    }
}

#[test]
fn unlink_crash_window_is_benign_residue_at_worst() {
    let device = PmemDevice::new_tracked(DEV);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    fs.write_file("/doomed", b"x").unwrap();
    device.persist_all();

    fs.unlink("/doomed").unwrap();
    // Crash states: file present (tombstone unpersisted), or gone, or gone
    // with an orphaned inode — all consistent.
    let report = check_sampled(&device, 200, 9).unwrap();
    assert!(report.is_consistent(), "{report:?}");
}

#[test]
fn exhaustive_enumeration_agrees_with_sampling_on_a_small_window() {
    use crashmc::check_exhaustive;
    let device = PmemDevice::new_tracked(8 << 20);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs()).unwrap();
    device.persist_all();

    // Park a buggy create mid-window, keeping the pending-store set small.
    let gate = arckfs::inject::arm_on(&device, "dentry.marker_flushed");
    let fs2 = fs.clone();
    let h = std::thread::spawn(move || {
        fs2.create("/exhaustive-check-victim-with-a-long-name")
            .map(|fd| fs2.close(fd))
    });
    assert!(gate.wait_reached(std::time::Duration::from_secs(10)));
    let exhaustive = check_exhaustive(&device, 200_000).unwrap();
    let sampled = check_sampled(&device, 400, 13).unwrap();
    gate.release();
    h.join().unwrap().unwrap().unwrap();

    if let Some(ex) = exhaustive {
        // Both methods must agree on whether the window is buggy.
        assert_eq!(
            ex.fatal_states > 0,
            sampled.fatal_states > 0,
            "exhaustive {ex:?} vs sampled {sampled:?}"
        );
        assert!(ex.fatal_states > 0, "the §4.2 window must be visible");
    } else {
        assert!(sampled.fatal_states > 0);
    }
}

/// A completed partial write into a freshly allocated page must not let a
/// crash surface what the page held before: every byte the file size
/// covers but the write did not is a durable zero. The pages come from
/// unlinked files full of `0xAB`, so a lost zero shows. Two shapes: a
/// write past the EOF of a new file, and a write filling a hole inside a
/// sparse file.
#[test]
fn a_partial_write_into_a_recycled_page_never_surfaces_old_bytes() {
    // (the byte that makes the file sparse, if any; the write under test)
    let cases = [(None, (3000, b'x')), (Some((9003, b'z')), (6096, b'y'))];
    for (sparse, (at, byte)) in cases {
        let device = PmemDevice::new_tracked(DEV);
        let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
        for i in 0..8 {
            fs.write_file(&format!("/old{i}"), &vec![0xABu8; 4 * 4096])
                .unwrap();
        }
        for i in 0..8 {
            fs.unlink(&format!("/old{i}")).unwrap();
        }
        let fd = fs.create("/f").unwrap();
        let mut want = vec![0u8; at as usize + 1];
        if let Some((end, b)) = sparse {
            fs.write_at(fd, &[b], end).unwrap();
            want.resize(end as usize + 1, 0);
            want[end as usize] = b;
        }
        device.persist_all(); // only the write under test is in flight
        fs.write_at(fd, &[byte], at).unwrap();
        want[at as usize] = byte;
        for seed in 0..40 {
            let recovered = crashmc::recover_one(&device, seed).unwrap();
            let kernel = Kernel::recover(recovered, KernelConfig::arckfs_plus()).unwrap();
            let fs2 = LibFs::mount(kernel, Config::arckfs_plus(), 0).unwrap();
            let got = fs2.read_file("/f").unwrap();
            let leaked = got.iter().filter(|b| **b == 0xAB).count();
            assert_eq!(leaked, 0, "write at {at}, seed {seed}: old bytes surfaced");
            assert_eq!(got, want, "write at {at}, seed {seed}");
        }
    }
}
