//! Deterministic reproductions of the six ArckFS bugs (§4.1–§4.6) and of
//! their ArckFS+ patches.
//!
//! Each test follows the paper's methodology: drive the exact interleaving
//! the paper describes (their `sleep()` calls are our armed schedule
//! points), observe the failure with the fix off, and observe its absence
//! with the fix on. The C artifact's SIGBUS/SIGSEGV symptoms appear here as
//! detected `FsError::Fault`s (see DESIGN.md for the mapping).
//!
//! Every gate is armed on the test's own device (`inject::arm_on`), so the
//! fix-off and fix-on twins of one bug share point names yet can run in
//! parallel without parking each other's threads.

use std::sync::Arc;
use std::time::Duration;

use arckfs::{inject, Config, LibFs};
use pmem::PmemDevice;
use rand::rngs::StdRng;
use rand::SeedableRng;
use trio::fsck::{fsck, FsckIssue};
use vfs::{FaultKind, FileSystem, FsError};

const DEV: usize = 48 << 20;

fn fresh(config: Config) -> Arc<LibFs> {
    arckfs::new_fs(DEV, config).expect("format").1
}

// ---------------------------------------------------------------------------
// §4.1 Cross-directory rename failure
// ---------------------------------------------------------------------------

/// Set up /dir1/dir3/file1 and /dir2 with the kernel fully aware of them.
fn setup_41(fs: &Arc<LibFs>) {
    fs.mkdir("/dir1").unwrap();
    fs.mkdir("/dir2").unwrap();
    fs.mkdir("/dir1/dir3").unwrap();
    fs.create("/dir1/dir3/file1").unwrap();
    // Register the hierarchy with the kernel, parents before children
    // (Rule (1)).
    fs.commit_path("/").unwrap();
    fs.commit_path("/dir1").unwrap();
    fs.commit_path("/dir1/dir3").unwrap();
}

#[test]
fn bug_41_legitimate_relocation_fails_verification_in_arckfs() {
    let fs = fresh(Config::arckfs());
    setup_41(&fs);

    // A perfectly legitimate directory relocation.
    fs.rename("/dir1/dir3", "/dir2/dir3").unwrap();

    // The paper: "verification failures on the old parent inode after a
    // directory relocation, regardless of whether the new parent inode has
    // been released."
    let err = fs.release_path("/dir1").unwrap_err();
    assert!(
        matches!(err, FsError::VerificationFailed { .. }),
        "expected verification failure on the old parent, got {err:?}"
    );
    let snap = fs.kernel().stats().snapshot();
    assert!(snap.verify_failures >= 1);
    assert!(
        snap.rollbacks >= 1,
        "the kernel must roll the old parent back"
    );
    // The rollback restored dir3 under dir1 from the kernel's perspective.
    let dir1 = fs.stat("/dir1").unwrap().ino;
    assert!(fs.kernel().verified_children(dir1).contains_key("dir3"));
}

#[test]
fn bug_41_fixed_relocation_verifies_in_arckfs_plus() {
    let fs = fresh(Config::arckfs_plus());
    setup_41(&fs);

    fs.rename("/dir1/dir3", "/dir2/dir3").unwrap();

    // Old parent releases cleanly: the verifier sees dir3's shadow parent
    // pointer now names dir2 (§4.1 patch), i.e. renamed, not deleted.
    fs.release_path("/dir1").unwrap();
    fs.release_path("/dir2").unwrap();
    let snap = fs.kernel().stats().snapshot();
    assert_eq!(
        snap.verify_failures, 0,
        "no verification failures: {snap:?}"
    );

    // Hand everything back to the kernel, then remount: a fresh LibFS
    // (fresh auxiliary state) sees the relocated tree.
    let kernel = fs.kernel().clone();
    fs.unmount().unwrap();
    let fs2 = LibFs::mount(kernel, Config::arckfs_plus(), 0).unwrap();
    assert!(fs2.stat("/dir2/dir3/file1").is_ok());
    assert_eq!(fs2.stat("/dir1/dir3").unwrap_err(), FsError::NotFound);
}

#[test]
fn bug_41_relocation_is_per_operation_verified_in_plus() {
    let fs = fresh(Config::arckfs_plus());
    setup_41(&fs);
    let before = fs.kernel().stats().snapshot();
    fs.rename("/dir1/dir3", "/dir2/dir3").unwrap();
    let after = fs.kernel().stats().snapshot();
    // "Directory relocation becomes a special operation in ArckFS+ that
    // requires per-operation verification."
    assert!(
        after.verifications > before.verifications,
        "directory relocation must verify per-operation"
    );
}

// ---------------------------------------------------------------------------
// §4.2 Partially persisted dentry and inode
// ---------------------------------------------------------------------------

/// Run a create up to the §4.2 reproduction point (marker stored and
/// flushed, final fence pending) on a tracked device, and fsck every
/// reachable crash state.
fn crash_states_during_create(config: Config) -> (usize, usize) {
    // A small device keeps per-sample crash images cheap.
    let device = PmemDevice::new_tracked(8 << 20);
    let (_kernel, fs) = arckfs::new_fs_on(device.clone(), config).expect("format");
    // A name longer than 40 bytes spans both cache lines of the dentry
    // record, which is what makes the partial persistence observable.
    let name = format!("/{}", "partially-persisted-dentry-victim-file-0001");
    assert!(name.len() > 41);

    let gate = inject::arm_on(&device, "dentry.marker_flushed");
    let fs2 = fs.clone();
    let name2 = name.clone();
    let h = std::thread::spawn(move || fs2.create(&name2));
    assert!(
        gate.wait_reached(Duration::from_secs(10)),
        "create never reached the marker window"
    );

    // Crash "now": sample reachable durable states one at a time (each
    // image is a full device clone, so they are never held together).
    let mut fatal = 0usize;
    let mut total = 0usize;
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..300 {
        let img = device.sample_crash_image(&mut rng).expect("tracked device");
        total += 1;
        let recovered = PmemDevice::from_image(&img);
        drop(img);
        let report = fsck(&recovered).expect("superblock is durable");
        if !report.is_consistent() {
            // Only §4.2-class signatures count.
            assert!(
                report.fatal().iter().all(|i| matches!(
                    i,
                    FsckIssue::PartialDentry { .. } | FsckIssue::DanglingDentry { .. }
                )),
                "unexpected fatal issues: {:?}",
                report.fatal()
            );
            fatal += 1;
        }
    }
    gate.release();
    h.join().unwrap().unwrap();
    (fatal, total)
}

#[test]
fn bug_42_missing_fence_partially_persists_dentry() {
    let (fatal, total) = crash_states_during_create(Config::arckfs());
    assert!(
        fatal > 0,
        "without the fence, some of the {total} crash states must show a \
         valid commit marker with unpersisted payload"
    );
}

#[test]
fn bug_42_fence_closes_the_crash_window() {
    let (fatal, total) = crash_states_during_create(Config::arckfs_plus());
    assert_eq!(
        fatal, 0,
        "with the §4.2 fence, none of the {total} crash states may show a \
         partially persisted dentry or inode"
    );
}

// ---------------------------------------------------------------------------
// §4.3 Incorrect synchronization of inode sharing
// ---------------------------------------------------------------------------

#[test]
fn bug_43_voluntary_release_races_with_directory_write() {
    let fs = fresh(Config::arckfs());
    fs.mkdir("/d").unwrap();
    // Register /d with the kernel (committing its parent) so that the
    // voluntary release below reaches the verifier.
    fs.commit_path("/").unwrap();

    // Thread A writes to the directory; the paper inserts a sleep() during
    // the directory write — our schedule point sits right before the core
    // dentry stores.
    let gate = inject::arm_on(fs.kernel().device(), "dir.insert.core_write");
    let fs2 = fs.clone();
    let h = std::thread::spawn(move || fs2.create("/d/racer"));
    assert!(gate.wait_reached(Duration::from_secs(10)));

    // Voluntary release while A is mid-write: original ArckFS unmaps
    // immediately.
    fs.release_path("/d").unwrap();
    gate.release();

    let err = h.join().unwrap().unwrap_err();
    assert!(
        matches!(err, FsError::Fault(FaultKind::BusError { .. })),
        "expected the modelled SIGBUS, got {err:?}"
    );
}

#[test]
fn bug_43_fixed_release_waits_for_inflight_operations() {
    let fs = fresh(Config::arckfs_plus());
    fs.mkdir("/d").unwrap();

    let gate = inject::arm_on(fs.kernel().device(), "dir.insert.core_write");
    let fs_a = fs.clone();
    let writer = std::thread::spawn(move || fs_a.create("/d/racer"));
    assert!(gate.wait_reached(Duration::from_secs(10)));

    // The §4.3 patch takes every lock of the inode before releasing, so
    // this blocks until the writer finishes.
    let fs_b = fs.clone();
    let releaser = std::thread::spawn(move || fs_b.release_path("/d"));
    std::thread::sleep(Duration::from_millis(50));
    gate.release();

    writer
        .join()
        .unwrap()
        .expect("in-flight write must complete");
    releaser
        .join()
        .unwrap()
        .expect("release must succeed after quiescing");

    // Lock-free readers keep working from the cached state after release.
    assert_eq!(fs.stat("/d").unwrap().size, 1);
    // The next write transparently re-acquires.
    fs.create("/d/after-release").unwrap();
    assert_eq!(fs.stat("/d").unwrap().size, 2);
}

// ---------------------------------------------------------------------------
// §4.4 Inconsistent core and auxiliary states
// ---------------------------------------------------------------------------

#[test]
fn bug_44_unlink_follows_index_into_missing_core_state() {
    let fs = fresh(Config::arckfs());
    fs.mkdir("/d").unwrap();

    // The paper: "we observe such segmentation faults by concurrently
    // invoking creat() and unlink(); we insert a sleep() between the two
    // state updates in creat()".
    let gate = inject::arm_on(fs.kernel().device(), "dir.insert.between_states");
    let fs2 = fs.clone();
    let creator = std::thread::spawn(move || fs2.create("/d/x"));
    assert!(gate.wait_reached(Duration::from_secs(10)));

    // The auxiliary index already names /d/x; its core state does not
    // exist yet.
    let err = fs.unlink("/d/x").unwrap_err();
    assert!(
        matches!(err, FsError::Fault(FaultKind::DanglingCoreRef { .. })),
        "expected the modelled SIGSEGV, got {err:?}"
    );
    gate.release();
    creator.join().unwrap().unwrap();
}

#[test]
fn bug_44_fixed_bucket_lock_covers_core_update() {
    let fs = fresh(Config::arckfs_plus());
    fs.mkdir("/d").unwrap();

    // With the patch, the buggy window's schedule point is never executed:
    // the create publishes aux+core atomically under the bucket lock.
    let gate = inject::arm_on(fs.kernel().device(), "dir.insert.between_states");
    let fs2 = fs.clone();
    let creator = std::thread::spawn(move || fs2.create("/d/x"));
    assert!(
        !gate.wait_reached(Duration::from_millis(300)),
        "the patched create must not expose the aux-before-core window"
    );
    gate.release();
    creator.join().unwrap().unwrap();

    // And the concurrent unlink either misses or removes a complete file.
    match fs.unlink("/d/x") {
        Ok(()) => {}
        Err(e) => panic!("unlink after patched create failed: {e:?}"),
    }
}

// ---------------------------------------------------------------------------
// §4.5 Incorrect synchronization for directory bucket
// ---------------------------------------------------------------------------

#[test]
fn bug_45_reader_dereferences_freed_bucket_entry() {
    let fs = fresh(Config::arckfs());
    fs.mkdir("/d").unwrap();
    fs.create("/d/victim").unwrap();

    // Reader (directory enumeration) parks mid-traversal, as the paper's
    // sleep() during bucket traversal does.
    let gate = inject::arm_on(fs.kernel().device(), "dir.readdir.traverse");
    let fs2 = fs.clone();
    let reader = std::thread::spawn(move || fs2.readdir("/d"));
    assert!(gate.wait_reached(Duration::from_secs(10)));

    // Writer deletes and frees the entry immediately (no RCU).
    fs.unlink("/d/victim").unwrap();
    gate.release();

    let err = reader.join().unwrap().unwrap_err();
    assert!(
        matches!(err, FsError::Fault(FaultKind::UseAfterFree { .. })),
        "expected the modelled use-after-free SIGSEGV, got {err:?}"
    );
}

#[test]
fn bug_45_rcu_defers_free_past_readers() {
    let fs = fresh(Config::arckfs_plus());
    fs.mkdir("/d").unwrap();
    fs.create("/d/victim").unwrap();

    let gate = inject::arm_on(fs.kernel().device(), "dir.readdir.traverse");
    let fs2 = fs.clone();
    let reader = std::thread::spawn(move || fs2.readdir("/d"));
    assert!(gate.wait_reached(Duration::from_secs(10)));

    fs.unlink("/d/victim").unwrap();
    gate.release();

    // The reader entered its RCU read-side critical section before the
    // unlink; the free is deferred past it, so the traversal completes
    // (and linearizes before the removal).
    let entries = reader
        .join()
        .unwrap()
        .expect("RCU-protected read must not fault");
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].name, "victim");
    assert_eq!(fs.stat("/d").unwrap().size, 0);
}

// ---------------------------------------------------------------------------
// §4.6 Directory cycle
// ---------------------------------------------------------------------------

fn setup_46(fs: &Arc<LibFs>) {
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    fs.mkdir("/c").unwrap();
    fs.mkdir("/c/d").unwrap();
}

#[test]
fn bug_46_concurrent_cross_directory_renames_create_cycle() {
    let (kernel, fs) = arckfs::new_fs(DEV, Config::arckfs()).unwrap();
    setup_46(&fs);

    // The paper's case (1): rename(/c, /a/b/c) racing rename(/a, /c/d/a).
    let gate = inject::arm_on(kernel.device(), "rename.crossdir.prepared");
    let fs1 = fs.clone();
    let t1 = std::thread::spawn(move || fs1.rename("/c", "/a/b/c"));
    let fs2 = fs.clone();
    let t2 = std::thread::spawn(move || fs2.rename("/a", "/c/d/a"));
    assert!(gate.wait_reached(Duration::from_secs(10)));
    // Both renames are past path resolution; release them together.
    std::thread::sleep(Duration::from_millis(100));
    gate.release();
    t1.join().unwrap().unwrap();
    t2.join().unwrap().unwrap();

    // /a and /c are now descendants of each other, disconnected from the
    // root: a directory cycle.
    let report = fsck(kernel.device()).unwrap();
    assert!(
        report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::DirCycle { .. })),
        "expected a directory cycle, found {:?}",
        report.issues
    );
}

#[test]
fn bug_46_lease_serializes_directory_renames() {
    let (kernel, fs) = arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap();
    setup_46(&fs);

    let gate = inject::arm_on(kernel.device(), "rename.crossdir.prepared");
    let fs1 = fs.clone();
    let t1 = std::thread::spawn(move || fs1.rename("/c", "/a/b/c"));
    let fs2 = fs.clone();
    let t2 = std::thread::spawn(move || fs2.rename("/a", "/c/d/a"));
    assert!(gate.wait_reached(Duration::from_secs(10)));
    std::thread::sleep(Duration::from_millis(100));
    gate.release();
    let r1 = t1.join().unwrap();
    let r2 = t2.join().unwrap();

    // The global rename lease serializes the two: exactly one wins; the
    // loser re-resolves under the lease and finds its source/target gone.
    assert!(
        r1.is_ok() != r2.is_ok(),
        "exactly one rename may win: {r1:?} vs {r2:?}"
    );
    let report = fsck(kernel.device()).unwrap();
    assert!(
        !report.issues.iter().any(|i| matches!(
            i,
            FsckIssue::DirCycle { .. } | FsckIssue::MultiplyReachable { .. }
        )),
        "no cycle may form: {:?}",
        report.issues
    );
}

#[test]
fn bug_46_rename_into_own_descendant() {
    // Case (2): buggy ArckFS accepts it and corrupts the tree...
    let (kernel, fs) = arckfs::new_fs(DEV, Config::arckfs()).unwrap();
    setup_46(&fs);
    fs.rename("/a", "/a/b/a2").unwrap();
    let report = fsck(kernel.device()).unwrap();
    assert!(
        report
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::DirCycle { .. })),
        "self-descendant rename must create a cycle in buggy mode: {:?}",
        report.issues
    );

    // ...ArckFS+ rejects it up front.
    let (kernel2, fs2) = arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap();
    setup_46(&fs2);
    assert_eq!(
        fs2.rename("/a", "/a/b/a2").unwrap_err(),
        FsError::WouldCycle
    );
    let report2 = fsck(kernel2.device()).unwrap();
    assert!(report2.is_consistent(), "{:?}", report2.issues);
}
