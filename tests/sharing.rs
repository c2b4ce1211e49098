//! Cross-application sharing: ownership transfer, verification at
//! handoffs, involuntary release, and trust groups (§5.4).

use std::sync::Arc;
use std::time::Duration;

use arckfs::{Config, LibFs};
use pmem::PmemDevice;
use trio::{Geometry, Kernel, KernelConfig};
use vfs::{FileSystem, FsError, FsExt};

const DEV: usize = 48 << 20;

fn kernel() -> Arc<Kernel> {
    let device = PmemDevice::new(DEV);
    let geom = Geometry::for_device(DEV);
    Kernel::format(device, geom, KernelConfig::arckfs_plus()).expect("format")
}

#[test]
fn ownership_transfer_via_release() {
    let k = kernel();
    let a = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    let b = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();

    a.write_file("/note.txt", b"from a").unwrap();
    // B cannot touch it while A holds everything.
    assert!(matches!(
        b.stat("/note.txt").unwrap_err(),
        FsError::NotOwner { .. }
    ));

    a.unmount().unwrap();
    assert_eq!(b.read_file("/note.txt").unwrap(), b"from a");
    // B extends the file; a third app sees the combined content after B
    // hands it off.
    let fd = b.open("/note.txt", vfs::OpenFlags::rw()).unwrap();
    b.write_at(fd, b" and b", 6).unwrap();
    b.close(fd).unwrap();
    b.unmount().unwrap();

    let c = LibFs::mount(k, Config::arckfs_plus(), 0).unwrap();
    assert_eq!(c.read_file("/note.txt").unwrap(), b"from a and b");
}

#[test]
fn every_handoff_verifies_outside_trust_groups() {
    let k = kernel();
    let a = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    a.mkdir("/shared").unwrap();
    a.create("/shared/f")
        .map(|fd| a.close(fd))
        .unwrap()
        .unwrap();
    let before = k.stats().snapshot();
    a.release_path("/shared").unwrap();
    a.release_path("/").unwrap();
    let after = k.stats().snapshot();
    assert!(
        after.verifications >= before.verifications + 2,
        "both releases must verify: {before:?} -> {after:?}"
    );
}

#[test]
fn trust_group_skips_verification() {
    let k = kernel();
    let a = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    let b = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    k.create_trust_group(&[a.id(), b.id()]).unwrap();

    a.write_file("/g.txt", b"group data").unwrap();
    // Register the file with the kernel so B's acquire has a shadow entry.
    a.commit_path("/").unwrap();

    // B co-acquires while A still holds everything — allowed within the
    // group, no verification.
    let before = k.stats().snapshot();
    assert_eq!(b.read_file("/g.txt").unwrap(), b"group data");
    let after = k.stats().snapshot();
    assert_eq!(
        after.verifications, before.verifications,
        "intra-group sharing must not verify"
    );
    assert!(after.trust_skips > before.trust_skips);
}

#[test]
fn trust_group_boundary_verifies_lazily() {
    let k = kernel();
    let a = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    let b = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    k.create_trust_group(&[a.id(), b.id()]).unwrap();

    a.write_file("/boundary.txt", b"x").unwrap();
    a.commit_path("/").unwrap();
    // B joins in, then leaves: an intra-group release defers the check
    // because A (same group) still holds the inode.
    assert!(b.stat("/boundary.txt").is_ok());
    let before = k.stats().snapshot();
    b.release_path("/boundary.txt").unwrap();
    b.release_path("/").unwrap();
    let mid = k.stats().snapshot();
    assert_eq!(
        mid.verifications, before.verifications,
        "intra-group release must defer verification"
    );
    // The last group member leaving is the group boundary: verify now.
    a.unmount().unwrap();
    let after = k.stats().snapshot();
    assert!(
        after.verifications > mid.verifications,
        "the group boundary must verify"
    );

    // An outsider sees the verified state.
    let outsider = LibFs::mount(k.clone(), Config::arckfs_plus(), 3).unwrap();
    assert!(outsider.stat("/boundary.txt").is_ok());
}

#[test]
fn involuntary_release_revokes_the_mapping() {
    let k = kernel();
    let a = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    a.write_file("/seize.txt", b"mine").unwrap();
    a.commit_path("/").unwrap();
    let ino = a.stat("/seize.txt").unwrap().ino;

    // The kernel forcefully takes the inode back (e.g. lease timeout).
    k.force_release(a.id(), ino).unwrap();
    assert!(!k.owns(a.id(), ino));
    assert_eq!(k.stats().snapshot().forced_releases, 1);

    // Another app can now take it.
    let b = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    a.release_path("/").unwrap();
    assert_eq!(b.read_file("/seize.txt").unwrap(), b"mine");
}

#[test]
fn rename_lease_times_out_against_a_stuck_holder() {
    let device = PmemDevice::new(DEV);
    let geom = Geometry::for_device(DEV);
    let mut cfg = KernelConfig::arckfs_plus();
    cfg.lease_timeout = Duration::from_millis(30);
    let k = Kernel::format(device, geom, cfg).unwrap();
    let a = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    let b = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();

    // A grabs the global rename lease and "crashes" (never releases).
    let _token = k.rename_lease_acquire(a.id()).unwrap();
    assert!(k.holds_rename_lease(a.id()));
    // B is stuck only until the lease expires.
    let t = k.rename_lease_acquire_blocking(b.id()).unwrap();
    assert!(k.holds_rename_lease(b.id()));
    k.rename_lease_release(b.id(), t).unwrap();
}

#[test]
fn unregister_forces_everything_back() {
    let k = kernel();
    let a = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    a.mkdir("/d").unwrap();
    a.write_file("/d/f", b"payload").unwrap();
    // Register so the forced releases verify rather than reject.
    a.commit_path("/").unwrap();
    a.commit_path("/d").unwrap();

    // Unregister without the polite unmount (app died).
    k.unregister_libfs(a.id()).unwrap();
    assert!(k.stats().snapshot().forced_releases > 0);

    let b = LibFs::mount(k, Config::arckfs_plus(), 0).unwrap();
    assert_eq!(b.read_file("/d/f").unwrap(), b"payload");
}

// ---- hand-off: what a re-acquire may keep (DESIGN.md §14) -------------------
//
// The kernel keeps a content generation per inode and the verified image of
// an unowned directory; a LibFS that is granted the generation it was told at
// its own last release keeps its whole directory index and reads nothing. The
// observable is `PmemDevice::stats().bytes_read`: a kept index costs less
// than one page across the re-acquire, a rebuild reads every log page.

use trio::format;

const PAGE: u64 = pmem::PAGE_SIZE as u64;

fn two_apps(config: Config) -> (Arc<Kernel>, Arc<LibFs>, Arc<LibFs>) {
    let k = kernel();
    let a = LibFs::mount(k.clone(), config.clone(), 0).unwrap();
    let b = LibFs::mount(k.clone(), config, 0).unwrap();
    (k, a, b)
}

fn touch(fs: &LibFs, path: &str) {
    let fd = fs
        .create(path)
        .unwrap_or_else(|e| panic!("create {path}: {e}"));
    fs.close(fd).unwrap();
}

fn names(fs: &LibFs, dir: &str) -> Vec<String> {
    fs.readdir(dir)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

fn hand_over(fs: &LibFs, dir: &str) {
    fs.release_path(dir).unwrap();
    fs.release_path("/").unwrap();
}

fn bytes_read(k: &Kernel) -> u64 {
    k.device().stats().snapshot().bytes_read
}

/// Bytes read from PM while `fs` takes `dir` (and `/`) over again.
fn reacquire_cost(k: &Kernel, fs: &LibFs, dir: &str) -> u64 {
    let before = bytes_read(k);
    fs.stat(dir).unwrap();
    bytes_read(k) - before
}

/// The directory's core state as the verifier sees it: inode record and
/// every log page, in chain order.
fn dir_image(k: &Kernel, ino: u64) -> (Vec<u8>, Vec<(u64, Vec<u8>)>) {
    let mut rec = vec![0u8; format::INODE_SIZE as usize];
    k.device()
        .read(k.geometry().inode_offset(ino), &mut rec)
        .unwrap();
    let raw = format::read_inode(k.device(), k.geometry(), ino).unwrap();
    let mut pages = Vec::new();
    format::walk_dir_pages(k.device(), k.geometry(), &raw, |p| {
        pages.push((p.page, p.bytes.to_vec()));
        Ok(())
    })
    .unwrap();
    (rec, pages)
}

fn log_pages(k: &Kernel, ino: u64) -> u64 {
    dir_image(k, ino).1.len() as u64
}

/// Device offset of the live dentry `name` in directory `ino`.
fn dentry_offset(k: &Kernel, ino: u64, name: &str) -> u64 {
    let raw = format::read_inode(k.device(), k.geometry(), ino).unwrap();
    let mut off = None;
    format::walk_dir_log(k.device(), k.geometry(), &raw, |d| {
        if d.is_live() && d.name_str() == Some(name) {
            off = Some(d.offset);
        }
    })
    .unwrap();
    off.unwrap_or_else(|| panic!("no live dentry '{name}'"))
}

fn assert_fsck_clean(k: &Kernel) {
    let report = trio::fsck::fsck(k.device()).unwrap();
    assert!(report.is_consistent(), "fsck: {:?}", report.fatal());
}

/// The benchmark's turn on a 100-resident directory, alternating between two
/// applications: after warm-up the acquiring create reads each log page of
/// the changed directory once (plus slack for the records it touches), and
/// re-acquiring `/` — which the other side only looked names up in — reads
/// less than a page. At the parent commit both are ~3× the page count.
#[test]
fn handoff_reads_each_log_page_at_most_once() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/dir100").unwrap();
    for i in 0..100 {
        touch(&a, &format!("/dir100/r{i}"));
    }
    let dir = a.stat("/dir100").unwrap().ino;
    hand_over(&a, "/dir100");
    let rest_of_turn = |fs: &LibFs, first_done: bool| {
        for n in usize::from(first_done)..4 {
            touch(fs, &format!("/dir100/n{n}"));
        }
        for n in 0..4 {
            fs.unlink(&format!("/dir100/n{n}")).unwrap();
        }
        hand_over(fs, "/dir100");
    };
    let apps = [&b, &a];
    for turn in 0..6 {
        rest_of_turn(apps[turn % 2], false);
    }
    for turn in 0..6 {
        let fs = apps[turn % 2];
        let pages = log_pages(&k, dir);
        assert!(pages >= 4, "100 residents over four tails: {pages} pages");
        // `/` first, on its own: the other side only resolved through it.
        let before = bytes_read(&k);
        fs.stat("/").unwrap();
        let root_cost = bytes_read(&k) - before;
        assert!(
            root_cost < PAGE,
            "turn {turn}: re-acquiring / read {root_cost} B"
        );
        let before = bytes_read(&k);
        touch(fs, "/dir100/n0");
        let cost = bytes_read(&k) - before;
        assert!(
            cost <= (pages + 1) * PAGE + PAGE,
            "turn {turn}: the acquiring create read {cost} B for {pages} log pages"
        );
        rest_of_turn(fs, true);
    }
    a.unmount().unwrap();
    let expect: Vec<String> = sorted((0..100).map(|i| format!("r{i}")).collect());
    assert_eq!(names(&b, "/dir100"), expect);
    b.unmount().unwrap();
    assert_fsck_clean(&k);
}

/// (a) B's release of the shared directory fails verification and is rolled
/// back. A must not trust its index (the rejected bytes were in PM), and the
/// kernel's next snapshot is the rolled-back state, not the rejected one.
#[test]
fn rollback_of_a_foreign_release_forces_a_rebuild() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/d").unwrap();
    for n in ["x", "y", "z"] {
        touch(&a, &format!("/d/{n}"));
    }
    let dir = a.stat("/d").unwrap().ino;
    hand_over(&a, "/d");
    let good = dir_image(&k, dir);

    b.stat("/d").unwrap();
    let off = dentry_offset(&k, dir, "x");
    // Marker says 60 name bytes, one was written: the §4.2 signature.
    k.device().write_u16(off + format::D_MARKER, 60).unwrap();
    let err = b.release_path("/d").unwrap_err();
    assert!(matches!(err, FsError::VerificationFailed { .. }), "{err:?}");
    assert_eq!(dir_image(&k, dir), good, "rolled back");
    b.release_path("/").unwrap();

    let pages = log_pages(&k, dir);
    let cost = reacquire_cost(&k, &a, "/d");
    assert!(
        cost >= pages * PAGE,
        "A kept its index across a rollback ({cost} B)"
    );
    assert_eq!(names(&a, "/d"), ["x", "y", "z"]);
    // A's snapshot is the rolled-back image: a bad release by A itself
    // restores exactly those bytes.
    k.device()
        .write_u64(k.geometry().inode_offset(dir) + format::I_SIZE, 17)
        .unwrap();
    assert!(a.release_path("/d").is_err());
    assert_eq!(dir_image(&k, dir), good);
    // (e) A's own failed release leaves nothing remembered either.
    let cost = reacquire_cost(&k, &a, "/d");
    assert!(
        cost >= pages * PAGE,
        "A kept its index across its own rollback"
    );
    touch(&a, "/d/w");
    hand_over(&a, "/d");
    assert_eq!(names(&b, "/d"), ["w", "x", "y", "z"]);
    assert_fsck_clean(&k);
}

/// (b) B creates and unlinks the same names: the live set A left is intact,
/// but slots, tombstones and tails moved. A must rebuild — then fill the
/// directory past one page per tail without overwriting or double-granting.
#[test]
fn identical_live_set_with_moved_slots_is_not_a_match() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/d").unwrap();
    for n in ["x", "y", "z"] {
        touch(&a, &format!("/d/{n}"));
    }
    let dir = a.stat("/d").unwrap().ino;
    hand_over(&a, "/d");
    for n in 0..6 {
        touch(&b, &format!("/d/t{n}"));
    }
    for n in 0..6 {
        b.unlink(&format!("/d/t{n}")).unwrap();
    }
    assert_eq!(names(&b, "/d"), ["x", "y", "z"]);
    hand_over(&b, "/d");

    let pages = log_pages(&k, dir);
    let cost = reacquire_cost(&k, &a, "/d");
    assert!(
        cost >= pages * PAGE,
        "A kept a stale index ({cost} B, {pages} pages)"
    );
    let mut expect = vec!["x".to_string(), "y".into(), "z".into()];
    for n in 0..160 {
        touch(&a, &format!("/d/fill{n}"));
        expect.push(format!("fill{n}"));
    }
    let expect = sorted(expect);
    assert_eq!(names(&a, "/d"), expect);
    assert!(log_pages(&k, dir) > 4, "more than one page per tail");
    hand_over(&a, "/d");
    assert_eq!(names(&b, "/d"), expect, "the log holds what A's index says");
    assert_fsck_clean(&k);
}

/// (c) B only looks names up. A keeps its index, and a create right after
/// lands where the kept tails and free slots say.
#[test]
fn lookups_by_the_other_side_keep_the_index() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/d").unwrap();
    for n in 0..40 {
        touch(&a, &format!("/d/f{n}"));
    }
    for n in 0..8 {
        a.unlink(&format!("/d/f{n}")).unwrap(); // free slots to keep
    }
    hand_over(&a, "/d");
    // (A still holds the files themselves; B resolves names, no more.)
    assert_eq!(names(&b, "/d").len(), 32);
    assert_eq!(b.stat("/d/nope").unwrap_err(), FsError::NotFound);
    hand_over(&b, "/d");

    let cost = reacquire_cost(&k, &a, "/d");
    assert!(
        cost < PAGE,
        "A re-read the log of an unchanged directory ({cost} B)"
    );
    let mut expect: Vec<String> = (8..40).map(|n| format!("f{n}")).collect();
    for n in 0..12 {
        touch(&a, &format!("/d/g{n}"));
        expect.push(format!("g{n}"));
    }
    let expect = sorted(expect);
    assert_eq!(names(&a, "/d"), expect);
    hand_over(&a, "/d");
    // B rebuilds from the log: every record A wrote through the kept index
    // is where a fresh scan finds it, and nothing was overwritten.
    assert_eq!(names(&b, "/d"), expect);
    assert_fsck_clean(&k);
}

/// (d) Inside a trust group releases are not verified and owners overlap:
/// no remembered generation may ever match, whichever side wrote.
#[test]
fn trust_group_release_never_keeps_the_index() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    k.create_trust_group(&[a.id(), b.id()]).unwrap();
    a.mkdir("/g").unwrap();
    touch(&a, "/g/from_a");
    a.commit_path("/").unwrap();
    a.commit_path("/g").unwrap();
    // B joins while A holds /g; A leaves unverified; B writes; A returns.
    assert_eq!(names(&b, "/g"), ["from_a"]);
    a.release_path("/g").unwrap();
    touch(&b, "/g/from_b");
    assert_eq!(
        names(&a, "/g"),
        ["from_a", "from_b"],
        "A kept a stale index"
    );
    // B leaves (unverified, A holds), A writes, B returns.
    b.release_path("/g").unwrap();
    touch(&a, "/g/again_a");
    assert_eq!(names(&b, "/g"), ["again_a", "from_a", "from_b"]);
    // A leaves last-but-one, B last (verified). A returns alone, then B
    // co-acquires after A wrote once more.
    a.release_path("/g").unwrap();
    b.release_path("/g").unwrap();
    touch(&a, "/g/third");
    assert_eq!(names(&b, "/g"), ["again_a", "from_a", "from_b", "third"]);
}

/// (f) A directory is removed, its inode number recycled and a new directory
/// created under the same number: the cached, released `MemInode` of the old
/// life never matches the new one.
#[test]
fn recycled_inode_number_never_matches() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/old").unwrap();
    touch(&a, "/old/gone");
    a.unlink("/old/gone").unwrap();
    let ino = a.stat("/old").unwrap().ino;
    hand_over(&a, "/old");

    // B removes the directory and unmounts, which returns the freed number
    // to the kernel's pool; the next application is granted it again.
    b.rmdir("/old").unwrap();
    b.unmount().unwrap();
    let c = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    let reborn = (0..4096)
        .map(|i| format!("/new{i}"))
        .find(|p| {
            c.mkdir(p).unwrap();
            c.stat(p).unwrap().ino == ino
        })
        .expect("the freed number comes around again");
    touch(&c, &format!("{reborn}/inside"));
    c.unmount().unwrap();

    // A still caches the old directory's MemInode under this number.
    assert_eq!(a.stat(&reborn).unwrap().ino, ino);
    assert_eq!(names(&a, &reborn), ["inside"]);
    touch(&a, &format!("{reborn}/more"));
    a.unmount().unwrap();
    let d = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    assert_eq!(names(&d, &reborn), ["inside", "more"]);
    assert_fsck_clean(&k);
}

/// The satellite-2 bug: a failed revival used to leave the kernel recording
/// an owner whose `MemInode` still says `Released`, which `unmount` never
/// releases. B unlinks a file A holds a descriptor on (the owner of the
/// parent frees a child without acquiring it); A's next access through the
/// descriptor is granted the inode, finds it freed — and hands it back.
#[test]
fn failed_revival_hands_the_grant_back() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/d").unwrap();
    a.write_file("/d/f", b"data").unwrap();
    let fd = a.open("/d/f", vfs::OpenFlags::read()).unwrap();
    let ino = a.fstat(fd).unwrap().ino;
    a.release_path("/d/f").unwrap();
    hand_over(&a, "/d");

    b.unlink("/d/f").unwrap(); // B keeps /d: the kernel still lists `f`
    assert!(k.shadow_entry(ino).is_some());
    let mut buf = [0u8; 4];
    assert_eq!(a.read_at(fd, &mut buf, 0).unwrap_err(), FsError::NotFound);
    assert!(!k.owns(a.id(), ino), "the failed revival leaked its grant");
    hand_over(&b, "/d");
    a.unmount().unwrap();
    b.unmount().unwrap();
    assert_fsck_clean(&k);
}

// ---- delta replay: a revival patches the index slot by slot ------------------
//
// When the other side's release was verified one step after this LibFS's own
// (DESIGN.md §14, "delta replay"), the grant carries the changed dentry slots
// with their bytes before; the revival reads each slot once and patches the
// index instead of rescanning the log. After every revival below the index is
// compared with a rebuild from PM (`LibFs::check_dir_index`): the replay must
// leave exactly what the rebuild would, and every fallback must still be exact.

/// Which path a directory's revival took, told from the PM bytes it read: a
/// kept index reads only the kernel's record check, a replay adds the record
/// and the changed slots, a rebuild reads every log page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Revival {
    Kept,
    Replayed,
    Rebuilt,
}

/// Take `dir` (inode `ino`, a child of `/`) back into `fs` — `/` first, on its
/// own — classify the revival, then check the index against a rebuild.
fn revive(k: &Kernel, fs: &LibFs, dir: &str, ino: u64) -> Revival {
    fs.stat("/").unwrap();
    let pages = log_pages(k, ino);
    let before = bytes_read(k);
    fs.stat(dir).unwrap();
    let cost = bytes_read(k) - before;
    let how = if cost <= format::INODE_SIZE {
        Revival::Kept
    } else if cost < pages * PAGE {
        Revival::Replayed
    } else {
        Revival::Rebuilt
    };
    oracle(fs, dir);
    how
}

fn oracle(fs: &LibFs, dir: &str) {
    if let Err(e) = fs.check_dir_index(dir) {
        panic!("the index differs from a rebuild: {e}");
    }
}

fn hand_over_all(fs: &LibFs, dirs: &[&str]) {
    for d in dirs {
        fs.release_path(d).unwrap();
    }
    fs.release_path("/").unwrap();
}

/// (a) B unlinks `x` and creates `w` and `v`, which land in the slots of `x`
/// and of the `z` A had unlinked: the same slots under other names.
#[test]
fn replay_reuses_slots_under_other_names() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/d").unwrap();
    for n in ["x", "y", "z"] {
        touch(&a, &format!("/d/{n}"));
    }
    a.unlink("/d/z").unwrap();
    let dir = a.stat("/d").unwrap().ino;
    a.release_path("/d/x").unwrap(); // B frees it: A must not hold it
    hand_over(&a, "/d");
    b.unlink("/d/x").unwrap();
    touch(&b, "/d/w");
    touch(&b, "/d/v");
    hand_over(&b, "/d");
    assert_eq!(revive(&k, &a, "/d", dir), Revival::Replayed);
    assert_eq!(names(&a, "/d"), ["v", "w", "y"]);
    // The patched index goes on allocating: every slot it hands out is free.
    let mut expect = vec!["v".to_string(), "w".into()];
    for n in 0..40 {
        touch(&a, &format!("/d/f{n}"));
        expect.push(format!("f{n}"));
    }
    a.unlink("/d/y").unwrap();
    let expect = sorted(expect);
    assert_eq!(names(&a, "/d"), expect);
    hand_over(&a, "/d");
    assert_ne!(revive(&k, &b, "/d", dir), Revival::Kept);
    assert_eq!(names(&b, "/d"), expect);
    a.unmount().unwrap();
    b.unmount().unwrap();
    assert_fsck_clean(&k);
}

/// (b) A rename inside the directory, a file moved in from a sibling, and —
/// next turn — one moved out (Rule (2) commits the sibling first; the
/// sibling's delta is then its commit's).
#[test]
fn replay_follows_renames_within_and_across_directories() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/d").unwrap();
    a.mkdir("/e").unwrap();
    for p in ["/d/x", "/d/y", "/e/u"] {
        touch(&a, p);
    }
    let d = a.stat("/d").unwrap().ino;
    let e = a.stat("/e").unwrap().ino;
    // The files go too: a cross-directory rename takes the moved file over.
    for p in ["/d/y", "/e/u"] {
        a.release_path(p).unwrap();
    }
    hand_over_all(&a, &["/d", "/e"]);
    b.rename("/d/x", "/d/x2").unwrap();
    b.rename("/e/u", "/d/u").unwrap();
    hand_over_all(&b, &["/d", "/e"]);
    assert_eq!(revive(&k, &a, "/d", d), Revival::Replayed);
    assert_eq!(revive(&k, &a, "/e", e), Revival::Replayed);
    assert_eq!(names(&a, "/d"), ["u", "x2", "y"]);
    assert!(names(&a, "/e").is_empty());
    hand_over_all(&a, &["/d", "/e"]);

    b.rename("/d/y", "/e/y").unwrap();
    hand_over_all(&b, &["/d", "/e"]);
    assert_eq!(revive(&k, &a, "/d", d), Revival::Replayed);
    assert_eq!(revive(&k, &a, "/e", e), Revival::Replayed);
    assert_eq!(names(&a, "/d"), ["u", "x2"]);
    assert_eq!(names(&a, "/e"), ["y"]);
    touch(&a, "/e/z");
    a.unmount().unwrap();
    b.unmount().unwrap();
    let c = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    assert_eq!(names(&c, "/e"), ["y", "z"]);
    c.unmount().unwrap();
    assert_fsck_clean(&k);
}

/// (c) B's creates link new log pages: the log changed shape, the kernel
/// records no delta and A rebuilds.
#[test]
fn a_create_that_links_a_log_page_falls_back() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/d").unwrap();
    touch(&a, "/d/first");
    let dir = a.stat("/d").unwrap().ino;
    hand_over(&a, "/d");
    let mut expect = vec!["first".to_string()];
    for n in 0..130 {
        touch(&b, &format!("/d/b{n}"));
        expect.push(format!("b{n}"));
    }
    hand_over(&b, "/d");
    assert_eq!(revive(&k, &a, "/d", dir), Revival::Rebuilt);
    assert_eq!(names(&a, "/d"), sorted(expect));
    assert_fsck_clean(&k);
}

/// (d) After B's failed release the kernel rolled back and recorded no
/// delta: A, which released at the generation before B's clean turn, must
/// rebuild even though PM holds exactly what it last replayed.
#[test]
fn a_rollback_between_turns_leaves_no_delta() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/d").unwrap();
    touch(&a, "/d/x");
    let dir = a.stat("/d").unwrap().ino;
    hand_over(&a, "/d");
    touch(&b, "/d/w");
    hand_over(&b, "/d");
    assert_eq!(revive(&k, &a, "/d", dir), Revival::Replayed);
    hand_over(&a, "/d");
    assert_eq!(revive(&k, &b, "/d", dir), Revival::Kept);
    touch(&b, "/d/doomed");
    k.device()
        .write_u64(k.geometry().inode_offset(dir) + format::I_SIZE, 17)
        .unwrap();
    assert!(b.release_path("/d").is_err());
    b.release_path("/").unwrap();
    assert_eq!(revive(&k, &a, "/d", dir), Revival::Rebuilt);
    assert_eq!(names(&a, "/d"), ["w", "x"]);
    hand_over(&a, "/d");
    assert_eq!(names(&b, "/d"), ["w", "x"]);
    oracle(&b, "/d");
    assert_fsck_clean(&k);
}

/// (e) Two ways for the delta's `from` to miss: releases inside a trust
/// group (each advances the generation unverified), and a commit between
/// the other side's grant and its release — unless nothing changed after
/// the commit, when the commit's own delta is still the current one.
#[test]
fn trust_groups_and_commits_start_deltas_elsewhere() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    let c = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    k.create_trust_group(&[a.id(), b.id()]).unwrap();
    c.mkdir("/d").unwrap();
    touch(&c, "/d/c0");
    let dir = c.stat("/d").unwrap().ino;
    hand_over(&c, "/d");
    touch(&a, "/d/a0");
    touch(&b, "/d/b0"); // co-owned
    hand_over(&a, "/d"); // intra-group: unverified
    hand_over(&b, "/d"); // the boundary: verified, several steps
    assert_eq!(revive(&k, &c, "/d", dir), Revival::Rebuilt);
    assert_eq!(names(&c, "/d"), ["a0", "b0", "c0"]);
    hand_over(&c, "/d");

    // Outside the group: commit, then change, then release. (Four
    // residents give every tail a page: B's creates append in place.)
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/d").unwrap();
    for n in ["x", "r1", "r2", "r3"] {
        touch(&a, &format!("/d/{n}"));
    }
    let dir = a.stat("/d").unwrap().ino;
    hand_over(&a, "/d");
    touch(&b, "/d/w");
    b.commit_path("/d").unwrap();
    touch(&b, "/d/v");
    hand_over(&b, "/d");
    assert_eq!(revive(&k, &a, "/d", dir), Revival::Rebuilt);
    hand_over(&a, "/d");
    // Commit, then release unchanged: the commit's step is the last one.
    touch(&b, "/d/u");
    b.commit_path("/d").unwrap();
    hand_over(&b, "/d");
    assert_eq!(revive(&k, &a, "/d", dir), Revival::Replayed);
    assert_eq!(names(&a, "/d"), ["r1", "r2", "r3", "u", "v", "w", "x"]);
    assert_fsck_clean(&k);
}

/// (f) Three applications round-robin: each delta covers only the step of
/// the application just before, so the next one never finds its own `from`.
#[test]
fn a_third_application_falls_back() {
    let k = kernel();
    let apps: Vec<Arc<LibFs>> = (0..3)
        .map(|_| LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap())
        .collect();
    apps[0].mkdir("/d").unwrap();
    for i in 0..20 {
        touch(&apps[0], &format!("/d/r{i}"));
    }
    let dir = apps[0].stat("/d").unwrap().ino;
    hand_over(&apps[0], "/d");
    let mut expect: Vec<String> = (0..20).map(|i| format!("r{i}")).collect();
    for turn in 1..10 {
        let fs = &apps[turn % 3];
        assert_eq!(revive(&k, fs, "/d", dir), Revival::Rebuilt, "turn {turn}");
        for n in 0..4 {
            touch(fs, &format!("/d/n{n}"));
        }
        for n in 0..4 {
            fs.unlink(&format!("/d/n{n}")).unwrap();
        }
        touch(fs, &format!("/d/t{turn}"));
        expect.push(format!("t{turn}"));
        hand_over(fs, "/d");
    }
    assert_eq!(names(&apps[1], "/d"), sorted(expect));
    assert_fsck_clean(&k);
}

/// (i) A number freed and recycled into a new directory starts from a
/// generation no release of its past life reported, so a delta of the new
/// life never has A's `from`.
#[test]
fn a_recycled_number_is_never_replayed() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/old").unwrap();
    touch(&a, "/old/gone");
    a.unlink("/old/gone").unwrap();
    let ino = a.stat("/old").unwrap().ino;
    hand_over(&a, "/old");
    b.rmdir("/old").unwrap();
    b.unmount().unwrap();
    let c = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    let reborn = (0..4096)
        .map(|i| format!("/new{i}"))
        .find(|p| {
            c.mkdir(p).unwrap();
            c.stat(p).unwrap().ino == ino
        })
        .expect("the freed number comes around again");
    touch(&c, &format!("{reborn}/inside"));
    c.unmount().unwrap();
    let d = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    touch(&d, &format!("{reborn}/more")); // one verified step of the new life
    d.unmount().unwrap();
    assert_eq!(revive(&k, &a, &reborn, ino), Revival::Rebuilt);
    assert_eq!(names(&a, &reborn), ["inside", "more"]);
    a.unmount().unwrap();
    assert_fsck_clean(&k);
}

/// Number of 128-byte records that differ between two images of one log.
fn changed_records(then: &[(u64, Vec<u8>)], now: &[(u64, Vec<u8>)]) -> u64 {
    assert_eq!(
        then.iter().map(|p| p.0).collect::<Vec<_>>(),
        now.iter().map(|p| p.0).collect::<Vec<_>>(),
        "same pages"
    );
    let rec = format::DENTRY_SIZE as usize;
    then.iter()
        .zip(now)
        .flat_map(|((_, t), (_, n))| t.chunks(rec).zip(n.chunks(rec)))
        .filter(|(t, n)| t != n)
        .count() as u64
}

/// The benchmark's turn on a 100-resident directory: after warm-up the
/// acquiring create reads the inode record, each changed slot once, and at
/// most a page of slack — not the directory's log pages (at the parent
/// commit it read all four of them).
#[test]
fn handoff_reads_only_changed_slots() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/dir100").unwrap();
    for i in 0..100 {
        touch(&a, &format!("/dir100/r{i}"));
    }
    let dir = a.stat("/dir100").unwrap().ino;
    hand_over(&a, "/dir100");
    let turn = |fs: &LibFs, first_done: bool| {
        for n in usize::from(first_done)..4 {
            touch(fs, &format!("/dir100/n{n}"));
        }
        for n in 0..4 {
            fs.unlink(&format!("/dir100/n{n}")).unwrap();
        }
        hand_over(fs, "/dir100");
    };
    let apps = [&b, &a];
    let mut released = [dir_image(&k, dir).1, dir_image(&k, dir).1];
    for t in 0..6 {
        turn(apps[t % 2], false);
        released[t % 2] = dir_image(&k, dir).1;
    }
    for t in 0..6 {
        let fs = apps[t % 2];
        fs.stat("/").unwrap();
        let changed = changed_records(&released[t % 2], &dir_image(&k, dir).1);
        assert!(
            changed > 0 && changed <= 8,
            "turn {t}: {changed} records changed"
        );
        let before = bytes_read(&k);
        touch(fs, "/dir100/n0");
        let cost = bytes_read(&k) - before;
        let bound = format::INODE_SIZE + changed * format::DENTRY_SIZE + PAGE;
        assert!(
            cost <= bound,
            "turn {t}: the acquiring create read {cost} B for {changed} changed slots (bound {bound})"
        );
        oracle(fs, "/dir100");
        turn(fs, true);
        released[t % 2] = dir_image(&k, dir).1;
    }
    a.unmount().unwrap();
    let expect: Vec<String> = sorted((0..100).map(|i| format!("r{i}")).collect());
    assert_eq!(names(&b, "/dir100"), expect);
    b.unmount().unwrap();
    assert_fsck_clean(&k);
}

/// A first sight of a directory used to start the LibFS's sequence counter
/// at the inode's `seq` word — never written, so 0 — instead of above the
/// log. Its records then ranked below every record already there: a name it
/// created again after the other application's create-and-unlink lost to
/// that old tombstone in the next rebuild, which "repaired" the live record
/// away. (A revival always took the log's highest number; only the first
/// sight did not.)
#[test]
fn a_first_sight_numbers_its_records_above_the_log() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/d").unwrap();
    for i in 0..8 {
        touch(&a, &format!("/d/r{i}"));
    }
    // Two tombstones named `x`, the later one on top of the free-slot stack.
    touch(&a, "/d/x");
    touch(&a, "/d/f");
    a.unlink("/d/x").unwrap();
    a.unlink("/d/f").unwrap();
    touch(&a, "/d/x");
    a.unlink("/d/x").unwrap();
    hand_over(&a, "/d");
    touch(&b, "/d/x"); // B's first sight of /d
    hand_over(&b, "/d");
    let c = LibFs::mount(k.clone(), Config::arckfs_plus(), 0).unwrap();
    assert!(
        names(&c, "/d").contains(&"x".to_string()),
        "B's x ranked below A's tombstone"
    );
    oracle(&c, "/d");
    c.unmount().unwrap();
    assert_fsck_clean(&k);
}

/// B unlinks a file A still holds: the name goes through B's directory, A's
/// grant of the file stays, and the freed number lands in B's inode pool.
/// B's next create used to remap that number (`Kernel::fresh_mapping`
/// checked no ownership) and give it to a new file while A still held the
/// old one. (A's *data pages* go back through B's page pool the same way —
/// ROADMAP item 3 — so this test does not write through A's descriptor.)
#[test]
fn a_number_another_application_holds_is_not_reused() {
    let (k, a, b) = two_apps(Config::arckfs_plus());
    a.mkdir("/d").unwrap();
    a.write_file("/d/f", b"a's").unwrap();
    let fd = a.open("/d/f", vfs::OpenFlags::rw()).unwrap();
    let held = a.fstat(fd).unwrap().ino;
    hand_over(&a, "/d");
    b.unlink("/d/f").unwrap();
    assert!(k.owns(a.id(), held), "A still holds the file");
    for n in 0..4 {
        touch(&b, &format!("/d/n{n}"));
        assert_ne!(b.stat(&format!("/d/n{n}")).unwrap().ino, held);
    }
    a.close(fd).unwrap();
    b.unmount().unwrap();
    assert_fsck_clean(&k);
}
