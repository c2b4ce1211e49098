//! Adversarial suite: a malicious LibFS can write anything it likes
//! through its mappings — TRIO's security claim is that *verification at
//! ownership transfer* catches every metadata-integrity violation and
//! rolls it back. Each test performs one class of tampering raw-through-
//! the-mapping and asserts the verifier's verdict.

use std::sync::Arc;

use arckfs::{Config, LibFs};
use pmem::PmemDevice;
use trio::format::{self, mode};
use trio::{Geometry, Kernel, KernelConfig};
use vfs::{FileSystem, FsError, FsExt};

const DEV: usize = 48 << 20;

/// A kernel with a victim-created tree: /pub (world-writable) containing
/// one file, and /ro (read-only to others) containing one file.
fn setup() -> (Arc<Kernel>, Arc<LibFs>) {
    let device = PmemDevice::new(DEV);
    let geom = Geometry::for_device(DEV);
    let kernel = Kernel::format(device, geom, KernelConfig::arckfs_plus()).expect("format");
    let victim = LibFs::mount(kernel.clone(), Config::arckfs_plus(), 2).expect("mount victim");
    victim.mkdir("/pub").expect("mkdir");
    victim.write_file("/pub/file", b"public").expect("write");
    victim
        .create_with_mode("/ro", true, mode::RW_OWNER_RO_OTHER)
        .expect("ro dir");
    victim
        .create_with_mode("/ro/secret", false, mode::RW_OWNER_RO_OTHER)
        .expect("ro file");
    victim.unmount().expect("unmount");
    let attacker = LibFs::mount(kernel.clone(), Config::arckfs_plus(), 1).expect("mount attacker");
    (kernel, attacker)
}

fn expect_verification_failure(r: Result<(), FsError>, what: &str) {
    match r {
        Err(FsError::VerificationFailed { .. }) => {}
        other => panic!("{what}: expected verification failure, got {other:?}"),
    }
}

#[test]
fn flipping_an_inode_type_is_rejected() {
    let (kernel, attacker) = setup();
    let ino = attacker.stat("/pub/file").unwrap().ino;
    let base = kernel.geometry().inode_offset(ino);
    // Acquire the file (mapping it), then flip file -> directory.
    let _ = attacker.open("/pub/file", vfs::OpenFlags::read()).unwrap();
    kernel
        .device()
        .write_u32(base + format::I_TYPE, trio::InodeType::Directory.to_raw())
        .unwrap();
    expect_verification_failure(attacker.release_path("/pub/file"), "type flip");
    // Rolled back: the type is a file again.
    let raw = format::read_inode(kernel.device(), kernel.geometry(), ino).unwrap();
    assert_eq!(raw.inode_type(), Some(trio::InodeType::Regular));
}

#[test]
fn tampering_with_uid_or_mode_is_rejected() {
    let (kernel, attacker) = setup();
    let ino = attacker.stat("/ro/secret").unwrap().ino;
    let base = kernel.geometry().inode_offset(ino);
    let _ = attacker.open("/ro/secret", vfs::OpenFlags::read()).unwrap();
    // Chown-by-poke: make the attacker the owner.
    kernel.device().write_u32(base + format::I_UID, 1).unwrap();
    expect_verification_failure(attacker.release_path("/ro/secret"), "uid tamper");
    let raw = format::read_inode(kernel.device(), kernel.geometry(), ino).unwrap();
    assert_eq!(raw.uid, 2, "ownership restored");

    let _ = attacker.open("/ro/secret", vfs::OpenFlags::read()).unwrap();
    kernel
        .device()
        .write_u32(base + format::I_MODE, mode::RW_ALL)
        .unwrap();
    expect_verification_failure(attacker.release_path("/ro/secret"), "mode tamper");
}

#[test]
fn pointing_a_dentry_at_a_foreign_inode_is_rejected() {
    let (kernel, attacker) = setup();
    // The attacker rewires /pub's dentry for "file" at the read-only
    // secret, attempting to adopt it into a writable directory.
    let pub_ino = attacker.stat("/pub").unwrap().ino;
    let secret_ino = attacker.stat("/ro/secret").unwrap().ino;
    let dir_inode = format::read_inode(kernel.device(), kernel.geometry(), pub_ino).unwrap();
    let mut off = None;
    format::walk_dir_log(kernel.device(), kernel.geometry(), &dir_inode, |d| {
        if d.is_live() {
            off = Some(d.offset);
        }
    })
    .unwrap();
    kernel
        .device()
        .write_u64(off.expect("dentry") + format::D_INO, secret_ino)
        .unwrap();
    // Release /pub: the new child arrives from /ro (a relocation) but the
    // attacker does not own /ro — §4.1 check (1) fires.
    expect_verification_failure(attacker.release_path("/pub"), "foreign adoption");
}

#[test]
fn dentry_to_unallocated_page_region_is_rejected() {
    let (kernel, attacker) = setup();
    let pub_ino = attacker.stat("/pub").unwrap().ino;
    // Point the directory's tail head at an unallocated page.
    let base = kernel.geometry().inode_offset(pub_ino);
    let bogus = kernel.geometry().data_start_page + 5000;
    kernel
        .device()
        .write_u64(base + format::I_DIRECT, bogus)
        .unwrap();
    expect_verification_failure(attacker.release_path("/pub"), "bogus log page");
}

#[test]
fn tampering_with_a_file_block_map_is_rejected() {
    // Each case grows /pub/file through the honest data path (so its inode
    // differs from the acquire-time snapshot and the block map is walked),
    // then forges one piece of the map raw-through-the-device.
    type Tamper = fn(&Kernel, &format::RawInode, u64);
    let cases: [(&str, Tamper); 3] = [
        ("extent run over an unallocated page", |kernel, inode, _| {
            let geom = kernel.geometry();
            let dev = kernel.device();
            let bit_set = |page: u64| {
                let idx = page - geom.data_start_page;
                dev.read_u8(geom.bitmap_offset() + idx / 8).unwrap() & (1 << (idx % 8)) != 0
            };
            let free = (geom.data_start_page..geom.total_pages)
                .rev()
                .find(|&p| !bit_set(p))
                .expect("a free page");
            // Commit a record in the first empty slot of the file's leaf.
            let leaf = geom.page_offset(inode.extent_root);
            let slot = (0..format::EXTENTS_PER_PAGE)
                .map(|s| leaf + format::EXTENT_FIRST_REC + s * format::EXTENT_REC_SIZE)
                .find(|&off| dev.read_u64(off + format::E_LEN).unwrap() == 0)
                .expect("an empty slot");
            dev.write_u64(slot + format::E_FILE_BLOCK, 100).unwrap();
            dev.write_u64(slot + format::E_PAGE, free).unwrap();
            dev.write_u64(slot + format::E_LEN, 1).unwrap();
        }),
        ("extent leaf outside the data region", |kernel, inode, _| {
            let next = kernel.geometry().page_offset(inode.extent_root) + format::EP_NEXT;
            kernel.device().write_u64(next, 1).unwrap(); // the inode table
        }),
        ("non-zero direct word", |kernel, inode, base| {
            // A page the file really owns and that really is allocated:
            // only the reserved-zero rule can object.
            kernel
                .device()
                .write_u64(base + format::I_DIRECT, inode.extent_root)
                .unwrap();
        }),
    ];
    for (what, tamper) in cases {
        let (kernel, attacker) = setup();
        let fd = attacker.open("/pub/file", vfs::OpenFlags::rw()).unwrap();
        attacker.write_at(fd, &[7u8; 8192], 0).unwrap();
        attacker.close(fd).unwrap();
        let ino = attacker.stat("/pub/file").unwrap().ino;
        let inode = format::read_inode(kernel.device(), kernel.geometry(), ino).unwrap();
        assert_ne!(inode.extent_root, 0, "{what}: the file is extent-mapped");
        tamper(&kernel, &inode, kernel.geometry().inode_offset(ino));
        expect_verification_failure(attacker.release_path("/pub/file"), what);
    }
}

#[test]
fn inflating_a_directory_size_is_rejected() {
    let (kernel, attacker) = setup();
    let pub_ino = attacker.stat("/pub").unwrap().ino;
    let base = kernel.geometry().inode_offset(pub_ino);
    kernel
        .device()
        .write_u64(base + format::I_SIZE, 99)
        .unwrap();
    expect_verification_failure(attacker.release_path("/pub"), "size inflation");
}

#[test]
fn smuggling_an_uncommitted_child_is_rejected() {
    let (kernel, attacker) = setup();
    // Forge a dentry referencing an inode that was never committed.
    let pub_ino = attacker.stat("/pub").unwrap().ino;
    let dir_inode = format::read_inode(kernel.device(), kernel.geometry(), pub_ino).unwrap();
    let page = dir_inode.direct[0];
    let slot1 = page * pmem::PAGE_SIZE as u64 + format::DIRPAGE_FIRST_DENTRY + format::DENTRY_SIZE;
    let dev = kernel.device();
    dev.write_u64(slot1 + format::D_INO, 4242).unwrap();
    dev.write(slot1 + format::D_NAME, b"ghost").unwrap();
    dev.write_u16(slot1 + format::D_MARKER, 5).unwrap();
    dev.write_u64(kernel.geometry().inode_offset(pub_ino) + format::I_SIZE, 2)
        .unwrap();
    expect_verification_failure(attacker.release_path("/pub"), "ghost child");
}

#[test]
fn stealing_the_lease_mid_relocation_fails_check_3() {
    // §4.1 check (3): the relocation's per-operation verification requires
    // the LibFS to *hold* the global rename lease. If the lease expires
    // (malicious holder timeout) before the commit, verification fails.
    let device = PmemDevice::new(DEV);
    let geom = Geometry::for_device(DEV);
    let mut kcfg = KernelConfig::arckfs_plus();
    kcfg.lease_timeout = std::time::Duration::from_millis(40);
    let kernel = Kernel::format(device, geom, kcfg).expect("format");
    let fs = LibFs::mount(kernel.clone(), Config::arckfs_plus(), 0).expect("mount");
    fs.mkdir("/a").unwrap();
    fs.mkdir("/b").unwrap();
    fs.mkdir("/a/mover").unwrap();
    fs.commit_path("/").unwrap();
    fs.commit_path("/a").unwrap();

    // Park the rename after it has taken the lease; let the lease expire
    // and another LibFS steal it before the commit runs.
    let gate = arckfs::inject::arm("rename.crossdir.prepared");
    let fs2 = fs.clone();
    let h = std::thread::spawn(move || fs2.rename("/a/mover", "/b/mover"));
    assert!(gate.wait_reached(std::time::Duration::from_secs(10)));
    std::thread::sleep(std::time::Duration::from_millis(60)); // lease expires
    let thief = LibFs::mount(kernel.clone(), Config::arckfs_plus(), 9).expect("mount thief");
    let _stolen = kernel.rename_lease_acquire(thief.id()).expect("steal");
    gate.release();
    let result = h.join().unwrap();
    match result {
        Err(FsError::VerificationFailed { reason, .. }) => {
            assert!(reason.contains("lease"), "{reason}");
        }
        other => panic!("expected check-(3) failure, got {other:?}"),
    }
}

/// Nobody maps an unowned inode, so nobody may write it (DESIGN.md §14);
/// this model's LibFS-wide mapping spans the device, so a malicious LibFS
/// *can* scribble on a directory it has released. The kernel's snapshot for
/// the next owner is the image the last verification accepted, kept in DRAM
/// — not a re-read of PM — so the scribble never becomes anybody's baseline:
/// the next release fails verification and rolls the directory back to the
/// verified bytes. (At the parent commit the acquire re-read PM, the forged
/// record entered the snapshot, and the rollback restored the forgery.)
#[test]
fn scribbling_on_an_unowned_directory_never_becomes_the_baseline() {
    let (kernel, attacker) = setup();
    let pub_ino = attacker.stat("/pub").unwrap().ino;
    let secret_ino = attacker.stat("/ro/secret").unwrap().ino;
    let dir_inode = format::read_inode(kernel.device(), kernel.geometry(), pub_ino).unwrap();
    let mut off = None;
    format::walk_dir_log(kernel.device(), kernel.geometry(), &dir_inode, |d| {
        if d.is_live() {
            off = Some(d.offset);
        }
    })
    .unwrap();
    let ino_field = off.expect("dentry") + format::D_INO;
    let honest = kernel.device().read_u64(ino_field).unwrap();
    // A clean release: the kernel verifies /pub and lets go of it.
    attacker.release_path("/ro/secret").unwrap();
    attacker.release_path("/ro").unwrap();
    attacker.release_path("/pub").unwrap();
    attacker.release_path("/").unwrap();
    // Now, owning nothing, rewire /pub's dentry at the read-only secret.
    kernel.device().write_u64(ino_field, secret_ino).unwrap();

    let bystander = LibFs::mount(kernel.clone(), Config::arckfs_plus(), 3).expect("mount");
    assert!(bystander.stat("/pub").is_ok());
    expect_verification_failure(bystander.release_path("/pub"), "forged adoption");
    assert_eq!(
        kernel.device().read_u64(ino_field).unwrap(),
        honest,
        "the rollback restores the verified record, not the forged one"
    );
    bystander.release_path("/").unwrap();
    let after = LibFs::mount(kernel.clone(), Config::arckfs_plus(), 4).expect("mount");
    assert_eq!(after.read_file("/pub/file").unwrap(), b"public");
    assert!(trio::fsck::fsck(kernel.device()).unwrap().is_consistent());
}

/// A record *before* anything the releasing LibFS appended is tampered with
/// while the directory is owned, in place and without changing the live
/// set's size. A release reads only the granules written since the image it
/// verifies against, but the tampering store flagged its granule like any
/// other store (DESIGN.md §14, "Granule write flags"), so there is no
/// "already verified prefix" to hide in.
#[test]
fn tampering_with_an_old_record_in_place_is_still_caught() {
    let (kernel, attacker) = setup();
    for i in 0..40 {
        let fd = attacker.create(&format!("/pub/pad{i}")).unwrap();
        attacker.close(fd).unwrap();
    }
    attacker.release_path("/pub").unwrap();
    let pub_ino = attacker.stat("/pub").unwrap().ino; // re-acquire, index kept
    let secret_ino = attacker.stat("/ro/secret").unwrap().ino;
    let dir_inode = format::read_inode(kernel.device(), kernel.geometry(), pub_ino).unwrap();
    let mut first = None;
    format::walk_dir_log(kernel.device(), kernel.geometry(), &dir_inode, |d| {
        if d.is_live() && d.name_str() == Some("file") {
            first = Some(d.offset);
        }
    })
    .unwrap();
    let fd = attacker.create("/pub/newest").unwrap();
    attacker.close(fd).unwrap();
    kernel
        .device()
        .write_u64(first.expect("oldest dentry") + format::D_INO, secret_ino)
        .unwrap();
    expect_verification_failure(attacker.release_path("/pub"), "old record rewired");
    // Rolled back to the last verified state: the pads, without `newest`.
    let mut names: Vec<String> = attacker
        .readdir("/pub")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    names.sort();
    let mut expect: Vec<String> = (0..40).map(|i| format!("pad{i}")).collect();
    expect.push("file".into());
    expect.sort();
    assert_eq!(names, expect);
    assert!(trio::fsck::fsck(kernel.device()).unwrap().is_consistent());
}

// ---- delta replay against a hostile previous owner (DESIGN.md §14) ---------
//
// The verifier checks live records; tombstones, holes and sequence numbers
// are the LibFS's business, and the rebuild resolves names by sequence number
// across every record. A log the other side forged within what verification
// accepts must therefore never be replayed into an index a rebuild would not
// build: each case below must fall back, and the index must match a rebuild.

const PAGE: u64 = pmem::PAGE_SIZE as u64;

/// The victim `a` makes `/d` with one resident per log tail plus whatever
/// `prepare` adds, and hands it over; returns (kernel, a, hostile b, /d).
fn replay_setup(prepare: impl Fn(&LibFs)) -> (Arc<Kernel>, Arc<LibFs>, Arc<LibFs>, u64) {
    let device = PmemDevice::new(DEV);
    let kernel = Kernel::format(
        device,
        Geometry::for_device(DEV),
        KernelConfig::arckfs_plus(),
    )
    .expect("format");
    let cfg = Config::arckfs_plus();
    let a = LibFs::mount(kernel.clone(), cfg.clone(), 0).expect("mount a");
    let b = LibFs::mount(kernel.clone(), cfg, 0).expect("mount b");
    a.mkdir("/d").unwrap();
    for i in 0..4 {
        touch(&a, &format!("/d/r{i}"));
    }
    prepare(&a);
    let dir = a.stat("/d").unwrap().ino;
    a.release_path("/d").unwrap();
    a.release_path("/").unwrap();
    (kernel, a, b, dir)
}

fn touch(fs: &LibFs, path: &str) {
    let fd = fs.create(path).unwrap();
    fs.close(fd).unwrap();
}

/// Device offset of the committed record named `name` (live or not).
fn record_of(kernel: &Kernel, dir: u64, name: &str) -> u64 {
    let raw = format::read_inode(kernel.device(), kernel.geometry(), dir).unwrap();
    let mut off = None;
    format::walk_dir_log(kernel.device(), kernel.geometry(), &raw, |d| {
        if d.name_str() == Some(name) {
            off = Some(d.offset);
        }
    })
    .unwrap();
    off.unwrap_or_else(|| panic!("no record '{name}'"))
}

/// `b` releases `/d` (verification passes: only non-live bytes were
/// forged), then `a` takes it back: it must have read the whole log, and
/// its index must be what a rebuild builds. Returns `a`'s names.
fn forged_hand_back(kernel: &Kernel, a: &LibFs, b: &LibFs, dir: u64) -> Vec<String> {
    b.release_path("/d")
        .expect("the forgery passes verification");
    b.release_path("/").unwrap();
    a.stat("/").unwrap();
    let raw = format::read_inode(kernel.device(), kernel.geometry(), dir).unwrap();
    let mut pages = 0;
    format::walk_dir_pages(kernel.device(), kernel.geometry(), &raw, |_| {
        pages += 1;
        Ok(())
    })
    .unwrap();
    let before = kernel.device().stats().snapshot().bytes_read;
    a.stat("/d").unwrap();
    let cost = kernel.device().stats().snapshot().bytes_read - before;
    assert!(cost >= pages * PAGE, "replayed a forged log ({cost} B)");
    a.check_dir_index("/d").unwrap_or_else(|e| panic!("{e}"));
    let mut names: Vec<String> = a
        .readdir("/d")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    names.sort();
    names
}

/// A tombstone rewritten to carry a live name at a higher sequence number:
/// the rebuild ranks it above the live record and drops the name.
#[test]
fn a_forged_tombstone_outranking_a_live_name_is_not_replayed() {
    let (kernel, a, b, dir) = replay_setup(|a| {
        touch(a, "/d/y");
        touch(a, "/d/t");
        a.unlink("/d/t").unwrap();
    });
    b.stat("/d").unwrap();
    let off = record_of(&kernel, dir, "t");
    let dev = kernel.device();
    dev.write(off + format::D_NAME, b"y").unwrap();
    dev.write_u16(off + format::D_MARKER, 1).unwrap();
    dev.write_u64(off + format::D_SEQ, 1000).unwrap();
    let names = forged_hand_back(&kernel, &a, &b, dir);
    assert!(!names.contains(&"y".to_string()), "{names:?}");
}

/// A tombstone rewritten into a second live name for an inode that is live
/// under `r0`, with the size word counting it, so verification passes: the
/// rebuild keeps the newer name, tombstones `r0` and stores the live count,
/// and the next release verifies.
#[test]
fn a_forged_second_name_for_a_live_inode_is_not_replayed() {
    let (kernel, a, b, dir) = replay_setup(|a| {
        touch(a, "/d/t");
        a.unlink("/d/t").unwrap();
    });
    b.stat("/d").unwrap();
    let off = record_of(&kernel, dir, "t");
    let dev = kernel.device();
    let ino = dev
        .read_u64(record_of(&kernel, dir, "r0") + format::D_INO)
        .unwrap();
    dev.write(off + format::D_NAME, b"z").unwrap();
    dev.write_u64(off + format::D_INO, ino).unwrap();
    dev.write_u64(off + format::D_SEQ, 1000).unwrap();
    dev.write(off + format::D_DELETED, &[0]).unwrap();
    dev.write_u16(off + format::D_MARKER, 1).unwrap();
    let size = kernel.geometry().inode_offset(dir) + format::I_SIZE;
    dev.write_u64(size, 5).unwrap();
    let names = forged_hand_back(&kernel, &a, &b, dir);
    assert_eq!(names, ["r1", "r2", "r3", "z"]);
    assert_eq!(dev.read_u64(size).unwrap(), 4);
    a.release_path("/d").unwrap();
}

/// A new live record numbered below an older tombstone of its name: the
/// rebuild ranks the tombstone first and drops the name.
#[test]
fn a_forged_live_record_ranked_below_a_tombstone_is_not_replayed() {
    let (kernel, a, b, dir) = replay_setup(|a| {
        // Two tombstones named `t2`; B's create takes the later one's slot
        // (the top of its free-slot stack) and leaves the earlier one.
        touch(a, "/d/t2");
        touch(a, "/d/f");
        a.unlink("/d/t2").unwrap();
        a.unlink("/d/f").unwrap();
        touch(a, "/d/t2");
        a.unlink("/d/t2").unwrap();
    });
    touch(&b, "/d/n");
    let off = record_of(&kernel, dir, "n");
    assert_ne!(off, record_of(&kernel, dir, "t2"), "a t2 tombstone is left");
    let dev = kernel.device();
    dev.write(off + format::D_NAME, b"t2").unwrap();
    dev.write_u16(off + format::D_MARKER, 2).unwrap();
    dev.write_u64(off + format::D_SEQ, 1).unwrap();
    let names = forged_hand_back(&kernel, &a, &b, dir);
    assert!(!names.contains(&"t2".to_string()), "{names:?}");
}

/// A tombstone turned back into a hole: not a free slot any more, and maybe
/// no longer the end of its page's records.
#[test]
fn a_tombstone_turned_into_a_hole_is_not_replayed() {
    let (kernel, a, b, dir) = replay_setup(|a| {
        touch(a, "/d/t");
        a.unlink("/d/t").unwrap();
    });
    b.stat("/d").unwrap();
    let off = record_of(&kernel, dir, "t");
    kernel
        .device()
        .write_u16(off + format::D_MARKER, 0)
        .unwrap();
    let names = forged_hand_back(&kernel, &a, &b, dir);
    assert_eq!(names, ["r0", "r1", "r2", "r3"]);
    for i in 0..40 {
        touch(&a, &format!("/d/g{i}"));
    }
    a.unmount().unwrap();
    b.unmount().unwrap();
    let c = LibFs::mount(kernel.clone(), Config::arckfs_plus(), 0).unwrap();
    assert_eq!(c.readdir("/d").unwrap().len(), 44);
    assert!(trio::fsck::fsck(kernel.device()).unwrap().is_consistent());
}

/// A reserved word of a directory's inode forged non-zero: no reader gives
/// it a meaning, so the verifier refuses the release instead of leaving the
/// word for a later reader to act on, and the next owner sees every name.
#[test]
fn a_forged_reserved_word_on_a_directory_is_rejected() {
    let (kernel, a, b, dir) = replay_setup(|_| {});
    b.stat("/d").unwrap();
    // The third reserved word, offset 192.
    let word = kernel.geometry().inode_offset(dir) + format::I_RESERVED + 16;
    kernel.device().write_u64(word, 1).unwrap();
    expect_verification_failure(b.release_path("/d"), "reserved word on a directory");
    b.release_path("/").unwrap();
    let mut names: Vec<String> = a
        .readdir("/d")
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    names.sort();
    assert_eq!(names, ["r0", "r1", "r2", "r3"]);
    a.check_dir_index("/d").unwrap_or_else(|e| panic!("{e}"));
    let report = trio::fsck::fsck(kernel.device()).unwrap();
    assert!(report.is_consistent(), "{report:?}");
}

/// A hostile LibFS links a log page of one directory into the chain of
/// another it also holds, and forges a record on that page. The first
/// release accepts the page (its live records are legal there) and so takes
/// the page's granule write flags; the second directory's release must not
/// read the cleared flags as "nothing written since my image": the last
/// capture of the page was not its own, so it reads the page whole and finds
/// the forged record's name live twice (DESIGN.md §14, "Granule write
/// flags").
#[test]
fn a_log_page_linked_into_two_directories_is_read_by_both() {
    // r0..r3 take one tail each; `dup` lands on tail 0's page again.
    let (kernel, _a, b, x) = replay_setup(|a| {
        touch(a, "/d/dup");
        a.mkdir("/y").unwrap();
        a.commit_path("/").unwrap();
        a.release_path("/y").unwrap();
    });
    let (geom, dev) = (kernel.geometry(), kernel.device());
    let y = b.stat("/y").unwrap().ino;
    b.stat("/d").unwrap();
    let page = format::read_inode(dev, geom, x).unwrap().direct[1];
    let dup = record_of(&kernel, x, "dup");
    assert_ne!(dup / PAGE, page, "dup lives on another page");
    let raw = format::read_inode(dev, geom, x).unwrap();
    let mut resident = 0;
    format::walk_dir_pages(dev, geom, &raw, |p| {
        if p.page == page {
            p.dentries(|d| resident += u64::from(d.is_live()));
        }
        Ok(())
    })
    .unwrap();
    // Forge `dup` in the page's first hole, naming `dup`'s own target.
    let hole = (0..format::DENTRIES_PER_PAGE)
        .map(|s| page * PAGE + format::DIRPAGE_FIRST_DENTRY + s * format::DENTRY_SIZE)
        .find(|&off| dev.read_u16(off + format::D_MARKER).unwrap() == 0)
        .expect("a hole");
    let target = dev.read_u64(dup + format::D_INO).unwrap();
    dev.write_u64(hole + format::D_INO, target).unwrap();
    dev.write_u64(hole + format::D_SEQ, 1 << 20).unwrap();
    dev.write(hole + format::D_NAME, b"dup").unwrap();
    dev.write_u16(hole + format::D_MARKER, 3).unwrap();
    // Link the page as `/y`'s only log page, sized to what is live there.
    let ybase = geom.inode_offset(y);
    dev.write_u64(ybase + format::I_DIRECT, page).unwrap();
    dev.write_u64(ybase + format::I_SIZE, resident + 1).unwrap();
    b.release_path("/y")
        .expect("every live record on the page is legal in /y");
    let before = dev.stats().snapshot().bytes_read;
    expect_verification_failure(b.release_path("/d"), "a page another capture took");
    assert!(
        dev.stats().snapshot().bytes_read - before >= PAGE,
        "the shared page was not read"
    );
}
