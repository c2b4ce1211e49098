//! Direct tests of the kernel substrate: grants, ownership, mappings,
//! verification outcomes and rollback — without a LibFS on top, by writing
//! core state by hand through the granted mappings.

use std::sync::Arc;

use pmem::PmemDevice;
use trio::format::{
    self, mode, Geometry, InodeType, DENTRY_SIZE, DIRPAGE_FIRST_DENTRY, D_INO, D_MARKER, D_NAME,
    D_SEQ, I_DIRECT, I_MARKER, I_MODE, I_NTAILS, I_SIZE, I_TYPE, I_UID,
};
use trio::{Kernel, KernelConfig, LibFsId, ROOT_INO};
use vfs::FsError;

const DEV: usize = 32 << 20;

fn kernel(config: KernelConfig) -> Arc<Kernel> {
    let device = PmemDevice::new(DEV);
    let geom = Geometry::for_device(DEV);
    Kernel::format(device, geom, config).expect("format")
}

/// Hand-write a committed inode record through a mapping.
fn write_inode(m: &pmem::Mapping, geom: &Geometry, ino: u64, itype: InodeType) {
    let base = geom.inode_offset(ino);
    m.write_u32(base + I_TYPE, itype.to_raw()).unwrap();
    m.write_u32(base + I_MODE, mode::RW_ALL).unwrap();
    m.write_u32(base + I_UID, 0).unwrap();
    if itype == InodeType::Directory {
        m.write_u32(base + I_NTAILS, 1).unwrap();
    }
    m.write_u64(base + I_SIZE, 0).unwrap();
    m.clwb(base, 256).unwrap();
    m.sfence();
    m.write_u64(base + I_MARKER, ino).unwrap();
    m.clwb(base, 8).unwrap();
    m.sfence();
}

/// Hand-append a dentry to a directory whose tail 0 heads at `page`.
fn write_dentry(m: &pmem::Mapping, page: u64, slot: u64, name: &str, child: u64) {
    let off = page * pmem::PAGE_SIZE as u64 + DIRPAGE_FIRST_DENTRY + slot * DENTRY_SIZE;
    m.write_u64(off + D_INO, child).unwrap();
    m.write_u64(off + D_SEQ, slot + 1).unwrap();
    m.write(off + D_NAME, name.as_bytes()).unwrap();
    m.clwb(off, 128).unwrap();
    m.sfence();
    m.write_u16(off + D_MARKER, name.len() as u16).unwrap();
    m.clwb(off, 64).unwrap();
    m.sfence();
}

/// Set up: LibFS acquires the root, creates one child file "f" by hand.
/// Returns (kernel, libfs id, root mapping, child ino, tail page).
fn setup_one_child() -> (Arc<Kernel>, LibFsId, pmem::Mapping, u64, u64) {
    let k = kernel(KernelConfig::arckfs_plus());
    let geom = *k.geometry();
    let (id, _base) = k.register_libfs(0);
    let grant = k.acquire(id, ROOT_INO).unwrap();
    let m = grant.mapping;

    let child = k.grant_inodes(id, 1).unwrap()[0];
    let page = k.grant_pages(id, 1).unwrap()[0];
    // Zero the page so unwritten slots read as holes.
    m.write(page * pmem::PAGE_SIZE as u64, &vec![0u8; pmem::PAGE_SIZE])
        .unwrap();
    m.clwb(page * pmem::PAGE_SIZE as u64, pmem::PAGE_SIZE)
        .unwrap();
    m.sfence();

    write_inode(&m, &geom, child, InodeType::Regular);
    // Link the page as root's tail 0 head and add the dentry.
    let root_base = geom.inode_offset(ROOT_INO);
    m.write_u64(root_base + I_DIRECT, page).unwrap();
    m.clwb(root_base + I_DIRECT, 8).unwrap();
    m.sfence();
    write_dentry(&m, page, 0, "f", child);
    m.write_u64(root_base + I_SIZE, 1).unwrap();
    m.clwb(root_base + I_SIZE, 8).unwrap();
    m.sfence();
    (k, id, m, child, page)
}

#[test]
fn release_verifies_handwritten_state() {
    let (k, id, _m, child, _page) = setup_one_child();
    k.release(id, ROOT_INO).unwrap();
    assert_eq!(k.stats().snapshot().verify_failures, 0);
    // The child is registered with the right parent.
    let entry = k.shadow_entry(child).expect("child registered");
    assert_eq!(entry.parent, ROOT_INO);
    assert_eq!(entry.itype, InodeType::Regular);
    assert_eq!(k.verified_children(ROOT_INO).get("f"), Some(&child));
}

#[test]
fn release_unmaps_the_grant() {
    let (k, id, m, _child, _page) = setup_one_child();
    k.release(id, ROOT_INO).unwrap();
    assert!(m.read_u64(0).is_err(), "mapping must be invalidated");
    assert!(!k.owns(id, ROOT_INO));
}

#[test]
fn commit_keeps_ownership_and_mapping() {
    let (k, id, m, child, _page) = setup_one_child();
    k.commit(id, ROOT_INO).unwrap();
    assert!(k.owns(id, ROOT_INO));
    assert!(m.read_u64(0).is_ok(), "commit must not unmap");
    assert!(k.shadow_entry(child).is_some());
}

#[test]
fn corrupt_dentry_name_fails_and_rolls_back() {
    let (k, id, m, _child, page) = setup_one_child();
    k.commit(id, ROOT_INO).unwrap();
    // Corrupt the committed dentry: marker says 60 bytes, name has 1.
    let off = page * pmem::PAGE_SIZE as u64 + DIRPAGE_FIRST_DENTRY;
    m.write_u16(off + D_MARKER, 60).unwrap();
    m.sfence();
    let err = k.release(id, ROOT_INO).unwrap_err();
    assert!(matches!(err, FsError::VerificationFailed { .. }), "{err:?}");
    // Rollback restored the record.
    let d = format::read_dentry(k.device(), off).unwrap();
    assert_eq!(d.marker, 1);
    assert_eq!(d.name_str(), Some("f"));
}

#[test]
fn dentry_to_uncommitted_inode_rejected() {
    let (k, id, m, _child, page) = setup_one_child();
    // Add a second dentry pointing at an inode that was never committed.
    write_dentry(&m, page, 1, "ghost", 777);
    let root_base = k.geometry().inode_offset(ROOT_INO);
    m.write_u64(root_base + I_SIZE, 2).unwrap();
    m.sfence();
    let err = k.release(id, ROOT_INO).unwrap_err();
    match err {
        FsError::VerificationFailed { reason, .. } => {
            assert!(reason.contains("uncommitted"), "{reason}");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn duplicate_names_rejected() {
    let (k, id, m, child, page) = setup_one_child();
    write_dentry(&m, page, 1, "f", child);
    let root_base = k.geometry().inode_offset(ROOT_INO);
    m.write_u64(root_base + I_SIZE, 2).unwrap();
    m.sfence();
    let err = k.release(id, ROOT_INO).unwrap_err();
    assert!(
        matches!(err, FsError::VerificationFailed { ref reason, .. } if reason.contains("duplicate")),
        "{err:?}"
    );
}

#[test]
fn size_mismatch_rejected() {
    let (k, id, m, _child, _page) = setup_one_child();
    let root_base = k.geometry().inode_offset(ROOT_INO);
    m.write_u64(root_base + I_SIZE, 5).unwrap();
    m.sfence();
    let err = k.release(id, ROOT_INO).unwrap_err();
    assert!(
        matches!(err, FsError::VerificationFailed { ref reason, .. } if reason.contains("size")),
        "{err:?}"
    );
}

#[test]
fn acquire_requires_read_permission() {
    let k = kernel(KernelConfig::arckfs_plus());
    let (owner, _m) = k.register_libfs(0);
    let grant = k.acquire(owner, ROOT_INO).unwrap();
    let geom = *k.geometry();

    // Hand-create a directory only uid 0 can read.
    let child = k.grant_inodes(owner, 1).unwrap()[0];
    let page = k.grant_pages(owner, 1).unwrap()[0];
    let m = grant.mapping;
    m.write(page * pmem::PAGE_SIZE as u64, &vec![0u8; pmem::PAGE_SIZE])
        .unwrap();
    let base = geom.inode_offset(child);
    m.write_u32(base + I_TYPE, InodeType::Directory.to_raw())
        .unwrap();
    m.write_u32(base + I_MODE, mode::OWNER_R | mode::OWNER_W)
        .unwrap();
    m.write_u32(base + I_UID, 0).unwrap();
    m.write_u32(base + I_NTAILS, 1).unwrap();
    m.write_u64(base + I_MARKER, child).unwrap();
    let root_base = geom.inode_offset(ROOT_INO);
    m.write_u64(root_base + I_DIRECT, page).unwrap();
    write_dentry(&m, page, 0, "private", child);
    m.write_u64(root_base + I_SIZE, 1).unwrap();
    m.sfence();
    k.release(owner, ROOT_INO).unwrap();
    k.release(owner, child).unwrap();

    let (stranger, _m2) = k.register_libfs(42);
    assert_eq!(
        k.acquire(stranger, child).unwrap_err(),
        FsError::PermissionDenied
    );
    // The owner itself may re-acquire.
    assert!(k.acquire(owner, child).is_ok());
}

#[test]
fn acquire_unknown_inode_is_not_found() {
    let k = kernel(KernelConfig::arckfs_plus());
    let (id, _m) = k.register_libfs(0);
    assert_eq!(k.acquire(id, 999).unwrap_err(), FsError::NotFound);
}

#[test]
fn double_release_is_not_owner() {
    let k = kernel(KernelConfig::arckfs_plus());
    let (id, _m) = k.register_libfs(0);
    k.acquire(id, ROOT_INO).unwrap();
    k.release(id, ROOT_INO).unwrap();
    assert!(matches!(
        k.release(id, ROOT_INO).unwrap_err(),
        FsError::NotOwner { .. }
    ));
}

#[test]
fn grants_are_disjoint_across_libfses() {
    let k = kernel(KernelConfig::arckfs_plus());
    let (a, _ma) = k.register_libfs(0);
    let (b, _mb) = k.register_libfs(0);
    let ia = k.grant_inodes(a, 100).unwrap();
    let ib = k.grant_inodes(b, 100).unwrap();
    let pa = k.grant_pages(a, 100).unwrap();
    let pb = k.grant_pages(b, 100).unwrap();
    assert!(ia.iter().all(|i| !ib.contains(i)), "inode grants overlap");
    assert!(pa.iter().all(|p| !pb.contains(p)), "page grants overlap");
}

#[test]
fn freed_inode_release_reclaims_shadow() {
    let (k, id, m, child, page) = setup_one_child();
    k.commit(id, ROOT_INO).unwrap();
    assert!(k.shadow_entry(child).is_some());
    // Tombstone the dentry and free the inode, as an unlink does.
    let off = page * pmem::PAGE_SIZE as u64 + DIRPAGE_FIRST_DENTRY;
    m.write(off + format::D_DELETED, &[1]).unwrap();
    m.write_u64(k.geometry().inode_offset(child), 0).unwrap();
    let root_base = k.geometry().inode_offset(ROOT_INO);
    m.write_u64(root_base + I_SIZE, 0).unwrap();
    m.sfence();
    k.release(id, ROOT_INO).unwrap();
    assert!(k.shadow_entry(child).is_none(), "shadow entry reclaimed");
    assert!(k.verified_children(ROOT_INO).is_empty());
}

#[test]
fn arckfs_kernel_rejects_lease_calls() {
    let k = kernel(KernelConfig::arckfs());
    let (id, _m) = k.register_libfs(0);
    assert!(matches!(
        k.rename_lease_acquire(id).unwrap_err(),
        FsError::InvalidArgument(_)
    ));
}

#[test]
fn lease_is_exclusive_between_libfses() {
    let k = kernel(KernelConfig::arckfs_plus());
    let (a, _ma) = k.register_libfs(0);
    let (b, _mb) = k.register_libfs(0);
    let t = k.rename_lease_acquire(a).unwrap();
    assert_eq!(k.rename_lease_acquire(b).unwrap_err(), FsError::Busy);
    k.rename_lease_release(a, t).unwrap();
    assert!(k.rename_lease_acquire(b).is_ok());
}

#[test]
fn unregistered_libfs_can_neither_take_nor_return_resources() {
    let k = kernel(KernelConfig::arckfs_plus());
    let (a, _ma) = k.register_libfs(0);
    let stranger = LibFsId(9999);
    assert!(k.grant_pages(stranger, 1).is_err());
    assert!(k.grant_inodes(stranger, 1).is_err());

    let pages = k.grant_pages(a, 4).unwrap();
    assert!(matches!(
        k.return_pages(stranger, &pages),
        Err(FsError::Internal(_))
    ));
    for &p in &pages {
        assert!(k.allocator().is_allocated(p).unwrap());
    }
    let inos = k.grant_inodes(a, 4).unwrap();
    k.return_inodes(stranger, inos.clone());
    for &i in &inos {
        assert!(k.ino_provider().is_allocated(i).unwrap());
    }
    // The holder's own returns still go through.
    k.return_pages(a, &pages).unwrap();
    k.return_inodes(a, inos.clone());
    assert!(!k.allocator().is_allocated(pages[0]).unwrap());
    assert!(!k.ino_provider().is_allocated(inos[0]).unwrap());
}

// ---- hand-off: retained images, content generations (DESIGN.md §14) --------

fn bytes_read(k: &Kernel) -> u64 {
    k.device().stats().snapshot().bytes_read
}

/// The satellite-1 bug: `acquire` used to record the caller as owner before
/// taking the snapshot, so a directory whose log cannot be walked left an
/// owner with no grant and everyone else saw `NotOwner` forever.
#[test]
fn failed_acquire_records_no_owner() {
    let (k, id, _m, _child, page) = setup_one_child();
    k.release(id, ROOT_INO).unwrap();
    // Corrupt the log behind the kernel's back, through a LibFS-wide raw
    // mapping: the page's `next` pointer names the page itself. A restarted
    // kernel has nothing retained and must walk PM on the first acquire.
    let (_evil, raw) = k.register_libfs(0);
    raw.write_u64(page * pmem::PAGE_SIZE as u64, page).unwrap();
    raw.clwb(page * pmem::PAGE_SIZE as u64, 8).unwrap();
    raw.sfence();
    let k = Kernel::recover(k.device().clone(), KernelConfig::arckfs_plus()).unwrap();
    let (a, _ma) = k.register_libfs(0);
    let (b, _mb) = k.register_libfs(0);
    let err = k.acquire(a, ROOT_INO).unwrap_err();
    assert!(matches!(err, FsError::Corrupted(_)), "{err:?}");
    assert!(
        !k.owns(a, ROOT_INO),
        "a failed acquire must not leave an owner"
    );
    let err = k.acquire(b, ROOT_INO).unwrap_err();
    assert!(
        matches!(err, FsError::Corrupted(_)),
        "the second LibFS sees the corruption, not a phantom owner: {err:?}"
    );
}

#[test]
fn unchanged_release_keeps_the_generation_and_the_image() {
    let (k, id, _m, _child, _page) = setup_one_child();
    let g1 = k.release(id, ROOT_INO).unwrap();
    assert_ne!(g1, 0);
    // The next acquire takes its snapshot from the retained image: only
    // the inode record is re-read.
    let (other, _mo) = k.register_libfs(0);
    let before = bytes_read(&k);
    let grant = k.acquire(other, ROOT_INO).unwrap();
    assert!(bytes_read(&k) - before < pmem::PAGE_SIZE as u64);
    assert_eq!(grant.generation, g1);
    // Nothing written: the verification still runs, the generation stays.
    let v = k.stats().snapshot().verifications;
    assert_eq!(k.release(other, ROOT_INO).unwrap(), g1);
    assert_eq!(k.stats().snapshot().verifications, v + 1);
}

#[test]
fn every_kind_of_change_advances_the_generation() {
    let (k, id, m, _child, page) = setup_one_child();
    let root_base = k.geometry().inode_offset(ROOT_INO);
    let g1 = k.release(id, ROOT_INO).unwrap();

    // A release whose bytes differ.
    let grant = k.acquire(id, ROOT_INO).unwrap();
    assert_eq!(grant.generation, g1);
    let extra = k.grant_inodes(id, 1).unwrap()[0];
    write_inode(&grant.mapping, k.geometry(), extra, InodeType::Regular);
    write_dentry(&grant.mapping, page, 1, "g", extra);
    grant.mapping.write_u64(root_base + I_SIZE, 2).unwrap();
    let g2 = k.release(id, ROOT_INO).unwrap();
    assert!(g2 > g1);

    // A commit whose bytes differ: the release after it compares against
    // the refreshed snapshot and finds nothing, so the commit must count.
    let grant = k.acquire(id, ROOT_INO).unwrap();
    let off = page * pmem::PAGE_SIZE as u64 + DIRPAGE_FIRST_DENTRY + DENTRY_SIZE;
    grant.mapping.write(off + format::D_DELETED, &[1]).unwrap();
    grant
        .mapping
        .write_u64(k.geometry().inode_offset(extra), 0)
        .unwrap();
    grant.mapping.write_u64(root_base + I_SIZE, 1).unwrap();
    k.commit(id, ROOT_INO).unwrap();
    let g3 = k.release(id, ROOT_INO).unwrap();
    assert!(g3 > g2);

    // A rollback: the rejected bytes were in PM while somebody could look.
    let grant = k.acquire(id, ROOT_INO).unwrap();
    assert_eq!(grant.generation, g3);
    grant.mapping.write_u64(root_base + I_SIZE, 9).unwrap();
    assert!(k.release(id, ROOT_INO).is_err());
    let grant = k.acquire(id, ROOT_INO).unwrap();
    assert!(grant.generation > g3);
    // After the failed verification nothing of the rejected image was kept:
    // the new snapshot is the rolled-back state, so a clean release passes
    // and another bad one rolls back to the same bytes.
    let rolled_back = format::read_inode(k.device(), k.geometry(), ROOT_INO).unwrap();
    assert_eq!(rolled_back.size, 1);
    grant.mapping.write_u64(root_base + I_SIZE, 7).unwrap();
    assert!(k.release(id, ROOT_INO).is_err());
    assert_eq!(
        format::read_inode(k.device(), k.geometry(), ROOT_INO).unwrap(),
        rolled_back
    );
    drop(m);
}

#[test]
fn freeing_an_unowned_directory_drops_its_image() {
    // The owner of a parent may free a child it does not hold (rmdir
    // clears the child's commit marker through the parent's mapping). The
    // child's retained image is then stale: the next grant must notice.
    let k = kernel(KernelConfig::arckfs_plus());
    let geom = *k.geometry();
    let (id, _base) = k.register_libfs(0);
    let root = k.acquire(id, ROOT_INO).unwrap().mapping;
    let dir = k.grant_inodes(id, 1).unwrap()[0];
    let pages = k.grant_pages(id, 2).unwrap();
    for &p in &pages {
        root.write(p * pmem::PAGE_SIZE as u64, &vec![0u8; pmem::PAGE_SIZE])
            .unwrap();
    }
    let file = k.grant_inodes(id, 1).unwrap()[0];
    write_inode(&root, &geom, file, InodeType::Regular);
    write_inode(&root, &geom, dir, InodeType::Directory);
    root.write_u64(geom.inode_offset(dir) + I_DIRECT, pages[1])
        .unwrap();
    write_dentry(&root, pages[1], 0, "inner", file);
    root.write_u64(geom.inode_offset(dir) + I_SIZE, 1).unwrap();
    root.write_u64(geom.inode_offset(ROOT_INO) + I_DIRECT, pages[0])
        .unwrap();
    write_dentry(&root, pages[0], 0, "d", dir);
    root.write_u64(geom.inode_offset(ROOT_INO) + I_SIZE, 1)
        .unwrap();
    k.commit(id, ROOT_INO).unwrap();
    // The release leaves `d` unowned and its image retained.
    let g = k.release(id, dir).unwrap();
    // Through the root mapping (still held): empty `d`, then free it.
    let off = pages[1] * pmem::PAGE_SIZE as u64 + DIRPAGE_FIRST_DENTRY;
    root.write(off + format::D_DELETED, &[1]).unwrap();
    root.write_u64(geom.inode_offset(dir) + I_SIZE, 0).unwrap();
    root.write_u64(geom.inode_offset(dir) + I_MARKER, 0)
        .unwrap();
    // `d` still has a shadow entry (the root was not verified since), so
    // the acquire is granted — from PM, under a new generation.
    let before = bytes_read(&k);
    let grant = k.acquire(id, dir).unwrap();
    assert_ne!(grant.generation, g);
    assert!(bytes_read(&k) - before >= 2 * format::INODE_SIZE);
    let freed = format::read_inode(k.device(), &geom, dir).unwrap();
    assert_eq!(freed.marker, 0);
}

#[test]
fn recover_starts_with_nothing_retained() {
    let (k, id, _m, _child, _page) = setup_one_child();
    k.release(id, ROOT_INO).unwrap();
    let k2 = Kernel::recover(k.device().clone(), KernelConfig::arckfs_plus()).unwrap();
    let (a, _ma) = k2.register_libfs(0);
    let before = bytes_read(&k2);
    let grant = k2.acquire(a, ROOT_INO).unwrap();
    assert!(
        bytes_read(&k2) - before >= pmem::PAGE_SIZE as u64,
        "a restarted kernel snapshots from PM"
    );
    // Generations are per kernel instance and start over; a release on the
    // new kernel reports the grant's value when nothing changed.
    assert_eq!(k2.release(a, ROOT_INO).unwrap(), grant.generation);
}

#[test]
fn trust_group_traffic_never_matches_a_remembered_generation() {
    let (k, a, _m, _child, _page) = setup_one_child();
    let (b, _mb) = k.register_libfs(0);
    k.create_trust_group(&[a, b]).unwrap();
    k.commit(a, ROOT_INO).unwrap();
    // B joins while A holds the root: a co-owned grant.
    let gb = k.acquire(b, ROOT_INO).unwrap().generation;
    // A leaves unverified (B still holds): whatever it is told, the next
    // grant to A — co-owned with B, who may be writing — differs.
    let ga = k.release(a, ROOT_INO).unwrap();
    assert_ne!(ga, gb);
    let ga2 = k.acquire(a, ROOT_INO).unwrap().generation;
    assert_ne!(ga2, ga);
    // Both leave; the last one out is verified. A sole re-acquire by A,
    // then a co-owned one by B, again reports a new value to B.
    k.release(a, ROOT_INO).unwrap();
    let last = k.release(b, ROOT_INO).unwrap();
    assert_eq!(k.acquire(a, ROOT_INO).unwrap().generation, last);
    assert_ne!(k.acquire(b, ROOT_INO).unwrap().generation, last);
}

// ---- inode-number and mapping grants across LibFSes -------------------------

/// `return_inodes` used to free every number it was handed, so a registered
/// LibFS could put a number another LibFS holds back into circulation and
/// the next grant handed it out a second time.
#[test]
fn returning_a_number_another_libfs_holds_never_frees_it() {
    let (k, _a, _m, child, _page) = setup_one_child();
    k.commit(_a, ROOT_INO).unwrap();
    let (b, _mb) = k.register_libfs(0);
    k.return_inodes(b, vec![child]);
    assert!(k.ino_provider().is_allocated(child).unwrap());
    let mut granted = Vec::new();
    while let Ok(batch) = k.grant_inodes(b, 256) {
        granted.extend(batch);
    }
    assert!(granted.len() > 1000, "the pool drained: {}", granted.len());
    assert!(
        !granted.contains(&child),
        "inode {child}, held by A, was granted to B"
    );
    let report = trio::fsck::fsck(k.device()).unwrap();
    assert!(report.is_consistent(), "fsck: {:?}", report.issues);
}

/// A committed number nobody holds — a file its creator released — used to
/// go back into the pool when any registered LibFS returned it, and the
/// next `grant_inodes_mapped` handed it out to be initialised over the live
/// file. An uncommitted number nobody holds (one recycled in a LibFS-local
/// pool) still goes back.
#[test]
fn returning_a_released_committed_number_never_frees_it() {
    let (k, a, _m, child, _page) = setup_one_child();
    k.release(a, ROOT_INO).unwrap();
    k.release(a, child).unwrap();
    assert!(!k.owns(a, child));
    let (b, _mb) = k.register_libfs(0);
    k.return_inodes(b, vec![child]);
    assert!(
        k.ino_provider().is_allocated(child).unwrap(),
        "B freed A's released file {child}"
    );

    let spare = k.grant_inodes(a, 1).unwrap()[0];
    k.release(a, spare).unwrap();
    k.return_inodes(b, vec![spare]);
    assert!(!k.ino_provider().is_allocated(spare).unwrap());
    let report = trio::fsck::fsck(k.device()).unwrap();
    assert!(report.is_consistent(), "fsck: {:?}", report.issues);
}

/// `fresh_mapping` used to check neither registration nor ownership, and
/// it forgets what the kernel knows about the inode: any id could wipe the
/// generation (and delta) another LibFS's next revival relies on.
#[test]
fn fresh_mapping_is_refused_to_strangers_and_for_live_inodes() {
    let (k, a, _m, _child, _page) = setup_one_child();
    let (b, _mb) = k.register_libfs(0);
    let stranger = LibFsId(9999);
    // A holds the root.
    assert!(matches!(
        k.fresh_mapping(stranger, ROOT_INO),
        Err(FsError::Internal(_))
    ));
    assert_eq!(
        k.fresh_mapping(b, ROOT_INO).unwrap_err(),
        FsError::NotOwner { ino: ROOT_INO }
    );
    let g = k.release(a, ROOT_INO).unwrap();
    // Nobody holds it now, but it is committed: no new life may start.
    assert!(k.fresh_mapping(stranger, ROOT_INO).is_err());
    assert_eq!(
        k.fresh_mapping(b, ROOT_INO).unwrap_err(),
        FsError::NotOwner { ino: ROOT_INO }
    );
    assert!(k.fresh_mapping(b, 1 << 40).is_err());
    assert_eq!(
        k.acquire(a, ROOT_INO).unwrap().generation,
        g,
        "A's next revival keeps its index"
    );
    // A number from the caller's own grant is mapped as before.
    let fresh = k.grant_inodes(a, 1).unwrap()[0];
    assert!(k.fresh_mapping(a, fresh).unwrap().is_live());
}

// ---- slot deltas (DESIGN.md §14, "delta replay") ----------------------------

/// Offset of dentry `slot` in a log page.
fn slot_off(page: u64, slot: u64) -> u64 {
    page * pmem::PAGE_SIZE as u64 + DIRPAGE_FIRST_DENTRY + slot * DENTRY_SIZE
}

/// A releases the root at `g1`; B acquires it, appends dentry "g" in slot 1
/// and releases. Returns (kernel, A, B, page, g1, g2).
fn one_verified_step() -> (Arc<Kernel>, LibFsId, LibFsId, u64, u64, u64) {
    let (k, a, _m, _child, page) = setup_one_child();
    let g1 = k.release(a, ROOT_INO).unwrap();
    let (b, _mb) = k.register_libfs(0);
    let grant = k.acquire(b, ROOT_INO).unwrap();
    assert_eq!(grant.generation, g1);
    let extra = k.grant_inodes(b, 1).unwrap()[0];
    write_inode(&grant.mapping, k.geometry(), extra, InodeType::Regular);
    write_dentry(&grant.mapping, page, 1, "g", extra);
    let size = k.geometry().inode_offset(ROOT_INO) + I_SIZE;
    grant.mapping.write_u64(size, 2).unwrap();
    let g2 = k.release(b, ROOT_INO).unwrap();
    assert!(g2 > g1);
    (k, a, b, page, g1, g2)
}

#[test]
fn a_verified_release_hands_the_next_owner_its_changed_slots() {
    let (k, a, b, page, g1, g2) = one_verified_step();
    let grant = k.acquire(a, ROOT_INO).unwrap();
    assert_eq!(grant.generation, g2);
    let delta = grant.delta.expect("a delta");
    assert_eq!((delta.from, delta.to), (g1, g2));
    assert_eq!(delta.slots.len(), 1, "only slot 1 changed");
    assert_eq!(delta.slots[0].0, slot_off(page, 1));
    assert_eq!(
        delta.slots[0].1, [0u8; DENTRY_SIZE as usize],
        "a hole before"
    );
    // An unchanged release keeps the generation, and with it the delta.
    assert_eq!(k.release(a, ROOT_INO).unwrap(), g2);
    let again = k.acquire(b, ROOT_INO).unwrap();
    assert_eq!(again.delta.expect("kept").to, g2);
}

#[test]
fn every_other_generation_step_drops_the_delta() {
    // A rollback.
    let (k, a, _b, _page, _g1, _g2) = one_verified_step();
    let grant = k.acquire(a, ROOT_INO).unwrap();
    let size = k.geometry().inode_offset(ROOT_INO) + I_SIZE;
    grant.mapping.write_u64(size, 9).unwrap();
    assert!(k.release(a, ROOT_INO).is_err());
    assert!(k.acquire(a, ROOT_INO).unwrap().delta.is_none(), "rollback");

    // A co-owned grant.
    let (k, a, b, _page, _g1, _g2) = one_verified_step();
    k.create_trust_group(&[a, b]).unwrap();
    assert!(k.acquire(a, ROOT_INO).unwrap().delta.is_some());
    assert!(k.acquire(b, ROOT_INO).unwrap().delta.is_none(), "co-owner");

    // A restarted kernel.
    let (k, _a, _b, _page, _g1, _g2) = one_verified_step();
    let k = Kernel::recover(k.device().clone(), KernelConfig::arckfs_plus()).unwrap();
    let (c, _mc) = k.register_libfs(0);
    assert!(k.acquire(c, ROOT_INO).unwrap().delta.is_none(), "recover");
}

#[test]
fn a_commit_is_one_step_and_a_release_after_it_another() {
    let (k, a, _m, child, page) = setup_one_child();
    let g1 = k.release(a, ROOT_INO).unwrap();
    let (b, _mb) = k.register_libfs(0);
    let grant = k.acquire(b, ROOT_INO).unwrap();
    let size = k.geometry().inode_offset(ROOT_INO) + I_SIZE;
    let extra = k.grant_inodes(b, 1).unwrap()[0];
    write_inode(&grant.mapping, k.geometry(), extra, InodeType::Regular);
    write_dentry(&grant.mapping, page, 1, "g", extra);
    grant.mapping.write_u64(size, 2).unwrap();
    k.commit(b, ROOT_INO).unwrap();
    // Released unchanged since the commit: the commit's step is the delta.
    let g2 = k.release(b, ROOT_INO).unwrap();
    let grant = k.acquire(b, ROOT_INO).unwrap();
    let delta = grant.delta.clone().expect("the commit's delta");
    assert_eq!((delta.from, delta.to), (g1, g2));
    // Changed after a commit: the release's step starts at the commit.
    k.commit(b, ROOT_INO).unwrap();
    grant
        .mapping
        .write(slot_off(page, 0) + format::D_DELETED, &[1])
        .unwrap();
    grant
        .mapping
        .write_u64(k.geometry().inode_offset(child), 0)
        .unwrap();
    grant.mapping.write_u64(size, 1).unwrap();
    let g3 = k.release(b, ROOT_INO).unwrap();
    let delta = k.acquire(a, ROOT_INO).unwrap().delta.expect("a delta");
    assert_eq!((delta.from, delta.to), (g2, g3));
    assert_eq!(delta.slots.len(), 1);
    assert_eq!(delta.slots[0].0, slot_off(page, 0));
}
