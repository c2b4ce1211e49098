//! POSIX-surface conformance, run identically against every file system in
//! the evaluation (ArckFS, ArckFS+, the verify-per-op profile, and all
//! seven kernel baselines). The benchmark comparisons are only meaningful
//! if all systems implement the same semantics. ArckFS+ also runs with its
//! dentry cache off, so both resolution paths answer every case.

use std::sync::Arc;

use arckfs::Config;
use kernelfs::{KernelFs, Profile};
use vfs::{FileSystem, FsError, FsExt, OpenFlags};

const DEV: usize = 48 << 20;

fn all_file_systems() -> Vec<Arc<dyn FileSystem>> {
    let uncached = Config {
        dcache: false,
        ..Config::arckfs_plus()
    };
    let mut out: Vec<Arc<dyn FileSystem>> = vec![
        arckfs::new_fs(DEV, Config::arckfs()).unwrap().1,
        arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap().1,
        arckfs::new_fs(DEV, uncached).unwrap().1,
        arckfs::new_fs(DEV, Config::verify_per_op()).unwrap().1,
    ];
    for p in Profile::all() {
        out.push(KernelFs::new(DEV, p));
    }
    out
}

fn for_each(test: impl Fn(&dyn FileSystem)) {
    for fs in all_file_systems() {
        test(fs.as_ref());
    }
}

#[test]
fn write_read_round_trip_everywhere() {
    for_each(|fs| {
        fs.write_file("/hello", b"posix says hi").unwrap();
        assert_eq!(
            fs.read_file("/hello").unwrap(),
            b"posix says hi",
            "fs {}",
            fs.fs_name()
        );
    });
}

#[test]
fn enoent_eexist_everywhere() {
    for_each(|fs| {
        let name = fs.fs_name().to_string();
        assert_eq!(
            fs.stat("/missing").unwrap_err(),
            FsError::NotFound,
            "{name}"
        );
        assert_eq!(
            fs.open("/missing", OpenFlags::read()).unwrap_err(),
            FsError::NotFound,
            "{name}"
        );
        fs.create("/dup").unwrap();
        assert_eq!(
            fs.create("/dup").unwrap_err(),
            FsError::AlreadyExists,
            "{name}"
        );
        fs.mkdir("/dupd").unwrap();
        assert_eq!(
            fs.mkdir("/dupd").unwrap_err(),
            FsError::AlreadyExists,
            "{name}"
        );
    });
}

#[test]
fn directory_semantics_everywhere() {
    for_each(|fs| {
        let name = fs.fs_name().to_string();
        fs.mkdir_all("/a/b/c").unwrap();
        fs.write_file("/a/b/c/leaf", b"x").unwrap();
        assert_eq!(fs.rmdir("/a/b").unwrap_err(), FsError::NotEmpty, "{name}");
        assert_eq!(
            fs.unlink("/a/b").unwrap_err(),
            FsError::IsADirectory,
            "{name}"
        );
        assert_eq!(
            fs.rmdir("/a/b/c/leaf").unwrap_err(),
            FsError::NotADirectory,
            "{name}"
        );
        fs.unlink("/a/b/c/leaf").unwrap();
        fs.rmdir("/a/b/c").unwrap();
        fs.rmdir("/a/b").unwrap();
        fs.rmdir("/a").unwrap();
    });
}

#[test]
fn readdir_and_stat_agree_everywhere() {
    for_each(|fs| {
        let name = fs.fs_name().to_string();
        fs.mkdir("/list").unwrap();
        for i in 0..10 {
            fs.write_file(&format!("/list/f{i}"), &vec![1u8; i * 7]).unwrap();
        }
        let entries = fs.readdir("/list").unwrap();
        assert_eq!(entries.len(), 10, "{name}");
        assert_eq!(fs.stat("/list").unwrap().size, 10, "{name}");
        for e in &entries {
            let st = fs.stat(&format!("/list/{}", e.name)).unwrap();
            assert_eq!(st.file_type, vfs::FileType::Regular, "{name}");
        }
    });
}

#[test]
fn rename_semantics_everywhere() {
    for_each(|fs| {
        let name = fs.fs_name().to_string();
        fs.mkdir("/src").unwrap();
        fs.mkdir("/dst").unwrap();
        fs.write_file("/src/f", b"payload").unwrap();
        // Same-dir, then cross-dir.
        fs.rename("/src/f", "/src/g").unwrap();
        fs.rename("/src/g", "/dst/h").unwrap();
        assert_eq!(fs.read_file("/dst/h").unwrap(), b"payload", "{name}");
        assert_eq!(fs.stat("/src/f").unwrap_err(), FsError::NotFound, "{name}");
        assert_eq!(
            fs.rename("/nope", "/dst/x").unwrap_err(),
            FsError::NotFound,
            "{name}"
        );
    });
}

#[test]
fn pread_pwrite_sparse_everywhere() {
    for_each(|fs| {
        let name = fs.fs_name().to_string();
        let fd = fs.open("/sparse", OpenFlags::rw().create()).unwrap();
        fs.write_at(fd, b"tail", 9000).unwrap();
        assert_eq!(fs.stat("/sparse").unwrap().size, 9004, "{name}");
        let mut mid = [0xFFu8; 16];
        assert_eq!(fs.read_at(fd, &mut mid, 4000).unwrap(), 16, "{name}");
        assert_eq!(mid, [0u8; 16], "{name}: holes read as zeroes");
        let mut beyond = [0u8; 4];
        assert_eq!(fs.read_at(fd, &mut beyond, 20_000).unwrap(), 0, "{name}");
        fs.close(fd).unwrap();
    });
}

#[test]
fn truncate_everywhere() {
    for_each(|fs| {
        let name = fs.fs_name().to_string();
        fs.write_file("/t", &vec![9u8; 20_000]).unwrap();
        let fd = fs.open("/t", OpenFlags::rw()).unwrap();
        fs.truncate(fd, 5000).unwrap();
        assert_eq!(fs.stat("/t").unwrap().size, 5000, "{name}");
        // Shrink exposes no stale bytes after re-extension.
        fs.truncate(fd, 12_000).unwrap();
        let mut buf = [0xAAu8; 64];
        fs.read_at(fd, &mut buf, 8000).unwrap();
        assert_eq!(buf, [0u8; 64], "{name}: re-extended region reads zero");
        let data = fs.read_file("/t").unwrap();
        assert!(data[..5000].iter().all(|b| *b == 9), "{name}");
        assert!(data[5000..].iter().all(|b| *b == 0), "{name}: grown tail");
        // A mid-page shrink, then a grow by a write past the EOF: the
        // shrunk page's tail still holds 9s and must read zero.
        fs.truncate(fd, 100).unwrap();
        fs.write_at(fd, b"e", 10_000).unwrap();
        let data = fs.read_file("/t").unwrap();
        assert_eq!(data.len(), 10_001, "{name}");
        assert!(data[..100].iter().all(|b| *b == 9), "{name}");
        assert!(data[100..10_000].iter().all(|b| *b == 0), "{name}: gap");
        fs.close(fd).unwrap();
    });
}

#[test]
fn append_and_fsync_everywhere() {
    for_each(|fs| {
        let name = fs.fs_name().to_string();
        let fd = fs.open("/log", OpenFlags::rw().create()).unwrap();
        assert_eq!(fs.append(fd, b"one").unwrap(), 0, "{name}");
        assert_eq!(fs.append(fd, b"two").unwrap(), 3, "{name}");
        fs.fsync(fd).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.read_file("/log").unwrap(), b"onetwo", "{name}");
    });
}

#[test]
fn descriptor_hygiene_everywhere() {
    for_each(|fs| {
        let name = fs.fs_name().to_string();
        let fd = fs.create("/fdtest").unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.close(fd).unwrap_err(), FsError::BadDescriptor, "{name}");
        let mut b = [0u8; 1];
        assert_eq!(
            fs.read_at(fd, &mut b, 0).unwrap_err(),
            FsError::BadDescriptor,
            "{name}"
        );
    });
}

#[test]
fn invalid_paths_rejected_everywhere() {
    for_each(|fs| {
        let name = fs.fs_name().to_string();
        assert!(fs.create("relative/path").is_err(), "{name}");
        assert!(fs.mkdir("/has/../dots").is_err(), "{name}");
        assert!(fs.stat("/.").is_err(), "{name}");
    });
}

#[test]
fn vectored_io_round_trip_everywhere() {
    for_each(|fs| {
        let name = fs.fs_name().to_string();
        let fd = fs.open("/vec", OpenFlags::rw().create()).unwrap();
        let n = fs
            .write_vectored_at(fd, &[b"head-", b"mid-", b"tail"], 0)
            .unwrap();
        assert_eq!(n, 13, "{name}");
        let mut a = [0u8; 5];
        let mut b = [0u8; 8];
        let n = fs.read_vectored_at(fd, &mut [&mut a, &mut b], 0).unwrap();
        assert_eq!(n, 13, "{name}");
        assert_eq!(&a, b"head-", "{name}");
        assert_eq!(&b, b"mid-tail", "{name}");
        fs.close(fd).unwrap();
        assert_eq!(fs.read_file("/vec").unwrap(), b"head-mid-tail", "{name}");
    });
}

#[test]
fn vectored_append_lands_contiguously() {
    // O_APPEND routing through the positional write entry points is an
    // ArckFS contract (the kernel baselines expose append() only), so
    // this runs on the ArckFS configs rather than everywhere.
    for fs in [
        arckfs::new_fs(DEV, Config::arckfs()).unwrap().1,
        arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap().1,
    ] {
        let name = fs.fs_name().to_string();
        let fd = fs
            .open("/veclog", OpenFlags::rw().create().append())
            .unwrap();
        fs.write_vectored_at(fd, &[b"rec1|", b"payload1;"], 0).unwrap();
        fs.write_vectored_at(fd, &[b"rec2|", b"payload2;"], 0).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(
            fs.read_file("/veclog").unwrap(),
            b"rec1|payload1;rec2|payload2;",
            "{name}"
        );
    }
}

#[test]
fn fallocate_extends_with_zeros_where_supported() {
    for_each(|fs| {
        let name = fs.fs_name().to_string();
        let fd = fs.open("/prealloc", OpenFlags::rw().create()).unwrap();
        fs.write_at(fd, b"x", 0).unwrap();
        match fs.fallocate(fd, 1, 8191) {
            // The kernel baselines may not implement preallocation; the
            // typed refusal is the contract there.
            Err(FsError::Unsupported(_)) => {}
            r => {
                r.unwrap();
                assert_eq!(fs.stat("/prealloc").unwrap().size, 8192, "{name}");
                let data = fs.read_file("/prealloc").unwrap();
                assert_eq!(data.len(), 8192, "{name}");
                assert_eq!(data[0], b'x', "{name}");
                assert!(data[1..].iter().all(|b| *b == 0), "{name}");
            }
        }
        fs.close(fd).unwrap();
    });
}

#[test]
fn boundary_write_returns_typed_file_too_big() {
    // write_at, truncate, and fallocate surface the same typed EFBIG at the
    // extent mapping's block cap — and fallocate does so before any block
    // arithmetic, for a range that wraps u64 or is merely enormous.
    let (_k, fs) = arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap();
    let fd = fs.create("/big").unwrap();
    let off = (1u64 << 32) * 4096;
    assert!(
        matches!(fs.write_at(fd, b"x", off), Err(FsError::FileTooBig { .. })),
        "write_at past the cap"
    );
    for (offset, len) in [(off, 4096), (u64::MAX - 1, 4096), (0, 1 << 60)] {
        assert!(
            matches!(
                fs.fallocate(fd, offset, len),
                Err(FsError::FileTooBig { .. })
            ),
            "fallocate({offset}, {len}) past the cap"
        );
    }
    assert!(
        matches!(fs.truncate(fd, off + 4096), Err(FsError::FileTooBig { .. })),
        "truncate past the cap"
    );
    // Nothing was committed by the refused ops.
    assert_eq!(fs.stat("/big").unwrap().size, 0);
    fs.close(fd).unwrap();
}
