//! Randomized concurrency stress: many threads hammer mixed operations on
//! ArckFS+ while invariants are checked continuously and the device must
//! fsck clean afterwards. The paper's conclusion calls for exactly this:
//! "such systems should employ best practices to ensure correctness by,
//! e.g., employing rigorous stress testing protocols".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use arckfs::{Config, LibFs};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use trio::fsck::fsck;
use vfs::{FileSystem, FsError, FsExt, OpenFlags};

const DEV: usize = 64 << 20;

fn is_acceptable(e: &FsError) -> bool {
    // Concurrent mixed ops race on names: existence errors are expected.
    matches!(
        e,
        FsError::NotFound | FsError::AlreadyExists | FsError::NotEmpty | FsError::WouldCycle
    )
}

#[test]
fn mixed_ops_stress_shared_dir() {
    for dcache in [true, false] {
        mixed_ops_stress(Config {
            dcache,
            ..Config::arckfs_plus()
        });
    }
}

fn mixed_ops_stress(config: Config) {
    let (kernel, fs) = arckfs::new_fs(DEV, config).unwrap();
    fs.mkdir("/s").unwrap();
    let faults = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for t in 0..6u64 {
            let fs = fs.clone();
            let faults = faults.clone();
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t);
                for i in 0..400 {
                    let name = format!("/s/n{}", rng.gen_range(0..40));
                    let r: Result<(), FsError> = match i % 5 {
                        0 => fs.create(&name).and_then(|fd| fs.close(fd)),
                        1 => fs.unlink(&name),
                        2 => fs.stat(&name).map(|_| ()),
                        3 => fs.readdir("/s").map(|_| ()),
                        _ => {
                            let other = format!("/s/n{}", rng.gen_range(0..40));
                            fs.rename(&name, &other)
                        }
                    };
                    match r {
                        Ok(()) => {}
                        Err(e) if is_acceptable(&e) => {}
                        Err(e) => {
                            eprintln!("thread {t}: unexpected {e}");
                            faults.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(faults.load(Ordering::Relaxed), 0, "no faults under stress");

    // Invariants: dir size == live entries == readdir count; the kernel
    // verifies everything at unmount; the device fscks clean.
    let listed = fs.readdir("/s").unwrap().len() as u64;
    assert_eq!(fs.stat("/s").unwrap().size, listed);
    fs.unmount().unwrap();
    assert_eq!(kernel.stats().snapshot().verify_failures, 0);
    let report = fsck(kernel.device()).unwrap();
    assert!(report.is_consistent(), "{:?}", report.issues);
}

#[test]
fn concurrent_release_storm_with_fixes_never_faults() {
    // §4.3's pattern at scale: writers keep creating while another thread
    // keeps releasing the directory. With all patches on, no operation may
    // fault — it either completes or transparently re-acquires. The
    // dentry cache is off here, so every lookup takes the locked walk;
    // `dcache_coherence.rs` runs the same storm with it on.
    let config = Config {
        dcache: false,
        ..Config::arckfs_plus()
    };
    let (kernel, fs) = arckfs::new_fs(DEV, config).unwrap();
    fs.mkdir("/hot").unwrap();
    fs.commit_path("/").unwrap();

    std::thread::scope(|s| {
        for t in 0..3u64 {
            let fs = fs.clone();
            s.spawn(move || {
                for i in 0..150 {
                    fs.create(&format!("/hot/w{t}-{i}"))
                        .and_then(|fd| fs.close(fd))
                        .unwrap_or_else(|e| panic!("writer {t} op {i}: {e}"));
                }
            });
        }
        let fs = fs.clone();
        s.spawn(move || {
            for _ in 0..60 {
                match fs.release_path("/hot") {
                    Ok(()) | Err(FsError::NotOwner { .. }) | Err(FsError::NotFound) => {}
                    Err(e) => panic!("releaser: {e}"),
                }
                std::thread::yield_now();
            }
        });
    });

    assert_eq!(fs.readdir("/hot").unwrap().len(), 450);
    fs.unmount().unwrap();
    assert_eq!(kernel.stats().snapshot().verify_failures, 0);
    assert!(fsck(kernel.device()).unwrap().is_consistent());
}

#[test]
fn deep_tree_concurrent_build_and_teardown() {
    let (kernel, fs) = arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let fs = fs.clone();
            s.spawn(move || {
                let base = format!("/t{t}");
                fs.mkdir_all(&format!("{base}/a/b/c")).unwrap();
                for i in 0..40 {
                    let p = format!("{base}/a/b/c/f{i}");
                    fs.write_file(&p, &vec![t as u8; 100 + i]).unwrap();
                }
                for i in 0..40 {
                    let p = format!("{base}/a/b/c/f{i}");
                    assert_eq!(fs.read_file(&p).unwrap().len(), 100 + i);
                    fs.unlink(&p).unwrap();
                }
                fs.rmdir(&format!("{base}/a/b/c")).unwrap();
                fs.rmdir(&format!("{base}/a/b")).unwrap();
                fs.rmdir(&format!("{base}/a")).unwrap();
                fs.rmdir(&base).unwrap();
            });
        }
    });
    assert_eq!(fs.readdir("/").unwrap().len(), 0);
    fs.unmount().unwrap();
    assert!(fsck(kernel.device()).unwrap().is_consistent());
}

#[test]
fn file_data_races_are_serialized_by_the_file_lock() {
    let (_kernel, fs) = arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap();
    let fd = fs.open("/shared.dat", OpenFlags::rw().create()).unwrap();
    fs.write_at(fd, &vec![0u8; 64 * 1024], 0).unwrap();

    // Writers stamp whole 4K blocks; any snapshot of a block must be
    // uniform (no torn block-level writes through the rw lock).
    std::thread::scope(|s| {
        for t in 1..=3u8 {
            let fs = fs.clone();
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t as u64);
                let block = vec![t; 4096];
                for _ in 0..200 {
                    let b = rng.gen_range(0..16u64);
                    fs.write_at(fd, &block, b * 4096).unwrap();
                }
            });
        }
        let fs = fs.clone();
        s.spawn(move || {
            let mut buf = vec![0u8; 4096];
            let mut rng = SmallRng::seed_from_u64(99);
            for _ in 0..300 {
                let b = rng.gen_range(0..16u64);
                let n = fs.read_at(fd, &mut buf, b * 4096).unwrap();
                assert_eq!(n, 4096);
                let first = buf[0];
                assert!(
                    buf.iter().all(|&x| x == first),
                    "torn block read: starts {first}, contains {:?}",
                    buf.iter().find(|&&x| x != first)
                );
            }
        });
    });
}

#[test]
fn involuntary_release_mid_operation_keeps_the_kernel_consistent() {
    // §4.3: "while the LibFS may crash during an involuntary release,
    // ArckFS must ensure that it does not crash during a voluntary
    // release." Here the kernel seizes an inode while a writer is parked
    // mid-create; the *LibFS-side* fault is acceptable (it models the app
    // crash), but the kernel and the on-PM state must stay consistent.
    let (kernel, fs) = arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap();
    fs.mkdir("/seized").unwrap();
    fs.commit_path("/").unwrap();
    let dir_ino = fs.stat("/seized").unwrap().ino;

    let gate = arckfs::inject::arm("dir.insert.core_write");
    let fs2 = fs.clone();
    let writer = std::thread::spawn(move || fs2.create("/seized/victim"));
    assert!(gate.wait_reached(std::time::Duration::from_secs(10)));

    kernel.force_release(fs.id(), dir_ino).unwrap();
    gate.release();
    let writer_result = writer.join().unwrap();
    // The writer either completed before the seizure took effect at its
    // next access, or took the modelled bus error — both acceptable for an
    // involuntary revocation.
    if let Err(e) = writer_result {
        assert!(e.is_fault(), "unexpected error class: {e:?}");
    }

    // Kernel-side state must be reusable by others.
    let report = fsck(kernel.device()).unwrap();
    assert!(report.is_consistent(), "{:?}", report.issues);
    let other = LibFs::mount(kernel.clone(), Config::arckfs_plus(), 0).unwrap();
    fs.release_path("/").unwrap();
    assert!(other.stat("/seized").is_ok());
}

#[test]
fn index_resizes_under_concurrent_load() {
    // Grow one directory far past the initial bucket capacity while
    // readers run concurrently — exercising the §4.4 "insertion or
    // resizing" contention and the exclusive-table resize path.
    let (kernel, fs) = arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap();
    fs.mkdir("/grow").unwrap();
    let initial_buckets = fs.config().dir_buckets as u64;
    let total = initial_buckets * 8 * 3; // force at least one resize

    std::thread::scope(|s| {
        for t in 0..3u64 {
            let fs = fs.clone();
            s.spawn(move || {
                for i in 0..total / 3 {
                    fs.create(&format!("/grow/t{t}-{i}"))
                        .and_then(|fd| fs.close(fd))
                        .unwrap_or_else(|e| panic!("create t{t}-{i}: {e}"));
                }
            });
        }
        let fs = fs.clone();
        s.spawn(move || {
            for i in 0..200 {
                let entries = fs
                    .readdir("/grow")
                    .unwrap_or_else(|e| panic!("readdir: {e}"));
                let _ = entries.len();
                if i % 10 == 0 {
                    std::thread::yield_now();
                }
            }
        });
    });

    assert_eq!(fs.readdir("/grow").unwrap().len() as u64, total);
    assert_eq!(fs.stat("/grow").unwrap().size, total);
    // Every file is still resolvable post-resize.
    for t in 0..3u64 {
        for i in (0..total / 3).step_by(97) {
            assert!(fs.stat(&format!("/grow/t{t}-{i}")).is_ok(), "t{t}-{i}");
        }
    }
    fs.unmount().unwrap();
    assert_eq!(kernel.stats().snapshot().verify_failures, 0);
    assert!(fsck(kernel.device()).unwrap().is_consistent());
}

#[test]
fn unlink_storm_keeps_pools_under_the_high_watermark() {
    // The pre-ISSUE-5 pools grew without bound: every unlink pushed its
    // pages back into a Mutex<Vec> that nothing ever drained, so a 10k-file
    // storm left thousands of pages stranded in the LibFS. The sharded
    // pools enforce a high watermark — surplus above it goes back to the
    // kernel — so after the storm both pools must sit at or below it.
    let mut config = Config::arckfs_plus();
    config.pool_low = 64;
    config.pool_high = 512;
    let pool_high = config.pool_high;
    let (kernel, fs) = arckfs::new_fs(DEV, config).unwrap();
    for t in 0..4u64 {
        fs.mkdir(&format!("/s{t}")).unwrap();
    }

    // 4 threads x 4 waves x 625 files = 10_000 files created and unlinked;
    // waves bound the live set so the device never fills.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let fs = fs.clone();
            s.spawn(move || {
                let payload = vec![0x5au8; 4096];
                for wave in 0..4u64 {
                    for i in 0..625u64 {
                        let path = format!("/s{t}/w{wave}-{i}");
                        fs.write_file(&path, &payload)
                            .unwrap_or_else(|e| panic!("write {path}: {e}"));
                    }
                    for i in 0..625u64 {
                        let path = format!("/s{t}/w{wave}-{i}");
                        fs.unlink(&path).unwrap_or_else(|e| panic!("unlink {path}: {e}"));
                    }
                }
            });
        }
    });

    let (inos, pages) = fs.pool_sizes();
    assert!(
        inos <= pool_high,
        "ino pool holds {inos} after the storm, watermark {pool_high}"
    );
    assert!(
        pages <= pool_high,
        "page pool holds {pages} after the storm, watermark {pool_high}"
    );
    let stats = fs.stats();
    assert!(
        stats.pool_releases > 0,
        "a 10k-file storm must trip the release watermark at least once"
    );
    assert!(stats.pool_refills > 0, "grants must have refilled the pools");

    fs.unmount().unwrap();
    assert_eq!(kernel.stats().snapshot().verify_failures, 0);
    assert!(fsck(kernel.device()).unwrap().is_consistent());
}
