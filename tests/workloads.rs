//! Workload harness smoke tests over the *real* file systems: every FxMark
//! workload, the fio jobs, both Filebench personalities, and db_bench each
//! run (briefly) on ArckFS, ArckFS+ and a kernel baseline. These catch
//! integration breakage between the harnesses and the implementations
//! before the long benchmark binaries would.

use std::sync::Arc;
use std::time::Duration;

use arckfs::Config;
use fxmark::fio::{run_fio, Direction, FioJob, Pattern, Sharing};
use fxmark::{run_workload, RunMode, Workload};
use kernelfs::{KernelFs, Profile};
use vfs::{FileSystem, FsExt};

const DEV: usize = 96 << 20;

fn fss() -> Vec<Arc<dyn FileSystem>> {
    vec![
        arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap().1,
        arckfs::new_fs(DEV, delegating()).unwrap().1,
        arckfs::new_fs(DEV, Config::arckfs()).unwrap().1,
        KernelFs::new(DEV, Profile::nova()),
    ]
}

/// ArckFS+ with four delegation rings taking every write of a block or
/// more, so the workloads' writers submit through the rings concurrently.
fn delegating() -> Config {
    let mut config = Config::arckfs_plus();
    config.delegation_threads = 4;
    config.delegation_min = 4096;
    config
}

#[test]
fn every_fxmark_workload_runs_on_every_fs() {
    for fs in fss() {
        for w in Workload::all() {
            let fs2 = fs.clone();
            let r = run_workload(fs2, w, 1, RunMode::OpsPerThread(30))
                .unwrap_or_else(|e| panic!("{} {w}: {e}", fs.fs_name()));
            assert_eq!(r.ops, 30, "{} {w}", fs.fs_name());
        }
    }
}

#[test]
fn fxmark_multithreaded_on_arckfs_plus() {
    let fs = arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap().1;
    for w in [
        Workload::MWCM,
        Workload::MWUM,
        Workload::MRDM,
        Workload::MRPH,
    ] {
        let r = run_workload(fs.clone(), w, 4, RunMode::OpsPerThread(25))
            .unwrap_or_else(|e| panic!("{w}: {e}"));
        assert_eq!(r.ops, 100, "{w}");
    }
}

#[test]
fn fio_jobs_run_on_every_fs() {
    for fs in fss() {
        for (pattern, dir) in [
            (Pattern::Sequential, Direction::Read),
            (Pattern::Random, Direction::Write),
        ] {
            let job = FioJob::new(pattern, dir, Sharing::Private, 1 << 20);
            let r = run_fio(fs.clone(), job, 2, Duration::from_millis(40))
                .unwrap_or_else(|e| panic!("{} {}: {e}", fs.fs_name(), job.label()));
            assert!(r.ops > 0, "{} {}", fs.fs_name(), job.label());
        }
    }
}

#[test]
fn filebench_runs_on_every_fs() {
    use filebench::{run, FilebenchConfig, FilesetMode, Personality};
    for fs in fss() {
        for p in [Personality::Webproxy, Personality::Varmail] {
            for mode in [FilesetMode::SharedDir, FilesetMode::PrivateDirs] {
                let mut cfg = FilebenchConfig::new(p, mode);
                cfg.nfiles = 32;
                cfg.append_size = 2048;
                let r = run(fs.clone(), cfg, 2, Duration::from_millis(40))
                    .unwrap_or_else(|e| panic!("{} {} {mode:?}: {e}", fs.fs_name(), p.name()));
                assert!(r.ops > 0, "{} {}", fs.fs_name(), p.name());
            }
        }
    }
}

#[test]
fn db_bench_runs_on_every_fs() {
    use kvstore::db_bench::{run, DbWorkload};
    for fs in fss() {
        for w in DbWorkload::all() {
            let r = run(fs.clone(), &format!("/db-{}", w.name()), w, 500)
                .unwrap_or_else(|e| panic!("{} {}: {e}", fs.fs_name(), w.name()));
            assert_eq!(r.ops, 500, "{} {}", fs.fs_name(), w.name());
        }
    }
}

#[test]
fn fxmark_persistence_accounting_sanity() {
    // Opens never persist anything; creates must fence at least once per
    // operation (the §4.2 commit protocol). Structural, so it holds in
    // debug and release builds alike (a throughput comparison would be
    // noise-bound in unoptimized builds).
    let fs = arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap().1;
    let r = fxmark::harness::run_workload_timed(fs.clone(), Workload::MRPL, 1, 500).unwrap();
    assert_eq!(r.ops, 500);
    fs.reset_stats();
    let r = fxmark::harness::run_workload_timed(fs.clone(), Workload::MRPL, 1, 500).unwrap();
    let open_stats = fs.stats();
    assert_eq!(r.ops, 500);
    assert_eq!(open_stats.fences, 0, "opens must not fence");

    let fs = arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap().1;
    fxmark::Workload::MWCL.setup(fs.as_ref(), 1).unwrap();
    fs.reset_stats();
    let r = fxmark::harness::run_workload_timed(fs.clone(), Workload::MWCL, 1, 500).unwrap();
    let create_stats = fs.stats();
    assert_eq!(r.ops, 500);
    assert!(
        create_stats.fences >= 500,
        "creates must fence at least once per op: {}",
        create_stats.fences
    );
}

#[test]
fn delegated_writes_round_trip() {
    // Large writes through the delegation pool produce the same bytes as
    // the inline path.
    let mut config = Config::arckfs_plus();
    config.delegation_threads = 2;
    config.delegation_min = 256 * 1024;
    let (_k, fs) = arckfs::new_fs(256 << 20, config).unwrap();
    let data: Vec<u8> = (0..3_000_000u32).map(|i| (i % 241) as u8).collect();
    fs.write_file("/big-delegated", &data).unwrap();
    assert_eq!(fs.read_file("/big-delegated").unwrap(), data);
    assert!(
        fs.delegated_bytes() >= data.len() as u64,
        "the transfer must go through the pool"
    );

    // Small writes stay on the inline path.
    let before = fs.delegated_bytes();
    fs.write_file("/small", b"tiny").unwrap();
    assert_eq!(fs.delegated_bytes(), before);
}

#[test]
fn delegated_writes_interleave_with_inline() {
    let mut config = Config::arckfs_plus();
    config.delegation_threads = 2;
    config.delegation_min = 512 * 1024;
    let (_k, fs) = arckfs::new_fs(256 << 20, config).unwrap();
    let fd = fs.open("/mix", vfs::OpenFlags::rw().create()).unwrap();
    let big = vec![0xABu8; 1 << 20];
    fs.write_at(fd, &big, 0).unwrap();
    fs.write_at(fd, b"patch", 100).unwrap(); // inline small write on top
    let mut buf = vec![0u8; 16];
    fs.read_at(fd, &mut buf, 96).unwrap();
    assert_eq!(&buf[..4], &[0xAB; 4]);
    assert_eq!(&buf[4..9], b"patch");
    assert_eq!(&buf[9..], &[0xAB; 7]);
    fs.close(fd).unwrap();
}

#[test]
fn shared_file_overwrites_take_range_locks_only() {
    // FxMark DWOM's lock discipline, as counts: every 4 KiB overwrite of a
    // prefilled shared file crosses the interval table, and none takes a
    // whole-object (shared) lock.
    const BLOCKS: u64 = 64;
    let (_k, fs) = arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap();
    let fd = fs.open("/shared", vfs::OpenFlags::rw().create()).unwrap();
    for b in 0..BLOCKS {
        fs.write_at(fd, &[0x6d; 4096], b * 4096).unwrap();
    }
    fs.reset_stats();
    for i in 0..4 * BLOCKS {
        let b = (i * 37) % BLOCKS;
        fs.write_at(fd, &[i as u8; 4096], b * 4096).unwrap();
    }
    let stats = fs.stats();
    fs.close(fd).unwrap();
    assert!(
        stats.range_lock_acqs >= 4 * BLOCKS,
        "every write must cross the interval table: {} for {} writes",
        stats.range_lock_acqs,
        4 * BLOCKS
    );
    assert_eq!(
        stats.shared_lock_acqs, 0,
        "an overwrite takes no whole-object lock"
    );
}

#[test]
fn an_append_commits_by_its_size_word_alone() {
    // A 256-byte append at a mid-page EOF over a mapped tail block: the
    // bytes, one fence, the size word, one fence. No page is allocated
    // (every page the data path allocates is stored before it is mapped,
    // so one would show as a 4 KiB store) and no extent record is written.
    let (k, fs) = arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap();
    let fd = fs.create("/log").unwrap();
    fs.append(fd, &[0x4c; 1000]).unwrap();
    fs.reset_stats();
    let before = k.device().stats().snapshot();
    assert_eq!(fs.append(fd, &[0x4d; 256]).unwrap(), 1000);
    let pm = k.device().stats().snapshot().delta(&before);
    assert_eq!(pm.sfences, 2, "{pm:?}");
    assert_eq!(pm.bytes_written, 256 + 8, "{pm:?}");
    assert_eq!(fs.stats().extent_inserts, 0);

    // From size 0, 1024 such appends fill 64 pages: one insert each.
    fs.truncate(fd, 0).unwrap();
    fs.reset_stats();
    for i in 0..1024u64 {
        assert_eq!(fs.append(fd, &[i as u8; 256]).unwrap(), i * 256);
    }
    assert_eq!(fs.stats().extent_inserts, 64);
    fs.close(fd).unwrap();
}

#[test]
fn a_write_far_past_the_eof_zeroes_only_what_is_mapped() {
    // The gap walk visits mapped blocks only: a write 1 TiB past the EOF of
    // a one-block file zeroes that block's tail and the fresh page's head,
    // and stores nothing for the 2^28 unmapped blocks between.
    let (k, fs) = arckfs::new_fs(DEV, Config::arckfs_plus()).unwrap();
    let fd = fs.create("/far").unwrap();
    fs.write_at(fd, &[7; 100], 0).unwrap();
    let before = k.device().stats().snapshot();
    let off = (1u64 << 40) + 100;
    fs.write_at(fd, b"x", off).unwrap();
    let pm = k.device().stats().snapshot().delta(&before);
    assert!(pm.bytes_written <= 4096 + 64, "{pm:?}");
    assert_eq!(fs.stat("/far").unwrap().size, off + 1);
    let mut buf = [1u8; 200];
    assert_eq!(fs.read_at(fd, &mut buf, 0).unwrap(), 200);
    assert!(buf[..100].iter().all(|b| *b == 7) && buf[100..].iter().all(|b| *b == 0));
    assert_eq!(fs.read_at(fd, &mut buf, off - 199).unwrap(), 200);
    assert!(buf[..199].iter().all(|b| *b == 0) && buf[199] == b'x');
    fs.close(fd).unwrap();
}

#[test]
fn fxmark_data_workloads_run_on_every_fs() {
    use fxmark::data::{run_data_workload, DataWorkload};
    for fs in fss() {
        for w in DataWorkload::all() {
            let r = run_data_workload(fs.clone(), w, 2, Duration::from_millis(30))
                .unwrap_or_else(|e| panic!("{} {w}: {e}", fs.fs_name()));
            assert!(r.ops > 0, "{} {w}", fs.fs_name());
        }
    }
}
