//! Regressions promoted from `schedmc` exploration runs.
//!
//! Unlike `tests/bugs.rs`, which scripts the paper's §4 interleavings by
//! hand, these tests are the output of *systematic* schedule exploration:
//! each failing test pins the exact choice sequence the explorer found
//! (minimal in preemptions by construction) and replays it with
//! [`schedmc::replay`]; each exonerating test pins a suspected-racy window
//! and asserts the explorer covers it and finds nothing.

use std::sync::Arc;
use std::time::Duration;

use arckfs::delegate::DelegationPool;
use arckfs::{inject, Config, LibFs};
use pmem::{Mapping, MappingRegistry, PmemDevice, ShardedPageAllocator};
use schedmc::fuzz::{fuzz, FuzzOpKind, FuzzOpts};
use schedmc::{explore, replay, ExploreOpts, FailureKind, Op};
use trio::{Kernel, KernelConfig};
use vfs::{FileSystem, FsError, FsExt};

/// Small deterministic options for in-test exploration: no wall-clock
/// budget (results must not depend on machine load), crash oracle off
/// unless the test is about crash states.
fn opts(config: Config) -> ExploreOpts {
    ExploreOpts {
        preemption_bound: 2,
        max_schedules: 128,
        max_steps: 64,
        // The same wall-clock stop-gap as `ExploreOpts::quick` (ci.sh
        // header): at 10 ms a delegated write that a worker thread had not
        // finished yet was classified blocked and the schedule "diverged".
        grace: schedmc::QUIESCE_GRACE,
        crash_oracle: false,
        crash_exhaustive_limit: 32,
        crash_samples: 8,
        seed: 0xa5c3,
        budget: None,
        config,
    }
}

// ---------------------------------------------------------------------------
// Exploration sanity: the quick sweep's core claim, pinned as a test
// ---------------------------------------------------------------------------

#[test]
fn pair_exploration_is_exhaustive_and_clean_on_arckfs_plus() {
    let report = explore(&[Op::Create, Op::Unlink], &opts(Config::arckfs_plus()));
    assert!(
        !report.truncated,
        "bound-2 pair space must be fully enumerated"
    );
    assert!(
        report.schedules > 1,
        "two racing ops admit more than one interleaving"
    );
    assert!(report.is_clean(), "{:?}", report.failures);
    // Both participants were actually scheduled through their points.
    assert_eq!(report.points_hit["ctl.op.start"], 2 * report.schedules as u64);
    assert!(report.points_hit.contains_key("dir.insert.core_write"));
}

// ---------------------------------------------------------------------------
// Found by schedmc: O_APPEND offset TOCTOU (not in the paper's Table 1)
// ---------------------------------------------------------------------------

/// With the fix off, two appenders can both read EOF before either writes:
/// the writes overlap and the final file matches no serial order. The
/// explorer finds this within preemption bound 2.
#[test]
fn append_toctou_found_with_fix_off() {
    let mut cfg = Config::arckfs_plus();
    cfg.fix_append_atomic = false;
    let report = explore(&[Op::Append, Op::Append], &opts(cfg.clone()));
    let found = report
        .failures
        .iter()
        .find(|f| f.kind == FailureKind::SpecDivergence)
        .unwrap_or_else(|| panic!("explorer must find the overlap: {:?}", report.failures));
    assert!(
        found.detail.contains("/d/f0"),
        "divergence must be in the appended file: {}",
        found.detail
    );

    // The minimized schedule replays deterministically...
    let again = replay(&[Op::Append, Op::Append], &found.schedule, &opts(cfg));
    assert!(!again.diverged_from_schedule);
    assert_eq!(
        again.failure.as_ref().map(|f| f.kind),
        Some(FailureKind::SpecDivergence),
        "{:?}",
        again.failure
    );

    // ...and the same schedule is clean with the fix on.
    let fixed = replay(
        &[Op::Append, Op::Append],
        &found.schedule,
        &opts(Config::arckfs_plus()),
    );
    assert!(fixed.failure.is_none(), "{:?}", fixed.failure);
}

#[test]
fn append_space_is_clean_with_fix_on() {
    let report = explore(&[Op::Append, Op::Append], &opts(Config::arckfs_plus()));
    assert!(!report.truncated);
    assert!(report.is_clean(), "{:?}", report.failures);
}

// ---------------------------------------------------------------------------
// Rediscovery: the crash oracle finds §4.2 without being told where to look
// ---------------------------------------------------------------------------

/// The §4.2 missing fence corrupts nothing while the system runs; only the
/// crash oracle sees it. A single `create` under the unfixed config is
/// enough: at some schedule point a crash state has a durable commit
/// marker naming never-persisted dentry bytes.
#[test]
fn crash_oracle_rediscovers_missing_fence() {
    let mut o = opts(Config::arckfs());
    o.crash_oracle = true;
    // The pending-store space of a mid-create park includes unrelated
    // lines (inode init, tail slot), so it can exceed the quick-mode
    // exhaustive limit; a handful of samples can then miss the one fatal
    // combination. This test is about the oracle's *verdict*, not its
    // budget — raise the bounds so coverage of the space is certain.
    o.crash_exhaustive_limit = 4096;
    o.crash_samples = 64;
    let report = explore(&[Op::Create], &o);
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::CrashInconsistent),
        "crash oracle must flag the §4.2 window: {:?}",
        report.failures
    );

    let mut o = opts(Config::arckfs().with_fix("4.2", true));
    o.crash_oracle = true;
    o.crash_exhaustive_limit = 4096;
    o.crash_samples = 64;
    let report = explore(&[Op::Create], &o);
    assert!(report.is_clean(), "{:?}", report.failures);
    assert!(report.crash_states_checked > 0);
}

// ---------------------------------------------------------------------------
// Exonerations: suspected windows the explorer covered and cleared
// ---------------------------------------------------------------------------

/// Suspect: a dcache fill (`lookup_child` publishing `dir/name → ino`)
/// racing a rename of that very name could publish a stale entry that
/// *lies* (resolves a name `readdir` no longer lists). The explorer drives
/// every bound-2 interleaving through `dcache.fill.publish` against the
/// rename and the coherence probe finds no lie: a stale entry can only
/// miss (generation check) — never resolve wrongly.
#[test]
fn dcache_fill_vs_rename_exonerated() {
    let report = explore(&[Op::OpenAt, Op::Rename], &opts(Config::arckfs_plus()));
    assert!(!report.truncated);
    assert!(
        report.points_hit.get("dcache.fill.publish").copied() >= Some(1),
        "the suspected window must actually be scheduled through: {:?}",
        report.points_hit
    );
    assert!(report.is_clean(), "{:?}", report.failures);
}

/// Suspect: §4.3's revival path (`revive_inode` rebuilding auxiliary
/// state) racing a voluntary release of the same directory. Covered
/// clean under the patched config.
#[test]
fn release_vs_revive_window_exonerated() {
    let report = explore(&[Op::Release, Op::Revive], &opts(Config::arckfs_plus()));
    assert!(!report.truncated);
    assert!(
        report.points_hit.get("libfs.revive.rebuild").copied() >= Some(1),
        "revival window must be scheduled through: {:?}",
        report.points_hit
    );
    assert!(report.is_clean(), "{:?}", report.failures);
}

// ---------------------------------------------------------------------------
// Sharded allocator: the grant and steal windows, covered by the explorer
// ---------------------------------------------------------------------------

/// Sweep the kernel grant path of the sharded allocator (ISSUE 5): with
/// the grant batches forced to 1 the LibFS pools never hold a spare, so
/// every create crosses into the kernel grant path, and the
/// allocator-internal `alloc.shard.bit_persist` window (bits set and
/// clwb'd, fence not yet issued) becomes a schedule point the explorer
/// preempts at — the pmem hook forwards it into the inject registry and
/// the participants park there. The whole bound-2 space — including
/// interleavings that stop one thread mid-grant while the other operates
/// on the same allocator — is clean.
#[test]
fn allocator_grant_window_swept_clean() {
    let mut cfg = Config::arckfs_plus();
    cfg.ino_batch = 1;
    cfg.page_batch = 1;
    let report = explore(&[Op::Create, Op::Unlink], &opts(cfg));
    assert!(!report.truncated);
    assert!(
        report.points_hit.get("alloc.shard.bit_persist").copied() >= Some(1),
        "the grant window must actually be scheduled through: {:?}",
        report.points_hit
    );
    assert!(report.is_clean(), "{:?}", report.failures);
}

/// The work-stealing fallback, pinned with a gate: drain a thread's home
/// shard, park the next allocation on `alloc.shard.steal` (it reaches the
/// point *before* touching the foreign shard — steals counter still zero),
/// then release it and watch it complete from the neighbour's range.
#[test]
fn allocator_steal_window_parks_before_the_foreign_shard() {
    let dev = PmemDevice::new(4096);
    let alloc = Arc::new(ShardedPageAllocator::format_with_shards(dev, 0, 4, 32, 2).unwrap());
    let (first0, count0) = alloc.shard_ranges()[0];
    let (first1, count1) = alloc.shard_ranges()[1];
    let drained = alloc.alloc_extent_hinted(0, count0 as usize).unwrap();
    assert!(
        drained.iter().all(|&p| (first0..first0 + count0).contains(&p)),
        "a full-shard take must not spill into the neighbour"
    );

    let gate = inject::arm("alloc.shard.steal");
    let a2 = Arc::clone(&alloc);
    let victim = std::thread::spawn(move || a2.alloc_extent_hinted(0, 1).unwrap());
    assert!(
        gate.wait_reached(Duration::from_secs(5)),
        "a dry home shard must route the victim through the steal point"
    );
    assert_eq!(
        alloc.stats().alloc_steals,
        0,
        "parked before stealing: nothing taken yet"
    );
    gate.release();
    let pages = victim.join().unwrap();
    assert!(
        (first1..first1 + count1).contains(&pages[0]),
        "the steal must come from the neighbour's range, got page {}",
        pages[0]
    );
    assert_eq!(alloc.stats().alloc_steals, 1);
}

// ---------------------------------------------------------------------------
// Found by the crashmc sweep: delegated writes and the completion fence
// ---------------------------------------------------------------------------

/// `Ticket::wait` returning means the delegated bytes are durable — the
/// workers fence before dropping the completion count. Checked at the
/// pool level because the caller issues *no* fence of its own here: on a
/// tracked device a missing worker fence leaves the ntstores pending and
/// the crash-state count above 1.
#[test]
fn delegated_write_is_durable_when_wait_returns() {
    let dev = PmemDevice::new_tracked(4 << 20);
    let reg = Arc::new(MappingRegistry::new());
    let m = Mapping::new(dev.clone(), reg, 0, 4 << 20);
    let pool = DelegationPool::new(2);

    let data = vec![0xabu8; 600 * 1024]; // > 2 chunks: exercises both workers
    pool.submit(&m, 4096, &data).unwrap().wait().unwrap();
    // Deliberately NO m.sfence() here.

    assert_eq!(
        dev.crash_state_count().unwrap(),
        1,
        "delegated stores must be fenced by the workers themselves"
    );
    let img = dev.persistent_image().unwrap();
    assert!(
        img[4096..4096 + data.len()].iter().all(|b| *b == 0xab),
        "payload must be in the persistent image, not just the volatile one"
    );
}

/// Lost-wakeup audit for the completion protocol, pinned as a schedule:
/// park the worker *between* finishing its chunk and decrementing the
/// count, let the waiter observe `remaining == 1` and block on the
/// condvar, then release the worker. The notify happens under the condvar
/// lock, so the waiter must wake.
#[test]
fn completion_notify_cannot_be_lost() {
    let dev = PmemDevice::new(1 << 20);
    let reg = Arc::new(MappingRegistry::new());
    let m = Mapping::new(dev, reg, 0, 1 << 20);
    let pool = DelegationPool::new(1);

    let gate = inject::arm("delegate.complete.pre_finish");
    let ticket = pool.submit(&m, 0, &vec![7u8; 16 * 1024]).unwrap();
    assert!(
        gate.wait_reached(Duration::from_secs(5)),
        "worker must reach the pre-decrement window"
    );

    let waiter = std::thread::spawn(move || ticket.wait());
    // Give the waiter time to check `remaining` and park on the condvar —
    // the historical lost-wakeup shape.
    std::thread::sleep(Duration::from_millis(50));
    gate.release();

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !waiter.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "waiter never woke: completion notify was lost"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    waiter.join().unwrap().unwrap();
}

/// The ISSUE 6 completion-leak, pinned: shut the pool down while a
/// multi-chunk submit is parked between chunk enqueues. The old code
/// preloaded the completion count with *all* chunks before the send
/// loop, so an aborted submit left the count above zero forever and
/// `Ticket::wait` hung. With per-chunk accounting the submitter backs
/// its own increments out, surfaces the shutdown as an error, and the
/// one chunk that did run is the only one attributed.
#[test]
fn shutdown_mid_submit_cannot_leak_the_completion() {
    let dev = PmemDevice::new(4 << 20);
    let reg = Arc::new(MappingRegistry::new());
    let m = Mapping::new(dev, reg, 0, 4 << 20);
    let pool = Arc::new(DelegationPool::new(1));

    let gate = inject::arm("delegate.sq.enqueue");
    let p2 = Arc::clone(&pool);
    let m2 = m.clone();
    let submitter = std::thread::spawn(move || {
        let data = vec![0x5cu8; 3 * DelegationPool::CHUNK];
        p2.submit(&m2, 0, &data).and_then(|t| t.wait())
    });
    assert!(
        gate.wait_reached(Duration::from_secs(5)),
        "submitter must park after publishing its first chunk"
    );

    // The worker is not gated: let it drain and complete chunk 0.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while pool.delegated_bytes() < DelegationPool::CHUNK as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "worker never completed the published chunk"
        );
        std::thread::yield_now();
    }

    pool.shutdown();
    gate.release();

    let res = submitter.join().unwrap();
    assert!(
        matches!(res, Err(FsError::Internal(_))),
        "an aborted submit must surface the shutdown, got {res:?}"
    );
    assert_eq!(
        pool.delegated_bytes(),
        DelegationPool::CHUNK as u64,
        "only the chunk that actually ran may be attributed"
    );
}

/// Mid-transfer crash differential for a multi-page write, run through
/// both data paths: park the transfer after some chunk stores have been
/// issued but before the size commit, and every sampled crash state must
/// recover to prefix-or-nothing — the file is absent or empty, never a
/// torn length. Returns the delegated-byte attribution for the caller to
/// pin per path.
fn torn_write_recovers_prefix_or_nothing(rings: usize, gate_point: &str) -> u64 {
    let device = PmemDevice::new_tracked(8 << 20);
    let mut cfg = Config::arckfs_plus();
    cfg.delegation_threads = rings;
    cfg.delegation_min = 8192;
    cfg.deleg_batch = 2;
    let (_k, fs) = arckfs::new_fs_on(device.clone(), cfg.clone()).unwrap();
    fs.mkdir("/d").unwrap();
    fs.sync().unwrap();
    device.persist_all(); // the baseline tree is fully durable

    let payload = vec![0xc7u8; 24 * 1024]; // 6 pages: a genuinely torn window

    // Delegation workers fire their drain point with no device; the inline
    // point is armed for this device only, so parallel tests pass it.
    let gate = if rings == 0 {
        inject::arm_on(&device, gate_point)
    } else {
        inject::arm(gate_point)
    };
    let fs2 = Arc::clone(&fs);
    let p2 = payload.clone();
    let writer = std::thread::spawn(move || fs2.write_file("/d/w", &p2));
    assert!(
        gate.wait_reached(Duration::from_secs(5)),
        "the transfer must park mid-stream at {gate_point}"
    );

    // Chunk stores are in flight, the size word is not: every reachable
    // crash image must still pass fsck...
    let report = crashmc::check_sampled(&device, 40, 0x71).unwrap();
    assert!(report.is_consistent(), "mid-transfer: {report:?}");

    // ...and a remounted kernel must see the file absent or empty.
    let recovered = crashmc::recover_one(&device, 99).unwrap();
    let kernel = Kernel::recover(recovered, KernelConfig::arckfs_plus()).unwrap();
    let fsr = LibFs::mount(kernel, cfg, 0).unwrap();
    if let Ok(md) = fsr.stat("/d/w") {
        assert_eq!(md.size, 0, "size must not be committed mid-transfer");
        assert_eq!(fsr.read_file("/d/w").unwrap(), b"");
    }

    gate.release();
    writer.join().unwrap().unwrap();
    fs.sync().unwrap();
    let report = crashmc::check_durable(&device).unwrap();
    assert!(report.is_consistent(), "post-completion: {report:?}");
    assert_eq!(fs.read_file("/d/w").unwrap(), payload);
    fs.delegated_bytes()
}

#[test]
fn torn_inline_write_recovers_prefix_or_nothing() {
    let deleg = torn_write_recovers_prefix_or_nothing(0, "file.write.chunk");
    assert_eq!(deleg, 0, "the inline path must not claim delegated bytes");
}

#[test]
fn torn_delegated_write_recovers_prefix_or_nothing() {
    let deleg = torn_write_recovers_prefix_or_nothing(2, "delegate.drain.batch_fence");
    assert_eq!(
        deleg,
        24 * 1024,
        "every delegated chunk must be attributed exactly once on completion"
    );
}

/// The bound-2 pair space around the new SQ publish window, swept with
/// the rings enabled: the explorer arbitrates `delegate.sq.enqueue`
/// against a concurrent append and finds nothing. (Worker-side drain
/// points pass through for non-participants by design, so only the
/// submitter-side point shows up in the trace.)
#[test]
fn delegate_ring_points_are_swept() {
    let mut cfg = Config::arckfs_plus();
    cfg.delegation_threads = 2;
    cfg.delegation_min = 4096;
    cfg.deleg_batch = 2;
    let mut o = opts(cfg);
    // The write crosses the range-lock and extent-insert points as well
    // as the SQ publish window, so the bound-2 space outgrows the default
    // cap; raise it and still demand full enumeration.
    o.max_schedules = 4096;
    let report = explore(&[Op::WriteDelegated, Op::Append], &o);
    assert!(!report.truncated);
    assert!(
        report.points_hit.get("delegate.sq.enqueue").copied() >= Some(1),
        "the SQ publish window must actually be scheduled through: {:?}",
        report.points_hit
    );
    assert!(report.is_clean(), "{:?}", report.failures);
}

// ---------------------------------------------------------------------------
// ISSUE 7: the ranged shared-file data path (extent tree + range locks)
// ---------------------------------------------------------------------------

/// The bound-2 pair space around the range-lock acquisition and
/// extent-insert windows: two disjoint ranged writers on one shared file
/// find nothing, and the points actually arbitrate.
#[test]
fn range_lock_points_are_swept() {
    let mut o = opts(Config::arckfs_plus());
    // The ranged ops cross more schedule points than the metadata ops, so
    // the bound-2 space is bigger; raise the cap and still demand full
    // enumeration.
    o.max_schedules = 4096;
    let report = explore(&[Op::WriteRanged, Op::WriteRanged], &o);
    assert!(!report.truncated, "bound-2 space must be fully enumerated");
    assert!(
        report.points_hit.get("file.write.range_lock").copied() >= Some(2),
        "both writers must be scheduled through the acquisition window: {:?}",
        report.points_hit
    );
    assert!(
        report.points_hit.contains_key("file.write.extent_insert"),
        "fresh blocks must publish through the extent-insert window: {:?}",
        report.points_hit
    );
    assert!(report.is_clean(), "{:?}", report.failures);
}

/// The gap-zeroing window of an extending write, raced by an appender:
/// `/d/f0` holds five bytes, so a ranged writer at 4 KiB and a
/// preallocation at 1 KiB both zero the mapped tail of block 0 before
/// their size moves. Both pairs are fully enumerated at bound 2, the
/// window is scheduled through, and every schedule linearizes.
#[test]
fn gap_zeroing_point_is_swept() {
    for pair in [[Op::WriteRanged, Op::Append], [Op::Append, Op::Fallocate]] {
        let mut o = opts(Config::arckfs_plus());
        o.max_schedules = 4096;
        let report = explore(&pair, &o);
        assert!(
            !report.truncated,
            "{pair:?}: bound-2 space must be fully enumerated"
        );
        assert!(
            report.points_hit.contains_key("file.write.zero_gap"),
            "{pair:?}: an extending write over a mapped gap must zero it: {:?}",
            report.points_hit
        );
        assert!(report.is_clean(), "{pair:?}: {:?}", report.failures);
    }
}

/// Grant participant `tid` of `ctl` until it parks at `point` or, with no
/// point, until it finishes.
fn run_until(ctl: &inject::Controller, tid: usize, point: Option<&str>) {
    for _ in 0..10_000 {
        let parked = ctl.quiesce(schedmc::QUIESCE_GRACE);
        match parked.iter().find(|(t, _)| *t == tid) {
            Some((_, p)) if Some(p.as_str()) == point => return,
            Some(_) => assert!(ctl.step(tid)),
            None if ctl.statuses()[tid].1 == inject::ThreadStatus::Finished => {
                assert!(point.is_none(), "finished before {point:?}");
                return;
            }
            None => {}
        }
    }
    panic!("participant {tid} never reached {point:?}");
}

/// Two writers of disjoint bytes in one hole block: `a` parks between its
/// lookup's miss and its extent insert, `b` fills the block to completion,
/// then `a` resumes. `a`'s insert finds `b`'s page and writes into it, so
/// both writes read back, the rest of the block reads zero, and `a`'s own
/// page goes back to the pool: nothing leaks once the LibFS unmounts.
#[test]
fn two_writers_in_one_hole_block_both_land() {
    let device = PmemDevice::new(16 << 20);
    let (_k, fs) = arckfs::new_fs_on(device.clone(), Config::arckfs_plus()).unwrap();
    let fd = fs.create("/f").unwrap();
    fs.truncate(fd, 8192).unwrap();
    let ctl = inject::Controller::new();
    let writer = |at: u64, byte: u8| {
        let fs = fs.clone();
        move || fs.write_at(fd, &[byte; 100], at)
    };
    let a = ctl.spawn("a", writer(0, b'a'));
    let b = ctl.spawn("b", writer(2048, b'b'));
    run_until(&ctl, 0, Some("file.write.hole_fill"));
    run_until(&ctl, 1, None);
    run_until(&ctl, 0, None);
    drop(ctl);
    a.join().unwrap().unwrap();
    b.join().unwrap().unwrap();

    let mut expected = vec![0u8; 8192];
    expected[..100].fill(b'a');
    expected[2048..2148].fill(b'b');
    let mut got = vec![0u8; 8192];
    assert_eq!(fs.read_at(fd, &mut got, 0).unwrap(), 8192);
    assert!(got == expected, "a lost write: a={}, b={}", got[0], got[2048]);
    fs.close(fd).unwrap();
    fs.unmount().unwrap();
    let report = trio::fsck::fsck(&device).unwrap();
    assert!(report.issues.is_empty(), "{:?}", report.issues);
}

/// A ranged writer against the preallocator on the same file: the
/// remaining pair of the ranged vocabulary stays clean.
#[test]
fn ranged_write_against_fallocate_is_clean() {
    let mut o = opts(Config::arckfs_plus());
    o.max_schedules = 4096;
    let report = explore(&[Op::WriteRanged, Op::Fallocate], &o);
    assert!(!report.truncated);
    assert!(report.is_clean(), "{:?}", report.failures);
}

/// Crash differential for a torn multi-block write into a shared file that
/// already has a durable committed range: park the second writer
/// mid-stream, and every sampled crash state must keep the committed range
/// intact while the torn range recovers to prefix-or-nothing (the size
/// word never moves). Run with the writer parked at each of its windows.
fn torn_ranged_write_preserves_committed_ranges(gate_point: &str) {
    let device = PmemDevice::new_tracked(8 << 20);
    let mut cfg = Config::arckfs_plus();
    cfg.delegation_threads = 0;
    let (_k, fs) = arckfs::new_fs_on(device.clone(), cfg.clone()).unwrap();
    fs.mkdir("/d").unwrap();
    let fd = fs.create("/d/f").unwrap();
    let committed = vec![0x11u8; 8 * 1024];
    fs.write_at(fd, &committed, 0).unwrap();
    fs.sync().unwrap();
    device.persist_all(); // the committed range is fully durable

    let gate = inject::arm_on(&device, gate_point);
    let fs2 = Arc::clone(&fs);
    let writer = std::thread::spawn(move || {
        let torn = vec![0x22u8; 8 * 1024];
        fs2.write_at(fd, &torn, 16 * 1024).map(|_| ())
    });
    assert!(
        gate.wait_reached(Duration::from_secs(5)),
        "the writer must park mid-stream at {gate_point}"
    );

    // Fresh blocks are in flight, the size word is not: every reachable
    // crash image must still pass fsck...
    let report = crashmc::check_sampled(&device, 40, 0x17).unwrap();
    assert!(report.is_consistent(), "mid-write: {report:?}");

    // ...and a remounted kernel must see the committed range untouched
    // and the torn range absent — prefix-or-nothing per range.
    let recovered = crashmc::recover_one(&device, 7).unwrap();
    let kernel = Kernel::recover(recovered, KernelConfig::arckfs_plus()).unwrap();
    let fsr = LibFs::mount(kernel, cfg.clone(), 0).unwrap();
    let md = fsr.stat("/d/f").unwrap();
    assert_eq!(
        md.size,
        committed.len() as u64,
        "the torn range must not commit the size"
    );
    assert_eq!(
        fsr.read_file("/d/f").unwrap(),
        committed,
        "the committed range survives untouched"
    );

    gate.release();
    writer.join().unwrap().unwrap();
    fs.sync().unwrap();
    let report = crashmc::check_durable(&device).unwrap();
    assert!(report.is_consistent(), "post-completion: {report:?}");
    let full = fs.read_file("/d/f").unwrap();
    assert_eq!(full.len(), 24 * 1024);
    assert_eq!(&full[..8 * 1024], &committed[..]);
    assert!(
        full[8 * 1024..16 * 1024].iter().all(|b| *b == 0),
        "the hole reads zeros"
    );
    assert!(full[16 * 1024..].iter().all(|b| *b == 0x22));
    fs.close(fd).unwrap();
}

/// A torn in-place append: a file with a durable 100-byte prefix, an
/// appender of 5000 bytes parked after its first chunk — stored into the
/// prefix's own page, past the EOF. Every sampled crash state passes fsck
/// and keeps the prefix at the old size (the size word is the commit).
/// The torn bytes past the EOF are don't-care, and whatever later makes
/// them readable zeroes them: a growing truncate on one recovered state,
/// an extending write on another.
#[test]
fn torn_in_place_append_keeps_the_committed_prefix() {
    let device = PmemDevice::new_tracked(8 << 20);
    let cfg = Config::arckfs_plus();
    let (_k, fs) = arckfs::new_fs_on(device.clone(), cfg.clone()).unwrap();
    let prefix = vec![0x11u8; 100];
    fs.write_file("/log", &prefix).unwrap();
    device.persist_all();

    let fd = fs.open("/log", vfs::OpenFlags::empty().write()).unwrap();
    let gate = inject::arm_on(&device, "file.write.chunk");
    let fs2 = Arc::clone(&fs);
    let appender = std::thread::spawn(move || fs2.append(fd, &[0x22u8; 5000]));
    assert!(
        gate.wait_reached(Duration::from_secs(5)),
        "the appender must park after its first chunk"
    );

    let report = crashmc::check_sampled(&device, 40, 0x5a).unwrap();
    assert!(report.is_consistent(), "mid-append: {report:?}");
    let mount = |seed| {
        let recovered = crashmc::recover_one(&device, seed).unwrap();
        let kernel = Kernel::recover(recovered, KernelConfig::arckfs_plus()).unwrap();
        let fsr = LibFs::mount(kernel, cfg.clone(), 0).unwrap();
        assert_eq!(fsr.stat("/log").unwrap().size, 100, "seed {seed}: old size");
        assert_eq!(fsr.read_file("/log").unwrap(), prefix, "seed {seed}");
        fsr
    };
    for seed in 0..8 {
        mount(seed);
    }

    let grown = mount(11);
    let gfd = grown.open("/log", vfs::OpenFlags::rw()).unwrap();
    grown.truncate(gfd, 8192).unwrap();
    let data = grown.read_file("/log").unwrap();
    assert_eq!(&data[..100], &prefix[..]);
    assert!(
        data[100..].iter().all(|b| *b == 0),
        "truncate grow reads zeroes"
    );

    let extended = mount(12);
    let efd = extended.open("/log", vfs::OpenFlags::rw()).unwrap();
    extended.write_at(efd, b"w", 6000).unwrap();
    let data = extended.read_file("/log").unwrap();
    assert_eq!(data.len(), 6001);
    assert_eq!(&data[..100], &prefix[..]);
    assert!(
        data[100..6000].iter().all(|b| *b == 0),
        "the gap reads zeroes"
    );

    gate.release();
    assert_eq!(appender.join().unwrap().unwrap(), 100);
    let report = crashmc::check_durable(&device).unwrap();
    assert!(report.is_consistent(), "post-completion: {report:?}");
    let full = fs.read_file("/log").unwrap();
    assert_eq!(full.len(), 5100);
    assert!(full[100..].iter().all(|b| *b == 0x22));
}

#[test]
fn torn_multi_extent_write_preserves_committed_ranges() {
    torn_ranged_write_preserves_committed_ranges("file.write.extent_insert");
}

#[test]
fn torn_mid_chunk_write_preserves_committed_ranges() {
    torn_ranged_write_preserves_committed_ranges("file.write.chunk");
}

// ---------------------------------------------------------------------------
// ISSUE 9: coverage-guided fuzzing — determinism and exoneration at depth
// ---------------------------------------------------------------------------

/// In-test fuzz options: exec-bounded (no wall clock), crash oracle on a
/// coarse period, short programs so debug-mode runs stay quick.
fn fuzz_opts(seed: u64, execs: u64) -> FuzzOpts {
    let mut o = FuzzOpts::smoke();
    o.seed = seed;
    o.max_execs = Some(execs);
    o.budget = None;
    o.program_min = 6;
    o.program_max = 14;
    o.corpus_seeds = 3;
    o.crash_period = 8;
    o.crash_samples = 4;
    o
}

/// The satellite-2 contract, pinned: a fuzz campaign is a pure function of
/// its seed. Two campaigns with the same seed and exec bound must agree on
/// *every* coverage observable — the (point, crash-fingerprint) pair set,
/// the bucketed per-point hit counts, the replay schedules in the corpus
/// (via the fingerprint, which hashes all of them), and the mined-
/// invariant verdicts. This is what makes corpus replay byte-stable and
/// CI smoke failures reproducible from the printed seed alone.
#[test]
fn same_seed_fuzz_campaigns_have_identical_coverage() {
    let a = fuzz(&fuzz_opts(0xdecaf, 5));
    let b = fuzz(&fuzz_opts(0xdecaf, 5));
    assert!(a.is_clean(), "{:?}", a.failures);
    assert_eq!(a.coverage_fingerprint(), b.coverage_fingerprint());
    assert_eq!(a.coverage_pairs, b.coverage_pairs);
    assert_eq!(a.point_buckets, b.point_buckets);
    assert_eq!(a.points_hit, b.points_hit);
    assert_eq!(a.new_coverage_events, b.new_coverage_events);
    assert_eq!(a.crash_states_checked, b.crash_states_checked);
    let verdicts = |r: &schedmc::fuzz::FuzzReport| {
        r.invariants
            .iter()
            .map(|(k, v)| (k.clone(), v.status, v.clean_runs, v.violations))
            .collect::<Vec<_>>()
    };
    assert_eq!(verdicts(&a), verdicts(&b));
    // And a different seed really walks different schedules (the equality
    // above is not vacuous).
    let c = fuzz(&fuzz_opts(0xbeef, 5));
    assert_ne!(a.coverage_fingerprint(), c.coverage_fingerprint());
}

/// Re-confirm a previously-exonerated window under the fuzzer at ≥10× the
/// schedule count of the original bound-2 exploration sweep: focus the
/// vocabulary on the two suspect ops, measure the sweep's schedule count,
/// then walk ten times as many randomized schedules (preemption bursts
/// included, crash oracle off for throughput) and demand a clean campaign
/// that actually drove the suspect window.
fn reconfirm_window(cfg: Config, ops: [Op; 2], vocab: [FuzzOpKind; 2], window: &str) {
    let sweep = explore(&ops, &opts(cfg.clone()));
    assert!(!sweep.truncated && sweep.is_clean(), "{:?}", sweep.failures);

    let depth = 10 * sweep.schedules as u64;
    let mut o = fuzz_opts(0x10c0 ^ vocab[0] as u64, depth);
    o.vocabulary = vocab.to_vec();
    o.crash_period = 0; // schedule depth, not crash states, is the subject
    o.config = cfg;
    let report = fuzz(&o);
    assert_eq!(report.execs, depth, "{:?}", report.failures);
    assert!(report.is_clean(), "{:?}", report.failures);
    assert!(
        report.points_hit.get(window).copied() >= Some(1),
        "the fuzzer must drive the suspected window {window}: {:?}",
        report.points_hit
    );
}

/// The PR-3 dcache-fill-vs-rename exoneration, at fuzz depth.
#[test]
fn dcache_fill_vs_rename_reconfirmed_at_fuzz_depth() {
    reconfirm_window(
        Config::arckfs_plus(),
        [Op::OpenAt, Op::Rename],
        [FuzzOpKind::OpenAt, FuzzOpKind::Rename],
        "dcache.fill.publish",
    );
}

/// The PR-3 release-vs-revive exoneration, at fuzz depth.
#[test]
fn release_vs_revive_reconfirmed_at_fuzz_depth() {
    reconfirm_window(
        Config::arckfs_plus(),
        [Op::Release, Op::Revive],
        [FuzzOpKind::Release, FuzzOpKind::Revive],
        "libfs.revive.rebuild",
    );
}

