#![warn(missing_docs)]

//! Bounded stateless schedule exploration over the `arckfs` inject points.
//!
//! Every §4 concurrency bug in the paper is reproduced elsewhere in this
//! workspace by *one* hand-scripted interleaving (`inject::arm` plus a
//! single parked victim) — we only ever test the schedules we already
//! thought of. This crate closes that gap in the CHESS/Nidhugg style:
//! given a small set of concurrent operations, it enumerates **every**
//! interleaving of their schedule points up to a preemption bound and lets
//! oracles, not test authors, decide what is a bug.
//!
//! # How a single schedule runs
//!
//! [`explore`] mounts a fresh LibFS on a fresh (optionally store-tracked)
//! device, runs a fixed [`setup`]-built namespace, then spawns one
//! participant thread per [`Op`] under an [`arckfs::inject::Controller`].
//! Participants park at every `inject::point`; between grants the explorer
//! observes a quiesced system and picks which participant runs next. The
//! choice sequence *is* the schedule: replaying the same sequence replays
//! the same interleaving ([`replay`]).
//!
//! # Enumeration
//!
//! Stateless DFS over choice-sequence prefixes. Each run follows its
//! prefix, then takes the *default* schedule (keep running the last
//! granted thread; lowest tid otherwise) while recording every road not
//! taken as a new prefix, tagged with its preemption count. Prefixes are
//! explored cheapest-first, so the first failing schedule found carries
//! the fewest preemptions the bug needs — minimal by construction.
//!
//! # Oracles
//!
//! 1. **Crash states** — at every schedule point, [`crashmc::check_bounded`]
//!    enumerates (or samples) the crash images the Px86 persistency model
//!    admits and runs `trio::fsck` over each.
//! 2. **Post-run fsck** — after the ops complete and the LibFS unmounts,
//!    the final image must have no fatal findings.
//! 3. **Sequential specification** — the final name-keyed directory/file
//!    state must equal the final state of *some* serial order of the ops,
//!    and a path that `stat` resolves must agree with `readdir` membership
//!    (the dentry-cache coherence probe).
//!
//! Participant panics, fault-class errors ([`vfs::FsError::is_fault`],
//! `Corrupted`, `Internal`, a leaked `Released` sentinel), deadlocks and
//! runaway schedules are failures too ([`FailureKind`]).
//!
//! # Scope
//!
//! The op vocabulary ([`Op::ALL`]) gives `unlink` its own target file,
//! separate from `append`'s: the LibFS (faithfully to the artifact) keeps
//! no open-descriptor refcount, so unlink-while-open is a known semantic
//! gap, not a schedule-dependent race worth exploring. Blocked-thread
//! resumption is the other caveat: a participant that blocks on a real
//! lock held by a parked participant is detected by grace timeout and,
//! once the lock frees, runs concurrently with the granted thread until
//! its next point — schedules around lock handoff are explored slightly
//! coarser than point granularity.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use arckfs::inject::Controller;
use arckfs::{Config, LibFs};
use pmem::PmemDevice;
use vfs::{FileSystem, FileType, FsError, FsExt, FsResult, OpenFlags};

pub mod fuzz;

/// Device size every exploration run (concurrent and serial-spec) uses.
pub const DEVICE_LEN: usize = 4 << 20;

/// Cap on failures collected per explored op combination: once a space is
/// this broken, more examples add noise, not information.
const MAX_FAILURES_PER_SPACE: usize = 4;

// ---- op vocabulary ---------------------------------------------------------

/// One concurrent operation the explorer can schedule. Each op is a small
/// self-contained closure over the fixed [`setup`] namespace; per-thread
/// identity (`tid`) picks distinct append payloads so overlapping writes
/// are visible in the final state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `create("/d/n")` — racing creates arbitrate on one name.
    Create,
    /// `unlink("/d/u0")` — a pre-created file of its own (see module docs).
    Unlink,
    /// `rename("/d/old", "/d/new")`.
    Rename,
    /// `release_path("/d")` — the §4.3 voluntary inode release.
    Release,
    /// `create("/d/rv")` — forces the §4.3 revival path when racing a
    /// release of `/d`.
    Revive,
    /// `open_dir("/d")` + `open_at(.., "old")` — drives the dcache fill.
    OpenAt,
    /// `O_APPEND` open of `/d/f0` + `append` of a tid-tagged payload.
    Append,
    /// `write_file("/d/w", …)` of a tid-tagged multi-page payload, sized
    /// to ride the delegation rings when the config under test enables
    /// them ([`explore_delegate_pairs`]); inline non-temporal stores
    /// otherwise.
    WriteDelegated,
    /// `write_vectored_at` of a tid-tagged payload into `/d/f0` at a
    /// tid-distinct block-aligned offset — two disjoint ranged writers on
    /// one shared file, driving the `file.write.range_lock` and
    /// `file.write.extent_insert` windows ([`explore_range_pairs`]).
    WriteRanged,
    /// `fallocate(fd, 1024, 2048)` on `/d/f0` — preallocation racing the
    /// data ops; a no-op when the file system reports it unsupported.
    Fallocate,
    /// Hand `/d` to another application and take it back: release `/d`
    /// and `/`, let a second LibFS on the same kernel create and unlink
    /// `/d/hx`, rename `/d/u0` to `/d/hy` and back (live set unchanged,
    /// slots reused under other names, tails moved) and unmount, then
    /// `create("/d/hb")` — the re-acquire that must not trust the index it
    /// released with, and replays the other side's changed slots into it
    /// (DESIGN.md §14).
    Handoff,
}

impl Op {
    /// The whole vocabulary, in a fixed order. Newer ops come last so
    /// budget truncation of a sweep sheds the newest pairs first.
    pub const ALL: [Op; 11] = [
        Op::Create,
        Op::Unlink,
        Op::Rename,
        Op::Release,
        Op::Revive,
        Op::OpenAt,
        Op::Append,
        Op::WriteDelegated,
        Op::WriteRanged,
        Op::Fallocate,
        Op::Handoff,
    ];

    /// The ops that exercise the ranged shared-file data path: the
    /// disjoint vectored writer and the preallocator.
    pub const RANGED: [Op; 2] = [Op::WriteRanged, Op::Fallocate];

    /// Short name (participant label, report rows).
    pub fn name(self) -> &'static str {
        match self {
            Op::Create => "create",
            Op::Unlink => "unlink",
            Op::Rename => "rename",
            Op::Release => "release",
            Op::Revive => "revive",
            Op::OpenAt => "open_at",
            Op::Append => "append",
            Op::WriteDelegated => "write_delegated",
            Op::WriteRanged => "write_ranged",
            Op::Fallocate => "fallocate",
            Op::Handoff => "handoff",
        }
    }

    /// The payload `Op::Append` writes for participant `tid`.
    pub fn append_payload(tid: usize) -> Vec<u8> {
        vec![b'a' + (tid as u8 % 26); 24]
    }

    /// The payload `Op::WriteDelegated` writes for participant `tid`:
    /// three pages, so the write spans several delegation chunks.
    pub fn delegated_payload(tid: usize) -> Vec<u8> {
        vec![b'0' + (tid as u8 % 10); 12 * 1024]
    }

    /// The payload `Op::WriteRanged` writes for participant `tid`.
    pub fn ranged_payload(tid: usize) -> Vec<u8> {
        vec![b'A' + (tid as u8 % 26); 1024]
    }

    /// The offset `Op::WriteRanged` writes at for participant `tid`:
    /// block-aligned and tid-distinct, so two ranged writers touch
    /// disjoint blocks of the shared `/d/f0` and every serial order
    /// lands the same final image.
    pub fn ranged_offset(tid: usize) -> u64 {
        4096 * (tid as u64 + 1)
    }

    fn run(self, fs: &LibFs, tid: usize) -> FsResult<()> {
        match self {
            Op::Create => {
                let fd = fs.create("/d/n")?;
                fs.close(fd)
            }
            Op::Unlink => fs.unlink("/d/u0"),
            Op::Rename => fs.rename("/d/old", "/d/new"),
            Op::Release => fs.release_path("/d"),
            Op::Revive => {
                let fd = fs.create("/d/rv")?;
                fs.close(fd)
            }
            Op::OpenAt => {
                let dirfd = fs.open_dir("/d")?;
                let r = match fs.open_at(dirfd, "old", OpenFlags::read()) {
                    Ok(fd) => fs.close(fd),
                    Err(FsError::NotFound) => Ok(()), // lost to a rename: legal
                    Err(e) => Err(e),
                };
                let c = fs.close(dirfd);
                r.and(c)
            }
            Op::Append => {
                let fd = fs.open("/d/f0", OpenFlags::empty().append())?;
                let r = fs.append(fd, &Op::append_payload(tid)).map(|_| ());
                let c = fs.close(fd);
                r.and(c)
            }
            Op::WriteDelegated => fs.write_file("/d/w", &Op::delegated_payload(tid)),
            Op::WriteRanged => {
                let fd = fs.open("/d/f0", OpenFlags::empty().write())?;
                let payload = Op::ranged_payload(tid);
                let (head, tail) = payload.split_at(payload.len() / 2);
                let r = fs
                    .write_vectored_at(fd, &[head, tail], Op::ranged_offset(tid))
                    .map(|_| ());
                let c = fs.close(fd);
                r.and(c)
            }
            Op::Fallocate => {
                let fd = fs.open("/d/f0", OpenFlags::empty().write())?;
                let r = match fs.fallocate(fd, 1024, 2048) {
                    Err(FsError::Unsupported(_)) => Ok(()),
                    r => r,
                };
                let c = fs.close(fd);
                r.and(c)
            }
            Op::Handoff => {
                fs.release_path("/d")?;
                fs.release_path("/")?;
                arckfs::inject::point(HANDOFF_RELEASED);
                foreign_turn(fs)?;
                arckfs::inject::point(HANDOFF_RETURNED);
                let fd = fs.create("/d/hb")?;
                fs.close(fd)
            }
        }
    }
}

/// Schedule point of [`Op::Handoff`] after its releases, before the other
/// application's turn: a racing op granted here takes `/d` back first.
const HANDOFF_RELEASED: &str = "schedmc.handoff.released";
/// Schedule point of [`Op::Handoff`] after the other application's turn,
/// before its own re-acquiring create.
const HANDOFF_RETURNED: &str = "schedmc.handoff.returned";

/// The other application's turn in [`Op::Handoff`]: a second LibFS on the
/// same kernel creates and unlinks `/d/hx`, renames the resident `/d/u0`
/// into the slot `hx` left and back into its own, then unmounts. The
/// explored LibFS's revival then removes `u0` by its old record and inserts
/// it again. The turn runs on a thread of its own — not a controller
/// participant — so it falls between two schedule points of the explored
/// LibFS: no op of that LibFS ever observes the directory held by somebody
/// else (the explored LibFS does not wait for other applications;
/// `NotOwner` is final). If a racing op took `/` or `/d` back first, the
/// turn is simply lost; if one unlinked `u0`, there is nothing to rename.
fn foreign_turn(fs: &LibFs) -> FsResult<()> {
    let hint = pmem::thread_shard_override();
    std::thread::scope(|s| {
        s.spawn(|| {
            pmem::set_thread_shard_hint(hint);
            let other = LibFs::mount(fs.kernel().clone(), fs.config().clone(), 0)?;
            let turn = other.create("/d/hx").and_then(|fd| {
                other.close(fd)?;
                other.unlink("/d/hx")?;
                match other.rename("/d/u0", "/d/hy") {
                    Ok(()) => other.rename("/d/hy", "/d/u0"),
                    Err(FsError::NotFound) => Ok(()),
                    Err(e) => Err(e),
                }
            });
            let left = other.unmount();
            match turn {
                Ok(()) | Err(FsError::NotOwner { .. }) => left,
                Err(e) => Err(e),
            }
        })
        .join()
        .expect("the other application's turn does not panic")
    })
}

/// Build the fixed pre-run namespace every op targets: `/d` with `f0`
/// (content `b"base."`), `old`, and `u0`.
pub fn setup(fs: &LibFs) -> FsResult<()> {
    fs.mkdir("/d")?;
    fs.write_file("/d/f0", b"base.")?;
    for name in ["/d/old", "/d/u0"] {
        let fd = fs.create(name)?;
        fs.close(fd)?;
    }
    Ok(())
}

// ---- options ---------------------------------------------------------------

/// How long [`Controller::quiesce`] lets a granted participant run
/// before classifying it blocked. A wall-clock stand-in for a progress
/// argument: on a loaded or two-core host a shorter grace reports false
/// `[deadlock]`/`[diverged]` schedules (10 ms did). It goes once every
/// wait a participant can block in parks at a schedule point.
pub const QUIESCE_GRACE: Duration = Duration::from_millis(50);

/// Exploration parameters. [`ExploreOpts::quick`] and [`ExploreOpts::deep`]
/// are the two fixed presets; a caller that wants other values sets the
/// fields.
#[derive(Debug, Clone)]
pub struct ExploreOpts {
    /// Maximum preemptions per schedule (CHESS-style bound).
    pub preemption_bound: usize,
    /// Cap on schedules executed per [`explore`] call.
    pub max_schedules: usize,
    /// Cap on decisions per schedule (runaway/livelock guard).
    pub max_steps: usize,
    /// Quiesce grace before a busy participant is classified blocked.
    pub grace: Duration,
    /// Run the crash-state oracle at every schedule point (requires the
    /// tracked device the explorer then allocates).
    pub crash_oracle: bool,
    /// Crash spaces at most this large are enumerated exhaustively.
    pub crash_exhaustive_limit: u64,
    /// Samples drawn from larger crash spaces.
    pub crash_samples: usize,
    /// Seed for crash-state sampling (recorded in failures for replay).
    pub seed: u64,
    /// Wall-clock budget for the whole exploration; `None` = unbounded.
    pub budget: Option<Duration>,
    /// LibFS configuration under test.
    pub config: Config,
}

impl ExploreOpts {
    /// The CI quick mode: preemption bound 2, seeded, time-budgeted to
    /// finish in well under a minute on the fully patched config.
    pub fn quick() -> ExploreOpts {
        ExploreOpts {
            preemption_bound: 2,
            max_schedules: 256,
            max_steps: 64,
            grace: QUIESCE_GRACE,
            crash_oracle: true,
            crash_exhaustive_limit: 32,
            crash_samples: 8,
            seed: 0xa5c3,
            budget: Some(Duration::from_secs(45)),
            config: Config::arckfs_plus(),
        }
    }

    /// The deep sweep (`ARCKFS_SCHEDMC_DEEP=1` on the CLI): higher bound,
    /// more schedules and crash samples, a five-minute budget.
    pub fn deep() -> ExploreOpts {
        ExploreOpts {
            preemption_bound: 3,
            max_schedules: 4096,
            crash_exhaustive_limit: 64,
            crash_samples: 16,
            budget: Some(Duration::from_secs(300)),
            ..ExploreOpts::quick()
        }
    }
}

// ---- outcomes --------------------------------------------------------------

/// How a schedule failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Post-run fsck found a fatal consistency violation.
    FsckFatal,
    /// A crash state reachable at a schedule point failed fsck.
    CrashInconsistent,
    /// Final state matches no serial order of the ops.
    SpecDivergence,
    /// `stat` and `readdir` disagreed about a name (stale dcache lie).
    CacheIncoherence,
    /// An op returned a fault-class error.
    OpFault,
    /// A participant panicked.
    OpPanicked,
    /// No participant could be scheduled but not all finished.
    Deadlock,
    /// The schedule exceeded [`ExploreOpts::max_steps`] decisions.
    Diverged,
    /// A mined invariant that had been promoted to an oracle was violated
    /// (fuzzing mode only; see [`fuzz`]).
    InvariantViolated,
}

impl FailureKind {
    /// Stable string form (JSON reports, test assertions).
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::FsckFatal => "fsck_fatal",
            FailureKind::CrashInconsistent => "crash_inconsistent",
            FailureKind::SpecDivergence => "spec_divergence",
            FailureKind::CacheIncoherence => "cache_incoherence",
            FailureKind::OpFault => "op_fault",
            FailureKind::OpPanicked => "op_panicked",
            FailureKind::Deadlock => "deadlock",
            FailureKind::Diverged => "diverged",
            FailureKind::InvariantViolated => "invariant_violated",
        }
    }
}

/// A failing schedule: everything needed to reproduce it with [`replay`].
#[derive(Debug, Clone)]
pub struct Failure {
    /// What the oracle saw.
    pub kind: FailureKind,
    /// Human-readable diagnosis.
    pub detail: String,
    /// The ops that were racing.
    pub ops: Vec<Op>,
    /// The executed choice sequence (tid per decision) — the replayable
    /// schedule.
    pub schedule: Vec<usize>,
    /// The executed trace: `(tid, point)` per granted segment.
    pub trace: Vec<(usize, String)>,
    /// Preemptions the schedule needed (minimal for the first failure
    /// found, by exploration order).
    pub preemptions: usize,
    /// Crash-sampling seed in effect.
    pub seed: u64,
}

impl Failure {
    /// A copy-pasteable regression-test line reproducing this schedule.
    pub fn replay_snippet(&self) -> String {
        let ops: Vec<String> = self.ops.iter().map(|o| format!("Op::{o:?}")).collect();
        format!(
            "schedmc::replay(&[{}], &{:?}, &opts)",
            ops.join(", "),
            self.schedule
        )
    }
}

/// Aggregate result of an exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Schedules executed.
    pub schedules: usize,
    /// Times each point name appeared in an executed trace.
    pub points_hit: BTreeMap<String, u64>,
    /// Failing schedules (capped per op combination).
    pub failures: Vec<Failure>,
    /// Distinct `(inject point, crash-state fingerprint)` pairs reached:
    /// at each schedule point the crash oracle visits, every logical
    /// fingerprint of a reachable recovered state is paired with the point
    /// the granted thread was parked at. This is the coverage currency the
    /// fuzzer ([`fuzz`]) is measured in, collected here too so the
    /// exhaustive sweep provides a comparable baseline. Empty when the
    /// crash oracle is off.
    pub coverage_pairs: BTreeSet<(String, u64)>,
    /// Crash images checked by the crash oracle.
    pub crash_states_checked: u64,
    /// Largest crash-state space seen at any schedule point.
    pub state_space_max: u64,
    /// True when a budget or schedule cap cut enumeration short.
    pub truncated: bool,
}

impl ExploreReport {
    /// True when every executed schedule passed every oracle.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: ExploreReport) {
        self.schedules += other.schedules;
        for (k, v) in other.points_hit {
            *self.points_hit.entry(k).or_insert(0) += v;
        }
        self.failures.extend(other.failures);
        self.coverage_pairs.extend(other.coverage_pairs);
        self.crash_states_checked += other.crash_states_checked;
        self.state_space_max = self.state_space_max.max(other.state_space_max);
        self.truncated |= other.truncated;
    }

    /// The `schedmc` coverage block exported through the obs JSON
    /// (`obs::Report::write_json_ext`).
    pub fn to_json(&self) -> serde_json::Value {
        let mut points = serde_json::Map::new();
        for (k, v) in &self.points_hit {
            points.insert(k.clone(), (*v).into());
        }
        let failures: Vec<serde_json::Value> = self
            .failures
            .iter()
            .map(|f| {
                serde_json::json!({
                    "kind": f.kind.name(),
                    "detail": f.detail.clone(),
                    "ops": f.ops.iter().map(|o| o.name()).collect::<Vec<_>>(),
                    "schedule": f.schedule.clone(),
                    "preemptions": f.preemptions,
                    "seed": f.seed,
                })
            })
            .collect();
        serde_json::json!({
            "schedules": self.schedules,
            "points_hit": serde_json::Value::Object(points),
            "failures": failures,
            "coverage_pairs": self.coverage_pairs.len(),
            "crash_states_checked": self.crash_states_checked,
            "state_space_max": self.state_space_max,
            "truncated": self.truncated,
        })
    }
}

/// Outcome of a single [`replay`]ed schedule.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The failure the schedule reproduces, if any.
    pub failure: Option<Failure>,
    /// The executed trace: `(tid, point)` per granted segment.
    pub trace: Vec<(usize, String)>,
    /// True when a requested choice was not schedulable and the default
    /// was taken instead (the run no longer reproduces the recording).
    pub diverged_from_schedule: bool,
}

// ---- final-state capture (sequential-specification oracle) -----------------

/// A name-keyed snapshot node: directory listing or file content. Inode
/// numbers are deliberately excluded — serial orders legitimately assign
/// different inos.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    Dir(Vec<String>),
    File(Vec<u8>),
}

type FsState = BTreeMap<String, Node>;

fn capture_state(fs: &LibFs) -> FsResult<FsState> {
    let mut out = BTreeMap::new();
    let mut stack = vec!["/".to_string()];
    while let Some(dir) = stack.pop() {
        let mut entries = fs.readdir(&dir)?;
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        out.insert(
            dir.clone(),
            Node::Dir(entries.iter().map(|e| e.name.clone()).collect()),
        );
        for e in entries {
            let path = if dir == "/" {
                format!("/{}", e.name)
            } else {
                format!("{}/{}", dir, e.name)
            };
            match e.file_type {
                FileType::Directory => stack.push(path),
                FileType::Regular => {
                    out.insert(path.clone(), Node::File(fs.read_file(&path)?));
                }
            }
        }
    }
    Ok(out)
}

fn diff_states(got: &FsState, allowed: &[FsState]) -> String {
    let nearest = allowed
        .iter()
        .min_by_key(|s| {
            got.iter().filter(|(k, v)| s.get(*k) != Some(v)).count()
                + s.keys().filter(|k| !got.contains_key(*k)).count()
        })
        .expect("at least one serial order");
    let mut lines = Vec::new();
    for (k, v) in got {
        if nearest.get(k) != Some(v) {
            lines.push(format!("  concurrent has {k}: {v:?}"));
        }
    }
    for (k, v) in nearest {
        if !got.contains_key(k) {
            lines.push(format!("  nearest serial order has {k}: {v:?}"));
        }
    }
    lines.join("\n")
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(remaining: &mut Vec<usize>, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining.is_empty() {
            out.push(cur.clone());
            return;
        }
        for i in 0..remaining.len() {
            let x = remaining.remove(i);
            cur.push(x);
            rec(remaining, cur, out);
            cur.pop();
            remaining.insert(i, x);
        }
    }
    let mut out = Vec::new();
    rec(&mut (0..n).collect(), &mut Vec::new(), &mut out);
    out
}

/// Final states of every serial order of `ops` under `config` — the
/// reference set the concurrent final state must fall into.
fn serial_states(ops: &[Op], config: &Config) -> Result<Vec<FsState>, String> {
    let mut out: Vec<FsState> = Vec::new();
    for perm in permutations(ops.len()) {
        let (_kernel, fs) = arckfs::new_fs(DEVICE_LEN, config.clone())
            .map_err(|e| format!("serial mount: {e}"))?;
        setup(&fs).map_err(|e| format!("serial setup: {e}"))?;
        for &i in &perm {
            if let Err(e) = ops[i].run(&fs, i) {
                if fatal_op_error(&e) {
                    return Err(format!(
                        "op {} faulted in the serial order {perm:?}: {e}",
                        ops[i].name()
                    ));
                }
            }
        }
        let state = capture_state(&fs).map_err(|e| format!("serial capture: {e}"))?;
        if !out.contains(&state) {
            out.push(state);
        }
    }
    Ok(out)
}

pub(crate) fn fatal_op_error(e: &FsError) -> bool {
    e.is_fault()
        || matches!(
            e,
            FsError::Corrupted(_) | FsError::Internal(_) | FsError::Released { .. }
        )
}

/// `stat` (dcache path) must agree with `readdir` (authoritative walk)
/// about every name an op can create, remove, or rename.
fn coherence_probe(fs: &LibFs) -> Result<(), String> {
    let listed: Vec<String> = fs
        .readdir("/d")
        .map_err(|e| format!("coherence readdir: {e}"))?
        .into_iter()
        .map(|e| e.name)
        .collect();
    for name in ["n", "u0", "old", "new", "rv", "f0", "nb", "hb", "hx", "hy"] {
        let path = format!("/d/{name}");
        let via_stat = match fs.stat(&path) {
            Ok(_) => true,
            Err(FsError::NotFound) => false,
            Err(e) => return Err(format!("coherence stat {path}: {e}")),
        };
        let via_readdir = listed.iter().any(|n| n == name);
        if via_stat != via_readdir {
            return Err(format!(
                "'{name}': stat resolves it = {via_stat}, readdir lists it = {via_readdir}"
            ));
        }
    }
    Ok(())
}

// ---- one schedule ----------------------------------------------------------

#[derive(Debug, Clone)]
struct Prefix {
    choices: Vec<usize>,
    preemptions: usize,
}

struct RunOutcome {
    choices: Vec<usize>,
    alternatives: Vec<Prefix>,
    trace: Vec<(usize, String)>,
    failure: Option<(FailureKind, String)>,
    preemptions: usize,
    crash_states: u64,
    state_space_max: u64,
    prefix_diverged: bool,
    /// `(point, fingerprint)` coverage pairs this run reached (see
    /// [`ExploreReport::coverage_pairs`]).
    coverage: BTreeSet<(String, u64)>,
}

pub(crate) fn default_choice(last: Option<usize>, runnable: &[usize]) -> usize {
    match last {
        Some(l) if runnable.contains(&l) => l,
        _ => runnable[0],
    }
}

/// Deprioritizes cooperative lock-waiters ([`arckfs::inject::WAIT_PREFIX`]
/// points) whose retry already failed. A participant parked at a wait
/// point re-attempts its acquisition only when granted; granting it again
/// before any other thread has run is guaranteed to fail the same way (no
/// lock changed hands), so such threads are filtered out of the choice
/// set until a different grant lands. This both avoids livelock (a
/// keep-last-biased walk hammering a waiter forever) and keeps wait
/// retries from diluting schedule-choice entropy. The tracking is a pure
/// function of the grant history, so it is deterministic across runs.
#[derive(Default)]
pub(crate) struct WaitStall {
    stalled: std::collections::BTreeSet<usize>,
}

impl WaitStall {
    /// The choice set: runnable tids minus stalled waiters — unless that
    /// would leave nothing, in which case every runnable tid is offered
    /// (if they are all truly stuck the deadlock oracle reports it).
    pub(crate) fn filter(&self, runnable: &[(usize, String)]) -> Vec<usize> {
        let kept: Vec<usize> = runnable
            .iter()
            .filter(|(t, p)| {
                !(p.starts_with(arckfs::inject::WAIT_PREFIX) && self.stalled.contains(t))
            })
            .map(|(t, _)| *t)
            .collect();
        if kept.is_empty() {
            runnable.iter().map(|(t, _)| *t).collect()
        } else {
            kept
        }
    }

    /// Record a grant of `chosen` parked at `point`.
    pub(crate) fn note(&mut self, chosen: usize, point: &str) {
        if point.starts_with(arckfs::inject::WAIT_PREFIX) {
            self.stalled.insert(chosen);
        } else {
            // Any real progress may have released a lock; every waiter
            // deserves a fresh retry.
            self.stalled.clear();
        }
    }
}

fn run_one(
    ops: &[Op],
    prefix: &[usize],
    serial: &[FsState],
    opts: &ExploreOpts,
    collect_alternatives: bool,
) -> RunOutcome {
    let mut out = RunOutcome {
        choices: Vec::new(),
        alternatives: Vec::new(),
        trace: Vec::new(),
        failure: None,
        preemptions: 0,
        crash_states: 0,
        state_space_max: 0,
        prefix_diverged: false,
        coverage: BTreeSet::new(),
    };

    let device = if opts.crash_oracle {
        PmemDevice::new_tracked(DEVICE_LEN)
    } else {
        PmemDevice::new(DEVICE_LEN)
    };
    let (_kernel, fs) = match arckfs::new_fs_on(device.clone(), opts.config.clone()) {
        Ok(v) => v,
        Err(e) => {
            out.failure = Some((FailureKind::OpFault, format!("mount: {e}")));
            return out;
        }
    };
    if let Err(e) = setup(&fs) {
        out.failure = Some((FailureKind::OpFault, format!("setup: {e}")));
        return out;
    }
    if opts.crash_oracle {
        // Known-durable baseline: only the racing ops' own stores
        // contribute crash states from here on.
        device.persist_all();
    }

    let ctl = Controller::new();
    let mut handles = Vec::new();
    for (tid, op) in ops.iter().copied().enumerate() {
        let fs = fs.clone();
        handles.push(ctl.spawn(op.name(), move || op.run(&fs, tid)));
    }

    let mut last: Option<usize> = None;
    let mut stall = WaitStall::default();
    loop {
        let mut runnable = ctl.quiesce(opts.grace);
        if runnable.is_empty() {
            if ctl.all_finished() {
                break;
            }
            // Blocked participants may still be mid-handoff: give them one
            // long grace before calling it a deadlock.
            runnable = ctl.quiesce(opts.grace * 10);
            if runnable.is_empty() {
                if ctl.all_finished() {
                    break;
                }
                out.failure = Some((
                    FailureKind::Deadlock,
                    format!("no schedulable participant; statuses: {:?}", ctl.statuses()),
                ));
                break;
            }
        }

        let mut crash_fps: BTreeSet<u64> = BTreeSet::new();
        if opts.crash_oracle {
            match crashmc::check_bounded(
                &device,
                opts.crash_exhaustive_limit,
                opts.crash_samples,
                opts.seed ^ out.choices.len() as u64,
            ) {
                Ok(report) => {
                    out.crash_states += report.states as u64;
                    out.state_space_max = out.state_space_max.max(report.state_space);
                    crash_fps = report.fingerprints.clone();
                    if !report.is_consistent() {
                        out.failure = Some((
                            FailureKind::CrashInconsistent,
                            format!(
                                "{} of {} crash states fatal (space {}): {:?}",
                                report.fatal_states,
                                report.states,
                                report.state_space,
                                report.examples.first()
                            ),
                        ));
                        break;
                    }
                }
                Err(e) => {
                    out.failure =
                        Some((FailureKind::CrashInconsistent, format!("crash oracle: {e}")));
                    break;
                }
            }
        }

        if out.choices.len() >= opts.max_steps {
            out.failure = Some((
                FailureKind::Diverged,
                format!("schedule exceeded {} decisions", opts.max_steps),
            ));
            break;
        }

        // Pinned prefixes keep authority over the *full* runnable set (a
        // hand-written schedule may deliberately grant a stalled waiter);
        // free choices and branch alternatives use the stall-filtered set.
        let all_tids: Vec<usize> = runnable.iter().map(|(t, _)| *t).collect();
        let tids = stall.filter(&runnable);
        let chosen = if out.choices.len() < prefix.len() {
            let want = prefix[out.choices.len()];
            if all_tids.contains(&want) {
                want
            } else {
                out.prefix_diverged = true;
                default_choice(last, &tids)
            }
        } else {
            let d = default_choice(last, &tids);
            if collect_alternatives {
                for &t in &tids {
                    if t == d {
                        continue;
                    }
                    // Switching away from a still-runnable last thread
                    // costs a preemption; any switch after it parked,
                    // blocked, or finished is free.
                    let cost = out.preemptions
                        + usize::from(last.is_some_and(|l| tids.contains(&l) && t != l));
                    if cost <= opts.preemption_bound {
                        let mut choices = out.choices.clone();
                        choices.push(t);
                        out.alternatives.push(Prefix {
                            choices,
                            preemptions: cost,
                        });
                    }
                }
            }
            d
        };

        if last.is_some_and(|l| tids.contains(&l) && chosen != l) {
            out.preemptions += 1;
        }
        // Coverage: the crash fingerprints reachable here, keyed by the
        // point the schedule proceeds from — "what crash states exist when
        // execution resumes at this window".
        if let Some((_, point)) = runnable.iter().find(|(t, _)| *t == chosen) {
            for &fp in &crash_fps {
                out.coverage.insert((point.clone(), fp));
            }
            stall.note(chosen, point);
        }
        out.choices.push(chosen);
        let stepped = ctl.step(chosen);
        debug_assert!(stepped, "runnable tid must accept the grant");
        last = Some(chosen);
    }

    out.trace = ctl
        .trace()
        .into_iter()
        .map(|e| (e.tid, e.point))
        .collect();
    drop(ctl); // releases everyone (also on the early-failure paths)

    let mut op_results = Vec::new();
    for (tid, h) in handles.into_iter().enumerate() {
        op_results.push((tid, h.join()));
    }
    if out.failure.is_some() {
        return out;
    }

    for (tid, r) in &op_results {
        match r {
            Err(panic) => {
                out.failure = Some((
                    FailureKind::OpPanicked,
                    format!("op {} (tid {tid}) panicked: {panic}", ops[*tid].name()),
                ));
                return out;
            }
            Ok(Err(e)) if fatal_op_error(e) => {
                out.failure = Some((
                    FailureKind::OpFault,
                    format!("op {} (tid {tid}) failed: {e}", ops[*tid].name()),
                ));
                return out;
            }
            Ok(_) => {}
        }
    }

    match capture_state(&fs) {
        Ok(state) => {
            if !serial.contains(&state) {
                out.failure = Some((
                    FailureKind::SpecDivergence,
                    format!(
                        "final state matches none of {} serial orders:\n{}",
                        serial.len(),
                        diff_states(&state, serial)
                    ),
                ));
                return out;
            }
        }
        Err(e) => {
            out.failure = Some((FailureKind::OpFault, format!("post-run capture: {e}")));
            return out;
        }
    }

    if let Err(detail) = coherence_probe(&fs) {
        out.failure = Some((FailureKind::CacheIncoherence, detail));
        return out;
    }

    if let Err(e) = fs.unmount() {
        out.failure = Some((FailureKind::FsckFatal, format!("unmount: {e}")));
        return out;
    }
    match trio::fsck::fsck(&device) {
        Ok(report) => {
            let fatal = report.fatal();
            if !fatal.is_empty() {
                out.failure = Some((
                    FailureKind::FsckFatal,
                    format!("post-run fsck: {:?}", fatal[0]),
                ));
            }
        }
        Err(e) => {
            out.failure = Some((FailureKind::FsckFatal, format!("post-run fsck: {e}")));
        }
    }
    out
}

// ---- exploration driver ----------------------------------------------------

/// Exhaustively explore the interleavings of `ops` up to
/// [`ExploreOpts::preemption_bound`], running every oracle on each.
pub fn explore(ops: &[Op], opts: &ExploreOpts) -> ExploreReport {
    let deadline = opts.budget.map(|b| Instant::now() + b);
    explore_inner(ops, opts, deadline)
}

fn explore_inner(ops: &[Op], opts: &ExploreOpts, deadline: Option<Instant>) -> ExploreReport {
    let mut report = ExploreReport::default();
    let serial = match serial_states(ops, &opts.config) {
        Ok(s) => s,
        Err(e) => {
            report.failures.push(Failure {
                kind: FailureKind::OpFault,
                detail: format!("sequential specification unavailable: {e}"),
                ops: ops.to_vec(),
                schedule: Vec::new(),
                trace: Vec::new(),
                preemptions: 0,
                seed: opts.seed,
            });
            return report;
        }
    };

    let mut work = vec![Prefix {
        choices: Vec::new(),
        preemptions: 0,
    }];
    while !work.is_empty() {
        if report.schedules >= opts.max_schedules
            || report.failures.len() >= MAX_FAILURES_PER_SPACE
            || deadline.is_some_and(|d| Instant::now() >= d)
        {
            report.truncated = true;
            break;
        }
        // Cheapest-first: the first failure found needs the fewest
        // preemptions (FIFO among equals keeps shorter prefixes earlier).
        let next = work
            .iter()
            .enumerate()
            .min_by_key(|(i, p)| (p.preemptions, *i))
            .map(|(i, _)| i)
            .expect("non-empty worklist");
        let prefix = work.remove(next);

        let outcome = run_one(ops, &prefix.choices, &serial, opts, true);
        report.schedules += 1;
        for (_, point) in &outcome.trace {
            *report.points_hit.entry(point.clone()).or_insert(0) += 1;
        }
        report.crash_states_checked += outcome.crash_states;
        report.state_space_max = report.state_space_max.max(outcome.state_space_max);
        report.coverage_pairs.extend(outcome.coverage);
        if let Some((kind, detail)) = outcome.failure {
            report.failures.push(Failure {
                kind,
                detail,
                ops: ops.to_vec(),
                schedule: outcome.choices,
                trace: outcome.trace,
                preemptions: outcome.preemptions,
                seed: opts.seed,
            });
        }
        work.extend(outcome.alternatives);
    }
    report
}

/// Re-execute one recorded schedule (from [`Failure::schedule`]) and
/// report what the oracles see — the deterministic regression-test entry
/// point.
pub fn replay(ops: &[Op], schedule: &[usize], opts: &ExploreOpts) -> ReplayOutcome {
    let serial = match serial_states(ops, &opts.config) {
        Ok(s) => s,
        Err(e) => {
            return ReplayOutcome {
                failure: Some(Failure {
                    kind: FailureKind::OpFault,
                    detail: format!("sequential specification unavailable: {e}"),
                    ops: ops.to_vec(),
                    schedule: schedule.to_vec(),
                    trace: Vec::new(),
                    preemptions: 0,
                    seed: opts.seed,
                }),
                trace: Vec::new(),
                diverged_from_schedule: false,
            }
        }
    };
    let outcome = run_one(ops, schedule, &serial, opts, false);
    ReplayOutcome {
        failure: outcome.failure.map(|(kind, detail)| Failure {
            kind,
            detail,
            ops: ops.to_vec(),
            schedule: outcome.choices.clone(),
            trace: outcome.trace.clone(),
            preemptions: outcome.preemptions,
            seed: opts.seed,
        }),
        trace: outcome.trace,
        diverged_from_schedule: outcome.prefix_diverged,
    }
}

/// Explore every unordered pair (including self-pairs) from [`Op::ALL`] —
/// the quick CI sweep. The budget in `opts` bounds the whole sweep, not
/// each pair.
pub fn explore_vocabulary(opts: &ExploreOpts) -> ExploreReport {
    explore_combos(opts, 2)
}

/// Explore every unordered triple from [`Op::ALL`] — the deep sweep.
pub fn explore_vocabulary_triples(opts: &ExploreOpts) -> ExploreReport {
    explore_combos(opts, 3)
}

/// Explore every unordered pair involving [`Op::WriteDelegated`] under a
/// **ring-enabled** copy of `opts.config` (two delegation rings, the
/// delegation floor dropped so the op's multi-page payload actually rides
/// them) — the vocabulary sweep alone only exercises the inline store
/// path, so the `delegate.sq.*` schedule points would never arbitrate.
/// Same preemption bound and budget semantics as [`explore_vocabulary`].
pub fn explore_delegate_pairs(opts: &ExploreOpts) -> ExploreReport {
    let mut opts = opts.clone();
    opts.config.delegation_threads = 2;
    opts.config.delegation_min = 4096;
    opts.config.deleg_batch = 2;
    explore_pairs_with(&opts, &[Op::WriteDelegated])
}

/// Explore every unordered pair involving a ranged-data op
/// ([`Op::RANGED`]: the disjoint vectored writer and the preallocator), so
/// the `file.write.{range_lock,extent_insert,zero_gap}` points arbitrate
/// against every other op. Same preemption bound and budget semantics as
/// [`explore_vocabulary`].
pub fn explore_range_pairs(opts: &ExploreOpts) -> ExploreReport {
    explore_pairs_with(opts, &Op::RANGED)
}

/// Explore every unordered pair involving [`Op::Handoff`] on its own
/// budget: release → foreign create/unlink → re-acquire against every other
/// op, so the revival's keep-or-rebuild decision arbitrates even when the
/// vocabulary sweep is truncated before it gets there.
pub fn explore_handoff_pairs(opts: &ExploreOpts) -> ExploreReport {
    explore_pairs_with(opts, &[Op::Handoff])
}

/// Every unordered pair from [`Op::ALL`] with at least one member in
/// `focus`, under one budget for the whole sweep.
fn explore_pairs_with(opts: &ExploreOpts, focus: &[Op]) -> ExploreReport {
    let deadline = opts.budget.map(|b| Instant::now() + b);
    let mut report = ExploreReport::default();
    for (i, a) in Op::ALL.iter().enumerate() {
        for b in &Op::ALL[i..] {
            if !focus.contains(a) && !focus.contains(b) {
                continue;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                report.truncated = true;
                return report;
            }
            report.merge(explore_inner(&[*a, *b], opts, deadline));
        }
    }
    report
}

fn explore_combos(opts: &ExploreOpts, arity: usize) -> ExploreReport {
    let deadline = opts.budget.map(|b| Instant::now() + b);
    let mut report = ExploreReport::default();
    let mut combos: Vec<Vec<Op>> = Vec::new();
    match arity {
        2 => {
            for i in 0..Op::ALL.len() {
                for j in i..Op::ALL.len() {
                    combos.push(vec![Op::ALL[i], Op::ALL[j]]);
                }
            }
        }
        3 => {
            for i in 0..Op::ALL.len() {
                for j in i..Op::ALL.len() {
                    for k in j..Op::ALL.len() {
                        combos.push(vec![Op::ALL[i], Op::ALL[j], Op::ALL[k]]);
                    }
                }
            }
        }
        other => panic!("unsupported combination arity {other}"),
    }
    for ops in combos {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            report.truncated = true;
            break;
        }
        report.merge(explore_inner(&ops, opts, deadline));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_opts() -> ExploreOpts {
        ExploreOpts {
            preemption_bound: 2,
            max_schedules: 64,
            max_steps: 64,
            grace: QUIESCE_GRACE,
            crash_oracle: false,
            crash_exhaustive_limit: 16,
            crash_samples: 4,
            seed: 7,
            budget: None,
            config: Config::arckfs_plus(),
        }
    }

    #[test]
    fn permutations_count() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(2).len(), 2);
        assert_eq!(permutations(3).len(), 6);
    }

    #[test]
    fn serial_spec_covers_both_orders() {
        // create + unlink touch different names: both orders agree, so the
        // serial-state set deduplicates to one state.
        let s = serial_states(&[Op::Create, Op::Unlink], &Config::arckfs_plus()).unwrap();
        assert_eq!(s.len(), 1);
        // two appends differ by order... but produce the same byte count,
        // different content order — two distinct states.
        let s = serial_states(&[Op::Append, Op::Append], &Config::arckfs_plus()).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn single_op_explores_clean() {
        let report = explore(&[Op::Create], &test_opts());
        assert!(report.schedules >= 1);
        assert!(report.is_clean(), "{:?}", report.failures);
        assert!(!report.truncated);
    }

    #[test]
    fn pair_exploration_finds_multiple_schedules() {
        let report = explore(&[Op::Create, Op::Rename], &test_opts());
        assert!(
            report.schedules > 1,
            "two racing ops must admit more than one interleaving, got {}",
            report.schedules
        );
        assert!(report.is_clean(), "{:?}", report.failures);
    }

    #[test]
    fn handoff_races_explore_clean() {
        // Release → foreign create/unlink/rename → re-acquire against a
        // create, the unlink of the renamed resident, a revival and itself:
        // whichever side gets to `/d` first, every interleaving ends in a
        // serial state.
        for other in [Op::Create, Op::Unlink, Op::Revive, Op::Handoff] {
            let report = explore(&[Op::Handoff, other], &test_opts());
            assert!(report.schedules > 1, "{other:?}: {}", report.schedules);
            assert!(report.is_clean(), "{other:?}: {:?}", report.failures);
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let opts = test_opts();
        let a = replay(&[Op::Create, Op::Rename], &[0, 0, 1, 1], &opts);
        let b = replay(&[Op::Create, Op::Rename], &[0, 0, 1, 1], &opts);
        assert_eq!(a.trace, b.trace);
        assert!(a.failure.is_none(), "{:?}", a.failure);
    }

    #[test]
    fn report_merge_accumulates() {
        let mut a = ExploreReport {
            schedules: 2,
            ..Default::default()
        };
        a.points_hit.insert("x".into(), 1);
        let mut b = ExploreReport {
            schedules: 3,
            truncated: true,
            ..Default::default()
        };
        b.points_hit.insert("x".into(), 2);
        b.points_hit.insert("y".into(), 1);
        a.merge(b);
        assert_eq!(a.schedules, 5);
        assert_eq!(a.points_hit["x"], 3);
        assert_eq!(a.points_hit["y"], 1);
        assert!(a.truncated);
        let json = a.to_json();
        assert_eq!(json.get("schedules").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(
            json.get("points_hit")
                .and_then(|p| p.get("x"))
                .and_then(|v| v.as_u64()),
            Some(3)
        );
    }
}
