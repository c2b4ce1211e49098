//! Coverage-guided crash/schedule fuzzing.
//!
//! The exhaustive explorer ([`crate::explore`]) is complete up to its
//! preemption bound but only over tiny op programs (pairs, triples) on a
//! single-tenant namespace. This module is the complementary search: long
//! randomized op programs (10–50 ops over the full vocabulary, including
//! multi-tenant ops against distinct LibFS uids) whose schedules are
//! driven by a **seeded weighted random walk** over the same
//! [`Controller`] choice points, with
//! occasional preemption bursts.
//!
//! The coverage signal a program is judged by combines two ingredients:
//!
//! * **`(inject point, crash fingerprint)` pairs** — at a periodic crash
//!   check (every [`FuzzOpts::crash_period`] decisions) every logical
//!   fingerprint of a reachable recovered state
//!   ([`crashmc::CrashReport::fingerprints`]) is paired with the point the
//!   schedule resumes from. This is the same currency
//!   [`crate::ExploreReport::coverage_pairs`] collects, so the exhaustive
//!   sweep provides a directly comparable baseline.
//! * **per-point hit buckets** — AFL-style `log2` buckets of how often a
//!   run visited each inject point, catching "same pairs, much deeper
//!   loop" programs the pair set alone would discard.
//!
//! Programs that reach new coverage enter an energy-weighted corpus and
//! are mutated (splice / insert / delete / arg-perturb / tenant-reassign)
//! to produce the next inputs.
//!
//! # Invariant mining
//!
//! Alongside the hard oracles (crash consistency, fsck, faults, cache
//! coherence, deadlock) the fuzzer records candidate predicates at its
//! observation points and *mines* them: a candidate that holds for
//! [`FuzzOpts::promote_after`] consecutive evaluated runs is **promoted**
//! to a first-class oracle (violations then fail the campaign); a
//! candidate refuted while still on probation is **demoted** — it keeps a
//! record of the counterexample but never fails a run. The candidate set:
//!
//! | name | predicate | checked |
//! |------|-----------|---------|
//! | `size_monotone` | durable file sizes never shrink within a run | per crash check |
//! | `commit_before_link` | no dangling dentry in the durable image (a visible link implies a committed target) | per crash check |
//!
//! `size_monotone` is refuted by any `truncate` that shrinks across a
//! durable boundary, so it demotes itself in a full-vocabulary campaign —
//! exactly the lifecycle working as designed. A shrink in a run that
//! truncates demotes it even once promoted (a campaign whose first
//! `promote_after` runs happened not to shrink would otherwise fail on
//! the refuter doing its job). `commit_before_link` is the
//! §4.2 ordering and promotes; a later violation would be a real bug.
//!
//! Every failure carries the program, the executed schedule, and the run
//! seed: [`replay_fuzz`] re-executes it pinned, [`minimize`] shrinks the
//! program while the failure still reproduces.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use arckfs::inject::Controller;
use arckfs::{Config, LibFs};
use pmem::PmemDevice;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use trio::{Kernel, KernelConfig};
use vfs::{Fd, FileSystem, FsError, FsResult, OpenFlags};

use crate::{fatal_op_error, FailureKind, Op, DEVICE_LEN, QUIESCE_GRACE};

/// First tenant uid; tenant `k` mounts as `TENANT_UID_BASE + k`.
pub const TENANT_UID_BASE: u32 = 100;

/// Corpus size cap: beyond this the lowest-energy entry is evicted.
const CORPUS_CAP: usize = 256;

/// Failures collected before a campaign stops early.
const MAX_FUZZ_FAILURES: usize = 8;

// ---- invariant names -------------------------------------------------------

/// Mined invariant: durable file sizes never shrink within a run.
pub const INV_SIZE_MONOTONE: &str = "size_monotone";
/// Mined invariant: a visible link implies a committed target inode.
pub const INV_COMMIT_BEFORE_LINK: &str = "commit_before_link";

/// The op whose legitimate effect refutes a mined invariant: `truncate`
/// shrinks a durable size on purpose. A violation in a run whose program
/// includes it demotes the invariant even after promotion; without it, a
/// promoted invariant's violation fails the campaign.
fn designated_refuter(name: &str) -> Option<FuzzOpKind> {
    (name == INV_SIZE_MONOTONE).then_some(FuzzOpKind::Truncate)
}

// ---- op vocabulary ---------------------------------------------------------

/// One fuzzed operation kind. This is deliberately a separate enum from
/// [`Op`]: the explorer's vocabulary is pinned (its pair counts are part
/// of regression baselines), while the fuzzer adds shrinking ops
/// (`truncate`) and namespace growth (`mkdir`) that would break the
/// explorer's serial-order oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FuzzOpKind {
    /// `create_new` of an `arg`-picked name — racing creates arbitrate.
    Create,
    /// `unlink_at` of an `arg`-picked name.
    Unlink,
    /// `rename` between `old` and `new` inside the tenant home
    /// (direction by `arg`); the only absolute-path op, so it also
    /// exercises root revival and cross-tenant root ownership hand-off.
    Rename,
    /// `release_path` of the tenant home — the §4.3 voluntary release.
    Release,
    /// create of `rv` through the home handle — forces §4.3 revival when
    /// racing a [`FuzzOpKind::Release`] of the same home.
    Revive,
    /// `open_at` + close of a fixture — drives the dcache fill.
    OpenAt,
    /// `O_APPEND` write into the shared `f0`.
    Append,
    /// Multi-page write sized to ride the delegation rings.
    WriteDelegated,
    /// Disjoint vectored write into the shared `f0` at a thread-distinct
    /// block-aligned offset (range-lock / extent windows).
    WriteRanged,
    /// `fallocate` on `f0`; no-op when unsupported.
    Fallocate,
    /// Truncate `f0` to an `arg`-picked size — the designated refuter of
    /// the `size_monotone` candidate invariant.
    Truncate,
    /// `mkdir_at` of an `arg`-picked subdirectory.
    Mkdir,
}

impl FuzzOpKind {
    /// The whole fuzz vocabulary in a fixed order.
    pub const ALL: [FuzzOpKind; 12] = [
        FuzzOpKind::Create,
        FuzzOpKind::Unlink,
        FuzzOpKind::Rename,
        FuzzOpKind::Release,
        FuzzOpKind::Revive,
        FuzzOpKind::OpenAt,
        FuzzOpKind::Append,
        FuzzOpKind::WriteDelegated,
        FuzzOpKind::WriteRanged,
        FuzzOpKind::Fallocate,
        FuzzOpKind::Truncate,
        FuzzOpKind::Mkdir,
    ];

    /// Short name (labels, reports).
    pub fn name(self) -> &'static str {
        match self {
            FuzzOpKind::Create => "create",
            FuzzOpKind::Unlink => "unlink",
            FuzzOpKind::Rename => "rename",
            FuzzOpKind::Release => "release",
            FuzzOpKind::Revive => "revive",
            FuzzOpKind::OpenAt => "open_at",
            FuzzOpKind::Append => "append",
            FuzzOpKind::WriteDelegated => "write_delegated",
            FuzzOpKind::WriteRanged => "write_ranged",
            FuzzOpKind::Fallocate => "fallocate",
            FuzzOpKind::Truncate => "truncate",
            FuzzOpKind::Mkdir => "mkdir",
        }
    }
}

/// One op of a fuzz program: what to do, against which tenant's LibFS,
/// with which perturbable argument (name pick, size, direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzOp {
    /// The operation.
    pub kind: FuzzOpKind,
    /// Tenant index (modulo the mounted tenant count).
    pub tenant: u8,
    /// Op-specific argument the mutator perturbs.
    pub arg: u16,
}

/// Names any fuzz op can create under a tenant home, plus the fixtures —
/// the universe the coherence probe checks both directions.
const NAME_POOL: [&str; 16] = [
    "f0", "old", "u0", "new", "rv", "n0", "n1", "n2", "n3", "w0", "w1", "w2", "w3", "nb0", "nb1",
    "sub0",
];

/// A mounted tenant: its LibFS, home path, and the pinned home handle
/// every `*_at` op anchors on (path walks from the root would serialize
/// every tenant on root ownership).
struct TenantCtx {
    fs: Arc<LibFs>,
    home: String,
    home_fd: Fd,
}

impl FuzzOp {
    /// True when `e` is an expected consequence of racing this vocabulary
    /// (lost races, exhausted resources, lease contention, foreign-owned
    /// root) rather than a bug.
    fn benign(e: &FsError) -> bool {
        matches!(
            e,
            FsError::NotFound
                | FsError::AlreadyExists
                | FsError::IsADirectory
                | FsError::NotADirectory
                | FsError::NotEmpty
                | FsError::Busy
                | FsError::NotOwner { .. }
                | FsError::NoSpace
                | FsError::FileTooBig { .. }
                | FsError::Unsupported(_)
        )
    }

    fn run(self, t: &TenantCtx, tid: usize) -> FsResult<()> {
        let fs = &*t.fs;
        match self.kind {
            FuzzOpKind::Create => {
                let name = format!("n{}", self.arg % 4);
                let fd = fs.open_at(t.home_fd, &name, OpenFlags::rw().create_new())?;
                fs.close(fd)
            }
            FuzzOpKind::Unlink => {
                let name = NAME_POOL[self.arg as usize % NAME_POOL.len()];
                fs.unlink_at(t.home_fd, name)
            }
            FuzzOpKind::Rename => {
                let (from, to) = if self.arg.is_multiple_of(2) {
                    ("old", "new")
                } else {
                    ("new", "old")
                };
                let r = fs.rename(
                    &format!("{}/{from}", t.home),
                    &format!("{}/{to}", t.home),
                );
                // Hand the root inode back: the walk above revived (and
                // now owns) it, and every other tenant's absolute-path op
                // would otherwise see `NotOwner` for the rest of the run.
                let _ = fs.release_path("/");
                r
            }
            FuzzOpKind::Release => {
                let r = fs.release_path(&t.home);
                // Resolving the home path revived (and took ownership of)
                // the root inode; hand it back like the rename op does.
                let _ = fs.release_path("/");
                r
            }
            FuzzOpKind::Revive => {
                let fd = fs.open_at(t.home_fd, "rv", OpenFlags::rw().create())?;
                fs.close(fd)
            }
            FuzzOpKind::OpenAt => {
                let name = NAME_POOL[self.arg as usize % 4];
                let fd = fs.open_at(t.home_fd, name, OpenFlags::read())?;
                fs.close(fd)
            }
            FuzzOpKind::Append => {
                let fd = fs.open_at(t.home_fd, "f0", OpenFlags::empty().append())?;
                let r = fs.append(fd, &Op::append_payload(tid)).map(|_| ());
                let c = fs.close(fd);
                r.and(c)
            }
            FuzzOpKind::WriteDelegated => {
                let name = format!("w{}", self.arg % 4);
                let fd = fs.open_at(t.home_fd, &name, OpenFlags::rw().create())?;
                let r = fs
                    .write_at(fd, &Op::delegated_payload(tid), 0)
                    .map(|_| ());
                let c = fs.close(fd);
                r.and(c)
            }
            FuzzOpKind::WriteRanged => {
                let fd = fs.open_at(t.home_fd, "f0", OpenFlags::empty().write())?;
                let payload = Op::ranged_payload(tid);
                let (head, tail) = payload.split_at(payload.len() / 2);
                let r = fs
                    .write_vectored_at(fd, &[head, tail], Op::ranged_offset(tid))
                    .map(|_| ());
                let c = fs.close(fd);
                r.and(c)
            }
            FuzzOpKind::Fallocate => {
                let fd = fs.open_at(t.home_fd, "f0", OpenFlags::empty().write())?;
                let r = match fs.fallocate(fd, 1024, 2048) {
                    Err(FsError::Unsupported(_)) => Ok(()),
                    r => r,
                };
                let c = fs.close(fd);
                r.and(c)
            }
            FuzzOpKind::Truncate => {
                let fd = fs.open_at(t.home_fd, "f0", OpenFlags::empty().write())?;
                let r = fs.truncate(fd, u64::from(self.arg) % 4096);
                let c = fs.close(fd);
                r.and(c)
            }
            FuzzOpKind::Mkdir => fs.mkdir_at(t.home_fd, "sub0"),
        }
    }
}

// ---- options ---------------------------------------------------------------

/// Fuzzing-campaign parameters. [`FuzzOpts::smoke`] is the deterministic
/// CI leg (exec-bounded, no wall clock in the loop); [`FuzzOpts::nightly`]
/// is the budgeted deep leg.
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    /// Master seed: corpus generation, mutation, and schedule walks all
    /// derive from it. Same seed + same exec bound ⇒ byte-identical
    /// coverage (the determinism regression pins this).
    pub seed: u64,
    /// Stop after this many program executions (`None` = unbounded).
    pub max_execs: Option<u64>,
    /// Stop after this much wall clock (`None` = unbounded). At least one
    /// of `max_execs` / `budget` should be set.
    pub budget: Option<Duration>,
    /// Minimum generated program length.
    pub program_min: usize,
    /// Maximum generated program length.
    pub program_max: usize,
    /// Participant threads a program is striped across (op `i` runs on
    /// thread `i % threads`).
    pub threads: usize,
    /// Mounted tenants (distinct LibFS uids).
    pub tenants: usize,
    /// Run the crash oracle (and the durable-image invariants) every this
    /// many schedule decisions; `0` disables crash checking entirely.
    pub crash_period: usize,
    /// Crash spaces at most this large are enumerated exhaustively.
    pub crash_exhaustive_limit: u64,
    /// Samples drawn from larger crash spaces.
    pub crash_samples: usize,
    /// Quiesce grace before a busy participant is classified blocked.
    pub grace: Duration,
    /// Cap on decisions per run (runaway guard; fuzz programs are long).
    pub max_steps: usize,
    /// Candidate invariants promote after this many consecutive clean
    /// evaluated runs.
    pub promote_after: u64,
    /// Randomly generated programs seeding the corpus.
    pub corpus_seeds: usize,
    /// Vocabulary the generator and mutator draw from.
    pub vocabulary: Vec<FuzzOpKind>,
    /// LibFS configuration under test. The nightly leg enables the
    /// delegation rings so their inject points are reachable.
    pub config: Config,
}

impl FuzzOpts {
    /// The deterministic CI smoke: 24 executions, seed `0xf12f`, no
    /// wall-clock dependence in the loop, full vocabulary.
    pub fn smoke() -> FuzzOpts {
        let mut config = Config::arckfs_plus();
        // Delegation rings stay OFF here (the preset's `delegation_threads`
        // is 0) — their free-running worker threads race the quiesce grace
        // deadline, and the smoke's same-seed determinism contract can't
        // survive that (the nightly leg turns them on; it makes no
        // determinism claim).
        // Small pools, so a 10–50-op program crosses the kernel's batched
        // grant and surplus-return paths.
        config.page_batch = 16;
        config.ino_batch = 8;
        config.pool_low = 8;
        config.pool_high = 64;
        FuzzOpts {
            seed: 0xf12f,
            max_execs: Some(24),
            budget: None,
            program_min: 10,
            program_max: 50,
            threads: 3,
            tenants: 2,
            crash_period: 6,
            crash_exhaustive_limit: 32,
            crash_samples: 6,
            grace: QUIESCE_GRACE,
            max_steps: 4096,
            promote_after: 4,
            corpus_seeds: 4,
            vocabulary: FuzzOpKind::ALL.to_vec(),
            config,
        }
    }

    /// The nightly deep leg: a two-minute wall-clock budget, unbounded
    /// execs, more crash samples, delegation rings on (the smoke leaves
    /// them off to keep its determinism contract).
    pub fn nightly() -> FuzzOpts {
        let mut opts = FuzzOpts::smoke();
        opts.max_execs = None;
        opts.budget = Some(Duration::from_secs(120));
        opts.crash_period = 4;
        opts.crash_samples = 12;
        opts.promote_after = 8;
        opts.config.delegation_threads = 2;
        opts.config.delegation_min = 4096;
        opts.config.deleg_batch = 2;
        opts
    }
}

// ---- invariants ------------------------------------------------------------

/// Where a mined invariant is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantStatus {
    /// Still on probation: violations demote, enough clean runs promote.
    Candidate,
    /// Held for [`FuzzOpts::promote_after`] runs; now a first-class
    /// oracle — violations fail the campaign, unless the run executed the
    /// invariant's designated refuter (then it is demoted).
    Promoted,
    /// Refuted while on probation, or by its designated refuter after
    /// promotion; recorded, never enforced.
    Demoted,
}

impl InvariantStatus {
    /// Stable string form.
    pub fn name(self) -> &'static str {
        match self {
            InvariantStatus::Candidate => "candidate",
            InvariantStatus::Promoted => "promoted",
            InvariantStatus::Demoted => "demoted",
        }
    }
}

/// Ledger entry for one mined invariant.
#[derive(Debug, Clone)]
pub struct InvariantState {
    /// Lifecycle position.
    pub status: InvariantStatus,
    /// Consecutive clean evaluated runs (resets on violation).
    pub clean_runs: u64,
    /// Total violations observed (including the demoting one).
    pub violations: u64,
    /// First counterexample, for diagnostics.
    pub example: Option<String>,
}

impl Default for InvariantState {
    fn default() -> Self {
        InvariantState {
            status: InvariantStatus::Candidate,
            clean_runs: 0,
            violations: 0,
            example: None,
        }
    }
}

// ---- failures and reports --------------------------------------------------

/// A failing fuzz execution: everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// What the oracle saw.
    pub kind: FailureKind,
    /// Human-readable diagnosis.
    pub detail: String,
    /// The op program that was running.
    pub program: Vec<FuzzOp>,
    /// The executed choice sequence (tid per decision).
    pub schedule: Vec<usize>,
    /// The run seed (schedule walk and crash sampling).
    pub seed: u64,
}

impl FuzzFailure {
    /// A copy-pasteable reproduction line.
    pub fn replay_snippet(&self) -> String {
        let ops: Vec<String> = self
            .program
            .iter()
            .map(|o| {
                format!(
                    "FuzzOp {{ kind: FuzzOpKind::{:?}, tenant: {}, arg: {} }}",
                    o.kind, o.tenant, o.arg
                )
            })
            .collect();
        format!(
            "schedmc::fuzz::replay_fuzz(&[{}], &{:?}, &opts)",
            ops.join(", "),
            self.schedule
        )
    }
}

/// Aggregate result of a fuzzing campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Program executions completed.
    pub execs: u64,
    /// Corpus size at campaign end.
    pub corpus: usize,
    /// Distinct `(inject point, crash fingerprint)` pairs reached — the
    /// currency shared with [`crate::ExploreReport::coverage_pairs`].
    pub coverage_pairs: BTreeSet<(String, u64)>,
    /// Distinct `(inject point, log2 hit-count bucket)` pairs reached.
    pub point_buckets: BTreeSet<(String, u32)>,
    /// Total hits per point across the campaign.
    pub points_hit: BTreeMap<String, u64>,
    /// Executions that added new coverage (pairs or buckets).
    pub new_coverage_events: u64,
    /// Crash images checked.
    pub crash_states_checked: u64,
    /// Largest crash-state space seen.
    pub state_space_max: u64,
    /// Failing executions (capped so a broken build cannot flood memory).
    pub failures: Vec<FuzzFailure>,
    /// The mined-invariant ledger.
    pub invariants: BTreeMap<String, InvariantState>,
    /// Wall clock the campaign took.
    pub elapsed: Duration,
    /// True when the budget (not the exec bound) stopped the campaign.
    pub truncated: bool,
}

impl FuzzReport {
    /// True when no execution failed an oracle (including promoted
    /// invariants).
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Invariants currently in `status`.
    pub fn invariants_with(&self, status: InvariantStatus) -> Vec<&str> {
        self.invariants
            .iter()
            .filter(|(_, s)| s.status == status)
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// A stable hash of the coverage reached — the determinism regression
    /// asserts two same-seed campaigns produce equal values.
    pub fn coverage_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (point, fp) in &self.coverage_pairs {
            eat(point.as_bytes());
            eat(&[0xff]);
            eat(&fp.to_le_bytes());
        }
        for (point, bucket) in &self.point_buckets {
            eat(point.as_bytes());
            eat(&[0xfe]);
            eat(&bucket.to_le_bytes());
        }
        h
    }

    /// The `fuzz` block of the obs JSON export.
    pub fn to_json(&self) -> serde_json::Value {
        let execs_per_sec = if self.elapsed.as_secs_f64() > 0.0 {
            self.execs as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        };
        let mut invariants = serde_json::Map::new();
        for (name, st) in &self.invariants {
            invariants.insert(
                name.clone(),
                serde_json::json!({
                    "status": st.status.name(),
                    "clean_runs": st.clean_runs,
                    "violations": st.violations,
                    "example": st.example.clone(),
                }),
            );
        }
        let failures: Vec<serde_json::Value> = self
            .failures
            .iter()
            .map(|f| {
                serde_json::json!({
                    "kind": f.kind.name(),
                    "detail": f.detail.clone(),
                    "schedule": f.schedule.clone(),
                    "seed": f.seed,
                    "replay": f.replay_snippet(),
                })
            })
            .collect();
        serde_json::json!({
            "execs": self.execs,
            "execs_per_sec": execs_per_sec,
            "corpus": self.corpus,
            "coverage_pairs": self.coverage_pairs.len(),
            "point_buckets": self.point_buckets.len(),
            "points": self.points_hit.len(),
            "new_coverage_events": self.new_coverage_events,
            "crash_states_checked": self.crash_states_checked,
            "state_space_max": self.state_space_max,
            "failures": failures,
            "invariants": serde_json::Value::Object(invariants),
            "invariants_promoted": self.invariants_with(InvariantStatus::Promoted).len(),
            "invariants_demoted": self.invariants_with(InvariantStatus::Demoted).len(),
            "coverage_fingerprint": format!("{:#018x}", self.coverage_fingerprint()),
            "elapsed_ms": self.elapsed.as_millis() as u64,
            "truncated": self.truncated,
        })
    }
}

/// Outcome of one [`replay_fuzz`] execution.
#[derive(Debug, Clone)]
pub struct FuzzReplay {
    /// The failure the pinned schedule reproduces, if any.
    pub failure: Option<FuzzFailure>,
    /// Raw invariant violations this run observed (name → detail) —
    /// replay has no mining ledger, so they are surfaced undigested.
    pub violations: BTreeMap<String, String>,
    /// Total hits per point.
    pub points_hit: BTreeMap<String, u64>,
    /// True when a requested choice was not schedulable and the default
    /// was taken instead.
    pub diverged_from_schedule: bool,
}

// ---- program generation and mutation ---------------------------------------

fn gen_op(rng: &mut SmallRng, opts: &FuzzOpts) -> FuzzOp {
    FuzzOp {
        kind: opts.vocabulary[rng.gen_range(0..opts.vocabulary.len())],
        tenant: rng.gen_range(0..opts.tenants.max(1)) as u8,
        arg: rng.gen_range(0..u16::MAX),
    }
}

fn gen_program(rng: &mut SmallRng, opts: &FuzzOpts) -> Vec<FuzzOp> {
    let len = rng.gen_range(opts.program_min..=opts.program_max);
    (0..len).map(|_| gen_op(rng, opts)).collect()
}

struct CorpusEntry {
    program: Vec<FuzzOp>,
    energy: u64,
}

fn pick_corpus(rng: &mut SmallRng, corpus: &[CorpusEntry]) -> usize {
    let total: u64 = corpus.iter().map(|e| e.energy).sum();
    let mut x = rng.gen_range(0..total.max(1));
    for (i, e) in corpus.iter().enumerate() {
        if x < e.energy {
            return i;
        }
        x -= e.energy;
    }
    corpus.len() - 1
}

/// One mutated child: 1–3 stacked mutations, length clamped to the
/// configured window.
fn mutate(rng: &mut SmallRng, corpus: &[CorpusEntry], opts: &FuzzOpts) -> Vec<FuzzOp> {
    let mut program = corpus[pick_corpus(rng, corpus)].program.clone();
    let rounds = 1 + rng.gen_range(0..3);
    for _ in 0..rounds {
        match rng.gen_range(0..5) {
            0 => {
                // Splice: head of this program, tail of another.
                let other = &corpus[pick_corpus(rng, corpus)].program;
                let cut_a = rng.gen_range(0..=program.len());
                let cut_b = rng.gen_range(0..=other.len());
                program.truncate(cut_a);
                program.extend_from_slice(&other[cut_b.min(other.len())..]);
            }
            1 => {
                let at = rng.gen_range(0..=program.len());
                program.insert(at, gen_op(rng, opts));
            }
            2 => {
                if program.len() > 1 {
                    let at = rng.gen_range(0..program.len());
                    program.remove(at);
                }
            }
            3 => {
                if !program.is_empty() {
                    let at = rng.gen_range(0..program.len());
                    program[at].arg = rng.gen_range(0..u16::MAX);
                }
            }
            _ => {
                if !program.is_empty() {
                    let at = rng.gen_range(0..program.len());
                    program[at].tenant = rng.gen_range(0..opts.tenants.max(1)) as u8;
                }
            }
        }
    }
    while program.len() < opts.program_min {
        program.push(gen_op(rng, opts));
    }
    program.truncate(opts.program_max);
    program
}

// ---- one fuzz execution ----------------------------------------------------

enum Plan<'a> {
    /// Seeded weighted random walk with preemption bursts.
    Walk(u64),
    /// Pin the recorded choice sequence; defaults past its end.
    Replay(&'a [usize]),
}

struct FuzzRun {
    failure: Option<(FailureKind, String)>,
    schedule: Vec<usize>,
    coverage: BTreeSet<(String, u64)>,
    points: BTreeMap<String, u64>,
    crash_states: u64,
    state_space_max: u64,
    /// Invariants this run could evaluate at least once.
    evaluated: BTreeSet<&'static str>,
    /// Invariant name → first counterexample this run.
    violated: BTreeMap<&'static str, String>,
    diverged_from_schedule: bool,
}

/// Walk-mode choice: keep the last thread ~70% of the time, otherwise
/// jump uniformly; 1-in-16 decisions arm a burst of 2–4 forced switches
/// (the preemption storms rare interleavings hide behind).
fn walk_choice(
    rng: &mut SmallRng,
    last: Option<usize>,
    tids: &[usize],
    burst: &mut usize,
) -> usize {
    if tids.len() == 1 {
        return tids[0];
    }
    if *burst > 0 {
        *burst -= 1;
        let others: Vec<usize> = tids
            .iter()
            .copied()
            .filter(|&t| Some(t) != last)
            .collect();
        return others[rng.gen_range(0..others.len())];
    }
    if rng.gen_range(0..16) == 0 {
        *burst = rng.gen_range(2..=4);
    }
    if let Some(l) = last {
        if tids.contains(&l) && rng.gen_range(0..10) < 7 {
            return l;
        }
    }
    tids[rng.gen_range(0..tids.len())]
}

/// Durable per-path file sizes of the persistent image (`None` when the
/// image has no walkable superblock yet).
fn durable_sizes(recovered: &Arc<PmemDevice>, geom: &trio::Geometry) -> Option<BTreeMap<String, u64>> {
    let snap = trio::logical_snapshot(recovered, geom).ok()?;
    Some(
        snap.into_iter()
            .filter(|e| e.itype == trio::InodeType::Regular)
            .map(|e| (e.path, e.size))
            .collect(),
    )
}

#[allow(clippy::too_many_lines)]
fn run_program(program: &[FuzzOp], plan: Plan<'_>, opts: &FuzzOpts) -> FuzzRun {
    let mut out = FuzzRun {
        failure: None,
        schedule: Vec::new(),
        coverage: BTreeSet::new(),
        points: BTreeMap::new(),
        crash_states: 0,
        state_space_max: 0,
        evaluated: BTreeSet::new(),
        violated: BTreeMap::new(),
        diverged_from_schedule: false,
    };
    let tracked = opts.crash_period > 0;
    let device = if tracked {
        PmemDevice::new_tracked(DEVICE_LEN)
    } else {
        PmemDevice::new(DEVICE_LEN)
    };
    let geom = trio::Geometry::for_device(DEVICE_LEN);
    let mut kconfig = KernelConfig::arckfs_plus();
    // The rename lease expires on wall-clock time and a waiter then
    // *steals* it. Under the controller a rename can sit parked at an
    // inject point for many grace periods while holding the lease, so a
    // 2s expiry turns lease steals — and therefore rename outcomes and
    // schedule shapes — into a function of host timing. Pin the expiry
    // far beyond any single run so same-seed walks are reproducible.
    kconfig.lease_timeout = Duration::from_secs(3600);
    let kernel = match Kernel::format(device.clone(), geom, kconfig) {
        Ok(k) => k,
        Err(e) => {
            out.failure = Some((FailureKind::OpFault, format!("format: {e}")));
            return out;
        }
    };
    let geom = *kernel.geometry();

    // Mount the tenants (creating the home acquires root, so release it
    // once the home handle exists).
    let mut tenants: Vec<TenantCtx> = Vec::with_capacity(opts.tenants);
    for k in 0..opts.tenants {
        let uid = TENANT_UID_BASE + k as u32;
        let setup = (|| -> FsResult<TenantCtx> {
            let fs = LibFs::mount(kernel.clone(), opts.config.clone(), uid)?;
            let home = format!("/t{k}");
            fs.mkdir(&home)?;
            let home_fd = fs.open_dir(&home)?;
            fs.release_path("/")?;
            // Fixtures every op targets.
            for name in ["f0", "old", "u0"] {
                let fd = fs.open_at(home_fd, name, OpenFlags::rw().create())?;
                if name == "f0" {
                    fs.write_at(fd, b"base.", 0)?;
                }
                fs.close(fd)?;
            }
            fs.sync()?;
            Ok(TenantCtx {
                fs,
                home,
                home_fd,
            })
        })();
        match setup {
            Ok(t) => tenants.push(t),
            Err(e) => {
                out.failure = Some((FailureKind::OpFault, format!("tenant {k} setup: {e}")));
                return out;
            }
        }
    }
    if tracked {
        // Known-durable baseline: only the program's own stores contribute
        // crash states (and size history) from here on.
        device.persist_all();
    }
    let tenants = Arc::new(tenants);

    // Stripe the program across the participant threads.
    let ctl = Controller::new();
    let mut handles = Vec::new();
    let threads = opts.threads.max(1);
    for t in 0..threads.min(program.len().max(1)) {
        let slice: Vec<FuzzOp> = program
            .iter()
            .enumerate()
            .filter(|(i, _)| i % threads == t)
            .map(|(_, op)| *op)
            .collect();
        let tenants = tenants.clone();
        let label = format!("w{t}");
        handles.push(ctl.spawn(&label, move || -> FsResult<()> {
            for op in slice {
                let ctx = &tenants[op.tenant as usize % tenants.len()];
                match op.run(ctx, t) {
                    Ok(()) => {}
                    Err(e) if FuzzOp::benign(&e) => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        }));
    }

    // Invariant scratch state for this run.
    let mut last_sizes: Option<BTreeMap<String, u64>> = None;
    let note_violation = |out: &mut FuzzRun, name: &'static str, detail: String| {
        out.violated.entry(name).or_insert(detail);
    };

    let mut rng_and_burst = match &plan {
        Plan::Walk(seed) => Some((SmallRng::seed_from_u64(*seed), 0usize)),
        Plan::Replay(_) => None,
    };
    let mut last: Option<usize> = None;
    let mut stall = crate::WaitStall::default();
    loop {
        let mut runnable = ctl.quiesce(opts.grace);
        if runnable.is_empty() {
            if ctl.all_finished() {
                break;
            }
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

        // Periodic crash oracle + durable-image invariants.
        let mut crash_fps: BTreeSet<u64> = BTreeSet::new();
        if tracked && out.schedule.len().is_multiple_of(opts.crash_period) {
            let seed = match &plan {
                Plan::Walk(s) => *s,
                Plan::Replay(_) => opts.seed,
            };
            match crashmc::check_bounded(
                &device,
                opts.crash_exhaustive_limit,
                opts.crash_samples,
                seed ^ out.schedule.len() as u64,
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

            // Durable-image candidates, from one persistent snapshot.
            if let Ok(img) = device.persistent_image() {
                let recovered = PmemDevice::from_image(&img);
                drop(img);
                if let Ok(report) = trio::fsck::fsck(&recovered) {
                    out.evaluated.insert(INV_COMMIT_BEFORE_LINK);
                    if let Some(d) = report
                        .issues
                        .iter()
                        .find(|i| matches!(i, trio::FsckIssue::DanglingDentry { .. }))
                    {
                        note_violation(
                            &mut out,
                            INV_COMMIT_BEFORE_LINK,
                            format!("durable image has a dangling dentry: {d:?}"),
                        );
                    }
                }
                if let Some(sizes) = durable_sizes(&recovered, &geom) {
                    out.evaluated.insert(INV_SIZE_MONOTONE);
                    if let Some(prev) = &last_sizes {
                        for (path, old) in prev {
                            if let Some(new) = sizes.get(path) {
                                if new < old {
                                    note_violation(
                                        &mut out,
                                        INV_SIZE_MONOTONE,
                                        format!("{path}: durable size shrank {old} -> {new}"),
                                    );
                                }
                            }
                        }
                    }
                    last_sizes = Some(sizes);
                }
            }
        }

        if out.schedule.len() >= opts.max_steps {
            out.failure = Some((
                FailureKind::Diverged,
                format!("run exceeded {} decisions", opts.max_steps),
            ));
            break;
        }

        // Pinned schedules keep authority over the *full* runnable set (a
        // minimized repro may deliberately grant a stalled waiter); walk
        // and fallback choices use the stall-filtered set.
        let all_tids: Vec<usize> = runnable.iter().map(|(t, _)| *t).collect();
        let tids = stall.filter(&runnable);
        let chosen = match &plan {
            Plan::Replay(schedule) => {
                if let Some(&want) = schedule.get(out.schedule.len()) {
                    if all_tids.contains(&want) {
                        want
                    } else {
                        out.diverged_from_schedule = true;
                        crate::default_choice(last, &tids)
                    }
                } else {
                    crate::default_choice(last, &tids)
                }
            }
            Plan::Walk(_) => {
                let (rng, burst) = rng_and_burst.as_mut().expect("walk mode has an rng");
                walk_choice(rng, last, &tids, burst)
            }
        };
        if let Some((_, point)) = runnable.iter().find(|(t, _)| *t == chosen) {
            for &fp in &crash_fps {
                out.coverage.insert((point.clone(), fp));
            }
            stall.note(chosen, point);
        }
        out.schedule.push(chosen);
        let stepped = ctl.step(chosen);
        debug_assert!(stepped, "runnable tid must accept the grant");
        last = Some(chosen);
    }

    for e in ctl.trace() {
        *out.points.entry(e.point).or_insert(0) += 1;
    }
    drop(ctl); // releases everyone (also on the early-failure paths)

    let mut op_results = Vec::new();
    for (t, h) in handles.into_iter().enumerate() {
        op_results.push((t, h.join()));
    }
    if out.failure.is_some() {
        return out;
    }

    for (t, r) in &op_results {
        match r {
            Err(panic) => {
                out.failure = Some((
                    FailureKind::OpPanicked,
                    format!("worker {t} panicked: {panic}"),
                ));
                return out;
            }
            Ok(Err(e)) => {
                // Benign errors never escape the worker loop, so anything
                // surfacing here — a modelled fault or an error this
                // vocabulary can't legitimately produce — is a failure.
                debug_assert!(fatal_op_error(e) || !FuzzOp::benign(e));
                out.failure = Some((FailureKind::OpFault, format!("worker {t} failed: {e}")));
                return out;
            }
            Ok(Ok(())) => {}
        }
    }

    // Root hand-back sweep: whichever tenant's last absolute-path walk
    // revived the root still owns it; only the owner's release succeeds,
    // everyone else's errs benignly. Without this the probe's walks below
    // would see `NotOwner` on a namespace that is perfectly coherent.
    for t in tenants.iter() {
        let _ = t.fs.release_path("/");
    }

    // Cache coherence per tenant: `stat_at` (dcache path) must agree with
    // `readdir` (authoritative walk) about every name in the pool.
    for t in tenants.iter() {
        let listed: Vec<String> = match t.fs.readdir(&t.home) {
            Ok(es) => es.into_iter().map(|e| e.name).collect(),
            Err(e) => {
                out.failure = Some((
                    FailureKind::CacheIncoherence,
                    format!("coherence readdir {}: {e}", t.home),
                ));
                return out;
            }
        };
        let _ = t.fs.release_path("/");
        for name in NAME_POOL {
            let via_stat = match t.fs.stat_at(t.home_fd, name) {
                Ok(_) => true,
                Err(FsError::NotFound) => false,
                Err(e) => {
                    out.failure = Some((
                        FailureKind::CacheIncoherence,
                        format!("coherence stat {}/{name}: {e}", t.home),
                    ));
                    return out;
                }
            };
            let via_readdir = listed.iter().any(|n| n == name);
            if via_stat != via_readdir {
                out.failure = Some((
                    FailureKind::CacheIncoherence,
                    format!(
                        "{}/{name}: stat resolves it = {via_stat}, readdir lists it = {via_readdir}",
                        t.home
                    ),
                ));
                return out;
            }
        }
    }

    for t in tenants.iter() {
        if let Err(e) = t.fs.unmount() {
            out.failure = Some((FailureKind::FsckFatal, format!("unmount {}: {e}", t.home)));
            return out;
        }
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

// ---- campaign driver -------------------------------------------------------

/// Derive the per-execution seed from the campaign seed (splitmix64, so
/// neighbouring exec indices get decorrelated walks).
fn exec_seed(campaign: u64, exec: u64) -> u64 {
    let mut z = campaign ^ exec.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run a coverage-guided fuzzing campaign.
///
/// Deterministic when [`FuzzOpts::budget`] is `None`: the loop is bounded
/// only by the exec count and every random draw derives from
/// [`FuzzOpts::seed`], so two same-seed campaigns reach the same coverage
/// (pinned by `tests/schedmc_found.rs`).
pub fn fuzz(opts: &FuzzOpts) -> FuzzReport {
    let start = Instant::now();
    let deadline = opts.budget.map(|b| start + b);
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let mut report = FuzzReport::default();

    let mut corpus: Vec<CorpusEntry> = (0..opts.corpus_seeds.max(1))
        .map(|_| CorpusEntry {
            program: gen_program(&mut rng, opts),
            energy: 1,
        })
        .collect();

    loop {
        if opts.max_execs.is_some_and(|m| report.execs >= m) {
            break;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            report.truncated = true;
            break;
        }
        if opts.max_execs.is_none() && deadline.is_none() {
            // No bound at all would spin forever; treat as "no work".
            break;
        }
        if report.failures.len() >= MAX_FUZZ_FAILURES {
            break;
        }

        let exec = report.execs;
        let program = if (exec as usize) < opts.corpus_seeds.max(1) {
            corpus[exec as usize].program.clone()
        } else {
            mutate(&mut rng, &corpus, opts)
        };
        let run_seed = exec_seed(opts.seed, exec);
        let run = run_program(&program, Plan::Walk(run_seed), opts);
        report.execs += 1;
        report.crash_states_checked += run.crash_states;
        report.state_space_max = report.state_space_max.max(run.state_space_max);
        for (point, n) in &run.points {
            *report.points_hit.entry(point.clone()).or_insert(0) += n;
        }

        // Coverage accounting: new pairs and new hit buckets.
        let mut novelty: u64 = 0;
        for pair in &run.coverage {
            if report.coverage_pairs.insert(pair.clone()) {
                novelty += 1;
            }
        }
        for (point, n) in &run.points {
            let bucket = 64 - n.leading_zeros();
            if report.point_buckets.insert((point.clone(), bucket)) {
                novelty += 1;
            }
        }
        if novelty > 0 {
            report.new_coverage_events += 1;
            corpus.push(CorpusEntry {
                program: program.clone(),
                energy: novelty,
            });
            if corpus.len() > CORPUS_CAP {
                let min = corpus
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.energy)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                corpus.remove(min);
            }
        }

        // Hard-oracle failure?
        if let Some((kind, detail)) = run.failure {
            report.failures.push(FuzzFailure {
                kind,
                detail,
                program: program.clone(),
                schedule: run.schedule.clone(),
                seed: run_seed,
            });
            continue; // a failing run's invariant evidence is tainted
        }

        // Invariant mining lifecycle.
        for name in &run.evaluated {
            let st = report.invariants.entry((*name).to_string()).or_default();
            if let Some(detail) = run.violated.get(name) {
                st.violations += 1;
                st.clean_runs = 0;
                if st.example.is_none() {
                    st.example = Some(detail.clone());
                }
                // The candidate's designated refuter, run by the program
                // itself, explains the violation: demote, whatever the status.
                let refuted = designated_refuter(name)
                    .is_some_and(|kind| program.iter().any(|op| op.kind == kind));
                match st.status {
                    InvariantStatus::Promoted if !refuted => {
                        report.failures.push(FuzzFailure {
                            kind: FailureKind::InvariantViolated,
                            detail: format!("promoted invariant '{name}' violated: {detail}"),
                            program: program.clone(),
                            schedule: run.schedule.clone(),
                            seed: run_seed,
                        });
                    }
                    InvariantStatus::Promoted | InvariantStatus::Candidate => {
                        st.status = InvariantStatus::Demoted
                    }
                    InvariantStatus::Demoted => {}
                }
            } else {
                st.clean_runs += 1;
                if st.status == InvariantStatus::Candidate && st.clean_runs >= opts.promote_after {
                    st.status = InvariantStatus::Promoted;
                }
            }
        }
    }

    report.corpus = corpus.len();
    report.elapsed = start.elapsed();
    report
}

/// Run one seeded walk of `program` and expose its raw schedule, coverage,
/// and point counts — a determinism-debugging hook, not a public API.
#[doc(hidden)]
#[allow(clippy::type_complexity)]
pub fn debug_walk(
    program: &[FuzzOp],
    run_seed: u64,
    opts: &FuzzOpts,
) -> (
    Vec<usize>,
    BTreeSet<(String, u64)>,
    BTreeMap<String, u64>,
    Option<(FailureKind, String)>,
) {
    let run = run_program(program, Plan::Walk(run_seed), opts);
    (run.schedule, run.coverage, run.points, run.failure)
}

/// Re-execute `program` with the recorded `schedule` pinned (defaults past
/// its end), running every oracle.
pub fn replay_fuzz(program: &[FuzzOp], schedule: &[usize], opts: &FuzzOpts) -> FuzzReplay {
    let run = run_program(program, Plan::Replay(schedule), opts);
    FuzzReplay {
        failure: run.failure.map(|(kind, detail)| FuzzFailure {
            kind,
            detail,
            program: program.to_vec(),
            schedule: run.schedule.clone(),
            seed: opts.seed,
        }),
        violations: run
            .violated
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        points_hit: run.points,
        diverged_from_schedule: run.diverged_from_schedule,
    }
}

/// Shrink a failing program: repeatedly drop ops while re-running the same
/// seeded walk still reproduces a failure of `kind`. Returns the minimized
/// program and its pinned schedule.
pub fn minimize(
    program: &[FuzzOp],
    run_seed: u64,
    kind: FailureKind,
    opts: &FuzzOpts,
) -> (Vec<FuzzOp>, Vec<usize>) {
    let mut cur = program.to_vec();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < cur.len() && cur.len() > 1 {
            let mut cand = cur.clone();
            cand.remove(i);
            let run = run_program(&cand, Plan::Walk(run_seed), opts);
            if run.failure.as_ref().map(|f| f.0) == Some(kind) {
                cur = cand;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            break;
        }
    }
    let run = run_program(&cur, Plan::Walk(run_seed), opts);
    (cur, run.schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FuzzOpts {
        FuzzOpts {
            max_execs: Some(3),
            crash_period: 8,
            crash_samples: 3,
            program_min: 6,
            program_max: 12,
            corpus_seeds: 2,
            promote_after: 1,
            ..FuzzOpts::smoke()
        }
    }

    #[test]
    fn tiny_campaign_is_clean_and_covers() {
        let report = fuzz(&tiny());
        assert_eq!(report.execs, 3);
        assert!(report.is_clean(), "failures: {:?}", report.failures);
        assert!(!report.points_hit.is_empty(), "no points hit");
        assert!(
            !report.coverage_pairs.is_empty(),
            "crash oracle produced no coverage pairs"
        );
        assert!(report.new_coverage_events > 0);
    }

    #[test]
    fn generation_respects_bounds() {
        let opts = tiny();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let p = gen_program(&mut rng, &opts);
            assert!(p.len() >= opts.program_min && p.len() <= opts.program_max);
            for op in &p {
                assert!((op.tenant as usize) < opts.tenants);
            }
            let m = mutate(
                &mut rng,
                &[CorpusEntry {
                    program: p,
                    energy: 1,
                }],
                &opts,
            );
            assert!(m.len() >= opts.program_min && m.len() <= opts.program_max);
        }
    }

    #[test]
    fn replay_of_clean_program_is_clean() {
        let opts = tiny();
        let program: Vec<FuzzOp> = vec![
            FuzzOp {
                kind: FuzzOpKind::Create,
                tenant: 0,
                arg: 1,
            },
            FuzzOp {
                kind: FuzzOpKind::Rename,
                tenant: 1,
                arg: 0,
            },
            FuzzOp {
                kind: FuzzOpKind::Append,
                tenant: 0,
                arg: 0,
            },
        ];
        let replay = replay_fuzz(&program, &[], &opts);
        assert!(replay.failure.is_none(), "{:?}", replay.failure);
        assert!(!replay.points_hit.is_empty());
    }
}
