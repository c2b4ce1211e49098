//! What a run does: the four workloads, their sizes, and the operation
//! lists generated from `--seed`.
//!
//! Every run executes the same four *sections* on one device, in a fixed
//! order. `--workload` names the section that runs at full scale and that
//! the run's throughput and latency totals describe; the other three run
//! at a small fixed *side* scale, so that every end-to-end metric has a
//! measured value in every run (see README, "Where each metric comes
//! from"). All counts are fixed functions of `--seconds` and `--seed`:
//! both sides of a comparison execute identical operation lists.

use serde_json::{json, Value};

/// The four workloads, in the order their sections run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    MetaPrivate,
    MetaShared2t,
    DataShared2t,
    ShareHandoff,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MetaPrivate,
        Workload::MetaShared2t,
        Workload::DataShared2t,
        Workload::ShareHandoff,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MetaPrivate => "meta_private",
            Workload::MetaShared2t => "meta_shared_2t",
            Workload::DataShared2t => "data_shared_2t",
            Workload::ShareHandoff => "share_handoff",
        }
    }

    /// Why the workload exists, in one line (repeated in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MetaPrivate => "one thread, private directories that fit the dcache: create/stat/open/rename/unlink cost of dir index, log and pmem path; data path, trio hand-off and contention bypassed (Fig. 3)",
            Workload::MetaShared2t => "1 then 2 threads in 16 shared directories, 16384 residents (4x the dcache): bucket locks, log tails, RCU, dcache misses and shared counters under contention (Fig. 4)",
            Workload::DataShared2t => "1 then 2 threads on a shared 64 MiB file, private files and append logs: 4 KiB reads/writes, 256 B append+fsync, 1 MiB I/O; extents, range locks, bulk copy; dir index idle (5.1-5.2)",
            Workload::ShareHandoff => "two applications alternate on shared directories and a shared file: trio verify/grant and LibFS rebuild dominate; the trust-group phase bypasses verification (Table 4)",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// SplitMix64: the benchmark's only source of randomness. Kept here, not
/// taken from a library, so the operation lists of a seed never change
/// underneath a comparison.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next()) * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 finaliser; also the block checksum and the list hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive running hash of an operation list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListHash(pub u64);

impl ListHash {
    pub fn new() -> ListHash {
        ListHash(0x6A09_E667_F3BC_C908)
    }

    #[inline]
    pub fn feed(&mut self, word: u64) {
        self.0 = mix(self.0 ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
}

impl Default for ListHash {
    fn default() -> Self {
        ListHash::new()
    }
}

/// Sizes of one metadata section (`meta_private` or `meta_shared`).
#[derive(Debug, Clone, PartialEq)]
pub struct MetaSpec {
    /// Top directory of the section.
    pub root: &'static str,
    /// Leaf directories, `depth` levels below `/` (`root` is level 1).
    pub dirs: usize,
    pub depth: usize,
    /// Resident files over all leaf directories, created at set-up.
    pub residents: usize,
    /// Names each thread creates, renames and unlinks per round.
    pub batch: usize,
    /// 1: every round is single-threaded. 2: every round is a phase A
    /// (thread 0 alone) followed by a phase B (both threads).
    pub threads: usize,
    /// Recorded rounds per slice.
    pub rounds: usize,
    /// One `readdir` per this many operations (0: none).
    pub readdir_every: usize,
    /// Directories each thread makes and removes per round.
    pub mkdirs: usize,
}

/// Sizes of the data section.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSpec {
    pub shared_mib: usize,
    pub private_mib: usize,
    /// Operations per thread per round, split by [`DATA_MIX`].
    pub round_ops: usize,
    /// Recorded rounds per slice.
    pub rounds: usize,
    /// The append log is truncated to zero after this many appends.
    pub truncate_every: usize,
}

/// Shares of the data mix by count, in 1/1000: 4 KiB reads, 4 KiB writes,
/// 256-byte append + fsync, 1 MiB sequential writes, 1 MiB reads.
pub const DATA_MIX: [usize; 5] = [420, 420, 158, 1, 1];
pub const APPEND_BYTES: usize = 256;
pub const MIB: usize = 1 << 20;

/// Sizes of the hand-off section: turns per sub-phase.
#[derive(Debug, Clone, PartialEq)]
pub struct HandoffSpec {
    /// Turns per slice on the directory with 100 resident files (the
    /// end-to-end `handoff_p50_ns`). The other sub-phases run once, in the
    /// last slice: a trust group, once made, stays.
    pub turns_dir100: usize,
    pub turns_dir1000: usize,
    /// Turns of 32 x 4 KiB writes on the shared 16 MiB file.
    pub turns_file: usize,
    /// Turns inside a trust group (no releases, no verification).
    pub turns_trust: usize,
    pub file_mib: usize,
    pub writes_per_turn: usize,
}

/// Everything a run is made of. Printed with the results.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Nominal length of the main section at the commit that defined the
    /// benchmark, in seconds. Counts are proportional to it.
    pub units: f64,
    pub device_mib: usize,
    /// The run is cut into this many slices; every slice runs its share of
    /// all four sections. The `rounds` and `turns_dir100` of the specs are
    /// per slice. Slicing spreads every section over the whole run, so a
    /// burst of outside interference cannot cover all of a short section.
    pub slices: usize,
    pub meta_private: MetaSpec,
    pub meta_shared: MetaSpec,
    pub data: DataSpec,
    pub handoff: HandoffSpec,
}

/// Rounds of the three round-based main sections per nominal second,
/// measured at the commit that defined the benchmark on a 2-CPU box.
const MAIN_ROUNDS_PER_SECOND: [f64; 3] = [44.0, 13.0, 23.0];
/// Turns of the main hand-off section per nominal second, by sub-phase:
/// 100 residents, 1000 residents, shared file, trust group.
const MAIN_TURNS_PER_SECOND: [f64; 4] = [1200.0, 100.0, 200.0, 2000.0];

impl Plan {
    pub fn new(workload: Workload, seed: u64, units: f64) -> Plan {
        let main = |w: Workload| w == workload;
        let slices = ((units * 0.8).ceil() as usize).clamp(1, 8);
        let per_slice =
            |per_second: f64| ((per_second * units / slices as f64).round() as usize).max(1);
        // Side sections: a fixed small count per slice.
        let meta_private = MetaSpec {
            root: "/mp",
            dirs: 4,
            depth: 3,
            residents: 1024,
            batch: 1024,
            threads: 1,
            rounds: if main(Workload::MetaPrivate) {
                per_slice(MAIN_ROUNDS_PER_SECOND[0])
            } else {
                2
            },
            readdir_every: 0,
            mkdirs: 4,
        };
        let meta_shared = if main(Workload::MetaShared2t) {
            MetaSpec {
                root: "/ms",
                dirs: 16,
                depth: 2,
                residents: 16 * 1024,
                batch: 1024,
                threads: 2,
                rounds: per_slice(MAIN_ROUNDS_PER_SECOND[1]),
                readdir_every: 256,
                mkdirs: 4,
            }
        } else {
            MetaSpec {
                root: "/ms",
                dirs: 16,
                depth: 2,
                residents: 16 * 128,
                batch: 512,
                threads: 2,
                rounds: 3,
                readdir_every: 256,
                mkdirs: 4,
            }
        };
        let data = if main(Workload::DataShared2t) {
            DataSpec {
                shared_mib: 64,
                private_mib: 16,
                round_ops: 2000,
                rounds: per_slice(MAIN_ROUNDS_PER_SECOND[2]),
                truncate_every: 1024,
            }
        } else {
            DataSpec {
                shared_mib: 16,
                private_mib: 4,
                round_ops: 2000,
                rounds: 2,
                truncate_every: 1024,
            }
        };
        let handoff = if main(Workload::ShareHandoff) {
            let total = |i: usize, floor: usize| {
                ((MAIN_TURNS_PER_SECOND[i] * units).round() as usize).max(floor)
            };
            HandoffSpec {
                turns_dir100: per_slice(MAIN_TURNS_PER_SECOND[0])
                    .next_multiple_of(HANDOFF_ROUND_TURNS),
                turns_dir1000: total(1, 10),
                turns_file: total(2, 10),
                turns_trust: total(3, 20),
                file_mib: 16,
                writes_per_turn: 32,
            }
        } else {
            HandoffSpec {
                turns_dir100: 2 * HANDOFF_ROUND_TURNS,
                turns_dir1000: 40,
                turns_file: 40,
                turns_trust: 200,
                file_mib: 16,
                writes_per_turn: 32,
            }
        };
        Plan {
            workload,
            seed,
            units,
            device_mib: 512,
            slices,
            meta_private,
            meta_shared,
            data,
            handoff,
        }
    }

    /// The counts of the plan, for the output stamp.
    pub fn to_json(&self) -> Value {
        let meta = |m: &MetaSpec| {
            json!({
                "dirs": m.dirs, "depth": m.depth, "residents": m.residents,
                "batch": m.batch, "threads": m.threads, "rounds_per_slice": m.rounds,
                "readdir_every": m.readdir_every, "mkdirs": m.mkdirs,
                "ops_per_thread_round": round_len(m),
            })
        };
        json!({
            "units": self.units,
            "device_mib": self.device_mib,
            "slices": self.slices,
            "meta_private": meta(&self.meta_private),
            "meta_shared": meta(&self.meta_shared),
            "data": {
                "shared_mib": self.data.shared_mib, "private_mib": self.data.private_mib,
                "round_ops": self.data.round_ops, "rounds_per_slice": self.data.rounds,
                "truncate_every": self.data.truncate_every,
                "mix_per_mille": DATA_MIX.to_vec(),
            },
            "handoff": {
                "turns_dir100_per_slice": self.handoff.turns_dir100,
                "turns_dir1000": self.handoff.turns_dir1000,
                "turns_file": self.handoff.turns_file,
                "turns_trust": self.handoff.turns_trust,
                "file_mib": self.handoff.file_mib,
                "writes_per_turn": self.handoff.writes_per_turn,
            },
        })
    }

    /// Hash of every operation list the plan will execute. Same plan and
    /// seed give the same hash; another seed gives another.
    pub fn oplist_hash(&self) -> u64 {
        let mut h = ListHash::new();
        for (i, spec) in [&self.meta_private, &self.meta_shared]
            .into_iter()
            .enumerate()
        {
            h.feed(MetaLayout::new(spec, self.seed).hash());
            for slice in 0..self.slices {
                for t in 0..spec.threads {
                    let mut gen = MetaGen::new(spec, self.seed, i as u64, slice, t);
                    let mut ops = Vec::new();
                    for _ in 0..lists_per_slice(spec.rounds, spec.threads, t) {
                        gen.round(&mut ops);
                        ops.iter().for_each(|op| h.feed(op.word()));
                    }
                }
            }
        }
        for slice in 0..self.slices {
            for t in 0..2 {
                let mut gen = DataGen::new(&self.data, self.seed, slice, t);
                let mut ops = Vec::new();
                for _ in 0..lists_per_slice(self.data.rounds, 2, t) {
                    gen.round(&mut ops);
                    ops.iter().for_each(|op| h.feed(op.word()));
                }
            }
        }
        let mut gen = HandoffGen::new(&self.handoff, self.seed);
        for _ in 0..self.handoff.turns_file * self.handoff.writes_per_turn {
            h.feed(gen.block() as u64);
        }
        for n in [
            self.handoff.turns_dir100,
            self.handoff.turns_dir1000,
            self.handoff.turns_trust,
        ] {
            h.feed(n as u64);
        }
        h.0
    }
}

/// Rounds every section runs, unrecorded, at the start of each slice:
/// caches fill again after the other sections, first-touched pages of the
/// device are faulted in, the pools reach their steady stock.
pub const WARMUP_ROUNDS: usize = 1;
/// Turns of the 100-resident hand-off sub-phase per throughput round.
pub const HANDOFF_ROUND_TURNS: usize = 50;

/// Operation lists thread `t` generates in one slice: one per round and
/// phase it takes part in (thread 0 of a two-thread section runs phases A
/// and B, the other thread only B), warm-up included.
fn lists_per_slice(rounds: usize, threads: usize, t: usize) -> usize {
    (rounds + WARMUP_ROUNDS) * if t == 0 { threads } else { 1 }
}

// ---------------------------------------------------------------------
// Metadata sections
// ---------------------------------------------------------------------

/// One metadata operation; the numbers index the tables of [`MetaLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaOp {
    /// create + close of churn name `j`
    Create(u32),
    /// stat of churn name `j`
    Stat(u32),
    /// open + close of resident `i`
    Open(u32),
    /// rename churn name `j` to its target
    Rename(u32),
    /// unlink the renamed churn name `j`
    Unlink(u32),
    /// readdir of leaf directory `d`
    Readdir(u32),
    Mkdir(u32),
    Rmdir(u32),
}

impl MetaOp {
    fn word(self) -> u64 {
        let (k, a) = match self {
            MetaOp::Create(a) => (1u64, a),
            MetaOp::Stat(a) => (2, a),
            MetaOp::Open(a) => (3, a),
            MetaOp::Rename(a) => (4, a),
            MetaOp::Unlink(a) => (5, a),
            MetaOp::Readdir(a) => (6, a),
            MetaOp::Mkdir(a) => (7, a),
            MetaOp::Rmdir(a) => (8, a),
        };
        k << 32 | u64::from(a)
    }
}

/// Operations one thread executes per round.
pub fn round_len(m: &MetaSpec) -> usize {
    let base = 5 * m.batch + 2 * m.mkdirs;
    base + base.checked_div(m.readdir_every).unwrap_or(0)
}

/// The paths of a metadata section. Names carry a tag derived from the
/// seed, so another seed lands in other hash buckets.
#[derive(Debug, Clone)]
pub struct MetaLayout {
    /// Directories to create at set-up, parents first; the last
    /// `leaf_count` are the leaf directories.
    pub tree: Vec<String>,
    pub leaf_count: usize,
    /// Resident `i` lives in leaf `i % leaf_count`.
    pub resident: Vec<String>,
    /// Per thread, per churn name: (leaf, created path, leaf after rename,
    /// renamed path). Even names stay in their directory, odd names move.
    pub churn: Vec<Vec<(usize, String, usize, String)>>,
    /// Per thread: (leaf, path) of the directories made and removed.
    pub mk: Vec<Vec<(usize, String)>>,
}

impl MetaLayout {
    pub fn new(spec: &MetaSpec, seed: u64) -> MetaLayout {
        let tag = mix(seed) % 100_000;
        let mut tree = vec![spec.root.to_string()];
        let mut prefix = spec.root.to_string();
        for level in 1..spec.depth - 1 {
            prefix = format!("{prefix}/l{level}");
            tree.push(prefix.clone());
        }
        let leaves: Vec<String> = (0..spec.dirs).map(|d| format!("{prefix}/d{d}")).collect();
        tree.extend(leaves.iter().cloned());
        let resident = (0..spec.residents)
            .map(|i| format!("{}/h{tag}_{i}", leaves[i % spec.dirs]))
            .collect();
        let mut rng = Rng::new(seed, 0x1a70);
        let churn = (0..spec.threads)
            .map(|t| {
                (0..spec.batch)
                    .map(|j| {
                        let from = rng.below(spec.dirs);
                        let to = if j % 2 == 0 {
                            from
                        } else {
                            (from + 1 + rng.below(spec.dirs - 1)) % spec.dirs
                        };
                        (
                            from,
                            format!("{}/c{tag}_{t}_{j}", leaves[from]),
                            to,
                            format!("{}/r{tag}_{t}_{j}", leaves[to]),
                        )
                    })
                    .collect()
            })
            .collect();
        let mk = (0..spec.threads)
            .map(|t| {
                (0..spec.mkdirs)
                    .map(|m| {
                        let leaf = rng.below(spec.dirs);
                        (leaf, format!("{}/m{tag}_{t}_{m}", leaves[leaf]))
                    })
                    .collect()
            })
            .collect();
        MetaLayout {
            tree,
            leaf_count: spec.dirs,
            resident,
            churn,
            mk,
        }
    }

    pub fn leaves(&self) -> &[String] {
        &self.tree[self.tree.len() - self.leaf_count..]
    }

    fn hash(&self) -> u64 {
        let mut h = ListHash::new();
        let mut feed_str = |s: &str| {
            for b in s.bytes() {
                h.feed(u64::from(b));
            }
        };
        self.tree.iter().for_each(|s| feed_str(s));
        if let Some(first) = self.resident.first() {
            feed_str(first);
        }
        for t in &self.churn {
            for (_, a, _, b) in t {
                feed_str(a);
                feed_str(b);
            }
        }
        h.0
    }
}

/// Generates one thread's operation list, round by round.
#[derive(Debug)]
pub struct MetaGen {
    spec: MetaSpec,
    rng: Rng,
    order: Vec<u32>,
}

impl MetaGen {
    pub fn new(spec: &MetaSpec, seed: u64, section: u64, slice: usize, thread: usize) -> MetaGen {
        MetaGen {
            spec: spec.clone(),
            rng: Rng::new(
                seed,
                0x3e7a_0000 + (slice as u64) * 256 + section * 16 + thread as u64,
            ),
            order: (0..spec.batch as u32).collect(),
        }
    }

    /// Replace `ops` with the next round: five sweeps over the churn names
    /// (create, stat, open a resident, rename, unlink), each in a fresh
    /// random order, with the directories and `readdir`s spread through.
    pub fn round(&mut self, ops: &mut Vec<MetaOp>) {
        ops.clear();
        let s = &self.spec;
        let mut body: Vec<MetaOp> = Vec::with_capacity(5 * s.batch + 2 * s.mkdirs);
        for m in 0..s.mkdirs as u32 {
            body.push(MetaOp::Mkdir(m));
        }
        for sweep in 0..5 {
            self.rng.shuffle(&mut self.order);
            for &j in &self.order {
                body.push(match sweep {
                    0 => MetaOp::Create(j),
                    1 => MetaOp::Stat(j),
                    2 => MetaOp::Open(self.rng.below(s.residents) as u32),
                    3 => MetaOp::Rename(j),
                    _ => MetaOp::Unlink(j),
                });
            }
        }
        for m in 0..s.mkdirs as u32 {
            body.push(MetaOp::Rmdir(m));
        }
        for (n, op) in body.into_iter().enumerate() {
            ops.push(op);
            if s.readdir_every > 0 && (n + 1) % s.readdir_every == 0 {
                ops.push(MetaOp::Readdir(self.rng.below(s.dirs) as u32));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Data section
// ---------------------------------------------------------------------

/// One data operation. Blocks are 4 KiB; chunks and slots are 1 MiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataOp {
    /// Read block `b` of the shared file (any block).
    Read4k(u32),
    /// Write block `b` of the shared file (a block of this thread's stripes).
    Write4k(u32),
    /// Append one record to this thread's log, then fsync.
    Append,
    /// Overwrite 1 MiB slot `s` of this thread's private file.
    Write1m(u32),
    /// Read 1 MiB chunk `c` of the shared file.
    Read1m(u32),
}

impl DataOp {
    fn word(self) -> u64 {
        let (k, a) = match self {
            DataOp::Read4k(a) => (1u64, a),
            DataOp::Write4k(a) => (2, a),
            DataOp::Append => (3, 0),
            DataOp::Write1m(a) => (4, a),
            DataOp::Read1m(a) => (5, a),
        };
        k << 32 | u64::from(a)
    }
}

/// Blocks per write stripe of the shared file: stripe `s` belongs to
/// thread `s % 2`.
pub const STRIPE_BLOCKS: usize = 64;
pub const BLOCK: usize = 4096;

/// The thread that owns (writes) block `b` of the shared file.
pub fn stripe_owner(block: usize) -> usize {
    (block / STRIPE_BLOCKS) % 2
}

#[derive(Debug)]
pub struct DataGen {
    spec: DataSpec,
    thread: usize,
    rng: Rng,
}

impl DataGen {
    pub fn new(spec: &DataSpec, seed: u64, slice: usize, thread: usize) -> DataGen {
        DataGen {
            spec: spec.clone(),
            thread,
            rng: Rng::new(seed, 0xda7a_0000 + (slice as u64) * 16 + thread as u64),
        }
    }

    /// Replace `ops` with the next round: the mix of [`DATA_MIX`] by exact
    /// count, in random order, on random offsets.
    pub fn round(&mut self, ops: &mut Vec<DataOp>) {
        ops.clear();
        let s = &self.spec;
        let shared_blocks = s.shared_mib * MIB / BLOCK;
        let counts: Vec<usize> = DATA_MIX
            .iter()
            .map(|share| (s.round_ops * share).div_ceil(1000))
            .collect();
        for _ in 0..counts[0] {
            ops.push(DataOp::Read4k(self.rng.below(shared_blocks) as u32));
        }
        for _ in 0..counts[1] {
            // a random block of one of this thread's stripes
            let stripes = shared_blocks / STRIPE_BLOCKS / 2;
            let stripe = self.rng.below(stripes) * 2 + self.thread;
            let block = stripe * STRIPE_BLOCKS + self.rng.below(STRIPE_BLOCKS);
            ops.push(DataOp::Write4k(block as u32));
        }
        for _ in 0..counts[2] {
            ops.push(DataOp::Append);
        }
        for _ in 0..counts[3] {
            ops.push(DataOp::Write1m(self.rng.below(s.private_mib) as u32));
        }
        for _ in 0..counts[4] {
            ops.push(DataOp::Read1m(self.rng.below(s.shared_mib) as u32));
        }
        self.rng.shuffle(ops);
    }
}

// ---------------------------------------------------------------------
// Hand-off section
// ---------------------------------------------------------------------

/// The only random input of the hand-off section: which block of the
/// shared file each write lands on.
#[derive(Debug)]
pub struct HandoffGen {
    blocks: usize,
    rng: Rng,
}

impl HandoffGen {
    pub fn new(spec: &HandoffSpec, seed: u64) -> HandoffGen {
        HandoffGen {
            blocks: spec.file_mib * MIB / BLOCK,
            rng: Rng::new(seed, 0x4a2d_0ff0),
        }
    }

    pub fn block(&mut self) -> usize {
        self.rng.below(self.blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_hash_other_seed_other_hash() {
        for w in Workload::ALL {
            let a = Plan::new(w, 7, 0.3);
            let b = Plan::new(w, 7, 0.3);
            let c = Plan::new(w, 8, 0.3);
            assert_eq!(a.oplist_hash(), b.oplist_hash(), "{}", w.name());
            assert_ne!(a.oplist_hash(), c.oplist_hash(), "{}", w.name());
        }
    }

    #[test]
    fn counts_do_not_depend_on_the_seed() {
        for w in Workload::ALL {
            let a = Plan::new(w, 1, 2.0);
            let mut b = Plan::new(w, 99, 2.0);
            b.seed = 1;
            assert_eq!(a, b);
        }
    }

    #[test]
    fn meta_round_has_the_stated_length_and_is_balanced() {
        let spec = Plan::new(Workload::MetaShared2t, 3, 1.0).meta_shared;
        let mut gen = MetaGen::new(&spec, 3, 1, 0, 1);
        let mut ops = Vec::new();
        gen.round(&mut ops);
        assert_eq!(ops.len(), round_len(&spec));
        let count = |f: fn(&MetaOp) -> bool| ops.iter().filter(|o| f(o)).count();
        assert_eq!(count(|o| matches!(o, MetaOp::Create(_))), spec.batch);
        assert_eq!(count(|o| matches!(o, MetaOp::Unlink(_))), spec.batch);
        assert_eq!(count(|o| matches!(o, MetaOp::Mkdir(_))), spec.mkdirs);
        assert_eq!(count(|o| matches!(o, MetaOp::Rmdir(_))), spec.mkdirs);
        // every name is created before it is renamed before it is unlinked
        for j in 0..spec.batch as u32 {
            let pos = |op: MetaOp| ops.iter().position(|o| *o == op).unwrap();
            assert!(pos(MetaOp::Create(j)) < pos(MetaOp::Stat(j)));
            assert!(pos(MetaOp::Stat(j)) < pos(MetaOp::Rename(j)));
            assert!(pos(MetaOp::Rename(j)) < pos(MetaOp::Unlink(j)));
        }
    }

    #[test]
    fn layout_moves_odd_names_across_directories() {
        let spec = Plan::new(Workload::MetaPrivate, 5, 1.0).meta_private;
        let l = MetaLayout::new(&spec, 5);
        assert_eq!(l.leaves().len(), 4);
        assert_eq!(l.tree[0], "/mp");
        assert!(l.leaves()[0].starts_with("/mp/l1/d"));
        for (j, (from, _, to, _)) in l.churn[0].iter().enumerate() {
            assert_eq!(from == to, j % 2 == 0);
        }
    }

    #[test]
    fn data_round_keeps_the_mix_and_the_stripes() {
        let spec = Plan::new(Workload::DataShared2t, 1, 1.0).data;
        for t in 0..2 {
            let mut gen = DataGen::new(&spec, 11, 0, t);
            let mut ops = Vec::new();
            gen.round(&mut ops);
            let n = |f: fn(&DataOp) -> bool| ops.iter().filter(|o| f(o)).count();
            assert_eq!(n(|o| matches!(o, DataOp::Read4k(_))), 840);
            assert_eq!(n(|o| matches!(o, DataOp::Write4k(_))), 840);
            assert_eq!(n(|o| matches!(o, DataOp::Append)), 316);
            assert_eq!(n(|o| matches!(o, DataOp::Write1m(_))), 2);
            assert_eq!(n(|o| matches!(o, DataOp::Read1m(_))), 2);
            for op in &ops {
                if let DataOp::Write4k(b) = op {
                    assert_eq!(stripe_owner(*b as usize), t);
                }
            }
        }
    }
}
