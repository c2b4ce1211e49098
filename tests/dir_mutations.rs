//! Directory-field mutation matrix: every field of a directory's core state a
//! LibFS can write — the inode record's `size`, `ntails`, `direct[]` heads
//! and reserved words (and its private counters), each log page's header,
//! and every dentry field, name bytes in both cache lines — is mutated
//! raw-through-the-device with out-of-range, aliasing, stale and
//! reserved-nonzero values, in three states:
//!
//! * owned, the grant's snapshot read from PM (a first acquire after
//!   recovery);
//! * owned, the grant's snapshot a retained verified image;
//! * unowned: written between a release and the next acquire.
//!
//! Each mutation must be rejected — `VerificationFailed` at the release, or,
//! for an unowned directory whose record no longer matches its image, the
//! next acquire refusing a log it cannot walk — unless it is listed in
//! [`ACCEPTED_BY_DESIGN`] with the reason. Run with `--nocapture` to print
//! the verdict table.

use std::sync::Arc;

use arckfs::{Config, LibFs};
use pmem::PmemDevice;
use trio::format;
use trio::{Geometry, Kernel, KernelConfig, ROOT_INO};
use vfs::{FileSystem, FsError};

const DEV: usize = 16 << 20;
const PAGE: u64 = pmem::PAGE_SIZE as u64;
/// Spans both cache lines of its record (the name starts at byte 24).
const LONG: &str = "a-name-long-enough-to-spill-into-the-second-cache-line";

/// Mutations the verifier accepts, and why that is right.
const ACCEPTED_BY_DESIGN: &[(&str, &str)] = &[
    (
        "ntails past NDIRECT",
        "every reader walks at most NDIRECT tails, and the heads past the \
         directory's four tails are zero",
    ),
    (
        "direct[] head past ntails",
        "no reader walks a tail past ntails; making it reachable means \
         changing ntails, which is verified then",
    ),
    (
        "nlink",
        "a LibFS-private count; no reader derives the namespace from it",
    ),
    (
        "inode seq",
        "the LibFS numbers its records from it; names are resolved by the \
         records' own numbers",
    ),
    (
        "page header reserved bytes",
        "only the header's next-page pointer is read, by anyone",
    ),
    (
        "marker shortened",
        "a well-formed shorter name for the same inode is a rename within \
         the directory, which a LibFS may do",
    ),
    (
        "name byte, line 1",
        "a rename within the directory, as above",
    ),
    (
        "name byte, line 2",
        "a rename within the directory, as above",
    ),
    (
        "name bytes past the marker",
        "the marker is the name's length; nothing reads past it",
    ),
    (
        "seq of a live record",
        "sequence numbers are the LibFS's business (DESIGN.md §14): the \
         rebuild ranks records by them, verification checks live records",
    ),
    (
        "tombstone flag value",
        "any non-zero flag is a tombstone; tombstones are the LibFS's \
         business (DESIGN.md §14)",
    ),
    ("tombstone target", "a tombstone names no live child"),
    ("tombstone seq", "as for a live record's sequence number"),
    (
        "hole fields",
        "a record whose marker is 0 is not committed; nobody reads it",
    ),
];

/// The directory under attack and what its mutations point at.
struct Fixture {
    kernel: Arc<Kernel>,
    /// `/d`: `r0`..`r3` one per tail, `LONG` after `r0` on tail 0, and a
    /// tombstone `t` after `r1` on tail 1.
    dir: u64,
    /// The tail heads of `/d`.
    heads: [u64; 4],
    /// Record offsets in `/d`: `r1`, `LONG`, the tombstone, and the first
    /// hole on `r1`'s page.
    r1: u64,
    long: u64,
    tomb: u64,
    hole: u64,
    /// `r2`'s inode, the freed inode `t` named, and `/other/o`'s inode.
    sibling: u64,
    freed: u64,
    foreign: u64,
    /// The head page of `/other`, and a data page nobody allocated.
    other_page: u64,
    free_page: u64,
}

fn touch(fs: &LibFs, path: &str) {
    let fd = fs.create(path).unwrap();
    fs.close(fd).unwrap();
}

fn fixture() -> Fixture {
    let device = PmemDevice::new(DEV);
    let kernel = Kernel::format(
        device,
        Geometry::for_device(DEV),
        KernelConfig::arckfs_plus(),
    )
    .unwrap();
    let fs = LibFs::mount(kernel.clone(), Config::arckfs_plus(), 0).unwrap();
    fs.mkdir("/d").unwrap();
    for name in ["r0", "r1", "r2", "r3", LONG, "t"] {
        touch(&fs, &format!("/d/{name}"));
    }
    let freed = fs.stat("/d/t").unwrap().ino;
    fs.unlink("/d/t").unwrap();
    fs.mkdir("/other").unwrap();
    touch(&fs, "/other/o");
    let sibling = fs.stat("/d/r2").unwrap().ino;
    let foreign = fs.stat("/other/o").unwrap().ino;
    let dir = fs.stat("/d").unwrap().ino;
    let other = fs.stat("/other").unwrap().ino;
    fs.unmount().unwrap();

    let (dev, geom) = (kernel.device(), kernel.geometry());
    let raw = format::read_inode(dev, geom, dir).unwrap();
    let heads = [raw.direct[0], raw.direct[1], raw.direct[2], raw.direct[3]];
    let mut records = Vec::new();
    format::walk_dir_log(dev, geom, &raw, |d| records.push(d)).unwrap();
    let record = |name: &str| {
        records
            .iter()
            .find(|d| d.name_str() == Some(name))
            .unwrap_or_else(|| panic!("no record {name}"))
            .offset
    };
    let (r1, long, tomb) = (record("r1"), record(LONG), record("t"));
    assert_eq!(r1 / PAGE, heads[1], "r1 heads tail 1");
    assert_eq!(tomb / PAGE, heads[1], "t follows r1");
    assert_ne!(long / PAGE, heads[1]);
    let hole = (0..format::DENTRIES_PER_PAGE)
        .map(|s| heads[1] * PAGE + format::DIRPAGE_FIRST_DENTRY + s * format::DENTRY_SIZE)
        .find(|&off| dev.read_u16(off + format::D_MARKER).unwrap() == 0)
        .expect("a hole");
    let other_page = format::read_inode(dev, geom, other)
        .unwrap()
        .direct
        .into_iter()
        .find(|&p| p != 0)
        .expect("a page of /other");
    let allocated = |page: u64| {
        let idx = page - geom.data_start_page;
        dev.read_u8(geom.bitmap_offset() + idx / 8).unwrap() & (1 << (idx % 8)) != 0
    };
    let free_page = (geom.data_start_page..geom.total_pages)
        .rev()
        .find(|&p| !allocated(p))
        .expect("a free page");
    Fixture {
        kernel,
        dir,
        heads,
        r1,
        long,
        tomb,
        hole,
        sibling,
        freed,
        foreign,
        other_page,
        free_page,
    }
}

/// One raw store: device offset and bytes.
type Store = (u64, Vec<u8>);

fn word(off: u64, v: u64) -> Store {
    (off, v.to_le_bytes().to_vec())
}

fn half(off: u64, v: u16) -> Store {
    (off, v.to_le_bytes().to_vec())
}

fn byte(off: u64, v: u8) -> Store {
    (off, vec![v])
}

struct Mutation {
    field: &'static str,
    class: &'static str,
    name: &'static str,
    store: fn(&Fixture) -> Store,
}

fn rec(f: &Fixture, field: u64) -> u64 {
    f.kernel.geometry().inode_offset(f.dir) + field
}

fn head(f: &Fixture, tail: u64) -> u64 {
    rec(f, format::I_DIRECT + 8 * tail)
}

/// Tail 1's page header.
fn header(f: &Fixture) -> u64 {
    f.heads[1] * PAGE
}

fn mutations() -> Vec<Mutation> {
    let m = |field, class, name, store| Mutation {
        field,
        class,
        name,
        store,
    };
    vec![
        // The inode record.
        m("size", "out-of-range", "size u64::MAX", |f| {
            word(rec(f, format::I_SIZE), u64::MAX)
        }),
        m("size", "stale", "size one short", |f| {
            word(rec(f, format::I_SIZE), 4)
        }),
        m("ntails", "out-of-range", "ntails past NDIRECT", |f| {
            (rec(f, format::I_NTAILS), 17u32.to_le_bytes().to_vec())
        }),
        m("ntails", "stale", "ntails shrunk to 1", |f| {
            (rec(f, format::I_NTAILS), 1u32.to_le_bytes().to_vec())
        }),
        m("direct[]", "out-of-range", "head past the device", |f| {
            word(head(f, 1), f.kernel.geometry().total_pages + 5)
        }),
        m("direct[]", "out-of-range", "head at the inode table", |f| {
            word(head(f, 1), f.kernel.geometry().inode_table_page)
        }),
        m("direct[]", "aliasing", "head at tail 0's page", |f| {
            word(head(f, 1), f.heads[0])
        }),
        m(
            "direct[]",
            "aliasing",
            "head at another directory's page",
            |f| word(head(f, 1), f.other_page),
        ),
        m("direct[]", "stale", "head cleared", |f| word(head(f, 1), 0)),
        m("direct[]", "stale", "head at an unallocated page", |f| {
            word(head(f, 1), f.free_page)
        }),
        m(
            "direct[]",
            "reserved-nonzero",
            "direct[] head past ntails",
            |f| word(head(f, 5), f.other_page),
        ),
        m("reserved", "reserved-nonzero", "reserved word 0", |f| {
            word(rec(f, format::I_RESERVED), 1)
        }),
        m("reserved", "reserved-nonzero", "reserved word 1", |f| {
            word(rec(f, format::I_RESERVED + 8), 1)
        }),
        m("reserved", "reserved-nonzero", "reserved word 2", |f| {
            word(rec(f, format::I_RESERVED + 16), 1)
        }),
        m("nlink", "out-of-range", "nlink", |f| {
            word(rec(f, format::I_NLINK), u64::MAX)
        }),
        m("seq", "stale", "inode seq", |f| {
            word(rec(f, format::I_SEQ), 0)
        }),
        // A log page header.
        m("DP_NEXT", "out-of-range", "next past the device", |f| {
            word(header(f) + format::DP_NEXT, f.kernel.geometry().total_pages)
        }),
        m("DP_NEXT", "aliasing", "next at its own page", |f| {
            word(header(f) + format::DP_NEXT, f.heads[1])
        }),
        m("DP_NEXT", "aliasing", "next at tail 0's page", |f| {
            word(header(f) + format::DP_NEXT, f.heads[0])
        }),
        m(
            "DP_NEXT",
            "aliasing",
            "next at another directory's page",
            |f| word(header(f) + format::DP_NEXT, f.other_page),
        ),
        m("DP_NEXT", "stale", "next at an unallocated page", |f| {
            word(header(f) + format::DP_NEXT, f.free_page)
        }),
        m(
            "header",
            "reserved-nonzero",
            "page header reserved bytes",
            |f| word(header(f) + 8, u64::MAX),
        ),
        // A live dentry.
        m(
            "D_MARKER",
            "out-of-range",
            "marker past the name cap",
            |f| half(f.r1 + format::D_MARKER, 200),
        ),
        m("D_MARKER", "out-of-range", "marker past the name", |f| {
            half(f.r1 + format::D_MARKER, 3)
        }),
        m("D_MARKER", "stale", "marker cleared", |f| {
            half(f.r1 + format::D_MARKER, 0)
        }),
        m("D_MARKER", "stale", "marker shortened", |f| {
            half(f.r1 + format::D_MARKER, 1)
        }),
        m("D_DELETED", "stale", "live record tombstoned", |f| {
            byte(f.r1 + format::D_DELETED, 1)
        }),
        m("D_INO", "out-of-range", "target 0", |f| {
            word(f.r1 + format::D_INO, 0)
        }),
        m("D_INO", "out-of-range", "target past max_inodes", |f| {
            word(f.r1 + format::D_INO, f.kernel.geometry().max_inodes + 1)
        }),
        m("D_INO", "aliasing", "target a sibling's inode", |f| {
            word(f.r1 + format::D_INO, f.sibling)
        }),
        m(
            "D_INO",
            "aliasing",
            "target another directory's child",
            |f| word(f.r1 + format::D_INO, f.foreign),
        ),
        m("D_INO", "stale", "target a freed inode", |f| {
            word(f.r1 + format::D_INO, f.freed)
        }),
        m("D_SEQ", "stale", "seq of a live record", |f| {
            word(f.r1 + format::D_SEQ, 0)
        }),
        m("name", "out-of-range", "NUL in the name, line 1", |f| {
            byte(f.r1 + format::D_NAME + 1, 0)
        }),
        m("name", "out-of-range", "non-UTF-8 name, line 1", |f| {
            byte(f.r1 + format::D_NAME + 1, 0xff)
        }),
        m("name", "aliasing", "name of a sibling", |f| {
            byte(f.r1 + format::D_NAME + 1, b'2')
        }),
        m("name", "stale", "name byte, line 1", |f| {
            byte(f.r1 + format::D_NAME + 1, b'x')
        }),
        m("name", "out-of-range", "NUL in the name, line 2", |f| {
            byte(f.long + 70, 0)
        }),
        m("name", "out-of-range", "non-UTF-8 name, line 2", |f| {
            byte(f.long + 70, 0xff)
        }),
        m("name", "stale", "name byte, line 2", |f| {
            byte(f.long + 70, b'x')
        }),
        m(
            "name",
            "reserved-nonzero",
            "name bytes past the marker",
            |f| word(f.r1 + 96, u64::MAX),
        ),
        // A tombstone and a hole.
        m("D_DELETED", "stale", "tombstone revived", |f| {
            byte(f.tomb + format::D_DELETED, 0)
        }),
        m(
            "D_DELETED",
            "reserved-nonzero",
            "tombstone flag value",
            |f| byte(f.tomb + format::D_DELETED, 2),
        ),
        m("D_INO", "aliasing", "tombstone target", |f| {
            word(f.tomb + format::D_INO, f.foreign)
        }),
        m("D_SEQ", "stale", "tombstone seq", |f| {
            word(f.tomb + format::D_SEQ, u64::MAX)
        }),
        m("hole", "reserved-nonzero", "hole fields", |f| {
            (f.hole + format::D_INO, [0xabu8; 64].to_vec())
        }),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Owned; the grant's snapshot was read from PM.
    FirstAcquire,
    /// Owned; the grant's snapshot is the image a release retained.
    Retained,
    /// Written while nobody owns the directory.
    Unowned,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The release failed verification.
    Failed,
    /// The next acquire refused the directory as corrupted.
    Refused,
    /// The release passed.
    Accepted,
}

fn verdict(state: State, m: &Mutation) -> Verdict {
    let f = fixture();
    let kernel = match state {
        State::FirstAcquire => {
            Kernel::recover(f.kernel.device().clone(), KernelConfig::arckfs_plus()).unwrap()
        }
        State::Retained | State::Unowned => f.kernel.clone(),
    };
    let (store_at, bytes) = (m.store)(&f);
    let (id, _) = kernel.register_libfs(0);
    if state == State::Unowned {
        kernel.device().write(store_at, &bytes).unwrap();
    }
    kernel.acquire(id, ROOT_INO).unwrap();
    match kernel.acquire(id, f.dir) {
        Ok(_) => {}
        Err(FsError::Corrupted(_)) if state == State::Unowned => return Verdict::Refused,
        Err(e) => panic!("{}: acquire: {e:?}", m.name),
    }
    if state != State::Unowned {
        kernel.device().write(store_at, &bytes).unwrap();
    }
    match kernel.release(id, f.dir) {
        Ok(_) => Verdict::Accepted,
        Err(FsError::VerificationFailed { .. }) => Verdict::Failed,
        Err(e) => panic!("{}: release: {e:?}", m.name),
    }
}

#[test]
fn every_writable_directory_field_is_verified_or_accepted_by_design() {
    let mutations = mutations();
    for (name, _) in ACCEPTED_BY_DESIGN {
        assert!(
            mutations.iter().any(|m| m.name == *name),
            "{name}: an accepted mutation the matrix does not apply"
        );
    }
    let mut table = String::new();
    let mut wrong = Vec::new();
    for m in &mutations {
        let accepted = ACCEPTED_BY_DESIGN.iter().any(|(name, _)| *name == m.name);
        for state in [State::FirstAcquire, State::Retained, State::Unowned] {
            let v = verdict(state, m);
            table += &format!(
                "{:<10} {:<17} {:<36} {:<13} {:?}\n",
                m.field,
                m.class,
                m.name,
                format!("{state:?}"),
                v
            );
            let expected = if accepted {
                v == Verdict::Accepted
            } else {
                v == Verdict::Failed || (v == Verdict::Refused && state == State::Unowned)
            };
            if !expected {
                wrong.push(format!("{} in {state:?}: {v:?}", m.name));
            }
        }
    }
    println!("{table}");
    assert!(wrong.is_empty(), "unexpected verdicts: {wrong:#?}");
}
