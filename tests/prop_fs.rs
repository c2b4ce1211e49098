//! Property tests of the whole file system against an in-memory oracle:
//! arbitrary operation sequences must produce identical observable state on
//! ArckFS and ArckFS+ (with its dentry cache on and off), match the oracle,
//! pass kernel verification at unmount, and leave a crash-consistent
//! device.

use std::collections::HashMap;

use arckfs::Config;
use proptest::prelude::*;
use trio::fsck::fsck;
use vfs::{FileSystem, FsError, FsExt, OpenFlags};

const DEV: usize = 32 << 20;

/// Paths are drawn from a small universe so operations collide often.
fn path_strategy() -> impl Strategy<Value = String> {
    (0u8..3, 0u8..6).prop_map(|(d, f)| match d {
        0 => format!("/f{f}"),
        1 => format!("/d1/f{f}"),
        _ => format!("/d1/d2/f{f}"),
    })
}

#[derive(Debug, Clone)]
enum Op {
    Create(String),
    Write(String, Vec<u8>, u16),
    Unlink(String),
    Rename(String, String),
    Stat(String),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        path_strategy().prop_map(Op::Create),
        (
            path_strategy(),
            proptest::collection::vec(any::<u8>(), 1..200),
            any::<u16>()
        )
            .prop_map(|(p, data, off)| Op::Write(p, data, off % 8192)),
        path_strategy().prop_map(Op::Unlink),
        (path_strategy(), path_strategy()).prop_map(|(a, b)| Op::Rename(a, b)),
        path_strategy().prop_map(Op::Stat),
    ]
}

/// The oracle: path → file contents.
#[derive(Default)]
struct Oracle {
    files: HashMap<String, Vec<u8>>,
}

impl Oracle {
    fn create(&mut self, p: &str) -> Result<(), ()> {
        if self.files.contains_key(p) {
            return Err(());
        }
        self.files.insert(p.to_string(), Vec::new());
        Ok(())
    }
    fn write(&mut self, p: &str, data: &[u8], off: usize) -> Result<(), ()> {
        let f = self.files.get_mut(p).ok_or(())?;
        if f.len() < off + data.len() {
            f.resize(off + data.len(), 0);
        }
        f[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }
    fn unlink(&mut self, p: &str) -> Result<(), ()> {
        self.files.remove(p).map(|_| ()).ok_or(())
    }
    fn rename(&mut self, a: &str, b: &str) -> Result<(), ()> {
        if !self.files.contains_key(a) || self.files.contains_key(b) || a == b {
            return Err(());
        }
        let v = self.files.remove(a).expect("checked");
        self.files.insert(b.to_string(), v);
        Ok(())
    }
}

fn apply(fs: &dyn FileSystem, oracle: &mut Oracle, op: &Op) {
    match op {
        Op::Create(p) => {
            let expected = oracle.create(p);
            let got = fs.create(p).map(|fd| fs.close(fd).expect("close"));
            assert_eq!(expected.is_ok(), got.is_ok(), "create {p}: {got:?}");
            if expected.is_err() {
                oracle.files.get(p).expect("existed");
            }
        }
        Op::Write(p, data, off) => {
            let expected = oracle.write(p, data, *off as usize);
            let got = fs.open(p, OpenFlags::rw()).and_then(|fd| {
                let r = fs.write_at(fd, data, *off as u64);
                fs.close(fd).expect("close");
                r
            });
            assert_eq!(expected.is_ok(), got.is_ok(), "write {p}: {got:?}");
        }
        Op::Unlink(p) => {
            let expected = oracle.unlink(p);
            let got = fs.unlink(p);
            assert_eq!(expected.is_ok(), got.is_ok(), "unlink {p}: {got:?}");
        }
        Op::Rename(a, b) => {
            let expected = oracle.rename(a, b);
            let got = fs.rename(a, b);
            assert_eq!(expected.is_ok(), got.is_ok(), "rename {a} -> {b}: {got:?}");
        }
        Op::Stat(p) => {
            let expected = oracle.files.get(p);
            match (expected, fs.stat(p)) {
                (Some(data), Ok(st)) => assert_eq!(st.size, data.len() as u64, "size of {p}"),
                (None, Err(FsError::NotFound)) => {}
                (e, g) => panic!("stat {p}: oracle {:?} vs fs {g:?}", e.map(|d| d.len())),
            }
        }
    }
}

fn run_sequence(config: Config, ops: &[Op]) {
    let (kernel, fs) = arckfs::new_fs(DEV, config).expect("format");
    fs.mkdir("/d1").expect("mkdir");
    fs.mkdir("/d1/d2").expect("mkdir");
    let mut oracle = Oracle::default();
    for op in ops {
        apply(fs.as_ref(), &mut oracle, op);
    }
    // Final state matches the oracle exactly.
    for (p, data) in &oracle.files {
        let got = fs.read_file(p).expect("read");
        assert_eq!(&got, data, "content of {p}");
    }
    // Everything verifies on the way out, and the device fscks clean.
    fs.unmount().expect("unmount must verify cleanly");
    assert_eq!(kernel.stats().snapshot().verify_failures, 0);
    let report = fsck(kernel.device()).expect("fsck");
    assert!(report.is_consistent(), "{:?}", report.issues);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arckfs_plus_matches_oracle(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        for dcache in [true, false] {
            run_sequence(Config { dcache, ..Config::arckfs_plus() }, &ops);
        }
    }

    /// Single-threaded, the buggy ArckFS behaves identically — all six
    /// bugs need either concurrency or a crash to manifest.
    #[test]
    fn sequential_arckfs_matches_oracle_too(ops in proptest::collection::vec(op_strategy(), 0..40)) {
        // The original ArckFS cannot pass verification after a cross-dir
        // rename (§4.1), so constrain renames to stay within a directory.
        let filtered: Vec<Op> = ops
            .into_iter()
            .filter(|op| match op {
                Op::Rename(a, b) => {
                    a.rsplit_once('/').map(|x| x.0) == b.rsplit_once('/').map(|x| x.0)
                }
                _ => true,
            })
            .collect();
        run_sequence(Config::arckfs(), &filtered);
    }
}
