//! The shadow inode table — the kernel's ground truth.
//!
//! ArckFS's core state includes a shadow inode table that "serves as the
//! ground truth for comparison with the inodes used by LibFSes" (§2.2).
//! The kernel records here, for every inode it has *verified*:
//!
//! * identity (type, owner, permission bits), and
//! * — **ArckFS+ only** (§4.1 patch) — the **parent pointer**, updated when
//!   the new parent of a rename commits successfully, which is what lets the
//!   verifier distinguish "child deleted" from "child renamed away", plus
//! * the verified set of children of each directory (kept in DRAM and
//!   reconstructible from the parent pointers), used as the baseline for
//!   the next verification diff.
//!
//! The table is persisted to PM so that recovery (and the fsck oracle) can
//! cross-check it, and cached in DRAM for speed.

use std::collections::HashMap;
use std::sync::Arc;

use pmem::{PmemDevice, PmemResult};

use crate::format::{Geometry, InodeType, SHADOW_SIZE};

// Shadow record field offsets.
const S_INO: u64 = 0;
const S_TYPE: u64 = 8;
const S_MODE: u64 = 12;
const S_UID: u64 = 16;
const S_PARENT: u64 = 24;

/// A shadow entry for one verified inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowEntry {
    /// Inode number.
    pub ino: u64,
    /// Verified type.
    pub itype: InodeType,
    /// Verified permission bits.
    pub mode: u32,
    /// Verified owner.
    pub uid: u32,
    /// Verified parent directory (ArckFS+ §4.1). 0 for the root and for
    /// entries created before the patch existed.
    pub parent: u64,
}

/// A directory's verified children, name → child ino. Immutable once
/// built: a new verification installs a new map.
pub type Children = Arc<HashMap<String, u64>>;

/// DRAM cache + PM persistence of the shadow table.
#[derive(Debug)]
pub struct ShadowTable {
    device: Arc<PmemDevice>,
    geom: Geometry,
    entries: HashMap<u64, ShadowEntry>,
    /// Verified children per directory: name → child ino, shared with the
    /// snapshots taken of that directory rather than copied. This is the
    /// baseline the verifier diffs a released directory against.
    children: HashMap<u64, Children>,
}

impl ShadowTable {
    /// An empty table over a freshly formatted device.
    pub fn new(device: Arc<PmemDevice>, geom: Geometry) -> Self {
        ShadowTable {
            device,
            geom,
            entries: HashMap::new(),
            children: HashMap::new(),
        }
    }

    /// Rebuild the DRAM cache from the persisted table (remount). The
    /// verified-children map is rebuilt from the parent pointers; names are
    /// recovered lazily by the first verification of each directory.
    pub fn recover(device: Arc<PmemDevice>, geom: Geometry) -> PmemResult<Self> {
        let mut entries = HashMap::new();
        for ino in 1..=geom.max_inodes {
            let base = geom.shadow_offset(ino);
            let stored = device.read_u64(base + S_INO)?;
            if stored != ino {
                continue;
            }
            let itype = match InodeType::from_raw(device.read_u32(base + S_TYPE)?) {
                Some(t) => t,
                None => continue,
            };
            entries.insert(
                ino,
                ShadowEntry {
                    ino,
                    itype,
                    mode: device.read_u32(base + S_MODE)?,
                    uid: device.read_u32(base + S_UID)?,
                    parent: device.read_u64(base + S_PARENT)?,
                },
            );
        }
        Ok(ShadowTable {
            device,
            geom,
            entries,
            children: HashMap::new(),
        })
    }

    fn persist_entry(&self, e: &ShadowEntry) -> PmemResult<()> {
        let base = self.geom.shadow_offset(e.ino);
        self.device.write_u32(base + S_TYPE, e.itype.to_raw())?;
        self.device.write_u32(base + S_MODE, e.mode)?;
        self.device.write_u32(base + S_UID, e.uid)?;
        self.device.write_u64(base + S_PARENT, e.parent)?;
        // Commit-marker ordering: identity fields first, then the ino field
        // that validates the record.
        self.device.clwb(base, SHADOW_SIZE as usize)?;
        self.device.sfence();
        self.device.write_u64(base + S_INO, e.ino)?;
        self.device.persist(base, 8)?;
        Ok(())
    }

    fn erase_entry(&self, ino: u64) -> PmemResult<()> {
        let base = self.geom.shadow_offset(ino);
        self.device.write_u64(base + S_INO, 0)?;
        self.device.persist(base, 8)?;
        Ok(())
    }

    /// Insert or update an entry, persisting it.
    pub fn upsert(&mut self, e: ShadowEntry) -> PmemResult<()> {
        self.persist_entry(&e)?;
        self.entries.insert(e.ino, e);
        Ok(())
    }

    /// Remove an entry (inode freed), persisting the removal.
    pub fn remove(&mut self, ino: u64) -> PmemResult<Option<ShadowEntry>> {
        self.erase_entry(ino)?;
        self.children.remove(&ino);
        Ok(self.entries.remove(&ino))
    }

    /// Look up an entry.
    pub fn get(&self, ino: u64) -> Option<&ShadowEntry> {
        self.entries.get(&ino)
    }

    /// Update an entry's parent pointer (the §4.1 mechanism), persisting it.
    pub fn set_parent(&mut self, ino: u64, parent: u64) -> PmemResult<()> {
        if let Some(e) = self.entries.get_mut(&ino) {
            e.parent = parent;
            let e = e.clone();
            self.persist_entry(&e)?;
        }
        Ok(())
    }

    /// The verified children of directory `ino` (empty map if never
    /// verified).
    pub fn children_of(&self, ino: u64) -> Children {
        self.children.get(&ino).cloned().unwrap_or_default()
    }

    /// Replace the verified-children baseline for `ino`.
    pub fn set_children(&mut self, ino: u64, children: Children) {
        self.children.insert(ino, children);
    }

    /// True when directory `ino` has at least one verified child.
    pub fn has_children(&self, ino: u64) -> bool {
        self.children.get(&ino).is_some_and(|c| !c.is_empty())
    }

    /// Walk parent pointers from `start` to the root; returns the chain
    /// (excluding `start`). `None` if a cycle or dangling parent is found.
    pub fn ancestors(&self, start: u64) -> Option<Vec<u64>> {
        let mut chain = Vec::new();
        let mut cur = start;
        let mut hops = 0usize;
        loop {
            let e = self.entries.get(&cur)?;
            if e.parent == 0 {
                return Some(chain); // reached the root
            }
            chain.push(e.parent);
            cur = e.parent;
            hops += 1;
            if hops > self.entries.len() + 1 {
                return None; // cycle
            }
        }
    }

    /// Is `candidate` a descendant of `ancestor` according to the verified
    /// parent pointers? (Used by the §4.1 check "the new parent is not a
    /// descendant of the renaming inode".)
    pub fn is_descendant_of(&self, candidate: u64, ancestor: u64) -> bool {
        if candidate == ancestor {
            return true;
        }
        match self.ancestors(candidate) {
            Some(chain) => chain.contains(&ancestor),
            // A broken chain is treated as "possibly a descendant": the
            // verifier must be conservative.
            None => true,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over all entries.
    pub fn iter(&self) -> impl Iterator<Item = &ShadowEntry> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::mode;

    fn mk() -> ShadowTable {
        let dev = PmemDevice::new(16 << 20);
        let geom = Geometry::new(16 << 20, 256);
        ShadowTable::new(dev, geom)
    }

    fn entry(ino: u64, parent: u64, itype: InodeType) -> ShadowEntry {
        ShadowEntry {
            ino,
            itype,
            mode: mode::RW_ALL,
            uid: 0,
            parent,
        }
    }

    #[test]
    fn upsert_get_remove() {
        let mut t = mk();
        t.upsert(entry(1, 0, InodeType::Directory)).unwrap();
        t.upsert(entry(2, 1, InodeType::Regular)).unwrap();
        assert_eq!(t.get(2).unwrap().parent, 1);
        assert_eq!(t.len(), 2);
        t.remove(2).unwrap();
        assert!(t.get(2).is_none());
    }

    #[test]
    fn persistence_recovers() {
        let dev = PmemDevice::new(16 << 20);
        let geom = Geometry::new(16 << 20, 256);
        let mut t = ShadowTable::new(dev.clone(), geom);
        t.upsert(entry(1, 0, InodeType::Directory)).unwrap();
        t.upsert(entry(5, 1, InodeType::Directory)).unwrap();
        t.upsert(entry(9, 5, InodeType::Regular)).unwrap();
        t.remove(9).unwrap();
        let r = ShadowTable::recover(dev, geom).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(5).unwrap().parent, 1);
        assert!(r.get(9).is_none());
    }

    #[test]
    fn ancestors_and_descendants() {
        let mut t = mk();
        t.upsert(entry(1, 0, InodeType::Directory)).unwrap();
        t.upsert(entry(2, 1, InodeType::Directory)).unwrap();
        t.upsert(entry(3, 2, InodeType::Directory)).unwrap();
        assert_eq!(t.ancestors(3).unwrap(), vec![2, 1]);
        assert!(t.is_descendant_of(3, 1));
        assert!(t.is_descendant_of(3, 3));
        assert!(!t.is_descendant_of(1, 3));
    }

    #[test]
    fn cycle_detected_conservatively() {
        let mut t = mk();
        t.upsert(entry(2, 3, InodeType::Directory)).unwrap();
        t.upsert(entry(3, 2, InodeType::Directory)).unwrap();
        assert!(t.ancestors(2).is_none());
        assert!(
            t.is_descendant_of(2, 9),
            "broken chain must be conservative"
        );
    }

    #[test]
    fn set_parent_updates() {
        let mut t = mk();
        t.upsert(entry(1, 0, InodeType::Directory)).unwrap();
        t.upsert(entry(2, 1, InodeType::Directory)).unwrap();
        t.upsert(entry(3, 1, InodeType::Directory)).unwrap();
        t.set_parent(3, 2).unwrap();
        assert_eq!(t.get(3).unwrap().parent, 2);
        assert_eq!(t.ancestors(3).unwrap(), vec![2, 1]);
    }

    #[test]
    fn children_baseline() {
        let mut t = mk();
        let mut c = HashMap::new();
        c.insert("a".to_string(), 2u64);
        t.set_children(1, Arc::new(c));
        assert!(t.has_children(1));
        assert_eq!(t.children_of(1).get("a"), Some(&2));
        assert!(!t.has_children(7));
        assert!(t.children_of(7).is_empty());
    }
}
