//! Property tests for generation-tagged mappings and the page allocator.

use pmem::{Mapping, MappingRegistry, PmemDevice, ShardedPageAllocator, PAGE_SIZE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleaved maps/unmaps: a handle works iff no unmap happened after
    /// its creation.
    #[test]
    fn mapping_generations_track_unmaps(unmap_pattern in proptest::collection::vec(any::<bool>(), 1..20)) {
        let dev = PmemDevice::new(1 << 20);
        let reg = Arc::new(MappingRegistry::new());
        let mut live: Vec<Mapping> = Vec::new();
        for do_unmap in unmap_pattern {
            if do_unmap {
                reg.unmap();
                for m in &live {
                    prop_assert!(m.read_u64(0).is_err(), "stale handle must fault");
                }
                live.clear();
            }
            let m = Mapping::new(dev.clone(), reg.clone(), 0, 4096);
            prop_assert!(m.write_u64(0, 7).is_ok());
            for old in &live {
                prop_assert!(old.read_u64(0).is_ok(), "same-generation peers stay live");
            }
            live.push(m);
        }
    }

    /// Arbitrary alloc/free interleavings never double-allocate, and the
    /// durable bitmap always agrees with the allocator's view.
    #[test]
    fn allocator_never_double_allocates(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let dev = PmemDevice::new(256 * PAGE_SIZE);
        let alloc = ShardedPageAllocator::format(dev, 0, 4, 128).unwrap();
        let mut held: Vec<u64> = Vec::new();
        let mut seen = HashSet::new();
        for take in ops {
            if take {
                match alloc.alloc() {
                    Ok(p) => {
                        prop_assert!((4..132).contains(&p));
                        prop_assert!(seen.insert(p), "page {p} double-allocated");
                        prop_assert!(alloc.is_allocated(p).unwrap());
                        held.push(p);
                    }
                    Err(_) => prop_assert_eq!(held.len(), 128, "spurious exhaustion"),
                }
            } else if let Some(p) = held.pop() {
                alloc.free(p).unwrap();
                seen.remove(&p);
                prop_assert!(!alloc.is_allocated(p).unwrap());
            }
        }
        prop_assert_eq!(alloc.allocated_count(), held.len() as u64);
    }

    /// Concurrent alloc/free at shard counts 1, 2 and 8 on a *tracked*
    /// device, then a crash: the allocator persists every bit transition
    /// (set before an extent is returned, clear before a page re-enters a
    /// free list), so any crash image sampled after the threads quiesce
    /// shows *exactly* the held set — and recovery, even with a different
    /// shard count, rebuilds free lists that never re-hand out a held page.
    #[test]
    fn sharded_crash_recovery_shows_exactly_the_held_set(
        shards in prop_oneof![Just(1usize), Just(2), Just(8)],
        recover_shards in prop_oneof![Just(1usize), Just(2), Just(8)],
        seed in any::<u64>(),
    ) {
        const FIRST: u64 = 4;
        const COUNT: u64 = 256;
        let dev = PmemDevice::new_tracked(64 * PAGE_SIZE);
        let alloc = ShardedPageAllocator::format_with_shards(dev.clone(), 0, FIRST, COUNT, shards).unwrap();
        let held: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|t| {
                    let alloc = &alloc;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9e37_79b9));
                        let mut held: Vec<u64> = Vec::new();
                        for _ in 0..48 {
                            if rng.gen_bool(0.6) || held.is_empty() {
                                let n = rng.gen_range(1..4);
                                if let Ok(pages) = alloc.alloc_extent_hinted(t, n) {
                                    held.extend(pages);
                                }
                            } else {
                                let at = rng.gen_range(0..held.len());
                                let page = held.swap_remove(at);
                                alloc.free_extent(&[page]).unwrap();
                            }
                        }
                        held
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut survivors = HashSet::new();
        for set in &held {
            for &p in set {
                prop_assert!(survivors.insert(p), "page {p} held twice");
            }
        }
        // Crash and recover from a sampled image (every bit transition was
        // clwb'd + fenced, so the image is exact regardless of sampling).
        let mut img_rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let img = dev.sample_crash_image(&mut img_rng).unwrap();
        let rec = ShardedPageAllocator::recover_with_shards(
            PmemDevice::from_image(&img), 0, FIRST, COUNT, recover_shards).unwrap();
        prop_assert_eq!(rec.allocated_count(), survivors.len() as u64);
        for &p in &survivors {
            prop_assert!(rec.is_allocated(p).unwrap(), "held page {p} lost by recovery");
        }
        // Every post-recovery free page is genuinely unheld: draining the
        // allocator must never collide with a survivor.
        let fresh = rec.alloc_extent(rec.free_count() as usize).unwrap();
        prop_assert_eq!(fresh.len() as u64 + survivors.len() as u64, COUNT);
        for &p in &fresh {
            prop_assert!(!survivors.contains(&p), "free list re-issued held page {p}");
        }
    }
}
