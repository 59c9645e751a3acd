//! Property-based tests: the cache behaves as a lossy-but-honest map.

use neo_memory::{Policy, SetAssocCache, UvmPageCache};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cache probe either misses or returns *exactly* the last value the
    /// key held (no stale or cross-key data), for arbitrary op sequences,
    /// geometries and policies.
    #[test]
    fn cache_never_serves_stale_data(
        ops in proptest::collection::vec((0u64..40, -100i32..100, any::<bool>()), 1..120),
        sets in 1usize..6,
        ways in 1usize..5,
        lfu in any::<bool>(),
    ) {
        let policy = if lfu { Policy::Lfu } else { Policy::Lru };
        let mut cache = SetAssocCache::new(sets, ways, 1, policy);
        let mut truth: BTreeMap<u64, f32> = BTreeMap::new();
        for (key, val, is_write) in ops {
            let val = val as f32;
            if is_write {
                if cache.get_mut(key).map(|slot| slot[0] = val).is_none() {
                    cache.insert_dirty(key, &[val]);
                }
                truth.insert(key, val);
            } else if let Some(data) = cache.get(key) {
                prop_assert_eq!(data[0], truth[&key], "stale value for {}", key);
            }
            prop_assert!(cache.resident_rows() <= cache.capacity_rows());
        }
    }

    /// Evicted dirty lines carry the freshest value (write-back safety).
    #[test]
    fn evictions_carry_fresh_values(
        keys in proptest::collection::vec(0u64..64, 1..80),
    ) {
        let mut cache = SetAssocCache::new(2, 2, 1, Policy::Lru);
        let mut truth: BTreeMap<u64, f32> = BTreeMap::new();
        for (i, &key) in keys.iter().enumerate() {
            let val = i as f32;
            if cache.get_mut(key).map(|s| s[0] = val).is_none() {
                if let Some(victim) = cache.insert_dirty(key, &[val]) {
                    if victim.dirty {
                        prop_assert_eq!(victim.data[0], truth[&victim.key]);
                    }
                }
            }
            truth.insert(key, val);
        }
        // drain the rest: every dirty line must match the truth
        for line in cache.drain_dirty() {
            prop_assert_eq!(line.data[0], truth[&line.key]);
        }
    }

    /// Hit + miss counts always equal the number of probes.
    #[test]
    fn stats_conservation(
        probes in proptest::collection::vec(0u64..32, 1..100),
    ) {
        let mut cache = SetAssocCache::new(4, 2, 1, Policy::Lru);
        for &k in &probes {
            if cache.get(k).is_none() {
                cache.insert(k, &[k as f32]);
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, probes.len() as u64);
        prop_assert!(s.writebacks <= s.evictions);
    }

    /// UVM page traffic is always a whole number of pages and never less
    /// than what misses require.
    #[test]
    fn uvm_traffic_is_page_granular(
        rows in proptest::collection::vec(0u64..1000, 1..60),
        pages in 1usize..5,
        rows_per_page in 1u64..16,
    ) {
        let row_bytes = 8u64;
        let mut uvm = UvmPageCache::new(pages, rows_per_page, row_bytes);
        for &r in &rows {
            uvm.access_row(r, false);
        }
        let page_bytes = rows_per_page * row_bytes;
        prop_assert_eq!(uvm.bytes_in() % page_bytes, 0);
        prop_assert_eq!(uvm.bytes_in() / page_bytes, uvm.stats().misses);
    }
}
