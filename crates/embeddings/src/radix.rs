//! Stable LSD radix sort of `(row id, payload)` pairs — the sort behind
//! the exact sparse update (§4.1.2).
//!
//! The update only needs the *occurrence order* of equal row ids to be
//! preserved (gradients for a duplicate row accumulate in arrival order,
//! which is what makes the optimizers bit-reproducible). A least-
//! significant-digit radix sort is stable by construction, so the sorted
//! pairs are exactly those of a stable comparison sort by row id.
//!
//! Each digit pass scatters the key *and* its payload from one contiguous
//! array into the other, so no pass gathers through a permutation. Digits
//! are 11 bits wide and one histogram pass counts every digit at once: a
//! table of up to 4M rows sorts in two scatter passes, and any `u64` row id
//! in at most six. A digit every key shares is skipped.

/// Bits per radix digit.
const DIGIT_BITS: u32 = 11;
/// Buckets per digit.
const BUCKETS: usize = 1 << DIGIT_BITS;
/// Digits of a `u64` key.
const MAX_DIGITS: usize = u64::BITS.div_ceil(DIGIT_BITS) as usize;

/// Digit `d` (least significant first) of `key`.
#[inline]
fn digit(key: u64, d: usize) -> usize {
    ((key >> (d as u32 * DIGIT_BITS)) as usize) & (BUCKETS - 1)
}

/// Row ids with a `u32` payload each, sorted in place by
/// [`radix_sort`](Self::radix_sort). The buffers are kept between sorts,
/// so a reused value allocates only while a batch grows past every earlier
/// one.
#[derive(Debug, Default, Clone)]
pub(crate) struct SortedPairs {
    /// The row ids.
    pub(crate) keys: Vec<u64>,
    /// One payload per key, moved with it.
    pub(crate) vals: Vec<u32>,
    spare_keys: Vec<u64>,
    spare_vals: Vec<u32>,
}

impl SortedPairs {
    /// Sorts the pairs by key, equal keys in arrival order (a stable sort),
    /// carrying each payload with its key. Holds fewer than `2^32` pairs.
    pub(crate) fn radix_sort(&mut self) {
        let n = self.keys.len();
        assert_eq!(n, self.vals.len(), "one payload per key");
        debug_assert!(u32::try_from(n).is_ok(), "bucket counts are u32");
        // the OR of the keys has the largest key's highest set bit, and
        // unlike a running max it vectorises
        let bits = self.keys.iter().fold(0, |acc, &k| acc | k);
        let digits = (u64::BITS - bits.leading_zeros()).div_ceil(DIGIT_BITS) as usize;
        if n < 2 || digits == 0 {
            return;
        }
        let mut counts = [[0u32; BUCKETS]; MAX_DIGITS];
        for &k in &self.keys {
            for (d, c) in counts[..digits].iter_mut().enumerate() {
                c[digit(k, d)] += 1;
            }
        }
        self.spare_keys.resize(n, 0);
        self.spare_vals.resize(n, 0);
        for (d, offsets) in counts[..digits].iter_mut().enumerate() {
            if offsets[digit(self.keys[0], d)] as usize == n {
                continue;
            }
            let mut start = 0u32;
            for slot in offsets.iter_mut() {
                let count = *slot;
                *slot = start;
                start += count;
            }
            for (&k, &v) in self.keys.iter().zip(&self.vals) {
                let slot = &mut offsets[digit(k, d)];
                self.spare_keys[*slot as usize] = k;
                self.spare_vals[*slot as usize] = v;
                *slot += 1;
            }
            std::mem::swap(&mut self.keys, &mut self.spare_keys);
            std::mem::swap(&mut self.vals, &mut self.spare_vals);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Sorts `keys` paired with their positions, returning the sorted
    /// pairs.
    fn radix(keys: &[u64]) -> Vec<(u64, u32)> {
        let mut p = SortedPairs::default();
        p.keys.extend_from_slice(keys);
        p.vals.extend(0..keys.len() as u32);
        p.radix_sort();
        p.keys.into_iter().zip(p.vals).collect()
    }

    /// The same pairs through a stable comparison sort.
    fn stable_reference(keys: &[u64]) -> Vec<(u64, u32)> {
        let mut pairs: Vec<(u64, u32)> = keys.iter().copied().zip(0..).collect();
        pairs.sort_by_key(|&(k, _)| k);
        pairs
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(radix(&[]), vec![]);
        assert_eq!(radix(&[42]), vec![(42, 0)]);
    }

    #[test]
    fn duplicates_keep_arrival_order() {
        // key 7 occurs at positions 0, 2, 4 — they must stay in that order
        let keys = [7u64, 3, 7, 1, 7];
        assert_eq!(radix(&keys), vec![(1, 3), (3, 1), (7, 0), (7, 2), (7, 4)]);
    }

    #[test]
    fn a_reused_value_sorts_each_batch_afresh() {
        let mut p = SortedPairs::default();
        for keys in [&[9u64, 1 << 40, 3, 9][..], &[5, 5, 0], &[]] {
            p.keys.clear();
            p.vals.clear();
            p.keys.extend_from_slice(keys);
            p.vals.extend(0..keys.len() as u32);
            p.radix_sort();
            let got: Vec<(u64, u32)> = p.keys.iter().copied().zip(p.vals.iter().copied()).collect();
            assert_eq!(got, stable_reference(keys));
        }
    }

    #[test]
    fn keys_spanning_many_digit_widths() {
        for span in [
            0u64,
            1,
            200,
            2047,
            2048,
            70_000,
            1 << 24,
            1 << 40,
            u64::MAX - 3,
        ] {
            let modulus = span.saturating_add(4);
            let keys: Vec<u64> = (0..50u64)
                .map(|i| span.saturating_sub(i * 37 + 11) % modulus)
                .collect();
            assert_eq!(radix(&keys), stable_reference(&keys), "span {span}");
        }
    }

    proptest! {
        /// The radix sort is pair-for-pair a stable comparison sort for
        /// arbitrary key sets: duplicate-heavy ones (the optimizer's hot
        /// case), keys confined to one digit, keys that share their low
        /// digits, and row ids at and above `2^32`.
        #[test]
        fn matches_stable_sort(
            keys in proptest::collection::vec(0u64..u64::MAX, 0..200),
            modulus in 1u64..50,
            shape in 0u8..4,
            base in 0usize..3,
        ) {
            let keys: Vec<u64> = match shape {
                // a small id space forces duplicates
                0 => keys.iter().map(|k| k % modulus).collect(),
                // a single-digit range
                1 => keys.iter().map(|k| k % (BUCKETS as u64)).collect(),
                // equal low digits, distinct high ones
                2 => keys.iter().map(|k| (k % modulus) << 33 | 0x5a5).collect(),
                _ => keys,
            };
            let base = [0u64, 1 << 32, u64::MAX - 64][base];
            let keys: Vec<u64> = if shape == 3 {
                keys
            } else {
                keys.iter().map(|&k| base.wrapping_add(k)).collect()
            };
            prop_assert_eq!(radix(&keys), stable_reference(&keys));
        }
    }
}
