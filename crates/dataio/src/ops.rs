//! Row-wise input redistribution (§4.4): [`bucketize_rows`].
//!
//! Before the index AlltoAll, a row-wise sharded table's indices are
//! *bucketized* by row range and rewritten to shard-local ids. Column-wise
//! shards need no kernel: the trainer sends each one the table's indices
//! unchanged (§4.2.3's "duplication of the input indices").

use std::fmt;

/// Error for malformed redistribution inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpsError {
    msg: String,
}

impl fmt::Display for OpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "input-distribution error: {}", self.msg)
    }
}

impl std::error::Error for OpsError {}

fn err(msg: impl Into<String>) -> OpsError {
    OpsError { msg: msg.into() }
}

/// The result of bucketizing one table's inputs for row-wise sharding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucketized {
    /// Per-shard per-bag lengths, laid out `(shard, bag)`.
    pub lengths: Vec<u32>,
    /// Shard-local row ids, concatenated shard-major in bag order.
    pub indices: Vec<u64>,
    /// Number of shards.
    pub shards: usize,
    /// Number of bags.
    pub bags: usize,
}

impl Bucketized {
    /// The `(lengths, indices)` destined for shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.shards`.
    pub fn shard_inputs(&self, s: usize) -> (&[u32], &[u64]) {
        assert!(s < self.shards, "shard {s} out of range");
        let lens = &self.lengths[s * self.bags..(s + 1) * self.bags];
        let mut start = 0usize;
        for prev in 0..s {
            start += self.lengths[prev * self.bags..(prev + 1) * self.bags]
                .iter()
                .map(|&l| l as usize)
                .sum::<usize>();
        }
        let take: usize = lens.iter().map(|&l| l as usize).sum();
        (lens, &self.indices[start..start + take])
    }
}

/// Size of each contiguous row block when a table of `num_rows` rows is
/// row-sharded across `shards` workers.
#[must_use]
pub fn row_block_size(num_rows: u64, shards: usize) -> u64 {
    num_rows.div_ceil(shards as u64)
}

/// Buckets one table's `(lengths, indices)` by row range for `shards`
/// row-wise shards: global row `i` goes to shard `i / block` as local row
/// `i % block` (block = `ceil(H / shards)`).
///
/// # Errors
///
/// Returns [`OpsError`] if the inputs are inconsistent or an index is out
/// of range.
pub fn bucketize_rows(
    shards: usize,
    num_rows: u64,
    lengths: &[u32],
    indices: &[u64],
) -> Result<Bucketized, OpsError> {
    if shards == 0 {
        return Err(err("zero shards"));
    }
    let total: usize = lengths.iter().map(|&l| l as usize).sum();
    if total != indices.len() {
        return Err(err("lengths/indices mismatch"));
    }
    if let Some(&bad) = indices.iter().find(|&&i| i >= num_rows) {
        return Err(err(format!("index {bad} >= num_rows {num_rows}")));
    }
    let bags = lengths.len();
    let block = row_block_size(num_rows, shards);
    let mut out_lengths = vec![0u32; shards * bags];
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); shards];
    let mut cursor = 0usize;
    for (bag, &l) in lengths.iter().enumerate() {
        for &idx in &indices[cursor..cursor + l as usize] {
            let s = (idx / block) as usize;
            out_lengths[s * bags + bag] += 1;
            per_shard[s].push(idx % block);
        }
        cursor += l as usize;
    }
    let mut out_indices = Vec::with_capacity(indices.len());
    for s in per_shard {
        out_indices.extend(s);
    }
    Ok(Bucketized {
        lengths: out_lengths,
        indices: out_indices,
        shards,
        bags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketize_routes_by_block() {
        // H=10, 2 shards => block 5: rows 0-4 shard 0, 5-9 shard 1
        let lengths = vec![2, 1];
        let indices = vec![1, 7, 5];
        let bz = bucketize_rows(2, 10, &lengths, &indices).unwrap();
        let (l0, i0) = bz.shard_inputs(0);
        assert_eq!(l0, &[1, 0]);
        assert_eq!(i0, &[1]);
        let (l1, i1) = bz.shard_inputs(1);
        assert_eq!(l1, &[1, 1]);
        assert_eq!(i1, &[2, 0], "local ids: 7-5=2, 5-5=0");
    }

    #[test]
    fn bucketize_preserves_counts() {
        let lengths = vec![3, 0, 2, 5];
        let indices: Vec<u64> = vec![0, 9, 4, 8, 2, 1, 3, 5, 6, 7];
        let bz = bucketize_rows(3, 10, &lengths, &indices).unwrap();
        let total: u32 = bz.lengths.iter().sum();
        assert_eq!(total as usize, indices.len());
        assert_eq!(bz.indices.len(), indices.len());
        // every local id fits its block
        let block = row_block_size(10, 3);
        assert!(bz.indices.iter().all(|&i| i < block));
    }

    #[test]
    fn bucketize_validates() {
        assert!(bucketize_rows(0, 10, &[1], &[0]).is_err());
        assert!(bucketize_rows(2, 10, &[2], &[0]).is_err());
        assert!(bucketize_rows(2, 10, &[1], &[10]).is_err());
    }

    #[test]
    fn row_block_rounds_up() {
        assert_eq!(row_block_size(10, 3), 4);
        assert_eq!(row_block_size(8, 4), 2);
        assert_eq!(row_block_size(1, 4), 1);
    }
}
