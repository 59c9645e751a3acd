//! Position-deterministic embedding initialization.
//!
//! A sequential RNG stream cannot initialize a *sharded* table identically
//! to the whole table (the shard would need every preceding draw). Hashing
//! `(seed, table, row, column)` instead makes each element a pure function
//! of its coordinates, so any shard of any scheme starts from bit-identical
//! values — the foundation of the sharding-equivalence tests.

use neo_dlrm_model::{DlrmConfig, DlrmModel};
use neo_embeddings::store::DenseStore;
use neo_tensor::ShapeError;

/// Deterministic value of element `(table, row, col)` for a table of
/// `num_rows` rows: `U(-1/sqrt(H), 1/sqrt(H))` like the standard DLRM
/// initialization, but position-hashed.
#[must_use]
pub fn det_element(seed: u64, table: usize, row: u64, col: usize, num_rows: u64) -> f32 {
    let scale = 1.0 / (num_rows.max(1) as f32).sqrt();
    let h = splitmix(
        seed ^ (table as u64).wrapping_mul(0xA076_1D64_78BD_642F)
            ^ row.wrapping_mul(0xE703_7ED1_A0B4_28DB)
            ^ (col as u64).wrapping_mul(0x8EBC_6AF0_9C88_C6E3),
    );
    ((h >> 11) as f32 / (1u64 << 53) as f32 * 2.0 - 1.0) * scale
}

/// Fills `dst` with the rectangle `dst.len() / width` rows ×
/// `[col_off, col_off + width)` of table `table`, starting at global row
/// `row_off`, row-major with stride `width`: element `(i, j)` is
/// [`det_element`]`(seed, table, row_off + i, col_off + j, num_rows)` bit
/// for bit. `dst` holds whole rows.
///
/// The hash key `seed ^ table·C1 ^ row·C2 ^ col·C3` is one XOR chain and
/// XOR is associative, so the seed and table terms are folded once, the
/// row term once per row, and the column term steps by one wrapping add
/// (`(c + 1)·C3 = c·C3 + C3` mod 2^64); the scale is computed once.
/// `h >> 11 < 2^53` converts through `i64` to the same `f32`, without the
/// unsigned conversion's branch.
pub fn det_fill(
    seed: u64,
    table: usize,
    num_rows: u64,
    row_off: u64,
    col_off: usize,
    width: usize,
    dst: &mut [f32],
) {
    const C_TABLE: u64 = 0xA076_1D64_78BD_642F;
    const C_ROW: u64 = 0xE703_7ED1_A0B4_28DB;
    const C_COL: u64 = 0x8EBC_6AF0_9C88_C6E3;
    if width == 0 {
        return;
    }
    let scale = 1.0 / (num_rows.max(1) as f32).sqrt();
    let table_key = seed ^ (table as u64).wrapping_mul(C_TABLE);
    let first_col_key = (col_off as u64).wrapping_mul(C_COL);
    for (row, out) in (row_off..).zip(dst.chunks_exact_mut(width)) {
        let row_key = table_key ^ row.wrapping_mul(C_ROW);
        let mut col_key = first_col_key;
        for v in out {
            let h = splitmix(row_key ^ col_key);
            col_key = col_key.wrapping_add(C_COL);
            *v = ((h >> 11) as i64 as f32 / (1u64 << 53) as f32 * 2.0 - 1.0) * scale;
        }
    }
}

/// Builds the single-device reference model whose embedding tables use the
/// deterministic position-hashed initialization (MLPs come from the seeded
/// stream exactly as the distributed workers draw them).
///
/// # Errors
///
/// Returns [`ShapeError`] if the config is invalid.
pub fn reference_model(cfg: &DlrmConfig, seed: u64) -> Result<DlrmModel, ShapeError> {
    let mut model = DlrmModel::new(cfg, seed)?;
    for (t, table) in model.tables.iter_mut().enumerate() {
        let (rows, dim) = (table.num_rows(), table.dim());
        *table = Box::new(DenseStore::from_rows(rows, dim, |r, block| {
            det_fill(seed, t, rows, r, 0, dim, block);
        }));
    }
    Ok(model)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn elements_bounded_and_deterministic() {
        for r in 0..50u64 {
            for c in 0..8 {
                let v = det_element(1, 2, r, c, 100);
                assert!(v.abs() <= 0.1);
                assert_eq!(v, det_element(1, 2, r, c, 100));
            }
        }
    }

    #[test]
    fn different_coordinates_differ() {
        assert_ne!(det_element(1, 0, 0, 0, 10), det_element(1, 0, 0, 1, 10));
        assert_ne!(det_element(1, 0, 0, 0, 10), det_element(1, 0, 1, 0, 10));
        assert_ne!(det_element(1, 0, 0, 0, 10), det_element(1, 1, 0, 0, 10));
        assert_ne!(det_element(1, 0, 0, 0, 10), det_element(2, 0, 0, 0, 10));
    }

    #[test]
    fn reference_model_uses_det_elements() {
        let cfg = neo_dlrm_model::DlrmConfig::tiny(2, 20, 4);
        let mut m = reference_model(&cfg, 5).unwrap();
        let mut buf = [0.0f32; 4];
        m.tables[1].read_row(3, &mut buf);
        let want: Vec<f32> = (0..4).map(|c| det_element(5, 1, 3, c, 20)).collect();
        assert_eq!(buf.to_vec(), want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fill kernel is the per-element definition, bit for bit, at
        /// every position of every rectangle: the hoisted hash terms wrap
        /// over the full `u64` range and `num_rows` spans 1 to 2^40 on a
        /// log scale, so the scale and the `i64` conversion see small and
        /// huge tables alike.
        #[test]
        fn fill_is_det_element_bitwise(
            seed in any::<u64>(),
            table in 0usize..=64,
            row_off in 0u64..=(1 << 40),
            rows in 0usize..=300,
            col_off in 0usize..=48,
            width in 0usize..=48,
            rows_log in 0u32..=40,
            rows_bits in any::<u64>(),
        ) {
            let num_rows = 1 + rows_bits % (1u64 << rows_log);
            let mut dst = vec![f32::NAN; rows * width];
            det_fill(seed, table, num_rows, row_off, col_off, width, &mut dst);
            for i in 0..rows {
                for j in 0..width {
                    let want = det_element(seed, table, row_off + i as u64, col_off + j, num_rows);
                    prop_assert_eq!(dst[i * width + j].to_bits(), want.to_bits());
                }
            }
        }
    }
}
