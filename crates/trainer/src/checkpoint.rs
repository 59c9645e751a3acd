//! Model checkpointing.
//!
//! Production training checkpoints 10TB+ models frequently without stalling
//! (§4.4, the Check-N-Run system). This module keeps the core mechanism —
//! a compact binary snapshot of dense parameters and embedding tables with
//! integrity checking — sized for the simulated system.

use neo_dlrm_model::DlrmModel;
use neo_tensor::Tensor2;

use crate::sync::SyncError;

const MAGIC: u32 = 0x4E45_4F43; // "NEOC"
const VERSION: u32 = 1;

/// Serializes the model (dense params + all embedding rows) to bytes.
///
/// Layout: magic, version, dense-param count + values, table count, then
/// per table `rows, dim` + row-major values, and a final FNV checksum.
pub fn save(model: &mut DlrmModel) -> Vec<u8> {
    let mut out = Vec::new();
    push_u32(&mut out, MAGIC);
    push_u32(&mut out, VERSION);

    let (bottom, top) = (model.bottom.params(), model.top.params());
    push_u64(&mut out, (bottom.len() + top.len()) as u64);
    for v in bottom.iter().chain(top) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    push_u64(&mut out, model.tables.len() as u64);
    for table in &mut model.tables {
        let rows = table.num_rows();
        let dim = table.dim();
        push_u64(&mut out, rows);
        push_u64(&mut out, dim as u64);
        let dense = table.to_dense();
        for v in dense.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let check = fnv(&out);
    push_u64(&mut out, check);
    out
}

/// Restores a snapshot produced by [`save`] into `model` (which must have
/// the same architecture).
///
/// # Errors
///
/// Returns [`SyncError`] on corruption, version mismatch, or architecture
/// mismatch.
pub fn load(model: &mut DlrmModel, bytes: &[u8]) -> Result<(), SyncError> {
    if bytes.len() < 8 + 8 {
        return Err(SyncError::msg("checkpoint too short"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    // lint: allow(panic) — split_at leaves exactly 8 bytes
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv(body) != stored {
        return Err(SyncError::msg("checkpoint checksum mismatch"));
    }
    let mut r = Reader { buf: body, pos: 0 };
    if r.u32()? != MAGIC {
        return Err(SyncError::msg("bad checkpoint magic"));
    }
    if r.u32()? != VERSION {
        return Err(SyncError::msg("unsupported checkpoint version"));
    }

    let n_dense = r.u64()? as usize;
    let nb = model.bottom.num_params();
    let nt = model.top.num_params();
    if n_dense != nb + nt {
        return Err(SyncError::msg(format!(
            "checkpoint has {n_dense} dense params, model has {}",
            nb + nt
        )));
    }
    let (bottom, top) = (model.bottom.params_mut(), model.top.params_mut());
    for v in bottom.iter_mut().chain(top) {
        *v = r.f32()?;
    }

    let n_tables = r.u64()? as usize;
    if n_tables != model.tables.len() {
        return Err(SyncError::msg("table count mismatch"));
    }
    for table in &mut model.tables {
        let rows = r.u64()?;
        let dim = r.u64()? as usize;
        if rows != table.num_rows() || dim != table.dim() {
            return Err(SyncError::msg("table shape mismatch"));
        }
        let mut row = vec![0.0f32; dim];
        for i in 0..rows {
            for v in row.iter_mut() {
                *v = r.f32()?;
            }
            table.write_row(i, &row);
        }
    }
    Ok(())
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SyncError> {
        if self.pos + n > self.buf.len() {
            return Err(SyncError::msg("checkpoint truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SyncError> {
        Ok(u32::from_le_bytes(
            // lint: allow(panic) — take(4) returns exactly 4 bytes
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SyncError> {
        Ok(u64::from_le_bytes(
            // lint: allow(panic) — take(8) returns exactly 8 bytes
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f32(&mut self) -> Result<f32, SyncError> {
        Ok(f32::from_le_bytes(
            // lint: allow(panic) — take(4) returns exactly 4 bytes
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01B3)
    })
}

/// Dense tensor equality helper for tests (bitwise).
#[must_use]
pub fn tensors_equal(a: &Tensor2, b: &Tensor2) -> bool {
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::reference_model;
    use neo_dataio::{SyntheticConfig, SyntheticDataset};
    use neo_dlrm_model::DlrmConfig;

    fn model() -> DlrmModel {
        reference_model(&DlrmConfig::tiny(2, 50, 4), 3).unwrap()
    }

    #[test]
    fn roundtrip_restores_exactly() {
        let ds = SyntheticDataset::new(SyntheticConfig::uniform(2, 50, 3, 4)).unwrap();
        let probe = ds.batch(8, 0);
        let mut m = model();
        // perturb so we're not restoring the deterministic init
        let logits0 = m.forward(&probe).unwrap();
        let (_, g) = neo_dlrm_model::bce_with_logits(&logits0, &probe.labels).unwrap();
        m.backward(&g).unwrap();
        m.dense_sgd_step(0.1);

        let want = m.forward_inference(&probe).unwrap();
        let bytes = save(&mut m);

        let mut fresh = model();
        assert_ne!(fresh.forward_inference(&probe).unwrap(), want);
        load(&mut fresh, &bytes).unwrap();
        assert_eq!(
            fresh.forward_inference(&probe).unwrap(),
            want,
            "bitwise restore"
        );
    }

    #[test]
    fn corruption_detected() {
        let mut m = model();
        let mut bytes = save(&mut m);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(load(&mut model(), &bytes).is_err());
    }

    #[test]
    fn truncation_detected() {
        let mut m = model();
        let bytes = save(&mut m);
        assert!(load(&mut model(), &bytes[..bytes.len() / 2]).is_err());
        assert!(load(&mut model(), &[]).is_err());
    }

    #[test]
    fn architecture_mismatch_detected() {
        let mut m = model();
        let bytes = save(&mut m);
        let mut other = reference_model(&DlrmConfig::tiny(3, 50, 4), 3).unwrap();
        assert!(load(&mut other, &bytes).is_err());
    }
}
