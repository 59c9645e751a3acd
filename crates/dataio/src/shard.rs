//! File-backed dataset shards — the local stand-in for the Tectonic
//! network store (§2, Fig. 6).
//!
//! Production training streams serialized batches from a distributed
//! filesystem through the ingestion tier. This module provides the same
//! interface at laptop scale: [`ShardWriter`] serializes combined-format
//! batches into a compact binary shard file with a checksummed footer;
//! [`ShardReader`] memory-loads the index and streams batches back, and
//! plugs straight into [`crate::reader::PrefetchReader`] for overlapped
//! ingestion.
//!
//! Format (little-endian):
//!
//! ```text
//! magic u32 | version u32 | batch... | index | index_off u64 | fnv u64
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use neo_tensor::Tensor2;

use crate::batch::{BatchError, CombinedBatch};

const MAGIC: u32 = 0x4E44_5348; // "NDSH"
const VERSION: u32 = 1;

fn err(msg: impl Into<String>) -> BatchError {
    BatchError::new(msg)
}

fn io_err(e: std::io::Error) -> BatchError {
    err(format!("shard io: {e}"))
}

/// Writes combined-format batches into a shard file.
///
/// # Example
///
/// ```
/// use neo_dataio::shard::{ShardReader, ShardWriter};
/// use neo_dataio::{SyntheticConfig, SyntheticDataset};
///
/// let dir = std::env::temp_dir().join("neo_dlrm_doc_shard");
/// std::fs::create_dir_all(&dir).unwrap();
/// let path = dir.join("doc.shard");
/// let ds = SyntheticDataset::new(SyntheticConfig::uniform(2, 100, 3, 4)).unwrap();
///
/// let mut w = ShardWriter::create(&path).unwrap();
/// for k in 0..3 {
///     w.append(&ds.batch(16, k)).unwrap();
/// }
/// w.finish().unwrap();
///
/// let mut r = ShardReader::open(&path).unwrap();
/// assert_eq!(r.num_batches(), 3);
/// assert_eq!(r.read_batch(1).unwrap(), ds.batch(16, 1));
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug)]
pub struct ShardWriter {
    out: BufWriter<File>,
    offsets: Vec<u64>,
    pos: u64,
    hash: u64,
}

impl ShardWriter {
    /// Creates (truncates) a shard file.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] on I/O failure.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, BatchError> {
        let file = File::create(path).map_err(io_err)?;
        let mut w = Self {
            out: BufWriter::new(file),
            offsets: Vec::new(),
            pos: 0,
            hash: 0xCBF2_9CE4_8422_2325,
        };
        w.write_u32(MAGIC)?;
        w.write_u32(VERSION)?;
        Ok(w)
    }

    /// Appends one batch.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] on I/O failure.
    pub fn append(&mut self, batch: &CombinedBatch) -> Result<(), BatchError> {
        self.offsets.push(self.pos);
        self.write_u64(batch.batch_size() as u64)?;
        self.write_u64(batch.num_tables() as u64)?;
        self.write_u64(batch.dense.cols() as u64)?;
        self.write_u64(batch.indices().len() as u64)?;
        for &l in batch.lengths() {
            self.write_u32(l)?;
        }
        for &i in batch.indices() {
            self.write_u64(i)?;
        }
        for &v in batch.dense.as_slice() {
            self.write_bytes(&v.to_le_bytes())?;
        }
        for &l in &batch.labels {
            self.write_bytes(&l.to_le_bytes())?;
        }
        Ok(())
    }

    /// Writes the index and checksummed footer and flushes.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] on I/O failure.
    pub fn finish(mut self) -> Result<(), BatchError> {
        let index_off = self.pos;
        let offsets = std::mem::take(&mut self.offsets);
        self.write_u64(offsets.len() as u64)?;
        for off in offsets {
            self.write_u64(off)?;
        }
        self.write_u64(index_off)?;
        let hash = self.hash;
        // footer checksum covers everything written so far
        self.out.write_all(&hash.to_le_bytes()).map_err(io_err)?;
        self.out.flush().map_err(io_err)?;
        Ok(())
    }

    fn write_bytes(&mut self, b: &[u8]) -> Result<(), BatchError> {
        self.out.write_all(b).map_err(io_err)?;
        self.pos += b.len() as u64;
        for &byte in b {
            self.hash = (self.hash ^ byte as u64).wrapping_mul(0x1000_0000_01B3);
        }
        Ok(())
    }

    fn write_u32(&mut self, v: u32) -> Result<(), BatchError> {
        self.write_bytes(&v.to_le_bytes())
    }

    fn write_u64(&mut self, v: u64) -> Result<(), BatchError> {
        self.write_bytes(&v.to_le_bytes())
    }
}

/// Reads batches back from a shard file.
#[derive(Debug)]
pub struct ShardReader {
    file: BufReader<File>,
    offsets: Vec<u64>,
}

impl ShardReader {
    /// Opens a shard, verifying magic, version and footer checksum.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] on corruption or I/O failure.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, BatchError> {
        let mut raw = File::open(&path).map_err(io_err)?;
        // verify the checksum over the whole body
        let mut body = Vec::new();
        raw.read_to_end(&mut body).map_err(io_err)?;
        if body.len() < 8 + 8 + 8 + 8 {
            return Err(err("shard too short"));
        }
        let (payload, tail) = body.split_at(body.len() - 8);
        #[expect(clippy::expect_used, reason = "split_at leaves exactly 8 bytes")]
        let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        let computed = payload.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01B3)
        });
        if stored != computed {
            return Err(err("shard checksum mismatch"));
        }
        #[expect(
            clippy::expect_used,
            reason = "4-byte slice converts to [u8; 4] infallibly"
        )]
        let magic = u32::from_le_bytes(payload[0..4].try_into().expect("4"));
        if magic != MAGIC {
            return Err(err("bad shard magic"));
        }
        #[expect(
            clippy::expect_used,
            reason = "4-byte slice converts to [u8; 4] infallibly"
        )]
        let version = u32::from_le_bytes(payload[4..8].try_into().expect("4"));
        if version != VERSION {
            return Err(err("unsupported shard version"));
        }
        // index: [.. index .. index_off][fnv]; all offsets are absolute
        // file positions (the header is part of the hashed stream)
        let index_off = u64::from_le_bytes(
            #[expect(clippy::expect_used, reason = "8-byte slice, length checked above")]
            payload[payload.len() - 8..].try_into().expect("8 bytes"),
        ) as usize;
        if index_off + 8 > payload.len() {
            return Err(err("shard index out of range"));
        }
        #[expect(clippy::expect_used, reason = "bounds checked above")]
        let n =
            u64::from_le_bytes(payload[index_off..index_off + 8].try_into().expect("8")) as usize;
        let mut offsets = Vec::with_capacity(n);
        let mut pos = index_off + 8;
        for _ in 0..n {
            if pos + 8 > payload.len() {
                return Err(err("truncated shard index"));
            }
            offsets.push(u64::from_le_bytes(
                #[expect(clippy::expect_used, reason = "bounds checked by the guard above")]
                payload[pos..pos + 8].try_into().expect("8"),
            ));
            pos += 8;
        }
        let file = BufReader::new(File::open(path).map_err(io_err)?);
        Ok(Self { file, offsets })
    }

    /// Number of batches stored.
    pub fn num_batches(&self) -> usize {
        self.offsets.len()
    }

    /// Reads batch `k`.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] if `k` is out of range or the record is
    /// malformed.
    pub fn read_batch(&mut self, k: usize) -> Result<CombinedBatch, BatchError> {
        let off = *self
            .offsets
            .get(k)
            .ok_or_else(|| err(format!("batch {k} out of range")))?;
        self.file.seek(SeekFrom::Start(off)).map_err(io_err)?;
        let b = self.read_u64()? as usize;
        let t = self.read_u64()? as usize;
        let dense_dim = self.read_u64()? as usize;
        let n_idx = self.read_u64()? as usize;
        // basic sanity before allocating
        if b > 1 << 24 || t > 1 << 20 || dense_dim > 1 << 20 || n_idx > 1 << 30 {
            return Err(err("implausible shard record header"));
        }
        let mut lengths = Vec::with_capacity(b * t);
        for _ in 0..b * t {
            lengths.push(self.read_u32()?);
        }
        let mut indices = Vec::with_capacity(n_idx);
        for _ in 0..n_idx {
            indices.push(self.read_u64()?);
        }
        let mut dense = vec![0.0f32; b * dense_dim];
        for v in dense.iter_mut() {
            *v = self.read_f32()?;
        }
        let mut labels = vec![0.0f32; b];
        for v in labels.iter_mut() {
            *v = self.read_f32()?;
        }
        CombinedBatch::new(
            b,
            t,
            lengths,
            indices,
            Tensor2::from_vec(b, dense_dim, dense).map_err(|e| err(e.to_string()))?,
            labels,
        )
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), BatchError> {
        self.file.read_exact(buf).map_err(io_err)
    }

    fn read_u32(&mut self) -> Result<u32, BatchError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn read_u64(&mut self) -> Result<u64, BatchError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn read_f32(&mut self) -> Result<f32, BatchError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(f32::from_le_bytes(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticConfig, SyntheticDataset};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("neo_dlrm_shard_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::new(SyntheticConfig::uniform(3, 200, 4, 5)).unwrap()
    }

    #[test]
    fn roundtrip_preserves_batches() {
        let path = tmp("roundtrip.shard");
        let ds = dataset();
        let batches: Vec<_> = (0..5).map(|k| ds.batch(32, k)).collect();
        let mut w = ShardWriter::create(&path).unwrap();
        for b in &batches {
            w.append(b).unwrap();
        }
        w.finish().unwrap();

        let mut r = ShardReader::open(&path).unwrap();
        assert_eq!(r.num_batches(), 5);
        for (k, want) in batches.iter().enumerate() {
            assert_eq!(&r.read_batch(k).unwrap(), want, "batch {k}");
        }
        // random access, out of order
        assert_eq!(r.read_batch(3).unwrap(), batches[3]);
        assert_eq!(r.read_batch(0).unwrap(), batches[0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_detected() {
        let path = tmp("corrupt.shard");
        let ds = dataset();
        let mut w = ShardWriter::create(&path).unwrap();
        w.append(&ds.batch(16, 0)).unwrap();
        w.finish().unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        std::fs::write(&path, &bytes).unwrap();
        assert!(ShardReader::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_detected() {
        let path = tmp("trunc.shard");
        let ds = dataset();
        let mut w = ShardWriter::create(&path).unwrap();
        w.append(&ds.batch(16, 0)).unwrap();
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(ShardReader::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_batch_errors() {
        let path = tmp("oob.shard");
        let ds = dataset();
        let mut w = ShardWriter::create(&path).unwrap();
        w.append(&ds.batch(8, 0)).unwrap();
        w.finish().unwrap();
        let mut r = ShardReader::open(&path).unwrap();
        assert!(r.read_batch(1).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_shard_roundtrips() {
        let path = tmp("empty.shard");
        ShardWriter::create(&path).unwrap().finish().unwrap();
        let r = ShardReader::open(&path).unwrap();
        assert_eq!(r.num_batches(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streams_through_prefetch_reader() {
        // the production shape: disk shard -> background reader -> trainer
        let path = tmp("stream.shard");
        let ds = dataset();
        let batches: Vec<_> = (0..8).map(|k| ds.batch(16, k)).collect();
        let mut w = ShardWriter::create(&path).unwrap();
        for b in &batches {
            w.append(b).unwrap();
        }
        w.finish().unwrap();

        let mut shard = ShardReader::open(&path).unwrap();
        let n = shard.num_batches() as u64;
        let mut reader = crate::reader::PrefetchReader::spawn(n, 2, move |k| {
            shard.read_batch(k as usize).expect("shard read")
        });
        let mut got = Vec::new();
        while let Some(b) = reader.next_batch() {
            got.push(b);
        }
        assert_eq!(got, batches);
        std::fs::remove_file(&path).unwrap();
    }
}
