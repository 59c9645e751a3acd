//! Offline stand-in for the `serde` crate.
//!
//! Exposes `Serialize`/`Deserialize` as empty marker traits together with
//! the no-op derives from the vendored `serde_derive`, so the seed
//! sources' `#[derive(Serialize, Deserialize)]` annotations compile
//! without network access. No serialization machinery is provided — the
//! workspace's on-disk formats (checkpoints, results JSON) are
//! hand-rolled.

pub use serde_derive::{Deserialize, Serialize};

/// Marker standing in for `serde::Serialize`.
pub trait Serialize {}

/// Marker standing in for `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}
