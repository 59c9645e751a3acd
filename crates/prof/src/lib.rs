//! `neo-prof` — the analysis layer over [`neo_telemetry`] timelines.
//!
//! PR 2 made the trainer emit per-rank span timelines; this crate *reads*
//! them, closing the observability loop the paper's performance story
//! needs (Fig. 10/14): which phase on which rank bounds wall-clock, how
//! much communication is exposed vs. overlapped, and which ranks straggle.
//!
//! * [`merge`] — fold a [`neo_telemetry::Snapshot`] into a cross-rank,
//!   per-iteration view of leaf spans.
//! * [`critical`] — walk-back critical-path attribution: every nanosecond
//!   of an iteration's wall-clock is charged to exactly one `(rank,
//!   phase)` segment (or to idle when no rank has a leaf span open).
//! * [`skew`] — per-rank p50/p95 per phase, max-over-ranks vs. mean, and
//!   the top-k skewed phases (the §4.2 load-imbalance lens).
//! * [`exposed`] — measured exposed-communication accounting: per rank,
//!   comm intervals on any lane minus the cover of that rank's compute.
//! * [`report`] — the human-readable roll-up the quickstart prints.

pub mod critical;
pub mod exposed;
pub mod merge;
pub mod report;
pub mod skew;

pub use critical::{critical_path, CriticalPath, Segment, IDLE};
pub use exposed::{exposed_comm, ExposedComm};
pub use merge::MergedTimeline;
pub use report::{analyze, ProfReport};
pub use skew::{phase_skew, PhaseSkew, RankPhaseStats};
