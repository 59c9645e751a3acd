//! Analytical performance model: the roofline of §5.1 (Eq. 1), the
//! operator-level benchmark models of Appendix A, and the experiment
//! calculators behind Table 1/4 and Figures 11–20.
//!
//! The real evaluation ran on 128 V100s; we recover the *performance*
//! numbers with the same method the paper itself uses to sanity-check its
//! system — an analytical roofline fed by measured component rates:
//!
//! * [`device`] — V100/A100 device profiles (peak and achievable rates the
//!   paper reports in §5.1: 850/1300 GB/s HBM, 78.6%/70.5% GEMM
//!   efficiency);
//! * [`gemm`] / [`mlpbench`] / [`embbench`] — the Appendix-A operator
//!   benchmarks (Figures 14–19) as closed-form models;
//! * [`iteration`] — Eq. 1: per-iteration latency from component latencies
//!   with the paper's overlap semantics, giving Table 4, Fig. 11 (scaling),
//!   Fig. 12 (serialized vs exposed breakdown) and Fig. 13 (optimization
//!   waterfall);
//! * [`capacity`] — the §5.3.3 model-F1 capacity arithmetic (96 TB → 24 TB
//!   → fits);
//! * [`baseline`] — the distributed-CPU parameter-server throughput model
//!   behind the 3×/40× headline comparisons.

#![deny(missing_docs)]

pub mod baseline;
pub mod capacity;
pub mod device;
pub mod embbench;
pub mod gemm;
pub mod iteration;
pub mod mlpbench;
pub mod timeline;

pub use device::DeviceProfile;
pub use iteration::{IterationBreakdown, IterationModel, ModelScenario};
