//! The DLRM model itself: dense features through a bottom MLP, sparse
//! features through pooled embedding lookups, pairwise dot-product feature
//! interaction, and a top MLP producing the CTR logit (Fig. 9 of the
//! paper / the reference DLRM architecture of [Naumov et al. 2019]).
//!
//! * [`model::DlrmModel`] — a single-device reference implementation with
//!   full forward/backward; the distributed trainer is verified against it
//!   bit-for-bit.
//! * [`interaction`] — the dot-product feature-interaction operator and its
//!   gradient.
//! * [`loss`] — binary cross-entropy on logits and the *normalized
//!   entropy* metric the paper evaluates model quality with (Fig. 10).
//! * [`zoo`] — the production model profiles of Table 3 (A1, A2, A3, F1)
//!   with their parameter/FLOP accounting, plus scaled-down functional
//!   variants for laptop-scale training.

#![deny(missing_docs)]

pub mod interaction;
pub mod loss;
pub mod model;
pub mod zoo;

pub use loss::{bce_with_logits, Auc, NormalizedEntropy};
pub use model::{DlrmConfig, DlrmModel, EmbTableCfg};
pub use zoo::ModelProfile;
