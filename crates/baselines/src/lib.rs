#![warn(missing_docs)]

//! # esh-baselines — the comparison systems of the paper's evaluation
//!
//! * [`tracy`] — a tracelet-based syntactic matcher in the style of
//!   TRACY (David & Yahav, PLDI 2014), the "TRACY (Ratio-70)" column of
//!   Table 2;
//! * [`bindiff`] — a structural whole-library matcher in the style of
//!   zynamics BinDiff, the subject of Table 3.

pub mod bindiff;
pub mod tracy;

pub use bindiff::{feature_similarity, features, match_libraries, Features, PairMatch};
pub use tracy::{tracelet_similarity, tracelets, tracy_similarity, RATIO_70};
