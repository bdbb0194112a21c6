#![warn(missing_docs)]

//! # esh — statistical similarity of binaries
//!
//! A from-scratch Rust reproduction of *"Statistical Similarity of
//! Binaries"* (David, Partush, Yahav — PLDI 2016), including every substrate
//! the paper's pipeline depends on: an x86-64 subset model, a synthetic
//! multi-vendor compiler standing in for gcc/CLang/icc, an SSA intermediate
//! verification language and lifter, strand extraction, a bitvector
//! equivalence verifier (normalization + CDCL SAT), the Esh statistical
//! similarity engine, baselines (S-VCP, S-LOG, TRACY, BinDiff-like), a
//! corpus builder and the ROC/CROC evaluation harness — plus a serving
//! layer (`esh serve`) that answers queries concurrently over TCP.
//!
//! This crate is a facade that re-exports the workspace members.
//!
//! ## Quickstart
//!
//! ```
//! use esh::prelude::*;
//!
//! // Compile the same MiniC function with two different "vendors".
//! let src = esh::minic::demo::saturating_sum();
//! let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9)).compile_function(&src);
//! let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5)).compile_function(&src);
//!
//! // Score their similarity with Esh.
//! let config = EngineConfig::default();
//! let mut engine = SimilarityEngine::new(config);
//! let t = engine.add_target("clang-build", &clang);
//! let scores = engine.query(&gcc);
//! assert_eq!(scores.ranked()[0].target, t);
//! ```

pub mod bench_rankquality;
pub mod bench_scale;

pub use esh_asm as asm;
pub use esh_baselines as baselines;
pub use esh_cc as cc;
pub use esh_core as core;
pub use esh_corpus as corpus;
pub use esh_eval as eval;
pub use esh_index as index;
pub use esh_ivl as ivl;
pub use esh_minic as minic;
pub use esh_serve as serve;
pub use esh_solver as solver;
pub use esh_strands as strands;
pub use esh_verifier as verifier;

/// Commonly used items, re-exported for one-line imports.
pub mod prelude {
    pub use esh_asm::{Procedure, Program};
    pub use esh_cc::{Compiler, OptLevel, Vendor, VendorVersion};
    pub use esh_core::{EngineConfig, ScoringMode, SimilarityEngine};
    pub use esh_corpus::{Corpus, CorpusBuilder};
    pub use esh_eval::{croc_auc, roc_auc};
    pub use esh_strands::extract_proc_strands;
}
