#![warn(missing_docs)]

//! # esh-core — statistical similarity of binary procedures
//!
//! The paper's primary contribution: strand-level semantic comparison
//! (VCP, Definition 3 / Algorithm 2) lifted into whole-procedure
//! similarity through a statistical model (sigmoid likelihood, local and
//! global evidence scores — Equations 1–5), with the §5.5 engineering that
//! makes verifier-based comparison tractable (input-only correspondence
//! enumeration, single-query resolution of non-input matches, strand
//! deduplication, size filters, parallelism).
//!
//! The three scoring modes mirror the paper's ablation (§6.2):
//! [`ScoringMode::SVcp`] (no statistics), [`ScoringMode::SLog`]
//! (statistics, no sigmoid) and [`ScoringMode::Esh`] (the full method).
//!
//! The engine is a persistent service component: the `esh-index` crate
//! writes its corpus state to a sharded `.eshx` index (from
//! [`SimilarityEngine::export_corpus`]) and reopens it lazily through
//! [`SimilarityEngine::from_lazy_parts`], and verifier results are
//! memoized across queries in a sharded [`VcpCache`]. See
//! `docs/ARCHITECTURE.md` for the full data-flow and the on-disk format
//! specification.
//!
//! # Examples
//!
//! Build a corpus and query it — a repeated query is answered from the
//! cross-query cache with identical scores:
//!
//! ```
//! use esh_cc::{Compiler, Vendor, VendorVersion};
//! use esh_core::{EngineConfig, SimilarityEngine};
//! use esh_minic::demo;
//!
//! let f = demo::saturating_sum();
//! let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9)).compile_function(&f);
//! let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5)).compile_function(&f);
//!
//! let mut engine = SimilarityEngine::new(EngineConfig::default());
//! engine.add_target("clang-build", &clang);
//!
//! let a = engine.query(&gcc);
//! let b = engine.query(&gcc);
//! assert_eq!(a.scores[0].ges, b.scores[0].ges);
//! assert!(engine.cache_stats().hits > 0);
//! ```
//!
//! Compare one strand pair directly with [`vcp_pair`]:
//!
//! ```
//! use esh_core::{vcp_pair, VcpConfig};
//! use esh_ivl::lift;
//! use esh_verifier::VerifierSession;
//!
//! let p = esh_asm::parse_proc("proc p\nentry:\nmov r12, rbx\nlea rdi, [r12+0x3]").unwrap();
//! let q = esh_asm::parse_proc("proc q\nentry:\nmov r13, rbx\nlea rcx, [r13+0x3]").unwrap();
//! let sp = lift("p", &p.blocks[0].insts);
//! let sq = lift("q", &q.blocks[0].insts);
//! let config = VcpConfig { min_strand_vars: 1, ..VcpConfig::default() };
//! let mut session = VerifierSession::new();
//! let v = vcp_pair(&mut session, &sp, &sq, &config);
//! assert_eq!(v.q_in_t, 1.0); // same computation, different registers
//! ```

mod cache;
mod engine;
pub mod prefilter;
mod shard;
mod stats;
mod vcp;

pub use cache::{CacheStats, VcpCache, VcpCacheEntry, VcpKey};
pub use engine::{
    BatchQuery, CancelToken, EngineConfig, Query, QueryError, QueryScores, SimilarityEngine,
    TargetId, TargetScore,
};
pub use esh_solver::{EquivStats, SolverPerf};
pub use prefilter::{
    bounds_decision, compute_probe_sketch, compute_sketch, PrefilterConfig, PrefilterStats,
    PrefilterStatsSnapshot, SemanticSketch, SketchDecision, SketchIndex,
};
pub use shard::{
    ClassExport, CorpusExport, LazyClassMeta, ShardError, ShardRecords, ShardSource, ShardSpec,
    ShardStats, TargetExport,
};
pub use stats::{ges, les, likelihood, H0Accumulator, ScoringMode, SIGMOID_K, SIGMOID_MIDPOINT};
pub use vcp::{size_ratio_ok, vcp_pair, VcpConfig, VcpPair};
