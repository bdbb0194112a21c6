#![warn(missing_docs)]

//! # esh-serve — the serving layer
//!
//! A long-running query daemon over the similarity engine: load a corpus
//! and the engine over it — built in memory or opened from a sharded
//! `.eshx` index — once, then answer many queries
//! concurrently behind a *bounded* admission queue. The paper frames Esh
//! as a search engine over binaries (§1); this crate supplies the
//! missing operational half — admission control, per-request deadlines,
//! live metrics and graceful drain — using only `std::net`, because the
//! build environment is offline.
//!
//! The wire protocol is newline-delimited JSON over *pipelined*
//! connections — any number of requests per socket, responses in
//! request order ([`protocol`]) — with a minimal HTTP/1.1 shim on the
//! same port for `GET /healthz` and `GET /metrics` ([`server`]).
//! Between admission and the engine sits a coalescing tier that collects
//! concurrent requests for a bounded window and scores each batch in one
//! shared `query_batch` pass. Load, latency and batch occupancy are
//! observable via [`metrics`]; `esh bench-serve` ([`bench`]) drives a
//! loopback load test whose acceptance property is that concurrent —
//! and batched — responses are *byte-identical* to offline `esh query`
//! rankings.
//!
//! ## Quickstart
//!
//! ```
//! use esh_corpus::{Corpus, CorpusConfig};
//! use esh_core::{EngineConfig, SimilarityEngine};
//! use esh_serve::protocol::{remote_query, QueryRequest};
//! use esh_serve::server::{ServeConfig, Server};
//!
//! // A tiny corpus and its engine, targets in corpus order.
//! let corpus = Corpus::build(&CorpusConfig {
//!     distractors: 0,
//!     template_family: 0,
//!     wrappers: false,
//!     patched_versions: false,
//!     toolchains: vec![esh_cc::Toolchain::paper_matrix()[2]],
//!     ..CorpusConfig::default()
//! });
//! let mut engine = SimilarityEngine::new(EngineConfig { threads: 1, ..EngineConfig::default() });
//! for p in &corpus.procs {
//!     engine.add_target(p.display(), &p.proc_);
//! }
//!
//! let server = Server::start(engine, corpus, ServeConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServeConfig::default()
//! }).unwrap();
//! let addr = server.local_addr().to_string();
//!
//! let resp = remote_query(&addr, &QueryRequest::new("wget"),
//!                         std::time::Duration::from_secs(30)).unwrap();
//! assert!(!resp.matches.is_empty());
//! server.shutdown();
//! ```

pub mod bench;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use metrics::{ServerStats, StatsSnapshot};
pub use protocol::{
    decode_line, encode_line, http_get, ranked_matches, remote_query, Outcome, PipelinedClient,
    QueryRequest, QueryResponse, RankedMatch,
};
pub use server::{ServeConfig, Server};
