//! The similarity engine: query a procedure against a target corpus.
//!
//! Pipeline per §3.1: decompose into strands → lift to IVL → (dedup by
//! structural hash, prefilter by semantic signature) → VCP via the
//! verifier → sigmoid likelihood → LES against the corpus-wide H0 →
//! GES per target. Pairwise comparison is embarrassingly parallel (§5.5);
//! the engine distributes (query strand × class range) tiles over a
//! work-stealing queue and memoizes verifier results in a cross-query
//! [`VcpCache`]. Corpus state persists as a sharded `.eshx` index
//! (the `esh-index` crate), built from [`SimilarityEngine::export_corpus`]
//! and reopened through [`SimilarityEngine::from_lazy_parts`].

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use esh_asm::Procedure;
use esh_ivl::Proc;
use esh_solver::{EquivConfig, SolverPerf};
use esh_strands::{
    extract_proc_strands, lift_strand, semantic_signature, stable_hash64, structural_hash,
    Signature,
};
use esh_verifier::VerifierSession;
use serde::{Deserialize, Serialize};

use crate::cache::{CacheStats, VcpCache, VcpCacheEntry};
use crate::prefilter::{
    bounds_decision, calibrated_margin, compute_probe_sketch, compute_sketch, MarginCalibration,
    MarginSample, PrefilterConfig, PrefilterStats, PrefilterStatsSnapshot, SemanticSketch,
    SketchDecision, SketchIndex,
};
use crate::shard::{
    ClassExport, CorpusExport, LazyClassMeta, LazyShards, ShardBandSummary, ShardError,
    ShardProcRef, ShardSource, ShardSpec, ShardStats, ShardTouch, TargetExport,
};
use crate::stats::{ges, les, likelihood, H0Accumulator, ScoringMode};
use crate::vcp::{size_ratio_ok, vcp_pair, VcpConfig, VcpPair};

/// Decomposition granularity — the §3.2 design axis. Strands (block-level
/// backward slices) are the paper's choice; whole basic blocks are the
/// coarser alternative its "extended graphlets" discussion contrasts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Granularity {
    /// Algorithm 1 strands (the paper's unit).
    Strands,
    /// One unit per basic block.
    WholeBlocks,
}

/// Engine configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Decomposition granularity (§3.2).
    pub granularity: Granularity,
    /// VCP search tuning (§5.5 thresholds).
    pub vcp: VcpConfig,
    /// Verifier budgets.
    pub equiv: EquivConfig,
    /// Enable the semantic-signature prefilter (exactness-preserving upper
    /// bound; see `esh-strands`).
    pub prefilter: bool,
    /// Pairs whose signature overlap bound is below this skip verification
    /// (0.5 matches the paper's minimum-VCP filter).
    pub prefilter_threshold: f64,
    /// The semantic-sketch prefilter tier (concrete-execution fingerprints
    /// and banded LSH; see [`crate::prefilter`]). `None` reproduces the
    /// pre-sketch engine exactly, fingerprint included.
    pub sketch: Option<PrefilterConfig>,
    /// Worker threads (0 = use available parallelism).
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            granularity: Granularity::Strands,
            vcp: VcpConfig::default(),
            equiv: EquivConfig::default(),
            prefilter: true,
            prefilter_threshold: 0.5,
            sketch: Some(PrefilterConfig::default()),
            threads: 0,
        }
    }
}

impl EngineConfig {
    /// Stable digest of every scoring-relevant knob. Two engines with the
    /// same fingerprint produce identical scores for identical corpora, so
    /// indexes and caches key on it. `threads` only changes scheduling,
    /// never results, and is deliberately excluded.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |field: u64| {
            for b in field.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        mix(match self.granularity {
            Granularity::Strands => 1,
            Granularity::WholeBlocks => 2,
        });
        mix(self.vcp.fingerprint());
        mix(self.equiv.fingerprint());
        mix(u64::from(self.prefilter));
        mix(self.prefilter_threshold.to_bits());
        // Mixed only when present so configs without a sketch tier keep
        // the fingerprint they had before the tier existed.
        if let Some(sketch) = &self.sketch {
            mix(sketch.fingerprint());
        }
        h
    }

    /// The sketch-prefilter parameters when the tier is configured *and*
    /// switched on.
    pub fn active_sketch(&self) -> Option<&PrefilterConfig> {
        self.sketch.as_ref().filter(|s| s.enabled)
    }
}

/// Identifies a target in the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TargetId(pub usize);

/// One deduplicated strand shape.
#[derive(Debug, Clone)]
pub(crate) struct StrandClass {
    pub(crate) proc_: Proc,
    pub(crate) signature: Signature,
    pub(crate) vars: usize,
    /// Structural hash — the dedup key, kept so an index can rebuild the
    /// hash index and the VCP cache can key on it without re-hashing.
    pub(crate) hash: u64,
    /// Total occurrences across the whole corpus (drives H0).
    pub(crate) corpus_count: u64,
    /// Semantic sketch under the configured [`PrefilterConfig`]. `None`
    /// when the tier was off at build time; missing sketches are rebuilt
    /// lazily on the first sketch-enabled query.
    pub(crate) sketch: Option<SemanticSketch>,
}

#[derive(Debug, Clone)]
pub(crate) struct TargetRecord {
    pub(crate) name: String,
    /// `(class index, occurrences in this target)`.
    pub(crate) strands: Vec<(usize, u64)>,
    pub(crate) basic_blocks: usize,
}

/// A prepared query strand.
#[derive(Debug)]
struct QueryStrand {
    proc_: Proc,
    signature: Signature,
    sketch: Option<SemanticSketch>,
    vars: usize,
    hash: u64,
    count: u64,
}

/// Per-strand artifacts memoized across one batch of queries (keyed by
/// structural hash): both are pure functions of the lifted strand.
#[derive(Debug, Clone)]
struct PreparedStrand {
    signature: Signature,
    sketch: Option<SemanticSketch>,
}

/// One query in a [`SimilarityEngine::query_batch`] call: the procedure
/// to score plus its own cancellation token. Tokens are per-item so one
/// expired deadline abandons only its own query — the rest of the batch
/// keeps running.
#[derive(Debug)]
pub struct BatchQuery<'a> {
    /// The procedure to score against the corpus.
    pub proc_: &'a Procedure,
    /// Cancellation/deadline handle for this item alone.
    pub cancel: CancelToken,
}

/// The score of one target for one query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TargetScore {
    /// Target identity.
    pub target: TargetId,
    /// Target name (ground-truth bookkeeping only).
    pub name: String,
    /// Full-method GES (Equation 1).
    pub ges: f64,
    /// S-LOG ablation score (statistics without the sigmoid).
    pub s_log: f64,
    /// S-VCP ablation score (no statistics).
    pub s_vcp: f64,
}

impl TargetScore {
    /// The score under `mode`.
    pub fn score(&self, mode: ScoringMode) -> f64 {
        match mode {
            ScoringMode::Esh => self.ges,
            ScoringMode::SLog => self.s_log,
            ScoringMode::SVcp => self.s_vcp,
        }
    }
}

/// All per-target scores for one query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryScores {
    /// One entry per target, in insertion order.
    pub scores: Vec<TargetScore>,
    /// Number of *deduplicated* query strand classes that participated
    /// (after §5.5 filtering). Each class is counted once regardless of
    /// how many times it occurs in the query procedure.
    pub query_strands: usize,
    /// Total query strand occurrences behind those classes — the weight
    /// mass the GES sum runs over.
    pub query_strand_occurrences: usize,
}

impl QueryScores {
    /// Targets sorted by descending GES.
    pub fn ranked(&self) -> Vec<&TargetScore> {
        self.ranked_by(ScoringMode::Esh)
    }

    /// Targets sorted by descending score under `mode`. Exact score ties
    /// break by ascending [`TargetId`]: `sort_by` is stable but upstream
    /// callers (serving layer, benches) compare rankings across engines
    /// whose score vectors were built independently, so the order must be
    /// a pure function of the scores themselves.
    pub fn ranked_by(&self, mode: ScoringMode) -> Vec<&TargetScore> {
        let mut v: Vec<&TargetScore> = self.scores.iter().collect();
        v.sort_by(|a, b| {
            b.score(mode)
                .partial_cmp(&a.score(mode))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.target.cmp(&b.target))
        });
        v
    }

    /// Min-max normalized GES per target (the scale of Figure 5).
    pub fn normalized(&self) -> Vec<(TargetId, f64)> {
        let min = self
            .scores
            .iter()
            .map(|s| s.ges)
            .fold(f64::INFINITY, f64::min);
        let max = self
            .scores
            .iter()
            .map(|s| s.ges)
            .fold(f64::NEG_INFINITY, f64::max);
        let span = (max - min).max(1e-12);
        self.scores
            .iter()
            .map(|s| (s.target, (s.ges - min) / span))
            .collect()
    }
}

/// Cooperative cancellation handle for [`SimilarityEngine::query_cancellable`].
///
/// A token combines an explicit flag (set by [`CancelToken::cancel`], e.g.
/// on server shutdown) with an optional wall-clock deadline. The engine's
/// VCP workers poll it between tiles, so a cancelled query stops issuing
/// verifier work within one tile's latency instead of running to
/// completion. Clones share the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires on its own (cancel it explicitly).
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Requests cancellation; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once cancelled explicitly or past the deadline. A deadline
    /// trip latches the shared flag so later polls skip the clock read.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.flag.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// Error returned when a query is abandoned via its [`CancelToken`]
/// (deadline passed or cancelled explicitly) before scoring finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCancelled;

impl fmt::Display for QueryCancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("query cancelled before completion")
    }
}

impl std::error::Error for QueryCancelled {}

/// Why a query failed: abandoned via its [`CancelToken`], or a
/// lazily-backed shard it needed could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query's cancel token fired (deadline passed or cancelled
    /// explicitly) before scoring finished.
    Cancelled,
    /// A backing shard is corrupted or unreadable; the error names the
    /// shard (and, for file-backed indexes, its path). Other shards keep
    /// serving — only queries touching this shard fail.
    Corrupted(ShardError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Cancelled => QueryCancelled.fmt(f),
            QueryError::Corrupted(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<QueryCancelled> for QueryError {
    fn from(_: QueryCancelled) -> QueryError {
        QueryError::Cancelled
    }
}

impl From<ShardError> for QueryError {
    fn from(e: ShardError) -> QueryError {
        QueryError::Corrupted(e)
    }
}

/// A borrowed-or-pinned reference to a class procedure: resident classes
/// borrow straight from the engine, shard-backed classes pin their
/// shard's payload (keeping it alive across evictions). Dereferences to
/// [`Proc`].
enum ClassProcRef<'a> {
    Resident(&'a Proc),
    Shared(ShardProcRef),
}

impl std::ops::Deref for ClassProcRef<'_> {
    type Target = Proc;

    fn deref(&self) -> &Proc {
        match self {
            ClassProcRef::Resident(p) => p,
            ClassProcRef::Shared(r) => r,
        }
    }
}

/// The similarity engine. Add targets once, query many times.
///
/// The corpus can be persisted as a sharded `.eshx` index (the
/// `esh-index` crate's `write_sharded`, fed by
/// [`SimilarityEngine::export_corpus`]) and reopened lazily; repeated
/// queries reuse verifier results through the cross-query [`VcpCache`]
/// (see [`SimilarityEngine::cache_stats`]).
///
/// ```
/// use esh_cc::{Compiler, Vendor, VendorVersion};
/// use esh_core::{EngineConfig, SimilarityEngine};
/// use esh_minic::demo;
///
/// let f = demo::saturating_sum();
/// let gcc = Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9)).compile_function(&f);
/// let clang = Compiler::new(Vendor::Clang, VendorVersion::new(3, 5)).compile_function(&f);
/// let mut engine = SimilarityEngine::new(EngineConfig::default());
/// let t = engine.add_target("clang-build", &clang);
/// let scores = engine.query(&gcc);
/// assert_eq!(scores.ranked()[0].target, t);
/// ```
#[derive(Debug)]
pub struct SimilarityEngine {
    config: EngineConfig,
    classes: Vec<StrandClass>,
    class_by_hash: HashMap<u64, usize>,
    targets: Vec<TargetRecord>,
    cache: VcpCache,
    /// Idle verifier sessions, checked out one per worker thread so term
    /// pools, verdict caches, and the incremental solver survive across
    /// queries — not just across one query's tiles.
    sessions: Mutex<Vec<VerifierSession>>,
    solver: SolverCounters,
    prefilter_stats: PrefilterStats,
    /// Banded LSH index over the corpus classes' sketches, built lazily on
    /// the first sketch-enabled query (so classes without persisted
    /// sketches just rebuild them) and dropped whenever the corpus
    /// changes.
    sketch_index: Mutex<Option<Arc<SketchIndex>>>,
    /// Lazy backing store when the engine was opened from a sharded
    /// `.eshx` index: class procedures and per-segment cache entries load on
    /// first use. `None` for fully resident engines.
    shards: Option<LazyShards>,
}

/// Engine-lifetime SAT counters aggregated across worker sessions.
/// Mirrors [`SolverPerf`] with atomic fields; pure counters add, the
/// retained-learnts gauge takes the max over sessions.
#[derive(Debug, Default)]
struct SolverCounters {
    sat_queries: AtomicU64,
    blast_cache_hits: AtomicU64,
    blast_cache_misses: AtomicU64,
    conflicts: AtomicU64,
    sat_time_ns: AtomicU64,
    retained_learnts: AtomicU64,
    learnts_dropped: AtomicU64,
    solver_resets: AtomicU64,
}

impl SolverCounters {
    fn add(&self, d: &SolverPerf) {
        self.sat_queries.fetch_add(d.sat_queries, Ordering::Relaxed);
        self.blast_cache_hits
            .fetch_add(d.blast_cache_hits, Ordering::Relaxed);
        self.blast_cache_misses
            .fetch_add(d.blast_cache_misses, Ordering::Relaxed);
        self.conflicts.fetch_add(d.conflicts, Ordering::Relaxed);
        self.sat_time_ns.fetch_add(d.sat_time_ns, Ordering::Relaxed);
        self.retained_learnts
            .fetch_max(d.retained_learnts, Ordering::Relaxed);
        self.learnts_dropped
            .fetch_add(d.learnts_dropped, Ordering::Relaxed);
        self.solver_resets
            .fetch_add(d.solver_resets, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SolverPerf {
        SolverPerf {
            sat_queries: self.sat_queries.load(Ordering::Relaxed),
            blast_cache_hits: self.blast_cache_hits.load(Ordering::Relaxed),
            blast_cache_misses: self.blast_cache_misses.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            sat_time_ns: self.sat_time_ns.load(Ordering::Relaxed),
            retained_learnts: self.retained_learnts.load(Ordering::Relaxed),
            learnts_dropped: self.learnts_dropped.load(Ordering::Relaxed),
            solver_resets: self.solver_resets.load(Ordering::Relaxed),
        }
    }
}

impl SimilarityEngine {
    /// Creates an engine.
    pub fn new(config: EngineConfig) -> SimilarityEngine {
        SimilarityEngine {
            config,
            classes: Vec::new(),
            class_by_hash: HashMap::new(),
            targets: Vec::new(),
            cache: VcpCache::new(),
            sessions: Mutex::new(Vec::new()),
            solver: SolverCounters::default(),
            prefilter_stats: PrefilterStats::default(),
            sketch_index: Mutex::new(None),
            shards: None,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Hit/miss/size counters of the cross-query VCP cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Zeroes the cache hit/miss counters (memoized entries are kept).
    pub fn reset_cache_counters(&self) {
        self.cache.reset_counters()
    }

    /// Aggregate SAT-solver counters across all worker sessions this
    /// engine has run (CNF-cache hits, conflicts, wall time, clause
    /// retention — see [`SolverPerf`]).
    pub fn solver_stats(&self) -> SolverPerf {
        self.solver.snapshot()
    }

    /// Engine-lifetime counters of the semantic-sketch prefilter tier
    /// (pairs priced without the solver, LSH band collisions, margin
    /// fallbacks).
    pub fn prefilter_stats(&self) -> PrefilterStatsSnapshot {
        self.prefilter_stats.snapshot()
    }

    /// Switches the sketch prefilter tier on or off for subsequent
    /// queries (the `esh query --no-prefilter` escape hatch). Enabling it
    /// on an engine configured without the tier installs the default
    /// [`PrefilterConfig`]; note both directions change the config
    /// fingerprint, since pruned pairs carry estimated VCP values.
    pub fn set_prefilter_enabled(&mut self, enabled: bool) {
        match &mut self.config.sketch {
            Some(sketch) => sketch.enabled = enabled,
            None if enabled => self.config.sketch = Some(PrefilterConfig::default()),
            None => {}
        }
        *self.sketch_index.get_mut().expect("sketch index poisoned") = None;
    }

    /// Every memoized VCP-cache entry, sorted by key — what the
    /// sharded-index writer segments.
    pub fn cache_entries(&self) -> Vec<VcpCacheEntry> {
        self.cache.entries()
    }

    /// The lifted procedure of class `ci`, pulling its shard into memory
    /// (again, if evicted) on demand when the engine is lazily backed.
    ///
    /// Panics when the backing shard is corrupted — cold paths (corpus
    /// export, sketch builds, calibration) have no error channel. The
    /// query hot path runs the fallible [`Self::ensure_class_shard`]
    /// before any cell touches the shard, so corruption surfaces there as
    /// a typed [`QueryError`] first.
    fn class_proc(&self, ci: usize) -> ClassProcRef<'_> {
        match &self.shards {
            Some(lazy) if ci < lazy.class_limit() => ClassProcRef::Shared(
                lazy.proc_ref(ci, &self.cache)
                    .unwrap_or_else(|e| panic!("{e}")),
            ),
            _ => ClassProcRef::Resident(&self.classes[ci].proc_),
        }
    }

    /// Fallible twin of [`Self::class_proc`] for the query hot path:
    /// under per-record demand decoding a corrupt record is only
    /// discovered when its class is first decoded — which happens *here*,
    /// at proc-need time, not at shard open — so the sites that feed the
    /// verifier must surface the checksum error as a typed
    /// [`QueryError::Corrupted`] instead of panicking.
    fn class_proc_checked(&self, ci: usize) -> Result<ClassProcRef<'_>, ShardError> {
        match &self.shards {
            Some(lazy) if ci < lazy.class_limit() => {
                Ok(ClassProcRef::Shared(lazy.proc_ref(ci, &self.cache)?))
            }
            _ => Ok(ClassProcRef::Resident(&self.classes[ci].proc_)),
        }
    }

    /// Opens class `ci`'s shard (bringing its persisted cache segment
    /// with it) and returns the shard index, or `None` when the class is
    /// resident. Must run before the first counted cache lookup touching
    /// `ci` — the open-before-lookup invariant that keeps sharded
    /// hit/miss counters identical to a fully resident engine's. (The
    /// invariant survives eviction: a reopen re-inserts the same segment
    /// idempotently before the next counted lookup.) Procedure records
    /// are *not* decoded here: that happens per class at proc-need time
    /// via [`Self::class_proc_checked`], after the counted lookup — the
    /// decode-before-lookup rule degenerates to decode-*on-miss*, which
    /// is safe because a decode never touches a counter.
    fn ensure_class_shard(&self, ci: usize) -> Result<Option<usize>, ShardError> {
        match &self.shards {
            Some(lazy) if ci < lazy.class_limit() => {
                let shard = lazy.shard_of_class(ci);
                lazy.ensure_loaded(shard, &self.cache)?;
                Ok(Some(shard))
            }
            _ => Ok(None),
        }
    }

    /// Sets the resident-bytes budget for lazily-loaded shards (0 =
    /// unbounded): least-recently-used shards are evicted — and reloaded
    /// on the next touch — to keep resident payload bytes at or under
    /// the budget. No effect on fully resident engines.
    pub fn set_shard_budget(&self, bytes: u64) {
        if let Some(lazy) = &self.shards {
            lazy.set_budget(bytes);
        }
    }

    /// Installs per-shard band summaries enabling whole-shard pruning at
    /// query time (see [`ShardBandSummary`]). `summaries` must have one
    /// entry per shard.
    ///
    /// # Errors
    ///
    /// Fails when the engine is not shard-backed or the length does not
    /// match the shard count.
    pub fn set_shard_band_summaries(
        &mut self,
        summaries: Vec<ShardBandSummary>,
    ) -> Result<(), String> {
        match &mut self.shards {
            Some(lazy) => {
                if summaries.len() != lazy.shard_count() {
                    return Err(format!(
                        "{} band summaries for {} shards",
                        summaries.len(),
                        lazy.shard_count()
                    ));
                }
                lazy.summaries = Some(summaries);
                Ok(())
            }
            None => Err("engine is not backed by a sharded index".into()),
        }
    }

    /// Shard counters: total/loaded shard counts and query fan-out. All
    /// zero for fully resident engines.
    pub fn shard_stats(&self) -> ShardStats {
        self.shards.as_ref().map_or_else(ShardStats::default, |l| l.stats())
    }

    /// Dumps the whole corpus — config, materialized classes, targets,
    /// sorted cache entries — for the sharded-index writer. On a lazily
    /// backed engine this loads every shard.
    pub fn export_corpus(&self) -> CorpusExport {
        CorpusExport {
            config: self.config.clone(),
            classes: self
                .classes
                .iter()
                .enumerate()
                .map(|(i, c)| ClassExport {
                    name: c.proc_.name.clone(),
                    proc_: self.class_proc(i).clone(),
                    signature: c.signature.clone(),
                    vars: c.vars,
                    hash: c.hash,
                    corpus_count: c.corpus_count,
                    sketch: c.sketch.clone(),
                })
                .collect(),
            targets: self
                .targets
                .iter()
                .map(|t| TargetExport {
                    name: t.name.clone(),
                    strands: t.strands.clone(),
                    basic_blocks: t.basic_blocks,
                })
                .collect(),
            cache: self.cache.entries(),
        }
    }

    /// Builds an engine over a lazily-loaded sharded backing store: class
    /// pricing metadata and targets are resident, procedures and
    /// per-segment cache entries come from `source` on demand.
    /// `eager_cache` holds entries that belong to no shard (defensive;
    /// normally empty) — they are resident from the start.
    ///
    /// Validates that `specs` tile both index spaces contiguously from
    /// zero, that class hashes are unique, and that target strand
    /// references are in range.
    pub fn from_lazy_parts(
        config: EngineConfig,
        classes: Vec<LazyClassMeta>,
        targets: Vec<TargetExport>,
        specs: Vec<ShardSpec>,
        source: Box<dyn ShardSource>,
        eager_cache: Vec<VcpCacheEntry>,
    ) -> Result<SimilarityEngine, String> {
        let mut class_cursor = 0usize;
        let mut target_cursor = 0usize;
        for (i, s) in specs.iter().enumerate() {
            if s.class_start != class_cursor || s.target_start != target_cursor {
                return Err(format!("shard {i} does not tile contiguously"));
            }
            if s.class_end < s.class_start || s.target_end < s.target_start {
                return Err(format!("shard {i} has an inverted range"));
            }
            class_cursor = s.class_end;
            target_cursor = s.target_end;
        }
        if class_cursor != classes.len() || target_cursor != targets.len() {
            return Err(format!(
                "shards cover {class_cursor} classes / {target_cursor} targets, \
                 index has {} / {}",
                classes.len(),
                targets.len()
            ));
        }
        let mut class_by_hash = HashMap::with_capacity(classes.len());
        for (i, c) in classes.iter().enumerate() {
            if class_by_hash.insert(c.hash, i).is_some() {
                return Err("duplicate strand-class hashes".into());
            }
        }
        for t in &targets {
            if t.strands.iter().any(|&(ci, _)| ci >= classes.len()) {
                return Err(format!("target `{}` references a class out of range", t.name));
            }
        }
        let classes = classes
            .into_iter()
            .map(|c| StrandClass {
                // Placeholder body; every code path that needs the real
                // procedure goes through `class_proc`. The name is kept so
                // diagnostics (`common_classes`) stay useful without a
                // shard load.
                proc_: Proc::new(c.name),
                signature: c.signature,
                vars: c.vars,
                hash: c.hash,
                corpus_count: c.corpus_count,
                sketch: c.sketch,
            })
            .collect();
        let targets = targets
            .into_iter()
            .map(|t| TargetRecord {
                name: t.name,
                strands: t.strands,
                basic_blocks: t.basic_blocks,
            })
            .collect();
        Ok(SimilarityEngine {
            config,
            classes,
            class_by_hash,
            targets,
            cache: VcpCache::from_entries(&eager_cache),
            sessions: Mutex::new(Vec::new()),
            solver: SolverCounters::default(),
            prefilter_stats: PrefilterStats::default(),
            sketch_index: Mutex::new(None),
            shards: Some(LazyShards::new(specs, source)),
        })
    }

    /// Number of targets.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Number of deduplicated strand classes across the corpus.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Name of a target.
    pub fn target_name(&self, id: TargetId) -> &str {
        &self.targets[id.0].name
    }

    /// Decomposes a procedure according to the configured granularity.
    fn decompose(&self, proc_: &Procedure) -> Vec<esh_strands::Strand> {
        match self.config.granularity {
            Granularity::Strands => extract_proc_strands(proc_),
            Granularity::WholeBlocks => proc_
                .blocks
                .iter()
                .map(|b| esh_strands::Strand {
                    block: b.label.clone(),
                    indices: (0..b.insts.len()).collect(),
                    insts: b.insts.clone(),
                    inputs: Vec::new(),
                })
                .collect(),
        }
    }

    /// Adds a target procedure, returning its id.
    pub fn add_target(&mut self, name: impl Into<String>, proc_: &Procedure) -> TargetId {
        let mut per_class: HashMap<usize, u64> = HashMap::new();
        for strand in self.decompose(proc_) {
            let lifted = lift_strand(&strand);
            let vars = lifted.vars.len();
            if vars < self.config.vcp.min_strand_vars {
                continue;
            }
            let h = structural_hash(&lifted);
            let idx = match self.class_by_hash.get(&h) {
                Some(&i) => i,
                None => {
                    let signature = semantic_signature(&lifted);
                    let sketch = self
                        .config
                        .active_sketch()
                        .map(|cfg| compute_sketch(&lifted, cfg));
                    let i = self.classes.len();
                    self.classes.push(StrandClass {
                        proc_: lifted,
                        signature,
                        vars,
                        hash: h,
                        corpus_count: 0,
                        sketch,
                    });
                    self.class_by_hash.insert(h, i);
                    i
                }
            };
            self.classes[idx].corpus_count += 1;
            *per_class.entry(idx).or_default() += 1;
        }
        // New classes invalidate the lazily-built LSH index.
        *self.sketch_index.get_mut().expect("sketch index poisoned") = None;
        let id = TargetId(self.targets.len());
        // Canonical class order: S-VCP sums floats over this list, so it
        // must not inherit HashMap iteration order — two engines built
        // from the same corpus would otherwise disagree by ULPs (and
        // indexes would not be byte-reproducible).
        let mut strands: Vec<(usize, u64)> = per_class.into_iter().collect();
        strands.sort_unstable_by_key(|&(class, _)| class);
        self.targets.push(TargetRecord {
            name: name.into(),
            strands,
            basic_blocks: proc_.blocks.len(),
        });
        id
    }

    /// Basic-block count recorded for a target.
    pub fn target_basic_blocks(&self, id: TargetId) -> usize {
        self.targets[id.0].basic_blocks
    }

    /// The most common strand classes in the corpus — the H0 mass the
    /// statistical layer discounts (§6.2: compiler-generated strands such
    /// as `push REG` prologues appear "unusually frequently" and carry no
    /// evidence). Returns `(corpus_count, variable_count, display)` for
    /// the `top` most frequent classes.
    pub fn common_classes(&self, top: usize) -> Vec<(u64, usize, String)> {
        let mut out: Vec<(u64, usize, String)> = self
            .classes
            .iter()
            .map(|c| (c.corpus_count, c.vars, c.proc_.name.clone()))
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.0));
        out.truncate(top);
        out
    }

    /// Decomposes, lifts, and dedups one query procedure into canonical
    /// strand order, with a cross-query strand memo. Signatures and
    /// sketches are pure functions of the lifted strand, so a strand
    /// shared by several batch items — or already indexed as a corpus
    /// class, the common case when queries come from the served corpus —
    /// is prepared exactly once per batch instead of once per occurrence.
    fn prepare_query_memo(
        &self,
        proc_: &Procedure,
        memo: &mut HashMap<u64, PreparedStrand>,
    ) -> Vec<QueryStrand> {
        let mut by_hash: HashMap<u64, QueryStrand> = HashMap::new();
        for strand in self.decompose(proc_) {
            let lifted = lift_strand(&strand);
            let vars = lifted.vars.len();
            if vars < self.config.vcp.min_strand_vars {
                continue;
            }
            let h = structural_hash(&lifted);
            if let Some(qs) = by_hash.get_mut(&h) {
                qs.count += 1;
                continue;
            }
            let prep = match memo.get(&h) {
                Some(p) => p.clone(),
                None => {
                    let p = self.prepare_strand(h, &lifted);
                    memo.insert(h, p.clone());
                    p
                }
            };
            by_hash.insert(
                h,
                QueryStrand {
                    signature: prep.signature,
                    sketch: prep.sketch,
                    proc_: lifted,
                    vars,
                    hash: h,
                    count: 1,
                },
            );
        }
        // Canonical order: HashMap iteration is seeded per instance, and
        // the GES sum runs over query strands — float addition must happen
        // in one fixed order or identical queries drift by ULPs between
        // runs (and between the daemon and the one-shot CLI).
        let mut strands: Vec<QueryStrand> = by_hash.into_values().collect();
        strands.sort_by_key(|s| s.hash);
        strands
    }

    /// Signature + sketch for one query strand. When the strand is
    /// already a corpus class (equal structural hash — the same identity
    /// the dedup and cache layers rely on), the class's stored artifacts
    /// are reused instead of recomputed; both are pure functions of the
    /// lifted strand, so the values are identical either way.
    fn prepare_strand(&self, h: u64, lifted: &Proc) -> PreparedStrand {
        let class = self.class_by_hash.get(&h).map(|&i| &self.classes[i]);
        let signature = match class {
            Some(c) => c.signature.clone(),
            None => semantic_signature(lifted),
        };
        let sketch = self.config.active_sketch().map(|cfg| {
            match class.and_then(|c| c.sketch.as_ref()) {
                Some(s) => s.clone(),
                None => compute_sketch(lifted, cfg),
            }
        });
        PreparedStrand { signature, sketch }
    }

    /// Returns the banded LSH index over the corpus sketches, building it
    /// on first use. Classes missing a persisted sketch (targets added
    /// while the tier was off) are sketched here, paying the sketching
    /// cost once, on the first prefilter-enabled query.
    fn ensure_sketch_index(&self) -> Option<Arc<SketchIndex>> {
        let cfg = self.config.active_sketch()?;
        let mut slot = self.sketch_index.lock().expect("sketch index poisoned");
        if slot.is_none() {
            let sketches = self
                .classes
                .iter()
                .enumerate()
                .map(|(i, c)| match &c.sketch {
                    Some(s) => s.clone(),
                    // Missing sketches (a sharded index written without
                    // the tier) rebuild from the real procedure — on a
                    // lazily backed engine this loads the class's shard.
                    None => compute_sketch(&self.class_proc(i), cfg),
                })
                .collect();
            *slot = Some(Arc::new(SketchIndex::build(sketches, cfg)));
        }
        slot.clone()
    }

    /// Classes per work-stealing tile. Small enough that a tile of
    /// expensive verifier calls cannot straggle the whole matrix, large
    /// enough that queue contention on the atomic cursor is negligible.
    const VCP_TILE: usize = 32;

    /// A verifier session whose term pool has grown past this many terms
    /// is dropped at query end instead of returned to the session pool.
    const SESSION_TERM_CAP: usize = 2_000_000;

    /// Checks a verifier session out of the engine-owned pool so its term
    /// pool, verdict cache, and incremental solver stay warm across
    /// queries — not just across one query's tiles.
    fn checkout_session(&self) -> VerifierSession {
        self.sessions
            .lock()
            .expect("session pool poisoned")
            .pop()
            .unwrap_or_else(|| VerifierSession::with_config(self.config.equiv))
    }

    /// Returns a session for later queries unless its term pool outgrew
    /// the cap — past that point the memory cost outweighs what the warm
    /// caches save.
    fn return_session(&self, session: VerifierSession) {
        if session.pool().len() <= Self::SESSION_TERM_CAP {
            self.sessions
                .lock()
                .expect("session pool poisoned")
                .push(session);
        }
    }

    /// Computes the VCP matrices `query strand × corpus class` for a whole
    /// batch of prepared queries in one shared pass.
    ///
    /// Work is distributed dynamically: the flattened `(batch item, query
    /// strand, class-range)` tile space is consumed through one atomic
    /// cursor, so workers that land on cheap tiles (size-ratio or
    /// prefilter rejections, cache hits) immediately steal more instead of
    /// idling behind a static split — and tiles of different batch items
    /// interleave freely. Results for pairs that reach the verifier are
    /// memoized in the cross-query [`VcpCache`]. Cancellation stays
    /// per-item: a cancelled item's remaining tiles are skipped while the
    /// rest of the batch keeps computing; its partial matrix is discarded
    /// by the caller.
    /// On a lazily backed engine the same pass is the **fan-out** step:
    /// the flat tile space already spans every shard's class range, a
    /// pair that survives pricing pulls its shard (procedures + cache
    /// segment) into memory via [`ensure_class_shard`]
    /// (Self::ensure_class_shard), and `touched` records which `(item,
    /// shard)` pairs were consulted. The final row copy-back below is the
    /// merge step — because shards partition the class index space in
    /// order, it concatenates per-shard submatrices into exactly the
    /// matrix a resident engine computes, bit for bit.
    fn vcp_matrix_batch(
        &self,
        queries: &[Option<Vec<QueryStrand>>],
        cancels: &[&CancelToken],
        touched: &ShardTouch,
    ) -> (Vec<Vec<Vec<VcpPair>>>, Vec<Option<ShardError>>) {
        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            self.config.threads
        };
        let nc = self.classes.len();
        let mut matrices: Vec<Vec<Vec<VcpPair>>> = queries
            .iter()
            .map(|q| vec![vec![VcpPair::default(); nc]; q.as_ref().map_or(0, |q| q.len())])
            .collect();
        let tiles_per_query = nc.div_ceil(Self::VCP_TILE);
        // Tile-space offsets per batch item: item `b` owns the global
        // tiles `[offsets[b], offsets[b + 1])`. Cancelled-at-prepare items
        // (`None`) own zero tiles.
        let mut offsets = Vec::with_capacity(queries.len() + 1);
        offsets.push(0usize);
        for q in queries {
            let nq = q.as_ref().map_or(0, |q| q.len());
            offsets.push(offsets.last().unwrap() + nq * tiles_per_query);
        }
        let total_tiles = *offsets.last().unwrap();
        // Per-item shard-failure latch: the first corrupted-shard error an
        // item hits is kept, the item's remaining tiles are skipped, and
        // the caller fails that item alone — neighbours keep computing.
        let shard_errors: Vec<std::sync::OnceLock<ShardError>> =
            (0..queries.len()).map(|_| std::sync::OnceLock::new()).collect();
        if total_tiles == 0 || nc == 0 {
            let errors = shard_errors.into_iter().map(|l| l.into_inner()).collect();
            return (matrices, errors);
        }
        let queries_ref = &queries;
        let offsets = &offsets;
        let cursor = AtomicUsize::new(0);
        let vcp_fp = self.config.vcp.fingerprint();
        let workers = threads.max(1).min(total_tiles);
        // Sketch tier context, resolved once before the workers spawn: the
        // LSH index over corpus sketches, one candidate mask per query
        // strand of every item (mask[ci] = class ci shares a band → exact
        // verify), and one batch-wide cache of probe sketches keyed by
        // structural hash — ambiguous pairs re-sketch per *strand*, not
        // per pair, so each side is probed at most once per batch no
        // matter how many ambiguous pairs (or batch items) it
        // participates in.
        struct SketchCtx {
            index: Arc<SketchIndex>,
            masks: Vec<Vec<Option<Vec<bool>>>>,
            margin: f64,
            window: f64,
            cfg: PrefilterConfig,
            probes: Mutex<HashMap<u64, Arc<SemanticSketch>>>,
        }
        impl SketchCtx {
            /// The cached probe sketch for the strand hashed `key`,
            /// computing it under the cache lock on first use (serializing
            /// duplicate computes is cheaper than racing the concrete
            /// evaluation). `compute` is fallible so a corrupted shard on
            /// the class side surfaces instead of panicking — and runs
            /// only on a cache miss, preserving shard-load laziness.
            fn probed(
                &self,
                key: u64,
                compute: impl FnOnce() -> Result<SemanticSketch, ShardError>,
            ) -> Result<Arc<SemanticSketch>, ShardError> {
                let mut map = self.probes.lock().expect("probe cache poisoned");
                match map.get(&key) {
                    Some(s) => Ok(s.clone()),
                    None => {
                        let s = Arc::new(compute()?);
                        map.insert(key, s.clone());
                        Ok(s)
                    }
                }
            }
        }
        let sketch_ctx: Option<SketchCtx> = self.ensure_sketch_index().map(|index| {
            let masks = queries
                .iter()
                .map(|q| {
                    q.as_ref().map_or_else(Vec::new, |q| {
                        q.iter()
                            .map(|s| s.sketch.as_ref().map(|s| index.candidates(s)))
                            .collect()
                    })
                })
                .collect();
            let cfg = self
                .config
                .active_sketch()
                .cloned()
                .unwrap_or_default();
            SketchCtx {
                index,
                masks,
                margin: cfg.exact_fallback_margin,
                window: cfg.probe_window(),
                cfg,
                probes: Mutex::new(HashMap::new()),
            }
        });
        let sketch_ctx = &sketch_ctx;
        // Whole-shard pruning (sub-linear fan-out): when the index shipped
        // per-shard band summaries, decide per `(item, shard)` — before
        // any per-cell work — whether every cell of the shard is provably
        // sketch-pruned ([`ShardBandSummary::can_skip`]). Skipped cells
        // stay at `VcpPair::default()`, exactly the value the per-cell
        // Prune path leaves, so matrices, H0 and scores are byte-identical
        // to the full fan-out; only the pricing CPU (and the prefilter
        // observability counters) are saved. The proof needs every strand
        // of the item sketched and `margin > window`; anything else keeps
        // the full fan-out.
        let shard_skip: Option<(Vec<u32>, Vec<Vec<bool>>)> =
            self.shards.as_ref().and_then(|lazy| {
                let summaries = lazy.summaries.as_ref()?;
                let ctx = sketch_ctx.as_ref()?;
                if ctx.margin <= ctx.window {
                    return None;
                }
                let limit = lazy.class_limit();
                let class_shard: Vec<u32> =
                    (0..limit).map(|ci| lazy.shard_of_class(ci) as u32).collect();
                let skip: Vec<Vec<bool>> = queries
                    .iter()
                    .map(|q| {
                        let all_sketched = q
                            .as_ref()
                            .is_some_and(|q| q.iter().all(|s| s.sketch.is_some()));
                        if !all_sketched {
                            return vec![false; summaries.len()];
                        }
                        let strands = q.as_ref().expect("checked above");
                        let keys: Vec<Vec<u64>> = strands
                            .iter()
                            .map(|s| {
                                s.sketch
                                    .as_ref()
                                    .expect("checked above")
                                    .band_keys(ctx.cfg.bands, ctx.cfg.rows)
                            })
                            .collect();
                        summaries
                            .iter()
                            .map(|sum| {
                                strands.iter().zip(&keys).all(|(s, k)| {
                                    sum.can_skip(
                                        s.sketch.as_ref().expect("checked above"),
                                        k,
                                        ctx.margin,
                                        ctx.window,
                                    )
                                })
                            })
                            .collect()
                    })
                    .collect();
                let pruned: u64 = skip
                    .iter()
                    .map(|row| row.iter().filter(|&&s| s).count() as u64)
                    .sum();
                lazy.add_pruned(pruned);
                Some((class_shard, skip))
            });
        let shard_skip = &shard_skip;
        // Demand-decode fan-out planner: before the tile workers start,
        // sweep the (item, strand, class) space with the *cheap* pricing
        // filters only — whole-shard prune, LSH candidate mask, size
        // ratio, signature overlap — and pre-decode the surviving
        // classes whose memoized verdict is not already cached, spread
        // across the same worker pool the tiles use. Purely an
        // optimization: the plan is conservative (a class it misses
        // decodes on demand inside its tile; a class it over-includes
        // wastes one decode), a decode never touches a VCP counter, and
        // decode errors are swallowed here so the authoritative tile
        // pass latches the typed corruption error for exactly the items
        // that touch the bad record.
        if let Some(lazy) = &self.shards {
            let limit = lazy.class_limit().min(nc);
            let mut plan: Vec<(usize, Vec<u64>)> = Vec::new();
            for ci in 0..limit {
                let class = &self.classes[ci];
                let mut hashes: Vec<u64> = Vec::new();
                for (b, q) in queries_ref.iter().enumerate() {
                    let Some(query) = q else { continue };
                    if cancels[b].is_cancelled() {
                        continue;
                    }
                    if let Some((class_shard, skip)) = shard_skip {
                        if ci < class_shard.len() && skip[b][class_shard[ci] as usize] {
                            continue;
                        }
                    }
                    for (qi, qs) in query.iter().enumerate() {
                        if !size_ratio_ok(&self.config.vcp, qs.vars, class.vars) {
                            continue;
                        }
                        if self.config.prefilter {
                            let fwd = qs.signature.overlap_bound(&class.signature);
                            let bwd = class.signature.overlap_bound(&qs.signature);
                            if fwd < self.config.prefilter_threshold
                                && bwd < self.config.prefilter_threshold
                            {
                                continue;
                            }
                        }
                        if let Some(ctx) = sketch_ctx {
                            if let (Some(mask), Some(_)) = (&ctx.masks[b][qi], &qs.sketch) {
                                if !mask[ci] {
                                    continue;
                                }
                            }
                        }
                        if !hashes.contains(&qs.hash) {
                            hashes.push(qs.hash);
                        }
                    }
                }
                if !hashes.is_empty() {
                    plan.push((ci, hashes));
                }
            }
            if !plan.is_empty() {
                let plan = &plan;
                let plan_cursor = AtomicUsize::new(0);
                let decode_workers = workers.min(plan.len());
                std::thread::scope(|scope| {
                    for _ in 0..decode_workers {
                        let plan_cursor = &plan_cursor;
                        scope.spawn(move || loop {
                            let i = plan_cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&(ci, ref hashes)) = plan.get(i) else { break };
                            let shard = lazy.shard_of_class(ci);
                            if lazy.ensure_loaded(shard, &self.cache).is_err() {
                                continue;
                            }
                            let ch = self.classes[ci].hash;
                            if hashes
                                .iter()
                                .any(|&qh| self.cache.peek(&(qh, ch, vcp_fp)).is_none())
                            {
                                let _ = lazy.proc_ref(ci, &self.cache);
                            }
                        });
                    }
                });
            }
        }
        let shard_errors_ref = &shard_errors;
        let tiles: Vec<(usize, usize, usize, Vec<VcpPair>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let config = &self.config;
                    let classes = &self.classes;
                    let cache = &self.cache;
                    let solver = &self.solver;
                    let prefilter_stats = &self.prefilter_stats;
                    scope.spawn(move || {
                        let mut session = self.checkout_session();
                        let perf0 = session.stats().solver;
                        let mut out: Vec<(usize, usize, usize, Vec<VcpPair>)> = Vec::new();
                        loop {
                            let tile = cursor.fetch_add(1, Ordering::Relaxed);
                            if tile >= total_tiles {
                                break;
                            }
                            // Decode (item, strand, class-range) from the
                            // flat tile id.
                            let b = offsets.partition_point(|&o| o <= tile) - 1;
                            // Poll cancellation (and the shard-failure
                            // latch) between tiles: a timed-out, abandoned
                            // or corruption-failed item stops issuing
                            // verifier work within one tile's latency
                            // while the rest of the batch keeps going.
                            if cancels[b].is_cancelled() || shard_errors_ref[b].get().is_some() {
                                continue;
                            }
                            let local = tile - offsets[b];
                            let qi = local / tiles_per_query;
                            let start = (local % tiles_per_query) * Self::VCP_TILE;
                            let end = (start + Self::VCP_TILE).min(nc);
                            let query: &[QueryStrand] =
                                queries_ref[b].as_ref().expect("tiles only for live items");
                            let q = &query[qi];
                            let mut row = vec![VcpPair::default(); end - start];
                            for (k, class) in classes[start..end].iter().enumerate() {
                                let ci = start + k;
                                // Whole-shard prune: provably equivalent to
                                // the per-cell Prune below, decided without
                                // touching the class.
                                if let Some((class_shard, skip)) = shard_skip {
                                    if ci < class_shard.len()
                                        && skip[b][class_shard[ci] as usize]
                                    {
                                        continue;
                                    }
                                }
                                if !size_ratio_ok(&config.vcp, q.vars, class.vars) {
                                    continue;
                                }
                                if config.prefilter {
                                    let fwd = q.signature.overlap_bound(&class.signature);
                                    let bwd = class.signature.overlap_bound(&q.signature);
                                    if fwd < config.prefilter_threshold
                                        && bwd < config.prefilter_threshold
                                    {
                                        continue;
                                    }
                                }
                                // Sketch tier pricing. Every pair is priced
                                // by its containment bounds: both below the
                                // margin drops the pair to the zero pair,
                                // same as a legacy-signature rejection
                                // above (sound: the bounds never
                                // underestimate VCP, so no pair at or above
                                // the margin is ever skipped — and a
                                // below-margin pair contributes the
                                // no-evidence likelihood floor rather than
                                // an inflated estimate). Bounds inside the
                                // ambiguity window around the margin
                                // re-sketch both strands on extra probe
                                // vectors and re-apply the margin to the
                                // refined bounds; anything else goes to the
                                // exact verifier. An LSH band collision is
                                // recorded for observability; under the
                                // pre-probe rule (no ambiguity window) a
                                // collision still forces exact
                                // verification, while staged pricing lets
                                // the margin prune spurious band matches
                                // too (a true same-source pair has bound
                                // 1.0 and always verifies either way).
                                if let Some(ctx) = sketch_ctx {
                                    if let (Some(mask), Some(qs)) = (&ctx.masks[b][qi], &q.sketch) {
                                        let collided = mask[ci];
                                        if collided {
                                            prefilter_stats.record_collision();
                                        }
                                        if !collided || ctx.window > 0.0 {
                                            let ts = ctx.index.sketch(ci);
                                            let c_q = qs.containment_in(ts);
                                            let c_t = ts.containment_in(qs);
                                            match bounds_decision(
                                                c_q, c_t, ctx.margin, ctx.window,
                                            ) {
                                                SketchDecision::Prune => {
                                                    prefilter_stats.record_pruned();
                                                    continue;
                                                }
                                                SketchDecision::Probe => {
                                                    prefilter_stats.record_probe();
                                                    let pair = ctx
                                                        .probed(q.hash, || {
                                                            Ok(compute_probe_sketch(
                                                                &q.proc_, &ctx.cfg,
                                                            ))
                                                        })
                                                        .and_then(|pq| {
                                                            let pt = ctx.probed(class.hash, || {
                                                                if let Some(s) =
                                                                    self.ensure_class_shard(ci)?
                                                                {
                                                                    touched.mark(b, s);
                                                                }
                                                                let tp =
                                                                    self.class_proc_checked(ci)?;
                                                                Ok(compute_probe_sketch(
                                                                    &tp, &ctx.cfg,
                                                                ))
                                                            })?;
                                                            Ok((pq, pt))
                                                        });
                                                    let (pq, pt) = match pair {
                                                        Ok(p) => p,
                                                        Err(e) => {
                                                            let _ = shard_errors_ref[b].set(e);
                                                            continue;
                                                        }
                                                    };
                                                    let r_q = pq.containment_in(&pt);
                                                    let r_t = pt.containment_in(&pq);
                                                    if r_q < ctx.margin && r_t < ctx.margin {
                                                        prefilter_stats.record_pruned();
                                                        continue;
                                                    }
                                                    prefilter_stats.record_probe_escalation();
                                                    prefilter_stats.record_fallback();
                                                }
                                                SketchDecision::Exact => {
                                                    prefilter_stats.record_fallback();
                                                }
                                            }
                                        }
                                    }
                                }
                                // The pair survived pricing: open its
                                // shard *before* the counted lookup so the
                                // persisted cache segment can answer it
                                // (open-before-lookup invariant). The
                                // class record itself is only decoded on a
                                // miss — a cache hit never pays the
                                // decode.
                                match self.ensure_class_shard(ci) {
                                    Ok(Some(s)) => touched.mark(b, s),
                                    Ok(None) => {}
                                    Err(e) => {
                                        let _ = shard_errors_ref[b].set(e);
                                        continue;
                                    }
                                }
                                let key = (q.hash, class.hash, vcp_fp);
                                row[k] = match cache.get(&key) {
                                    Some(v) => v,
                                    None => {
                                        let tproc = match self.class_proc_checked(ci) {
                                            Ok(p) => p,
                                            Err(e) => {
                                                let _ = shard_errors_ref[b].set(e);
                                                continue;
                                            }
                                        };
                                        let v = vcp_pair(
                                            &mut session,
                                            &q.proc_,
                                            &tproc,
                                            &config.vcp,
                                        );
                                        cache.insert(key, v);
                                        v
                                    }
                                };
                            }
                            out.push((b, qi, start, row));
                        }
                        solver.add(&session.stats().solver.delta_since(&perf0));
                        self.return_session(session);
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        for (b, qi, start, row) in tiles {
            matrices[b][qi][start..start + row.len()].copy_from_slice(&row);
        }
        let errors = shard_errors.into_iter().map(|l| l.into_inner()).collect();
        (matrices, errors)
    }

    /// Scores every target against `proc_`.
    ///
    /// Panics on a corrupted backing shard; serving layers use
    /// [`SimilarityEngine::query_batch`] to get the typed
    /// [`QueryError::Corrupted`] instead.
    pub fn query(&self, proc_: &Procedure) -> QueryScores {
        self.query_cancellable(proc_, &CancelToken::new())
            .unwrap_or_else(|e| panic!("uncancellable query failed: {e}"))
    }

    /// Like [`SimilarityEngine::query`], but abandons the computation as
    /// soon as `cancel` fires — the serving layer's per-request deadline
    /// hook. Cancellation is cooperative: VCP workers poll the token
    /// between tiles, stop issuing verifier calls, and the partial matrix
    /// is discarded. Completed pairs stay memoized in the cross-query
    /// cache, so a retried query resumes from where the deadline struck.
    ///
    /// Implemented as a batch of one: single queries and batched queries
    /// run the exact same code path, which is what makes the serving
    /// layer's batched responses byte-identical to one-shot `esh query`.
    pub fn query_cancellable(
        &self,
        proc_: &Procedure,
        cancel: &CancelToken,
    ) -> Result<QueryScores, QueryError> {
        self.query_batch(&[BatchQuery {
            proc_,
            cancel: cancel.clone(),
        }])
        .pop()
        .expect("one batch item, one result")
    }

    /// Scores a whole batch of queries in one shared engine pass — the
    /// serving layer's coalescing entry point.
    ///
    /// Per-item work is amortized across the batch everywhere the result
    /// cannot tell: strand classes are prepared once per distinct strand
    /// (signatures and sketches are pure functions of the lifted strand),
    /// the VCP matrices compute in a single work-stealing pass over the
    /// flattened `(item, strand, class-range)` tile space, probe-sketch
    /// rounds are computed once per strand per batch, and the refine pass
    /// checks out one verifier session for the whole batch. Every item's
    /// scores are still built from its own matrix with its own frozen H0,
    /// so each result is byte-identical to what a sequential
    /// [`query`](Self::query) of that procedure would return — the serve
    /// byte-identity contract extends to batched execution.
    ///
    /// Failure is per item: an item whose token fires returns
    /// `Err(QueryError::Cancelled)`, and an item that touched a corrupted
    /// shard returns `Err(QueryError::Corrupted)` naming the shard —
    /// without disturbing its neighbours (queries that avoid the bad
    /// shard keep serving).
    pub fn query_batch(&self, items: &[BatchQuery<'_>]) -> Vec<Result<QueryScores, QueryError>> {
        let mut prep_memo: HashMap<u64, PreparedStrand> = HashMap::new();
        let prepared: Vec<Option<Vec<QueryStrand>>> = items
            .iter()
            .map(|it| {
                (!it.cancel.is_cancelled())
                    .then(|| self.prepare_query_memo(it.proc_, &mut prep_memo))
            })
            .collect();
        let cancels: Vec<&CancelToken> = items.iter().map(|it| &it.cancel).collect();
        // Fan-out bookkeeping for lazily backed engines: which shards
        // each item consulted, across the matrix pass *and* refine.
        let touched = ShardTouch::new(
            items.len(),
            self.shards.as_ref().map_or(0, |l| l.shard_count()),
        );
        let (matrices, shard_errors) = self.vcp_matrix_batch(&prepared, &cancels, &touched);
        // Refine resources shared across the batch: one verifier session,
        // one probe-sketch cache (probe sketches are pure per strand, so
        // sharing them across items cannot change any item's result).
        let refine_enabled = self
            .config
            .active_sketch()
            .is_some_and(|cfg| cfg.effective_refine_top_k() > 0)
            && !self.targets.is_empty()
            && self.ensure_sketch_index().is_some();
        let mut refine_session = refine_enabled.then(|| {
            let s = self.checkout_session();
            let perf0 = s.stats().solver;
            (s, perf0)
        });
        let mut probes: HashMap<u64, SemanticSketch> = HashMap::new();
        let mut results = Vec::with_capacity(items.len());
        for (i, it) in items.iter().enumerate() {
            let (Some(query), matrix) = (&prepared[i], &matrices[i]) else {
                results.push(Err(QueryError::Cancelled));
                continue;
            };
            if let Some(e) = &shard_errors[i] {
                results.push(Err(QueryError::Corrupted(e.clone())));
                continue;
            }
            if it.cancel.is_cancelled() {
                results.push(Err(QueryError::Cancelled));
                continue;
            }
            let mut scores = self.score_targets(query, matrix);
            let refined = match &mut refine_session {
                Some((session, _)) => self.refine_served_window(
                    query,
                    matrix,
                    &mut scores,
                    &it.cancel,
                    session,
                    &mut probes,
                    i,
                    &touched,
                ),
                None => Ok(()),
            };
            results.push(refined.map(|()| QueryScores {
                scores,
                query_strands: query.len(),
                query_strand_occurrences: query.iter().map(|q| q.count as usize).sum(),
            }));
        }
        if let Some((session, perf0)) = refine_session {
            self.solver.add(&session.stats().solver.delta_since(&perf0));
            self.return_session(session);
        }
        if let Some(lazy) = &self.shards {
            lazy.add_fanout(touched.count());
        }
        results
    }

    /// H0 per query strand: corpus-wide mean over every strand occurrence
    /// (weighted by class multiplicity). Pure in the matrix — the refine
    /// pass reuses the estimated matrix's accumulators verbatim so its
    /// scores stay a pure function of the query, corpus and config.
    fn h0_accumulators(&self, query: &[QueryStrand], matrix: &[Vec<VcpPair>]) -> Vec<H0Accumulator> {
        let mut h0: Vec<H0Accumulator> = vec![H0Accumulator::default(); query.len()];
        for (qi, row) in matrix.iter().enumerate() {
            for (ci, v) in row.iter().enumerate() {
                h0[qi].add(v.q_in_t, self.classes[ci].corpus_count);
            }
        }
        h0
    }

    /// Scores every target from a computed VCP matrix. Pure in the matrix;
    /// float summation order must stay fixed (targets in insertion order,
    /// query strands in canonical hash order) so concurrent and offline
    /// rankings agree bit-for-bit.
    fn score_targets(&self, query: &[QueryStrand], matrix: &[Vec<VcpPair>]) -> Vec<TargetScore> {
        let h0 = self.h0_accumulators(query, matrix);
        let mut scores = Vec::with_capacity(self.targets.len());
        for (ti, target) in self.targets.iter().enumerate() {
            let mut ges_terms = Vec::with_capacity(query.len());
            let mut slog_terms = Vec::with_capacity(query.len());
            for (qi, q) in query.iter().enumerate() {
                let mut max_vcp = 0.0f64;
                for (ci, _) in &target.strands {
                    let v = matrix[qi][*ci].q_in_t;
                    if v > max_vcp {
                        max_vcp = v;
                    }
                }
                let l_esh = les(likelihood(max_vcp), h0[qi].mean_pr());
                let l_slog = les(max_vcp.max(1e-12), h0[qi].mean_vcp());
                ges_terms.push(l_esh * q.count as f64);
                slog_terms.push(l_slog * q.count as f64);
            }
            // S-VCP: Σ over target strand occurrences of the best VCP of
            // that strand against any query strand (no statistics).
            let mut s_vcp = 0.0;
            for (ci, n) in &target.strands {
                let best = matrix
                    .iter()
                    .map(|row| row[*ci].t_in_q)
                    .fold(0.0f64, f64::max);
                s_vcp += best * *n as f64;
            }
            scores.push(TargetScore {
                target: TargetId(ti),
                name: target.name.clone(),
                ges: ges(ges_terms),
                s_log: ges(slog_terms),
                s_vcp,
            });
        }
        scores
    }

    /// One refined target's score, rebuilt from its **exact** per-query-
    /// strand and per-class VCP maxima plus the estimated matrix's H0
    /// accumulators. Mirrors [`SimilarityEngine::score_targets`]
    /// float-for-float: the maxima are the very values an exhaustive
    /// matrix's column scans would produce, so S-VCP comes out
    /// bit-identical to exhaustive scoring, and GES differs from it only
    /// by the per-strand H0 offset every target shares.
    fn score_refined_target(
        &self,
        ti: usize,
        query: &[QueryStrand],
        max_q: &[f64],
        max_t: &HashMap<usize, f64>,
        h0: &[H0Accumulator],
    ) -> TargetScore {
        let target = &self.targets[ti];
        let mut ges_terms = Vec::with_capacity(query.len());
        let mut slog_terms = Vec::with_capacity(query.len());
        for (qi, q) in query.iter().enumerate() {
            let max_vcp = max_q[qi];
            let l_esh = les(likelihood(max_vcp), h0[qi].mean_pr());
            let l_slog = les(max_vcp.max(1e-12), h0[qi].mean_vcp());
            ges_terms.push(l_esh * q.count as f64);
            slog_terms.push(l_slog * q.count as f64);
        }
        let mut s_vcp = 0.0;
        for (ci, n) in &target.strands {
            s_vcp += max_t.get(ci).copied().unwrap_or(0.0) * *n as f64;
        }
        TargetScore {
            target: TargetId(ti),
            name: target.name.clone(),
            ges: ges(ges_terms),
            s_log: ges(slog_terms),
            s_vcp,
        }
    }

    /// The refine-top-K second pass: makes every score behind the served
    /// ranking window **exact** (scanning 2× the served depth so rank-K
    /// membership is decided among exact scores, not estimates), then
    /// re-ranks — to a fixpoint, since exact repricing can pull new
    /// targets into the window.
    ///
    /// For each window target, cells already verified (band collisions,
    /// margin fallbacks, earlier queries) are pulled from the [`VcpCache`]
    /// — no solver work. Remaining cells were sketch-pruned; they are
    /// verified in descending-bound order, but **only while their
    /// containment bound can still beat the target's current exact
    /// maximum** (per query strand for GES/S-LOG, per class for S-VCP).
    /// A skipped cell provably cannot change either maximum — the bound
    /// never underestimates VCP — so each window target's final maxima are
    /// its true maxima, whatever subset of cells the cache already knew.
    ///
    /// Scores are rebuilt from those maxima via
    /// [`SimilarityEngine::score_refined_target`], with the H0
    /// accumulators **frozen at the estimated matrix**. The matrix itself
    /// is never mutated: which cells the pass verifies (and which it
    /// dominance-skips or finds pre-cached) depends on cross-query cache
    /// state, so folding those values back into H0 would make served GES
    /// depend on engine history — the serving layer's byte-identity
    /// contract (`bench-serve`) demands that a query's response be a pure
    /// function of the query, corpus and config. With frozen H0 and true
    /// maxima, it is. The served window's internal order equals the
    /// exhaustive engine's relative order of those targets: LES
    /// differences between targets share the per-strand H0 term, which
    /// cancels (absolute GES still differs from the exhaustive engine by
    /// that H0 offset, identically for every window target).
    ///
    /// Terminates because the refined-target set grows monotonically and
    /// is bounded by the corpus. No-op when the sketch tier or
    /// [`PrefilterConfig::refine_top_k`] is off.
    #[allow(clippy::too_many_arguments)]
    fn refine_served_window(
        &self,
        query: &[QueryStrand],
        matrix: &[Vec<VcpPair>],
        scores: &mut [TargetScore],
        cancel: &CancelToken,
        session: &mut VerifierSession,
        probes: &mut HashMap<u64, SemanticSketch>,
        item: usize,
        touched: &ShardTouch,
    ) -> Result<(), QueryError> {
        let Some(cfg) = self.config.active_sketch().cloned() else {
            return Ok(());
        };
        let k = cfg.effective_refine_top_k();
        if k == 0 || query.is_empty() || self.targets.is_empty() {
            return Ok(());
        }
        if self.ensure_sketch_index().is_none() {
            return Ok(());
        }
        // Frozen at the estimated matrix (see the method docs): every
        // refined score shares these accumulators, keeping responses
        // cache-state-independent.
        let h0 = self.h0_accumulators(query, matrix);
        let vcp_fp = self.config.vcp.fingerprint();
        let mut refined_targets = vec![false; self.targets.len()];
        let mut refined_pairs = 0u64;
        // Probe sketches (base battery + probe rounds) for refine's
        // bounds, cached per strand (by structural hash, shared across a
        // whole batch of queries): a few extra concrete-eval rounds per
        // side buy the tightest available upper bound, and every
        // tightened bound is another chance to dominance-skip an exact
        // verification.
        self.prefilter_stats.record_refine_pass();
        let outcome = 'refine: loop {
            // The served window under the current scores — the same order
            // `QueryScores::ranked` serves (GES desc, TargetId asc).
            let mut order: Vec<usize> = (0..scores.len()).collect();
            order.sort_by(|&a, &b| {
                scores[b]
                    .ges
                    .partial_cmp(&scores[a].ges)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(scores[a].target.cmp(&scores[b].target))
            });
            // 2× slack: refining only the estimated top-K decides the
            // window *boundary* on estimated scores — a target whose
            // pruned evidence would lift it from rank 12 to rank 8 never
            // enters the window. Scanning twice the served depth prices
            // the contenders exactly too, so membership at rank K is
            // decided among exact scores (bounded, and deterministic
            // because the scan depth depends only on config).
            let pending: Vec<usize> = order
                .into_iter()
                .take(k.saturating_mul(2))
                .filter(|&ti| !refined_targets[ti])
                .collect();
            if pending.is_empty() {
                break Ok(());
            }
            for ti in pending {
                refined_targets[ti] = true;
                if cancel.is_cancelled() {
                    break 'refine Err(QueryError::Cancelled);
                }
                let strands = &self.targets[ti].strands;
                // Exact maxima this target already has: per query strand
                // (drives GES/S-LOG) and per class (drives S-VCP). Seeded
                // from cache-known cells; unknown cells are sketch-pruned.
                let mut max_q = vec![0.0f64; query.len()];
                let mut max_t: HashMap<usize, f64> = HashMap::new();
                // Sketch-pruned cells: `(bound_q, bound_t, qi, ci)`.
                let mut unknown: Vec<(f64, f64, usize, usize)> = Vec::new();
                for &(ci, _) in strands {
                    let class = &self.classes[ci];
                    for (qi, q) in query.iter().enumerate() {
                        if !size_ratio_ok(&self.config.vcp, q.vars, class.vars) {
                            continue;
                        }
                        if self.config.prefilter {
                            let fwd = q.signature.overlap_bound(&class.signature);
                            let bwd = class.signature.overlap_bound(&q.signature);
                            if fwd < self.config.prefilter_threshold
                                && bwd < self.config.prefilter_threshold
                            {
                                continue;
                            }
                        }
                        // The window scan must see the persisted cache
                        // segment of every class it peeks, so the shard
                        // opens first (open-before-lookup) — and counts
                        // toward this item's fan-out. The record itself
                        // stays undecoded unless the peek misses.
                        match self.ensure_class_shard(ci) {
                            Ok(Some(s)) => touched.mark(item, s),
                            Ok(None) => {}
                            Err(e) => break 'refine Err(QueryError::Corrupted(e)),
                        }
                        let key = (q.hash, class.hash, vcp_fp);
                        // `peek`, not `get`: this scan separates known from
                        // pruned cells and must not distort the miss
                        // counter the benches report as verifier calls.
                        if let Some(v) = self.cache.peek(&key) {
                            max_q[qi] = max_q[qi].max(v.q_in_t);
                            let m = max_t.entry(ci).or_insert(0.0);
                            *m = m.max(v.t_in_q);
                        } else {
                            let (c_q, c_t) = if q.sketch.is_some() {
                                probes
                                    .entry(q.hash)
                                    .or_insert_with(|| compute_probe_sketch(&q.proc_, &cfg));
                                if let std::collections::hash_map::Entry::Vacant(slot) =
                                    probes.entry(class.hash)
                                {
                                    // Fallible decode: under demand
                                    // decoding this may be the first time
                                    // the record's bytes are checksummed.
                                    let pt = match self.class_proc_checked(ci) {
                                        Ok(p) => compute_probe_sketch(&p, &cfg),
                                        Err(e) => break 'refine Err(QueryError::Corrupted(e)),
                                    };
                                    slot.insert(pt);
                                }
                                let pq = &probes[&q.hash];
                                let pt = &probes[&class.hash];
                                (pq.containment_in(pt), pt.containment_in(pq))
                            } else {
                                // No sketch to bound with: always verify.
                                (1.0, 1.0)
                            };
                            unknown.push((c_q, c_t, qi, ci));
                        }
                    }
                }
                // Verify pruned cells best-bound-first so early exact
                // results raise the maxima and dominate the rest away.
                unknown.sort_by(|a, b| {
                    b.0.max(b.1)
                        .partial_cmp(&a.0.max(a.1))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.2.cmp(&b.2))
                        .then(a.3.cmp(&b.3))
                });
                for (c_q, c_t, qi, ci) in unknown {
                    let dominated = c_q <= max_q[qi] && c_t <= *max_t.get(&ci).unwrap_or(&0.0);
                    if dominated {
                        // True VCP ≤ bound ≤ an exact value already in the
                        // matrix: this cell cannot move any maximum.
                        continue;
                    }
                    if cancel.is_cancelled() {
                        break 'refine Err(QueryError::Cancelled);
                    }
                    let q = &query[qi];
                    let class = &self.classes[ci];
                    let key = (q.hash, class.hash, vcp_fp);
                    // `peek` again (see above): refine's lookups are
                    // state-dependent (a warm repeat verifies nothing), so
                    // counting them would make the hit/miss totals
                    // nondeterministic. [`PrefilterStats::refined_pairs`]
                    // carries refine's verifier work instead. The re-peek
                    // also picks up a value a concurrent query inserted
                    // since the scan.
                    let v = match self.cache.peek(&key) {
                        Some(v) => v,
                        None => {
                            let tproc = match self.class_proc_checked(ci) {
                                Ok(p) => p,
                                Err(e) => break 'refine Err(QueryError::Corrupted(e)),
                            };
                            let v = vcp_pair(session, &q.proc_, &tproc, &self.config.vcp);
                            self.cache.insert(key, v);
                            refined_pairs += 1;
                            v
                        }
                    };
                    max_q[qi] = max_q[qi].max(v.q_in_t);
                    let m = max_t.entry(ci).or_insert(0.0);
                    *m = m.max(v.t_in_q);
                }
                // Exact maxima in hand: rebuild this target's score
                // against the frozen H0. `scores` is in target order
                // (score_targets builds it that way), so `ti` indexes it.
                scores[ti] = self.score_refined_target(ti, query, &max_q, &max_t, &h0);
            }
        };
        self.prefilter_stats.record_refined_pairs(refined_pairs);
        outcome
    }

    /// Calibrates [`PrefilterConfig::exact_fallback_margin`] from a
    /// held-out sample of this corpus and installs the chosen margin.
    ///
    /// Samples up to `sample_pairs` deterministic pseudo-random distinct
    /// class pairs that survive the size and legacy-signature filters,
    /// prices each pair's sketch containment bound **and** exact VCP, and
    /// picks the largest grid margin whose would-pruned samples all have
    /// exact VCP at most `max_pruned_vcp` (see
    /// [`calibrated_margin`](crate::prefilter::calibrated_margin)).
    ///
    /// Returns `None` when the sketch tier is off, the corpus has fewer
    /// than two classes, or no sampled pair survives the filters. Exact
    /// results are memoized in the [`VcpCache`], so calibration work is
    /// shared with later queries. Note the installed margin changes the
    /// config fingerprint — calibrate before writing an index, not after
    /// opening one.
    pub fn calibrate_margin(
        &mut self,
        sample_pairs: usize,
        max_pruned_vcp: f64,
    ) -> Option<MarginCalibration> {
        let cfg = *self.config.active_sketch()?;
        let n = self.classes.len();
        if n < 2 || sample_pairs == 0 {
            return None;
        }
        let vcp_fp = self.config.vcp.fingerprint();
        let mut session = self.checkout_session();
        let perf0 = session.stats().solver;
        let mut samples = Vec::with_capacity(sample_pairs);
        let mut seen = std::collections::HashSet::new();
        let mut sketches: HashMap<usize, SemanticSketch> = HashMap::new();
        // Deterministic pseudo-random pair stream: the sample (and hence
        // the calibrated margin) is a pure function of the corpus.
        for draw in 0..(sample_pairs as u64).saturating_mul(64) {
            if samples.len() >= sample_pairs {
                break;
            }
            let a = (stable_hash64([0x6361_6c69_u64, draw]) % n as u64) as usize;
            let b = (stable_hash64([0x6d61_7267_u64, draw]) % n as u64) as usize;
            if a == b {
                continue;
            }
            let (a, b) = (a.min(b), a.max(b));
            if !seen.insert((a, b)) {
                continue;
            }
            let (qa, qb) = (&self.classes[a], &self.classes[b]);
            if !size_ratio_ok(&self.config.vcp, qa.vars, qb.vars) {
                continue;
            }
            if self.config.prefilter {
                let fwd = qa.signature.overlap_bound(&qb.signature);
                let bwd = qb.signature.overlap_bound(&qa.signature);
                if fwd < self.config.prefilter_threshold && bwd < self.config.prefilter_threshold {
                    continue;
                }
            }
            for i in [a, b] {
                sketches.entry(i).or_insert_with(|| match &self.classes[i].sketch {
                    Some(s) => s.clone(),
                    None => compute_sketch(&self.class_proc(i), &cfg),
                });
            }
            let bound = sketches[&a]
                .containment_in(&sketches[&b])
                .max(sketches[&b].containment_in(&sketches[&a]));
            // Exact pricing only where it can matter: a sample whose
            // *bound* already clears the safety cap has exact VCP ≤ bound
            // ≤ cap and can never veto a margin, so recording the bound
            // as its (upper-bounded) exact value leaves the calibration
            // decision unchanged and skips the solver entirely. Only
            // samples in the risky band above the cap pay for a
            // verification.
            let exact = if bound <= max_pruned_vcp {
                bound
            } else {
                // Load-before-lookup (see `ensure_class_shard`): the
                // segment owning `qb.hash`'s entry must be resident
                // before the counted `get`. Calibration is a cold offline
                // path with no error channel, so corruption panics here.
                self.ensure_class_shard(b).unwrap_or_else(|e| panic!("{e}"));
                let key = (qa.hash, qb.hash, vcp_fp);
                let v = match self.cache.get(&key) {
                    Some(v) => v,
                    None => {
                        let v = vcp_pair(
                            &mut session,
                            &self.class_proc(a),
                            &self.class_proc(b),
                            &self.config.vcp,
                        );
                        self.cache.insert(key, v);
                        v
                    }
                };
                v.q_in_t.max(v.t_in_q)
            };
            samples.push(MarginSample { bound, exact });
        }
        self.solver.add(&session.stats().solver.delta_since(&perf0));
        self.return_session(session);
        if samples.is_empty() {
            return None;
        }
        let cal = calibrated_margin(&samples, max_pruned_vcp);
        if let Some(sketch) = &mut self.config.sketch {
            sketch.exact_fallback_margin = cal.margin;
        }
        Some(cal)
    }

    /// Overrides the worker-thread count for subsequent queries. Threads
    /// only change scheduling, never scores (the VCP matrix is a pure
    /// function per cell), so this is safe to adjust after opening an
    /// index — a daemon running N concurrent queries over one shared
    /// engine caps each query's parallelism this way instead of letting
    /// every request claim the whole machine.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esh_cc::{Compiler, Vendor, VendorVersion};
    use esh_minic::demo;

    fn quick_config() -> EngineConfig {
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        }
    }

    fn gcc() -> Compiler {
        Compiler::new(Vendor::Gcc, VendorVersion::new(4, 9))
    }

    fn clang() -> Compiler {
        Compiler::new(Vendor::Clang, VendorVersion::new(3, 5))
    }

    fn icc() -> Compiler {
        Compiler::new(Vendor::Icc, VendorVersion::new(15, 0))
    }

    #[test]
    fn cross_compiler_query_ranks_true_positive_first() {
        let q_src = demo::heartbleed_like();
        let query = gcc().compile_function(&q_src);
        let mut engine = SimilarityEngine::new(quick_config());
        let tp = engine.add_target("heartbleed-clang", &clang().compile_function(&q_src));
        for (i, (_, f)) in demo::cve_functions().into_iter().enumerate().skip(1) {
            engine.add_target(format!("distractor-{i}"), &clang().compile_function(&f));
        }
        let scores = engine.query(&query);
        let ranked = scores.ranked();
        assert_eq!(
            ranked[0].target, tp,
            "true positive must rank first: {ranked:#?}"
        );
        assert!(ranked[0].ges > ranked[1].ges);
    }

    #[test]
    fn self_query_dominates() {
        let f = demo::wget_like();
        let p = icc().compile_function(&f);
        let mut engine = SimilarityEngine::new(quick_config());
        let me = engine.add_target("self", &p);
        engine.add_target("other", &icc().compile_function(&demo::venom_like()));
        let scores = engine.query(&p);
        assert_eq!(scores.ranked()[0].target, me);
    }

    #[test]
    fn scores_are_asymmetric() {
        // GES(q|t) need not equal GES(t|q) (Figure 6, observation 2):
        // querying a small procedure against a large one is not the same
        // as the reverse, because the sum runs over the query's strands.
        let a = gcc().compile_function(&demo::ws_snmp_like());
        let b = icc().compile_function(&demo::wget_like());
        let mut e1 = SimilarityEngine::new(quick_config());
        e1.add_target("b", &b);
        let ab = e1.query(&a).scores[0].ges;
        let mut e2 = SimilarityEngine::new(quick_config());
        e2.add_target("a", &a);
        let ba = e2.query(&b).scores[0].ges;
        assert!(
            (ab - ba).abs() > 1e-9,
            "expected asymmetry, got {ab} vs {ba}"
        );
    }

    #[test]
    fn normalized_scores_are_in_unit_range() {
        let f = demo::venom_like();
        let mut engine = SimilarityEngine::new(quick_config());
        engine.add_target("a", &gcc().compile_function(&f));
        engine.add_target("b", &clang().compile_function(&demo::wget_like()));
        engine.add_target("c", &icc().compile_function(&demo::ffmpeg_like()));
        let scores = engine.query(&clang().compile_function(&f));
        for (_, v) in scores.normalized() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn whole_block_granularity_still_retrieves_but_differs() {
        // The §3.2 ablation: whole-block units also work on clean pairs,
        // but produce a different decomposition.
        let f = demo::heartbleed_like();
        let config = EngineConfig {
            granularity: Granularity::WholeBlocks,
            threads: 2,
            ..EngineConfig::default()
        };
        let mut engine = SimilarityEngine::new(config);
        let tp = engine.add_target("tp", &clang().compile_function(&f));
        engine.add_target("fp", &clang().compile_function(&demo::venom_like()));
        let scores = engine.query(&gcc().compile_function(&f));
        assert_eq!(scores.ranked()[0].target, tp);

        let mut strands_engine = SimilarityEngine::new(quick_config());
        strands_engine.add_target("tp", &clang().compile_function(&f));
        assert_ne!(
            strands_engine.class_count(),
            engine.class_count() - 1, // minus the venom target's classes... counts differ anyway
            "granularities should decompose differently"
        );
    }

    #[test]
    fn common_classes_report_is_sorted() {
        let f = demo::saturating_sum();
        let mut engine = SimilarityEngine::new(quick_config());
        for k in 0..3 {
            engine.add_target(format!("t{k}"), &gcc().compile_function(&f));
        }
        let report = engine.common_classes(5);
        assert!(!report.is_empty());
        assert!(
            report.windows(2).all(|w| w[0].0 >= w[1].0),
            "sorted by count"
        );
        // Identical targets stack counts on the same classes.
        assert!(report[0].0 >= 3);
    }

    #[test]
    fn cancelled_token_aborts_query_and_keeps_engine_usable() {
        let f = demo::heartbleed_like();
        let mut engine = SimilarityEngine::new(quick_config());
        let tp = engine.add_target("tp", &clang().compile_function(&f));
        engine.add_target("fp", &clang().compile_function(&demo::venom_like()));
        let q = gcc().compile_function(&f);

        let cancel = CancelToken::new();
        cancel.cancel();
        assert!(matches!(
            engine.query_cancellable(&q, &cancel),
            Err(QueryError::Cancelled)
        ));

        // An expired deadline behaves identically.
        let expired = CancelToken::with_deadline(Instant::now());
        assert!(matches!(
            engine.query_cancellable(&q, &expired),
            Err(QueryError::Cancelled)
        ));

        // The engine is untouched: a live token still completes and ranks.
        let live = CancelToken::new();
        let scores = engine.query_cancellable(&q, &live).unwrap();
        assert_eq!(scores.ranked()[0].target, tp);
    }

    #[test]
    fn ranked_breaks_exact_score_ties_by_target_id() {
        // Hand-built equal scores in shuffled insertion order: the tie
        // must break by ascending TargetId, not by insertion position.
        let mk = |id: usize, v: f64| TargetScore {
            target: TargetId(id),
            name: format!("t{id}"),
            ges: v,
            s_log: v,
            s_vcp: v,
        };
        let scores = QueryScores {
            scores: vec![mk(3, 1.5), mk(1, 1.5), mk(2, 7.0), mk(0, 1.5)],
            query_strands: 1,
            query_strand_occurrences: 1,
        };
        for mode in [ScoringMode::Esh, ScoringMode::SLog, ScoringMode::SVcp] {
            let ids: Vec<usize> = scores.ranked_by(mode).iter().map(|s| s.target.0).collect();
            assert_eq!(ids, vec![2, 0, 1, 3], "mode {mode:?}");
        }
    }

    #[test]
    fn sketch_prefilter_skips_solver_work_but_keeps_top_rank() {
        // Same corpus, same query: the sketch tier must preserve the top
        // rank while issuing strictly fewer verifier calls (cache misses
        // count vcp_pair invocations).
        let f = demo::heartbleed_like();
        let corpus: Vec<_> = demo::cve_functions()
            .into_iter()
            .map(|(name, p)| (name, clang().compile_function(&p)))
            .collect();
        let q = gcc().compile_function(&f);

        // Refinement off: the whole 8-target corpus fits inside the
        // default K=10 window, so refine would re-price every pair and
        // erase the solver saving this test asserts.
        let mut on = SimilarityEngine::new(EngineConfig {
            sketch: Some(PrefilterConfig {
                refine_top_k: None,
                ..PrefilterConfig::default()
            }),
            ..quick_config()
        });
        let mut off = SimilarityEngine::new(EngineConfig {
            sketch: None,
            ..quick_config()
        });
        for (name, p) in &corpus {
            on.add_target(*name, p);
            off.add_target(*name, p);
        }
        let ranked_on = on.query(&q);
        let ranked_off = off.query(&q);
        assert_eq!(
            ranked_on.ranked()[0].target,
            ranked_off.ranked()[0].target,
            "sketch tier changed the top-1 answer"
        );
        let stats = on.prefilter_stats();
        assert!(stats.pairs_pruned > 0, "nothing pruned: {stats:?}");
        assert!(
            on.cache_stats().misses < off.cache_stats().misses,
            "prefilter issued no fewer verifier calls: on={} off={}",
            on.cache_stats().misses,
            off.cache_stats().misses
        );
    }

    #[test]
    fn disabling_sketch_tier_reproduces_sketchless_scores_exactly() {
        // `esh query --no-prefilter` must be byte-identical to an engine
        // that never had the tier.
        let f = demo::venom_like();
        let mut with = SimilarityEngine::new(quick_config());
        let mut without = SimilarityEngine::new(EngineConfig {
            sketch: None,
            ..quick_config()
        });
        for (i, (_, p)) in demo::cve_functions().into_iter().enumerate() {
            with.add_target(format!("t{i}"), &gcc().compile_function(&p));
            without.add_target(format!("t{i}"), &gcc().compile_function(&p));
        }
        with.set_prefilter_enabled(false);
        let q = clang().compile_function(&f);
        let a = with.query(&q);
        let b = without.query(&q);
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert_eq!(x.ges.to_bits(), y.ges.to_bits());
            assert_eq!(x.s_log.to_bits(), y.s_log.to_bits());
            assert_eq!(x.s_vcp.to_bits(), y.s_vcp.to_bits());
        }
        assert_eq!(with.prefilter_stats(), PrefilterStatsSnapshot::default());
    }

    #[test]
    fn refine_window_covering_corpus_reproduces_exhaustive_ranking() {
        // With every target inside the refine window, every target's
        // maxima are exact: the full ranking must equal the exhaustive
        // engine's and S-VCP (H0-free) must be bit-identical. GES itself
        // differs by a per-query H0 constant — dominance-skipped cells
        // keep their pruned zero in the H0 mean — which shifts every
        // target equally and cancels in the order.
        let f = demo::heartbleed_like();
        let mut on = SimilarityEngine::new(quick_config());
        let mut off = SimilarityEngine::new(EngineConfig {
            sketch: None,
            ..quick_config()
        });
        for (name, p) in demo::cve_functions() {
            let p = clang().compile_function(&p);
            on.add_target(name, &p);
            off.add_target(name, &p);
        }
        let q = gcc().compile_function(&f);
        let a = on.query(&q);
        let b = off.query(&q);
        let order = |s: &QueryScores| -> Vec<TargetId> {
            s.ranked().iter().map(|t| t.target).collect()
        };
        assert_eq!(order(&a), order(&b), "served order diverged");
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert_eq!(x.s_vcp.to_bits(), y.s_vcp.to_bits(), "{}", x.name);
        }
        let stats = on.prefilter_stats();
        assert_eq!(stats.refine_passes, 1, "one query, one refine pass");
    }

    #[test]
    fn wide_ambiguity_window_probes_and_keeps_top_rank() {
        // A window spanning the whole bound range forces every
        // non-candidate pair through the probe path; the refined bounds
        // must still be sound (top-1 matches the exhaustive engine) and
        // every probe must resolve to a prune or an escalation.
        let f = demo::heartbleed_like();
        let probing = PrefilterConfig {
            ambiguity_window: Some(1.0),
            refine_top_k: None,
            ..PrefilterConfig::default()
        };
        let mut on = SimilarityEngine::new(EngineConfig {
            sketch: Some(probing),
            ..quick_config()
        });
        let mut off = SimilarityEngine::new(EngineConfig {
            sketch: None,
            ..quick_config()
        });
        for (name, p) in demo::cve_functions() {
            let p = clang().compile_function(&p);
            on.add_target(name, &p);
            off.add_target(name, &p);
        }
        let q = gcc().compile_function(&f);
        let ranked_on = on.query(&q);
        let ranked_off = off.query(&q);
        assert_eq!(ranked_on.ranked()[0].target, ranked_off.ranked()[0].target);
        let stats = on.prefilter_stats();
        assert!(stats.ambiguous_probes > 0, "window forced no probes");
        assert_eq!(
            stats.pairs_pruned + stats.probe_escalations,
            stats.ambiguous_probes,
            "every probe resolves to a prune or an escalation: {stats:?}"
        );
    }

    #[test]
    fn calibrate_margin_installs_a_grid_margin_and_changes_fingerprint() {
        let mut engine = SimilarityEngine::new(quick_config());
        for (name, p) in demo::cve_functions() {
            engine.add_target(name, &gcc().compile_function(&p));
        }
        let fp0 = engine.config().fingerprint();
        let cal = engine
            .calibrate_margin(40, 0.5)
            .expect("corpus yields samples");
        assert!(cal.sampled_pairs > 0);
        assert!((0.3..=0.9).contains(&cal.margin), "off-grid: {cal:?}");
        assert!(cal.max_pruned_exact <= 0.5, "distortion cap violated");
        let installed = engine.config().active_sketch().unwrap().exact_fallback_margin;
        assert_eq!(installed, cal.margin);
        if (cal.margin - PrefilterConfig::default().exact_fallback_margin).abs() > 1e-9 {
            assert_ne!(engine.config().fingerprint(), fp0);
        }
        // Calibration is a pure function of the corpus: re-running on an
        // identical engine picks the same margin.
        let mut twin = SimilarityEngine::new(quick_config());
        for (name, p) in demo::cve_functions() {
            twin.add_target(name, &gcc().compile_function(&p));
        }
        assert_eq!(twin.calibrate_margin(40, 0.5).unwrap().margin, cal.margin);
    }

    #[test]
    fn strand_classes_deduplicate_across_targets() {
        let f = demo::saturating_sum();
        let p = gcc().compile_function(&f);
        let mut engine = SimilarityEngine::new(quick_config());
        engine.add_target("a", &p);
        let n1 = engine.class_count();
        engine.add_target("b", &p);
        assert_eq!(engine.class_count(), n1, "identical target adds no classes");
        assert_eq!(engine.target_count(), 2);
    }

    #[test]
    fn thread_count_is_excluded_from_the_fingerprint() {
        // `threads` is an execution detail, not a corpus property: an
        // index built at one parallelism level must open under another.
        let base = quick_config();
        let other = EngineConfig {
            threads: base.threads + 3,
            ..base.clone()
        };
        assert_eq!(other.fingerprint(), base.fingerprint());
        let stricter = EngineConfig {
            prefilter_threshold: base.prefilter_threshold + 0.125,
            ..base.clone()
        };
        assert_ne!(stricter.fingerprint(), base.fingerprint());
    }

    #[test]
    fn warm_query_hits_cache_with_zero_solver_calls() {
        let sources = [
            demo::saturating_sum(),
            demo::wget_like(),
            demo::ws_snmp_like(),
        ];
        let mut engine = SimilarityEngine::new(quick_config());
        for (i, g) in sources.iter().enumerate() {
            engine.add_target(format!("clang:{i}"), &clang().compile_function(g));
            engine.add_target(format!("icc:{i}"), &icc().compile_function(g));
        }
        let query = gcc().compile_function(&sources[0]);

        let cold = engine.query(&query);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 0, "first query must not hit");
        assert!(stats.misses > 0, "first query must populate the cache");
        // Refine-top-K re-pricings insert entries without touching the
        // hit/miss counters; they are tracked by `refined_pairs` instead.
        assert_eq!(
            stats.entries as u64,
            stats.misses + engine.prefilter_stats().refined_pairs
        );

        engine.reset_cache_counters();
        let warm = engine.query(&query);
        let stats = engine.cache_stats();
        // Zero misses ⇒ zero vcp_pair computations ⇒ zero new solver calls.
        assert_eq!(stats.misses, 0, "warm query must not invoke the verifier");
        assert!(stats.hits > 0);
        for (x, y) in cold.scores.iter().zip(&warm.scores) {
            assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
            assert_eq!(x.s_log.to_bits(), y.s_log.to_bits(), "{}", x.name);
            assert_eq!(x.s_vcp.to_bits(), y.s_vcp.to_bits(), "{}", x.name);
        }
    }
}
