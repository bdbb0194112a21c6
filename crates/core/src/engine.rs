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
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use esh_asm::Procedure;
use esh_ivl::Proc;
use esh_solver::{EquivConfig, EquivStats, SolverPerf};
use esh_strands::{
    extract_proc_strands, lift_strand, semantic_signature, stable_hash64, structural_hash,
    Signature, SIGNATURE_SEEDS,
};
use esh_verifier::VerifierSession;
use serde::{Deserialize, Serialize};

use crate::cache::{CacheStats, VcpCache, VcpCacheEntry, VcpKey};
use crate::prefilter::{
    bounds_decision, compute_probe_sketch, compute_sketch, PrefilterConfig, PrefilterStats,
    PrefilterStatsSnapshot, RungCounts, SemanticSketch, SketchDecision, SketchIndex,
};
use crate::shard::{
    ClassExport, CorpusExport, LazyClassMeta, LazyShards, ShardBandSummary, ShardError,
    ShardProcRef, ShardSource, ShardSpec, ShardStats, ShardTouch, TargetExport,
};
use crate::stats::{ges, likelihood, H0Accumulator, ScoringMode};
use crate::vcp::{size_ratio_ok, vcp_pair, VcpConfig, VcpPair};

/// Engine configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// VCP search tuning (§5.5 thresholds).
    pub vcp: VcpConfig,
    /// Verifier budgets.
    pub equiv: EquivConfig,
    /// The semantic-signature prefilter (exactness-preserving upper
    /// bound; see `esh-strands`): pairs whose signature overlap bound is
    /// below this in both directions skip verification. 0.5 matches the
    /// paper's minimum-VCP filter; 0 turns the filter off, since no
    /// overlap bound is negative.
    pub prefilter_threshold: f64,
    /// The semantic-sketch prefilter tier (concrete-execution fingerprints
    /// and banded LSH; see [`crate::prefilter`]). With
    /// [`PrefilterConfig::enabled`] off the engine computes no sketches
    /// and prunes no pair by sketch, and the tier's other knobs leave the
    /// fingerprint alone.
    pub sketch: PrefilterConfig,
    /// Threads that price one matrix pass (0 = use available
    /// parallelism). The calling thread prices tiles itself and spawns
    /// at most `threads - 1` helpers, one fewer for every other query
    /// batch already running in the same engine, so concurrent batches
    /// share the cores instead of each claiming all of them.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            vcp: VcpConfig::default(),
            equiv: EquivConfig::default(),
            prefilter_threshold: 0.5,
            sketch: PrefilterConfig::default(),
            threads: 0,
        }
    }
}

impl EngineConfig {
    /// Stable digest of every scoring-relevant knob. Two engines with the
    /// same fingerprint produce identical scores for identical corpora, so
    /// indexes and caches key on it. `threads` only changes scheduling,
    /// never results, and is deliberately excluded.
    ///
    /// The sketch tier is mixed only when enabled: a disabled tier
    /// computes no sketches, so its knobs cannot move a score.
    pub fn fingerprint(&self) -> u64 {
        let t = self.prefilter_threshold;
        let fields = [self.vcp.fingerprint(), self.equiv.fingerprint()];
        let filter = [u64::from(t > 0.0), t.to_bits()];
        let sketch = self.active_sketch().map(PrefilterConfig::fingerprint);
        stable_hash64(fields.into_iter().chain(filter).chain(sketch))
    }

    /// The sketch-prefilter parameters when the tier is switched on.
    pub fn active_sketch(&self) -> Option<&PrefilterConfig> {
        self.sketch.enabled.then_some(&self.sketch)
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
    /// Semantic sketch under the configured [`PrefilterConfig`]: present
    /// exactly when the tier is on (`add_target` computes it, and
    /// `from_lazy_parts` refuses an index class without one).
    pub(crate) sketch: Option<SemanticSketch>,
    /// Probe sketch (base battery plus probe rounds), filled by the first
    /// ambiguous pair this class takes part in and kept until the tier's
    /// config changes. Query strands equal to the class share the slot.
    pub(crate) probe: ProbeSlot,
}

/// A strand's probe-sketch slot; see [`probe_sketch`].
type ProbeSlot = Arc<OnceLock<SemanticSketch>>;

/// The probe sketch in `slot`, computed from the fallible `proc_` on first
/// use and outside any lock: workers racing on one slot compute the same
/// pure value, and only the one that stores it counts it.
fn probe_sketch<'s, P: std::ops::Deref<Target = Proc>>(
    slot: &'s OnceLock<SemanticSketch>,
    cfg: &PrefilterConfig,
    stats: &PrefilterStats,
    proc_: impl FnOnce() -> Result<P, ShardError>,
) -> Result<&'s SemanticSketch, ShardError> {
    if let Some(s) = slot.get() {
        return Ok(s);
    }
    if slot.set(compute_probe_sketch(&*proc_()?, cfg)).is_ok() {
        stats.record_probe_sketch();
    }
    Ok(slot.get().expect("slot filled above"))
}

#[derive(Debug, Clone)]
pub(crate) struct TargetRecord {
    pub(crate) name: String,
    /// `(class index, occurrences in this target)`.
    pub(crate) strands: Vec<(usize, u64)>,
}

/// Where a query strand's lifted procedure comes from.
#[derive(Debug)]
enum StrandProc {
    /// Lifted from the query's own assembly.
    Lifted(Proc),
    /// The corpus class the strand is; resolved through
    /// [`SimilarityEngine::class_proc`] only when a cell misses the cache
    /// or the class's probe slot is empty.
    Class(usize),
}

/// A prepared query strand.
#[derive(Debug)]
struct QueryStrand {
    proc_: StrandProc,
    signature: Signature,
    sketch: Option<SemanticSketch>,
    probe: ProbeSlot,
    vars: usize,
    hash: u64,
    count: u64,
}

/// Per-strand artifacts memoized across one batch of queries (keyed by
/// structural hash): all are pure functions of the lifted strand.
#[derive(Debug, Clone)]
struct PreparedStrand {
    signature: Signature,
    sketch: Option<SemanticSketch>,
    /// The corpus class's slot when the strand is one, else a slot
    /// shared by the batch.
    probe: ProbeSlot,
}

/// What one [`SimilarityEngine::query_batch`] call shares between its
/// matrix pass and its refine pass.
struct BatchPass<'a> {
    items: &'a [BatchQuery<'a>],
    /// The VCP config's fingerprint, the third part of every cache key.
    vcp_fp: u64,
    /// Other batches running in this engine when this one started.
    others: usize,
    /// Prepared strands per item; `None` for items cancelled before
    /// preparation.
    queries: Vec<Option<Vec<QueryStrand>>>,
    /// Which shards each item consulted, for the fan-out counter.
    touched: ShardTouch,
}

/// Which rung of the pricing ladder decided a matrix cell. The matrix
/// pass records it beside each [`VcpPair`], and the refine pass reads it
/// instead of pricing the cell a second time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Rung {
    /// Never priced: whole-shard pruning skipped the cell's shard (or the
    /// item failed or was cancelled, and is never refined).
    Unpriced,
    /// Dropped by the size-ratio or signature filter.
    Filtered,
    /// Dropped by the sketch rung.
    Pruned,
    /// Priced exactly, from the cache or the verifier; the cell's shard
    /// is marked in the item's fan-out.
    Exact,
}

/// One batch item's VCP matrix (`query strand × corpus class`) with the
/// rung that decided each cell.
struct ItemMatrix {
    vcp: Vec<Vec<VcpPair>>,
    rung: Vec<Vec<Rung>>,
}

/// One query strand's side of Eq. 5, frozen at the estimated matrix: the
/// logs of its H0 means (GES and S-LOG), its occurrence weight, and its
/// two terms for a target whose best VCP for it is zero, the common case.
struct StrandH0 {
    ln_pr: f64,
    ln_vcp: f64,
    weight: f64,
    zero_terms: (f64, f64),
}

impl StrandH0 {
    fn new(h0: &H0Accumulator, count: u64) -> StrandH0 {
        let ln_pr = h0.mean_pr().max(1e-12).ln();
        let ln_vcp = h0.mean_vcp().max(1e-12).ln();
        let weight = count as f64;
        StrandH0 {
            ln_pr,
            ln_vcp,
            weight,
            zero_terms: (
                (likelihood(0.0).max(1e-12).ln() - ln_pr) * weight,
                (1e-12f64.ln() - ln_vcp) * weight,
            ),
        }
    }

    /// The strand's GES term, `les(likelihood(v), mean_pr) × weight`
    /// with `les`'s operations in `les`'s order.
    fn ges_term(&self, v: f64) -> f64 {
        if v == 0.0 {
            return self.zero_terms.0;
        }
        (likelihood(v).max(1e-12).ln() - self.ln_pr) * self.weight
    }

    /// The strand's S-LOG term, `les(v.max(1e-12), mean_vcp) × weight`.
    fn slog_term(&self, v: f64) -> f64 {
        if v == 0.0 {
            return self.zero_terms.1;
        }
        (v.max(1e-12).ln() - self.ln_vcp) * self.weight
    }
}

/// What one batch item scores against the corpus.
#[derive(Debug, Clone, Copy)]
pub enum Query<'a> {
    /// A procedure, split into strands and lifted.
    Procedure(&'a Procedure),
    /// A corpus member, prepared from its target record: its strand
    /// classes' stored signatures, sketches and probe slots, with no
    /// strand extraction or lifting. Scores equal those of a
    /// [`Query::Procedure`] naming the procedure the target was added
    /// from, bit for bit. [`SimilarityEngine::query_batch`] panics on an
    /// id that is not a target of the engine.
    Target(TargetId),
}

impl<'a> From<&'a Procedure> for Query<'a> {
    fn from(p: &'a Procedure) -> Query<'a> {
        Query::Procedure(p)
    }
}

/// One query in a [`SimilarityEngine::query_batch`] call: what to score
/// plus its own cancellation token. Tokens are per-item so one expired
/// deadline abandons only its own query — the rest of the batch keeps
/// running.
#[derive(Debug)]
pub struct BatchQuery<'a> {
    /// The procedure or corpus member to score against the corpus.
    pub query: Query<'a>,
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
            QueryError::Cancelled => f.write_str("query cancelled before completion"),
            QueryError::Corrupted(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for QueryError {}

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
    /// pools and pair-verdict caches survive across queries — not just
    /// across one query's tiles. SAT queries never share a solver: each
    /// runs on its own fresh blaster.
    sessions: Mutex<Vec<VerifierSession>>,
    solver: SolverCounters,
    prefilter_stats: PrefilterStats,
    /// Banded LSH index over the corpus classes' sketches, built on the
    /// first sketch-enabled query from the sketches every class carries
    /// under the tier, and dropped whenever the corpus changes.
    sketch_index: Mutex<Option<Arc<SketchIndex>>>,
    /// Lazy backing store when the engine was opened from a sharded
    /// `.eshx` index: class procedures and per-segment cache entries load on
    /// first use. `None` for fully resident engines.
    shards: Option<LazyShards>,
    /// [`Self::query_batch`] calls running now; each one's matrix pass
    /// spawns fewer helpers for every other (see
    /// [`EngineConfig::threads`]). A scheduling hint that publishes no
    /// data, hence `Relaxed`.
    passes: AtomicUsize,
    /// Query strands lifted from a procedure's assembly, engine lifetime.
    lifted: AtomicU64,
}

/// Holds one batch in [`SimilarityEngine::passes`] and releases it on
/// drop, also when the batch unwinds.
struct PassGuard<'a>(&'a AtomicUsize);

impl Drop for PassGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Engine-lifetime decision counters: the sum of the [`EquivStats`]
/// deltas of every worker session, added once per tile run or refine
/// pass rather than once per pair.
#[derive(Debug, Default)]
struct SolverCounters(Mutex<EquivStats>);

impl SolverCounters {
    fn add(&self, d: &EquivStats) {
        self.0.lock().expect("solver counters poisoned").add(d);
    }

    fn snapshot(&self) -> EquivStats {
        *self.0.lock().expect("solver counters poisoned")
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
            passes: AtomicUsize::new(0),
            lifted: AtomicU64::new(0),
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
    /// engine has run (CNF-cache hits, conflicts, search time — see
    /// [`SolverPerf`]).
    pub fn solver_stats(&self) -> SolverPerf {
        self.solver.snapshot().solver
    }

    /// Aggregate decision counters across all worker sessions this engine
    /// has run: how many term pairs each layer of the equivalence checker
    /// decided, plus the SAT counters of [`Self::solver_stats`].
    pub fn equiv_stats(&self) -> EquivStats {
        self.solver.snapshot()
    }

    /// Engine-lifetime counters of the semantic-sketch prefilter tier
    /// (pairs priced without the solver, LSH band collisions, margin
    /// fallbacks).
    pub fn prefilter_stats(&self) -> PrefilterStatsSnapshot {
        self.prefilter_stats.snapshot()
    }

    /// Query strands lifted from procedure assembly over the engine's
    /// lifetime. A [`Query::Target`] lifts none, so a daemon that serves
    /// corpus members keeps this flat.
    pub fn query_strands_lifted(&self) -> u64 {
        self.lifted.load(Ordering::Relaxed)
    }

    /// Switches the sketch prefilter tier off for subsequent queries
    /// (the `esh query --no-prefilter` escape hatch), dropping every
    /// class sketch with it: sketches exist exactly when the tier is on.
    /// The config fingerprint changes, since pruned pairs carry
    /// estimated VCP values.
    pub fn disable_prefilter(&mut self) {
        self.config.sketch.enabled = false;
        *self.sketch_index.get_mut().expect("sketch index poisoned") = None;
        for class in &mut self.classes {
            class.sketch = None;
            class.probe = ProbeSlot::default();
        }
    }

    /// Every memoized VCP-cache entry, sorted by key — what the
    /// sharded-index writer segments.
    pub fn cache_entries(&self) -> Vec<VcpCacheEntry> {
        self.cache.entries()
    }

    /// The lifted procedure of class `ci`, pulling its shard into memory
    /// (again, if evicted) on demand when the engine is lazily backed.
    /// Under per-record demand decoding a corrupt record is only
    /// discovered when its class is first decoded — which happens *here*,
    /// at proc-need time, not at shard open — so the checksum error
    /// surfaces as a typed [`ShardError`], never a panic.
    fn class_proc(&self, ci: usize) -> Result<ClassProcRef<'_>, ShardError> {
        match &self.shards {
            Some(lazy) if ci < lazy.class_limit() => {
                let expect = (self.classes[ci].hash, self.classes[ci].vars);
                Ok(ClassProcRef::Shared(lazy.proc_ref(
                    ci,
                    expect,
                    &self.cache,
                )?))
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
    /// via [`Self::class_proc`], after the counted lookup — the
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

    /// Shard counters: total/loaded shard counts and query fan-out. All
    /// zero for fully resident engines.
    pub fn shard_stats(&self) -> ShardStats {
        self.shards
            .as_ref()
            .map_or_else(ShardStats::default, |l| l.stats())
    }

    /// Dumps the whole corpus — config, materialized classes, targets,
    /// sorted cache entries — for the sharded-index writer. On a lazily
    /// backed engine this loads every shard.
    ///
    /// # Errors
    ///
    /// Fails when a lazily backed class's shard or record is corrupted
    /// or unreadable.
    pub fn export_corpus(&self) -> Result<CorpusExport, ShardError> {
        Ok(CorpusExport {
            config: self.config.clone(),
            classes: self
                .classes
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    Ok(ClassExport {
                        name: c.proc_.name.clone(),
                        proc_: self.class_proc(i)?.clone(),
                        signature: c.signature.clone(),
                        vars: c.vars,
                        hash: c.hash,
                        sketch: c.sketch.clone(),
                    })
                })
                .collect::<Result<_, ShardError>>()?,
            targets: self
                .targets
                .iter()
                .map(|t| TargetExport {
                    name: t.name.clone(),
                    strands: t.strands.clone(),
                })
                .collect(),
            cache: self.cache.entries(),
        })
    }

    /// Builds an engine over a lazily-loaded sharded backing store: class
    /// pricing metadata and targets are resident, procedures and
    /// per-segment cache entries come from `source` on demand. Each
    /// class's corpus count, its H0 weight, is the sum of its occurrences
    /// over the target strand lists.
    ///
    /// Validates that `specs` tile both index spaces contiguously from
    /// zero, that class hashes are unique, that target strand
    /// references are in range and no class's occurrences overflow a
    /// `u64` when summed, that every class signature has one
    /// sorted round per [`SIGNATURE_SEEDS`] entry and every sketch sorted
    /// digests (the prefilter merges assume both), that classes carry
    /// sketches exactly when the sketch tier is on, and, under an enabled
    /// tier, that its knobs are usable and every sketch has its
    /// `bands × rows` minhash words.
    ///
    /// With `prune` set and the sketch tier on, it then derives one band
    /// summary per shard from the validated class sketches, so queries
    /// skip shards whose every cell is provably sketch-pruned. Pruning
    /// never moves a score; `prune: false` keeps the full fan-out as a
    /// reference.
    pub fn from_lazy_parts(
        config: EngineConfig,
        classes: Vec<LazyClassMeta>,
        targets: Vec<TargetExport>,
        specs: Vec<ShardSpec>,
        source: Box<dyn ShardSource>,
        prune: bool,
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
        let mut corpus_counts = vec![0u64; classes.len()];
        for t in &targets {
            for &(ci, n) in &t.strands {
                let count = corpus_counts.get_mut(ci).ok_or_else(|| {
                    format!("target `{}` references a class out of range", t.name)
                })?;
                *count = count.checked_add(n).ok_or_else(|| {
                    format!(
                        "class `{}`: its occurrence counts overflow u64",
                        classes[ci].name
                    )
                })?;
            }
        }
        let tier = config.active_sketch().is_some();
        if let Some(c) = classes.iter().find(|c| c.sketch.is_some() != tier) {
            let why = if tier {
                "has no sketch under an enabled"
            } else {
                "has a sketch under a disabled"
            };
            return Err(format!("class `{}` {why} sketch tier", c.name));
        }
        // The signature and sketch-containment merges assume sorted
        // input; unsorted rounds or digests would silently flip prune
        // decisions.
        let rounds = SIGNATURE_SEEDS.len();
        for c in &classes {
            if c.signature.rounds.len() != rounds {
                return Err(format!(
                    "class `{}`: signature has {} rounds, not {rounds}",
                    c.name,
                    c.signature.rounds.len()
                ));
            }
            if !c.signature.rounds.iter().all(|r| r.is_sorted()) {
                return Err(format!("class `{}`: signature round is not sorted", c.name));
            }
            if c.sketch.as_ref().is_some_and(|s| !s.digests.is_sorted()) {
                return Err(format!("class `{}`: sketch digests are not sorted", c.name));
            }
        }
        if let Some(cfg) = config.active_sketch() {
            cfg.validate()?;
            let k = cfg.bands * cfg.rows;
            let bad = |c: &&LazyClassMeta| c.sketch.as_ref().is_some_and(|s| s.minhash.len() != k);
            if let Some(c) = classes.iter().find(bad) {
                return Err(format!(
                    "class `{}`: sketch is not {k} minhash words",
                    c.name
                ));
            }
        }
        let summaries = config.active_sketch().filter(|_| prune).map(|cfg| {
            specs
                .iter()
                .map(|s| {
                    let members = classes[s.class_start..s.class_end].iter().map(|c| {
                        c.sketch
                            .as_ref()
                            .expect("an enabled sketch tier sketches every class")
                    });
                    ShardBandSummary::build(members, cfg.bands, cfg.rows)
                })
                .collect()
        });
        let classes = classes
            .into_iter()
            .zip(corpus_counts)
            .map(|(c, corpus_count)| StrandClass {
                // Placeholder body; every code path that needs the real
                // procedure goes through `class_proc`. The name is kept so
                // diagnostics (`common_classes`) stay useful without a
                // shard load.
                proc_: Proc::new(c.name),
                signature: c.signature,
                vars: c.vars,
                hash: c.hash,
                corpus_count,
                sketch: c.sketch,
                probe: ProbeSlot::default(),
            })
            .collect();
        let targets = targets
            .into_iter()
            .map(|t| TargetRecord {
                name: t.name,
                strands: t.strands,
            })
            .collect();
        Ok(SimilarityEngine {
            config,
            classes,
            class_by_hash,
            targets,
            cache: VcpCache::new(),
            sessions: Mutex::new(Vec::new()),
            solver: SolverCounters::default(),
            prefilter_stats: PrefilterStats::default(),
            sketch_index: Mutex::new(None),
            shards: Some(LazyShards::new(specs, source, summaries)),
            passes: AtomicUsize::new(0),
            lifted: AtomicU64::new(0),
        })
    }

    /// Number of targets.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// The name target `t` was added under.
    ///
    /// # Panics
    ///
    /// Panics when `t` is not a target of this engine.
    pub fn target_name(&self, t: TargetId) -> &str {
        &self.targets[t.0].name
    }

    /// Number of deduplicated strand classes across the corpus.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Adds a target procedure, returning its id.
    pub fn add_target(&mut self, name: impl Into<String>, proc_: &Procedure) -> TargetId {
        let mut per_class: HashMap<usize, u64> = HashMap::new();
        for strand in extract_proc_strands(proc_) {
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
                        probe: ProbeSlot::default(),
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
        });
        id
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
        let strands = extract_proc_strands(proc_);
        self.lifted
            .fetch_add(strands.len() as u64, Ordering::Relaxed);
        for strand in strands {
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
                    probe: prep.probe,
                    proc_: StrandProc::Lifted(lifted),
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

    /// Target `t`'s query strands, read off its record: one per strand
    /// class, with the class's stored signature, sketch and probe slot,
    /// in the canonical hash order. The record lists exactly the strands
    /// [`Self::prepare_query_memo`] keeps of the procedure the target was
    /// added from (same `min_strand_vars` filter, same dedup key), so the
    /// two preparations score identically; this one lifts nothing.
    fn prepare_target(&self, t: TargetId) -> Vec<QueryStrand> {
        let mut strands: Vec<QueryStrand> = self.targets[t.0]
            .strands
            .iter()
            .map(|&(ci, count)| {
                let c = &self.classes[ci];
                QueryStrand {
                    proc_: StrandProc::Class(ci),
                    signature: c.signature.clone(),
                    sketch: c.sketch.clone(),
                    probe: Arc::clone(&c.probe),
                    vars: c.vars,
                    hash: c.hash,
                    count,
                }
            })
            .collect();
        strands.sort_by_key(|s| s.hash);
        strands
    }

    /// The lifted procedure behind query strand `q`, decoding its class
    /// record when the strand names one.
    fn strand_proc<'s>(&'s self, q: &'s QueryStrand) -> Result<ClassProcRef<'s>, ShardError> {
        match &q.proc_ {
            StrandProc::Lifted(p) => Ok(ClassProcRef::Resident(p)),
            StrandProc::Class(ci) => self.class_proc(*ci),
        }
    }

    /// Signature, sketch and probe slot for one query strand. When the
    /// strand is already a corpus class (equal structural hash — the same
    /// identity the dedup and cache layers rely on), the class's stored
    /// artifacts and its probe slot are reused instead of recomputed; all
    /// are pure functions of the lifted strand, so the values are
    /// identical either way.
    fn prepare_strand(&self, h: u64, lifted: &Proc) -> PreparedStrand {
        let class = self.class_by_hash.get(&h).map(|&i| &self.classes[i]);
        let signature = match class {
            Some(c) => c.signature.clone(),
            None => semantic_signature(lifted),
        };
        let sketch =
            self.config
                .active_sketch()
                .map(|cfg| match class.and_then(|c| c.sketch.as_ref()) {
                    Some(s) => s.clone(),
                    None => compute_sketch(lifted, cfg),
                });
        PreparedStrand {
            signature,
            sketch,
            probe: class.map_or_else(ProbeSlot::default, |c| Arc::clone(&c.probe)),
        }
    }

    /// Returns the banded LSH index over the corpus sketches, building it
    /// on first use. Every class carries its sketch while the tier is on:
    /// `add_target` computes it, and `from_lazy_parts` refuses an index
    /// whose classes lack one.
    fn ensure_sketch_index(&self) -> Option<Arc<SketchIndex>> {
        let cfg = self.config.active_sketch()?;
        let mut slot = self.sketch_index.lock().expect("sketch index poisoned");
        if slot.is_none() {
            let sketches = self
                .classes
                .iter()
                .map(|c| {
                    c.sketch
                        .clone()
                        .expect("an enabled sketch tier sketches every class")
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
    /// pool and verdict cache stay warm across queries — not just across
    /// one query's tiles.
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
    /// interleave freely. Every cell is priced by [`Self::price_cell`].
    /// The calling thread is a worker itself; it spawns
    /// `min(threads, tiles) − 1` helpers, less one for every other batch
    /// running in this engine, so a lone query gets every core, batches
    /// that overlap get about one each, and `threads == 1` spawns none.
    /// Cancellation stays per-item: a cancelled item's remaining tiles are
    /// skipped while the rest of the batch keeps computing; its partial
    /// matrix is discarded by the caller.
    /// On a lazily backed engine the same pass is the **fan-out** step:
    /// the flat tile space already spans every shard's class range, a
    /// pair that survives pricing pulls its shard into memory (and its
    /// record is decoded on a cache miss), and `batch.touched` records
    /// which `(item, shard)` pairs were consulted. The final row
    /// copy-back below is the merge step — because shards partition the
    /// class index space in order, it concatenates per-shard submatrices
    /// into exactly the matrix a resident engine computes, bit for bit.
    /// Each cell's [`Rung`] rides along; the sketch rung's outcome counts
    /// are kept per worker and added to the engine's counters once.
    fn vcp_matrix_batch(
        &self,
        batch: &BatchPass<'_>,
    ) -> (Vec<ItemMatrix>, Vec<Option<ShardError>>) {
        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            self.config.threads
        };
        let queries = &batch.queries;
        let nc = self.classes.len();
        let mut matrices: Vec<ItemMatrix> = queries
            .iter()
            .map(|q| {
                let nq = q.as_ref().map_or(0, |q| q.len());
                ItemMatrix {
                    vcp: vec![vec![VcpPair::default(); nc]; nq],
                    rung: vec![vec![Rung::Unpriced; nc]; nq],
                }
            })
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
        let shard_errors: Vec<std::sync::OnceLock<ShardError>> = (0..queries.len())
            .map(|_| std::sync::OnceLock::new())
            .collect();
        if total_tiles == 0 || nc == 0 {
            let errors = shard_errors.into_iter().map(|l| l.into_inner()).collect();
            return (matrices, errors);
        }
        let offsets = &offsets;
        let cursor = AtomicUsize::new(0);
        let helpers = threads
            .max(1)
            .min(total_tiles)
            .saturating_sub(1 + batch.others);
        // The sketch rung's inputs, resolved once before the workers
        // spawn: the LSH index over corpus sketches and one candidate
        // mask per query strand of every item (mask[ci] = class ci
        // shares a band).
        let sketch = self.ensure_sketch_index().map(|index| {
            let masks: Vec<Vec<Option<Vec<bool>>>> = queries
                .iter()
                .map(|q| {
                    q.as_ref().map_or_else(Vec::new, |q| {
                        q.iter()
                            .map(|s| s.sketch.as_ref().map(|s| index.candidates(s)))
                            .collect()
                    })
                })
                .collect();
            (index, masks)
        });
        let sketch = &sketch;
        // Whole-shard pruning (sub-linear fan-out): when the engine holds
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
                let cfg = self.config.active_sketch()?;
                let (margin, window) = (cfg.exact_fallback_margin, cfg.probe_window());
                if margin <= window {
                    return None;
                }
                let limit = lazy.class_limit();
                let class_shard: Vec<u32> = (0..limit)
                    .map(|ci| lazy.shard_of_class(ci) as u32)
                    .collect();
                let skip: Vec<Vec<bool>> = queries
                    .iter()
                    .map(|q| {
                        let sketches: Option<Vec<&SemanticSketch>> = q
                            .as_ref()
                            .and_then(|q| q.iter().map(|s| s.sketch.as_ref()).collect());
                        let Some(sketches) = sketches else {
                            return vec![false; summaries.len()];
                        };
                        let keys: Vec<Vec<u64>> = sketches
                            .iter()
                            .map(|s| s.band_keys(cfg.bands, cfg.rows))
                            .collect();
                        let can_skip = |sum: &ShardBandSummary| {
                            let mut strands = sketches.iter().zip(&keys);
                            strands.all(|(s, k)| sum.can_skip(s, k, margin, window))
                        };
                        summaries.iter().map(can_skip).collect()
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
        let shard_errors_ref = &shard_errors;
        type Tile = (usize, usize, usize, Vec<VcpPair>, Vec<Rung>);
        let work = || -> Vec<Tile> {
            let mut session = self.checkout_session();
            let stats0 = session.stats();
            let mut counts = RungCounts::default();
            let mut out: Vec<Tile> = Vec::new();
            loop {
                let tile = cursor.fetch_add(1, Ordering::Relaxed);
                if tile >= total_tiles {
                    break;
                }
                // Decode (item, strand, class-range) from the flat tile id.
                let b = offsets.partition_point(|&o| o <= tile) - 1;
                // Poll cancellation (and the shard-failure latch) between
                // tiles: a timed-out, abandoned or corruption-failed item
                // stops issuing verifier work within one tile's latency
                // while the rest of the batch keeps going.
                if batch.items[b].cancel.is_cancelled() || shard_errors_ref[b].get().is_some() {
                    continue;
                }
                let local = tile - offsets[b];
                let qi = local / tiles_per_query;
                let start = (local % tiles_per_query) * Self::VCP_TILE;
                let end = (start + Self::VCP_TILE).min(nc);
                let q = &queries[b].as_ref().expect("tiles only for live items")[qi];
                let lsh = sketch.as_ref().and_then(|(index, masks)| {
                    masks[b][qi].as_deref().map(|mask| (&**index, mask))
                });
                let mut row = vec![VcpPair::default(); end - start];
                let mut rungs = vec![Rung::Unpriced; end - start];
                for ((cell, rung), ci) in row.iter_mut().zip(&mut rungs).zip(start..end) {
                    // Whole-shard prune: provably equivalent to the
                    // per-cell sketch prune, decided without touching the
                    // class.
                    if let Some((class_shard, skip)) = shard_skip {
                        if ci < class_shard.len() && skip[b][class_shard[ci] as usize] {
                            continue;
                        }
                    }
                    match self.price_cell(batch, lsh, &mut session, &mut counts, b, q, ci) {
                        Ok((r, v)) => (*rung, *cell) = (r, v),
                        Err(e) => {
                            let _ = shard_errors_ref[b].set(e);
                        }
                    }
                }
                out.push((b, qi, start, row, rungs));
            }
            self.prefilter_stats.add_rungs(&counts);
            self.solver.add(&session.stats().delta_since(&stats0));
            self.return_session(session);
            out
        };
        let tiles: Vec<Tile> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
            let mut tiles = work();
            for h in handles {
                tiles.extend(h.join().expect("worker panicked"));
            }
            tiles
        });
        for (b, qi, start, row, rungs) in tiles {
            let end = start + row.len();
            matrices[b].vcp[qi][start..end].copy_from_slice(&row);
            matrices[b].rung[qi][start..end].copy_from_slice(&rungs);
        }
        let errors = shard_errors.into_iter().map(|l| l.into_inner()).collect();
        (matrices, errors)
    }

    /// Prices one matrix cell down the ladder: the cheap filters, the
    /// sketch rung (when the query strand carries an LSH candidate mask,
    /// `lsh`), then the exact step behind a counted cache lookup. Returns
    /// the rung that decided the cell with its value; a pair dropped by
    /// any rung prices as the zero pair.
    #[allow(clippy::too_many_arguments)]
    fn price_cell(
        &self,
        batch: &BatchPass<'_>,
        lsh: Option<(&SketchIndex, &[bool])>,
        session: &mut VerifierSession,
        counts: &mut RungCounts,
        item: usize,
        q: &QueryStrand,
        ci: usize,
    ) -> Result<(Rung, VcpPair), ShardError> {
        let class = &self.classes[ci];
        if !self.passes_cheap_filters(q.vars, &q.signature, class) {
            return Ok((Rung::Filtered, VcpPair::default()));
        }
        if let Some(lsh) = lsh {
            if !self.sketch_rung(batch, lsh, counts, item, q, ci)? {
                return Ok((Rung::Pruned, VcpPair::default()));
            }
        }
        self.open_cell(ci, item, &batch.touched)?;
        let key = (q.hash, class.hash, batch.vcp_fp);
        let v = match self.cache.get(&key) {
            Some(v) => v,
            None => self.verify_cell(session, q, ci, key)?,
        };
        Ok((Rung::Exact, v))
    }

    /// The ladder's cheap rungs: the §5.5 size-ratio filter, then the
    /// semantic-signature bound, which rejects a pair only when its
    /// overlap falls below the threshold in both directions. Both
    /// directions come from one merge per signature round
    /// ([`Signature::either_overlap_reaches`]), which stops at the first
    /// round where both are below. The matrix pass prices every cell it
    /// reaches through here; refine runs it only on cells whole-shard
    /// pruning left unpriced.
    fn passes_cheap_filters(
        &self,
        vars: usize,
        signature: &Signature,
        class: &StrandClass,
    ) -> bool {
        size_ratio_ok(&self.config.vcp, vars, class.vars)
            && signature.either_overlap_reaches(&class.signature, self.config.prefilter_threshold)
    }

    /// The sketch rung for one cell; `Ok(false)` prunes the pair. Every
    /// pair is priced by its containment bounds: both below the margin
    /// prunes it (sound: the bounds never underestimate VCP, so no pair
    /// at or above the margin is ever skipped, and a below-margin pair
    /// contributes the no-evidence likelihood floor rather than an
    /// inflated estimate). Bounds inside the ambiguity window around the
    /// margin re-sketch both strands on extra probe vectors and re-apply
    /// the margin to the refined bounds; anything else goes to the exact
    /// verifier. An LSH band collision is recorded for observability;
    /// under the pre-probe rule (no ambiguity window) a collision still
    /// forces exact verification, while staged pricing lets the margin
    /// prune spurious band matches too (a true same-source pair has bound
    /// 1.0 and always verifies either way). Outcomes are tallied in the
    /// calling worker's `counts`.
    fn sketch_rung(
        &self,
        batch: &BatchPass<'_>,
        (index, mask): (&SketchIndex, &[bool]),
        counts: &mut RungCounts,
        item: usize,
        q: &QueryStrand,
        ci: usize,
    ) -> Result<bool, ShardError> {
        let (Some(cfg), Some(qs)) = (self.config.active_sketch(), &q.sketch) else {
            return Ok(true);
        };
        let collided = mask[ci];
        counts.collisions += u64::from(collided);
        let (margin, window) = (cfg.exact_fallback_margin, cfg.probe_window());
        if collided && window <= 0.0 {
            return Ok(true);
        }
        let (c_q, c_t) = qs.containment_both(index.sketch(ci));
        match bounds_decision(c_q, c_t, margin, window) {
            SketchDecision::Prune => {
                counts.pruned += 1;
                return Ok(false);
            }
            SketchDecision::Probe => {
                counts.probes += 1;
                let (r_q, r_t) = self.probe_bounds(cfg, q, ci, || {
                    self.open_cell(ci, item, &batch.touched)?;
                    self.class_proc(ci)
                })?;
                if r_q < margin && r_t < margin {
                    counts.pruned += 1;
                    return Ok(false);
                }
                counts.escalations += 1;
            }
            SketchDecision::Exact => {}
        }
        counts.fallbacks += 1;
        Ok(true)
    }

    /// The refined containment bounds `(q in t, t in q)` of query strand
    /// `q` against class `ci`, from both sides' probe sketches.
    /// `class_proc` runs only while the class's slot is empty, so a filled
    /// slot never loads or decodes a shard.
    fn probe_bounds<'p>(
        &'p self,
        cfg: &PrefilterConfig,
        q: &QueryStrand,
        ci: usize,
        class_proc: impl FnOnce() -> Result<ClassProcRef<'p>, ShardError>,
    ) -> Result<(f64, f64), ShardError> {
        let stats = &self.prefilter_stats;
        let pq = probe_sketch(&q.probe, cfg, stats, || self.strand_proc(q))?;
        let pt = probe_sketch(&self.classes[ci].probe, cfg, stats, class_proc)?;
        Ok(pq.containment_both(pt))
    }

    /// Opens class `ci`'s shard for batch item `item` and records the
    /// fan-out. Runs before any cache lookup on the cell, so the
    /// persisted cache segment can answer it (see
    /// [`Self::ensure_class_shard`]); the class record itself is only
    /// decoded on a miss — a cache hit never pays the decode.
    fn open_cell(&self, ci: usize, item: usize, touched: &ShardTouch) -> Result<(), ShardError> {
        if let Some(shard) = self.ensure_class_shard(ci)? {
            touched.mark(item, shard);
        }
        Ok(())
    }

    /// Prices one cache-missed cell exactly: decodes class `ci` (and the
    /// query strand's own class, when it names one), runs the verifier
    /// and memoizes the verdict under `key`.
    fn verify_cell(
        &self,
        session: &mut VerifierSession,
        q: &QueryStrand,
        ci: usize,
        key: VcpKey,
    ) -> Result<VcpPair, ShardError> {
        let query = self.strand_proc(q)?;
        let class = self.class_proc(ci)?;
        let v = vcp_pair(session, &query, &class, &self.config.vcp);
        self.cache.insert(key, v);
        Ok(v)
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
            query: Query::Procedure(proc_),
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
    /// flattened `(item, strand, class-range)` tile space, and the refine
    /// pass checks out one verifier session for the whole batch. Probe
    /// sketches outlive the batch: a corpus class's is computed once per
    /// engine and kept on the class, and a strand that is no corpus class
    /// is probe-sketched at most once per batch. Every item's
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
        let others = self.passes.fetch_add(1, Ordering::Relaxed);
        let _pass = PassGuard(&self.passes);
        let mut prep_memo: HashMap<u64, PreparedStrand> = HashMap::new();
        let batch = BatchPass {
            items,
            others,
            vcp_fp: self.config.vcp.fingerprint(),
            queries: items
                .iter()
                .map(|it| {
                    (!it.cancel.is_cancelled()).then(|| match it.query {
                        Query::Procedure(p) => self.prepare_query_memo(p, &mut prep_memo),
                        Query::Target(t) => self.prepare_target(t),
                    })
                })
                .collect(),
            touched: ShardTouch::new(
                items.len(),
                self.shards.as_ref().map_or(0, |l| l.shard_count()),
            ),
        };
        let (matrices, shard_errors) = self.vcp_matrix_batch(&batch);
        // One verifier session refines the whole batch.
        let refine_enabled = self
            .config
            .active_sketch()
            .is_some_and(|cfg| cfg.refine_top_k > 0)
            && !self.targets.is_empty()
            && self.ensure_sketch_index().is_some();
        let mut refine_session = refine_enabled.then(|| {
            let s = self.checkout_session();
            let stats0 = s.stats();
            (s, stats0)
        });
        let mut results = Vec::with_capacity(items.len());
        for (i, it) in items.iter().enumerate() {
            let (Some(query), matrix) = (&batch.queries[i], &matrices[i]) else {
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
            let h0 = self.strand_h0(query, &matrix.vcp);
            let mut scores = self.score_targets(&matrix.vcp, &h0);
            let refined = match &mut refine_session {
                Some((session, _)) => {
                    self.refine_served_window(&batch, i, query, matrix, &h0, &mut scores, session)
                }
                None => Ok(()),
            };
            results.push(refined.map(|()| QueryScores {
                scores,
                query_strands: query.len(),
                query_strand_occurrences: query.iter().map(|q| q.count as usize).sum(),
            }));
        }
        if let Some((session, stats0)) = refine_session {
            self.solver.add(&session.stats().delta_since(&stats0));
            self.return_session(session);
        }
        if let Some(lazy) = &self.shards {
            lazy.add_fanout(batch.touched.count());
        }
        results
    }

    /// H0 per query strand, built once per query from the estimated
    /// matrix and shared by scoring and refine: the corpus-wide mean over
    /// every strand occurrence (weighted by class multiplicity), kept as
    /// the logs Eq. 5 subtracts, beside the strand's occurrence weight.
    /// Pure in the matrix, so refined scores stay a pure function of the
    /// query, corpus and config. Zero cells, the bulk of a matrix, share
    /// one `likelihood(0.0)`; the sums run in [`H0Accumulator::add`]'s
    /// order, so the bits are those of a per-cell `add`.
    fn strand_h0(&self, query: &[QueryStrand], matrix: &[Vec<VcpPair>]) -> Vec<StrandH0> {
        let zero_pr = likelihood(0.0);
        query
            .iter()
            .zip(matrix)
            .map(|(q, row)| {
                let mut h0 = H0Accumulator::default();
                for (v, class) in row.iter().zip(&self.classes) {
                    let vcp = v.q_in_t;
                    let pr = if vcp == 0.0 { zero_pr } else { likelihood(vcp) };
                    h0.add_likelihood(vcp, pr, class.corpus_count);
                }
                StrandH0::new(&h0, q.count)
            })
            .collect()
    }

    /// Scores every target from a computed VCP matrix. Pure in the matrix;
    /// float summation order must stay fixed (targets in insertion order,
    /// query strands in canonical hash order) so concurrent and offline
    /// rankings agree bit-for-bit.
    fn score_targets(&self, matrix: &[Vec<VcpPair>], h0: &[StrandH0]) -> Vec<TargetScore> {
        // Each class's best VCP against any query strand (S-VCP), folded
        // over the rows in order.
        let mut max_t = vec![0.0f64; self.classes.len()];
        for row in matrix {
            for (m, v) in max_t.iter_mut().zip(row) {
                *m = m.max(v.t_in_q);
            }
        }
        let mut max_q = vec![0.0f64; matrix.len()];
        (0..self.targets.len())
            .map(|ti| {
                let strands = &self.targets[ti].strands;
                for (m, row) in max_q.iter_mut().zip(matrix) {
                    *m = strands
                        .iter()
                        .map(|&(ci, _)| row[ci].q_in_t)
                        .fold(0.0f64, f64::max);
                }
                self.score_target(ti, &max_q, |ci| max_t[ci], h0)
            })
            .collect()
    }

    /// One target's scores from its VCP maxima: `max_q[qi]`, the best
    /// VCP of query strand `qi` in any of the target's classes (GES and
    /// S-LOG, Eq. 1's LES terms against H0), and `max_t(ci)`, the best
    /// VCP of class `ci` against any query strand (S-VCP). The matrix
    /// pass and the refine pass both score through here, so two sets of
    /// equal maxima give bit-identical scores.
    fn score_target(
        &self,
        ti: usize,
        max_q: &[f64],
        max_t: impl Fn(usize) -> f64,
        h0: &[StrandH0],
    ) -> TargetScore {
        let target = &self.targets[ti];
        let terms = || max_q.iter().zip(h0);
        let ges_score = ges(terms().map(|(&v, h)| h.ges_term(v)));
        let s_log = ges(terms().map(|(&v, h)| h.slog_term(v)));
        // S-VCP: Σ over target strand occurrences of the best VCP of
        // that strand against any query strand (no statistics).
        let mut s_vcp = 0.0;
        for &(ci, n) in &target.strands {
            s_vcp += max_t(ci) * n as f64;
        }
        TargetScore {
            target: TargetId(ti),
            name: target.name.clone(),
            ges: ges_score,
            s_log,
            s_vcp,
        }
    }

    /// The refine-top-K second pass: makes every score behind the served
    /// ranking window **exact** (scanning 2× the served depth so rank-K
    /// membership is decided among exact scores, not estimates), then
    /// re-ranks — to a fixpoint, since exact repricing can pull new
    /// targets into the window.
    ///
    /// Each window target's cells are read off the matrix pass's rung
    /// record rather than priced again. Filtered cells stay zero. Exact
    /// cells take their verdict straight from the matrix, with no cache
    /// lookup and no shard open: the matrix pass opened the shard and
    /// marked the fan-out. Sketch-pruned cells are checked in the
    /// [`VcpCache`] (other queries may have verified them), and cells
    /// whole-shard pruning left unpriced first pass the cheap filters,
    /// then go the same way. The pruned cells still unknown are verified
    /// in descending-bound order, but **only while their containment
    /// bound can still beat the target's current exact maximum** (per
    /// query strand for GES/S-LOG, per class for S-VCP). A skipped cell
    /// provably cannot change either maximum — the bound never
    /// underestimates VCP — so each window target's final maxima are its
    /// true maxima, whatever subset of cells the cache already knew.
    ///
    /// Scores are rebuilt from those maxima via
    /// [`SimilarityEngine::score_target`] against `h0`, the query's H0
    /// **frozen at the estimated matrix** (the same values
    /// [`Self::score_targets`] used). The matrix itself is never mutated:
    /// which cells the pass verifies (and which it dominance-skips or
    /// finds pre-cached) depends on cross-query cache state, so folding
    /// those values back into H0 would make served GES depend on engine
    /// history — the serving layer's byte-identity contract
    /// (`bench-serve`) demands that a query's response be a pure
    /// function of the query, corpus and config. With frozen H0 and true
    /// maxima, it is. The served window's internal order equals the
    /// exhaustive engine's relative order of those targets: LES
    /// differences between targets share the per-strand H0 term, which
    /// cancels (absolute GES still differs from the exhaustive engine by
    /// that H0 offset, identically for every window target).
    ///
    /// Terminates because the refined-target set grows monotonically and
    /// is bounded by the corpus. Runs only when the sketch tier and
    /// [`PrefilterConfig::refine_top_k`] are on (`query_batch` checks).
    #[allow(clippy::too_many_arguments)]
    fn refine_served_window(
        &self,
        batch: &BatchPass<'_>,
        item: usize,
        query: &[QueryStrand],
        matrix: &ItemMatrix,
        h0: &[StrandH0],
        scores: &mut [TargetScore],
        session: &mut VerifierSession,
    ) -> Result<(), QueryError> {
        let (Some(cfg), Some(index)) = (self.config.active_sketch(), self.ensure_sketch_index())
        else {
            return Ok(());
        };
        if query.is_empty() {
            return Ok(());
        }
        let cancel = &batch.items[item].cancel;
        let mut refined_targets = vec![false; self.targets.len()];
        let mut refined_pairs = 0u64;
        // Per-target scratch, reset after each target: exact maxima per
        // query strand (drives GES/S-LOG) and per class (drives S-VCP),
        // and the pruned cells still unknown, `(bound_q, bound_t, qi, ci)`.
        let mut max_q = vec![0.0f64; query.len()];
        let mut max_t = vec![0.0f64; self.classes.len()];
        let mut unknown: Vec<(f64, f64, usize, usize)> = Vec::new();
        self.prefilter_stats.record_refine_pass();
        let mut refine = || -> Result<(), QueryError> {
            loop {
                // The served window under the current scores — the same
                // order `QueryScores::ranked` serves (GES desc, TargetId
                // asc).
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
                // pruned evidence would lift it from rank 12 to rank 8
                // never enters the window. Scanning twice the served depth
                // prices the contenders exactly too, so membership at
                // rank K is decided among exact scores (bounded, and
                // deterministic because the scan depth depends only on
                // config).
                let pending: Vec<usize> = order
                    .into_iter()
                    .take(cfg.refine_top_k.saturating_mul(2))
                    .filter(|&ti| !refined_targets[ti])
                    .collect();
                if pending.is_empty() {
                    return Ok(());
                }
                for ti in pending {
                    refined_targets[ti] = true;
                    if cancel.is_cancelled() {
                        return Err(QueryError::Cancelled);
                    }
                    let strands = &self.targets[ti].strands;
                    for &(ci, _) in strands {
                        let class = &self.classes[ci];
                        for (qi, q) in query.iter().enumerate() {
                            match matrix.rung[qi][ci] {
                                Rung::Filtered => continue,
                                Rung::Exact => {
                                    let v = matrix.vcp[qi][ci];
                                    max_q[qi] = max_q[qi].max(v.q_in_t);
                                    max_t[ci] = max_t[ci].max(v.t_in_q);
                                    continue;
                                }
                                Rung::Unpriced
                                    if !self.passes_cheap_filters(q.vars, &q.signature, class) =>
                                {
                                    continue
                                }
                                Rung::Unpriced | Rung::Pruned => {}
                            }
                            // The window scan must see the persisted cache
                            // segment of every class it peeks, and counts
                            // toward this item's fan-out.
                            self.open_cell(ci, item, &batch.touched)?;
                            let key = (q.hash, class.hash, batch.vcp_fp);
                            // `peek`, not `get`: this scan separates known
                            // from pruned cells and must not distort the
                            // miss counter the benches report as verifier
                            // calls.
                            if let Some(v) = self.cache.peek(&key) {
                                max_q[qi] = max_q[qi].max(v.q_in_t);
                                max_t[ci] = max_t[ci].max(v.t_in_q);
                                continue;
                            }
                            // Probe-sketch bounds are the tightest
                            // available: every tightened bound is another
                            // chance to dominance-skip a verification. With
                            // probing off (`lsh_only`) that is the base
                            // sketch. No sketch to bound with: always verify.
                            let (c_q, c_t) = match &q.sketch {
                                Some(qs) if cfg.probe_window() == 0.0 => {
                                    qs.containment_both(index.sketch(ci))
                                }
                                Some(_) => self.probe_bounds(cfg, q, ci, || self.class_proc(ci))?,
                                None => (1.0, 1.0),
                            };
                            unknown.push((c_q, c_t, qi, ci));
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
                    for (c_q, c_t, qi, ci) in unknown.drain(..) {
                        if c_q <= max_q[qi] && c_t <= max_t[ci] {
                            // True VCP ≤ bound ≤ an exact value already in
                            // the matrix: this cell cannot move any maximum.
                            continue;
                        }
                        if cancel.is_cancelled() {
                            return Err(QueryError::Cancelled);
                        }
                        let q = &query[qi];
                        let key = (q.hash, self.classes[ci].hash, batch.vcp_fp);
                        // `peek` again (see above): refine's lookups are
                        // state-dependent (a warm repeat verifies nothing),
                        // so counting them would make the hit/miss totals
                        // nondeterministic. [`PrefilterStats::refined_pairs`]
                        // carries refine's verifier work instead. The
                        // re-peek also picks up a value a concurrent query
                        // inserted since the scan.
                        let v = match self.cache.peek(&key) {
                            Some(v) => v,
                            None => {
                                let v = self.verify_cell(session, q, ci, key)?;
                                refined_pairs += 1;
                                v
                            }
                        };
                        max_q[qi] = max_q[qi].max(v.q_in_t);
                        max_t[ci] = max_t[ci].max(v.t_in_q);
                    }
                    // Exact maxima in hand: rebuild this target's score
                    // against the frozen H0. `scores` is in target order
                    // (score_targets builds it that way), so `ti` indexes
                    // it.
                    scores[ti] = self.score_target(ti, &max_q, |ci| max_t[ci], h0);
                    max_q.fill(0.0);
                    for &(ci, _) in strands {
                        max_t[ci] = 0.0;
                    }
                }
            }
        };
        let outcome = refine();
        self.prefilter_stats.record_refined_pairs(refined_pairs);
        outcome
    }

    /// Overrides [`EngineConfig::threads`] for subsequent queries: at
    /// most this many threads price one matrix pass, the caller
    /// included. Threads only change scheduling, never scores (the VCP
    /// matrix is a pure function per cell), so this is safe to adjust
    /// after opening an index. Concurrent batches need no cap of their
    /// own: each spawns fewer helpers while others run.
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
            sketch: PrefilterConfig {
                refine_top_k: 0,
                ..PrefilterConfig::default()
            },
            ..quick_config()
        });
        let mut off = SimilarityEngine::new(EngineConfig {
            sketch: PrefilterConfig {
                enabled: false,
                ..PrefilterConfig::default()
            },
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
            sketch: PrefilterConfig {
                enabled: false,
                ..PrefilterConfig::default()
            },
            ..quick_config()
        });
        for (i, (_, p)) in demo::cve_functions().into_iter().enumerate() {
            with.add_target(format!("t{i}"), &gcc().compile_function(&p));
            without.add_target(format!("t{i}"), &gcc().compile_function(&p));
        }
        with.disable_prefilter();
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
            sketch: PrefilterConfig {
                enabled: false,
                ..PrefilterConfig::default()
            },
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
        let order =
            |s: &QueryScores| -> Vec<TargetId> { s.ranked().iter().map(|t| t.target).collect() };
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
            ambiguity_window: 1.0,
            refine_top_k: 0,
            ..PrefilterConfig::default()
        };
        let mut on = SimilarityEngine::new(EngineConfig {
            sketch: probing,
            ..quick_config()
        });
        let mut off = SimilarityEngine::new(EngineConfig {
            sketch: PrefilterConfig {
                enabled: false,
                ..PrefilterConfig::default()
            },
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
    fn default_fingerprint_is_pinned() {
        // Every index written with these configs records these values; if
        // one changes, none of those indexes opens any more, so a value
        // moves here only together with the index format version.
        let with_sketch = |sketch| EngineConfig {
            sketch,
            ..EngineConfig::default()
        };
        let off = PrefilterConfig {
            enabled: false,
            ..PrefilterConfig::default()
        };
        for (config, pinned) in [
            (EngineConfig::default(), 3_703_170_601_230_773_672),
            (
                with_sketch(PrefilterConfig::lsh_only()),
                16_594_287_068_245_332_234,
            ),
            (with_sketch(off), 12_009_758_868_313_995_649),
        ] {
            assert_eq!(config.fingerprint(), pinned, "{:?}", config.sketch);
        }
    }

    #[test]
    fn equiv_stats_aggregate_session_decisions() {
        let mut engine = SimilarityEngine::new(quick_config());
        let f = demo::wget_like();
        engine.add_target("clang", &clang().compile_function(&f));
        engine.add_target("icc", &icc().compile_function(&f));
        engine.query(&gcc().compile_function(&f));
        let stats = engine.equiv_stats();
        assert!(stats.decisions().iter().map(|(_, n)| n).sum::<u64>() > 0);
        assert_eq!(stats.solver, engine.solver_stats());
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

    /// A shard source whose every shard fails to open.
    #[derive(Debug)]
    struct Unreadable;

    impl ShardSource for Unreadable {
        fn open_shard(&self, _: usize) -> Result<Box<dyn crate::ShardRecords>, String> {
            Err("unreadable".into())
        }
    }

    #[test]
    fn pass_count_returns_to_zero_after_cancelled_and_corrupted_items() {
        let f = demo::heartbleed_like();
        let mut engine = SimilarityEngine::new(quick_config());
        engine.add_target("tp", &clang().compile_function(&f));
        engine.add_target("fp", &clang().compile_function(&demo::venom_like()));
        let q = gcc().compile_function(&f);
        let dead = CancelToken::new();
        dead.cancel();
        let items = [
            BatchQuery {
                query: Query::Procedure(&q),
                cancel: dead.clone(),
            },
            BatchQuery {
                query: Query::Target(TargetId(1)),
                cancel: CancelToken::new(),
            },
        ];
        let results = engine.query_batch(&items);
        assert!(matches!(results[0], Err(QueryError::Cancelled)));
        assert!(results[1].is_ok());
        assert_eq!(engine.passes.load(Ordering::Relaxed), 0);
        assert!(engine.query_cancellable(&q, &dead).is_err());
        assert_eq!(engine.passes.load(Ordering::Relaxed), 0);

        // The same corpus over a source that cannot open its one shard.
        let export = engine.export_corpus().unwrap();
        let classes = export
            .classes
            .into_iter()
            .map(|c| LazyClassMeta {
                name: c.name,
                signature: c.signature,
                vars: c.vars,
                hash: c.hash,
                sketch: c.sketch,
            })
            .collect::<Vec<_>>();
        let spec = ShardSpec {
            class_start: 0,
            class_end: classes.len(),
            target_start: 0,
            target_end: export.targets.len(),
        };
        let lazy = SimilarityEngine::from_lazy_parts(
            export.config,
            classes,
            export.targets,
            vec![spec],
            Box::new(Unreadable),
            false,
        )
        .unwrap();
        let item = BatchQuery {
            query: Query::Target(TargetId(0)),
            cancel: CancelToken::new(),
        };
        let result = lazy.query_batch(&[item]).pop().unwrap();
        assert!(matches!(result, Err(QueryError::Corrupted(_))));
        assert_eq!(lazy.passes.load(Ordering::Relaxed), 0);
    }
}
