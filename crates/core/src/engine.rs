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
//!
//! This module holds the public API, opening, export, `add_target` and
//! query preparation; one submodule per phase of a query does the rest:
//! `matrix` (the tiled matrix pass and its workers), `ladder` (how one
//! cell is priced) and `score` (H0, GES and the served-window refine).

mod ladder;
mod matrix;
mod score;

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
    Signature,
};
use esh_verifier::VerifierSession;
use serde::{Deserialize, Serialize};

use crate::cache::{CacheStats, VcpCache, VcpCacheEntry};
use crate::coded::{CodedClasses, CodedStrand, StrandTable};
use crate::prefilter::{
    compute_sketch, PrefilterConfig, PrefilterStats, PrefilterStatsSnapshot, SemanticSketch,
    SketchIndex,
};
use crate::shard::{
    check_lazy_parts, ClassExport, CorpusExport, LazyClassMeta, LazyShards, ShardError,
    ShardSource, ShardSpec, ShardStats, ShardTouch, TargetExport,
};
use crate::vcp::VcpConfig;

pub use score::{QueryScores, TargetScore};

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

/// One deduplicated strand shape. Its lifted procedure is not part of
/// it: [`SimilarityEngine::class_proc`] reads it from [`ClassProcs`].
#[derive(Debug, Clone)]
pub(crate) struct StrandClass {
    /// Display name, the name of the strand's lifted procedure.
    pub(crate) name: String,
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

/// A strand's probe-sketch slot, filled by the first ambiguous pair the
/// strand takes part in (see `ladder`).
type ProbeSlot = Arc<OnceLock<SemanticSketch>>;

/// Where the classes' lifted procedures live.
#[derive(Debug)]
enum ClassProcs {
    /// In memory, one per class in class order: an engine `add_target`
    /// builds.
    Resident(Vec<Proc>),
    /// Behind a sharded index, each decoded on first use: an engine
    /// [`SimilarityEngine::from_lazy_parts`] opens.
    Sharded(LazyShards),
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
    sketch: Option<SemanticSketch>,
    /// The semantic signature and base sketch, coded against the batch's
    /// dictionary for the cheap rungs' table kernel.
    coded: CodedStrand,
    probe: ProbeSlot,
    vars: usize,
    hash: u64,
    count: u64,
}

/// Per-strand artifacts memoized across one batch of queries (keyed by
/// structural hash): all are pure functions of the lifted strand.
#[derive(Debug, Clone)]
struct PreparedStrand {
    sketch: Option<SemanticSketch>,
    coded: CodedStrand,
    /// The corpus class's slot when the strand is one, else a slot
    /// shared by the batch.
    probe: ProbeSlot,
}

/// What queries derive from the corpus classes: built on the first
/// query, in one slot that every change to the classes empties.
#[derive(Debug)]
struct Derived {
    /// The banded LSH index over the class sketches, under an enabled
    /// sketch tier.
    sketch_index: Option<SketchIndex>,
    /// The class signatures and base sketches, dictionary-coded for the
    /// cheap rungs.
    codes: CodedClasses,
    /// Class ids sorted by `(vars, id)`, and their variable counts in the
    /// same order: a query strand's size-ratio window is one range of
    /// them ([`crate::vcp::size_ratio_window`]).
    by_size: Vec<usize>,
    sorted_vars: Vec<usize>,
}

/// What one [`SimilarityEngine::query_batch`] call shares between its
/// matrix pass and its refine pass.
struct BatchPass<'a> {
    items: &'a [BatchQuery<'a>],
    derived: &'a Derived,
    /// The VCP config's fingerprint, the third part of every cache key.
    vcp_fp: u64,
    /// Other batches running in this engine when this one started.
    others: usize,
    /// Whether every LSH non-candidate prunes whatever its bounds
    /// ([`PrefilterConfig::bounds_always_prune`]), so the ladder settles
    /// it from the candidate mask before any other rung.
    mask_settles: bool,
    /// Prepared strands per item; `None` for items cancelled before
    /// preparation.
    queries: Vec<Option<Vec<QueryStrand>>>,
    /// Which shards each item read a class record from, for the fan-out
    /// counter.
    touched: ShardTouch,
}

impl<'a> BatchPass<'a> {
    /// Item `item` as the ladder and refine see it, or `None` when it was
    /// cancelled before preparation.
    fn item(&'a self, item: usize) -> Option<ItemPass<'a>> {
        let strands = self.queries[item].as_deref()?;
        Some(ItemPass {
            batch: self,
            item,
            strands,
        })
    }
}

/// One live batch item: its position in the batch, its prepared strands
/// and the batch state it shares — the context every pricing and refine
/// step of the item takes.
struct ItemPass<'a> {
    batch: &'a BatchPass<'a>,
    item: usize,
    strands: &'a [QueryStrand],
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
    Shared(Arc<Proc>),
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
    /// across one query's tiles — each with its worker's strand table.
    /// SAT queries never share a solver: each runs on its own fresh
    /// blaster.
    sessions: Mutex<Vec<(VerifierSession, StrandTable)>>,
    /// Engine-lifetime decision counters: the sum of the [`EquivStats`]
    /// deltas of every worker session, added once per worker rather than
    /// once per pair.
    solver: Mutex<EquivStats>,
    prefilter_stats: PrefilterStats,
    /// The LSH index and the coded classes, built on the first query
    /// from the signatures and sketches every class carries, and dropped
    /// whenever the classes change (`add_target`, `disable_prefilter`).
    derived: OnceLock<Derived>,
    /// The classes' lifted procedures: resident, or decoded on first use
    /// from a sharded `.eshx` index.
    procs: ClassProcs,
    /// [`Self::query_batch`] calls running now; each one's matrix pass
    /// spawns fewer helpers for every other (see
    /// [`EngineConfig::threads`]). A scheduling hint that publishes no
    /// data, hence `Relaxed`.
    passes: AtomicUsize,
    /// Query strands lifted from a procedure's assembly, engine lifetime.
    lifted: AtomicU64,
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
            solver: Mutex::default(),
            prefilter_stats: PrefilterStats::default(),
            derived: OnceLock::new(),
            procs: ClassProcs::Resident(Vec::new()),
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
        self.equiv_stats().solver
    }

    /// Aggregate decision counters across all worker sessions this engine
    /// has run: how many term pairs each layer of the equivalence checker
    /// decided, plus the SAT counters of [`Self::solver_stats`].
    pub fn equiv_stats(&self) -> EquivStats {
        *self.solver.lock().expect("solver counters poisoned")
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
        self.derived.take();
        for class in &mut self.classes {
            class.sketch = None;
            class.probe = ProbeSlot::default();
        }
    }

    /// The lifted procedure of class `ci`, pulling its shard into memory
    /// (again, if evicted) on demand when the engine is lazily backed —
    /// the only place a shard opens. Under per-record demand decoding a
    /// corrupt record is only discovered when its class is first decoded,
    /// here, at proc-need time, so the checksum error surfaces as a typed
    /// [`ShardError`], never a panic.
    fn class_proc(&self, ci: usize) -> Result<ClassProcRef<'_>, ShardError> {
        match &self.procs {
            ClassProcs::Resident(procs) => Ok(ClassProcRef::Resident(&procs[ci])),
            ClassProcs::Sharded(lazy) => {
                let class = &self.classes[ci];
                let expect = (class.hash, class.vars);
                let proc_ = lazy.proc_ref(ci, expect, &class.name)?;
                Ok(ClassProcRef::Shared(proc_))
            }
        }
    }

    /// The lazy backing store of an engine opened from a sharded index.
    fn shards(&self) -> Option<&LazyShards> {
        match &self.procs {
            ClassProcs::Resident(_) => None,
            ClassProcs::Sharded(lazy) => Some(lazy),
        }
    }

    /// Sets the resident-bytes budget for lazily-loaded shards (0 =
    /// unbounded): least-recently-used shards are evicted — and reloaded
    /// on the next touch — to keep resident payload bytes at or under
    /// the budget. No effect on fully resident engines.
    pub fn set_shard_budget(&self, bytes: u64) {
        if let Some(lazy) = self.shards() {
            lazy.set_budget(bytes);
        }
    }

    /// Shard counters: total/loaded shard counts and query fan-out. All
    /// zero for fully resident engines.
    pub fn shard_stats(&self) -> ShardStats {
        self.shards()
            .map_or_else(ShardStats::default, LazyShards::stats)
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
    /// pricing metadata, targets and the persisted VCP verdicts `cache`
    /// are resident — the verdicts inserted now, without touching the
    /// hit/miss counters — and procedures come from `source` on demand.
    /// Each class's corpus count, its H0 weight, is the sum of its
    /// occurrences over the target strand lists.
    ///
    /// Validates that `specs` tile both index spaces contiguously from
    /// zero, that class hashes are unique, that target strand
    /// references are in range and no class's occurrences overflow a
    /// `u64` when summed, that every class signature has one sorted
    /// round per [`esh_strands::SIGNATURE_SEEDS`] entry and every sketch
    /// sorted digests (the prefilter merges assume both), that classes carry
    /// sketches exactly when the sketch tier is on, and, under an enabled
    /// tier, that its knobs are usable and every sketch has its
    /// `bands × rows` minhash words.
    ///
    /// Queries price every cell through the resident engine's ladder, so
    /// scores and every cache and prefilter counter equal the resident
    /// engine's; a shard opens only for a cell that needs a class's
    /// procedure.
    ///
    /// The engine is immutable: see [`SimilarityEngine::add_target`].
    pub fn from_lazy_parts(
        config: EngineConfig,
        classes: Vec<LazyClassMeta>,
        targets: Vec<TargetExport>,
        cache: Vec<VcpCacheEntry>,
        specs: Vec<ShardSpec>,
        source: Box<dyn ShardSource>,
    ) -> Result<SimilarityEngine, String> {
        let (class_by_hash, corpus_counts) = check_lazy_parts(&config, &classes, &targets, &specs)?;
        let classes = classes
            .into_iter()
            .zip(corpus_counts)
            .map(|(c, corpus_count)| StrandClass {
                name: c.name,
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
        let engine = SimilarityEngine {
            classes,
            class_by_hash,
            targets,
            procs: ClassProcs::Sharded(LazyShards::new(specs, source)),
            ..SimilarityEngine::new(config)
        };
        for e in cache {
            let key = (e.query_hash, e.class_hash, e.vcp_fingerprint);
            engine.cache.insert(key, e.pair);
        }
        Ok(engine)
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
    ///
    /// # Panics
    ///
    /// Panics on an engine opened over a sharded index
    /// ([`SimilarityEngine::from_lazy_parts`]): an opened index is
    /// immutable. Add targets to a resident engine and write a new index.
    pub fn add_target(&mut self, name: impl Into<String>, proc_: &Procedure) -> TargetId {
        let ClassProcs::Resident(procs) = &mut self.procs else {
            panic!("add_target on an engine opened over a sharded index, which is immutable");
        };
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
                        name: lifted.name.clone(),
                        signature,
                        vars,
                        hash: h,
                        corpus_count: 0,
                        sketch,
                        probe: ProbeSlot::default(),
                    });
                    procs.push(lifted);
                    self.class_by_hash.insert(h, i);
                    i
                }
            };
            self.classes[idx].corpus_count += 1;
            *per_class.entry(idx).or_default() += 1;
        }
        // New classes invalidate the derived LSH index and codes.
        self.derived.take();
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
            .map(|c| (c.corpus_count, c.vars, c.name.clone()))
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
        codes: &CodedClasses,
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
                    let p = self.prepare_strand(h, &lifted, codes);
                    memo.insert(h, p.clone());
                    p
                }
            };
            by_hash.insert(
                h,
                QueryStrand {
                    sketch: prep.sketch,
                    coded: prep.coded,
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
    fn prepare_target(&self, t: TargetId, codes: &CodedClasses) -> Vec<QueryStrand> {
        let mut strands: Vec<QueryStrand> = self.targets[t.0]
            .strands
            .iter()
            .map(|&(ci, count)| {
                let c = &self.classes[ci];
                QueryStrand {
                    proc_: StrandProc::Class(ci),
                    sketch: c.sketch.clone(),
                    coded: codes.code(&c.signature, c.sketch.as_ref()),
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

    /// Sketch, coded signature and sketch, and probe slot for one query
    /// strand. When the strand is already a corpus class (equal
    /// structural hash — the same identity the dedup and cache layers
    /// rely on), the class's stored artifacts and its probe slot are
    /// reused instead of recomputed; all are pure functions of the lifted
    /// strand, so the values are identical either way.
    fn prepare_strand(&self, h: u64, lifted: &Proc, codes: &CodedClasses) -> PreparedStrand {
        let class = self.class_by_hash.get(&h).map(|&i| &self.classes[i]);
        let computed;
        let signature = match class {
            Some(c) => &c.signature,
            None => {
                computed = semantic_signature(lifted);
                &computed
            }
        };
        let sketch =
            self.config
                .active_sketch()
                .map(|cfg| match class.and_then(|c| c.sketch.as_ref()) {
                    Some(s) => s.clone(),
                    None => compute_sketch(lifted, cfg),
                });
        PreparedStrand {
            coded: codes.code(signature, sketch.as_ref()),
            sketch,
            probe: class.map_or_else(ProbeSlot::default, |c| Arc::clone(&c.probe)),
        }
    }

    /// Returns what queries derive from the classes, building it on first
    /// use: the banded LSH index over the class sketches (under an
    /// enabled tier), the dictionary-coded signatures and sketches, and
    /// the classes in size order.
    /// Every class carries its sketch while the tier is on: `add_target`
    /// computes it, and `from_lazy_parts` refuses an index whose classes
    /// lack one.
    fn derived(&self) -> &Derived {
        self.derived.get_or_init(|| {
            let sketch_index = self.config.active_sketch().map(|cfg| {
                let sketches = self.classes.iter().map(|c| {
                    c.sketch
                        .as_ref()
                        .expect("an enabled sketch tier sketches every class")
                });
                SketchIndex::build(sketches, cfg)
            });
            let classes = self.classes.iter();
            let codes = CodedClasses::build(classes.map(|c| (&c.signature, c.sketch.as_ref())));
            let mut by_size: Vec<usize> = (0..self.classes.len()).collect();
            by_size.sort_unstable_by_key(|&ci| (self.classes[ci].vars, ci));
            let sorted_vars = by_size.iter().map(|&ci| self.classes[ci].vars).collect();
            Derived {
                sketch_index,
                codes,
                by_size,
                sorted_vars,
            }
        })
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
    /// run the exact same code path, which keeps batched results
    /// byte-identical to one-shot `esh query`.
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

    /// Scores a whole batch of queries in one shared engine pass. The
    /// serving layer calls it with one item per request, a
    /// [`Query::Target`] carrying that request's deadline; only tests
    /// pass several items.
    ///
    /// Per-item work is amortized across the batch everywhere the result
    /// cannot tell: strand classes are prepared once per distinct strand
    /// (signatures and sketches are pure functions of the lifted strand),
    /// the VCP matrices compute in a single work-stealing pass over every
    /// item's `(strand, size window)` rows and their survivors' tiles, and
    /// the refine pass checks out one verifier session for the whole
    /// batch. Probe sketches outlive the batch: a corpus class's is
    /// computed once per engine and kept on the class, and a strand that
    /// is no corpus class is probe-sketched at most once per batch. Every
    /// item's scores are still built from its own matrix with its own
    /// frozen H0, so each result is byte-identical to what a sequential
    /// [`query`](Self::query) of that procedure would return — the serve
    /// byte-identity contract extends to batched execution.
    ///
    /// Failure is per item: an item whose token fires returns
    /// `Err(QueryError::Cancelled)`, and an item that touched a corrupted
    /// shard returns `Err(QueryError::Corrupted)` naming the shard —
    /// without disturbing its neighbours (queries that avoid the bad
    /// shard keep serving).
    pub fn query_batch(&self, items: &[BatchQuery<'_>]) -> Vec<Result<QueryScores, QueryError>> {
        let (others, _pass) = self.enter_pass();
        let derived = self.derived();
        let codes = &derived.codes;
        let mut prep_memo: HashMap<u64, PreparedStrand> = HashMap::new();
        let batch = BatchPass {
            items,
            derived,
            others,
            mask_settles: self
                .config
                .active_sketch()
                .is_some_and(PrefilterConfig::bounds_always_prune),
            vcp_fp: self.config.vcp.fingerprint(),
            queries: items
                .iter()
                .map(|it| {
                    (!it.cancel.is_cancelled()).then(|| match it.query {
                        Query::Procedure(p) => self.prepare_query_memo(p, codes, &mut prep_memo),
                        Query::Target(t) => self.prepare_target(t, codes),
                    })
                })
                .collect(),
            touched: ShardTouch::new(
                items.len(),
                self.shards().map_or(0, LazyShards::shard_count),
            ),
        };
        let (matrices, shard_errors) = self.vcp_matrix_batch(&batch);
        // Refine runs when the sketch tier and its window are on; one
        // worker refines the whole batch.
        let mut refiner = (self
            .config
            .active_sketch()
            .is_some_and(|cfg| cfg.refine_top_k > 0)
            && !self.targets.is_empty())
        .then(|| self.checkout_worker());
        let mut results = Vec::with_capacity(items.len());
        for (i, (it, matrix)) in items.iter().zip(&matrices).enumerate() {
            let Some(item) = batch.item(i) else {
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
            let query = item.strands;
            let h0 = self.strand_h0(query, &matrix.vcp);
            let mut scores = self.score_targets(&matrix.vcp, &h0);
            let refined = match &mut refiner {
                Some(w) => self.refine_served_window(&item, matrix, &h0, &mut scores, w),
                None => Ok(()),
            };
            results.push(refined.map(|()| QueryScores {
                scores,
                query_strands: query.len(),
                query_strand_occurrences: query.iter().map(|q| q.count as usize).sum(),
            }));
        }
        if let Some(w) = refiner {
            self.return_worker(w);
        }
        if let Some(lazy) = self.shards() {
            let live = batch.queries.iter().filter(|q| q.is_some()).count();
            lazy.add_batch(live, batch.touched.count());
        }
        results
    }

    /// Overrides [`EngineConfig::threads`] for subsequent queries: at
    /// most this many threads price one matrix pass, the caller
    /// included. Threads only change scheduling, never scores (the VCP
    /// matrix is a pure function per cell), so this is safe to adjust
    /// after opening an index. Concurrent passes — a daemon's
    /// connections each run one — need no cap of their own: each spawns
    /// fewer helpers while others run.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ScoringMode;
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

    /// Asserts two score lists are equal bit for bit.
    fn assert_same_scores(a: &QueryScores, b: &QueryScores) {
        assert_eq!(a.scores.len(), b.scores.len());
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert_eq!(x.ges.to_bits(), y.ges.to_bits(), "{}", x.name);
            assert_eq!(x.s_log.to_bits(), y.s_log.to_bits(), "{}", x.name);
            assert_eq!(x.s_vcp.to_bits(), y.s_vcp.to_bits(), "{}", x.name);
        }
    }

    /// Counted VCP-cache lookups: one per cell the matrix pass priced
    /// exactly, whatever the cache already held.
    fn lookups(engine: &SimilarityEngine) -> u64 {
        let s = engine.cache_stats();
        s.hits + s.misses
    }

    #[test]
    fn add_target_after_a_query_rebuilds_the_derived_slot() {
        // The first query builds the LSH index and the coded classes over
        // three targets; growing the corpus must drop both, so the grown
        // engine prices every cell as an engine built from the whole
        // corpus at once.
        let corpus: Vec<_> = demo::cve_functions()
            .into_iter()
            .map(|(name, p)| (name, clang().compile_function(&p)))
            .collect();
        let q = gcc().compile_function(&demo::heartbleed_like());
        let mut grown = SimilarityEngine::new(quick_config());
        for (name, p) in &corpus[..3] {
            grown.add_target(*name, p);
        }
        grown.query(&q);
        let before = grown.prefilter_stats();
        for (name, p) in &corpus[3..] {
            grown.add_target(*name, p);
        }
        grown.reset_cache_counters();
        let a = grown.query(&q);
        let mut fresh = SimilarityEngine::new(quick_config());
        for (name, p) in &corpus {
            fresh.add_target(*name, p);
        }
        let b = fresh.query(&q);
        assert_same_scores(&a, &b);
        assert_eq!(lookups(&grown), lookups(&fresh));
        let (g, f) = (grown.prefilter_stats(), fresh.prefilter_stats());
        assert!(f.pairs_pruned > 0 && f.sketch_collisions > 0, "{f:?}");
        assert_eq!(g.pairs_pruned - before.pairs_pruned, f.pairs_pruned);
        assert_eq!(
            g.sketch_collisions - before.sketch_collisions,
            f.sketch_collisions
        );
        assert_eq!(
            g.exact_fallbacks - before.exact_fallbacks,
            f.exact_fallbacks
        );
        assert_eq!(
            g.ambiguous_probes - before.ambiguous_probes,
            f.ambiguous_probes
        );
        assert_eq!(
            g.probe_escalations - before.probe_escalations,
            f.probe_escalations
        );
    }

    #[test]
    fn disable_prefilter_after_a_query_rebuilds_the_derived_slot() {
        // Switching the tier off after a query drops the derived slot with
        // the sketches: the rebuilt dictionary codes signature values
        // only, and the engine prices like one that never had the tier.
        let corpus: Vec<_> = demo::cve_functions()
            .into_iter()
            .map(|(name, p)| (name, gcc().compile_function(&p)))
            .collect();
        let q = clang().compile_function(&demo::venom_like());
        let mut with = SimilarityEngine::new(quick_config());
        let mut without = SimilarityEngine::new(EngineConfig {
            sketch: PrefilterConfig {
                enabled: false,
                ..PrefilterConfig::default()
            },
            ..quick_config()
        });
        for (name, p) in &corpus {
            with.add_target(*name, p);
            without.add_target(*name, p);
        }
        with.query(&q);
        let coded_with_sketches = with.derived.get().expect("queried").codes.len();
        let counters = with.prefilter_stats();
        with.disable_prefilter();
        with.reset_cache_counters();
        let a = with.query(&q);
        let b = without.query(&q);
        assert_same_scores(&a, &b);
        assert_eq!(lookups(&with), lookups(&without));
        assert_eq!(with.prefilter_stats(), counters, "no sketch rung ran");
        let signature_values: std::collections::HashSet<u64> = with
            .classes
            .iter()
            .flat_map(|c| c.signature.rounds.iter().flatten().copied())
            .collect();
        let coded = with.derived.get().expect("queried").codes.len();
        assert_eq!(coded, signature_values.len(), "signature values only");
        assert!(
            coded < coded_with_sketches,
            "{coded} vs {coded_with_sketches}"
        );
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

    /// `engine`'s corpus reopened as one shard over [`Unreadable`].
    fn reopen_unreadable(engine: &SimilarityEngine) -> SimilarityEngine {
        let export = engine.export_corpus().unwrap();
        let classes = export
            .classes
            .into_iter()
            .map(|c| LazyClassMeta {
                name: c.proc_.name,
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
        let source = Box::new(Unreadable);
        SimilarityEngine::from_lazy_parts(
            export.config,
            classes,
            export.targets,
            Vec::new(),
            vec![spec],
            source,
        )
        .unwrap()
    }

    #[test]
    #[should_panic(expected = "immutable")]
    fn add_target_on_an_opened_index_panics() {
        let mut engine = SimilarityEngine::new(quick_config());
        engine.add_target("tp", &clang().compile_function(&demo::heartbleed_like()));
        let mut lazy = reopen_unreadable(&engine);
        lazy.add_target("late", &gcc().compile_function(&demo::venom_like()));
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
        let lazy = reopen_unreadable(&engine);
        let item = BatchQuery {
            query: Query::Target(TargetId(0)),
            cancel: CancelToken::new(),
        };
        let result = lazy.query_batch(&[item]).pop().unwrap();
        assert!(matches!(result, Err(QueryError::Corrupted(_))));
        assert_eq!(lazy.passes.load(Ordering::Relaxed), 0);
    }
}
