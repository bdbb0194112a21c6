//! Lazy target-segment shards behind the engine — the scale tier's
//! in-memory half.
//!
//! A sharded index (see `esh-index`) splits the corpus into contiguous
//! **target segments**. Because strand classes are created in target
//! insertion order, each segment also owns a contiguous range of class
//! indices: the classes first introduced by its targets. Everything a
//! query needs to *price* a pair — name, structural hash, variable count,
//! semantic signature, sketch — stays eagerly loaded, and so does every
//! persisted VCP verdict, inserted into the cache when the index opens.
//! A shard holds one thing: the lifted IVL procedure of each of its
//! classes, behind a [`ShardSource`]. A shard opens only when some cell
//! needs a procedure — a cache miss's verify, or a class's first probe
//! sketch. Residency is two-level: *opening* a shard decodes only its
//! offset table and keeps the record bytes raw behind a [`ShardRecords`]
//! handle; each class record is checksummed, decoded and checked against
//! its class's structural hash and variable count individually, on first
//! demand, into a per-class slot table.
//!
//! Shards partition the class index space in order, so the fanned-out
//! VCP matrix is the unsharded matrix: every float sum (H0, GES, S-VCP)
//! runs in the same order and produces the same bits. Cache lookups never
//! touch a shard, so the cache counters are the resident engine's
//! whatever a query decodes. The `(item, shard)` pairs an item read no
//! record from are counted as [`ShardStats::pruned_total`].

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use esh_ivl::Proc;
use esh_strands::{structural_hash, Signature, SIGNATURE_SEEDS};

use crate::cache::VcpCacheEntry;
use crate::engine::EngineConfig;
use crate::prefilter::SemanticSketch;

/// The contiguous target and class ranges one shard owns. Ranges are
/// half-open (`start..end`); consecutive shards tile both index spaces
/// without gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// First class index owned by this shard.
    pub class_start: usize,
    /// One past the last class index owned by this shard.
    pub class_end: usize,
    /// First target index owned by this shard.
    pub target_start: usize,
    /// One past the last target index owned by this shard.
    pub target_end: usize,
}

/// An opened shard: the offset table is decoded eagerly, the per-class
/// procedure records stay undecoded — for the on-disk format, unread on
/// disk — until [`ShardRecords::decode_record`] is asked for one.
///
/// A handle is held resident for as long as its shard occupies a slot;
/// a file-backed handle reads each demanded record from its file then.
pub trait ShardRecords: Send + Sync + fmt::Debug {
    /// Number of class records in the shard (its spec's class range).
    fn class_count(&self) -> usize;

    /// Bytes decoded eagerly at open (header and offset table) —
    /// accounted against the residency budget when the shard is opened.
    fn base_bytes(&self) -> u64;

    /// Bytes of the open shard's backing file — the whole file for the
    /// on-disk format. They stay on disk until records are read, so they
    /// are *not* accounted against the residency budget.
    fn mapped_bytes(&self) -> u64;

    /// Encoded size of record `i` — the unit one decoded slot accounts
    /// against the residency budget.
    fn record_bytes(&self, i: usize) -> u64;

    /// Reads, checksum-verifies and decodes record `i` (class
    /// `class_start + i`), leaving every neighbour record untouched.
    /// A record stores no name: the engine names the procedure after its
    /// class. Errors name the backing file and the class for file-backed
    /// sources.
    fn decode_record(&self, i: usize) -> Result<Proc, String>;
}

/// A shard failed to load or decode. `detail` carries the source's
/// description, including the backing file path for on-disk sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Index of the shard that failed.
    pub shard: usize,
    /// Human-readable cause, path included for file-backed sources.
    pub detail: String,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} corrupted or unreadable: {}",
            self.shard, self.detail
        )
    }
}

impl std::error::Error for ShardError {}

/// Backing store for lazily-loaded shards (the on-disk format in
/// `esh-index`, or an in-memory stand-in for tests).
pub trait ShardSource: Send + Sync + fmt::Debug {
    /// Opens shard `shard` for per-record demand decoding: structural
    /// parts verified and decoded now, procedure records decoded on
    /// first touch. Under a memory budget a shard may be evicted and
    /// opened again later, so this must be repeatable; errors fail the
    /// query that needed the shard (other shards keep serving).
    fn open_shard(&self, shard: usize) -> Result<Box<dyn ShardRecords>, String>;
}

/// Point-in-time shard counters for an engine (all zero when the engine
/// is fully resident, i.e. not backed by a sharded index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Number of shards behind the engine.
    pub shards_total: u64,
    /// Shards currently resident in memory (loads minus evictions).
    pub shards_loaded: u64,
    /// Total (query, shard) consultations: for each query (or batch
    /// item), every distinct shard it read a class record from — for a
    /// cache miss's verify or a class's first probe sketch.
    pub fanout_total: u64,
    /// Shards evicted to stay under the memory budget (cumulative).
    pub evicted_total: u64,
    /// Bytes of *decoded* shard payload currently resident (per-class
    /// decoded records plus each open shard's structural base) — the
    /// unit the eviction budget accounts in.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub resident_bytes_peak: u64,
    /// `(query item, shard)` pairs a prepared query item never consulted
    /// (cumulative): live items × shards − fan-out, the shards an item
    /// read no class record from.
    pub pruned_total: u64,
    /// Encoded bytes of the class records currently decoded (excludes
    /// the structural base `resident_bytes` also carries).
    pub decoded_bytes: u64,
    /// Bytes of the backing files of currently-open shards (see
    /// [`ShardRecords::mapped_bytes`]); never budget-accounted.
    pub mapped_bytes: u64,
    /// Class records demand-decoded over the engine's lifetime
    /// (re-decodes after an eviction count again).
    pub classes_decoded_total: u64,
    /// Currently-open shards with at least one decoded and at least one
    /// still-raw record — direct evidence decode stayed sub-shard.
    pub shards_partial: u64,
}

/// One open shard: the records handle plus a per-class slot table. Each
/// slot is either **decoded** (`Some(Arc<Proc>)`) or still **raw**
/// (`None` — the record's bytes sit undecoded behind the handle; an
/// absent/corrupt record stays `None` and re-errors on every decode
/// attempt). Handed out as an `Arc` so eviction can drop the shard's
/// slot while in-flight readers keep their decoded procedures alive.
#[derive(Debug)]
pub(crate) struct ShardResident {
    records: Box<dyn ShardRecords>,
    slots: Vec<RwLock<Option<Arc<Proc>>>>,
    class_start: usize,
    /// Bytes this shard currently accounts against the budget (base +
    /// decoded records). Zeroed by eviction; late decoders that add after
    /// the zeroing hand their contribution straight back (see
    /// `retired`).
    accounted: AtomicU64,
    /// Encoded bytes of currently-decoded records (the `decoded_bytes`
    /// gauge's per-shard share).
    decoded: AtomicU64,
    /// Count of decoded slots (drives the partially-decoded gauge).
    decoded_slots: AtomicU64,
    /// Set once the shard was evicted: the slot no longer holds this
    /// resident, so any decode that races past the eviction must not
    /// leave bytes accounted.
    retired: std::sync::atomic::AtomicBool,
}

/// The engine's view of a sharded backing store: specs, one slot per
/// shard (evictable under a byte budget), and the gauges `/metrics`
/// exports.
#[derive(Debug)]
pub(crate) struct LazyShards {
    specs: Vec<ShardSpec>,
    source: Box<dyn ShardSource>,
    slots: Vec<RwLock<Option<Arc<ShardResident>>>>,
    /// Resident-bytes budget; 0 means unbounded.
    budget: AtomicU64,
    /// Monotonic LRU clock; `stamps[i]` is shard `i`'s last touch.
    clock: AtomicU64,
    stamps: Vec<AtomicU64>,
    loaded: AtomicU64,
    resident: AtomicU64,
    resident_peak: AtomicU64,
    evicted: AtomicU64,
    fanout: AtomicU64,
    pruned: AtomicU64,
    decoded: AtomicU64,
    mapped: AtomicU64,
    classes_decoded: AtomicU64,
}

impl LazyShards {
    pub(crate) fn new(specs: Vec<ShardSpec>, source: Box<dyn ShardSource>) -> LazyShards {
        let slots = (0..specs.len()).map(|_| RwLock::new(None)).collect();
        let stamps = (0..specs.len()).map(|_| AtomicU64::new(0)).collect();
        LazyShards {
            specs,
            source,
            slots,
            budget: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            stamps,
            loaded: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            resident_peak: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            fanout: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            decoded: AtomicU64::new(0),
            mapped: AtomicU64::new(0),
            classes_decoded: AtomicU64::new(0),
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.specs.len()
    }

    /// The shard owning class `ci`.
    pub(crate) fn shard_of_class(&self, ci: usize) -> usize {
        self.specs.partition_point(|s| s.class_end <= ci)
    }

    /// Sets the resident-bytes budget (0 = unbounded) and immediately
    /// evicts down to it.
    pub(crate) fn set_budget(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::Relaxed);
        if bytes > 0 {
            self.evict_to(bytes, usize::MAX);
        }
    }

    /// Reserves `need` bytes against the budget on behalf of `shard`,
    /// evicting least-recently-used *other* shards to make room.
    /// Concurrent reservers race on the shared `resident` counter itself,
    /// so the sum of reservations — and with it the resident peak — stays
    /// within budget whenever eviction can make room; when nothing is
    /// evictable the reservation proceeds over budget rather than
    /// deadlock.
    fn reserve(&self, need: u64, shard: usize) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == 0 {
            let now = self.resident.fetch_add(need, Ordering::Relaxed) + need;
            self.resident_peak.fetch_max(now, Ordering::Relaxed);
            return;
        }
        loop {
            let cur = self.resident.load(Ordering::Relaxed);
            if cur + need <= budget {
                if self
                    .resident
                    .compare_exchange(cur, cur + need, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    self.resident_peak.fetch_max(cur + need, Ordering::Relaxed);
                    return;
                }
            } else if !self.evict_to(budget.saturating_sub(need), shard) {
                let now = self.resident.fetch_add(need, Ordering::Relaxed) + need;
                self.resident_peak.fetch_max(now, Ordering::Relaxed);
                return;
            }
        }
    }

    /// Opens shard `shard` if it is not resident — offset table decoded
    /// and checksummed, every procedure record left raw — and returns a
    /// handle pinning the records. Only the structural base is
    /// budget-accounted here; records account as they decode.
    fn ensure_loaded(&self, shard: usize) -> Result<Arc<ShardResident>, ShardError> {
        self.stamps[shard].store(
            self.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        if let Some(r) = self.slots[shard]
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            return Ok(Arc::clone(r));
        }
        let mut slot = self.slots[shard].write().unwrap_or_else(|e| e.into_inner());
        if let Some(r) = slot.as_ref() {
            return Ok(Arc::clone(r));
        }
        let records = self
            .source
            .open_shard(shard)
            .map_err(|detail| ShardError { shard, detail })?;
        let base = records.base_bytes();
        self.reserve(base, shard);
        self.mapped
            .fetch_add(records.mapped_bytes(), Ordering::Relaxed);
        let resident = Arc::new(ShardResident {
            slots: (0..records.class_count())
                .map(|_| RwLock::new(None))
                .collect(),
            records,
            class_start: self.specs[shard].class_start,
            accounted: AtomicU64::new(base),
            decoded: AtomicU64::new(0),
            decoded_slots: AtomicU64::new(0),
            retired: std::sync::atomic::AtomicBool::new(false),
        });
        self.loaded.fetch_add(1, Ordering::Relaxed);
        *slot = Some(Arc::clone(&resident));
        Ok(resident)
    }

    /// Checksum-verifies and decodes record `idx` of an open shard if its
    /// slot is still raw, accounting the record's encoded bytes against
    /// the budget (evicting other shards as needed), and names the
    /// procedure `name`, its class's. The decoded strand must have the
    /// class's structural hash and variable count (`expect`): a record
    /// holding another strand would otherwise be verified, and cached,
    /// under this class's key. A decode error is returned — never latched
    /// — so a repaired file recovers on retry.
    fn decode_slot(
        &self,
        shard: usize,
        r: &Arc<ShardResident>,
        idx: usize,
        expect: (u64, usize),
        name: &str,
    ) -> Result<Arc<Proc>, ShardError> {
        if let Some(p) = r.slots[idx]
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            return Ok(Arc::clone(p));
        }
        let mut slot = r.slots[idx].write().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = slot.as_ref() {
            return Ok(Arc::clone(p));
        }
        let need = r.records.record_bytes(idx);
        self.reserve(need, shard);
        let checked = r.records.decode_record(idx).and_then(|p| {
            let found = (structural_hash(&p), p.vars.len());
            if found == expect {
                return Ok(Proc {
                    name: name.to_owned(),
                    ..p
                });
            }
            Err(format!(
                "class {}: the record holds a strand with structural hash {:#018x} \
                 and {} variables, not the class's {:#018x} and {}",
                r.class_start + idx,
                found.0,
                found.1,
                expect.0,
                expect.1
            ))
        });
        let proc_ = match checked {
            Ok(p) => Arc::new(p),
            Err(detail) => {
                self.resident.fetch_sub(need, Ordering::Relaxed);
                return Err(ShardError { shard, detail });
            }
        };
        // Globals first, then the per-shard counters an eviction hands
        // back: an evictor can only ever subtract bytes whose global add
        // already happened.
        self.decoded.fetch_add(need, Ordering::Relaxed);
        self.classes_decoded.fetch_add(1, Ordering::Relaxed);
        r.accounted.fetch_add(need, Ordering::Relaxed);
        r.decoded.fetch_add(need, Ordering::Relaxed);
        r.decoded_slots.fetch_add(1, Ordering::Relaxed);
        *slot = Some(Arc::clone(&proc_));
        if r.retired.load(Ordering::Relaxed) {
            // The shard was evicted while this record decoded: the
            // eviction already handed back whatever `accounted`/`decoded`
            // held when it ran, so return whatever this (and any other
            // late) decode added after the zeroing.
            let a = r.accounted.swap(0, Ordering::Relaxed);
            let d = r.decoded.swap(0, Ordering::Relaxed);
            self.resident.fetch_sub(a, Ordering::Relaxed);
            self.decoded.fetch_sub(d, Ordering::Relaxed);
        }
        Ok(proc_)
    }

    /// Evicts least-recently-touched resident shards until
    /// `resident_bytes <= target`, never touching `except` (the shard the
    /// caller is serving) or any slot another thread holds locked.
    /// Evicting a shard drops every decoded slot *and* unmaps its backing
    /// bytes; in-flight readers holding `Arc<Proc>`s keep exactly those
    /// decoded records alive until they let go. Returns whether at least
    /// one shard was evicted by this call.
    fn evict_to(&self, target: u64, except: usize) -> bool {
        let mut banned = vec![false; self.slots.len()];
        if except < banned.len() {
            banned[except] = true;
        }
        let mut any = false;
        while self.resident.load(Ordering::Relaxed) > target {
            let mut victim: Option<(u64, usize)> = None;
            for (i, slot) in self.slots.iter().enumerate() {
                if banned[i] {
                    continue;
                }
                let occupied = matches!(slot.try_read(), Ok(g) if g.is_some());
                if !occupied {
                    continue;
                }
                let stamp = self.stamps[i].load(Ordering::Relaxed);
                if victim.is_none_or(|(s, _)| stamp < s) {
                    victim = Some((stamp, i));
                }
            }
            let Some((_, i)) = victim else { break };
            if let Ok(mut g) = self.slots[i].try_write() {
                if let Some(r) = g.take() {
                    // Mark first, then swap the counters out: a decode
                    // racing past this point sees `retired` and hands its
                    // own late contribution back itself.
                    r.retired.store(true, Ordering::Relaxed);
                    let a = r.accounted.swap(0, Ordering::Relaxed);
                    let d = r.decoded.swap(0, Ordering::Relaxed);
                    self.resident.fetch_sub(a, Ordering::Relaxed);
                    self.decoded.fetch_sub(d, Ordering::Relaxed);
                    self.mapped
                        .fetch_sub(r.records.mapped_bytes(), Ordering::Relaxed);
                    self.loaded.fetch_sub(1, Ordering::Relaxed);
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                    any = true;
                }
            }
            banned[i] = true;
        }
        any
    }

    /// The lifted procedure of class `ci`, whose structural hash and
    /// variable count are `expect` and whose name is `name`, opening its
    /// shard (again, if evicted) and demand-decoding exactly that record.
    /// Holding it pins the decoded record (not its shard slot) in memory
    /// across evictions.
    pub(crate) fn proc_ref(
        &self,
        ci: usize,
        expect: (u64, usize),
        name: &str,
    ) -> Result<Arc<Proc>, ShardError> {
        let shard = self.shard_of_class(ci);
        let resident = self.ensure_loaded(shard)?;
        let idx = ci - resident.class_start;
        self.decode_slot(shard, &resident, idx, expect, name)
    }

    /// Counts one batch: `touched` distinct `(item, shard)` pairs
    /// consulted by its `live` prepared items go to the fan-out, every
    /// other pair of those items to the pruned counter.
    pub(crate) fn add_batch(&self, live: usize, touched: u64) {
        self.fanout.fetch_add(touched, Ordering::Relaxed);
        let pairs = (live * self.specs.len()) as u64;
        self.pruned.fetch_add(pairs - touched, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> ShardStats {
        // Partially-decoded shards are counted by scanning the open
        // slots; `try_read` keeps the scan non-blocking (a slot mid-load
        // is simply not counted this round).
        let mut partial = 0u64;
        for slot in &self.slots {
            if let Ok(g) = slot.try_read() {
                if let Some(r) = g.as_ref() {
                    let d = r.decoded_slots.load(Ordering::Relaxed) as usize;
                    if d > 0 && d < r.records.class_count() {
                        partial += 1;
                    }
                }
            }
        }
        ShardStats {
            shards_total: self.specs.len() as u64,
            shards_loaded: self.loaded.load(Ordering::Relaxed),
            fanout_total: self.fanout.load(Ordering::Relaxed),
            evicted_total: self.evicted.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
            resident_bytes_peak: self.resident_peak.load(Ordering::Relaxed),
            pruned_total: self.pruned.load(Ordering::Relaxed),
            decoded_bytes: self.decoded.load(Ordering::Relaxed),
            mapped_bytes: self.mapped.load(Ordering::Relaxed),
            classes_decoded_total: self.classes_decoded.load(Ordering::Relaxed),
            shards_partial: partial,
        }
    }
}

/// Per-batch fan-out bookkeeping: one flag per `(batch item, shard)`
/// pair, set when the item reads a class record from the shard. Counted
/// once per pair at batch end, whatever order the work-stealing workers
/// touched it in. The flags publish nothing else, hence `Relaxed`.
#[derive(Debug)]
pub(crate) struct ShardTouch {
    flags: Vec<std::sync::atomic::AtomicBool>,
    nshards: usize,
}

impl ShardTouch {
    pub(crate) fn new(items: usize, nshards: usize) -> ShardTouch {
        ShardTouch {
            flags: (0..items * nshards)
                .map(|_| std::sync::atomic::AtomicBool::new(false))
                .collect(),
            nshards,
        }
    }

    /// Marks `shard` read by `item`.
    pub(crate) fn mark(&self, item: usize, shard: usize) {
        self.flags[item * self.nshards + shard].store(true, Ordering::Relaxed);
    }

    /// Distinct `(item, shard)` pairs touched.
    pub(crate) fn count(&self) -> u64 {
        self.flags
            .iter()
            .filter(|f| f.load(Ordering::Relaxed))
            .count() as u64
    }
}

/// One strand class, fully materialized — the unit `esh-index` writes.
#[derive(Debug, Clone)]
pub struct ClassExport {
    /// The lifted IVL procedure (the shard-resident payload); its
    /// `name` is the class's display name.
    pub proc_: Proc,
    /// Semantic signature (eager pricing metadata).
    pub signature: Signature,
    /// Variable count of the lifted strand.
    pub vars: usize,
    /// Structural hash — the dedup and cache key.
    pub hash: u64,
    /// Semantic sketch, when the engine's sketch tier was on.
    pub sketch: Option<SemanticSketch>,
}

/// Pricing metadata of one strand class **without** its procedure — what
/// a sharded index keeps eagerly resident. The class's corpus-wide
/// occurrence count is not part of it: the engine sums it from the
/// target strand lists.
#[derive(Debug, Clone)]
pub struct LazyClassMeta {
    /// Display name.
    pub name: String,
    /// Semantic signature.
    pub signature: Signature,
    /// Variable count.
    pub vars: usize,
    /// Structural hash.
    pub hash: u64,
    /// Semantic sketch, if persisted.
    pub sketch: Option<SemanticSketch>,
}

/// One target record, as persisted.
#[derive(Debug, Clone)]
pub struct TargetExport {
    /// Target name.
    pub name: String,
    /// `(class index, occurrences in this target)`, in class order.
    pub strands: Vec<(usize, u64)>,
}

/// A full dump of an engine's corpus state — the exchange format between
/// the engine and the `esh-index` writer.
#[derive(Debug, Clone)]
pub struct CorpusExport {
    /// Engine configuration (fingerprint-relevant knobs included).
    pub config: EngineConfig,
    /// Every strand class, materialized, in class-index order.
    pub classes: Vec<ClassExport>,
    /// Every target, in insertion order.
    pub targets: Vec<TargetExport>,
    /// Every memoized VCP-cache entry, sorted by key.
    pub cache: Vec<VcpCacheEntry>,
}

/// Checks the parts of a sharded index against each other and against
/// `config` (see `SimilarityEngine::from_lazy_parts`). Returns the class
/// index of each structural hash and each class's corpus count, the sum
/// of its occurrences over the target strand lists.
pub(crate) fn check_lazy_parts(
    config: &EngineConfig,
    classes: &[LazyClassMeta],
    targets: &[TargetExport],
    specs: &[ShardSpec],
) -> Result<(HashMap<u64, usize>, Vec<u64>), String> {
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
    for t in targets {
        for &(ci, n) in &t.strands {
            let count = corpus_counts
                .get_mut(ci)
                .ok_or_else(|| format!("target `{}` references a class out of range", t.name))?;
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
    for c in classes {
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
    Ok((class_by_hash, corpus_counts))
}
