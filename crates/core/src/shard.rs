//! Lazy target-segment shards behind the engine — the scale tier's
//! in-memory half.
//!
//! A sharded index (see `esh-index`) splits the corpus into contiguous
//! **target segments**. Because strand classes are created in target
//! insertion order, each segment also owns a contiguous range of class
//! indices: the classes first introduced by its targets. Everything a
//! query needs to *price* a pair — structural hash, variable count,
//! semantic signature, sketch — stays eagerly loaded, while
//! the heavyweight per-class payload (the lifted IVL procedure and the
//! segment's slice of the persisted VCP cache) lives behind a
//! [`ShardSource`] and is pulled in only when some pair of that segment
//! survives pricing and actually needs the verifier or its memoized
//! result. Residency is two-level: *opening* a shard decodes only its
//! structural parts (offset table, cache segment) and keeps the record
//! bytes raw behind a [`ShardRecords`] handle; each class record is
//! checksummed, decoded and checked against its class's structural hash
//! and variable count individually, on first demand, into a per-class
//! slot table.
//!
//! Invariants the engine relies on (and the round-trip proptests pin):
//!
//! * **Open-before-lookup.** A shard's persisted cache entries are
//!   inserted (counter-neutrally) the moment the shard opens, and the
//!   engine always opens a class's shard *before* the first counted
//!   cache lookup touching that class — so hit/miss counters are
//!   identical to an engine that had every entry resident from the start.
//!   Procedure records then decode strictly later, on the first cell
//!   that actually needs the verifier (a decode never touches a
//!   counter), which is what makes per-record demand decoding invisible
//!   to the counters. Re-inserting the same segment after an
//!   eviction/reopen cycle is idempotent (same keys, same deterministic
//!   values), so the rule survives memory-bounded serving unchanged.
//! * **Merge = concatenation.** Shards partition the class index space in
//!   order, so the fanned-out VCP matrix is the unsharded matrix: every
//!   float sum (H0, GES, S-VCP) runs in the same order and produces the
//!   same bits.
//! * **Pruning may only skip certain misses.** A shard may be skipped for
//!   a query item only when its band summary proves every one of its
//!   cells would have been sketch-pruned anyway (see
//!   [`ShardBandSummary::can_skip`]) — the skipped cells stay at
//!   `VcpPair::default()` exactly as the priced path would have left
//!   them. Summaries are derived from the resident class sketches when
//!   the engine is built over its shards, never read from a file, so a
//!   summary cannot disagree with the classes it summarises.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use esh_ivl::Proc;
use esh_strands::{stable_mix, structural_hash, Signature, STABLE_HASH_SEED};

use crate::cache::{VcpCache, VcpCacheEntry};
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

/// An opened shard: the structural parts (offset table, persisted cache
/// segment) are decoded eagerly, the per-class procedure records stay
/// undecoded — for the on-disk format, unread on disk — until
/// [`ShardRecords::decode_record`] is asked for one.
///
/// A handle is held resident for as long as its shard occupies a slot;
/// a file-backed handle reads each demanded record from its file then.
pub trait ShardRecords: Send + Sync + fmt::Debug {
    /// Number of class records in the shard (its spec's class range).
    fn class_count(&self) -> usize;

    /// Persisted VCP-cache entries keyed into this segment, decoded at
    /// open so load-before-lookup can insert them before any counted
    /// lookup touches the segment.
    fn cache_entries(&self) -> &[VcpCacheEntry];

    /// Bytes decoded eagerly at open (header, offset table, cache
    /// segment) — accounted against the residency budget when the shard
    /// is opened.
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
    /// Errors name the backing file and the class for file-backed
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
    /// item), every distinct shard whose payload the query needed —
    /// surviving pricing into a cache lookup, a class's first probe
    /// sketch, or a refine-window scan.
    pub fanout_total: u64,
    /// Shards evicted to stay under the memory budget (cumulative).
    pub evicted_total: u64,
    /// Bytes of *decoded* shard payload currently resident (per-class
    /// decoded records plus each open shard's structural base) — the
    /// unit the eviction budget accounts in.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub resident_bytes_peak: u64,
    /// `(query item, shard)` pairs skipped entirely by band-summary
    /// pruning (cumulative).
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

/// A compact Bloom filter over 64-bit keys, used for shard band
/// summaries. No false negatives: [`Bloom::may_contain`] returning
/// `false` proves the key was never inserted.
#[derive(Debug)]
pub(crate) struct Bloom {
    /// The bit array, 64 bits per word (never empty).
    bits: Vec<u64>,
}

/// Bloom probe count. With ~12 bits per key (see [`Bloom::with_capacity`])
/// four probes put the false-positive rate near 0.5% — a false positive
/// only costs a missed prune, never correctness.
const BLOOM_PROBES: u64 = 4;

impl Bloom {
    /// An empty filter sized for `keys` insertions at ~12 bits per key
    /// (minimum one word).
    fn with_capacity(keys: usize) -> Bloom {
        let words = (keys * 12).div_ceil(64).max(1);
        Bloom {
            bits: vec![0u64; words],
        }
    }

    fn probes(&self, key: u64) -> impl Iterator<Item = (usize, u64)> {
        let nbits = self.bits.len() as u64 * 64;
        let h1 = stable_mix(STABLE_HASH_SEED ^ 0xb10f_11a5, key);
        let h2 = stable_mix(STABLE_HASH_SEED ^ 0x5eed_b055, key) | 1;
        (0..BLOOM_PROBES).map(move |i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % nbits;
            ((bit / 64) as usize, 1u64 << (bit % 64))
        })
    }

    fn insert(&mut self, key: u64) {
        for (word, mask) in self.probes(key) {
            self.bits[word] |= mask;
        }
    }

    /// True when `key` *may* have been inserted; `false` is definitive.
    fn may_contain(&self, key: u64) -> bool {
        self.probes(key)
            .all(|(word, mask)| self.bits[word] & mask != 0)
    }
}

/// Per-shard sketch-band summary: Bloom filters over every member
/// class's sketch digests and LSH band keys, plus the two scalars the
/// class-side containment bound needs. The engine builds one per shard
/// from the class sketches when it is opened over a sharded index (see
/// `SimilarityEngine::from_lazy_parts`) and consults them at query time
/// to skip whole shards before fan-out.
#[derive(Debug)]
pub(crate) struct ShardBandSummary {
    /// Bloom over the sketch digests of every class in the shard.
    digests: Bloom,
    /// Bloom over the LSH band keys of every class in the shard.
    bands: Bloom,
    /// Smallest digest count over member classes with a non-empty digest
    /// list (`u64::MAX` when every member is empty) — the denominator of
    /// the class-side containment bound.
    min_digests: u64,
    /// Largest multiplicity of a single digest value *within one* member
    /// class — the multiplier of the class-side containment bound.
    max_mult: u64,
}

impl ShardBandSummary {
    /// Builds a summary over `sketches` (one per class in the shard) with
    /// LSH geometry `bands × rows`.
    pub(crate) fn build<'a>(
        sketches: impl Iterator<Item = &'a SemanticSketch>,
        bands: usize,
        rows: usize,
    ) -> ShardBandSummary {
        let sketches: Vec<&SemanticSketch> = sketches.collect();
        let digest_keys: usize = sketches.iter().map(|s| s.digests.len()).sum();
        let mut summary = ShardBandSummary {
            digests: Bloom::with_capacity(digest_keys),
            bands: Bloom::with_capacity(sketches.len() * bands),
            min_digests: u64::MAX,
            max_mult: 0,
        };
        for s in sketches {
            for &d in &s.digests {
                summary.digests.insert(d);
            }
            for k in s.band_keys(bands, rows) {
                summary.bands.insert(k);
            }
            if !s.digests.is_empty() {
                summary.min_digests = summary.min_digests.min(s.digests.len() as u64);
                // Digests are sorted, so multiplicity is run length.
                let (mut run, mut mult) = (1u64, 1u64);
                for w in s.digests.windows(2) {
                    if w[0] == w[1] {
                        run += 1;
                        mult = mult.max(run);
                    } else {
                        run = 1;
                    }
                }
                summary.max_mult = summary.max_mult.max(mult);
            }
        }
        summary
    }

    /// Whether every cell pairing `sketch` with this shard's classes is
    /// guaranteed to be sketch-pruned, so the shard can be skipped for
    /// this strand without touching it.
    ///
    /// The proof mirrors the staged pricing ladder (`bounds_decision`,
    /// which prunes a cell when both containment bounds fall below
    /// `margin - window`) by *counting* possibly-shared digests instead
    /// of demanding zero intersection. For any member class `t` and the
    /// query strand `q`:
    ///
    /// * query-side: every digest entry of `q` matched inside `t` has a
    ///   value the digest Bloom contains (no false negatives), so
    ///   `c_q = matched/|q| <= hits/|q|` where `hits` counts `q`'s
    ///   entries (with multiplicity) the Bloom may contain;
    /// * class-side: every entry of `t` matched inside `q` has a value
    ///   that is both a distinct Bloom-positive digest of `q` and repeats
    ///   at most [`ShardBandSummary::max_mult`] times within `t`, so
    ///   `c_t = matched/|t| <= distinct_hits * max_mult / min_digests`
    ///   (classes with no digests have `c_t = 0` by definition).
    ///
    /// Both bounds below the threshold proves every cell prices to
    /// `Prune`. Under the pre-probe rule (`window == 0`) *collided* cells
    /// skip pricing and go straight to the exact path, so the band Bloom
    /// must additionally prove no class shares an LSH band with the
    /// query.
    ///
    /// Bloom false positives only ever answer "may collide", which keeps
    /// the shard in the fan-out — pruning is conservative by
    /// construction.
    pub(crate) fn can_skip(
        &self,
        sketch: &SemanticSketch,
        band_keys: &[u64],
        margin: f64,
        window: f64,
    ) -> bool {
        let threshold = margin - window;
        if threshold <= 0.0 {
            return false;
        }
        let ds = &sketch.digests;
        let (mut hits, mut distinct_hits) = (0u64, 0u64);
        let mut i = 0;
        while i < ds.len() {
            let mut j = i + 1;
            while j < ds.len() && ds[j] == ds[i] {
                j += 1;
            }
            if self.digests.may_contain(ds[i]) {
                hits += (j - i) as u64;
                distinct_hits += 1;
            }
            i = j;
        }
        let c_q = if ds.is_empty() {
            0.0
        } else {
            hits as f64 / ds.len() as f64
        };
        let c_t = if self.min_digests == u64::MAX {
            0.0
        } else {
            ((distinct_hits * self.max_mult) as f64 / self.min_digests as f64).min(1.0)
        };
        if c_q.max(c_t) >= threshold {
            return false;
        }
        window > 0.0 || band_keys.iter().all(|k| !self.bands.may_contain(*k))
    }
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

impl ShardResident {
    fn decoded_slot_count(&self) -> u64 {
        self.decoded_slots.load(Ordering::Relaxed)
    }
}

/// A checked-out reference to one demand-decoded procedure. Dereferences
/// to [`Proc`]; holding it pins the decoded record (not its shard slot)
/// in memory across evictions.
#[derive(Debug)]
pub(crate) struct ShardProcRef {
    proc_: Arc<Proc>,
}

impl std::ops::Deref for ShardProcRef {
    type Target = Proc;

    fn deref(&self) -> &Proc {
        &self.proc_
    }
}

/// The engine's view of a sharded backing store: specs, one slot per
/// shard (evictable under a byte budget), band summaries for pruning,
/// and the gauges `/metrics` exports.
#[derive(Debug)]
pub(crate) struct LazyShards {
    specs: Vec<ShardSpec>,
    source: Box<dyn ShardSource>,
    slots: Vec<RwLock<Option<Arc<ShardResident>>>>,
    /// Per-shard band summaries, one per spec (`None`: pruning off).
    pub(crate) summaries: Option<Vec<ShardBandSummary>>,
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
    pub(crate) fn new(
        specs: Vec<ShardSpec>,
        source: Box<dyn ShardSource>,
        summaries: Option<Vec<ShardBandSummary>>,
    ) -> LazyShards {
        let slots = (0..specs.len()).map(|_| RwLock::new(None)).collect();
        let stamps = (0..specs.len()).map(|_| AtomicU64::new(0)).collect();
        LazyShards {
            specs,
            source,
            slots,
            summaries,
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

    /// One past the highest class index any shard owns. Classes at or
    /// beyond this (added after the index was opened) are resident in
    /// the engine itself.
    pub(crate) fn class_limit(&self) -> usize {
        self.specs.last().map_or(0, |s| s.class_end)
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.specs.len()
    }

    /// The shard owning class `ci` (callers guarantee `ci <
    /// class_limit()`).
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

    /// Opens shard `shard` if it is not resident — structural parts
    /// decoded and checksummed, every procedure record left raw —
    /// inserting its persisted cache entries counter-neutrally
    /// (load-before-lookup covers the cache segment, which is why opening
    /// alone satisfies the invariant), and returns a handle pinning the
    /// records. Only the structural base is budget-accounted here;
    /// records account as they decode.
    pub(crate) fn ensure_loaded(
        &self,
        shard: usize,
        cache: &VcpCache,
    ) -> Result<Arc<ShardResident>, ShardError> {
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
        for e in records.cache_entries() {
            cache.insert((e.query_hash, e.class_hash, e.vcp_fingerprint), e.pair);
        }
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
    /// the budget (evicting other shards as needed). The decoded strand
    /// must have the class's structural hash and variable count
    /// (`expect`): a record holding another strand would otherwise be
    /// verified, and cached, under this class's key. A decode error is
    /// returned — never latched — so a repaired file recovers on retry.
    fn decode_slot(
        &self,
        shard: usize,
        r: &Arc<ShardResident>,
        idx: usize,
        expect: (u64, usize),
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
                return Ok(p);
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

    /// A pinned reference to the lifted procedure of class `ci`, whose
    /// structural hash and variable count are `expect`, opening its shard
    /// (again, if evicted) and demand-decoding exactly that record.
    pub(crate) fn proc_ref(
        &self,
        ci: usize,
        expect: (u64, usize),
        cache: &VcpCache,
    ) -> Result<ShardProcRef, ShardError> {
        let shard = self.shard_of_class(ci);
        let resident = self.ensure_loaded(shard, cache)?;
        let proc_ = self.decode_slot(shard, &resident, ci - resident.class_start, expect)?;
        Ok(ShardProcRef { proc_ })
    }

    pub(crate) fn add_fanout(&self, n: u64) {
        self.fanout.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_pruned(&self, n: u64) {
        self.pruned.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> ShardStats {
        // Partially-decoded shards are counted by scanning the open
        // slots; `try_read` keeps the scan non-blocking (a slot mid-load
        // is simply not counted this round).
        let mut partial = 0u64;
        for slot in &self.slots {
            if let Ok(g) = slot.try_read() {
                if let Some(r) = g.as_ref() {
                    let d = r.decoded_slot_count() as usize;
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
/// pair, set when that item's pricing survives into the shard's payload
/// (cache lookup, first probe sketch or refine scan). Counted once per
/// pair at batch end, whatever order the work-stealing workers touched it in.
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

    pub(crate) fn mark(&self, item: usize, shard: usize) {
        if self.nshards != 0 {
            self.flags[item * self.nshards + shard].store(true, Ordering::Relaxed);
        }
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
    /// Display name (the lifted procedure's diagnostic name).
    pub name: String,
    /// The lifted IVL procedure (the shard-resident payload).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bloom_has_no_false_negatives_and_empty_contains_nothing() {
        let mut b = Bloom::with_capacity(100);
        let keys: Vec<u64> = (0..100u64).map(|i| stable_mix(7, i)).collect();
        for &k in &keys {
            b.insert(k);
        }
        assert!(keys.iter().all(|&k| b.may_contain(k)));
        assert!(!Bloom::with_capacity(0).may_contain(42));
        // With ~12 bits/key the filter must reject the vast majority of
        // absent keys.
        let misses = (1000..3000u64)
            .map(|i| stable_mix(13, i))
            .filter(|&k| !b.may_contain(k))
            .count();
        assert!(
            misses > 1900,
            "false-positive rate too high: {misses}/2000 rejected"
        );
    }

    #[test]
    fn summary_skips_disjoint_sketches_and_keeps_overlapping_ones() {
        let member = SemanticSketch {
            digests: vec![10, 20, 30],
            minhash: vec![3; 16],
        };
        let summary = ShardBandSummary::build([&member].into_iter(), 4, 4);
        assert_eq!(summary.min_digests, 3);
        assert_eq!(summary.max_mult, 1);

        let disjoint = SemanticSketch {
            digests: vec![100, 200],
            minhash: vec![4; 16],
        };
        // window > 0: digest disjointness is what proves the prune.
        assert!(summary.can_skip(&disjoint, &disjoint.band_keys(4, 4), 0.7, 0.2));
        // window == 0: identical minhash rows collide on every band, so
        // the shard must stay in the fan-out for the member itself.
        assert!(!summary.can_skip(&member, &member.band_keys(4, 4), 0.7, 0.0));
        // Sharing two of three digests pushes the class-side bound to
        // 2/3 >= 0.5, which keeps the shard (window > 0).
        let overlapping = SemanticSketch {
            digests: vec![20, 30, 999],
            minhash: vec![4; 16],
        };
        assert!(!summary.can_skip(&overlapping, &overlapping.band_keys(4, 4), 0.7, 0.2));
    }

    #[test]
    fn counting_rule_skips_small_overlap_but_respects_tiny_classes() {
        // One ten-digest class: a single shared digest gives bounds
        // c_q <= 1/5 and c_t <= 1/10, both under 0.7 - 0.2.
        let wide = SemanticSketch {
            digests: (0..10).map(|i| 100 + i).collect(),
            minhash: vec![3; 16],
        };
        let summary = ShardBandSummary::build([&wide].into_iter(), 4, 4);
        let query = SemanticSketch {
            digests: vec![100, 900, 901, 902, 903],
            minhash: vec![4; 16],
        };
        assert!(summary.can_skip(&query, &query.band_keys(4, 4), 0.7, 0.2));

        // Adding a two-digest member drops min_digests to 2: the same
        // single shared digest now allows c_t = 1/2, at the threshold —
        // the shard must stay.
        let tiny = SemanticSketch {
            digests: vec![100, 101],
            minhash: vec![5; 16],
        };
        let summary = ShardBandSummary::build([&wide, &tiny].into_iter(), 4, 4);
        assert_eq!(summary.min_digests, 2);
        assert!(!summary.can_skip(&query, &query.band_keys(4, 4), 0.7, 0.2));
    }

    #[test]
    fn repeated_digests_raise_the_class_side_bound() {
        // max_mult = 3: one Bloom-positive distinct digest can match
        // three entries of a member class, so c_t <= 3/4 blocks the skip
        // even though the query-side bound 1/6 is tiny.
        let repeated = SemanticSketch {
            digests: vec![7, 7, 7, 8],
            minhash: vec![6; 16],
        };
        let summary = ShardBandSummary::build([&repeated].into_iter(), 4, 4);
        assert_eq!(summary.max_mult, 3);
        let query = SemanticSketch {
            digests: vec![7, 900, 901, 902, 903, 904],
            minhash: vec![4; 16],
        };
        assert!(!summary.can_skip(&query, &query.band_keys(4, 4), 0.7, 0.2));
    }

    #[test]
    fn pre_probe_skip_needs_band_disjointness_and_bounded_containment() {
        // Pure-LSH profile (margin past any containment bound, no
        // window): only band disjointness decides, because non-collided
        // cells always price under the margin.
        let member = SemanticSketch {
            digests: vec![10, 20, 30],
            minhash: vec![3; 16],
        };
        let summary = ShardBandSummary::build([&member].into_iter(), 4, 4);
        let contained = SemanticSketch {
            digests: vec![10, 20, 30],
            minhash: vec![9; 16],
        };
        // Full digest overlap (c_q = c_t = 1) but disjoint bands: under
        // margin 2.0 every non-collided cell still prices to Prune.
        assert!(summary.can_skip(&contained, &contained.band_keys(4, 4), 2.0, 0.0));
        // At margin 0.7 the containment bound blocks the same skip: a
        // non-collided cell could price Exact.
        assert!(!summary.can_skip(&contained, &contained.band_keys(4, 4), 0.7, 0.0));
        // Band collision blocks the skip whatever the margin.
        assert!(!summary.can_skip(&member, &member.band_keys(4, 4), 2.0, 0.0));
    }
}
