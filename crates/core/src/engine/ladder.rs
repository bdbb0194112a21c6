//! The pricing ladder: each `(query strand, corpus class)` cell is
//! priced by the cheapest rung that decides it — the size-ratio and
//! signature filters, the sketch rung's containment bounds, then the
//! exact step behind the VCP cache. The matrix pass runs the cheap rungs
//! over a whole row at once through [`SimilarityEngine::row_survivors`]
//! (the size-ratio filter is a window of the classes in size order, so a
//! row never visits a class outside it) and prices each survivor through
//! [`SimilarityEngine::price_survivor`]; refine re-prices the cells the
//! matrix pass left pruned or unpriced through
//! [`SimilarityEngine::reprice`] and [`SimilarityEngine::exact_cell`].
//! The signature filter and the base containment bounds count over the
//! query strand's [`StrandTable`] (see [`crate::coded`]).

use std::ops::Range;
use std::sync::OnceLock;

use esh_ivl::Proc;

use super::matrix::Worker;
use super::{ClassProcRef, ItemPass, QueryStrand, SimilarityEngine, StrandProc};
use crate::cache::VcpKey;
use crate::coded::StrandTable;
use crate::prefilter::{
    bounds_decision, compute_probe_sketch, PrefilterConfig, PrefilterStats, RungCounts,
    SemanticSketch, SketchDecision,
};
use crate::shard::ShardError;
use crate::vcp::{size_ratio_ok, vcp_pair, VcpPair};

/// Which rung of the pricing ladder decided a matrix cell. The matrix
/// pass records it beside each [`VcpPair`], and the refine pass reads it
/// instead of pricing the cell a second time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Rung {
    /// Never priced: an LSH non-candidate under a config where every
    /// non-candidate prunes, settled (and counted as pruned) before the
    /// cheap filters, which refine runs on it.
    Unpriced,
    /// Dropped by the size-ratio or signature filter — and every cell of
    /// an item that failed or was cancelled, which is never refined.
    Filtered,
    /// Dropped by the sketch rung.
    Pruned,
    /// Priced exactly, from the cache or the verifier; the cell's shard
    /// is marked in the item's fan-out.
    Exact,
}

/// What the ladder knows of a `Pruned` or `Unpriced` cell without the
/// verifier (see [`SimilarityEngine::reprice`]).
pub(super) enum Reprice {
    /// The cheap filters drop the pair: it prices as the zero pair.
    Filtered,
    /// The VCP cache holds the pair's exact value.
    Known(VcpPair),
    /// Unknown; the pair's true VCP is at most these containment bounds,
    /// `(q in t, t in q)`.
    Bounded(f64, f64),
}

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

/// `table`, loaded with query strand `qi` of item `it` unless it holds
/// that strand already.
fn load_strand<'t>(it: &ItemPass<'_>, qi: usize, table: &'t mut StrandTable) -> &'t StrandTable {
    table.load(
        (it.item, qi),
        &it.batch.derived.codes,
        &it.strands[qi].coded,
    );
    table
}

impl SimilarityEngine {
    /// The cheap rungs over row `qi` of item `it`: the classes at
    /// `window`, positions of [`super::Derived::by_size`] (the row's
    /// size-ratio window), that pass the signature filter, in ascending
    /// class order. Every other cell of the row is dropped unvisited.
    /// When every non-candidate prunes
    /// ([`PrefilterConfig::bounds_always_prune`]), the mask comes first:
    /// each LSH non-candidate of the row, inside the window or not, is
    /// counted as pruned and left to the caller to record `Unpriced`,
    /// with no filter work and no shard opened.
    pub(super) fn row_survivors(
        &self,
        it: &ItemPass<'_>,
        qi: usize,
        window: Range<usize>,
        mask: Option<&[bool]>,
        w: &mut Worker,
    ) -> Vec<usize> {
        let settled = mask.filter(|_| it.batch.mask_settles);
        if let Some(mask) = settled {
            w.counts.pruned += mask.iter().filter(|&&c| !c).count() as u64;
        }
        let derived = it.batch.derived;
        let table = load_strand(it, qi, &mut w.table);
        let threshold = self.config.prefilter_threshold;
        let mut survivors: Vec<usize> = derived.by_size[window]
            .iter()
            .copied()
            .filter(|&ci| settled.is_none_or(|m| m[ci]))
            .filter(|&ci| table.signature_reaches(&derived.codes, ci, threshold))
            .collect();
        survivors.sort_unstable();
        survivors
    }

    /// Prices a cell that passed the cheap rungs ([`Self::row_survivors`]):
    /// the sketch rung, when the query strand carries an LSH candidate
    /// mask, then the exact step behind a lookup counted on the worker.
    /// Returns the rung that decided the cell with its value; a pair
    /// the sketch rung drops prices as the zero pair.
    pub(super) fn price_survivor(
        &self,
        it: &ItemPass<'_>,
        qi: usize,
        ci: usize,
        mask: Option<&[bool]>,
        w: &mut Worker,
    ) -> Result<(Rung, VcpPair), ShardError> {
        if let Some(mask) = mask {
            let table = load_strand(it, qi, &mut w.table);
            if !self.sketch_rung(it, qi, ci, mask[ci], table, &mut w.counts)? {
                return Ok((Rung::Pruned, VcpPair::default()));
            }
        }
        self.open_cell(it, ci)?;
        let (v, _) = self.exact_cell(it, qi, ci, w, true)?;
        Ok((Rung::Exact, v))
    }

    /// Refine's entry to the ladder for a cell the matrix pass left
    /// `Pruned` or `Unpriced` (`rung`). An unpriced cell first passes the
    /// cheap filters. The cell's shard is then opened, so the scan sees
    /// the persisted cache segment of every class it peeks and counts
    /// toward the item's fan-out. The lookup is uncounted: this scan
    /// separates known from pruned cells and must not distort the miss
    /// counter the benches report as verifier calls. A cell the cache
    /// does not know is bounded by the tightest containment bounds
    /// available — both sides' probe sketches when probing is on, the
    /// base sketches otherwise — since every tightened bound is another
    /// chance for refine to skip a verification. A query strand without
    /// a sketch bounds nothing, `(1.0, 1.0)`. `table` is loaded with
    /// query strand `qi` only when a cheap rung needs it.
    pub(super) fn reprice(
        &self,
        it: &ItemPass<'_>,
        qi: usize,
        ci: usize,
        rung: Rung,
        table: &mut StrandTable,
    ) -> Result<Reprice, ShardError> {
        let q = &it.strands[qi];
        if rung == Rung::Unpriced
            && !self.passes_cheap_filters(it, qi, ci, load_strand(it, qi, table))
        {
            return Ok(Reprice::Filtered);
        }
        self.open_cell(it, ci)?;
        if let Some(v) = self.cache.peek(&self.cell_key(it, qi, ci)) {
            return Ok(Reprice::Known(v));
        }
        let (c_q, c_t) = match (self.config.active_sketch(), &q.sketch) {
            (Some(cfg), Some(_)) if cfg.probe_window() == 0.0 => {
                load_strand(it, qi, table).containment_both(&it.batch.derived.codes, ci)
            }
            (Some(cfg), Some(_)) => self.probe_bounds(cfg, q, ci, || self.class_proc(ci))?,
            _ => (1.0, 1.0),
        };
        Ok(Reprice::Bounded(c_q, c_t))
    }

    /// The ladder's cheap rungs for one cell, as refine runs them: the
    /// §5.5 size-ratio filter, then the semantic-signature bound, which
    /// rejects a pair only when its overlap falls below the threshold in
    /// both directions. Both directions come from one table count per
    /// signature round ([`StrandTable::signature_reaches`], exactly
    /// [`esh_strands::Signature::either_overlap_reaches`]), which stops
    /// at the first round where both are below. `table` holds query
    /// strand `qi`.
    fn passes_cheap_filters(
        &self,
        it: &ItemPass<'_>,
        qi: usize,
        ci: usize,
        table: &StrandTable,
    ) -> bool {
        let threshold = self.config.prefilter_threshold;
        size_ratio_ok(&self.config.vcp, it.strands[qi].vars, self.classes[ci].vars)
            && table.signature_reaches(&it.batch.derived.codes, ci, threshold)
    }

    /// The sketch rung for one cell; `Ok(false)` prunes the pair. Every
    /// pair is priced by its containment bounds: both below the margin
    /// prunes it (sound: the bounds never underestimate VCP, so no pair
    /// at or above the margin is ever skipped, and a below-margin pair
    /// contributes the no-evidence likelihood floor rather than an
    /// inflated estimate). Bounds inside the ambiguity window around the
    /// margin re-sketch both strands on extra probe vectors and re-apply
    /// the margin to the refined bounds; anything else goes to the exact
    /// verifier. An LSH band collision (`collided`) is recorded for
    /// observability; under the pre-probe rule (no ambiguity window) a
    /// collision still forces exact verification, while staged pricing
    /// lets the margin prune spurious band matches too (a true
    /// same-source pair has bound 1.0 and always verifies either way).
    /// Under a config whose bounds can never reach the margin
    /// ([`PrefilterConfig::bounds_always_prune`], the pure-LSH profile)
    /// only band candidates get this far ([`Self::row_survivors`] settles
    /// the rest), and each prunes without its bounds unless the
    /// collision forces verification. The base
    /// bounds are counted over `table`, which holds query strand `qi`
    /// ([`StrandTable::containment_both`]). Outcomes are tallied in the
    /// calling worker's `counts`.
    fn sketch_rung(
        &self,
        it: &ItemPass<'_>,
        qi: usize,
        ci: usize,
        collided: bool,
        table: &StrandTable,
        counts: &mut RungCounts,
    ) -> Result<bool, ShardError> {
        let q = &it.strands[qi];
        let (Some(cfg), Some(_)) = (self.config.active_sketch(), &q.sketch) else {
            return Ok(true);
        };
        counts.collisions += u64::from(collided);
        let (margin, window) = (cfg.exact_fallback_margin, cfg.probe_window());
        if collided && window <= 0.0 {
            return Ok(true);
        }
        if cfg.bounds_always_prune() {
            counts.pruned += 1;
            return Ok(false);
        }
        let (c_q, c_t) = table.containment_both(&it.batch.derived.codes, ci);
        match bounds_decision(c_q, c_t, margin, window) {
            SketchDecision::Prune => {
                counts.pruned += 1;
                return Ok(false);
            }
            SketchDecision::Probe => {
                counts.probes += 1;
                let (r_q, r_t) = self.probe_bounds(cfg, q, ci, || {
                    self.open_cell(it, ci)?;
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

    /// Opens class `ci`'s shard for item `it`, once per item and shard,
    /// and records the fan-out. Must run before the first counted cache
    /// lookup touching `ci` — the open-before-lookup invariant that keeps
    /// sharded hit/miss counters identical to a fully resident engine's,
    /// since opening inserts the shard's persisted cache segment. Once is
    /// enough: the item's [`ShardTouch`](crate::shard::ShardTouch) flag is
    /// set after the open, and an evicted shard's segment stays in the
    /// cache (a reopen re-inserts it idempotently). Procedure records are
    /// *not* decoded here: that happens per class at proc-need time via
    /// [`SimilarityEngine::class_proc`], after the lookup, so a cache hit
    /// never pays the decode.
    fn open_cell(&self, it: &ItemPass<'_>, ci: usize) -> Result<(), ShardError> {
        if let Some(lazy) = &self.shards {
            let shard = lazy.shard_of_class(ci);
            if !it.batch.touched.is_marked(it.item, shard) {
                lazy.ensure_loaded(shard, &self.cache)?;
                it.batch.touched.mark(it.item, shard);
            }
        }
        Ok(())
    }

    /// The cache key of cell `(qi, ci)` of item `it`.
    fn cell_key(&self, it: &ItemPass<'_>, qi: usize, ci: usize) -> VcpKey {
        (it.strands[qi].hash, self.classes[ci].hash, it.batch.vcp_fp)
    }

    /// The ladder's exact step for cell `(qi, ci)`, whose shard is open:
    /// the VCP cache, then on a miss the verifier, whose verdict is
    /// memoized. The matrix pass's lookup is `counted`, on the worker `w`;
    /// refine's is not, since which of its cells the cache already knows
    /// depends on engine history (a warm repeat verifies nothing), and
    /// counting them would make the hit/miss totals nondeterministic —
    /// refine's verifier work is counted as refined pairs instead.
    /// Returns the VCP and whether the verifier ran, decoding class `ci`
    /// (and the query strand's own class, when it names one) only then.
    pub(super) fn exact_cell(
        &self,
        it: &ItemPass<'_>,
        qi: usize,
        ci: usize,
        w: &mut Worker,
        counted: bool,
    ) -> Result<(VcpPair, bool), ShardError> {
        let key = self.cell_key(it, qi, ci);
        let known = self.cache.peek(&key);
        if counted {
            match known {
                Some(_) => w.cache_hits += 1,
                None => w.cache_misses += 1,
            }
        }
        if let Some(v) = known {
            return Ok((v, false));
        }
        let query = self.strand_proc(&it.strands[qi])?;
        let class = self.class_proc(ci)?;
        let v = vcp_pair(&mut w.session, &query, &class, &self.config.vcp);
        self.cache.insert(key, v);
        Ok((v, true))
    }

    /// The lifted procedure behind query strand `q`, decoding its class
    /// record when the strand names one.
    fn strand_proc<'s>(&'s self, q: &'s QueryStrand) -> Result<ClassProcRef<'s>, ShardError> {
        match &q.proc_ {
            StrandProc::Lifted(p) => Ok(ClassProcRef::Resident(p)),
            StrandProc::Class(ci) => self.class_proc(*ci),
        }
    }
}
