//! Semantic sketch prefilter: concrete-execution fingerprints + banded
//! LSH in front of the SAT-backed VCP matrix.
//!
//! The verifier tier scales quadratically: every (query strand class ×
//! corpus strand class) pair surviving the §5.5 size filter costs a
//! [`vcp_pair`](crate::vcp_pair) call, and each of those drives the SAT
//! solver. This module prices most pairs with concrete execution instead:
//!
//! 1. **Sketching.** Every strand class is evaluated once on a fixed,
//!    seed-deterministic battery of *uniform* random input vectors (all
//!    inputs of a round share one value — the same trick that makes
//!    [`esh_strands::semantic_signature`] correspondence-invariant, here
//!    over many more rounds and through the solver's concrete evaluator).
//!    Each non-input value folds its whole cross-round trace into one
//!    stable digest; the sorted digest multiset is the class's
//!    [`SemanticSketch`].
//!
//! 2. **Banding.** Digest sets are minhashed and grouped into LSH bands
//!    (a [`SketchIndex`]). Classes sharing a band with a query strand are
//!    *candidates* and go straight to the exact verifier.
//!
//! 3. **Pricing.** For a non-candidate pair the sketch containment bound
//!    is computed: the engine counts it over dictionary-coded digests, a
//!    table read per distinct class digest (`crate::coded`), equal bit
//!    for bit to [`SemanticSketch::containment_both`]'s merge. Under a
//!    config whose bounds can never reach the margin
//!    ([`PrefilterConfig::bounds_always_prune`]) it is skipped and the
//!    pair pruned outright. The bound is a true upper
//!    bound on VCP: a verified variable match implies equal values on
//!    every uniform round, hence equal digests. If both directions fall
//!    below [`PrefilterConfig::exact_fallback_margin`] the pair is
//!    dropped to the zero pair without consulting the solver — the same
//!    no-evidence pricing the legacy signature filter applies, chosen
//!    over assigning the bound itself because an upper bound fed through
//!    the sigmoid manufactures false positive evidence for dissimilar
//!    pairs. Otherwise the pair falls back to exact verification
//!    (counted in [`PrefilterStatsSnapshot::exact_fallbacks`]), so
//!    **every pair whose true VCP reaches the margin is still decided
//!    exactly**.
//!
//! Sketches are pure functions of the lifted strand and the sketch
//! parameters, so sharded indexes persist them and `esh index build`
//! amortizes the sketching work across queries.
//!
//! [`PrefilterConfig`] holds plain values: `enabled` is the tier's one
//! switch, a zero `ambiguity_window` or `probe_vectors` turns probing off
//! and a zero `refine_top_k` turns refinement off. A disabled tier and
//! zero knobs fold nothing into the config fingerprint.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use esh_ivl::{Proc, Sort};
use esh_solver::eval::{cval_digest, eval_battery, Assignment};
use esh_solver::TermPool;
use esh_strands::{stable_hash64, stable_mix, STABLE_HASH_SEED};
use esh_verifier::encode_proc;
use serde::{Deserialize, Serialize};

/// Tuning for the semantic sketch prefilter tier. Every knob is a plain
/// value; a zero turns its stage off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefilterConfig {
    /// The tier's one switch. Disabled, the engine behaves exactly like
    /// the pre-sketch pipeline (`esh query --no-prefilter`), and the
    /// other knobs are ignored: no sketch is computed, so they cannot
    /// move a score.
    pub enabled: bool,
    /// Number of concrete input vectors every strand class is evaluated
    /// on. More vectors tighten the containment bound (fewer spurious
    /// exact fallbacks) at linear sketching cost. Default: 8.
    pub vectors: usize,
    /// LSH bands over the minhash signature. Default: 4.
    pub bands: usize,
    /// Minhash rows per band. `bands × rows` hash functions total; more
    /// rows make a band collision demand closer sketches. Default: 4.
    pub rows: usize,
    /// Containment bound at or above which a non-candidate pair is still
    /// verified exactly. Every pair whose true VCP (either direction)
    /// reaches this margin is guaranteed an exact verdict, because the
    /// bound never underestimates VCP. Lower margins prune less (deeper
    /// rank fidelity, more SAT work); higher margins prune more. Default
    /// 0.7: `esh index build` writes it, and `bench-rankquality` scores
    /// it against the no-sketch ranking (docs/RANK_QUALITY.md).
    pub exact_fallback_margin: f64,
    /// Half-width of the **ambiguity window** around
    /// `exact_fallback_margin`. A non-candidate pair whose larger
    /// containment bound lands inside `[margin − w, margin + w)` is
    /// *ambiguous*: the base battery cannot confidently separate it from
    /// the margin, so the pair is re-sketched on
    /// [`PrefilterConfig::probe_vectors`] extra concrete vectors before
    /// deciding (the PEM-style "more probes where the evidence is thin").
    /// Wider windows trade extra concrete evaluation for fewer wrong
    /// prune/fallback calls near the margin. 0 disables probing (the
    /// pre-probe decision rule). Default: 0.2.
    pub ambiguity_window: f64,
    /// Extra eval-battery vectors an ambiguous pair's strands are probed
    /// on (on top of [`PrefilterConfig::vectors`]). More probe vectors
    /// make the refined bound tighter — spurious digest agreements
    /// separate — at linear concrete-evaluation cost per *strand class*,
    /// paid once per engine: a class's probe sketch is kept on the class
    /// after its first ambiguous pair, not recomputed per pair or per
    /// batch (a query strand that is no corpus class pays once per
    /// batch). 0 disables probing. Default: 24.
    pub probe_vectors: usize,
    /// Size of the served ranking window that is re-priced through the
    /// full solver path after the pruned ranking (the refine-top-K pass):
    /// every pair behind the top-K targets users actually see is exact,
    /// so the window's internal order equals the exhaustive order.
    /// Larger K buys ranking depth with SAT work proportional to the
    /// window's class count. 0 disables refinement. Default: 10.
    pub refine_top_k: usize,
}

impl Default for PrefilterConfig {
    fn default() -> PrefilterConfig {
        PrefilterConfig {
            enabled: true,
            vectors: 8,
            bands: 4,
            rows: 4,
            exact_fallback_margin: 0.7,
            ambiguity_window: 0.2,
            probe_vectors: 24,
            refine_top_k: 10,
        }
    }
}

impl PrefilterConfig {
    /// Stable FNV-1a digest over every knob. Sketches and pruned-pair
    /// estimates are only valid under the parameters that produced them,
    /// so [`crate::EngineConfig::fingerprint`] folds this in.
    pub fn fingerprint(&self) -> u64 {
        stable_hash64([
            u64::from(self.enabled),
            self.vectors as u64,
            self.bands as u64,
            self.rows as u64,
            self.exact_fallback_margin.to_bits(),
            self.ambiguity_window.to_bits(),
            self.probe_vectors as u64,
            self.refine_top_k as u64,
        ])
    }

    /// Effective ambiguity-window half-width: 0.0 (probing off) unless
    /// both `ambiguity_window` and `probe_vectors` are positive.
    pub fn probe_window(&self) -> f64 {
        if self.ambiguity_window > 0.0 && self.probe_vectors > 0 {
            self.ambiguity_window
        } else {
            0.0
        }
    }

    /// True when no containment bound can reach the margin's window
    /// (`margin − window > 1.0`; bounds never exceed 1.0), so
    /// [`bounds_decision`] prunes every pair whatever its bounds. The
    /// pure-LSH profile ([`PrefilterConfig::lsh_only`]) is such a config.
    pub fn bounds_always_prune(&self) -> bool {
        self.exact_fallback_margin - self.probe_window() > 1.0
    }

    /// Checks the knobs a persisted config can carry against what the
    /// tier can run with: a nonzero LSH shape whose `bands × rows` and
    /// `vectors + probe_vectors` fit a `usize`, and a finite margin and
    /// window. A hand-edited manifest could otherwise ask a query for an
    /// absurd allocation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let (b, r, v, p) = (self.bands, self.rows, self.vectors, self.probe_vectors);
        if b.checked_mul(r).is_none_or(|k| k == 0) || v.checked_add(p).is_none() {
            return Err(format!(
                "unusable sketch shape: {b} × {r} minhash, {v} + {p} vectors"
            ));
        }
        if !(self.exact_fallback_margin.is_finite() && self.ambiguity_window.is_finite()) {
            return Err("non-finite sketch margin or ambiguity window".into());
        }
        Ok(())
    }

    /// The pure-LSH profile the 100k scale tier indexes under: only pairs
    /// that collide on an LSH band are verified exactly; every
    /// non-candidate pair is pruned outright, however high its
    /// containment bound (the margin sits above any reachable bound, and
    /// probing is off). Recall rests entirely on the banded minhash —
    /// the classic sub-linear trade. The ladder settles each non-candidate
    /// from the candidate mask alone, so a shard none of whose classes
    /// shares a band with the query is never opened for it.
    /// The refine-top-K pass stays on to re-price the served window
    /// exactly.
    pub fn lsh_only() -> PrefilterConfig {
        PrefilterConfig {
            // Containment bounds never exceed 1.0, so no non-candidate
            // pair can reach this margin: bounds-based exact fallbacks
            // and probing are off, band collisions alone escalate.
            exact_fallback_margin: 2.0,
            ambiguity_window: 0.0,
            probe_vectors: 0,
            ..PrefilterConfig::default()
        }
    }
}

/// What the sketch tier decided for a non-candidate pair from its base
/// containment bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchDecision {
    /// Both bounds confidently below the margin: price the pair as the
    /// zero pair without any solver work.
    Prune,
    /// The larger bound lands inside the ambiguity window around the
    /// margin: re-sketch both strands on extra probe vectors and re-apply
    /// the margin to the refined bounds.
    Probe,
    /// A bound confidently reaches the margin: verify exactly.
    Exact,
}

/// The decision rule over one pair's containment bounds.
///
/// With `window == 0.0` this is the pre-probe rule: prune iff both
/// bounds fall below `margin`. With a positive window, bounds whose
/// maximum lands inside `[margin − window, margin + window)` return
/// [`SketchDecision::Probe`] instead of being decided on base evidence.
/// Soundness is unaffected: probing re-applies the margin to refined
/// bounds which are themselves upper bounds on the exact VCP, so a pair
/// whose true VCP reaches the margin can never end up pruned.
pub fn bounds_decision(c_q: f64, c_t: f64, margin: f64, window: f64) -> SketchDecision {
    let hi = c_q.max(c_t);
    if hi >= margin + window {
        SketchDecision::Exact
    } else if hi < margin - window {
        SketchDecision::Prune
    } else if window > 0.0 {
        SketchDecision::Probe
    } else if hi < margin {
        SketchDecision::Prune
    } else {
        SketchDecision::Exact
    }
}

/// Domain-separation tag for the minhash family (keeps minhash values
/// from colliding with digest or band-key derivations).
const TAG_MINHASH: u64 = 0x6d69_6e68_6173_6831;

/// Seed of the sketch input battery. Fixed so sketches are reproducible
/// across processes and toolchains.
const SKETCH_SEED: u64 = 0x0e5b_5eed_f19e_0901;

/// A per-strand-class semantic sketch: one stable digest per non-input
/// value (its entire trace across the input battery), plus the minhash
/// signature the LSH index bands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SemanticSketch {
    /// Sorted digests, one per non-input variable. Two digests are equal
    /// exactly when the values agreed (width included) on every round.
    pub digests: Vec<u64>,
    /// Minhash signature (`bands × rows` entries).
    pub minhash: Vec<u64>,
}

impl SemanticSketch {
    /// Upper bound on `VCP(self, other)`: the fraction of `self`'s values
    /// whose digest occurs in `other` (0.0 for an empty sketch).
    ///
    /// Soundness: a verified match `q_i ≡ t_j` under any type-respecting
    /// correspondence γ implies equal concrete values on every uniform
    /// round (matched inputs share a sort, so they receive identical
    /// masked values), hence equal digests — so every exactly-matchable
    /// value is counted here, and the bound never underestimates VCP.
    pub fn containment_in(&self, other: &SemanticSketch) -> f64 {
        if self.digests.is_empty() {
            return 0.0;
        }
        // Both sides sorted; count self entries (with multiplicity —
        // matching is not injective) present anywhere in `other`.
        let mut matched = 0usize;
        let mut j = 0usize;
        for &d in &self.digests {
            while j < other.digests.len() && other.digests[j] < d {
                j += 1;
            }
            if j < other.digests.len() && other.digests[j] == d {
                matched += 1;
            }
        }
        matched as f64 / self.digests.len() as f64
    }

    /// Both containment bounds `(self in other, other in self)` from one
    /// merge: exactly `(self.containment_in(other),
    /// other.containment_in(self))`, bit for bit. The engine's sketch
    /// rung counts the same bounds over dictionary-coded digests; this
    /// merge is the reference its tests hold it to, and what probe
    /// sketches are compared with.
    ///
    /// Each side counts its own entries, duplicates included, whose
    /// digest occurs anywhere on the other side. When the merge steps
    /// past an entry, the other side's current and last passed values
    /// bracket it, so it occurs there iff it equals one of them. Once one
    /// side runs out, the rest of the other side can only match its last
    /// value (the duplicate tail).
    pub fn containment_both(&self, other: &SemanticSketch) -> (f64, f64) {
        let (a, b) = (&self.digests[..], &other.digests[..]);
        let (mut i, mut j, mut a_in_b, mut b_in_a) = (0, 0, 0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            let x_seen = (x == y) | ((j > 0) & (b[j.saturating_sub(1)] == x));
            let y_seen = (x == y) | ((i > 0) & (a[i.saturating_sub(1)] == y));
            let (step_i, step_j) = (x <= y, y <= x);
            a_in_b += usize::from(step_i & x_seen);
            b_in_a += usize::from(step_j & y_seen);
            i += usize::from(step_i);
            j += usize::from(step_j);
        }
        let tail =
            |rest: &[u64], last: Option<&u64>| rest.iter().filter(|&d| Some(d) == last).count();
        a_in_b += tail(&a[i..], b.last());
        b_in_a += tail(&b[j..], a.last());
        let ratio = |matched: usize, len: usize| {
            if len == 0 {
                0.0
            } else {
                matched as f64 / len as f64
            }
        };
        (ratio(a_in_b, a.len()), ratio(b_in_a, b.len()))
    }

    /// The LSH band keys of this sketch under the given banding shape.
    pub fn band_keys(&self, bands: usize, rows: usize) -> Vec<u64> {
        (0..bands)
            .map(|b| {
                let mut h = stable_mix(STABLE_HASH_SEED, b as u64 + 1);
                for r in 0..rows {
                    let v = self.minhash.get(b * rows + r).copied().unwrap_or(u64::MAX);
                    h = stable_mix(h, v);
                }
                h
            })
            .collect()
    }
}

/// Computes the semantic sketch of a lifted strand.
///
/// The strand is encoded into a throwaway term pool and its non-input
/// values are evaluated on `config.vectors` uniform assignments (all
/// bitvector inputs of a round share one pseudo-random value, all memory
/// inputs one base image — the correspondence-invariance requirement).
pub fn compute_sketch(proc_: &Proc, config: &PrefilterConfig) -> SemanticSketch {
    compute_sketch_rounds(proc_, config, config.vectors)
}

/// Computes the **probe** sketch of a lifted strand: the same
/// construction as [`compute_sketch`] over the base battery *extended*
/// by [`PrefilterConfig::probe_vectors`] extra rounds.
///
/// More rounds make each per-temp digest fold more evidence, so two
/// temps that agreed on the base battery by coincidence separate, while
/// genuinely matchable temps (equal under some correspondence on every
/// uniform round) still collide. The resulting containment bound is
/// therefore still a true upper bound on the exact VCP — the property
/// the ambiguity-window decision relies on.
pub fn compute_probe_sketch(proc_: &Proc, config: &PrefilterConfig) -> SemanticSketch {
    compute_sketch_rounds(proc_, config, config.vectors + config.probe_vectors)
}

fn compute_sketch_rounds(proc_: &Proc, config: &PrefilterConfig, vectors: usize) -> SemanticSketch {
    let mut pool = TermPool::new();
    let mut next_id = 0u32;
    let mut ids = HashMap::new();
    let terms = encode_proc(&mut pool, proc_, |v| {
        *ids.entry(v).or_insert_with(|| {
            let id = next_id;
            next_id += 1;
            id
        })
    });
    let temps = proc_.temps();
    let temp_terms: Vec<_> = temps.iter().map(|v| terms[v.index()]).collect();

    let rounds: Vec<Assignment> = (0..vectors as u64)
        .map(|round| {
            let mut a = Assignment::random(round);
            let bv = stable_hash64([SKETCH_SEED, round, 1]);
            let mem = stable_hash64([SKETCH_SEED, round, 2]);
            for (v, id) in &ids {
                match proc_.var(*v).sort {
                    Sort::Bv(_) => {
                        a.vars.insert(*id, bv);
                    }
                    Sort::Mem => {
                        a.mems.insert(*id, mem);
                    }
                }
            }
            a
        })
        .collect();
    let grid = eval_battery(&pool, &temp_terms, &rounds);

    let mut digests: Vec<u64> = temps
        .iter()
        .enumerate()
        .map(|(k, v)| {
            let width = match proc_.var(*v).sort {
                Sort::Bv(w) => u64::from(w),
                Sort::Mem => 0,
            };
            let mut h = stable_mix(STABLE_HASH_SEED, width);
            for row in &grid {
                h = stable_mix(h, cval_digest(&row[k]));
            }
            h
        })
        .collect();
    digests.sort_unstable();

    let k = config.bands * config.rows;
    let minhash = (0..k as u64)
        .map(|i| {
            digests
                .iter()
                .map(|&d| stable_hash64([TAG_MINHASH, i, d]))
                .min()
                .unwrap_or(u64::MAX)
        })
        .collect();
    SemanticSketch { digests, minhash }
}

/// The banded LSH index over every corpus strand class's sketch: the
/// band buckets only, since the classes keep their sketches.
///
/// Built lazily on the first prefilter-enabled query and invalidated
/// whenever a target is added.
#[derive(Debug)]
pub struct SketchIndex {
    bands: usize,
    rows: usize,
    classes: usize,
    buckets: HashMap<u64, Vec<usize>>,
}

impl SketchIndex {
    /// Builds the index over per-class sketches, class `i` being the
    /// `i`-th.
    pub fn build<S: Borrow<SemanticSketch>>(
        sketches: impl IntoIterator<Item = S>,
        config: &PrefilterConfig,
    ) -> SketchIndex {
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut classes = 0;
        for (i, s) in sketches.into_iter().enumerate() {
            for key in s.borrow().band_keys(config.bands, config.rows) {
                buckets.entry(key).or_default().push(i);
            }
            classes = i + 1;
        }
        SketchIndex {
            bands: config.bands,
            rows: config.rows,
            classes,
            buckets,
        }
    }

    /// Candidate mask for a query sketch: `mask[i]` is true when class
    /// `i` shares at least one LSH band with the query — those pairs go
    /// straight to the exact verifier.
    pub fn candidates(&self, query: &SemanticSketch) -> Vec<bool> {
        let mut mask = vec![false; self.classes];
        for key in query.band_keys(self.bands, self.rows) {
            if let Some(bucket) = self.buckets.get(&key) {
                for &i in bucket {
                    mask[i] = true;
                }
            }
        }
        mask
    }
}

/// Engine-lifetime prefilter counters (atomic; workers record, scrapes
/// read).
#[derive(Debug, Default)]
pub struct PrefilterStats {
    pairs_pruned: AtomicU64,
    sketch_collisions: AtomicU64,
    exact_fallbacks: AtomicU64,
    ambiguous_probes: AtomicU64,
    probe_escalations: AtomicU64,
    probe_sketches: AtomicU64,
    refined_pairs: AtomicU64,
    refine_passes: AtomicU64,
}

/// The sketch rung's outcome counts over one stretch of work, kept by
/// each tile worker in plain integers and added to [`PrefilterStats`]
/// once, when the worker finishes.
#[derive(Debug, Default)]
pub(crate) struct RungCounts {
    /// Pairs priced by their sketch bounds (solver skipped).
    pub(crate) pruned: u64,
    /// Pairs retrieved as LSH candidates (band collision).
    pub(crate) collisions: u64,
    /// Non-candidate pairs whose bounds reached the margin and were
    /// verified exactly anyway (probe escalations included).
    pub(crate) fallbacks: u64,
    /// Pairs whose base bounds landed in the ambiguity window and were
    /// re-sketched on extra probe vectors.
    pub(crate) probes: u64,
    /// Probed pairs whose refined bounds still reached the margin.
    pub(crate) escalations: u64,
}

impl PrefilterStats {
    /// Adds one worker's sketch-rung outcome counts.
    pub(crate) fn add_rungs(&self, c: &RungCounts) {
        self.pairs_pruned.fetch_add(c.pruned, Ordering::Relaxed);
        self.sketch_collisions
            .fetch_add(c.collisions, Ordering::Relaxed);
        self.exact_fallbacks
            .fetch_add(c.fallbacks, Ordering::Relaxed);
        self.ambiguous_probes.fetch_add(c.probes, Ordering::Relaxed);
        self.probe_escalations
            .fetch_add(c.escalations, Ordering::Relaxed);
    }

    /// Counts one probe sketch stored in its strand's slot.
    pub fn record_probe_sketch(&self) {
        self.probe_sketches.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` sketch-pruned pairs re-verified by a refine-top-K pass.
    pub fn record_refined_pairs(&self, n: u64) {
        self.refined_pairs.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one query that ran a refine-top-K pass.
    pub fn record_refine_pass(&self) {
        self.refine_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> PrefilterStatsSnapshot {
        PrefilterStatsSnapshot {
            pairs_pruned: self.pairs_pruned.load(Ordering::Relaxed),
            sketch_collisions: self.sketch_collisions.load(Ordering::Relaxed),
            exact_fallbacks: self.exact_fallbacks.load(Ordering::Relaxed),
            ambiguous_probes: self.ambiguous_probes.load(Ordering::Relaxed),
            probe_escalations: self.probe_escalations.load(Ordering::Relaxed),
            probe_sketches: self.probe_sketches.load(Ordering::Relaxed),
            refined_pairs: self.refined_pairs.load(Ordering::Relaxed),
            refine_passes: self.refine_passes.load(Ordering::Relaxed),
        }
    }
}

/// Plain copy of the prefilter counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefilterStatsSnapshot {
    /// Pairs whose VCP was estimated from sketches — no solver call.
    pub pairs_pruned: u64,
    /// Pairs retrieved as LSH candidates (shared at least one band).
    pub sketch_collisions: u64,
    /// Non-candidate pairs whose containment bound reached the margin and
    /// fell back to exact verification (probe escalations included).
    pub exact_fallbacks: u64,
    /// Pairs whose base bounds landed inside the ambiguity window and
    /// were re-sketched on extra probe vectors before deciding.
    pub ambiguous_probes: u64,
    /// Probed pairs whose refined bounds still reached the margin and
    /// escalated to exact verification (the rest of the probes pruned).
    pub probe_escalations: u64,
    /// Probe sketches stored: at most one per corpus class per engine,
    /// plus one per query strand that is no corpus class per batch.
    pub probe_sketches: u64,
    /// Sketch-pruned pairs the refine-top-K pass re-priced through the
    /// verifier (cache-known and dominance-skipped cells excluded — see
    /// the refine pass in `SimilarityEngine`).
    pub refined_pairs: u64,
    /// Queries that ran a refine-top-K pass over their served window.
    pub refine_passes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use esh_ivl::lift;

    fn lift_text(text: &str) -> Proc {
        let p = esh_asm::parse_proc(&format!("proc t\nentry:\n{text}")).expect("parses");
        lift("t", &p.blocks[0].insts)
    }

    #[test]
    fn sketch_is_deterministic_and_register_rename_invariant() {
        let a = lift_text("mov r13, rbx\nlea rcx, [r13+0x3]\nshr rcx, 0x2");
        let b = lift_text("mov r12, rbx\nlea rdi, [r12+0x3]\nshr rdi, 0x2");
        let cfg = PrefilterConfig::default();
        assert_eq!(compute_sketch(&a, &cfg), compute_sketch(&a, &cfg));
        assert_eq!(compute_sketch(&a, &cfg), compute_sketch(&b, &cfg));
    }

    #[test]
    fn equivalent_strands_have_full_containment() {
        // Figure 3's pair: the query's every value exists in the target.
        let q = lift_text("lea r14d, [r12+0x13]\nmov rsi, 0x18\nlea rax, [rsi+r14]");
        let t = lift_text(
            "mov r9, 0x13\nmov rbx, r12\nlea r13d, [rbx+r9]\nadd r9, 0x5\nmov rsi, r9\n\
             lea rax, [rsi+r13]",
        );
        let cfg = PrefilterConfig::default();
        let sq = compute_sketch(&q, &cfg);
        let st = compute_sketch(&t, &cfg);
        assert_eq!(sq.containment_in(&st), 1.0);
        assert!(st.containment_in(&sq) < 1.0, "t computes extra values");
    }

    #[test]
    fn unrelated_strands_have_low_containment_and_no_band_collision() {
        let q = lift_text("mov rax, rdi\nimul rax, rsi\nxor rax, 0x1234");
        let t = lift_text("mov rbx, rdi\nshr rbx, 0x7\nor rbx, 0x8000");
        let cfg = PrefilterConfig::default();
        let sq = compute_sketch(&q, &cfg);
        let st = compute_sketch(&t, &cfg);
        assert!(sq.containment_in(&st) < 0.5);
        let index = SketchIndex::build(vec![st], &cfg);
        assert!(!index.candidates(&sq)[0], "no band should collide");
    }

    #[test]
    fn identical_sketches_always_collide_in_every_band() {
        let s = compute_sketch(
            &lift_text("mov rax, rdi\nadd rax, 0x5\nimul rax, rax"),
            &PrefilterConfig::default(),
        );
        let cfg = PrefilterConfig::default();
        let index = SketchIndex::build(vec![s.clone()], &cfg);
        assert!(index.candidates(&s)[0]);
        assert_eq!(s.band_keys(cfg.bands, cfg.rows).len(), cfg.bands);
    }

    #[test]
    fn stats_counters_accumulate() {
        let stats = PrefilterStats::default();
        stats.add_rungs(&RungCounts {
            pruned: 2,
            collisions: 1,
            fallbacks: 1,
            probes: 2,
            escalations: 1,
        });
        stats.record_probe_sketch();
        stats.record_refined_pairs(5);
        stats.record_refine_pass();
        let s = stats.snapshot();
        assert_eq!(s.pairs_pruned, 2);
        assert_eq!(s.sketch_collisions, 1);
        assert_eq!(s.exact_fallbacks, 1);
        assert_eq!(s.ambiguous_probes, 2);
        assert_eq!(s.probe_escalations, 1);
        assert_eq!(s.probe_sketches, 1);
        assert_eq!(s.refined_pairs, 5);
        assert_eq!(s.refine_passes, 1);
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = PrefilterConfig::default();
        let mut seen = std::collections::HashSet::new();
        seen.insert(base.fingerprint());
        for cfg in [
            PrefilterConfig {
                enabled: false,
                ..base
            },
            PrefilterConfig {
                vectors: 16,
                ..base
            },
            PrefilterConfig { bands: 8, ..base },
            PrefilterConfig { rows: 3, ..base },
            PrefilterConfig {
                exact_fallback_margin: 0.5,
                ..base
            },
            PrefilterConfig {
                ambiguity_window: 0.3,
                ..base
            },
            PrefilterConfig {
                ambiguity_window: 0.0,
                ..base
            },
            PrefilterConfig {
                probe_vectors: 48,
                ..base
            },
            PrefilterConfig {
                probe_vectors: 0,
                ..base
            },
            PrefilterConfig {
                refine_top_k: 5,
                ..base
            },
            PrefilterConfig {
                refine_top_k: 0,
                ..base
            },
        ] {
            assert!(seen.insert(cfg.fingerprint()), "collision for {cfg:?}");
        }
    }

    #[test]
    fn probe_sketch_keeps_rename_invariance_and_folds_extra_rounds() {
        // Probing extends the battery: rename-equivalent strands still
        // produce identical probe sketches (full containment both ways),
        // while each digest now folds more rounds than the base sketch.
        let a = lift_text("mov r13, rbx\nlea rcx, [r13+0x3]\nshr rcx, 0x2");
        let b = lift_text("mov r12, rbx\nlea rdi, [r12+0x3]\nshr rdi, 0x2");
        let cfg = PrefilterConfig::default();
        let pa = compute_probe_sketch(&a, &cfg);
        let pb = compute_probe_sketch(&b, &cfg);
        assert_eq!(pa, pb);
        assert_eq!(pa.containment_in(&pb), 1.0);
        let base = compute_sketch(&a, &cfg);
        assert_eq!(
            base.digests.len(),
            pa.digests.len(),
            "digests are per value"
        );
        assert_ne!(base.digests, pa.digests, "probe rounds fold into digests");
    }

    #[test]
    fn bounds_decision_partitions_around_the_margin() {
        let m = 0.6;
        let w = 0.1;
        // Clearly below the window: prune without probing.
        assert_eq!(bounds_decision(0.2, 0.3, m, w), SketchDecision::Prune);
        // Clearly above the window: exact, no probe needed.
        assert_eq!(bounds_decision(0.1, 0.8, m, w), SketchDecision::Exact);
        // Inside [margin - w, margin + w): ambiguous, probe.
        assert_eq!(bounds_decision(0.55, 0.1, m, w), SketchDecision::Probe);
        assert_eq!(bounds_decision(0.1, 0.65, m, w), SketchDecision::Probe);
        // The decision keys off the larger bound.
        assert_eq!(bounds_decision(0.65, 0.75, m, w), SketchDecision::Exact);
        // Zero window reduces to the legacy two-way margin rule.
        assert_eq!(bounds_decision(0.59, 0.0, m, 0.0), SketchDecision::Prune);
        assert_eq!(bounds_decision(0.61, 0.0, m, 0.0), SketchDecision::Exact);
    }

    #[test]
    fn one_merge_containment_matches_two_containment_in_calls() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Small alphabets force duplicates on both sides, runs that end
        // either side and partial overlaps; lengths of 0–8 cover empty
        // sides and every ratio with a small denominator.
        let mut rng = StdRng::seed_from_u64(0xc04a_1b07);
        let random_sketch = |rng: &mut StdRng| {
            let alphabet = rng.gen_range(1u64..=6);
            let mut digests: Vec<u64> = (0..rng.gen_range(0..=8usize))
                .map(|_| rng.gen_range(0..alphabet))
                .collect();
            digests.sort_unstable();
            SemanticSketch {
                digests,
                minhash: Vec::new(),
            }
        };
        let (mut partial, mut duplicated) = (0usize, 0usize);
        for _ in 0..20_000 {
            let a = random_sketch(&mut rng);
            let b = random_sketch(&mut rng);
            let (ab, ba) = a.containment_both(&b);
            let (want_ab, want_ba) = (a.containment_in(&b), b.containment_in(&a));
            assert_eq!(ab.to_bits(), want_ab.to_bits(), "{a:?} in {b:?}");
            assert_eq!(ba.to_bits(), want_ba.to_bits(), "{b:?} in {a:?}");
            partial += usize::from(0.0 < want_ab && want_ab < 1.0);
            duplicated += usize::from(a.digests.windows(2).any(|w| w[0] == w[1]));
        }
        assert!(
            partial > 1_000 && duplicated > 1_000,
            "partial overlaps {partial}, duplicated sides {duplicated}"
        );
    }

    #[test]
    fn bounds_decision_never_prunes_at_or_above_margin() {
        // Soundness invariant of the window rule: any pair whose larger
        // bound reaches the margin is probed or verified, never pruned.
        for m in [0.3, 0.6, 0.9] {
            for w in [0.0, 0.05, 0.2] {
                let mut hi = m;
                while hi <= 1.0 + 1e-9 {
                    let d = bounds_decision(hi, 0.0, m, w);
                    assert_ne!(d, SketchDecision::Prune, "pruned hi={hi} m={m} w={w}");
                    hi += 0.01;
                }
            }
        }
    }
}
