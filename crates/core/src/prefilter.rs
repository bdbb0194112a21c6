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
//!    is computed (cheap multiset arithmetic). The bound is a true upper
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use esh_ivl::{Proc, Sort};
use esh_solver::eval::{eval_battery, cval_digest, Assignment};
use esh_solver::TermPool;
use esh_strands::{stable_hash64, stable_mix, STABLE_HASH_SEED};
use esh_verifier::encode_proc;
use serde::{Deserialize, Serialize};

/// Tuning for the semantic sketch prefilter tier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefilterConfig {
    /// Master switch. Disabled, the engine behaves exactly like the
    /// pre-sketch pipeline (`esh query --no-prefilter`).
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
    /// 0.7; [`SimilarityEngine::calibrate_margin`] picks a per-corpus
    /// value from a held-out sample.
    ///
    /// [`SimilarityEngine::calibrate_margin`]:
    ///     crate::SimilarityEngine::calibrate_margin
    pub exact_fallback_margin: f64,
    /// Half-width of the **ambiguity window** around
    /// `exact_fallback_margin`. A non-candidate pair whose larger
    /// containment bound lands inside `[margin − w, margin + w)` is
    /// *ambiguous*: the base battery cannot confidently separate it from
    /// the margin, so the pair is re-sketched on
    /// [`PrefilterConfig::probe_vectors`] extra concrete vectors before
    /// deciding (the PEM-style "more probes where the evidence is thin").
    /// Wider windows trade extra concrete evaluation for fewer wrong
    /// prune/fallback calls near the margin. `None` disables probing
    /// (the pre-probe decision rule).
    /// Default: `Some(0.2)`.
    pub ambiguity_window: Option<f64>,
    /// Extra eval-battery vectors an ambiguous pair's strands are probed
    /// on (on top of [`PrefilterConfig::vectors`]). More probe vectors
    /// make the refined bound tighter — spurious digest agreements
    /// separate — at linear concrete-evaluation cost per *strand class*
    /// (probe sketches are cached per class, not per pair). `None`
    /// disables probing. Default: `Some(24)`.
    pub probe_vectors: Option<usize>,
    /// Size of the served ranking window that is re-priced through the
    /// full solver path after the pruned ranking (the refine-top-K pass):
    /// every pair behind the top-K targets users actually see is exact,
    /// so the window's internal order equals the exhaustive order.
    /// Larger K buys ranking depth with SAT work proportional to the
    /// window's class count. `None`/`Some(0)` disables refinement.
    /// Default: `Some(10)`.
    pub refine_top_k: Option<usize>,
}

impl Default for PrefilterConfig {
    fn default() -> PrefilterConfig {
        PrefilterConfig {
            enabled: true,
            vectors: 8,
            bands: 4,
            rows: 4,
            exact_fallback_margin: 0.7,
            ambiguity_window: Some(0.2),
            probe_vectors: Some(24),
            refine_top_k: Some(10),
        }
    }
}

impl PrefilterConfig {
    /// Stable FNV-1a digest over every knob. Sketches and pruned-pair
    /// estimates are only valid under the parameters that produced them,
    /// so [`crate::EngineConfig::fingerprint`] folds this in.
    ///
    /// The post-v3 knobs (`ambiguity_window`, `probe_vectors`,
    /// `refine_top_k`) are mixed **only when present**, so a config
    /// recorded before they existed (where they deserialize as `None`)
    /// keeps the fingerprint it was recorded with.
    pub fn fingerprint(&self) -> u64 {
        let mut fields = vec![
            u64::from(self.enabled),
            self.vectors as u64,
            self.bands as u64,
            self.rows as u64,
            self.exact_fallback_margin.to_bits(),
        ];
        if let Some(w) = self.ambiguity_window {
            fields.push(0xa3b1);
            fields.push(w.to_bits());
        }
        if let Some(p) = self.probe_vectors {
            fields.push(0xa3b2);
            fields.push(p as u64);
        }
        if let Some(k) = self.refine_top_k {
            fields.push(0xa3b3);
            fields.push(k as u64);
        }
        stable_hash64(fields)
    }

    /// Effective ambiguity-window half-width: 0.0 (probing off) unless
    /// both `ambiguity_window` and `probe_vectors` are configured.
    pub fn probe_window(&self) -> f64 {
        match (self.ambiguity_window, self.probe_vectors) {
            (Some(w), Some(p)) if w > 0.0 && p > 0 => w,
            _ => 0.0,
        }
    }

    /// Effective extra probe-vector count (0 = probing off).
    pub fn effective_probe_vectors(&self) -> usize {
        if self.probe_window() > 0.0 {
            self.probe_vectors.unwrap_or(0)
        } else {
            0
        }
    }

    /// Effective refine window size (0 = refinement off).
    pub fn effective_refine_top_k(&self) -> usize {
        self.refine_top_k.unwrap_or(0)
    }

    /// The pure-LSH profile the 100k scale tier indexes under: only pairs
    /// that collide on an LSH band are verified exactly; every
    /// non-candidate pair is pruned outright, however high its
    /// containment bound (the margin sits above any reachable bound, and
    /// probing is off). Recall rests entirely on the banded minhash —
    /// the classic sub-linear trade — which is also what makes
    /// whole-shard band pruning effective: a shard none of whose classes
    /// shares a band with the query provably contributes nothing, so the
    /// fan-out skips it without loading it (see `ShardBandSummary`).
    /// The refine-top-K pass stays on to re-price the served window
    /// exactly.
    pub fn lsh_only() -> PrefilterConfig {
        PrefilterConfig {
            // Containment bounds never exceed 1.0, so no non-candidate
            // pair can reach this margin: bounds-based exact fallbacks
            // and probing are off, band collisions alone escalate.
            exact_fallback_margin: 2.0,
            ambiguity_window: None,
            probe_vectors: None,
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
/// by [`PrefilterConfig::effective_probe_vectors`] extra rounds.
///
/// More rounds make each per-temp digest fold more evidence, so two
/// temps that agreed on the base battery by coincidence separate, while
/// genuinely matchable temps (equal under some correspondence on every
/// uniform round) still collide. The resulting containment bound is
/// therefore still a true upper bound on the exact VCP — the property
/// the ambiguity-window decision relies on.
pub fn compute_probe_sketch(proc_: &Proc, config: &PrefilterConfig) -> SemanticSketch {
    compute_sketch_rounds(
        proc_,
        config,
        config.vectors + config.effective_probe_vectors(),
    )
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

/// The banded LSH index over every corpus strand class's sketch.
///
/// Built lazily on the first prefilter-enabled query (so classes
/// without persisted sketches just rebuild them) and invalidated whenever
/// a target is added.
#[derive(Debug)]
pub struct SketchIndex {
    bands: usize,
    rows: usize,
    sketches: Vec<SemanticSketch>,
    buckets: HashMap<u64, Vec<usize>>,
}

impl SketchIndex {
    /// Builds the index over per-class sketches.
    pub fn build(sketches: Vec<SemanticSketch>, config: &PrefilterConfig) -> SketchIndex {
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in sketches.iter().enumerate() {
            for key in s.band_keys(config.bands, config.rows) {
                buckets.entry(key).or_default().push(i);
            }
        }
        SketchIndex {
            bands: config.bands,
            rows: config.rows,
            sketches,
            buckets,
        }
    }

    /// Number of indexed classes.
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// True when no classes are indexed.
    pub fn is_empty(&self) -> bool {
        self.sketches.is_empty()
    }

    /// The sketch of class `i`.
    pub fn sketch(&self, i: usize) -> &SemanticSketch {
        &self.sketches[i]
    }

    /// Candidate mask for a query sketch: `mask[i]` is true when class
    /// `i` shares at least one LSH band with the query — those pairs go
    /// straight to the exact verifier.
    pub fn candidates(&self, query: &SemanticSketch) -> Vec<bool> {
        let mut mask = vec![false; self.sketches.len()];
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
    refined_pairs: AtomicU64,
    refine_passes: AtomicU64,
}

impl PrefilterStats {
    /// Counts one pair priced by its sketch bound (solver skipped).
    pub fn record_pruned(&self) {
        self.pairs_pruned.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one pair retrieved as an LSH candidate (band collision).
    pub fn record_collision(&self) {
        self.sketch_collisions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one non-candidate pair whose bound reached the margin and
    /// was verified exactly anyway.
    pub fn record_fallback(&self) {
        self.exact_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one pair whose base bounds landed in the ambiguity window
    /// and was re-sketched on extra probe vectors.
    pub fn record_probe(&self) {
        self.ambiguous_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one probed pair whose refined bounds still reached the
    /// margin and escalated to exact verification.
    pub fn record_probe_escalation(&self) {
        self.probe_escalations.fetch_add(1, Ordering::Relaxed);
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
    /// Sketch-pruned pairs the refine-top-K pass re-priced through the
    /// verifier (cache-known and dominance-skipped cells excluded — see
    /// the refine pass in `SimilarityEngine`).
    pub refined_pairs: u64,
    /// Queries that ran a refine-top-K pass over their served window.
    pub refine_passes: u64,
}

/// One held-out observation for margin calibration: the larger of a
/// pair's two sketch containment bounds against the larger of its two
/// exact VCP directions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginSample {
    /// `max(containment(q→t), containment(t→q))` from the base sketches.
    pub bound: f64,
    /// `max(VCP(q,t), VCP(t,q))` from the exact verifier.
    pub exact: f64,
}

/// Result of calibrating `exact_fallback_margin` against a held-out
/// sample (see [`calibrated_margin`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginCalibration {
    /// The chosen margin.
    pub margin: f64,
    /// Sampled pairs the choice was driven by.
    pub sampled_pairs: usize,
    /// Fraction of the sample the chosen margin would prune.
    pub pruned_fraction: f64,
    /// Largest exact VCP among sampled pairs the chosen margin prunes
    /// (the calibration's realized score-distortion bound).
    pub max_pruned_exact: f64,
}

/// Margin grid the calibration searches (ascending).
const MARGIN_GRID: [f64; 13] = [
    0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90,
];

/// Picks the largest margin on a fixed grid such that **no sampled pair
/// the margin would prune has exact VCP above `max_pruned_vcp`**.
///
/// The containment bound already guarantees pruned pairs have exact VCP
/// below the margin; calibration tightens that to a per-corpus bound on
/// the VCP evidence pruning may discard. `max_pruned_vcp` is the knob:
/// at most this much true VCP may be zeroed per pruned pair. Sub-sigmoid
/// values (≤ 0.5, where `likelihood` contributes almost nothing) keep
/// pruned pairs out of the scoring's sensitive region entirely.
///
/// With an empty sample the grid's most conservative margin is returned.
pub fn calibrated_margin(samples: &[MarginSample], max_pruned_vcp: f64) -> MarginCalibration {
    let mut best = MARGIN_GRID[0];
    if samples.is_empty() {
        // No evidence: every grid point is vacuously "safe"; stay at the
        // grid's most conservative margin instead of its largest.
        return MarginCalibration {
            margin: best,
            sampled_pairs: 0,
            pruned_fraction: 0.0,
            max_pruned_exact: 0.0,
        };
    }
    for &m in &MARGIN_GRID {
        let safe = samples
            .iter()
            .filter(|s| s.bound < m)
            .all(|s| s.exact <= max_pruned_vcp);
        if safe {
            best = m;
        }
    }
    let pruned: Vec<&MarginSample> = samples.iter().filter(|s| s.bound < best).collect();
    MarginCalibration {
        margin: best,
        sampled_pairs: samples.len(),
        pruned_fraction: pruned.len() as f64 / samples.len().max(1) as f64,
        max_pruned_exact: pruned.iter().map(|s| s.exact).fold(0.0, f64::max),
    }
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
        stats.record_pruned();
        stats.record_pruned();
        stats.record_collision();
        stats.record_fallback();
        stats.record_probe();
        stats.record_probe();
        stats.record_probe_escalation();
        stats.record_refined_pairs(5);
        stats.record_refine_pass();
        let s = stats.snapshot();
        assert_eq!(s.pairs_pruned, 2);
        assert_eq!(s.sketch_collisions, 1);
        assert_eq!(s.exact_fallbacks, 1);
        assert_eq!(s.ambiguous_probes, 2);
        assert_eq!(s.probe_escalations, 1);
        assert_eq!(s.refined_pairs, 5);
        assert_eq!(s.refine_passes, 1);
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = PrefilterConfig::default();
        let mut seen = std::collections::HashSet::new();
        seen.insert(base.fingerprint());
        for cfg in [
            PrefilterConfig { enabled: false, ..base },
            PrefilterConfig { vectors: 16, ..base },
            PrefilterConfig { bands: 8, ..base },
            PrefilterConfig { rows: 3, ..base },
            PrefilterConfig { exact_fallback_margin: 0.5, ..base },
            PrefilterConfig { ambiguity_window: Some(0.3), ..base },
            PrefilterConfig { ambiguity_window: None, ..base },
            PrefilterConfig { probe_vectors: Some(48), ..base },
            PrefilterConfig { probe_vectors: None, ..base },
            PrefilterConfig { refine_top_k: Some(5), ..base },
            PrefilterConfig { refine_top_k: None, ..base },
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
        assert_eq!(base.digests.len(), pa.digests.len(), "digests are per value");
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

    #[test]
    fn calibrated_margin_picks_largest_safe_grid_point() {
        // Bounds dominate exacts (as containment guarantees). A margin of
        // 0.7 would prune the (0.65, 0.6) sample whose exact exceeds the
        // 0.5 distortion cap, so calibration must stop at 0.65.
        let samples = [
            MarginSample { bound: 0.2, exact: 0.1 },
            MarginSample { bound: 0.5, exact: 0.4 },
            MarginSample { bound: 0.65, exact: 0.6 },
            MarginSample { bound: 0.9, exact: 0.85 },
        ];
        let cal = calibrated_margin(&samples, 0.5);
        assert_eq!(cal.margin, 0.65);
        assert_eq!(cal.sampled_pairs, 4);
        assert_eq!(cal.pruned_fraction, 0.5);
        assert_eq!(cal.max_pruned_exact, 0.4);
    }

    #[test]
    fn calibrated_margin_on_empty_sample_is_most_conservative() {
        let cal = calibrated_margin(&[], 0.5);
        assert_eq!(cal.margin, MARGIN_GRID[0]);
        assert_eq!(cal.sampled_pairs, 0);
        assert_eq!(cal.pruned_fraction, 0.0);
    }
}
