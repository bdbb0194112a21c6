//! Scoring: H0 per query strand, GES, S-LOG and S-VCP per target from a
//! VCP matrix (Eq. 1–5), and the refine pass that makes the served
//! ranking window exact.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use super::ladder::{Reprice, Rung};
use super::matrix::{ItemMatrix, Worker};
use super::{ItemPass, QueryError, QueryStrand, SimilarityEngine, TargetId};
use crate::stats::{ges, likelihood, H0Accumulator, ScoringMode};
use crate::vcp::VcpPair;

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

    /// The served order under `mode`: descending score, exact ties by
    /// ascending [`TargetId`].
    fn rank_cmp(&self, other: &TargetScore, mode: ScoringMode) -> Ordering {
        other
            .score(mode)
            .partial_cmp(&self.score(mode))
            .unwrap_or(Ordering::Equal)
            .then(self.target.cmp(&other.target))
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
        v.sort_by(|a, b| a.rank_cmp(b, mode));
        v
    }

    /// The first `n` targets of [`QueryScores::ranked`], or all of them
    /// when `n` exceeds the count, without sorting the rest.
    pub fn top(&self, n: usize) -> Vec<&TargetScore> {
        select_top(self.scores.iter().collect(), n, |a, b| {
            a.rank_cmp(b, ScoringMode::Esh)
        })
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

/// The first `n` elements of `v` in `cmp` order, the rest dropped: a
/// selection moves the `n` least to the front, and only they are sorted.
/// `cmp` is total ([`TargetScore::rank_cmp`] breaks ties by target), so
/// the result is the prefix a full sort would give, element for element.
fn select_top<T>(mut v: Vec<T>, n: usize, cmp: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
    if n < v.len() {
        if let Some(last) = n.checked_sub(1) {
            v.select_nth_unstable_by(last, &cmp);
        }
        v.truncate(n);
    }
    v.sort_unstable_by(cmp);
    v
}

/// One query strand's side of Eq. 5, frozen at the estimated matrix: the
/// logs of its H0 means (GES and S-LOG), its occurrence weight, and its
/// two terms for a target whose best VCP for it is zero, the common case.
pub(super) struct StrandH0 {
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

impl SimilarityEngine {
    /// H0 per query strand, built once per query from the estimated
    /// matrix and shared by scoring and refine: the corpus-wide mean over
    /// every strand occurrence (weighted by class multiplicity), kept as
    /// the logs Eq. 5 subtracts, beside the strand's occurrence weight.
    /// Pure in the matrix, so refined scores stay a pure function of the
    /// query, corpus and config. Zero cells, the bulk of a matrix, share
    /// one `likelihood(0.0)`; the sums run in [`H0Accumulator::add`]'s
    /// order, so the bits are those of a per-cell `add`.
    pub(super) fn strand_h0(
        &self,
        query: &[QueryStrand],
        matrix: &[Vec<VcpPair>],
    ) -> Vec<StrandH0> {
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
    pub(super) fn score_targets(
        &self,
        matrix: &[Vec<VcpPair>],
        h0: &[StrandH0],
    ) -> Vec<TargetScore> {
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
    /// targets into the window. Each round selects the scan window's
    /// targets and sorts only them, in served order: the order is total
    /// (ties by target), so the window is the full ranking's prefix,
    /// target for target, whatever the corpus size.
    ///
    /// Each window target's cells are read off the matrix pass's rung
    /// record rather than priced again. Filtered cells stay zero. Exact
    /// cells take their verdict straight from the matrix, with no cache
    /// lookup. Pruned and unpriced cells go to the ladder's
    /// [`SimilarityEngine::reprice`], which filters, looks up or bounds
    /// them. The bounded cells are verified through the ladder's exact
    /// step in descending-bound order, but **only while their bound can
    /// still beat the target's current exact maximum** (per query strand
    /// for GES/S-LOG, per class for S-VCP). A skipped cell provably
    /// cannot change either maximum — the bound never underestimates VCP
    /// — so each window target's final maxima are its true maxima,
    /// whatever subset of cells the cache already knew.
    ///
    /// Scores are rebuilt from those maxima via
    /// [`SimilarityEngine::score_target`] against `h0`, the query's H0
    /// **frozen at the estimated matrix** (the same values
    /// [`Self::score_targets`] used). The matrix itself is never mutated:
    /// which cells the pass verifies (and which it dominance-skips or
    /// finds pre-cached) depends on cross-query cache state, so folding
    /// those values back into H0 would make served GES depend on engine
    /// history — the serving layer's byte-identity contract (pinned by
    /// esh-serve's end-to-end tests) demands that a query's response be a pure
    /// function of the query, corpus and config. With frozen H0 and true
    /// maxima, it is. The served window's internal order equals the
    /// exhaustive engine's relative order of those targets: LES
    /// differences between targets share the per-strand H0 term, which
    /// cancels (absolute GES still differs from the exhaustive engine by
    /// that H0 offset, identically for every window target).
    ///
    /// Terminates because the refined-target set grows monotonically and
    /// is bounded by the corpus. `query_batch` runs it only when the
    /// sketch tier and [`crate::PrefilterConfig::refine_top_k`] are on.
    pub(super) fn refine_served_window(
        &self,
        it: &ItemPass<'_>,
        matrix: &ItemMatrix,
        h0: &[StrandH0],
        scores: &mut [TargetScore],
        w: &mut Worker,
    ) -> Result<(), QueryError> {
        let query = it.strands;
        if query.is_empty() {
            return Ok(());
        }
        let cancel = &it.batch.items[it.item].cancel;
        // 2× slack: refining only the estimated top-K decides the window
        // *boundary* on estimated scores — a target whose pruned evidence
        // would lift it from rank 12 to rank 8 never enters the window.
        // Scanning twice the served depth prices the contenders exactly
        // too, so membership at rank K is decided among exact scores
        // (bounded, and deterministic because the scan depth depends only
        // on config).
        let depth = self.config.sketch.refine_top_k.saturating_mul(2);
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
                // The scan window under the current scores, in the order
                // `QueryScores::ranked` serves; only the window is sorted.
                let order = select_top((0..scores.len()).collect(), depth, |&a, &b| {
                    scores[a].rank_cmp(&scores[b], ScoringMode::Esh)
                });
                let pending: Vec<usize> = order
                    .into_iter()
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
                        for (qi, rungs) in matrix.rung.iter().enumerate() {
                            let v = match rungs[ci] {
                                Rung::Filtered => continue,
                                Rung::Exact => matrix.vcp[qi][ci],
                                rung => match self.reprice(it, qi, ci, rung, &mut w.table)? {
                                    Reprice::Filtered => continue,
                                    Reprice::Known(v) => v,
                                    Reprice::Bounded(c_q, c_t) => {
                                        unknown.push((c_q, c_t, qi, ci));
                                        continue;
                                    }
                                },
                            };
                            max_q[qi] = max_q[qi].max(v.q_in_t);
                            max_t[ci] = max_t[ci].max(v.t_in_q);
                        }
                    }
                    // Verify pruned cells best-bound-first so early exact
                    // results raise the maxima and dominate the rest away.
                    unknown.sort_by(|a, b| {
                        b.0.max(b.1)
                            .partial_cmp(&a.0.max(a.1))
                            .unwrap_or(Ordering::Equal)
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
                        // The lookup again (uncounted): it picks up a value
                        // a concurrent query inserted since the scan.
                        let (v, verified) = self.exact_cell(it, qi, ci, w, false)?;
                        refined_pairs += u64::from(verified);
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
}

#[cfg(test)]
mod tests {
    use rand::prelude::*;
    use rand::rngs::StdRng;

    use super::*;

    /// `n` targets whose scores come from a few values, so most GES are
    /// exact ties, in a shuffled target order so that ties fall back on
    /// the target id.
    fn tied_scores(rng: &mut StdRng, n: usize) -> QueryScores {
        const VALUES: [f64; 5] = [-1.5, -0.0, 0.0, 2.25, 7.0];
        let mut ids: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let mut pick = || *VALUES.choose(rng).expect("values");
        let scores = ids
            .into_iter()
            .map(|id| TargetScore {
                target: TargetId(id),
                name: format!("t{id}"),
                ges: pick(),
                s_log: pick(),
                s_vcp: pick(),
            })
            .collect();
        QueryScores {
            scores,
            query_strands: 0,
            query_strand_occurrences: 0,
        }
    }

    #[test]
    fn top_is_the_ranked_prefix_bit_for_bit() {
        let bits = |v: &[&TargetScore]| -> Vec<(usize, String, u64, u64, u64)> {
            v.iter()
                .map(|s| {
                    let t = (s.ges.to_bits(), s.s_log.to_bits(), s.s_vcp.to_bits());
                    (s.target.0, s.name.clone(), t.0, t.1, t.2)
                })
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(0x70b5);
        for len in [0, 1, 2, 17, 300] {
            let scores = tied_scores(&mut rng, len);
            let ranked = scores.ranked();
            for n in [0, 1, 10, len.saturating_sub(1), len, len + 5] {
                let want = &ranked[..n.min(len)];
                assert_eq!(bits(&scores.top(n)), bits(want), "len {len}, n {n}");
            }
        }
    }
}
