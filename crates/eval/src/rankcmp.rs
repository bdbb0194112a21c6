//! Ranking-fidelity metrics: how well a pruned ranking reproduces the
//! exhaustive one.
//!
//! ROC/CROC ([`crate::roc_auc`], [`crate::croc_auc`]) measure a ranking
//! against *ground truth*; a prefilter can hold those steady while still
//! reshuffling the order users page through. The metrics here compare a
//! ranking against the **exhaustive reference ranking** directly:
//!
//! * [`topk_agreement`] — what fraction of the reference top-K the pruned
//!   ranking also serves in its top-K (set overlap; order-insensitive),
//! * [`kendall_tau`] — pairwise order agreement over the shared prefix
//!   (order-sensitive; 1.0 = identical order, −1.0 = reversed),
//! * [`RankComparison`] — both of the above plus ROC/CROC of each ranking
//!   against ground-truth labels, bundled per query.
//!
//! See `docs/RANK_QUALITY.md` for the methodology and
//! `BENCH_rankquality.json` for the bench that consumes these.

/// Fraction of `reference`'s top-K items that also appear in `pruned`'s
/// top-K (order-insensitive). 1.0 when the served windows hold the same
/// items; `k` is clamped to the shorter ranking. Returns 1.0 for an empty
/// window (nothing to disagree about).
pub fn topk_agreement<T: PartialEq>(reference: &[T], pruned: &[T], k: usize) -> f64 {
    let k = k.min(reference.len()).min(pruned.len());
    if k == 0 {
        return 1.0;
    }
    let hits = reference[..k]
        .iter()
        .filter(|r| pruned[..k].contains(r))
        .count();
    hits as f64 / k as f64
}

/// Kendall rank-correlation (tau-a) between two rankings of the same item
/// set, computed over the items both rankings contain.
///
/// Every unordered item pair is concordant when the two rankings order it
/// the same way and discordant otherwise; tau is
/// `(concordant − discordant) / total`. Items present in only one ranking
/// are ignored (the top-K windows being compared may differ — that
/// disagreement is [`topk_agreement`]'s job). Returns 1.0 when fewer than
/// two shared items exist.
pub fn kendall_tau<T: PartialEq>(reference: &[T], pruned: &[T]) -> f64 {
    // Positions in `pruned` of the reference items both rankings share,
    // in reference order.
    let positions: Vec<usize> = reference
        .iter()
        .filter_map(|r| pruned.iter().position(|p| p == r))
        .collect();
    let n = positions.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            if positions[i] < positions[j] {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    (concordant - discordant) as f64 / (concordant + discordant) as f64
}

/// Per-query rank-fidelity report: the pruned ranking measured against
/// the exhaustive reference and both measured against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankComparison {
    /// The two rankings serve the same first item.
    pub top1_identical: bool,
    /// [`topk_agreement`] over the configured window.
    pub topk_agreement: f64,
    /// [`kendall_tau`] over the shared window items.
    pub kendall_tau: f64,
    /// ROC AUC of the exhaustive ranking against ground truth.
    pub roc_exhaustive: f64,
    /// ROC AUC of the pruned ranking against ground truth.
    pub roc_pruned: f64,
    /// CROC AUC of the exhaustive ranking against ground truth.
    pub croc_exhaustive: f64,
    /// CROC AUC of the pruned ranking against ground truth.
    pub croc_pruned: f64,
}

/// Compares one query's pruned ranking against its exhaustive reference.
///
/// Each ranking is `(name, score)` in served (descending) order over the
/// same target set; `positive` labels a target name as ground-truth
/// relevant (same source function). `k` is the agreement window.
pub fn compare_rankings(
    reference: &[(String, f64)],
    pruned: &[(String, f64)],
    positive: impl Fn(&str) -> bool,
    k: usize,
) -> RankComparison {
    let ref_names: Vec<&String> = reference.iter().map(|(n, _)| n).collect();
    let pruned_names: Vec<&String> = pruned.iter().map(|(n, _)| n).collect();
    let labelled = |ranking: &[(String, f64)]| -> Vec<(f64, bool)> {
        ranking
            .iter()
            .map(|(name, score)| (*score, positive(name)))
            .collect()
    };
    let ref_items = labelled(reference);
    let pruned_items = labelled(pruned);
    RankComparison {
        top1_identical: ref_names.first() == pruned_names.first(),
        topk_agreement: topk_agreement(&ref_names, &pruned_names, k),
        kendall_tau: kendall_tau(
            &ref_names[..k.min(ref_names.len())],
            &pruned_names[..k.min(pruned_names.len())],
        ),
        roc_exhaustive: crate::roc_auc(&ref_items),
        roc_pruned: crate::roc_auc(&pruned_items),
        croc_exhaustive: crate::croc_auc(&ref_items),
        croc_pruned: crate::croc_auc(&pruned_items),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_rankings_are_perfect() {
        let r = ["a", "b", "c", "d"];
        assert_eq!(topk_agreement(&r, &r, 3), 1.0);
        assert_eq!(kendall_tau(&r, &r), 1.0);
    }

    #[test]
    fn reversed_ranking_has_tau_minus_one_but_full_set_agreement() {
        let r = ["a", "b", "c", "d"];
        let rev = ["d", "c", "b", "a"];
        assert_eq!(topk_agreement(&r, &rev, 4), 1.0, "same items");
        assert_eq!(kendall_tau(&r, &rev), -1.0, "opposite order");
    }

    #[test]
    fn disjoint_windows_have_zero_agreement() {
        let r = ["a", "b"];
        let p = ["c", "d"];
        assert_eq!(topk_agreement(&r, &p, 2), 0.0);
    }

    #[test]
    fn partial_overlap_counts_shared_items() {
        let r = ["a", "b", "c", "d"];
        let p = ["a", "c", "x", "y"];
        // Window of 4: reference {a,b,c,d} vs pruned {a,c,x,y} share a, c.
        assert_eq!(topk_agreement(&r, &p, 4), 0.5);
        // One swapped adjacent pair out of three: tau = (2 - 1) / 3.
        let swapped = ["a", "c", "b", "d"];
        let tau = kendall_tau(&r, &swapped);
        assert!((tau - 4.0 / 6.0).abs() < 1e-9, "tau {tau}");
    }

    #[test]
    fn k_clamps_to_ranking_length() {
        let r = ["a", "b"];
        let p = ["b", "a"];
        assert_eq!(topk_agreement(&r, &p, 10), 1.0);
        assert_eq!(topk_agreement::<&str>(&[], &[], 10), 1.0);
    }

    #[test]
    fn items_missing_from_one_ranking_are_ignored_by_tau() {
        let r = ["a", "b", "c"];
        let p = ["c", "a"]; // b missing; shared items a, c are inverted
        assert_eq!(kendall_tau(&r, &p), -1.0);
        assert_eq!(
            kendall_tau(&["a"], &["a"]),
            1.0,
            "singleton is trivially ordered"
        );
    }

    #[test]
    fn compare_rankings_bundles_all_metrics() {
        let reference = vec![
            ("tp".to_string(), 3.0),
            ("fp1".to_string(), 2.0),
            ("fp2".to_string(), 1.0),
        ];
        let pruned = vec![
            ("tp".to_string(), 3.0),
            ("fp2".to_string(), 0.5),
            ("fp1".to_string(), 0.4),
        ];
        let cmp = compare_rankings(&reference, &pruned, |n| n == "tp", 3);
        assert!(cmp.top1_identical);
        assert_eq!(cmp.topk_agreement, 1.0);
        assert!(cmp.kendall_tau < 1.0, "fp order flipped");
        assert_eq!(cmp.roc_exhaustive, 1.0);
        assert_eq!(cmp.roc_pruned, 1.0, "positive still ranks first");
    }
}
