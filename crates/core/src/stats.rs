//! The statistical similarity model (paper §3.3–§3.4).
//!
//! `Pr(s_q|s_t) = σ(k·(VCP − 0.5))` with `k = 10`; `Pr(s_q|t)` maximizes
//! over the target's strands; `Pr(s_q|H0)` is the corpus mean; the local
//! evidence score is the log likelihood-ratio and the global evidence
//! score is its sum over the query's strands (Equations 1–5).

use serde::{Deserialize, Serialize};

/// The sigmoid steepness the paper found to work well (§3.3.1).
pub const SIGMOID_K: f64 = 10.0;

/// The sigmoid midpoint (VCP is in `[0, 1]`).
pub const SIGMOID_MIDPOINT: f64 = 0.5;

/// `Pr(s_q|s_t)` from a VCP value (Equation 3).
pub fn likelihood(vcp: f64) -> f64 {
    1.0 / (1.0 + (-SIGMOID_K * (vcp - SIGMOID_MIDPOINT)).exp())
}

/// Which scoring layer to use — the ablation axis of the paper's §6.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScoringMode {
    /// Raw VCP aggregation, no statistics: `Σ_t max_q VCP`.
    SVcp,
    /// Statistical significance without the sigmoid: `Pr := VCP`.
    SLog,
    /// The full method (sigmoid + statistics).
    Esh,
}

impl ScoringMode {
    /// All modes, in the paper's bottom-up order.
    pub const ALL: [ScoringMode; 3] = [ScoringMode::SVcp, ScoringMode::SLog, ScoringMode::Esh];

    /// The label used in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            ScoringMode::SVcp => "S-VCP",
            ScoringMode::SLog => "S-LOG",
            ScoringMode::Esh => "Esh",
        }
    }
}

/// Accumulates `Pr(s_q|H0)` (the corpus mean) per query strand.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct H0Accumulator {
    /// Σ over all corpus strands of `σ(VCP)`.
    pub sum_pr: f64,
    /// Σ over all corpus strands of raw VCP.
    pub sum_vcp: f64,
    /// Number of corpus strands considered.
    pub count: u64,
}

impl H0Accumulator {
    /// Adds one corpus strand's VCP (weighted by `multiplicity` identical
    /// occurrences).
    pub fn add(&mut self, vcp: f64, multiplicity: u64) {
        self.add_likelihood(vcp, likelihood(vcp), multiplicity);
    }

    /// [`Self::add`] with `pr = likelihood(vcp)` already computed, for
    /// callers that reuse one value across many equal VCPs.
    pub fn add_likelihood(&mut self, vcp: f64, pr: f64, multiplicity: u64) {
        self.sum_pr += pr * multiplicity as f64;
        self.sum_vcp += vcp * multiplicity as f64;
        self.count += multiplicity;
    }

    /// Merges another accumulator.
    pub fn merge(&mut self, other: &H0Accumulator) {
        self.sum_pr += other.sum_pr;
        self.sum_vcp += other.sum_vcp;
        self.count += other.count;
    }

    /// `Pr(s_q|H0)` under the sigmoid model.
    pub fn mean_pr(&self) -> f64 {
        if self.count == 0 {
            return likelihood(0.0);
        }
        (self.sum_pr / self.count as f64).max(1e-12)
    }

    /// `Pr(s_q|H0)` under the identity model.
    pub fn mean_vcp(&self) -> f64 {
        if self.count == 0 {
            return 1e-12;
        }
        (self.sum_vcp / self.count as f64).max(1e-12)
    }
}

/// Local evidence score (Equation 5): `log Pr(s_q|t) − log Pr(s_q|H0)`.
pub fn les(pr_in_target: f64, pr_h0: f64) -> f64 {
    pr_in_target.max(1e-12).ln() - pr_h0.max(1e-12).ln()
}

/// Global evidence score (Equation 1): Σ of per-strand LES values.
pub fn ges(strand_les: impl IntoIterator<Item = f64>) -> f64 {
    strand_les.into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_endpoints() {
        assert!(likelihood(1.0) > 0.99);
        assert!(likelihood(0.0) < 0.01);
        let mid = likelihood(0.5);
        assert!((mid - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_is_monotone() {
        let mut prev = 0.0;
        for i in 0..=10 {
            let v = likelihood(i as f64 / 10.0);
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn les_positive_iff_better_than_chance() {
        let h0 = 0.1;
        assert!(les(0.9, h0) > 0.0);
        assert!(les(0.05, h0) < 0.0);
        assert_eq!(les(h0, h0), 0.0);
    }

    #[test]
    fn h0_mean_counts_multiplicity() {
        let mut acc = H0Accumulator::default();
        acc.add(1.0, 3);
        acc.add(0.0, 1);
        let expect = (3.0 * likelihood(1.0) + likelihood(0.0)) / 4.0;
        assert!((acc.mean_pr() - expect).abs() < 1e-12);
        assert!((acc.mean_vcp() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn common_strands_get_low_les() {
        // A strand matched perfectly everywhere (compiler boilerplate) has
        // Pr(s|t) == Pr(s|H0) and thus LES == 0: no evidence.
        let mut acc = H0Accumulator::default();
        acc.add(1.0, 100);
        assert!(les(likelihood(1.0), acc.mean_pr()).abs() < 1e-9);
        // A unique strand matched only here is strong evidence.
        let mut rare = H0Accumulator::default();
        rare.add(1.0, 1);
        rare.add(0.0, 99);
        assert!(les(likelihood(1.0), rare.mean_pr()) > 2.0);
    }

    #[test]
    fn ges_sums() {
        assert_eq!(ges([1.0, 2.0, -0.5]), 2.5);
        assert_eq!(ges([]), 0.0);
    }

    #[test]
    fn h0_merge() {
        let mut a = H0Accumulator::default();
        a.add(0.5, 2);
        let mut b = H0Accumulator::default();
        b.add(1.0, 2);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert!((a.mean_vcp() - 0.75).abs() < 1e-12);
    }
}
