//! Property tests for the semantic-sketch prefilter tier.
//!
//! The tier's whole correctness story rests on one inequality — the
//! sketch containment bound never underestimates the exact VCP — plus the
//! engine-level consequences: pairs at or above `exact_fallback_margin`
//! are always verified exactly, and an engine with the tier disabled is
//! bit-for-bit the pre-sketch engine. Each property is exercised over
//! random strands, not the curated corpus.

use esh_asm::{parse_proc, Procedure};
use esh_core::prefilter::{
    bounds_decision, compute_probe_sketch, compute_sketch, PrefilterConfig, SketchDecision,
    SketchIndex,
};
use esh_core::{vcp_pair, EngineConfig, SimilarityEngine, VcpConfig};
use esh_ivl::{lift, Proc};
use esh_verifier::VerifierSession;
use proptest::prelude::*;

const REGS: [&str; 6] = ["rax", "rbx", "rcx", "rdi", "rsi", "r12"];

/// One random instruction over a small register file — enough op variety
/// that strands disagree semantically, small enough that SAT stays fast.
fn arb_inst() -> impl Strategy<Value = String> {
    let reg = || prop::sample::select(REGS.to_vec());
    prop_oneof![
        (reg(), reg()).prop_map(|(a, b)| format!("mov {a}, {b}")),
        (reg(), 1i64..64).prop_map(|(a, c)| format!("add {a}, {c:#x}")),
        (reg(), reg()).prop_map(|(a, b)| format!("add {a}, {b}")),
        (reg(), reg()).prop_map(|(a, b)| format!("xor {a}, {b}")),
        (reg(), reg()).prop_map(|(a, b)| format!("and {a}, {b}")),
        (reg(), 1i64..31).prop_map(|(a, c)| format!("shr {a}, {c:#x}")),
        (reg(), reg(), 0i64..16).prop_map(|(a, b, d)| format!("lea {a}, [{b}+{d:#x}]")),
        (reg(), reg()).prop_map(|(a, b)| format!("imul {a}, {b}")),
    ]
}

/// A random straight-line procedure (2–5 instructions, one block).
fn arb_procedure() -> impl Strategy<Value = Procedure> {
    prop::collection::vec(arb_inst(), 2..6).prop_map(|insts| {
        parse_proc(&format!("proc p\nentry:\n{}\n", insts.join("\n"))).expect("template parses")
    })
}

/// The same, lifted to a single IVL strand.
fn arb_strand() -> impl Strategy<Value = Proc> {
    arb_procedure().prop_map(|p| lift("p", &p.blocks[0].insts))
}

fn permissive_vcp() -> VcpConfig {
    // Let tiny random strands participate; thresholds otherwise default.
    VcpConfig {
        min_strand_vars: 1,
        ..VcpConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The load-bearing inequality: containment never underestimates the
    /// exact VCP, in either direction. (A verified variable match implies
    /// equal values on every uniform round, hence equal digests.)
    #[test]
    fn containment_bound_dominates_exact_vcp(q in arb_strand(), t in arb_strand()) {
        let cfg = PrefilterConfig::default();
        let sq = compute_sketch(&q, &cfg);
        let st = compute_sketch(&t, &cfg);
        let mut session = VerifierSession::new();
        let exact = vcp_pair(&mut session, &q, &t, &permissive_vcp());
        prop_assert!(
            sq.containment_in(&st) >= exact.q_in_t,
            "q->t: bound {} < exact {}", sq.containment_in(&st), exact.q_in_t
        );
        prop_assert!(
            st.containment_in(&sq) >= exact.t_in_q,
            "t->q: bound {} < exact {}", st.containment_in(&sq), exact.t_in_q
        );
    }

    /// The engine-level guarantee, replayed at pair level: whenever the
    /// tier's decision rule would prune a pair (no band collision needed —
    /// pruning already requires both containments below the margin), the
    /// exact VCP is below the margin in both directions, so every score
    /// above `exact_fallback_margin` comes from the exact verifier.
    #[test]
    fn pairs_at_or_above_margin_are_never_pruned(q in arb_strand(), t in arb_strand()) {
        let cfg = PrefilterConfig::default();
        let sq = compute_sketch(&q, &cfg);
        let st = compute_sketch(&t, &cfg);
        let c_q = sq.containment_in(&st);
        let c_t = st.containment_in(&sq);
        if c_q < cfg.exact_fallback_margin && c_t < cfg.exact_fallback_margin {
            let mut session = VerifierSession::new();
            let exact = vcp_pair(&mut session, &q, &t, &permissive_vcp());
            prop_assert!(exact.q_in_t < cfg.exact_fallback_margin);
            prop_assert!(exact.t_in_q < cfg.exact_fallback_margin);
        }
    }

    /// Identical sketches collide in every LSH band, so a class can never
    /// be banded away from its own query strand (the top-1 anchor of the
    /// bench's rank-agreement gate).
    #[test]
    fn a_sketch_always_retrieves_itself(s in arb_strand()) {
        let cfg = PrefilterConfig::default();
        let sketch = compute_sketch(&s, &cfg);
        let index = SketchIndex::build(vec![sketch.clone()], &cfg);
        prop_assert!(index.candidates(&sketch)[0]);
    }

    /// `--no-prefilter` reproduces the pre-sketch engine byte-identically:
    /// a sketch-configured engine with the tier switched off scores every
    /// target with the same f64 bit patterns as an engine built without
    /// the tier, over random corpora and queries.
    #[test]
    fn disabled_tier_is_bitwise_identical_to_no_tier(
        targets in prop::collection::vec(arb_procedure(), 1..4),
        query in arb_procedure(),
    ) {
        let base = EngineConfig {
            vcp: permissive_vcp(),
            threads: 1,
            ..EngineConfig::default()
        };
        let mut with = SimilarityEngine::new(base.clone());
        let mut without = SimilarityEngine::new(EngineConfig {
            sketch: PrefilterConfig { enabled: false, ..base.sketch },
            ..base
        });
        for (i, t) in targets.iter().enumerate() {
            with.add_target(format!("t{i}"), t);
            without.add_target(format!("t{i}"), t);
        }
        with.disable_prefilter();
        let a = with.query(&query);
        let b = without.query(&query);
        prop_assert_eq!(a.scores.len(), b.scores.len());
        for (x, y) in a.scores.iter().zip(&b.scores) {
            prop_assert_eq!(x.ges.to_bits(), y.ges.to_bits());
            prop_assert_eq!(x.s_log.to_bits(), y.s_log.to_bits());
            prop_assert_eq!(x.s_vcp.to_bits(), y.s_vcp.to_bits());
        }
    }

    /// When the sketch tier prunes nothing for a query (every pair either
    /// collided into the exact path or fell back), the prefiltered engine
    /// is bitwise identical to the exhaustive one — the estimates are the
    /// only divergence the tier can introduce.
    #[test]
    fn unpruned_queries_score_bitwise_identically(
        targets in prop::collection::vec(arb_procedure(), 1..4),
        query in arb_procedure(),
    ) {
        let base = EngineConfig {
            vcp: permissive_vcp(),
            threads: 1,
            ..EngineConfig::default()
        };
        let on = {
            let mut e = SimilarityEngine::new(base.clone());
            for (i, t) in targets.iter().enumerate() {
                e.add_target(format!("t{i}"), t);
            }
            e
        };
        let off = {
            let mut e = SimilarityEngine::new(EngineConfig {
                sketch: PrefilterConfig { enabled: false, ..base.sketch },
                ..base
            });
            for (i, t) in targets.iter().enumerate() {
                e.add_target(format!("t{i}"), t);
            }
            e
        };
        let a = on.query(&query);
        let b = off.query(&query);
        if on.prefilter_stats().pairs_pruned == 0 {
            for (x, y) in a.scores.iter().zip(&b.scores) {
                prop_assert_eq!(x.ges.to_bits(), y.ges.to_bits());
                prop_assert_eq!(x.s_log.to_bits(), y.s_log.to_bits());
                prop_assert_eq!(x.s_vcp.to_bits(), y.s_vcp.to_bits());
            }
        }
    }

    /// The staged (v4) decision rule, probe path included, upholds the
    /// same guarantee as the base rule: a pair is only ever pruned when
    /// its exact VCP is below `exact_fallback_margin` in both directions.
    /// Replays the engine's pricing ladder — base bounds, then probe
    /// bounds for ambiguous pairs — and verifies every pruned outcome
    /// against the exact verifier.
    #[test]
    fn staged_probing_never_prunes_an_at_or_above_margin_pair(
        q in arb_strand(),
        t in arb_strand(),
    ) {
        let cfg = PrefilterConfig::default();
        let margin = cfg.exact_fallback_margin;
        let sq = compute_sketch(&q, &cfg);
        let st = compute_sketch(&t, &cfg);
        let pruned = match bounds_decision(
            sq.containment_in(&st),
            st.containment_in(&sq),
            margin,
            cfg.probe_window(),
        ) {
            SketchDecision::Prune => true,
            SketchDecision::Exact => false,
            SketchDecision::Probe => {
                // Ambiguous: the engine re-sketches on the probe battery
                // and re-applies the margin to the refined bounds. Only a
                // pair whose probed bounds BOTH fall below the margin is
                // pruned; at/above-margin probe evidence escalates.
                let pq = compute_probe_sketch(&q, &cfg);
                let pt = compute_probe_sketch(&t, &cfg);
                pq.containment_in(&pt) < margin && pt.containment_in(&pq) < margin
            }
        };
        if pruned {
            let mut session = VerifierSession::new();
            let exact = vcp_pair(&mut session, &q, &t, &permissive_vcp());
            prop_assert!(
                exact.q_in_t < margin && exact.t_in_q < margin,
                "staged rule pruned a pair with exact VCP ({}, {}) at margin {margin}",
                exact.q_in_t, exact.t_in_q
            );
        }
    }

    /// Refine-top-K restores exact pairwise evidence for the served
    /// window: with the default config (prune + probe + refine, and
    /// `refine_top_k` ≥ these corpus sizes, so the window is the whole
    /// ranking) every target's S-VCP is bit-identical to the exhaustive
    /// engine's. S-VCP is the observable — it is a pure sum of per-class
    /// VCP maxima, free of the H0 normalizer, which refine shifts equally
    /// for every target without changing pairwise evidence.
    #[test]
    fn refined_window_svcp_is_bitwise_identical_to_exhaustive(
        targets in prop::collection::vec(arb_procedure(), 1..4),
        query in arb_procedure(),
    ) {
        let base = EngineConfig {
            vcp: permissive_vcp(),
            threads: 1,
            ..EngineConfig::default()
        };
        let mut on = SimilarityEngine::new(base.clone());
        let mut off = SimilarityEngine::new(EngineConfig {
            sketch: PrefilterConfig { enabled: false, ..base.sketch },
            ..base
        });
        for (i, t) in targets.iter().enumerate() {
            on.add_target(format!("t{i}"), t);
            off.add_target(format!("t{i}"), t);
        }
        let a = on.query(&query);
        let b = off.query(&query);
        prop_assert!(
            on.prefilter_stats().refine_passes >= 1,
            "refine pass did not run — the property would be vacuous"
        );
        prop_assert_eq!(a.scores.len(), b.scores.len());
        for (x, y) in a.scores.iter().zip(&b.scores) {
            prop_assert_eq!(
                x.s_vcp.to_bits(), y.s_vcp.to_bits(),
                "refined S-VCP diverged from exhaustive for target {:?}", x.target
            );
        }
    }
}
