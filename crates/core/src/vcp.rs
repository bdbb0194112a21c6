//! Variable Containment Proportion — the paper's Definition 3 computed by
//! Algorithm 2 with the §5.5 optimizations.
//!
//! Given two lifted strands, enumerate type-respecting input
//! correspondences γ (total and injective on the query's inputs), realize
//! each γ by unifying solver variables, and resolve *all* non-input
//! variable matches in one pass — concrete evaluation buckets candidate
//! pairs, the layered checker confirms them. The result is the maximal
//! fraction of query variables with an equivalent counterpart.

use std::collections::{BTreeMap, HashMap};

use esh_ivl::{Proc, Sort, VarId};
use esh_solver::eval::{eval_many, Assignment, CVal};
use esh_solver::Verdict;
use esh_verifier::{InputNamer, VerifierSession};
use serde::{Deserialize, Serialize};

/// Tuning for the VCP search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VcpConfig {
    /// Minimum non-input variable count for a strand to participate
    /// (§5.5: 5 in the paper's experiments).
    pub min_strand_vars: usize,
    /// Candidate pairs must satisfy `0.5 ≤ |Vars(q)|/|Vars(t)| ≤ 2`
    /// (§5.5). Stored as the lower ratio.
    pub size_ratio: f64,
    /// Cap on enumerated input correspondences per strand pair.
    pub max_correspondences: usize,
    /// How many correspondences (best digest bound first) are verified.
    pub verified_gammas: usize,
}

impl Default for VcpConfig {
    fn default() -> VcpConfig {
        VcpConfig {
            min_strand_vars: 5,
            size_ratio: 0.5,
            max_correspondences: 24,
            verified_gammas: 3,
        }
    }
}

impl VcpConfig {
    /// Stable FNV-1a digest over every threshold. Cached VCP results are
    /// only valid under the exact configuration that produced them, so the
    /// cross-query cache and on-disk indexes key on this value.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for field in [
            self.min_strand_vars as u64,
            self.size_ratio.to_bits(),
            self.max_correspondences as u64,
            self.verified_gammas as u64,
        ] {
            for b in field.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

/// Both directions of the VCP for one strand pair.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct VcpPair {
    /// `VCP(q, t)`: fraction of query variables matched in the target.
    pub q_in_t: f64,
    /// `VCP(t, q)`: fraction of target variables matched in the query.
    pub t_in_q: f64,
}

/// True if the pair passes the §5.5 size-ratio filter.
pub fn size_ratio_ok(config: &VcpConfig, q_vars: usize, t_vars: usize) -> bool {
    if q_vars == 0 || t_vars == 0 {
        return false;
    }
    let r = q_vars as f64 / t_vars as f64;
    r >= config.size_ratio && r <= 1.0 / config.size_ratio
}

/// Groups input ids of a procedure by sort, in sort order: the γ cross
/// product is truncated at the cap, so the group order decides which
/// correspondences are enumerated and must not vary between calls.
fn inputs_by_sort(p: &Proc) -> BTreeMap<Sort, Vec<VarId>> {
    let mut m: BTreeMap<Sort, Vec<VarId>> = BTreeMap::new();
    for i in p.inputs() {
        m.entry(p.var(i).sort).or_default().push(i);
    }
    m
}

/// Enumerates type-respecting injective total correspondences from the
/// query's inputs into the target's, up to `cap`.
fn enumerate_gammas(q: &Proc, t: &Proc, cap: usize) -> Vec<Vec<(VarId, VarId)>> {
    let qg = inputs_by_sort(q);
    let tg = inputs_by_sort(t);
    // Infeasible if any sort group lacks capacity.
    for (sort, qs) in &qg {
        if tg.get(sort).map_or(0, Vec::len) < qs.len() {
            return Vec::new();
        }
    }
    // Per-sort injection enumerations, then the cross product.
    let mut gammas: Vec<Vec<(VarId, VarId)>> = vec![Vec::new()];
    for (sort, qs) in &qg {
        let ts = &tg[sort];
        let mut group: Vec<Vec<(VarId, VarId)>> = Vec::new();
        let mut used = vec![false; ts.len()];
        let mut cur: Vec<(VarId, VarId)> = Vec::new();
        fn rec(
            qs: &[VarId],
            ts: &[VarId],
            used: &mut [bool],
            cur: &mut Vec<(VarId, VarId)>,
            out: &mut Vec<Vec<(VarId, VarId)>>,
            cap: usize,
        ) {
            if out.len() >= cap {
                return;
            }
            match qs.first() {
                None => out.push(cur.clone()),
                Some(&qv) => {
                    for (i, &tv) in ts.iter().enumerate() {
                        if !used[i] {
                            used[i] = true;
                            cur.push((qv, tv));
                            rec(&qs[1..], ts, used, cur, out, cap);
                            cur.pop();
                            used[i] = false;
                        }
                    }
                }
            }
        }
        rec(qs, ts, &mut used, &mut cur, &mut group, cap);
        let mut next = Vec::new();
        'outer: for g in &gammas {
            for extra in &group {
                let mut combined = g.clone();
                combined.extend(extra.iter().copied());
                next.push(combined);
                if next.len() >= cap {
                    break 'outer;
                }
            }
        }
        gammas = next;
    }
    gammas
}

/// Computes both VCP directions for a strand pair (already filtered).
///
/// The returned values are maxima over all enumerated input
/// correspondences.
pub fn vcp_pair(session: &mut VerifierSession, q: &Proc, t: &Proc, config: &VcpConfig) -> VcpPair {
    let q_temps = q.temps();
    let t_temps = t.temps();
    if q_temps.is_empty() || t_temps.is_empty() {
        return VcpPair::default();
    }
    let gammas = enumerate_gammas(q, t, config.max_correspondences);
    if gammas.is_empty() {
        return VcpPair::default();
    }

    // Phase 1 — cheap digest pass per correspondence: evaluate every
    // variable of both strands on shared random assignments. Digest
    // agreement is an upper bound on the verified match count, so the
    // correspondences can be ranked and only the most promising verified.
    const DIGEST_ROUNDS: [u64; 3] = [0x5eed, 0xace5, 0x1dea];
    let digest_of = |v: &CVal| -> u64 {
        match v {
            CVal::Bv(v) => *v,
            CVal::Mem(m) => {
                let mut h = 0xcbf2_9ce4_8422_2325u64 ^ m.seed;
                for s in &m.stores {
                    h = (h ^ s.0 ^ (u64::from(s.1) << 32) ^ s.2).wrapping_mul(0x100_0000_01b3);
                }
                h
            }
        }
    };

    struct GammaEval {
        q_term_list: Vec<esh_solver::TermId>,
        t_term_list: Vec<esh_solver::TermId>,
        q_digests: Vec<(u64, u32)>,
        t_digests: Vec<(u64, u32)>,
        bound_q: usize,
        bound_t: usize,
    }

    let mut evals: Vec<GammaEval> = Vec::with_capacity(gammas.len());
    for gamma in &gammas {
        let mut namer = InputNamer::new();
        for (qi, ti) in gamma {
            let shared = namer.fresh();
            namer.unify(0, *qi, shared);
            namer.unify(1, *ti, shared);
        }
        let q_terms = session.encode(q, |v| namer.id_for(0, v));
        let t_terms = session.encode(t, |v| namer.id_for(1, v));
        let q_term_list: Vec<_> = q_temps.iter().map(|v| q_terms[v.index()]).collect();
        let t_term_list: Vec<_> = t_temps.iter().map(|v| t_terms[v.index()]).collect();
        let all_terms: Vec<_> = q_term_list
            .iter()
            .chain(t_term_list.iter())
            .copied()
            .collect();
        let mut q_digests: Vec<(u64, u32)> = q_term_list
            .iter()
            .map(|t| (0xcbf2_9ce4u64, session.pool().width(*t)))
            .collect();
        let mut t_digests: Vec<(u64, u32)> = t_term_list
            .iter()
            .map(|t| (0xcbf2_9ce4u64, session.pool().width(*t)))
            .collect();
        for round in DIGEST_ROUNDS {
            let asn = Assignment::random(round);
            let vals = eval_many(session.pool(), &all_terms, &asn);
            for (k, v) in vals[..q_term_list.len()].iter().enumerate() {
                q_digests[k].0 = (q_digests[k].0 ^ digest_of(v)).wrapping_mul(0x100_0000_01b3);
            }
            for (k, v) in vals[q_term_list.len()..].iter().enumerate() {
                t_digests[k].0 = (t_digests[k].0 ^ digest_of(v)).wrapping_mul(0x100_0000_01b3);
            }
        }
        // Upper bounds: digests present on the other side.
        let t_set: std::collections::HashSet<(u64, u32)> = t_digests.iter().copied().collect();
        let q_set: std::collections::HashSet<(u64, u32)> = q_digests.iter().copied().collect();
        let bound_q = q_digests.iter().filter(|d| t_set.contains(d)).count();
        let bound_t = t_digests.iter().filter(|d| q_set.contains(d)).count();
        evals.push(GammaEval {
            q_term_list,
            t_term_list,
            q_digests,
            t_digests,
            bound_q,
            bound_t,
        });
    }
    // Most promising correspondences first.
    evals.sort_by_key(|e| std::cmp::Reverse(e.bound_q + e.bound_t));

    // Phase 2 — verify, best-bound first, skipping correspondences whose
    // upper bound cannot improve the result.
    let mut best_q = 0usize;
    let mut best_t = 0usize;
    let mut verified = 0usize;
    for ev in &evals {
        if ev.bound_q <= best_q && ev.bound_t <= best_t {
            continue;
        }
        // Verify the best-bound correspondences; allow extra attempts when
        // nothing matched yet, but bound the worst case.
        if verified >= config.verified_gammas
            && ((best_q > 0 || best_t > 0) || verified >= config.verified_gammas * 2)
        {
            break;
        }
        verified += 1;
        let mut t_buckets: HashMap<(u64, u32), Vec<usize>> = HashMap::new();
        for (k, key) in ev.t_digests.iter().enumerate() {
            t_buckets.entry(*key).or_default().push(k);
        }
        let mut q_buckets: HashMap<(u64, u32), Vec<usize>> = HashMap::new();
        for (k, key) in ev.q_digests.iter().enumerate() {
            q_buckets.entry(*key).or_default().push(k);
        }
        let mut matched_q = 0usize;
        let mut matched_t_flags = vec![false; ev.t_term_list.len()];
        for (qi, qterm) in ev.q_term_list.iter().enumerate() {
            let mut hit = false;
            if let Some(cands) = t_buckets.get(&ev.q_digests[qi]) {
                for &tk in cands {
                    if session.check_eq(*qterm, ev.t_term_list[tk]) == Verdict::Equal {
                        hit = true;
                        matched_t_flags[tk] = true;
                        break;
                    }
                }
            }
            if hit {
                matched_q += 1;
            }
        }
        let mut matched_t = 0usize;
        for (tk, tterm) in ev.t_term_list.iter().enumerate() {
            if matched_t_flags[tk] {
                matched_t += 1;
                continue;
            }
            if let Some(cands) = q_buckets.get(&ev.t_digests[tk]) {
                if cands
                    .iter()
                    .any(|&qk| session.check_eq(*tterm, ev.q_term_list[qk]) == Verdict::Equal)
                {
                    matched_t += 1;
                }
            }
        }
        best_q = best_q.max(matched_q);
        best_t = best_t.max(matched_t);
        if best_q == q_temps.len() && best_t == t_temps.len() {
            break;
        }
    }
    VcpPair {
        q_in_t: best_q as f64 / q_temps.len() as f64,
        t_in_q: best_t as f64 / t_temps.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esh_asm::parse_proc;
    use esh_ivl::lift;

    fn lift_text(text: &str) -> Proc {
        let p = parse_proc(&format!("proc t\nentry:\n{text}")).expect("parses");
        lift("t", &p.blocks[0].insts)
    }

    fn quick_config() -> VcpConfig {
        VcpConfig {
            min_strand_vars: 1,
            ..VcpConfig::default()
        }
    }

    #[test]
    fn vcp_is_reflexively_one() {
        let s = lift_text("mov r13, rax\nlea rcx, [r13+0x3]\nshr rcx, 0x2");
        let mut session = VerifierSession::new();
        let v = vcp_pair(&mut session, &s, &s, &quick_config());
        assert_eq!(v.q_in_t, 1.0);
        assert_eq!(v.t_in_q, 1.0);
    }

    #[test]
    fn renamed_registers_fully_match() {
        // The paper's strand ③: same computation, different registers.
        let q = lift_text("mov r12, rbx\nlea rdi, [r12+0x3]");
        let t = lift_text("mov r13, rbx\nlea rcx, [r13+0x3]");
        let mut session = VerifierSession::new();
        let v = vcp_pair(&mut session, &q, &t, &quick_config());
        assert_eq!(v.q_in_t, 1.0);
        assert_eq!(v.t_in_q, 1.0);
    }

    #[test]
    fn figure3_asymmetry() {
        // Figure 3: VCP(sq, st) = 1 but VCP(st, sq) < 1 (the target
        // computes an extra intermediate value the query lacks).
        let q = lift_text("lea rax, [r12+0x13]");
        let t = lift_text("mov r9, 0x13\nmov r13, r12\nadd r13, r9\nadd r9, 0x5");
        let mut session = VerifierSession::new();
        let v = vcp_pair(&mut session, &q, &t, &quick_config());
        assert_eq!(v.q_in_t, 1.0, "every query value exists in the target");
        assert!(v.t_in_q < 1.0, "the 0x18 value has no query counterpart");
    }

    #[test]
    fn unrelated_strands_score_low() {
        let q = lift_text("mov rax, rdi\nimul rax, rax\nxor rax, 0x5a5a");
        let t = lift_text("mov rbx, rsi\nshr rbx, 0x3\nor rbx, 0x101");
        let mut session = VerifierSession::new();
        let v = vcp_pair(&mut session, &q, &t, &quick_config());
        assert!(v.q_in_t < 0.5, "got {v:?}");
    }

    #[test]
    fn cross_idiom_match_lea_vs_imul() {
        // gcc multiplies by 5 with lea, icc with imul: semantically equal
        // results. The lea strand also materializes the intermediate
        // `rdi*4`, which imul never computes, so VCP(q,t) is 2/3 — still
        // far above the unrelated-strand regime.
        let q = lift_text("lea rax, [rdi+rdi*4]");
        let t = lift_text("imul rax, rdi, 0x5");
        let mut session = VerifierSession::new();
        let v = vcp_pair(&mut session, &q, &t, &quick_config());
        assert!(v.q_in_t >= 0.6, "got {v:?}");
        // The final values agree, so the target's product is matched.
        assert!(v.t_in_q >= 0.3, "got {v:?}");
    }

    #[test]
    fn gamma_infeasible_when_query_has_more_inputs() {
        let q = lift_text("mov rax, rdi\nadd rax, rsi\nadd rax, rdx");
        let t = lift_text("mov rax, rdi\nadd rax, 0x5");
        let mut session = VerifierSession::new();
        let v = vcp_pair(&mut session, &q, &t, &quick_config());
        assert_eq!(v.q_in_t, 0.0);
    }

    #[test]
    fn gamma_enumeration_is_deterministic_under_the_cap() {
        use esh_ivl::InputKind;
        // Two sort groups whose injection counts multiply past the cap
        // (4·3 × 3·2 = 72 > 24): the truncated product must be the same
        // list on every call.
        fn strand(name: &str, wide: usize, narrow: usize) -> Proc {
            let mut p = Proc::new(name);
            for i in 0..wide {
                p.declare(format!("w{i}"), Sort::Bv(64), Some(InputKind::Register));
            }
            for i in 0..narrow {
                p.declare(format!("n{i}"), Sort::Bv(32), Some(InputKind::Register));
            }
            p
        }
        let q = strand("q", 2, 2);
        let t = strand("t", 4, 3);
        let cap = VcpConfig::default().max_correspondences;
        let first = enumerate_gammas(&q, &t, cap);
        assert_eq!(first.len(), cap);
        for _ in 0..32 {
            assert_eq!(enumerate_gammas(&q, &t, cap), first);
        }
    }

    #[test]
    fn size_ratio_filter() {
        let c = VcpConfig::default();
        assert!(size_ratio_ok(&c, 10, 10));
        assert!(size_ratio_ok(&c, 10, 20));
        assert!(size_ratio_ok(&c, 20, 10));
        assert!(!size_ratio_ok(&c, 10, 21));
        assert!(!size_ratio_ok(&c, 21, 10));
        assert!(!size_ratio_ok(&c, 0, 10));
    }

    #[test]
    fn different_compilers_same_source_high_vcp() {
        // A three-instruction computation in a gcc-ish and an icc-ish
        // flavour (staging moves, different registers, imul vs lea).
        let q = lift_text("mov eax, edi\nshr eax, 0x8\nlea rdx, [rax+0x13]");
        let t = lift_text("mov r9d, edi\nshr r9d, 0x8\nmov r10, r9\nadd r10, 0x13");
        let mut session = VerifierSession::new();
        let v = vcp_pair(&mut session, &q, &t, &quick_config());
        assert!(v.q_in_t >= 0.75, "got {v:?}");
    }
}
