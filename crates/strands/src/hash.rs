//! Structural and semantic strand hashing.
//!
//! * The **structural hash** identifies syntactically identical lifted
//!   strands (up to variable numbering, which is canonical by
//!   construction). It powers corpus-wide deduplication: the compiler
//!   replicates prologue/epilogue strands thousands of times (§5.3 and
//!   §6.2 discuss exactly this), and identical strands need only one VCP
//!   computation.
//!
//! * The **semantic signature** evaluates a lifted strand on a fixed,
//!   *input-uniform* assignment (every bitvector input gets the same
//!   value, every memory input the same image). Uniformity is the key
//!   soundness trick: an input-output equivalence under *any* input
//!   correspondence γ implies matching output values under a uniform
//!   assignment, so signature overlap is a correct upper bound for VCP —
//!   a prefilter that never rejects a true match.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use esh_ivl::eval::{eval_proc, MemImage, Val};
use esh_ivl::{Proc, Sort, VarId};
use serde::{Deserialize, Serialize};

/// Seeds of the uniform assignments used for semantic signatures.
pub const SIGNATURE_SEEDS: [u64; 2] = [0x00c0_ffee, 0x0bad_f00d];

/// Folds one 64-bit word into a running FNV-1a state. The starting state
/// is [`STABLE_HASH_SEED`]; chain calls to hash a sequence.
///
/// Unlike [`structural_hash`] (which rides the standard library's default
/// hasher and is therefore tied to the toolchain that produced it), this
/// is a fixed function: values derived from it — per-class semantic
/// sketches, minhash signatures, LSH band keys — can be persisted in
/// indexes and compared across builds.
pub fn stable_mix(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis — the starting state for [`stable_mix`] chains.
pub const STABLE_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Stable digest of a word sequence (a [`stable_mix`] fold from
/// [`STABLE_HASH_SEED`]).
pub fn stable_hash64(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(STABLE_HASH_SEED, stable_mix)
}

/// Structural hash of a lifted strand (op sequence + operand shape).
pub fn structural_hash(p: &Proc) -> u64 {
    let mut h = DefaultHasher::new();
    for v in &p.vars {
        (v.sort, v.input.is_some()).hash(&mut h);
    }
    for s in &p.stmts {
        s.dst.0.hash(&mut h);
        s.op.hash(&mut h);
        for a in &s.args {
            match a {
                esh_ivl::Operand::Var(v) => (0u8, v.0 as u64).hash(&mut h),
                esh_ivl::Operand::Const { value, width } => (1u8, *value, *width).hash(&mut h),
            }
        }
    }
    h.finish()
}

/// The semantic signature of a lifted strand: for each signature seed, the
/// sorted values of all non-input variables under the uniform assignment.
///
/// Both comparisons merge rounds pairwise and assume every round is
/// sorted (non-decreasing), as [`semantic_signature`] builds it; an
/// index reader refuses a stored signature that is not.
/// [`overlap_bound`](Self::overlap_bound) is the bound in one direction;
/// [`either_overlap_reaches`](Self::either_overlap_reaches) decides the
/// prefilter's two-direction test in a single pass.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    /// Per-seed sorted output values (memory outputs are hashed to u64).
    pub rounds: Vec<Vec<u64>>,
}

impl Signature {
    /// Upper bound on the fraction of `self`'s values that can be matched
    /// in `other` (per-round minimum; an empty round of `self` bounds it
    /// at 0). This is the per-direction bound; the engine's prefilter
    /// decides [`either_overlap_reaches`](Self::either_overlap_reaches)
    /// instead.
    pub fn overlap_bound(&self, other: &Signature) -> f64 {
        let mut bound: f64 = 1.0;
        for (a, b) in self.rounds.iter().zip(&other.rounds) {
            if a.is_empty() {
                return 0.0;
            }
            bound = bound.min(intersection_count(a, b) as f64 / a.len() as f64);
        }
        bound
    }

    /// Whether the overlap bound reaches `t` in either direction: exactly
    /// `!(self.overlap_bound(other) < t && other.overlap_bound(self) < t)`,
    /// for every input, in one merge per round. A round's multiset
    /// intersection is symmetric, so one count gives both directions'
    /// ratios; the running minima can only fall, so the pair is rejected
    /// as soon as both are below `t`, without reading later rounds. The
    /// engine (`esh-core`) counts the same decision over dictionary-coded
    /// values; this merge is the reference its tests hold it to.
    pub fn either_overlap_reaches(&self, other: &Signature, t: f64) -> bool {
        // No bound falls below a NaN or non-positive threshold, and none
        // exceeds 1.
        if t.is_nan() || t <= 0.0 {
            return true;
        }
        if t > 1.0 {
            return false;
        }
        let (mut self_below, mut other_below) = (false, false);
        for (a, b) in self.rounds.iter().zip(&other.rounds) {
            let matched = intersection_count(a, b) as f64;
            // An empty round bounds its direction at 0, which is below t.
            self_below |= a.is_empty() || matched / (a.len() as f64) < t;
            other_below |= b.is_empty() || matched / (b.len() as f64) < t;
            if self_below && other_below {
                return false;
            }
        }
        true
    }
}

/// Size of the multiset intersection of two sorted slices, by one merge.
/// Branch-free: each step advances the smaller side (both on a match),
/// so it takes as many steps as the classic three-way merge.
fn intersection_count(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut matched) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        matched += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    matched
}

fn uniform_inputs(p: &Proc, seed: u64) -> Vec<(VarId, Val)> {
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    z ^= z >> 31;
    p.inputs()
        .into_iter()
        .map(|id| {
            let v = match p.var(id).sort {
                Sort::Bv(w) => Val::Bv(z & if w >= 64 { u64::MAX } else { (1 << w) - 1 }),
                Sort::Mem => Val::Mem(MemImage::new(seed)),
            };
            (id, v)
        })
        .collect()
}

fn val_digest(v: &Val) -> u64 {
    match v {
        Val::Bv(b) => *b,
        Val::Mem(img) => {
            let mut h = DefaultHasher::new();
            img.seed.hash(&mut h);
            for s in img.stores.iter() {
                s.hash(&mut h);
            }
            h.finish()
        }
    }
}

/// Computes the semantic signature of a lifted strand.
pub fn semantic_signature(p: &Proc) -> Signature {
    let rounds = SIGNATURE_SEEDS
        .iter()
        .map(|seed| {
            let vals = eval_proc(p, &uniform_inputs(p, *seed));
            let mut out: Vec<u64> = p
                .temps()
                .into_iter()
                .map(|t| val_digest(&vals[t.index()]))
                .collect();
            out.sort_unstable();
            out
        })
        .collect();
    Signature { rounds }
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

    #[test]
    fn stable_hash_is_a_fixed_function() {
        // These constants pin the algorithm itself: if they move, every
        // persisted sketch digest silently invalidates.
        assert_eq!(stable_hash64([]), STABLE_HASH_SEED);
        assert_eq!(stable_hash64([0u64]), 0xa8c7_f832_281a_39c5);
        assert_ne!(stable_hash64([1u64, 2]), stable_hash64([2u64, 1]));
        assert_eq!(
            stable_mix(stable_mix(STABLE_HASH_SEED, 7), 9),
            stable_hash64([7u64, 9])
        );
    }

    #[test]
    fn structural_hash_distinguishes_ops() {
        let a = lift_text("mov rax, rdi\nadd rax, 0x1");
        let b = lift_text("mov rax, rdi\nsub rax, 0x1");
        let c = lift_text("mov rax, rdi\nadd rax, 0x1");
        assert_eq!(structural_hash(&a), structural_hash(&c));
        assert_ne!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn renamed_registers_hash_equal() {
        // Same computation through different registers lifts to the same
        // canonical IVL (temp numbering is positional).
        let a = lift_text("mov r13, rbx\nlea rcx, [r13+0x3]");
        let b = lift_text("mov r12, rbx\nlea rdi, [r12+0x3]");
        assert_eq!(structural_hash(&a), structural_hash(&b));
    }

    #[test]
    fn equivalent_strands_have_full_overlap() {
        // Figure 3's pair: equivalent computations, different shapes.
        let q = lift_text("lea r14d, [r12+0x13]\nmov rsi, 0x18\nlea rax, [rsi+r14]");
        let t = lift_text("mov r9, 0x13\nmov rbx, r12\nlea r13d, [rbx+r9]\nadd r9, 0x5\nmov rsi, r9\nlea rax, [rsi+r13]");
        let sq = semantic_signature(&q);
        let st = semantic_signature(&t);
        // Every value computed by q appears in t (VCP(q,t) upper bound 1).
        assert!(
            sq.overlap_bound(&st) > 0.7,
            "bound = {}",
            sq.overlap_bound(&st)
        );
    }

    #[test]
    fn unrelated_strands_have_low_overlap() {
        let q = lift_text("mov rax, rdi\nimul rax, rsi\nxor rax, 0x1234");
        let t = lift_text("mov rbx, rdi\nshr rbx, 0x7\nor rbx, 0x8000");
        let bound = semantic_signature(&q).overlap_bound(&semantic_signature(&t));
        assert!(bound < 0.5, "bound = {bound}");
    }

    /// What the fused kernel must equal: each direction's bound compared
    /// with `t` on its own.
    fn reference_reaches(a: &Signature, b: &Signature, t: f64) -> bool {
        !(a.overlap_bound(b) < t && b.overlap_bound(a) < t)
    }

    const THRESHOLDS: [f64; 6] = [0.0, 0.25, 0.5, 0.75, 1.0, f64::NAN];

    #[test]
    fn fused_kernel_matches_the_two_bound_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Small value alphabets force duplicates and partial overlaps;
        // round counts of 0–3 per side cover empty signatures and zipped
        // rounds of unequal count; round lengths of 0–6 cover empty rounds
        // on either side and every ratio with a small denominator.
        let mut rng = StdRng::seed_from_u64(0x5167_0a1e);
        let random_signature = |rng: &mut StdRng| {
            let alphabet = rng.gen_range(1u64..=6);
            let rounds = (0..rng.gen_range(0..=3usize))
                .map(|_| {
                    let mut round: Vec<u64> = (0..rng.gen_range(0..=6usize))
                        .map(|_| rng.gen_range(0..alphabet))
                        .collect();
                    round.sort_unstable();
                    round
                })
                .collect();
            Signature { rounds }
        };
        let thresholds: Vec<f64> = THRESHOLDS
            .iter()
            .copied()
            .chain([-0.5, 1.0 / 3.0, 2.0 / 3.0, 0.8, 1.5, f64::INFINITY])
            .collect();
        let mut outcomes = [0usize; 2];
        for _ in 0..20_000 {
            let a = random_signature(&mut rng);
            let b = random_signature(&mut rng);
            for &t in &thresholds {
                let want = reference_reaches(&a, &b, t);
                assert_eq!(
                    a.either_overlap_reaches(&b, t),
                    want,
                    "{a:?} vs {b:?} at t = {t}"
                );
                outcomes[usize::from(want)] += 1;
            }
        }
        assert!(
            outcomes.iter().all(|&n| n > 10_000),
            "both outcomes exercised: {outcomes:?}"
        );
    }

    #[test]
    fn fused_kernel_matches_the_reference_on_lifted_strands() {
        let texts = [
            "lea r14d, [r12+0x13]\nmov rsi, 0x18\nlea rax, [rsi+r14]",
            "mov r9, 0x13\nmov rbx, r12\nlea r13d, [rbx+r9]\nadd r9, 0x5\nmov rsi, r9\nlea rax, [rsi+r13]",
            "mov rax, rdi\nimul rax, rsi\nxor rax, 0x1234",
            "mov rbx, rdi\nshr rbx, 0x7\nor rbx, 0x8000",
            "mov rax, rdi\nadd rax, 0x2",
            "mov rax, rdi\nadd rax, 0x2\nmov rbx, rdi\nimul rbx, rbx\nxor rbx, rax",
            "mov r13, rbx\nlea rcx, [r13+0x3]",
            "mov rax, rdi\ncmp rax, rsi\njl somewhere",
            "push rbp\npush rbx\npush r12\npush r13",
            "mov byte ptr [r13+0x1], al\nmov byte ptr [r13+0x2], r12b",
            "mov rax, rdi",
        ];
        let sigs: Vec<Signature> = texts
            .iter()
            .map(|t| semantic_signature(&lift_text(t)))
            .collect();
        let mut outcomes = [0usize; 2];
        for a in &sigs {
            for b in &sigs {
                for &t in &THRESHOLDS {
                    let want = reference_reaches(a, b, t);
                    assert_eq!(
                        a.either_overlap_reaches(b, t),
                        want,
                        "{a:?} vs {b:?} at t = {t}"
                    );
                    outcomes[usize::from(want)] += 1;
                }
            }
        }
        assert!(
            outcomes.iter().all(|&n| n > 0),
            "both outcomes exercised: {outcomes:?}"
        );
    }

    #[test]
    fn overlap_is_asymmetric() {
        // q's values ⊂ t's values, but not vice versa.
        let q = lift_text("mov rax, rdi\nadd rax, 0x2");
        let t = lift_text("mov rax, rdi\nadd rax, 0x2\nmov rbx, rdi\nimul rbx, rbx\nxor rbx, rax");
        let sq = semantic_signature(&q);
        let st = semantic_signature(&t);
        assert!(sq.overlap_bound(&st) > st.overlap_bound(&sq));
    }
}
