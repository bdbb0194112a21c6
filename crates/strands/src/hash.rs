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
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    /// Per-seed sorted output values (memory outputs are hashed to u64).
    pub rounds: Vec<Vec<u64>>,
}

impl Signature {
    /// Upper bound on the fraction of `self`'s values that can be matched
    /// in `other` (per-round minimum).
    pub fn overlap_bound(&self, other: &Signature) -> f64 {
        let mut bound: f64 = 1.0;
        for (a, b) in self.rounds.iter().zip(&other.rounds) {
            if a.is_empty() {
                return 0.0;
            }
            // Both sides are sorted: count multiset intersection.
            let mut i = 0;
            let mut j = 0;
            let mut matched = 0usize;
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        matched += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            bound = bound.min(matched as f64 / a.len() as f64);
        }
        bound
    }
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
