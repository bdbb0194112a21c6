//! Property tests for the solver: the normalizing constructors must be
//! semantics-preserving (checked against a shadow interpreter over the
//! un-normalized expression tree), the bit-blaster must agree with the
//! concrete evaluator, and the layered checker's verdicts must hold
//! against exhaustive truth at a width small enough to enumerate.

use esh_solver::bitblast::BitBlaster;
use esh_solver::equiv::{EquivChecker, EquivConfig, Verdict};
use esh_solver::eval::{eval, Assignment, CVal};
use esh_solver::{TermId, TermPool};
use proptest::prelude::*;

/// An explicit expression tree, kept un-normalized for shadow evaluation.
#[derive(Debug, Clone)]
enum Tree {
    Var(u32),
    Const(u64),
    Add(Box<Tree>, Box<Tree>),
    Sub(Box<Tree>, Box<Tree>),
    Mul(Box<Tree>, Box<Tree>),
    And(Box<Tree>, Box<Tree>),
    Or(Box<Tree>, Box<Tree>),
    Xor(Box<Tree>, Box<Tree>),
    Not(Box<Tree>),
    Neg(Box<Tree>),
    ShlC(Box<Tree>, u32),
    LShrC(Box<Tree>, u32),
    AShrC(Box<Tree>, u32),
}

/// Width of the random-input properties.
const WIDTH: u32 = 16;

/// Width of the exhaustive-truth property: three 4-bit variables span
/// 4096 inputs.
const SMALL: u32 = 4;

fn mask(v: u64, w: u32) -> u64 {
    v & ((1 << w) - 1)
}

fn sext(v: u64, w: u32) -> i64 {
    ((mask(v, w) << (64 - w)) as i64) >> (64 - w)
}

impl Tree {
    /// Direct (shadow) interpretation at width `w`, independent of the
    /// term pool.
    fn shadow_eval(&self, vars: &[u64; 4], w: u32) -> u64 {
        let ev = |t: &Tree| t.shadow_eval(vars, w);
        match self {
            Tree::Var(i) => mask(vars[*i as usize % 4], w),
            Tree::Const(c) => mask(*c, w),
            Tree::Add(a, b) => mask(ev(a).wrapping_add(ev(b)), w),
            Tree::Sub(a, b) => mask(ev(a).wrapping_sub(ev(b)), w),
            Tree::Mul(a, b) => mask(ev(a).wrapping_mul(ev(b)), w),
            Tree::And(a, b) => ev(a) & ev(b),
            Tree::Or(a, b) => ev(a) | ev(b),
            Tree::Xor(a, b) => ev(a) ^ ev(b),
            Tree::Not(a) => mask(!ev(a), w),
            Tree::Neg(a) => mask(ev(a).wrapping_neg(), w),
            Tree::ShlC(a, k) => mask(ev(a) << (k % w), w),
            Tree::LShrC(a, k) => ev(a) >> (k % w),
            Tree::AShrC(a, k) => mask((sext(ev(a), w) >> (k % w)) as u64, w),
        }
    }

    /// Construction at width `w` through the normalizing pool.
    fn build(&self, pool: &mut TermPool, w: u32) -> TermId {
        match self {
            Tree::Var(i) => pool.var(i % 4, w),
            Tree::Const(c) => pool.constant(*c, w),
            Tree::Add(a, b) => {
                let (x, y) = (a.build(pool, w), b.build(pool, w));
                pool.add2(x, y)
            }
            Tree::Sub(a, b) => {
                let (x, y) = (a.build(pool, w), b.build(pool, w));
                pool.sub(x, y)
            }
            Tree::Mul(a, b) => {
                let (x, y) = (a.build(pool, w), b.build(pool, w));
                pool.mul(vec![x, y])
            }
            Tree::And(a, b) => {
                let (x, y) = (a.build(pool, w), b.build(pool, w));
                pool.and(vec![x, y])
            }
            Tree::Or(a, b) => {
                let (x, y) = (a.build(pool, w), b.build(pool, w));
                pool.or(vec![x, y])
            }
            Tree::Xor(a, b) => {
                let (x, y) = (a.build(pool, w), b.build(pool, w));
                pool.xor(vec![x, y])
            }
            Tree::Not(a) => {
                let x = a.build(pool, w);
                pool.not(x)
            }
            Tree::Neg(a) => {
                let x = a.build(pool, w);
                pool.neg(x)
            }
            Tree::ShlC(a, k) => {
                let x = a.build(pool, w);
                let c = pool.constant(u64::from(*k), w);
                pool.shl(x, c)
            }
            Tree::LShrC(a, k) => {
                let x = a.build(pool, w);
                let c = pool.constant(u64::from(*k), w);
                pool.lshr(x, c)
            }
            Tree::AShrC(a, k) => {
                let x = a.build(pool, w);
                let c = pool.constant(u64::from(*k), w);
                pool.ashr(x, c)
            }
        }
    }
}

/// Random trees of width `w` over the first `vars` variables.
fn arb_tree(vars: u32, w: u32) -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        (0u32..vars).prop_map(Tree::Var),
        (0u64..1 << w).prop_map(Tree::Const),
    ];
    leaf.prop_recursive(4, 24, 2, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Tree::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Tree::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Tree::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Tree::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Tree::Or(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Tree::Xor(a.into(), b.into())),
            inner.clone().prop_map(|a| Tree::Not(a.into())),
            inner.clone().prop_map(|a| Tree::Neg(a.into())),
            (inner.clone(), 0u32..w).prop_map(|(a, k)| Tree::ShlC(a.into(), k)),
            (inner.clone(), 0u32..w).prop_map(|(a, k)| Tree::LShrC(a.into(), k)),
            (inner, 0u32..w).prop_map(|(a, k)| Tree::AShrC(a.into(), k)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Normalizing construction preserves semantics on random inputs.
    #[test]
    fn normalization_is_semantics_preserving(tree in arb_tree(4, WIDTH), vals in [any::<u64>(); 4]) {
        let mut pool = TermPool::new();
        let t = tree.build(&mut pool, WIDTH);
        let mut asn = Assignment::random(0);
        for (i, v) in vals.iter().enumerate() {
            asn.vars.insert(i as u32, mask(*v, WIDTH));
        }
        let got = match eval(&pool, t, &asn) {
            CVal::Bv(v) => v,
            CVal::Mem(_) => unreachable!(),
        };
        prop_assert_eq!(got, tree.shadow_eval(&vals, WIDTH), "tree: {:?}", tree);
    }

    /// The bit-blaster agrees with the evaluator: pinning the variables to
    /// concrete values makes `term == eval(term)` valid.
    #[test]
    fn bitblast_agrees_with_eval(tree in arb_tree(4, WIDTH), vals in [any::<u64>(); 4]) {
        let mut pool = TermPool::new();
        let t = tree.build(&mut pool, WIDTH);
        let mut asn = Assignment::random(0);
        for (i, v) in vals.iter().enumerate() {
            asn.vars.insert(i as u32, mask(*v, WIDTH));
        }
        let want = match eval(&pool, t, &asn) {
            CVal::Bv(v) => v,
            CVal::Mem(_) => unreachable!(),
        };
        let want_t = pool.constant(want, WIDTH);
        let mut bb = BitBlaster::new();
        // Pin the variables.
        for i in 0..4u32 {
            let vt = pool_var_bits(&mut bb, &pool, i);
            let v = mask(vals[i as usize], WIDTH);
            for (j, l) in vt.iter().enumerate() {
                let bit = (v >> j) & 1 == 1;
                let unit = if bit { *l } else { l.negate() };
                bb.sat.add_clause(vec![unit]);
            }
        }
        match bb.prove_equal(&pool, t, want_t, 100_000) {
            Some(true) => {}
            other => prop_assert!(false, "blaster disagrees ({other:?}) on {tree:?}"),
        }
    }
}

/// Whether `a` and `b` agree on every assignment of three `w`-bit
/// variables.
fn truly_equal(a: &Tree, b: &Tree, w: u32) -> bool {
    let n = 1u64 << w;
    (0..n * n * n).all(|k| {
        let vars = [k % n, k / n % n, k / (n * n), 0];
        a.shadow_eval(&vars, w) == b.shadow_eval(&vars, w)
    })
}

/// A `w`-bit tree that is 1 when every bit of variables 0–2 is set and 0
/// otherwise: XOR-ing it into a tree changes exactly one of the 4096
/// inputs at 4 bits, which random rounds and boundary probes all but
/// never hit, so the pair reaches the SAT layer.
fn all_ones_indicator(w: u32) -> Tree {
    let bits = (0..3).flat_map(|v| (0..w).map(move |k| Tree::LShrC(Tree::Var(v).into(), k)));
    bits.fold(Tree::Const(1), |acc, bit| Tree::And(acc.into(), bit.into()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The layered checker against exhaustive truth. At 4 bits over at
    /// most three variables every pair is decided by enumerating all 4096
    /// inputs, independently of the term pool and of every checker layer.
    ///
    /// Under the default budgets a verdict must be sound: `Equal` only for
    /// truly-equal pairs, `NotEqual` only when some input distinguishes
    /// them. With the conflict and multiplier budgets unbounded nothing
    /// can end `Unknown`, so every truly-equal pair must be proven
    /// `Equal`. Each checker answers several pairs in a row, repeats
    /// reach its pair cache, and each random pair comes with two
    /// companions for the SAT layer: a truly-equal one to prove and one
    /// that differs on a single input to refute.
    #[test]
    fn checker_verdicts_match_exhaustive_truth(pairs in proptest::collection::vec(
        (arb_tree(3, SMALL), arb_tree(3, SMALL)), 1..5,
    )) {
        let mut budgeted = EquivChecker::new();
        let mut exact = EquivChecker::with_config(EquivConfig {
            sat_budget: u64::MAX,
            max_mul_cost: usize::MAX,
            ..Default::default()
        });
        for (ta, tb) in &pairs {
            // (a ^ b) == (a | b) - (a & b) for all a, b.
            let xor = Tree::Xor(ta.clone().into(), tb.clone().into());
            let or = Tree::Or(ta.clone().into(), tb.clone().into());
            let and = Tree::And(ta.clone().into(), tb.clone().into());
            let diff = Tree::Sub(or.into(), and.into());
            let flipped = Tree::Xor(ta.clone().into(), all_ones_indicator(SMALL).into());
            for (x, y) in [(ta, tb), (&xor, &diff), (ta, &flipped), (tb, ta)] {
                let truth = truly_equal(x, y, SMALL);
                for (ec, unbounded) in [(&mut budgeted, false), (&mut exact, true)] {
                    let (a, b) = (x.build(&mut ec.pool, SMALL), y.build(&mut ec.pool, SMALL));
                    let verdict = ec.check_eq(a, b);
                    let sound = match verdict {
                        Verdict::Equal => truth,
                        Verdict::NotEqual => !truth,
                        Verdict::Unknown => !unbounded,
                    };
                    prop_assert!(sound, "{verdict:?} (truly equal: {truth}, unbounded: {unbounded}) \
                        on {x:?} vs {y:?}");
                }
            }
        }
    }
}

fn pool_var_bits(bb: &mut BitBlaster, pool: &TermPool, _i: u32) -> Vec<esh_solver::sat::Lit> {
    // The pool is immutable here; var terms already exist from build().
    // Find the var term by scanning (ids are dense and small).
    let t = (0..pool.len() as u32)
        .map(TermId)
        .find(|t| matches!(pool.data(*t).op, esh_solver::term::TermOp::Var(v) if v == _i));
    match t {
        Some(t) => bb.blast(pool, t),
        None => Vec::new(), // variable unused in this tree
    }
}
