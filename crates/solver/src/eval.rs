//! Concrete evaluation of terms — the fast refutation layer.
//!
//! Random assignments give sound *inequality* verdicts: if any assignment
//! distinguishes two terms, they are definitely not equivalent. Memory
//! variables evaluate to pseudo-random byte oracles overlaid with the
//! store chains, matching the IVL evaluation semantics in `esh-ivl`.
//!
//! Evaluation is plan-based: [`EvalPlan`] flattens the subgraph reachable
//! from a set of root terms into one post-order schedule with dense slot
//! indices, and every round replays that schedule into a flat value
//! array. Compared to the older per-round `HashMap` memo this removes
//! the hash lookups, the per-hit [`CVal`] clones (a `CVal::Mem` clone
//! copies its whole store chain), and the recursion — which matters now
//! that sketching puts `eval_battery` on the hot admission path.

use std::collections::HashMap;

use crate::term::{mask, TermId, TermOp, TermPool};

/// A concrete memory value (pseudo-random base + store overlay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRep {
    /// Base-image identifier.
    pub seed: u64,
    /// Stores, oldest first: `(addr, width_bits, value)`.
    pub stores: Vec<(u64, u32, u64)>,
}

impl MemRep {
    fn base_byte(&self, addr: u64) -> u8 {
        let mut z = self.seed ^ addr.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as u8
    }

    fn read_byte(&self, addr: u64) -> u8 {
        for (a, w, v) in self.stores.iter().rev() {
            let bytes = u64::from(w / 8);
            if addr.wrapping_sub(*a) < bytes {
                return (v >> (8 * addr.wrapping_sub(*a))) as u8;
            }
        }
        self.base_byte(addr)
    }

    fn read(&self, addr: u64, width: u32) -> u64 {
        let mut v = 0u64;
        for i in 0..u64::from(width / 8) {
            v |= u64::from(self.read_byte(addr.wrapping_add(i))) << (8 * i);
        }
        v
    }
}

/// A concrete term value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CVal {
    /// Bitvector (masked).
    Bv(u64),
    /// Memory.
    Mem(MemRep),
}

impl CVal {
    fn bv(&self) -> u64 {
        match self {
            CVal::Bv(v) => *v,
            CVal::Mem(_) => panic!("expected bitvector"),
        }
    }
}

/// An assignment of free variables to concrete values. Unlisted variables
/// take deterministic pseudo-random values derived from the round.
#[derive(Debug, Clone, Default)]
pub struct Assignment {
    /// Bitvector variables.
    pub vars: HashMap<u32, u64>,
    /// Memory variables (by seed).
    pub mems: HashMap<u32, u64>,
    round: u64,
}

impl Assignment {
    /// A deterministic pseudo-random assignment for round `round`.
    pub fn random(round: u64) -> Assignment {
        Assignment {
            vars: HashMap::new(),
            mems: HashMap::new(),
            round,
        }
    }
    fn var_value(&self, id: u32) -> u64 {
        if let Some(v) = self.vars.get(&id) {
            return *v;
        }
        let mut z = self
            .round
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(u64::from(id) + 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z ^= z >> 29;
        z
    }

    fn mem_seed(&self, id: u32) -> u64 {
        if let Some(v) = self.mems.get(&id) {
            return *v;
        }
        self.round.wrapping_mul(0x1000_0000_01b3) ^ (u64::from(id) << 17)
    }
}

fn sext64(v: u64, w: u32) -> i64 {
    if w >= 64 {
        v as i64
    } else {
        ((v << (64 - w)) as i64) >> (64 - w)
    }
}

/// Sentinel slot for terms outside the plan's reachable subgraph.
const UNPLACED: u32 = u32::MAX;

/// A flat post-order evaluation schedule over the subgraph reachable from
/// a set of root terms.
///
/// Built once, replayed once per assignment: `order` lists every reachable
/// term with all of its arguments strictly earlier, and `slot` maps a
/// `TermId` to its dense position in the per-round value array. Each round
/// then evaluates straight down the schedule — no hashing, no recursion,
/// and each shared subterm is computed exactly once and *read in place*
/// rather than cloned out of a memo.
#[derive(Debug, Clone)]
pub struct EvalPlan {
    /// Reachable terms in dependency order.
    order: Vec<TermId>,
    /// `slot[t.index()]` = position of `t` in the value array.
    slot: Vec<u32>,
    /// Value-array positions of the requested roots, in request order.
    roots: Vec<u32>,
}

impl EvalPlan {
    /// Builds the schedule for `roots` (duplicates share one slot).
    pub fn new(pool: &TermPool, roots: &[TermId]) -> EvalPlan {
        let mut slot = vec![UNPLACED; pool.len()];
        let mut scheduled = vec![false; pool.len()];
        let mut order: Vec<TermId> = Vec::new();
        // (term, expanded): the first pop pushes the term back with its
        // arguments on top; the second pop emits it.
        let mut stack: Vec<(TermId, bool)> = Vec::with_capacity(roots.len());
        for &r in roots.iter().rev() {
            stack.push((r, false));
        }
        while let Some((t, expanded)) = stack.pop() {
            if expanded {
                slot[t.index()] = order.len() as u32;
                order.push(t);
                continue;
            }
            if scheduled[t.index()] {
                continue;
            }
            scheduled[t.index()] = true;
            stack.push((t, true));
            for &arg in pool.data(t).args.iter().rev() {
                if !scheduled[arg.index()] {
                    stack.push((arg, false));
                }
            }
        }
        let root_slots = roots.iter().map(|r| slot[r.index()]).collect();
        EvalPlan {
            order,
            slot,
            roots: root_slots,
        }
    }

    /// Number of terms the schedule evaluates per round.
    pub fn scheduled_terms(&self) -> usize {
        self.order.len()
    }

    /// Evaluates one round: the values of the requested roots under `a`.
    pub fn eval_round(&self, pool: &TermPool, a: &Assignment) -> Vec<CVal> {
        let mut vals = Vec::with_capacity(self.order.len());
        self.run_into(pool, a, &mut vals);
        self.extract(&vals)
    }

    /// Root values out of a finished value array.
    fn extract(&self, vals: &[CVal]) -> Vec<CVal> {
        self.roots
            .iter()
            .map(|&s| vals[s as usize].clone())
            .collect()
    }

    /// Replays the schedule under `a` into `vals` (cleared first, so one
    /// buffer can be reused across rounds without reallocating).
    fn run_into(&self, pool: &TermPool, a: &Assignment, vals: &mut Vec<CVal>) {
        vals.clear();
        vals.reserve(self.order.len());
        for &t in &self.order {
            let data = pool.data(t);
            let w = data.width;
            let m = mask(w);
            // Every argument sits strictly earlier in `vals`; read by slot.
            let arg = |i: usize| -> &CVal { &vals[self.slot[data.args[i].index()] as usize] };
            let abv = |i: usize| -> u64 { arg(i).bv() };
            let fold = |init: u64, f: fn(u64, u64) -> u64| -> u64 {
                data.args.iter().fold(init, |acc, x| {
                    f(acc, vals[self.slot[x.index()] as usize].bv())
                })
            };
            let out = match data.op {
                TermOp::Var(id) => CVal::Bv(a.var_value(id) & m),
                TermOp::MemVar(id) => CVal::Mem(MemRep {
                    seed: a.mem_seed(id),
                    stores: Vec::new(),
                }),
                TermOp::Const(v) => CVal::Bv(v),
                TermOp::Add => CVal::Bv(fold(0, u64::wrapping_add) & m),
                TermOp::Mul => CVal::Bv(fold(1, u64::wrapping_mul) & m),
                TermOp::And => CVal::Bv(fold(m, |a, b| a & b)),
                TermOp::Or => CVal::Bv(fold(0, |a, b| a | b)),
                TermOp::Xor => CVal::Bv(fold(0, |a, b| a ^ b)),
                TermOp::Not => CVal::Bv(!abv(0) & m),
                TermOp::Shl => {
                    let sh = abv(1) % u64::from(w);
                    CVal::Bv(abv(0).wrapping_shl(sh as u32) & m)
                }
                TermOp::LShr => {
                    let sh = abv(1) % u64::from(w);
                    CVal::Bv(abv(0).wrapping_shr(sh as u32) & m)
                }
                TermOp::AShr => {
                    let sh = (abv(1) % u64::from(w)) as u32;
                    CVal::Bv(((sext64(abv(0), w) >> sh) as u64) & m)
                }
                TermOp::Eq => CVal::Bv(u64::from(arg(0) == arg(1))),
                TermOp::Ult => CVal::Bv(u64::from(abv(0) < abv(1))),
                TermOp::Slt => {
                    let aw = pool.width(data.args[0]);
                    CVal::Bv(u64::from(sext64(abv(0), aw) < sext64(abv(1), aw)))
                }
                TermOp::Ite => {
                    if abv(0) != 0 {
                        arg(1).clone()
                    } else {
                        arg(2).clone()
                    }
                }
                TermOp::Zext => CVal::Bv(abv(0)),
                TermOp::Sext => {
                    let aw = pool.width(data.args[0]);
                    CVal::Bv((sext64(abv(0), aw) as u64) & m)
                }
                TermOp::Extract(hi, lo) => CVal::Bv((abv(0) >> lo) & mask(hi - lo + 1)),
                TermOp::Concat => {
                    let lo_w = pool.width(data.args[1]);
                    CVal::Bv(((abv(0) << lo_w) | abv(1)) & m)
                }
                TermOp::Load => match arg(0) {
                    CVal::Mem(img) => CVal::Bv(img.read(abv(1), w)),
                    CVal::Bv(_) => panic!("load from non-memory"),
                },
                TermOp::Store => match arg(0) {
                    CVal::Mem(img) => {
                        let mut img = img.clone();
                        let vw = pool.width(data.args[2]);
                        img.stores.push((abv(1), vw, abv(2)));
                        CVal::Mem(img)
                    }
                    CVal::Bv(_) => panic!("store to non-memory"),
                },
            };
            vals.push(out);
        }
    }
}

/// Evaluates `t` under `a`, sharing work across repeated subterms.
pub fn eval(pool: &TermPool, t: TermId, a: &Assignment) -> CVal {
    EvalPlan::new(pool, std::slice::from_ref(&t))
        .eval_round(pool, a)
        .pop()
        .expect("one root, one value")
}

/// Evaluates many terms under one assignment with one shared schedule —
/// much cheaper than repeated [`eval`] calls when the terms share
/// structure (as the values of one strand always do).
pub fn eval_many(pool: &TermPool, terms: &[TermId], a: &Assignment) -> Vec<CVal> {
    EvalPlan::new(pool, terms).eval_round(pool, a)
}

/// Evaluates `terms` under every assignment in `rounds` — the batch entry
/// point behind semantic sketching. The post-order schedule is built once
/// and replayed round-major into one reused value buffer, so the per-round
/// cost is pure arithmetic; the result is laid out round-major:
/// `result[r][k]` is the value of `terms[k]` under `rounds[r]`.
pub fn eval_battery(pool: &TermPool, terms: &[TermId], rounds: &[Assignment]) -> Vec<Vec<CVal>> {
    let plan = EvalPlan::new(pool, terms);
    let mut vals: Vec<CVal> = Vec::with_capacity(plan.order.len());
    rounds
        .iter()
        .map(|a| {
            plan.run_into(pool, a, &mut vals);
            plan.extract(&vals)
        })
        .collect()
}

/// Stable 64-bit digest of a concrete value (FNV-1a over its bytes, with
/// store chains folded in for memories). Unlike hashes built on the
/// standard library's [`DefaultHasher`](std::collections::hash_map::DefaultHasher),
/// this is a fixed function of the value alone, so digests persisted to
/// disk (semantic sketches) stay valid across toolchain upgrades.
pub fn cval_digest(v: &CVal) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mix = |mut h: u64, word: u64| -> u64 {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h
    };
    match v {
        CVal::Bv(b) => mix(mix(OFFSET, 1), *b),
        CVal::Mem(m) => {
            let mut h = mix(mix(OFFSET, 2), m.seed);
            for (addr, width, value) in &m.stores {
                h = mix(h, *addr);
                h = mix(h, u64::from(*width));
                h = mix(h, *value);
            }
            h
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-plan evaluator: naive recursion with a memo map. Kept as a
    /// reference semantics oracle — the plan-based evaluator must agree
    /// with it bit-for-bit on every term.
    fn eval_reference(
        pool: &TermPool,
        t: TermId,
        a: &Assignment,
        memo: &mut HashMap<TermId, CVal>,
    ) -> CVal {
        if let Some(v) = memo.get(&t) {
            return v.clone();
        }
        let data = pool.data(t);
        let w = data.width;
        let m = mask(w);
        let args: Vec<CVal> = data
            .args
            .iter()
            .map(|x| eval_reference(pool, *x, a, memo))
            .collect();
        let out = match data.op {
            TermOp::Var(id) => CVal::Bv(a.var_value(id) & m),
            TermOp::MemVar(id) => CVal::Mem(MemRep {
                seed: a.mem_seed(id),
                stores: Vec::new(),
            }),
            TermOp::Const(v) => CVal::Bv(v),
            TermOp::Add => CVal::Bv(args.iter().fold(0u64, |acc, x| acc.wrapping_add(x.bv())) & m),
            TermOp::Mul => CVal::Bv(args.iter().fold(1u64, |acc, x| acc.wrapping_mul(x.bv())) & m),
            TermOp::And => CVal::Bv(args.iter().fold(m, |acc, x| acc & x.bv())),
            TermOp::Or => CVal::Bv(args.iter().fold(0, |acc, x| acc | x.bv())),
            TermOp::Xor => CVal::Bv(args.iter().fold(0, |acc, x| acc ^ x.bv())),
            TermOp::Not => CVal::Bv(!args[0].bv() & m),
            TermOp::Shl => {
                let sh = args[1].bv() % u64::from(w);
                CVal::Bv(args[0].bv().wrapping_shl(sh as u32) & m)
            }
            TermOp::LShr => {
                let sh = args[1].bv() % u64::from(w);
                CVal::Bv(args[0].bv().wrapping_shr(sh as u32) & m)
            }
            TermOp::AShr => {
                let sh = (args[1].bv() % u64::from(w)) as u32;
                CVal::Bv(((sext64(args[0].bv(), w) >> sh) as u64) & m)
            }
            TermOp::Eq => CVal::Bv(u64::from(args[0] == args[1])),
            TermOp::Ult => CVal::Bv(u64::from(args[0].bv() < args[1].bv())),
            TermOp::Slt => {
                let aw = pool.width(data.args[0]);
                CVal::Bv(u64::from(
                    sext64(args[0].bv(), aw) < sext64(args[1].bv(), aw),
                ))
            }
            TermOp::Ite => {
                if args[0].bv() != 0 {
                    args[1].clone()
                } else {
                    args[2].clone()
                }
            }
            TermOp::Zext => CVal::Bv(args[0].bv()),
            TermOp::Sext => {
                let aw = pool.width(data.args[0]);
                CVal::Bv((sext64(args[0].bv(), aw) as u64) & m)
            }
            TermOp::Extract(hi, lo) => CVal::Bv((args[0].bv() >> lo) & mask(hi - lo + 1)),
            TermOp::Concat => {
                let lo_w = pool.width(data.args[1]);
                CVal::Bv(((args[0].bv() << lo_w) | args[1].bv()) & m)
            }
            TermOp::Load => match &args[0] {
                CVal::Mem(img) => CVal::Bv(img.read(args[1].bv(), w)),
                CVal::Bv(_) => panic!("load from non-memory"),
            },
            TermOp::Store => match &args[0] {
                CVal::Mem(img) => {
                    let mut img = img.clone();
                    let vw = pool.width(data.args[2]);
                    img.stores.push((args[1].bv(), vw, args[2].bv()));
                    CVal::Mem(img)
                }
                CVal::Bv(_) => panic!("store to non-memory"),
            },
        };
        memo.insert(t, out.clone());
        out
    }

    #[test]
    fn normalization_is_sound_under_evaluation() {
        // Build equivalent expressions along different routes; both must
        // evaluate identically even when they normalize to one node, and
        // an unnormalized sibling must agree too.
        let mut p = TermPool::new();
        let x = p.var(0, 64);
        let y = p.var(1, 64);
        let five = p.constant(5, 64);
        let e1 = p.mul(vec![five, x]);
        let four = p.constant(4, 64);
        let x4 = p.mul(vec![four, x]);
        let e2 = p.add2(x4, x);
        assert_eq!(e1, e2);
        for round in 0..16 {
            let a = Assignment::random(round);
            assert_eq!(eval(&p, e1, &a), eval(&p, e2, &a));
            // And a genuinely different term differs somewhere.
            let e3 = p.add2(x, y);
            let _ = eval(&p, e3, &a);
        }
    }

    #[test]
    fn random_assignment_distinguishes_inequivalent_terms() {
        let mut p = TermPool::new();
        let x = p.var(0, 64);
        let one = p.constant(1, 64);
        let e1 = p.add2(x, one);
        let two = p.constant(2, 64);
        let e2 = p.add2(x, two);
        let mut distinguished = false;
        for round in 0..4 {
            let a = Assignment::random(round);
            if eval(&p, e1, &a) != eval(&p, e2, &a) {
                distinguished = true;
            }
        }
        assert!(distinguished);
    }

    #[test]
    fn memory_eval_sees_store_chains() {
        let mut p = TermPool::new();
        let m = p.mem_var(0);
        let addr = p.var(0, 64);
        let val = p.var(1, 64);
        let m2 = p.store(m, addr, val);
        let ld = p.load(m2, addr, 64);
        // normalization already forwards; build a non-forwardable one:
        let other = p.var(2, 64);
        let ld2 = p.load(m2, other, 64);
        let mut a = Assignment::random(1);
        a.vars.insert(0, 0x100);
        a.vars.insert(1, 0xdead);
        a.vars.insert(2, 0x100); // same concrete address!
        assert_eq!(eval(&p, ld, &a).bv(), 0xdead);
        assert_eq!(eval(&p, ld2, &a).bv(), 0xdead, "aliasing must be honoured");
    }

    #[test]
    fn battery_matches_per_round_eval() {
        let mut p = TermPool::new();
        let x = p.var(0, 64);
        let y = p.var(1, 64);
        let sum = p.add2(x, y);
        let prod = p.mul(vec![x, y]);
        let terms = [sum, prod];
        let rounds: Vec<Assignment> = (0..4).map(Assignment::random).collect();
        let grid = eval_battery(&p, &terms, &rounds);
        assert_eq!(grid.len(), 4);
        for (r, a) in rounds.iter().enumerate() {
            for (k, t) in terms.iter().enumerate() {
                assert_eq!(grid[r][k], eval(&p, *t, a));
            }
        }
    }

    #[test]
    fn plan_evaluation_matches_reference_memo_evaluator() {
        // A term mix covering shared subterms, memories with store
        // chains, comparisons and width changes — the plan-based
        // evaluator must reproduce the recursive memo evaluator exactly.
        let mut p = TermPool::new();
        let x = p.var(0, 64);
        let y = p.var(1, 32);
        let m = p.mem_var(0);
        let yz = p.zext(y, 64);
        let sum = p.add2(x, yz);
        let st = p.store(m, sum, x);
        let ld = p.load(st, x, 64);
        let lt = p.slt(ld, sum);
        let sh = p.constant(3, 64);
        let shifted = p.lshr(sum, sh);
        let roots = [lt, ld, shifted, sum, lt]; // duplicate root on purpose
        for round in 0..8 {
            let a = Assignment::random(round);
            let mut memo = HashMap::new();
            let expected: Vec<CVal> = roots
                .iter()
                .map(|t| eval_reference(&p, *t, &a, &mut memo))
                .collect();
            assert_eq!(eval_many(&p, &roots, &a), expected);
        }
    }

    #[test]
    fn plan_schedules_shared_subterms_once() {
        let mut p = TermPool::new();
        let x = p.var(0, 64);
        let y = p.var(1, 64);
        let sum = p.add2(x, y);
        let prod = p.mul(vec![sum, sum]);
        let both = [sum, prod];
        let plan = EvalPlan::new(&p, &both);
        // x, y, sum, prod — the shared `sum` appears exactly once.
        assert_eq!(plan.scheduled_terms(), 4);
    }

    #[test]
    fn cval_digest_separates_values_and_is_stable() {
        assert_eq!(cval_digest(&CVal::Bv(7)), cval_digest(&CVal::Bv(7)));
        assert_ne!(cval_digest(&CVal::Bv(7)), cval_digest(&CVal::Bv(8)));
        // A bitvector and a memory with a coinciding seed must not collide
        // by construction (distinct kind tags are folded in first).
        let mem = CVal::Mem(MemRep {
            seed: 7,
            stores: Vec::new(),
        });
        assert_ne!(cval_digest(&CVal::Bv(7)), cval_digest(&mem));
        let stored = CVal::Mem(MemRep {
            seed: 7,
            stores: vec![(0x10, 64, 42)],
        });
        assert_ne!(cval_digest(&mem), cval_digest(&stored));
    }

    #[test]
    fn fixed_assignment_overrides_random() {
        let mut p = TermPool::new();
        let x = p.var(7, 64);
        let mut a = Assignment::random(3);
        a.vars.insert(7, 42);
        assert_eq!(eval(&p, x, &a).bv(), 42);
    }
}
