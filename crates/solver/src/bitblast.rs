//! Tseitin bit-blasting of bitvector terms into CNF.
//!
//! Memory is handled byte-accurately: loads decompose into byte reads,
//! store chains become address-comparison mux chains, and reads from the
//! same base memory variable are related by Ackermann congruence
//! constraints. This keeps mixed-width load/store reasoning sound.
//!
//! The blaster owns no reference to the [`TermPool`]; every encoding call
//! takes the pool as an argument instead. One blaster encodes one
//! equality query: [`BitBlaster::blast`] memoizes encodings by `TermId`,
//! so a sub-DAG shared by both sides (or reached twice within one side)
//! is encoded once, and the checker discards the blaster with its solver
//! once the query is decided.

use std::collections::HashMap;

use crate::sat::{Lit, SatResult, Solver};
use crate::term::{TermId, TermOp, TermPool};

/// A recorded base-memory byte read: `(address bits, value bits)`.
type ByteRead = (Vec<Lit>, Vec<Lit>);

/// A bit-blasting context wrapping a SAT solver.
pub struct BitBlaster {
    /// The underlying SAT solver.
    pub sat: Solver,
    bits: HashMap<TermId, Vec<Lit>>,
    var_bits: HashMap<u32, Vec<Lit>>,
    /// Byte reads per base memory variable.
    mem_reads: HashMap<u32, Vec<ByteRead>>,
    /// Memoized byte reads keyed by (memory term, address bits).
    #[allow(clippy::type_complexity)]
    byte_memo: HashMap<(TermId, Vec<Lit>), Vec<Lit>>,
    true_lit: Lit,
    /// Term encodings served from the CNF cache (counted per `blast`
    /// lookup, including recursive sub-DAG lookups).
    pub blast_hits: u64,
    /// Term encodings built fresh.
    pub blast_misses: u64,
}

impl Default for BitBlaster {
    fn default() -> BitBlaster {
        BitBlaster::new()
    }
}

impl BitBlaster {
    /// Creates an empty blaster.
    pub fn new() -> BitBlaster {
        let mut sat = Solver::new();
        let t = sat.new_var();
        sat.add_clause(vec![Lit::pos(t)]);
        BitBlaster {
            sat,
            bits: HashMap::new(),
            var_bits: HashMap::new(),
            mem_reads: HashMap::new(),
            byte_memo: HashMap::new(),
            true_lit: Lit::pos(t),
            blast_hits: 0,
            blast_misses: 0,
        }
    }

    fn tru(&self) -> Lit {
        self.true_lit
    }

    fn fals(&self) -> Lit {
        self.true_lit.negate()
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.sat.new_var())
    }

    // ---- gates ---------------------------------------------------------

    fn gate_and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.fals() || b == self.fals() {
            return self.fals();
        }
        if a == self.tru() {
            return b;
        }
        if b == self.tru() {
            return a;
        }
        if a == b {
            return a;
        }
        if a == b.negate() {
            return self.fals();
        }
        let c = self.fresh();
        self.sat.add_clause(vec![a.negate(), b.negate(), c]);
        self.sat.add_clause(vec![a, c.negate()]);
        self.sat.add_clause(vec![b, c.negate()]);
        c
    }

    fn gate_or(&mut self, a: Lit, b: Lit) -> Lit {
        self.gate_and(a.negate(), b.negate()).negate()
    }

    fn gate_xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.fals() {
            return b;
        }
        if b == self.fals() {
            return a;
        }
        if a == self.tru() {
            return b.negate();
        }
        if b == self.tru() {
            return a.negate();
        }
        if a == b {
            return self.fals();
        }
        if a == b.negate() {
            return self.tru();
        }
        let c = self.fresh();
        self.sat
            .add_clause(vec![a.negate(), b.negate(), c.negate()]);
        self.sat.add_clause(vec![a, b, c.negate()]);
        self.sat.add_clause(vec![a.negate(), b, c]);
        self.sat.add_clause(vec![a, b.negate(), c]);
        c
    }

    fn gate_mux(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if t == e {
            return t;
        }
        if c == self.tru() {
            return t;
        }
        if c == self.fals() {
            return e;
        }
        let o = self.fresh();
        self.sat.add_clause(vec![c.negate(), t.negate(), o]);
        self.sat.add_clause(vec![c.negate(), t, o.negate()]);
        self.sat.add_clause(vec![c, e.negate(), o]);
        self.sat.add_clause(vec![c, e, o.negate()]);
        o
    }

    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.gate_xor(a, b);
        let sum = self.gate_xor(axb, cin);
        let c1 = self.gate_and(a, b);
        let c2 = self.gate_and(axb, cin);
        let cout = self.gate_or(c1, c2);
        (sum, cout)
    }

    fn add_bits(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let mut out = Vec::with_capacity(a.len());
        let mut carry = self.fals();
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        out
    }

    fn neg_bits(&mut self, a: &[Lit]) -> Vec<Lit> {
        // two's complement: ~a + 1
        let inv: Vec<Lit> = a.iter().map(|l| l.negate()).collect();
        let mut one = vec![self.fals(); a.len()];
        one[0] = self.tru();
        self.add_bits(&inv, &one)
    }

    /// `a * c` for a constant `c`: shift-add over `c`'s set bits.
    fn mul_const_bits(&mut self, a: &[Lit], c: u64) -> Vec<Lit> {
        let w = a.len();
        let mut acc = vec![self.fals(); w];
        for i in 0..w {
            if (c >> i) & 1 == 1 {
                let mut addend = vec![self.fals(); w];
                addend[i..w].copy_from_slice(&a[..w - i]);
                acc = self.add_bits(&acc, &addend);
            }
        }
        acc
    }

    fn mul_bits(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let mut acc = vec![self.fals(); w];
        for i in 0..w {
            // addend = (a << i) & b[i]
            let mut addend = vec![self.fals(); w];
            for j in 0..w - i {
                addend[i + j] = self.gate_and(a[j], b[i]);
            }
            acc = self.add_bits(&acc, &addend);
        }
        acc
    }

    /// Unsigned a < b as one literal.
    fn ult_bits(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // MSB-first: lt = (¬a_i ∧ b_i) ∨ (a_i == b_i) ∧ lt_rest
        let mut lt = self.fals();
        for i in 0..a.len() {
            let (ai, bi) = (a[i], b[i]);
            let this_lt = self.gate_and(ai.negate(), bi);
            let eq = self.gate_xor(ai, bi).negate();
            let keep = self.gate_and(eq, lt);
            lt = self.gate_or(this_lt, keep);
        }
        lt
    }

    fn eq_bits(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.tru();
        for i in 0..a.len() {
            let eq = self.gate_xor(a[i], b[i]).negate();
            acc = self.gate_and(acc, eq);
        }
        acc
    }

    fn shift_bits(&mut self, a: &[Lit], amount: &[Lit], kind: ShiftKind) -> Vec<Lit> {
        let w = a.len();
        let stages = (usize::BITS - (w - 1).leading_zeros()) as usize; // log2ceil
        let fill = match kind {
            ShiftKind::Shl | ShiftKind::LShr => self.fals(),
            ShiftKind::AShr => a[w - 1],
        };
        let mut cur: Vec<Lit> = a.to_vec();
        for s in 0..stages {
            let k = 1usize << s;
            let sel = amount.get(s).copied().unwrap_or(self.fals());
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                let shifted = match kind {
                    ShiftKind::Shl => {
                        if i >= k {
                            cur[i - k]
                        } else {
                            self.fals()
                        }
                    }
                    ShiftKind::LShr | ShiftKind::AShr => {
                        if i + k < w {
                            cur[i + k]
                        } else {
                            fill
                        }
                    }
                };
                next.push(self.gate_mux(sel, shifted, cur[i]));
            }
            cur = next;
        }
        cur
    }

    // ---- memory ---------------------------------------------------------

    /// One byte read `mem[addr]` where `mem` is a term of memory sort.
    fn byte_read(&mut self, pool: &TermPool, mem: TermId, addr: &[Lit]) -> Vec<Lit> {
        debug_assert_eq!(addr.len(), 64);
        let key = (mem, addr.to_vec());
        if let Some(bits) = self.byte_memo.get(&key) {
            return bits.clone();
        }
        let out = self.byte_read_uncached(pool, mem, addr);
        self.byte_memo.insert(key, out.clone());
        out
    }

    fn byte_read_uncached(&mut self, pool: &TermPool, mem: TermId, addr: &[Lit]) -> Vec<Lit> {
        match pool.data(mem).op {
            TermOp::Store => {
                let args = pool.data(mem).args.clone();
                let (inner, saddr_t, sval_t) = (args[0], args[1], args[2]);
                let saddr = self.blast(pool, saddr_t);
                let sval = self.blast(pool, sval_t);
                let nbytes = (pool.width(sval_t) / 8).max(1);
                let mut out = self.byte_read(pool, inner, addr);
                for k in 0..nbytes {
                    // target = saddr + k
                    let kconst = self.const_bits(u64::from(k), 64);
                    let target = self.add_bits(&saddr, &kconst);
                    let hit = self.eq_bits(addr, &target);
                    let byte: Vec<Lit> = (0..8)
                        .map(|j| {
                            sval.get((k * 8 + j) as usize)
                                .copied()
                                .unwrap_or(self.fals())
                        })
                        .collect();
                    out = (0..8)
                        .map(|j| self.gate_mux(hit, byte[j], out[j]))
                        .collect();
                }
                out
            }
            TermOp::MemVar(id) => {
                // Ackermann: fresh byte, congruent with previous reads of
                // the same base memory.
                let fresh: Vec<Lit> = (0..8).map(|_| self.fresh()).collect();
                let prev = self.mem_reads.entry(id).or_default().clone();
                for (paddr, pval) in prev {
                    let same = self.eq_bits(addr, &paddr);
                    for j in 0..8 {
                        let eqv = self.gate_xor(fresh[j], pval[j]).negate();
                        // same -> eqv
                        let cl = vec![same.negate(), eqv];
                        self.sat.add_clause(cl);
                    }
                }
                self.mem_reads
                    .get_mut(&id)
                    .expect("entry")
                    .push((addr.to_vec(), fresh.clone()));
                fresh
            }
            TermOp::Ite => {
                let args = pool.data(mem).args.clone();
                let c = self.blast(pool, args[0])[0];
                let t = self.byte_read(pool, args[1], addr);
                let e = self.byte_read(pool, args[2], addr);
                (0..8).map(|j| self.gate_mux(c, t[j], e[j])).collect()
            }
            _ => panic!("byte_read of non-memory term"),
        }
    }

    fn const_bits(&mut self, v: u64, w: u32) -> Vec<Lit> {
        (0..w)
            .map(|i| {
                if (v >> i) & 1 == 1 {
                    self.tru()
                } else {
                    self.fals()
                }
            })
            .collect()
    }

    // ---- terms ---------------------------------------------------------

    /// Bit-blasts a bitvector term, returning its bits LSB-first.
    ///
    /// Encodings are memoized by `TermId`; the pool must be the same
    /// (append-only) pool across all calls on one blaster.
    pub fn blast(&mut self, pool: &TermPool, t: TermId) -> Vec<Lit> {
        if let Some(b) = self.bits.get(&t) {
            self.blast_hits += 1;
            return b.clone();
        }
        self.blast_misses += 1;
        let data = pool.data(t).clone();
        let w = data.width;
        let out: Vec<Lit> = match data.op {
            TermOp::Const(v) => self.const_bits(v, w),
            TermOp::Var(id) => {
                if let Some(b) = self.var_bits.get(&id) {
                    b[..w as usize].to_vec()
                } else {
                    let b: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
                    self.var_bits.insert(id, b.clone());
                    b
                }
            }
            TermOp::MemVar(_) | TermOp::Store => {
                panic!("memory-sorted terms have no bit representation")
            }
            TermOp::Add => {
                let mut acc = self.blast(pool, data.args[0]);
                for a in &data.args[1..] {
                    let b = self.blast(pool, *a);
                    acc = self.add_bits(&acc, &b);
                }
                acc
            }
            TermOp::Mul => {
                // Multiplication by the all-ones constant is negation —
                // cheaper than a full multiplier and very common because
                // the normalizer encodes subtraction that way.
                if data.args.len() == 2 && pool.as_const(data.args[0]) == Some(crate::term::mask(w))
                {
                    let b = self.blast(pool, data.args[1]);
                    self.neg_bits(&b)
                } else {
                    let mut acc = self.blast(pool, data.args[0]);
                    let mut acc_const = pool.as_const(data.args[0]);
                    for a in &data.args[1..] {
                        // Constant multiplicand: shift-add over its set
                        // bits only (the normalizer keeps at most one
                        // constant, in front).
                        if let Some(c) = acc_const.take() {
                            let b = self.blast(pool, *a);
                            acc = self.mul_const_bits(&b, c);
                        } else {
                            let b = self.blast(pool, *a);
                            acc = self.mul_bits(&acc, &b);
                        }
                    }
                    acc
                }
            }
            TermOp::And | TermOp::Or | TermOp::Xor => {
                let mut acc = self.blast(pool, data.args[0]);
                for a in &data.args[1..] {
                    let b = self.blast(pool, *a);
                    acc = (0..w as usize)
                        .map(|i| match data.op {
                            TermOp::And => self.gate_and(acc[i], b[i]),
                            TermOp::Or => self.gate_or(acc[i], b[i]),
                            _ => self.gate_xor(acc[i], b[i]),
                        })
                        .collect();
                }
                acc
            }
            TermOp::Not => {
                let a = self.blast(pool, data.args[0]);
                a.iter().map(|l| l.negate()).collect()
            }
            TermOp::Shl | TermOp::LShr | TermOp::AShr => {
                let a = self.blast(pool, data.args[0]);
                let amt = self.blast(pool, data.args[1]);
                // Amount is taken modulo the width (widths are powers of
                // two here, so the low log2(w) bits suffice).
                let kind = match data.op {
                    TermOp::Shl => ShiftKind::Shl,
                    TermOp::LShr => ShiftKind::LShr,
                    _ => ShiftKind::AShr,
                };
                self.shift_bits(&a, &amt, kind)
            }
            TermOp::Eq => {
                let aw = pool.width(data.args[0]);
                if aw == 0 {
                    panic!("memory equality is not bit-blastable");
                }
                let a = self.blast(pool, data.args[0]);
                let b = self.blast(pool, data.args[1]);
                vec![self.eq_bits(&a, &b)]
            }
            TermOp::Ult => {
                let a = self.blast(pool, data.args[0]);
                let b = self.blast(pool, data.args[1]);
                // ult_bits expects MSB-first traversal; reverse.
                let ar: Vec<Lit> = a.iter().rev().copied().collect();
                let br: Vec<Lit> = b.iter().rev().copied().collect();
                vec![self.ult_bits(&ar, &br)]
            }
            TermOp::Slt => {
                let a = self.blast(pool, data.args[0]);
                let b = self.blast(pool, data.args[1]);
                let n = a.len();
                let (sa, sb) = (a[n - 1], b[n - 1]);
                let ar: Vec<Lit> = a.iter().rev().copied().collect();
                let br: Vec<Lit> = b.iter().rev().copied().collect();
                let ult = self.ult_bits(&ar, &br);
                // slt = (sa ∧ ¬sb) ∨ ((sa == sb) ∧ ult)
                let diff_neg = self.gate_and(sa, sb.negate());
                let same = self.gate_xor(sa, sb).negate();
                let same_lt = self.gate_and(same, ult);
                vec![self.gate_or(diff_neg, same_lt)]
            }
            TermOp::Ite => {
                let c = self.blast(pool, data.args[0])[0];
                let a = self.blast(pool, data.args[1]);
                let b = self.blast(pool, data.args[2]);
                (0..w as usize)
                    .map(|i| self.gate_mux(c, a[i], b[i]))
                    .collect()
            }
            TermOp::Zext => {
                let mut a = self.blast(pool, data.args[0]);
                while a.len() < w as usize {
                    a.push(self.fals());
                }
                a
            }
            TermOp::Sext => {
                let mut a = self.blast(pool, data.args[0]);
                let s = *a.last().expect("non-empty");
                while a.len() < w as usize {
                    a.push(s);
                }
                a
            }
            TermOp::Extract(hi, lo) => {
                let a = self.blast(pool, data.args[0]);
                a[lo as usize..=hi as usize].to_vec()
            }
            TermOp::Concat => {
                let hi = self.blast(pool, data.args[0]);
                let mut lo = self.blast(pool, data.args[1]);
                lo.extend(hi);
                lo
            }
            TermOp::Load => {
                let addr = self.blast(pool, data.args[1]);
                let mut out = Vec::with_capacity(w as usize);
                for k in 0..(w / 8).max(1) {
                    let kc = self.const_bits(u64::from(k), 64);
                    let a = self.add_bits(&addr, &kc);
                    out.extend(self.byte_read(pool, data.args[0], &a));
                }
                out.truncate(w as usize);
                out
            }
        };
        debug_assert_eq!(out.len(), w as usize, "width mismatch for {:?}", data.op);
        self.bits.insert(t, out.clone());
        out
    }

    /// The comparator literal asserting `a == b` bitwise. The lower id is
    /// encoded first, so the CNF is the same whichever way round the pair
    /// is asked.
    pub fn eq_lit(&mut self, pool: &TermPool, a: TermId, b: TermId) -> Lit {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let lo_bits = self.blast(pool, lo);
        let hi_bits = self.blast(pool, hi);
        self.eq_bits(&lo_bits, &hi_bits)
    }

    /// Checks the validity of `a == b` (same width) with a conflict budget:
    /// `Some(true)` = valid, `Some(false)` = counterexample, `None` =
    /// budget exhausted.
    pub fn prove_equal(
        &mut self,
        pool: &TermPool,
        a: TermId,
        b: TermId,
        budget: u64,
    ) -> Option<bool> {
        let eq = self.eq_lit(pool, a, b);
        match self.sat.solve_with_budget(&[eq.negate()], budget) {
            SatResult::Unsat => Some(true),
            SatResult::Sat => Some(false),
            SatResult::Unknown => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Shl,
    LShr,
    AShr,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Assignment, CVal};
    use crate::term::TermPool;

    /// Builds a raw (non-normalizing) binary term for testing the blaster
    /// against the evaluator without normalization collapsing both sides.
    fn check_equiv_decision(pool: &mut TermPool, a: TermId, b: TermId, expect_equal: bool) {
        let mut bb = BitBlaster::new();
        let got = bb
            .prove_equal(pool, a, b, 1_000_000)
            .expect("within budget");
        assert_eq!(got, expect_equal);
    }

    #[test]
    fn add_commutes_under_sat() {
        let mut p = TermPool::new();
        let x = p.var(0, 16);
        let y = p.var(1, 16);
        // Defeat normalization by wrapping one side in extract(concat).
        let xy = p.add2(x, y);
        let z = p.constant(0, 16);
        let yx0 = p.add2(y, x);
        let yx = p.add2(yx0, z);
        assert_eq!(xy, yx, "normalizer should already identify these");
        check_equiv_decision(&mut p, xy, yx, true);
    }

    #[test]
    fn sat_proves_nontrivial_identity() {
        // x ^ y == (x | y) - (x & y) — not closed by the normalizer.
        let mut p = TermPool::new();
        let x = p.var(0, 16);
        let y = p.var(1, 16);
        let lhs = p.xor(vec![x, y]);
        let or = p.or(vec![x, y]);
        let and = p.and(vec![x, y]);
        let rhs = p.sub(or, and);
        assert_ne!(lhs, rhs, "normalizer does not know this identity");
        check_equiv_decision(&mut p, lhs, rhs, true);
    }

    #[test]
    fn sat_refutes_near_identity() {
        // x + 1 != x + 2.
        let mut p = TermPool::new();
        let x = p.var(0, 16);
        let c1 = p.constant(1, 16);
        let c2 = p.constant(2, 16);
        let a = p.add2(x, c1);
        let b = p.add2(x, c2);
        check_equiv_decision(&mut p, a, b, false);
    }

    #[test]
    fn mul_against_shift_add() {
        // 7*x == (x << 3) - x, via SAT on 12-bit vectors.
        let mut p = TermPool::new();
        let x = p.var(0, 12);
        let seven = p.constant(7, 12);
        let lhs = p.mul(vec![seven, x]);
        let eight = p.constant(8, 12);
        let x8 = p.mul(vec![eight, x]);
        let rhs = p.sub(x8, x);
        // Normalizer gets this via linear combination already:
        assert_eq!(lhs, rhs);
        check_equiv_decision(&mut p, lhs, rhs, true);
    }

    #[test]
    fn comparisons_blast_correctly() {
        let mut p = TermPool::new();
        let x = p.var(0, 8);
        let c = p.constant(0x80, 8);
        let slt = p.slt(x, c);
        // x <s 0x80 (i.e. x >= 0 signed ... 0x80 is -128; nothing is < -128)
        let f = p.constant(0, 1);
        check_equiv_decision(&mut p, slt, f, true);
        let ult = p.ult(x, c);
        check_equiv_decision(&mut p, ult, f, false);
    }

    #[test]
    fn dynamic_shift_matches_eval() {
        let mut p = TermPool::new();
        let x = p.var(0, 16);
        let s = p.var(1, 16);
        let shifted = {
            let m = p.constant(15, 16);
            let sm = p.and(vec![s, m]);
            p.lshr(x, sm)
        };
        // Compare SAT model against the evaluator on a few assignments.
        for round in 0..4 {
            let a = Assignment::random(round);
            let want = match eval(&p, shifted, &a) {
                CVal::Bv(v) => v,
                CVal::Mem(_) => unreachable!(),
            };
            let c = p.constant(want, 16);
            let mut bb = BitBlaster::new();
            // Pin the variables to the assignment values via constants.
            let xv = match eval(&p, x, &a) {
                CVal::Bv(v) => v,
                CVal::Mem(_) => unreachable!(),
            };
            let sv = match eval(&p, s, &a) {
                CVal::Bv(v) => v,
                CVal::Mem(_) => unreachable!(),
            };
            let xb = bb.blast(&p, x);
            let xc = bb.const_bits(xv, 16);
            for (l, cbit) in xb.iter().zip(&xc) {
                bb.sat.add_clause(vec![l.negate(), *cbit]);
                bb.sat.add_clause(vec![*l, cbit.negate()]);
            }
            let sb = bb.blast(&p, s);
            let sc = bb.const_bits(sv, 16);
            for (l, cbit) in sb.iter().zip(&sc) {
                bb.sat.add_clause(vec![l.negate(), *cbit]);
                bb.sat.add_clause(vec![*l, cbit.negate()]);
            }
            let got = bb.prove_equal(&p, shifted, c, 1_000_000).expect("budget");
            assert!(got, "round {round}: shift blasting disagrees with eval");
        }
    }

    #[test]
    fn load_store_forwarding_via_sat() {
        // load(store(m, a, v), a) == v even when addresses are symbolic.
        let mut p = TermPool::new();
        let m = p.mem_var(0);
        let a = p.var(0, 64);
        let v = p.var(1, 32);
        let m2 = p.store(m, a, v);
        // Defeat the normalizer's syntactic forwarding with `a + 0`... the
        // normalizer folds that too, so just confirm the already-forwarded
        // form and a byte-split read.
        let lo = p.load(m2, a, 8);
        let vlo = p.extract(v, 7, 0);
        check_equiv_decision(&mut p, lo, vlo, true);
    }

    #[test]
    fn aliasing_load_is_not_provably_old_value() {
        // load(store(m, a, v), b) == load(m, b) must NOT be valid (a may
        // alias b).
        let mut p = TermPool::new();
        let m = p.mem_var(0);
        let a = p.var(0, 64);
        let b = p.var(1, 64);
        let v = p.var(2, 8);
        let m2 = p.store(m, a, v);
        let l1 = p.load(m2, b, 8);
        let l2 = p.load(m, b, 8);
        check_equiv_decision(&mut p, l1, l2, false);
    }

    #[test]
    fn mixed_width_store_load() {
        // Store 32 bits, load the second byte: equals extract(v, 15, 8).
        let mut p = TermPool::new();
        let m = p.mem_var(0);
        let a = p.var(0, 64);
        let v = p.var(1, 32);
        let m2 = p.store(m, a, v);
        let one = p.constant(1, 64);
        let a1 = p.add2(a, one);
        let byte = p.load(m2, a1, 8);
        let want = p.extract(v, 15, 8);
        check_equiv_decision(&mut p, byte, want, true);
    }

    #[test]
    fn blast_cache_counters_track_sub_dag_sharing() {
        let mut p = TermPool::new();
        let x = p.var(0, 16);
        let y = p.var(1, 16);
        let xor = p.xor(vec![x, y]);
        let mut bb = BitBlaster::new();
        bb.blast(&p, xor);
        let misses = bb.blast_misses;
        assert!(misses >= 3, "x, y and the xor all built fresh");
        bb.blast(&p, xor);
        assert_eq!(bb.blast_misses, misses, "second blast is a pure hit");
        assert!(bb.blast_hits >= 1);
    }
}
