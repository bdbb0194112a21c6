//! Hash-consed bitvector terms with normalizing smart constructors.
//!
//! Every construction runs light algebraic normalization (constant
//! folding, flattening and sorting of associative-commutative operators,
//! linear-combination canonicalization of sums, strength-reduced shifts),
//! so that the syntactically different idioms the synthetic compilers emit
//! for one computation — `lea r,[r+r*4]` vs `imul r,5`, `add`-chains vs
//! `lea`, `xor r,r` vs `mov r,0` — meet in one canonical form. What
//! normalization cannot close, the bit-blaster (see `bitblast`) decides.

use std::collections::HashMap;

/// A term handle (index into the pool). Equal handles ⇔ identical terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Operator of a term node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermOp {
    /// A free bitvector variable.
    Var(u32),
    /// A free memory-array variable.
    MemVar(u32),
    /// A constant (value stored masked to the width).
    Const(u64),
    /// N-ary wrapping sum (canonical linear combination).
    Add,
    /// N-ary wrapping product (leading constant coefficient if any).
    Mul,
    /// N-ary bitwise and.
    And,
    /// N-ary bitwise or.
    Or,
    /// N-ary bitwise xor.
    Xor,
    /// Bitwise complement.
    Not,
    /// Left shift by a (non-constant) amount, modulo width.
    Shl,
    /// Logical right shift, modulo width.
    LShr,
    /// Arithmetic right shift, modulo width.
    AShr,
    /// Equality (width-1 result).
    Eq,
    /// Unsigned less-than (width-1 result).
    Ult,
    /// Signed less-than (width-1 result).
    Slt,
    /// If-then-else (condition is width-1).
    Ite,
    /// Zero-extension.
    Zext,
    /// Sign-extension.
    Sext,
    /// Bit extraction `hi..=lo`.
    Extract(u32, u32),
    /// Concatenation of two bitvectors (first arg is the high part).
    Concat,
    /// `load(mem, addr)` of `width` bits.
    Load,
    /// `store(mem, addr, value)` → memory (width of the stored value is
    /// the value argument's width).
    Store,
}

/// The interned representation of one node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TermData {
    /// Operator.
    pub op: TermOp,
    /// Argument handles.
    pub args: Vec<TermId>,
    /// Result width in bits; `0` denotes the memory sort.
    pub width: u32,
}

/// Masks to `w` bits.
pub fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

fn sext64(v: u64, w: u32) -> i64 {
    if w >= 64 {
        v as i64
    } else {
        ((v << (64 - w)) as i64) >> (64 - w)
    }
}

/// The hash-consing term pool.
#[derive(Debug, Default)]
pub struct TermPool {
    terms: Vec<TermData>,
    dedup: HashMap<TermData, TermId>,
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> TermPool {
        TermPool::default()
    }

    /// The node behind a handle.
    pub fn data(&self, t: TermId) -> &TermData {
        &self.terms[t.index()]
    }

    /// Result width of `t` (0 for memory).
    pub fn width(&self, t: TermId) -> u32 {
        self.data(t).width
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if the pool has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    fn intern(&mut self, data: TermData) -> TermId {
        if let Some(&id) = self.dedup.get(&data) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(data.clone());
        self.dedup.insert(data, id);
        id
    }

    /// Constant of `value` at `width`.
    pub fn constant(&mut self, value: u64, width: u32) -> TermId {
        self.intern(TermData {
            op: TermOp::Const(value & mask(width)),
            args: vec![],
            width,
        })
    }

    /// Free variable `id` at `width`.
    pub fn var(&mut self, id: u32, width: u32) -> TermId {
        self.intern(TermData {
            op: TermOp::Var(id),
            args: vec![],
            width,
        })
    }

    /// Free memory variable.
    pub fn mem_var(&mut self, id: u32) -> TermId {
        self.intern(TermData {
            op: TermOp::MemVar(id),
            args: vec![],
            width: 0,
        })
    }

    /// The constant value of `t`, if it is a constant.
    pub fn as_const(&self, t: TermId) -> Option<u64> {
        match self.data(t).op {
            TermOp::Const(v) => Some(v),
            _ => None,
        }
    }

    fn bool_const(&mut self, b: bool) -> TermId {
        self.constant(u64::from(b), 1)
    }

    // ---- sums (canonical linear combinations) --------------------------

    /// `a + b` (wrapping at their shared width).
    pub fn add2(&mut self, a: TermId, b: TermId) -> TermId {
        self.add(vec![a, b])
    }

    /// N-ary sum: flattens nested sums, folds constants, merges repeated
    /// cores into coefficients (`x + x → 2*x`).
    pub fn add(&mut self, args: Vec<TermId>) -> TermId {
        let w = self.width(args[0]);
        let mut constant = 0u64;
        // core term -> coefficient
        let mut coeffs: Vec<(TermId, u64)> = Vec::new();
        let mut stack = args;
        while let Some(t) = stack.pop() {
            match &self.data(t).op {
                TermOp::Const(v) => constant = constant.wrapping_add(*v) & mask(w),
                TermOp::Add => stack.extend(self.data(t).args.clone()),
                TermOp::Mul => {
                    // Split a leading constant coefficient.
                    let margs = self.data(t).args.clone();
                    if let Some(c) = self.as_const(margs[0]) {
                        let core = if margs.len() == 2 {
                            margs[1]
                        } else {
                            self.mul(margs[1..].to_vec())
                        };
                        bump(&mut coeffs, core, c, w);
                    } else {
                        bump(&mut coeffs, t, 1, w);
                    }
                }
                _ => bump(&mut coeffs, t, 1, w),
            }
        }
        coeffs.retain(|(_, c)| *c != 0);
        coeffs.sort_by_key(|(t, _)| *t);
        let mut parts: Vec<TermId> = Vec::with_capacity(coeffs.len() + 1);
        for (core, c) in coeffs {
            if c == 1 {
                parts.push(core);
            } else {
                let cc = self.constant(c, w);
                parts.push(self.mul(vec![cc, core]));
            }
        }
        if constant != 0 || parts.is_empty() {
            let c = self.constant(constant, w);
            parts.insert(0, c);
        }
        if parts.len() == 1 {
            return parts[0];
        }
        self.intern(TermData {
            op: TermOp::Add,
            args: parts,
            width: w,
        })
    }

    /// `a - b`.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let nb = self.neg(b);
        self.add(vec![a, nb])
    }

    /// Two's-complement negation (canonicalized to `-1 * t`).
    pub fn neg(&mut self, t: TermId) -> TermId {
        let w = self.width(t);
        let m1 = self.constant(u64::MAX, w);
        self.mul(vec![m1, t])
    }

    /// N-ary product: flattens, folds constants to a single leading
    /// coefficient, sorts the rest.
    pub fn mul(&mut self, args: Vec<TermId>) -> TermId {
        let w = self.width(args[0]);
        let mut constant = 1u64 & mask(w);
        if w >= 1 {
            constant = 1;
        }
        let mut cores: Vec<TermId> = Vec::new();
        let mut stack = args;
        while let Some(t) = stack.pop() {
            match &self.data(t).op {
                TermOp::Const(v) => constant = constant.wrapping_mul(*v) & mask(w),
                TermOp::Mul => stack.extend(self.data(t).args.clone()),
                _ => cores.push(t),
            }
        }
        if constant == 0 {
            return self.constant(0, w);
        }
        cores.sort();
        if cores.is_empty() {
            return self.constant(constant, w);
        }
        let mut parts = cores;
        if constant != 1 {
            let c = self.constant(constant, w);
            parts.insert(0, c);
        }
        if parts.len() == 1 {
            return parts[0];
        }
        // Distribute a constant over a sum: c*(a+b) → c*a + c*b, which
        // lets linear combinations merge across lea/imul idioms.
        if parts.len() == 2 {
            if let (Some(c), TermOp::Add) = (self.as_const(parts[0]), self.data(parts[1]).op) {
                let addends = self.data(parts[1]).args.clone();
                let distributed: Vec<TermId> = addends
                    .into_iter()
                    .map(|t| {
                        let cc = self.constant(c, w);
                        self.mul(vec![cc, t])
                    })
                    .collect();
                return self.add(distributed);
            }
        }
        self.intern(TermData {
            op: TermOp::Mul,
            args: parts,
            width: w,
        })
    }

    // ---- bitwise --------------------------------------------------------

    fn acc_bitwise(
        &mut self,
        op: TermOp,
        args: Vec<TermId>,
        ident: u64,
        absorb: Option<u64>,
        fold: fn(u64, u64) -> u64,
    ) -> TermId {
        let w = self.width(args[0]);
        let ident = ident & mask(w);
        let absorb = absorb.map(|a| a & mask(w));
        let mut constant = ident;
        let mut cores: Vec<TermId> = Vec::new();
        let mut stack = args;
        while let Some(t) = stack.pop() {
            match &self.data(t).op {
                TermOp::Const(v) => constant = fold(constant, *v) & mask(w),
                o if *o == op => stack.extend(self.data(t).args.clone()),
                _ => cores.push(t),
            }
        }
        cores.sort();
        if op == TermOp::Xor {
            // x ^ x cancels pairwise.
            let mut out: Vec<TermId> = Vec::new();
            for t in cores {
                if out.last() == Some(&t) {
                    out.pop();
                } else {
                    out.push(t);
                }
            }
            cores = out;
        } else {
            cores.dedup(); // x & x = x, x | x = x
        }
        if Some(constant) == absorb {
            return self.constant(constant, w);
        }
        if cores.is_empty() {
            return self.constant(constant, w);
        }
        let mut parts = cores;
        if constant != ident {
            let c = self.constant(constant, w);
            parts.insert(0, c);
        }
        if parts.len() == 1 {
            return parts[0];
        }
        self.intern(TermData {
            op,
            args: parts,
            width: w,
        })
    }

    /// N-ary bitwise and.
    pub fn and(&mut self, args: Vec<TermId>) -> TermId {
        self.acc_bitwise(TermOp::And, args, u64::MAX, Some(0), |a, b| a & b)
    }

    /// N-ary bitwise or.
    pub fn or(&mut self, args: Vec<TermId>) -> TermId {
        self.acc_bitwise(TermOp::Or, args, 0, Some(u64::MAX), |a, b| a | b)
    }

    /// N-ary bitwise xor (no absorbing element; an all-ones constant
    /// folds into a complement of the rest).
    pub fn xor(&mut self, args: Vec<TermId>) -> TermId {
        let w = self.width(args[0]);
        let r = self.acc_bitwise(TermOp::Xor, args, 0, None, |a, b| a ^ b);
        // Canonicalize `x ^ 1...1` to `not(x)`.
        if let TermOp::Xor = self.data(r).op {
            let rargs = self.data(r).args.clone();
            if self.as_const(rargs[0]) == Some(mask(w)) {
                let rest = if rargs.len() == 2 {
                    rargs[1]
                } else {
                    self.xor(rargs[1..].to_vec())
                };
                return self.not(rest);
            }
        }
        r
    }

    /// Bitwise complement.
    pub fn not(&mut self, t: TermId) -> TermId {
        let w = self.width(t);
        match &self.data(t).op {
            TermOp::Const(v) => self.constant(!v, w),
            TermOp::Not => self.data(t).args[0],
            _ => self.intern(TermData {
                op: TermOp::Not,
                args: vec![t],
                width: w,
            }),
        }
    }

    // ---- shifts ---------------------------------------------------------

    /// Left shift (amount modulo width).
    pub fn shl(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width(a);
        if let Some(k) = self.as_const(b) {
            let k = (k % u64::from(w)) as u32;
            if k == 0 {
                return a;
            }
            // Strength-reduce to a multiplication so `shl` and `imul`
            // idioms normalize identically.
            let c = self.constant(1u64 << k, w);
            return self.mul(vec![c, a]);
        }
        self.intern(TermData {
            op: TermOp::Shl,
            args: vec![a, b],
            width: w,
        })
    }

    /// Logical right shift (amount modulo width).
    pub fn lshr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width(a);
        if let Some(k) = self.as_const(b) {
            let k = (k % u64::from(w)) as u32;
            if k == 0 {
                return a;
            }
            if let Some(v) = self.as_const(a) {
                return self.constant(v >> k, w);
            }
        }
        self.intern(TermData {
            op: TermOp::LShr,
            args: vec![a, b],
            width: w,
        })
    }

    /// Arithmetic right shift (amount modulo width).
    pub fn ashr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.width(a);
        if let Some(k) = self.as_const(b) {
            let k = (k % u64::from(w)) as u32;
            if k == 0 {
                return a;
            }
            if let Some(v) = self.as_const(a) {
                return self.constant((sext64(v, w) >> k) as u64, w);
            }
        }
        self.intern(TermData {
            op: TermOp::AShr,
            args: vec![a, b],
            width: w,
        })
    }

    // ---- predicates -----------------------------------------------------

    /// Equality.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.bool_const(true);
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.bool_const(x == y);
        }
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        self.intern(TermData {
            op: TermOp::Eq,
            args: vec![a, b],
            width: 1,
        })
    }

    /// Unsigned less-than.
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.bool_const(false);
        }
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.bool_const(x < y);
        }
        self.intern(TermData {
            op: TermOp::Ult,
            args: vec![a, b],
            width: 1,
        })
    }

    /// Signed less-than.
    pub fn slt(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.bool_const(false);
        }
        let w = self.width(a);
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.bool_const(sext64(x, w) < sext64(y, w));
        }
        self.intern(TermData {
            op: TermOp::Slt,
            args: vec![a, b],
            width: 1,
        })
    }

    /// Unsigned less-or-equal, via `¬(b < a)`.
    pub fn ule(&mut self, a: TermId, b: TermId) -> TermId {
        let lt = self.ult(b, a);
        self.not(lt)
    }

    /// Signed less-or-equal, via `¬(b <s a)`.
    pub fn sle(&mut self, a: TermId, b: TermId) -> TermId {
        let lt = self.slt(b, a);
        self.not(lt)
    }

    /// If-then-else.
    pub fn ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        if t == e {
            return t;
        }
        if let Some(v) = self.as_const(c) {
            return if v != 0 { t } else { e };
        }
        let w = self.width(t);
        self.intern(TermData {
            op: TermOp::Ite,
            args: vec![c, t, e],
            width: w,
        })
    }

    // ---- width changes ---------------------------------------------------

    /// Zero-extension to `to` bits.
    pub fn zext(&mut self, t: TermId, to: u32) -> TermId {
        let w = self.width(t);
        if w == to {
            return t;
        }
        if let Some(v) = self.as_const(t) {
            return self.constant(v, to);
        }
        if let TermOp::Zext = self.data(t).op {
            let inner = self.data(t).args[0];
            return self.zext(inner, to);
        }
        self.intern(TermData {
            op: TermOp::Zext,
            args: vec![t],
            width: to,
        })
    }

    /// Sign-extension to `to` bits.
    pub fn sext(&mut self, t: TermId, to: u32) -> TermId {
        let w = self.width(t);
        if w == to {
            return t;
        }
        if let Some(v) = self.as_const(t) {
            return self.constant(sext64(v, w) as u64, to);
        }
        self.intern(TermData {
            op: TermOp::Sext,
            args: vec![t],
            width: to,
        })
    }

    /// Extraction of bits `hi..=lo`.
    pub fn extract(&mut self, t: TermId, hi: u32, lo: u32) -> TermId {
        let w = self.width(t);
        let out_w = hi - lo + 1;
        if lo == 0 && out_w == w {
            return t;
        }
        if let Some(v) = self.as_const(t) {
            return self.constant(v >> lo, out_w);
        }
        match self.data(t).op {
            TermOp::Zext => {
                let inner = self.data(t).args[0];
                let iw = self.width(inner);
                if hi < iw {
                    return self.extract(inner, hi, lo);
                }
                if lo >= iw {
                    return self.constant(0, out_w);
                }
                // Straddles: extract the live part and zero-extend.
                let live = self.extract(inner, iw - 1, lo);
                return self.zext(live, out_w);
            }
            TermOp::Extract(_, ilo) => {
                let inner = self.data(t).args[0];
                return self.extract(inner, ilo + hi, ilo + lo);
            }
            TermOp::Concat => {
                let (hi_part, lo_part) = (self.data(t).args[0], self.data(t).args[1]);
                let lo_w = self.width(lo_part);
                if hi < lo_w {
                    return self.extract(lo_part, hi, lo);
                }
                if lo >= lo_w {
                    return self.extract(hi_part, hi - lo_w, lo - lo_w);
                }
            }
            _ => {}
        }
        self.intern(TermData {
            op: TermOp::Extract(hi, lo),
            args: vec![t],
            width: out_w,
        })
    }

    /// Concatenation (`hi ++ lo`).
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let w = self.width(hi) + self.width(lo);
        if let (Some(h), Some(l)) = (self.as_const(hi), self.as_const(lo)) {
            let lw = self.width(lo);
            return self.constant((h << lw) | l, w);
        }
        // Merge adjacent extracts of the same base: x[63:8] ++ x[7:0] = x.
        if let (TermOp::Extract(hh, hl), TermOp::Extract(lh, ll)) =
            (self.data(hi).op, self.data(lo).op)
        {
            let (bh, bl) = (self.data(hi).args[0], self.data(lo).args[0]);
            if bh == bl && hl == lh + 1 {
                return self.extract(bh, hh, ll);
            }
        }
        // Zero high part of a zero-extended value: 0 ++ x = zext(x).
        if self.as_const(hi) == Some(0) {
            return self.zext(lo, w);
        }
        self.intern(TermData {
            op: TermOp::Concat,
            args: vec![hi, lo],
            width: w,
        })
    }

    // ---- memory -----------------------------------------------------------

    /// `load(mem, addr)` of `width` bits; sees through store chains when
    /// the addresses are syntactically decidable.
    pub fn load(&mut self, mem: TermId, addr: TermId, width: u32) -> TermId {
        if let TermOp::Store = self.data(mem).op {
            let sargs = self.data(mem).args.clone();
            let (smem, saddr, sval) = (sargs[0], sargs[1], sargs[2]);
            let sw = self.width(sval);
            if saddr == addr && sw == width {
                return sval;
            }
            // Definitely-disjoint constant ranges skip the store.
            if let (Some(a), Some(b)) = (self.as_const(addr), self.as_const(saddr)) {
                let (la, lb) = (u64::from(width / 8), u64::from(sw / 8));
                let disjoint = a.wrapping_add(la) <= b || b.wrapping_add(lb) <= a;
                // Only valid without wraparound; require both ends sane.
                if disjoint && a.checked_add(la).is_some() && b.checked_add(lb).is_some() {
                    return self.load(smem, addr, width);
                }
            }
        }
        self.intern(TermData {
            op: TermOp::Load,
            args: vec![mem, addr],
            width,
        })
    }

    /// `store(mem, addr, value)`.
    pub fn store(&mut self, mem: TermId, addr: TermId, value: TermId) -> TermId {
        // Same-address same-width overwrite supersedes the inner store.
        if let TermOp::Store = self.data(mem).op {
            let sargs = self.data(mem).args.clone();
            if sargs[1] == addr && self.width(sargs[2]) == self.width(value) {
                return self.store(sargs[0], addr, value);
            }
        }
        self.intern(TermData {
            op: TermOp::Store,
            args: vec![mem, addr, value],
            width: 0,
        })
    }

    /// Number of nodes in the DAG rooted at `t`.
    pub fn dag_size(&self, t: TermId) -> usize {
        let mut seen = vec![false; self.terms.len()];
        let mut n = 0;
        let mut stack = vec![t];
        while let Some(x) = stack.pop() {
            if seen[x.index()] {
                continue;
            }
            seen[x.index()] = true;
            n += 1;
            stack.extend(self.data(x).args.iter().copied());
        }
        n
    }
}

fn bump(coeffs: &mut Vec<(TermId, u64)>, core: TermId, c: u64, w: u32) {
    for (t, cc) in coeffs.iter_mut() {
        if *t == core {
            *cc = cc.wrapping_add(c) & mask(w);
            return;
        }
    }
    coeffs.push((core, c & mask(w)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold() {
        let mut p = TermPool::new();
        let a = p.constant(40, 64);
        let b = p.constant(2, 64);
        assert_eq!(p.add2(a, b), p.constant(42, 64));
        assert_eq!(p.mul(vec![a, b]), p.constant(80, 64));
        assert_eq!(p.sub(a, b), p.constant(38, 64));
    }

    #[test]
    fn lea_and_imul_idioms_normalize_identically() {
        let mut p = TermPool::new();
        let x = p.var(0, 64);
        // lea r, [x + x*4]  ==  imul r, x, 5  ==  (x << 2) + x
        let four = p.constant(4, 64);
        let five = p.constant(5, 64);
        let x4 = p.mul(vec![x, four]);
        let lea = p.add2(x, x4);
        let imul = p.mul(vec![five, x]);
        let two = p.constant(2, 64);
        let shl = p.shl(x, two);
        let shl_add = p.add2(shl, x);
        assert_eq!(lea, imul);
        assert_eq!(lea, shl_add);
    }

    #[test]
    fn sums_are_order_insensitive_and_merge() {
        let mut p = TermPool::new();
        let x = p.var(0, 64);
        let y = p.var(1, 64);
        let c = p.constant(13, 64);
        let a1 = p.add(vec![x, y, c]);
        let a2 = {
            let t = p.add2(c, y);
            p.add2(t, x)
        };
        assert_eq!(a1, a2);
        // x + x = 2x
        let xx = p.add2(x, x);
        let two = p.constant(2, 64);
        assert_eq!(xx, p.mul(vec![two, x]));
        // x - x = 0
        assert_eq!(p.sub(x, x), p.constant(0, 64));
    }

    #[test]
    fn xor_self_cancels_and_zero_identity() {
        let mut p = TermPool::new();
        let x = p.var(0, 32);
        assert_eq!(p.xor(vec![x, x]), p.constant(0, 32));
        let z = p.constant(0, 32);
        assert_eq!(p.xor(vec![x, z]), x);
        assert_eq!(p.and(vec![x, x]), x);
        let ones = p.constant(u64::MAX, 32);
        assert_eq!(p.and(vec![x, ones]), x);
        assert_eq!(p.or(vec![x, z]), x);
    }

    #[test]
    fn xor_with_all_ones_is_not() {
        // Regression: the all-ones constant is NOT absorbing for xor; it
        // must fold into a complement, never swallow the other operands.
        let mut p = TermPool::new();
        let x = p.var(0, 16);
        let ones = p.constant(0xffff, 16);
        let e = p.xor(vec![x, ones]);
        assert_eq!(e, p.not(x));
        // ...and the `xor reg, -1` vs `not reg` idioms now unify.
        let y = p.var(1, 64);
        let m1 = p.constant(u64::MAX, 64);
        let a = p.xor(vec![y, m1]);
        assert_eq!(a, p.not(y));
        // Three-operand case keeps the rest intact.
        let z = p.var(2, 16);
        let multi = p.xor(vec![x, ones, z]);
        let xz = p.xor(vec![x, z]);
        assert_eq!(multi, p.not(xz));
    }

    #[test]
    fn double_negation_and_not() {
        let mut p = TermPool::new();
        let x = p.var(0, 64);
        let n = p.neg(x);
        assert_eq!(p.neg(n), x);
        let nt = p.not(x);
        assert_eq!(p.not(nt), x);
    }

    #[test]
    fn sub_as_negated_add() {
        let mut p = TermPool::new();
        let x = p.var(0, 64);
        let y = p.var(1, 64);
        // (x - y) + y = x
        let d = p.sub(x, y);
        assert_eq!(p.add2(d, y), x);
    }

    #[test]
    fn extract_concat_roundtrip() {
        let mut p = TermPool::new();
        let x = p.var(0, 64);
        let hi = p.extract(x, 63, 8);
        let lo = p.extract(x, 7, 0);
        assert_eq!(p.concat(hi, lo), x);
        // Extract of extract composes.
        let mid = p.extract(x, 31, 8);
        let sub = p.extract(mid, 7, 0);
        assert_eq!(sub, p.extract(x, 15, 8));
    }

    #[test]
    fn zext_chains_collapse() {
        let mut p = TermPool::new();
        let x = p.var(0, 8);
        let a = p.zext(x, 32);
        let b = p.zext(a, 64);
        assert_eq!(b, p.zext(x, 64));
        // Extract below the original width sees through zext.
        assert_eq!(p.extract(b, 7, 0), x);
        // Extract above is zero.
        assert_eq!(p.extract(b, 63, 8), p.constant(0, 56));
    }

    #[test]
    fn predicates_fold() {
        let mut p = TermPool::new();
        let x = p.var(0, 64);
        assert_eq!(p.eq(x, x), p.constant(1, 1));
        assert_eq!(p.ult(x, x), p.constant(0, 1));
        let a = p.constant(u64::MAX, 64);
        let b = p.constant(0, 64);
        assert_eq!(p.ult(a, b), p.constant(0, 1));
        assert_eq!(p.slt(a, b), p.constant(1, 1)); // -1 <s 0
    }

    #[test]
    fn ite_simplifies() {
        let mut p = TermPool::new();
        let c = p.var(0, 1);
        let x = p.var(1, 64);
        let y = p.var(2, 64);
        assert_eq!(p.ite(c, x, x), x);
        let t = p.constant(1, 1);
        assert_eq!(p.ite(t, x, y), x);
    }

    #[test]
    fn load_store_forwarding() {
        let mut p = TermPool::new();
        let m = p.mem_var(0);
        let a = p.var(0, 64);
        let v = p.var(1, 64);
        let m2 = p.store(m, a, v);
        assert_eq!(p.load(m2, a, 64), v);
        // Disjoint constant addresses skip the store.
        let c1 = p.constant(0x100, 64);
        let c2 = p.constant(0x200, 64);
        let m3 = p.store(m, c1, v);
        assert_eq!(p.load(m3, c2, 64), p.load(m, c2, 64));
        // Overlapping constant addresses do not.
        let c3 = p.constant(0x104, 64);
        assert_ne!(p.load(m3, c3, 64), p.load(m, c3, 64));
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut p = TermPool::new();
        let x = p.var(0, 64);
        let y = p.var(1, 64);
        let a = p.add2(x, y);
        let b = p.add2(y, x);
        assert_eq!(a, b);
        let n = p.len();
        let _ = p.add2(x, y);
        assert_eq!(p.len(), n);
    }
}
